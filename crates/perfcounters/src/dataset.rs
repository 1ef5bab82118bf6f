//! Labeled collections of samples with splits, summaries, and I/O.

use crate::events::{EventId, N_EVENTS};
use crate::sample::Sample;
use crate::{DataError, Result};
use mathkit::describe::Summary;
use mathkit::matrix::Matrix;
use mathkit::sampling::permutation;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::sync::OnceLock;

/// Column-major copy of a dataset's numeric content, built lazily and
/// cached on the owning [`Dataset`].
///
/// Training-time inner loops (split search, node-model fitting) walk one
/// event at a time across many samples; the row-major `Vec<Sample>`
/// layout makes that a strided scatter. The column store keeps each
/// event's densities — and the CPI target — as one contiguous `&[f64]`
/// slice, so hot loops touch memory sequentially and never allocate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStore {
    /// Sample count (the length of every column).
    n: usize,
    /// All event columns, concatenated: column `e` occupies
    /// `e.index() * n .. (e.index() + 1) * n`.
    events: Vec<f64>,
    /// The CPI (dependent-variable) column.
    cpi: Vec<f64>,
}

impl ColumnStore {
    fn build(samples: &[Sample]) -> ColumnStore {
        let n = samples.len();
        let mut events = vec![0.0; N_EVENTS * n];
        let mut cpi = Vec::with_capacity(n);
        for (i, s) in samples.iter().enumerate() {
            cpi.push(s.cpi());
            for (e, &v) in s.densities().iter().enumerate() {
                events[e * n + i] = v;
            }
        }
        ColumnStore { n, events, cpi }
    }

    /// The contiguous density column for one event.
    pub fn event(&self, event: EventId) -> &[f64] {
        &self.events[event.index() * self.n..(event.index() + 1) * self.n]
    }

    /// Every event column, concatenated event-major: column `e`
    /// occupies `e.index() * len() .. (e.index() + 1) * len()`.
    pub fn events(&self) -> &[f64] {
        &self.events
    }

    /// The contiguous CPI column.
    pub fn cpi(&self) -> &[f64] {
        &self.cpi
    }

    /// Number of samples (length of every column).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// A labeled dataset of observation intervals.
///
/// Every sample carries a benchmark label (an index into the dataset's
/// benchmark name table), mirroring how the paper attributes each
/// 2M-instruction interval to the benchmark that produced it. The label
/// table makes per-benchmark profiling (Tables II and IV) and
/// instruction-count weighting possible.
///
/// # Examples
///
/// ```
/// use perfcounters::{Dataset, Sample};
///
/// let mut ds = Dataset::new();
/// let mcf = ds.add_benchmark("429.mcf");
/// ds.push(Sample::zeros(2.5), mcf);
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.benchmark_name(mcf), Some("429.mcf"));
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Dataset {
    samples: Vec<Sample>,
    labels: Vec<u32>,
    benchmarks: Vec<String>,
    /// Lazily built columnar view (see [`ColumnStore`]). Purely derived
    /// data: never serialized, never compared, dropped on clone, and
    /// reset by every mutation.
    #[serde(skip)]
    columns: OnceLock<ColumnStore>,
}

// The column cache is derived state: two datasets are equal iff their
// samples, labels, and benchmark tables are, regardless of which of them
// has materialized its columns.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
            && self.labels == other.labels
            && self.benchmarks == other.benchmarks
    }
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset {
            samples: self.samples.clone(),
            labels: self.labels.clone(),
            benchmarks: self.benchmarks.clone(),
            columns: OnceLock::new(),
        }
    }
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates an empty dataset with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Dataset {
            samples: Vec::with_capacity(n),
            labels: Vec::with_capacity(n),
            benchmarks: Vec::new(),
            columns: OnceLock::new(),
        }
    }

    /// Rebuilds a dataset from raw parts: one sample per label (indexes
    /// into `benchmarks`), exactly as observable through
    /// [`Dataset::sample`], [`Dataset::label`], and
    /// [`Dataset::benchmark_names`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] when `samples` and `labels` differ in
    /// length, a label points past the name table, or the name table
    /// contains a duplicate (which [`Dataset::add_benchmark`] could never
    /// produce).
    pub fn from_parts(
        samples: Vec<Sample>,
        labels: Vec<u32>,
        benchmarks: Vec<String>,
    ) -> Result<Dataset> {
        if samples.len() != labels.len() {
            return Err(DataError::Parse(format!(
                "{} samples but {} labels",
                samples.len(),
                labels.len()
            )));
        }
        for (i, name) in benchmarks.iter().enumerate() {
            if benchmarks[..i].contains(name) {
                return Err(DataError::Parse(format!("duplicate benchmark {name:?}")));
            }
        }
        if let Some(bad) = labels.iter().find(|&&l| l as usize >= benchmarks.len()) {
            return Err(DataError::Parse(format!(
                "label {bad} out of range ({} benchmarks)",
                benchmarks.len()
            )));
        }
        Ok(Dataset {
            samples,
            labels,
            benchmarks,
            columns: OnceLock::new(),
        })
    }

    /// Rebuilds a dataset bit-for-bit from decoded columns: row `i` has
    /// label `labels[i]`, CPI `cpi[i]` and event `e` at
    /// `events[e * n + i]` (event-major). The columns become the cached
    /// [`ColumnStore`], so the first [`Dataset::columns`] call is free.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] when the column lengths disagree, or
    /// for any defect [`Dataset::from_parts`] rejects.
    pub fn from_columns(
        labels: Vec<u32>,
        cpi: Vec<f64>,
        events: Vec<f64>,
        benchmarks: Vec<String>,
    ) -> Result<Dataset> {
        let n = labels.len();
        if cpi.len() != n || events.len() != N_EVENTS * n {
            return Err(DataError::Parse(format!(
                "{n} labels but {} CPI values and {} event values",
                cpi.len(),
                events.len()
            )));
        }
        let samples = (0..n)
            .map(|i| {
                let mut s = Sample::zeros(cpi[i]);
                for (e, d) in s.densities_mut().iter_mut().enumerate() {
                    *d = events[e * n + i];
                }
                s
            })
            .collect();
        Ok(Dataset {
            columns: OnceLock::from(ColumnStore { n, events, cpi }),
            ..Dataset::from_parts(samples, labels, benchmarks)?
        })
    }

    /// Drops the cached columnar view; called by every mutation.
    fn invalidate_columns(&mut self) {
        self.columns = OnceLock::new();
    }

    /// The columnar view of this dataset, built on first use and cached
    /// until the next mutation. Costs one pass over the samples (and
    /// `20 * len` doubles of memory) the first time; free afterwards.
    pub fn columns(&self) -> &ColumnStore {
        self.columns
            .get_or_init(|| ColumnStore::build(&self.samples))
    }

    /// Borrow of one event's contiguous density column.
    pub fn event_column(&self, event: EventId) -> &[f64] {
        self.columns().event(event)
    }

    /// Borrow of the contiguous CPI column.
    pub fn cpi_column(&self) -> &[f64] {
        self.columns().cpi()
    }

    /// Registers a benchmark name, returning its label id. If the name is
    /// already registered, the existing id is returned.
    pub fn add_benchmark(&mut self, name: &str) -> u32 {
        if let Some(pos) = self.benchmarks.iter().position(|b| b == name) {
            return pos as u32;
        }
        self.benchmarks.push(name.to_owned());
        (self.benchmarks.len() - 1) as u32
    }

    /// Appends a sample with the given benchmark label.
    ///
    /// # Panics
    ///
    /// Panics if `label` does not refer to a registered benchmark.
    pub fn push(&mut self, sample: Sample, label: u32) {
        assert!(
            (label as usize) < self.benchmarks.len(),
            "label {label} not registered ({} benchmarks)",
            self.benchmarks.len()
        );
        self.invalidate_columns();
        self.samples.push(sample);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &Sample {
        &self.samples[i]
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// The label of every sample, in sample order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Name of a benchmark label, or `None` if unregistered.
    pub fn benchmark_name(&self, label: u32) -> Option<&str> {
        self.benchmarks.get(label as usize).map(String::as_str)
    }

    /// All registered benchmark names, in label order.
    pub fn benchmark_names(&self) -> &[String] {
        &self.benchmarks
    }

    /// Number of registered benchmarks.
    pub fn benchmark_count(&self) -> usize {
        self.benchmarks.len()
    }

    /// Iterator over `(sample, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Sample, u32)> + '_ {
        self.samples.iter().zip(self.labels.iter().copied())
    }

    /// The dependent-variable vector (CPI of each sample). Thin copying
    /// wrapper over [`Dataset::cpi_column`].
    pub fn cpis(&self) -> Vec<f64> {
        self.cpi_column().to_vec()
    }

    /// The density column for one event. Thin copying wrapper over
    /// [`Dataset::event_column`].
    pub fn column(&self, event: EventId) -> Vec<f64> {
        self.event_column(event).to_vec()
    }

    /// The `n x N_EVENTS` feature matrix (no intercept column), filled
    /// from the columnar view.
    pub fn feature_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.len(), N_EVENTS);
        let cols = self.columns();
        for e in EventId::ALL {
            for (r, &v) in cols.event(e).iter().enumerate() {
                m[(r, e.index())] = v;
            }
        }
        m
    }

    /// Summary statistics of one event column.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InsufficientData`] if the dataset is empty.
    pub fn summary(&self, event: EventId) -> Result<Summary> {
        Summary::from_slice(&self.column(event))
            .map_err(|_| DataError::InsufficientData("summary of empty dataset".into()))
    }

    /// Summary statistics of the CPI column.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InsufficientData`] if the dataset is empty.
    pub fn cpi_summary(&self) -> Result<Summary> {
        Summary::from_slice(&self.cpis())
            .map_err(|_| DataError::InsufficientData("summary of empty dataset".into()))
    }

    /// Splits the dataset into two disjoint random subsets: the first with
    /// `ceil(fraction * len)` samples and the second with the remainder.
    /// Both keep the full benchmark name table, so labels stay valid.
    ///
    /// This is the sampling used in the paper's Section VI ("a training
    /// set representing 10% of the data" and an independent 10% test set).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn split_random<R: Rng + ?Sized>(&self, rng: &mut R, fraction: f64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction {fraction} outside [0, 1]"
        );
        let n_first = (fraction * self.len() as f64).ceil() as usize;
        let order = permutation(rng, self.len());
        let mut first = Dataset {
            samples: Vec::with_capacity(n_first),
            labels: Vec::with_capacity(n_first),
            benchmarks: self.benchmarks.clone(),
            columns: OnceLock::new(),
        };
        let mut second = Dataset {
            samples: Vec::with_capacity(self.len().saturating_sub(n_first)),
            labels: Vec::with_capacity(self.len().saturating_sub(n_first)),
            benchmarks: self.benchmarks.clone(),
            columns: OnceLock::new(),
        };
        for (rank, &idx) in order.iter().enumerate() {
            let target = if rank < n_first {
                &mut first
            } else {
                &mut second
            };
            target.samples.push(self.samples[idx].clone());
            target.labels.push(self.labels[idx]);
        }
        (first, second)
    }

    /// Returns the subset of samples belonging to one benchmark (the name
    /// table is preserved).
    pub fn filter_benchmark(&self, label: u32) -> Dataset {
        let mut out = Dataset {
            samples: Vec::new(),
            labels: Vec::new(),
            benchmarks: self.benchmarks.clone(),
            columns: OnceLock::new(),
        };
        for (s, l) in self.iter() {
            if l == label {
                out.samples.push(s.clone());
                out.labels.push(l);
            }
        }
        out
    }

    /// Appends all samples of `other`, remapping labels through benchmark
    /// names so datasets from different generators can be combined.
    pub fn merge(&mut self, other: &Dataset) {
        self.invalidate_columns();
        let remap: Vec<u32> = other
            .benchmarks
            .iter()
            .map(|name| self.add_benchmark(name))
            .collect();
        for (s, l) in other.iter() {
            self.samples.push(s.clone());
            self.labels.push(remap[l as usize]);
        }
    }

    /// Checks that every registered benchmark name survives a
    /// delimiter-separated text format: commas or line breaks in a name
    /// would shift fields or split rows, silently corrupting the file
    /// in a way only discovered (at best) on re-read.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Unencodable`] naming the offending
    /// benchmark.
    pub(crate) fn check_encodable_names(&self, format: &str) -> Result<()> {
        for name in &self.benchmarks {
            if name.contains([',', '\n', '\r']) {
                return Err(DataError::Unencodable(format!(
                    "benchmark name {name:?} contains a delimiter and cannot be written as {format}"
                )));
            }
        }
        Ok(())
    }

    /// Writes the dataset as CSV: a header row, then one row per sample
    /// (`benchmark,cpi,<event columns>`).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Unencodable`] — before writing anything —
    /// when a benchmark name contains a comma or line break; propagates
    /// I/O errors from the writer.
    pub fn to_csv<W: Write>(&self, mut w: W) -> Result<()> {
        self.check_encodable_names("csv")?;
        write!(w, "benchmark,CPI")?;
        for e in EventId::ALL {
            write!(w, ",{}", e.short_name())?;
        }
        writeln!(w)?;
        for (s, l) in self.iter() {
            let name = self.benchmark_name(l).unwrap_or("?");
            write!(w, "{name},{}", s.cpi())?;
            for e in EventId::ALL {
                write!(w, ",{}", s.get(e))?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a dataset from CSV previously produced by [`Dataset::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] on malformed headers, rows with the
    /// wrong number of fields, or unparsable numbers; [`DataError::Io`] on
    /// reader failures.
    pub fn from_csv<R: BufRead>(r: R) -> Result<Dataset> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| DataError::Parse("empty csv".into()))??;
        let expected_fields = 2 + N_EVENTS;
        if header.split(',').count() != expected_fields {
            return Err(DataError::Parse(format!(
                "expected {expected_fields} header fields, got {}",
                header.split(',').count()
            )));
        }
        let mut ds = Dataset::new();
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != expected_fields {
                return Err(DataError::Parse(format!(
                    "line {}: expected {expected_fields} fields, got {}",
                    lineno + 2,
                    fields.len()
                )));
            }
            let label = ds.add_benchmark(fields[0]);
            let parse = |s: &str| -> Result<f64> {
                s.parse::<f64>()
                    .map_err(|e| DataError::Parse(format!("line {}: {e}", lineno + 2)))
            };
            let cpi = parse(fields[1])?;
            let mut sample = Sample::zeros(cpi);
            for (e, field) in EventId::ALL.iter().zip(&fields[2..]) {
                sample.set(*e, parse(field)?);
            }
            ds.push(sample, label);
        }
        Ok(ds)
    }
}

impl Extend<(Sample, u32)> for Dataset {
    fn extend<T: IntoIterator<Item = (Sample, u32)>>(&mut self, iter: T) {
        for (s, l) in iter {
            self.push(s, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("alpha");
        let b = ds.add_benchmark("beta");
        for i in 0..10 {
            let mut s = Sample::zeros(1.0 + i as f64 * 0.1);
            s.set(EventId::Load, 0.2 + i as f64 * 0.01);
            ds.push(s, if i % 2 == 0 { a } else { b });
        }
        ds
    }

    #[test]
    fn add_benchmark_dedupes() {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("x");
        let b = ds.add_benchmark("x");
        assert_eq!(a, b);
        assert_eq!(ds.benchmark_count(), 1);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn push_unregistered_label_panics() {
        let mut ds = Dataset::new();
        ds.push(Sample::zeros(1.0), 0);
    }

    #[test]
    fn from_parts_roundtrips_accessors() {
        let ds = tiny_dataset();
        let samples: Vec<Sample> = (0..ds.len()).map(|i| ds.sample(i).clone()).collect();
        let labels: Vec<u32> = (0..ds.len()).map(|i| ds.label(i)).collect();
        let names = ds.benchmark_names().to_vec();
        let back = Dataset::from_parts(samples, labels, names).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn from_parts_rejects_malformed() {
        let s = vec![Sample::zeros(1.0)];
        assert!(Dataset::from_parts(s.clone(), vec![], vec!["a".into()]).is_err());
        assert!(Dataset::from_parts(s.clone(), vec![1], vec!["a".into()]).is_err());
        assert!(Dataset::from_parts(s, vec![0], vec!["a".into(), "a".into()]).is_err());
        assert!(Dataset::from_parts(vec![], vec![], vec![]).is_ok());
    }

    #[test]
    fn from_columns_matches_from_parts() {
        let ds = tiny_dataset();
        let cols = ds.columns();
        let back = Dataset::from_columns(
            ds.labels().to_vec(),
            cols.cpi().to_vec(),
            cols.events().to_vec(),
            ds.benchmark_names().to_vec(),
        )
        .unwrap();
        assert_eq!(back, ds);
        // The seeded column cache equals a freshly built one.
        assert_eq!(back.columns(), ds.columns());
    }

    #[test]
    fn from_columns_rejects_malformed() {
        let ev = vec![0.0; N_EVENTS];
        let a = || vec!["a".to_string()];
        assert!(Dataset::from_columns(vec![0], vec![], ev.clone(), a()).is_err());
        assert!(Dataset::from_columns(vec![0], vec![1.0], vec![0.0; 3], a()).is_err());
        assert!(Dataset::from_columns(vec![1], vec![1.0], ev.clone(), a()).is_err());
        let dup = vec!["a".to_string(), "a".to_string()];
        assert!(Dataset::from_columns(vec![0], vec![1.0], ev, dup).is_err());
        assert!(Dataset::from_columns(vec![], vec![], vec![], vec![]).is_ok());
    }

    #[test]
    fn columns_and_matrix() {
        let ds = tiny_dataset();
        let col = ds.column(EventId::Load);
        assert_eq!(col.len(), 10);
        assert!((col[3] - 0.23).abs() < 1e-12);
        let m = ds.feature_matrix();
        assert_eq!(m.shape(), (10, N_EVENTS));
        assert!((m[(3, EventId::Load.index())] - 0.23).abs() < 1e-12);
    }

    #[test]
    fn summaries() {
        let ds = tiny_dataset();
        let s = ds.cpi_summary().unwrap();
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 1.45).abs() < 1e-12);
        assert!(Dataset::new().cpi_summary().is_err());
    }

    #[test]
    fn split_random_partitions() {
        let ds = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = ds.split_random(&mut rng, 0.3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 7);
        // Same total CPI mass: it's a partition.
        let total: f64 = ds.cpis().iter().sum();
        let split_total: f64 = a.cpis().iter().chain(b.cpis().iter()).sum();
        assert!((total - split_total).abs() < 1e-9);
        // Name tables preserved.
        assert_eq!(a.benchmark_count(), 2);
        assert_eq!(b.benchmark_count(), 2);
    }

    #[test]
    fn split_random_extremes() {
        let ds = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let (a, b) = ds.split_random(&mut rng, 0.0);
        assert_eq!(a.len(), 0);
        assert_eq!(b.len(), 10);
        let (a, b) = ds.split_random(&mut rng, 1.0);
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn filter_benchmark_selects_only_matching() {
        let ds = tiny_dataset();
        let alpha = ds.filter_benchmark(0);
        assert_eq!(alpha.len(), 5);
        assert!(alpha.iter().all(|(_, l)| l == 0));
    }

    #[test]
    fn merge_remaps_labels() {
        let mut a = Dataset::new();
        let ax = a.add_benchmark("x");
        a.push(Sample::zeros(1.0), ax);

        let mut b = Dataset::new();
        let by = b.add_benchmark("y");
        let bx = b.add_benchmark("x");
        b.push(Sample::zeros(2.0), by);
        b.push(Sample::zeros(3.0), bx);

        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.benchmark_count(), 2);
        // The "x" sample from b must land on a's existing "x" label.
        assert_eq!(a.label(2), ax);
        assert_eq!(a.benchmark_name(a.label(1)), Some("y"));
    }

    #[test]
    fn csv_roundtrip() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        ds.to_csv(&mut buf).unwrap();
        let back = Dataset::from_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), ds.len());
        for i in 0..ds.len() {
            assert!((back.sample(i).cpi() - ds.sample(i).cpi()).abs() < 1e-12);
            assert_eq!(
                back.benchmark_name(back.label(i)),
                ds.benchmark_name(ds.label(i))
            );
        }
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(Dataset::from_csv("".as_bytes()).is_err());
        assert!(Dataset::from_csv("a,b,c\n".as_bytes()).is_err());
        let mut buf = Vec::new();
        tiny_dataset().to_csv(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("bad,row\n");
        assert!(Dataset::from_csv(text.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_unencodable_names_before_writing() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("bad,name");
        ds.push(Sample::zeros(1.0), l);
        let mut buf = Vec::new();
        let err = ds.to_csv(&mut buf).unwrap_err();
        assert!(matches!(err, DataError::Unencodable(_)), "{err}");
        assert!(buf.is_empty(), "refused write still produced bytes");

        let mut ds = Dataset::new();
        let l = ds.add_benchmark("line\nbreak");
        ds.push(Sample::zeros(1.0), l);
        assert!(ds.to_csv(&mut Vec::new()).is_err());
    }

    #[test]
    fn empty_dataset_csv_roundtrip() {
        let mut buf = Vec::new();
        Dataset::new().to_csv(&mut buf).unwrap();
        let back = Dataset::from_csv(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.benchmark_count(), 0);
    }

    #[test]
    fn extend_trait() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("z");
        ds.extend((0..5).map(|i| (Sample::zeros(i as f64), l)));
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn columnar_view_matches_row_accessors() {
        let ds = tiny_dataset();
        let cols = ds.columns();
        assert_eq!(cols.len(), ds.len());
        assert!(!cols.is_empty());
        for e in EventId::ALL {
            let col = cols.event(e);
            assert_eq!(col.len(), ds.len());
            for (i, &value) in col.iter().enumerate() {
                assert_eq!(value, ds.sample(i).get(e));
            }
        }
        for i in 0..ds.len() {
            assert_eq!(cols.cpi()[i], ds.sample(i).cpi());
        }
        // The convenience wrappers observe the same data.
        assert_eq!(ds.column(EventId::Load), ds.event_column(EventId::Load));
        assert_eq!(ds.cpis(), ds.cpi_column());
    }

    #[test]
    fn columnar_view_invalidated_by_mutation() {
        let mut ds = tiny_dataset();
        assert_eq!(ds.cpi_column().len(), 10);
        let label = ds.add_benchmark("gamma");
        ds.push(Sample::zeros(9.0), label);
        assert_eq!(ds.cpi_column().len(), 11);
        assert_eq!(ds.cpi_column()[10], 9.0);

        let mut merged = tiny_dataset();
        assert_eq!(merged.event_column(EventId::Load).len(), 10);
        merged.merge(&ds);
        assert_eq!(merged.event_column(EventId::Load).len(), 21);
    }

    #[test]
    fn clone_and_equality_ignore_column_cache() {
        let ds = tiny_dataset();
        let _ = ds.columns();
        let copy = ds.clone();
        assert_eq!(copy, ds);
        // The clone rebuilds its own cache lazily and sees the same data.
        assert_eq!(copy.cpi_column(), ds.cpi_column());
    }

    #[test]
    fn empty_dataset_columns() {
        let ds = Dataset::new();
        assert!(ds.columns().is_empty());
        assert!(ds.cpi_column().is_empty());
        assert!(ds.event_column(EventId::Load).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.benchmark_names(), ds.benchmark_names());
        for i in 0..ds.len() {
            assert_eq!(back.label(i), ds.label(i));
            // JSON text may perturb the last ULP of a float.
            assert!((back.sample(i).cpi() - ds.sample(i).cpi()).abs() < 1e-12);
            for e in EventId::ALL {
                assert!((back.sample(i).get(e) - ds.sample(i).get(e)).abs() < 1e-12);
            }
        }
    }
}

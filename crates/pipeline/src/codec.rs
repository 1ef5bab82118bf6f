//! The byte framing of every binary artifact format: `SPDS` datasets
//! and `SPMT` trees here, the `SPDC` container in [`crate::chunked`].
//!
//! * **`SPDS`** — a flat columnar [`Dataset`] image: name table, then
//!   one column block (labels, the CPI column and each event column as
//!   raw IEEE-754 bit patterns). Round-trips are bit-exact.
//! * **`SPMT`** — a [`ModelTree`] envelope: the tree's canonical JSON
//!   (the same serde representation `specrepro fit --out` writes).
//!
//! Every region ends in an FNV-1a seal ([`seal`]/[`unseal`]) and is
//! parsed by one bounds-checked [`Reader`]: a count whose byte length
//! overflows, or exceeds the bytes present, is a typed error before
//! anything is allocated. Numbers are little-endian; a
//! [`SCHEMA_VERSION`] bump retires old files wholesale.

use crate::fingerprint::{FNV_OFFSET, FNV_PRIME, SCHEMA_VERSION};
use modeltree::ModelTree;
use perfcounters::events::N_EVENTS;
use perfcounters::Dataset;

const DATASET_MAGIC: &[u8; 4] = b"SPDS";
const TREE_MAGIC: &[u8; 4] = b"SPMT";
/// Bytes one row occupies in a column block (label + CPI + events).
pub(crate) const ROW_BYTES: usize = 4 + 8 + 8 * N_EVENTS;

/// Why an artifact failed to decode (the store treats every variant as
/// a cache miss; the reason feeds the stage log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// File too short for the region being read.
    Truncated,
    /// Wrong magic bytes (not an artifact of this kind).
    BadMagic,
    /// Artifact written by a different schema version.
    WrongVersion(u32),
    /// Trailing integrity hash does not match the content.
    IntegrityMismatch,
    /// Structurally invalid content (bad label, bad UTF-8, bad JSON…).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated artifact"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::WrongVersion(v) => {
                write!(f, "schema version {v} (current {SCHEMA_VERSION})")
            }
            CodecError::IntegrityMismatch => write!(f, "integrity hash mismatch"),
            CodecError::Malformed(m) => write!(f, "malformed artifact: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over a byte slice.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Appends the FNV-1a of `bytes` — the integrity hash that closes every
/// sealed region.
pub(crate) fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let hash = fnv1a(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

/// Splits a sealed region into its content and trailing hash, verifying
/// the hash.
pub(crate) fn unseal(bytes: &[u8]) -> Result<(&[u8], u64), CodecError> {
    let split = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    let (body, tail) = bytes.split_at(split);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a(body) != stored {
        return Err(CodecError::IntegrityMismatch);
    }
    Ok((body, stored))
}

/// The `magic | schema version` prefix every format starts with.
pub(crate) fn preamble(magic: &[u8; 4]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out
}

/// Writes a benchmark name table: count, then each name length-prefixed.
pub(crate) fn put_names(out: &mut Vec<u8>, names: &[String]) {
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
}

/// Writes one column block: every label, the CPI column, then the
/// event-major event columns, floats as raw bit patterns.
pub(crate) fn put_columns(out: &mut Vec<u8>, labels: &[u32], cpi: &[f64], events: &[f64]) {
    out.reserve(labels.len() * 4 + (cpi.len() + events.len()) * 8);
    for &l in labels {
        out.extend_from_slice(&l.to_le_bytes());
    }
    for &v in cpi.iter().chain(events) {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// One decoded column block: the `SPDS` payload or one `SPDC` chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedChunk {
    /// Benchmark label per row.
    pub labels: Vec<u32>,
    /// CPI column.
    pub cpi: Vec<f64>,
    /// Event columns, concatenated event-major: event `e` occupies
    /// `e * rows .. (e + 1) * rows`.
    pub events: Vec<f64>,
}

impl DecodedChunk {
    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// Materializes the block as a [`Dataset`] over a name table.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] when a label points outside
    /// the name table.
    pub fn into_dataset(self, benchmarks: Vec<String>) -> Result<Dataset, CodecError> {
        Dataset::from_columns(self.labels, self.cpi, self.events, benchmarks)
            .map_err(|e| CodecError::Malformed(e.to_string()))
    }
}

/// A bounds-checked little-endian cursor over one region.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Checks the trailing hash, magic and schema version of a sealed
    /// artifact, returning a reader positioned after them.
    pub(crate) fn open(bytes: &'a [u8], magic: &[u8; 4]) -> Result<Self, CodecError> {
        let mut r = Reader::new(unseal(bytes)?.0);
        r.magic(magic)?;
        r.version()?;
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let rest = &self.buf[self.pos..];
        if n > rest.len() {
            return Err(CodecError::Truncated);
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    /// Validates a declared element count against the bytes left: the
    /// count must fit `usize`, and `count * width` must neither overflow
    /// nor exceed the remainder. Call before allocating for `count`.
    pub(crate) fn count(&self, count: u64, width: usize) -> Result<usize, CodecError> {
        let too_big = || CodecError::Malformed(format!("count {count} overflows"));
        let n = usize::try_from(count).map_err(|_| too_big())?;
        if n.checked_mul(width).ok_or_else(too_big)? > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// `n` words of `N` bytes, taken as one bounds-checked region.
    fn words<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, CodecError> {
        let len = self.count(n as u64, N)? * N;
        Ok(self
            .take(len)?
            .chunks_exact(N)
            .map(|w| w.try_into().expect("N-byte word")))
    }

    fn word<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        self.word().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        self.word().map(u64::from_le_bytes)
    }

    pub(crate) fn magic(&mut self, magic: &[u8; 4]) -> Result<(), CodecError> {
        if self.take(4)? != magic {
            return Err(CodecError::BadMagic);
        }
        Ok(())
    }

    pub(crate) fn version(&mut self) -> Result<(), CodecError> {
        match self.u32()? {
            SCHEMA_VERSION => Ok(()),
            v => Err(CodecError::WrongVersion(v)),
        }
    }

    /// Reads the event-column count and checks it against [`N_EVENTS`].
    pub(crate) fn event_count(&mut self) -> Result<(), CodecError> {
        match self.u32()? as usize {
            N_EVENTS => Ok(()),
            n => Err(CodecError::Malformed(format!(
                "{n} event columns (expected {N_EVENTS})"
            ))),
        }
    }

    /// Reads a name table written by `put_names`.
    pub(crate) fn names(&mut self) -> Result<Vec<String>, CodecError> {
        let n = self.u32()?;
        let mut names = Vec::with_capacity(self.count(n.into(), 4)?);
        for _ in 0..n {
            let len = self.u32()? as usize;
            let name = std::str::from_utf8(self.take(len)?)
                .map_err(|e| CodecError::Malformed(format!("benchmark name: {e}")))?;
            names.push(name.to_owned());
        }
        Ok(names)
    }

    /// Reads a column block of `rows` rows written by [`put_columns`].
    pub(crate) fn columns(&mut self, rows: u64) -> Result<DecodedChunk, CodecError> {
        let n = self.count(rows, ROW_BYTES)?;
        Ok(DecodedChunk {
            labels: self.words(n)?.map(u32::from_le_bytes).collect(),
            cpi: self.words(n)?.map(f64::from_le_bytes).collect(),
            events: self.words(N_EVENTS * n)?.map(f64::from_le_bytes).collect(),
        })
    }

    /// Requires the region to be fully consumed.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(CodecError::Malformed(format!("{extra} trailing bytes"))),
        }
    }
}

/// Encodes a dataset into the columnar `SPDS` image.
pub fn encode_dataset(data: &Dataset) -> Vec<u8> {
    let mut out = preamble(DATASET_MAGIC);
    out.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    put_names(&mut out, data.benchmark_names());
    let cols = data.columns();
    put_columns(&mut out, data.labels(), cols.cpi(), cols.events());
    seal(out)
}

/// Decodes an `SPDS` image back into a bit-identical dataset.
///
/// # Errors
///
/// Any framing, integrity, or structural defect returns a
/// [`CodecError`]; the store treats all of them as a miss.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = Reader::open(bytes, DATASET_MAGIC)?;
    r.event_count()?;
    let n = r.u64()?;
    let benchmarks = r.names()?;
    let columns = r.columns(n)?;
    r.finish()?;
    columns.into_dataset(benchmarks)
}

/// Encodes a model tree into the `SPMT` envelope (canonical serde JSON
/// plus framing).
pub fn encode_tree(tree: &ModelTree) -> Vec<u8> {
    let payload = serde_json::to_vec(tree).expect("ModelTree serializes");
    let mut out = preamble(TREE_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    seal(out)
}

/// Decodes an `SPMT` envelope back into a model tree.
///
/// # Errors
///
/// Any framing, integrity, or JSON defect returns a [`CodecError`].
pub fn decode_tree(bytes: &[u8]) -> Result<ModelTree, CodecError> {
    let mut r = Reader::open(bytes, TREE_MAGIC)?;
    let len = r.u64()?;
    let payload = r.take(r.count(len, 1)?)?;
    r.finish()?;
    serde_json::from_slice(payload).map_err(|e| CodecError::Malformed(format!("tree json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{decode_chunk, encode_chunk, ChunkedReader, ChunkedWriter};
    use modeltree::M5Config;
    use perfcounters::{EventId, Sample};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Cursor;
    use std::ops::Range;
    use std::sync::OnceLock;
    use workloads::generator::{GeneratorConfig, Suite};

    fn sample_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(99);
        Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default())
    }

    fn assert_bit_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.benchmark_names(), b.benchmark_names());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.label(i), b.label(i));
            assert_eq!(a.sample(i).cpi().to_bits(), b.sample(i).cpi().to_bits());
            for e in EventId::ALL {
                assert_eq!(a.sample(i).get(e).to_bits(), b.sample(i).get(e).to_bits());
            }
        }
    }

    #[test]
    fn dataset_roundtrip_bit_exact() {
        let ds = sample_dataset(300);
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_bit_identical(&ds, &back);
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let ds = Dataset::new();
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.benchmark_count(), 0);
    }

    #[test]
    fn special_floats_roundtrip() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("weird");
        let mut s = Sample::zeros(-0.0);
        s.set(EventId::Load, f64::MIN_POSITIVE);
        s.set(EventId::L2Miss, 1e-300);
        ds.push(s, l);
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_bit_identical(&ds, &back);
    }

    #[test]
    fn corruption_detected() {
        let ds = sample_dataset(50);
        let good = encode_dataset(&ds);
        // A flipped bit anywhere (header, payload, or hash) is caught.
        for pos in [0usize, 5, 40, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            assert!(decode_dataset(&bad).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn truncation_detected() {
        let ds = sample_dataset(50);
        let good = encode_dataset(&ds);
        for keep in [0usize, 3, 12, good.len() / 2, good.len() - 1] {
            assert!(
                decode_dataset(&good[..keep]).is_err(),
                "truncation to {keep} undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let ds = sample_dataset(10);
        let good = encode_dataset(&ds);
        assert!(matches!(
            decode_dataset(&encode_tree(&tree())),
            Err(CodecError::BadMagic)
        ));
        // Patch the version field and re-seal.
        let mut bad = good[..good.len() - 8].to_vec();
        bad[4..8].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        let bad = seal(bad);
        assert_eq!(
            decode_dataset(&bad).unwrap_err(),
            CodecError::WrongVersion(SCHEMA_VERSION + 1)
        );
    }

    fn tree() -> ModelTree {
        let ds = sample_dataset(200);
        ModelTree::fit(&ds, &M5Config::default().with_min_leaf(20)).unwrap()
    }

    #[test]
    fn tree_roundtrip_is_canonical_json() {
        let t = tree();
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
    }

    #[test]
    fn tree_corruption_detected() {
        let good = encode_tree(&tree());
        for pos in [0usize, 6, good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            assert!(decode_tree(&bad).is_err(), "flip at {pos} undetected");
        }
        assert!(decode_tree(&good[..good.len() - 9]).is_err());
    }

    #[test]
    fn huge_row_count_is_a_typed_error() {
        // Correctly sealed SPDS images whose row count claims more rows
        // than the (empty) payload holds: one whose byte length
        // overflows, one that merely exceeds the bytes present.
        for (n, want) in [
            (
                1u64 << 62,
                CodecError::Malformed(format!("count {} overflows", 1u64 << 62)),
            ),
            (1u64 << 40, CodecError::Truncated),
        ] {
            let mut out = preamble(DATASET_MAGIC);
            out.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
            put_names(&mut out, &[]);
            assert_eq!(decode_dataset(&seal(out)).unwrap_err(), want, "n = {n}");
        }
    }

    /// A fixed 48-row dataset over three benchmarks whose values are
    /// exact binary fractions, and whose CPI steps on one event so the
    /// fitted tree has a split.
    fn pin_dataset() -> Dataset {
        let mut ds = Dataset::new();
        for name in ["400.perlbench", "429.mcf", "470.lbm"] {
            ds.add_benchmark(name);
        }
        for i in 0..48u32 {
            let label = i % 3;
            let mut s = Sample::zeros(0.0);
            for e in EventId::ALL {
                let k = (i as usize * 7 + e.index() * 13) % 17;
                s.set(e, k as f64 / 64.0);
            }
            let step = if s.get(EventId::ALL[0]) > 0.125 {
                2.0
            } else {
                0.5
            };
            s.set_cpi(step + f64::from(i % 4) / 32.0 + f64::from(label) / 8.0);
            ds.push(s, label);
        }
        ds
    }

    /// `ds` as an `SPDC` container with one chunk per row range.
    fn container(ds: &Dataset, splits: &[Range<usize>]) -> Vec<u8> {
        let mut cursor = Cursor::new(Vec::new());
        let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
        let cols = ds.columns();
        for rows in splits {
            let mut events = Vec::with_capacity(N_EVENTS * rows.len());
            for e in EventId::ALL {
                events.extend_from_slice(&cols.event(e)[rows.clone()]);
            }
            let body = encode_chunk(
                &ds.labels()[rows.clone()],
                &cols.cpi()[rows.clone()],
                &events,
            );
            w.append_chunk(&body, None).unwrap();
        }
        w.finish().unwrap();
        cursor.into_inner()
    }

    /// One valid artifact of each format, built once from
    /// [`pin_dataset`] and a tree fitted to it: an `SPDS` image, an
    /// `SPMT` envelope and a two-chunk `SPDC` container.
    struct Fixtures {
        spds: Vec<u8>,
        spmt: Vec<u8>,
        spdc: Vec<u8>,
    }

    fn fixtures() -> &'static Fixtures {
        static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            let ds = pin_dataset();
            let tree = ModelTree::fit(&ds, &M5Config::default().with_min_leaf(6)).unwrap();
            Fixtures {
                spds: encode_dataset(&ds),
                spmt: encode_tree(&tree),
                spdc: container(&ds, &[0..30, 30..48]),
            }
        })
    }

    #[test]
    fn format_bytes_are_pinned() {
        // Length and FNV-1a of each format's bytes for the fixtures,
        // recorded when the formats were frozen at SCHEMA_VERSION 1.
        let f = fixtures();
        let formats = [
            ("SPDS", &f.spds, 7943, 0x226d_401f_fa0e_389c_u64),
            ("SPMT", &f.spmt, 874, 0xcea3_ef68_c8ce_a0d2),
            ("SPDC", &f.spdc, 8063, 0xb405_ddbe_cba3_2d39),
        ];
        for (name, bytes, len, hash) in formats {
            assert!(
                bytes.len() == len && fnv1a(bytes) == hash,
                "{name} bytes changed ({} bytes, fnv {:#018x}). A format change \
                 must move together with SCHEMA_VERSION in fingerprint.rs, the \
                 specrepro-artifacts-v1 cache keys in .github/workflows/ci.yml \
                 and the constants pinned here.",
                bytes.len(),
                fnv1a(bytes)
            );
        }
    }

    /// Overwrites bytes of the sealed region `sealed` of `bytes` (its
    /// last 8 bytes are the hash) and, when `cut.0 == 0`, cuts its
    /// content short; then recomputes the hash so the decoder gets past
    /// the integrity check. Half the edits land in the region's first 40
    /// bytes, where the counts and length prefixes live.
    fn mutate_and_reseal(
        bytes: &[u8],
        sealed: Range<usize>,
        edits: &[(usize, f64, usize)],
        cut: (usize, f64),
    ) -> Vec<u8> {
        let mut content = bytes[sealed.start..sealed.end - 8].to_vec();
        for &(near, frac, value) in edits {
            let span = if near == 0 {
                content.len().min(40)
            } else {
                content.len()
            };
            content[(frac * span as f64) as usize] = value as u8;
        }
        if cut.0 == 0 {
            content.truncate((cut.1 * content.len() as f64) as usize);
        }
        [&bytes[..sealed.start], &seal(content), &bytes[sealed.end..]].concat()
    }

    /// Opens a container and reads everything in it. On success the
    /// bytes must be exactly what the writer produces for the decoded
    /// name table and chunks.
    fn container_roundtrips(bytes: &[u8]) -> Result<(), TestCaseError> {
        let Ok(mut r) = ChunkedReader::open(Cursor::new(bytes)) else {
            return Ok(());
        };
        let _ = r.window_dataset(0..r.n_rows());
        let chunks: Result<Vec<_>, _> = (0..r.n_chunks()).map(|i| r.read_chunk(i)).collect();
        let Ok(chunks) = chunks else {
            return Ok(());
        };
        let mut cursor = Cursor::new(Vec::new());
        let mut w = ChunkedWriter::new(&mut cursor, r.benchmarks()).unwrap();
        for c in &chunks {
            w.append_chunk(&encode_chunk(&c.labels, &c.cpi, &c.events), None)
                .unwrap();
        }
        w.finish().unwrap();
        prop_assert!(
            cursor.into_inner() == bytes,
            "decoded container re-encodes differently"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Decoding a re-sealed mutation of any format never panics: it
        /// returns a `CodecError` or round-trips.
        #[test]
        fn resealed_mutations_never_panic(
            kind in 0usize..5,
            edits in proptest::collection::vec((0usize..2, 0.0f64..1.0, 0usize..256), 1..6),
            cut in (0usize..4, 0.0f64..1.0),
        ) {
            let f = fixtures();
            let r = ChunkedReader::open(Cursor::new(&f.spdc)).unwrap();
            let (first, last) = (r.meta(0), r.meta(r.n_chunks() - 1));
            match kind {
                0 => {
                    let bytes = mutate_and_reseal(&f.spds, 0..f.spds.len(), &edits, cut);
                    if let Ok(ds) = decode_dataset(&bytes) {
                        prop_assert!(encode_dataset(&ds) == bytes, "SPDS re-encodes differently");
                    }
                }
                1 => {
                    let bytes = mutate_and_reseal(&f.spmt, 0..f.spmt.len(), &edits, cut);
                    // Mutated JSON may parse to a tree whose canonical
                    // rendering differs; it must then be stable.
                    if let Ok(tree) = decode_tree(&bytes) {
                        let again = encode_tree(&tree);
                        prop_assert!(encode_tree(&decode_tree(&again).unwrap()) == again);
                    }
                }
                2 => {
                    let body = &f.spdc[first.offset as usize..(first.offset + first.len) as usize];
                    let body = mutate_and_reseal(body, 0..body.len(), &edits, cut);
                    if let Ok(c) = decode_chunk(&body) {
                        prop_assert!(encode_chunk(&c.labels, &c.cpi, &c.events) == body);
                    }
                }
                3 => {
                    let dir = (last.offset + last.len) as usize..f.spdc.len() - 24;
                    container_roundtrips(&mutate_and_reseal(&f.spdc, dir, &edits, cut))?;
                }
                _ => {
                    let header = 0..first.offset as usize;
                    container_roundtrips(&mutate_and_reseal(&f.spdc, header, &edits, cut))?;
                }
            }
        }
    }
}

//! A deliberately naive reference implementation of M5' — the
//! differential oracle for [`modeltree::ModelTree`].
//!
//! Where the optimized trainer presorts every attribute once and
//! maintains sorted order by in-place stable partitioning of arena
//! segments, fits node models from a single precomputed Gram system,
//! and fans sibling subtrees out to scoped threads, this implementation
//! does the obvious thing at every step:
//!
//! * each node **re-sorts** every attribute from scratch with a stable
//!   `total_cmp` sort,
//! * children are plain filtered copies of the parent's row list,
//! * every attribute-subset trial during elimination rebuilds its
//!   normal equations directly from the raw rows,
//! * recursion is single-threaded `Box`ed structure, no arenas.
//!
//! # The bit-identity contract
//!
//! The differential suite asserts the optimized trainer produces
//! **bit-identical** trees. For that to be a meaningful check, the two
//! implementations must share the *decision arithmetic* — the exact
//! floating-point expressions whose results are compared or thresholded
//! (the division-free split criterion `w = sqrt(n_l·Σy²_l − (Σy_l)²) +
//! sqrt(n_r·Σy²_r − (Σy_r)²)`, midpoint thresholds, the `1e-12·sd`
//! floor, the adjusted-error factor, the smoothing recurrence) and the
//! tie-breaking rules (leftmost threshold on `<`, earliest attribute on
//! `>`, earliest dropped term on `<`). Those expressions are restated
//! here from the algorithm's definition, independently of the optimized
//! code's data structures. What this oracle deliberately does **not**
//! share is everything PR 1 and PR 2 changed: sort maintenance,
//! partition bookkeeping, Gram caching, thread scheduling, arena reuse
//! — which is exactly the machinery a differential test is meant to
//! cross-examine.
//!
//! Accumulation order matters for bit-identity: sums over a node's
//! samples are always taken in the node's row order, which both
//! implementations keep as *original dataset order* (stable sorts tie
//! on it; stable partitions preserve it).
//!
//! The module also keeps the straightforward forms of two baseline
//! kernels as oracles: the sort-per-node CART fit ([`cart_fit`]) and
//! the row-major Householder QR ([`householder_qr`]).

use baselines::cart::{CartConfig, CartNode};
use mathkit::matrix::Matrix;
use modeltree::{LinearModel, M5Config, ModelTree, NodeKind};
use perfcounters::events::{EventId, N_EVENTS};
use perfcounters::{Dataset, Sample};

/// Column copies of a dataset: the reference never touches the
/// optimized trainer's columnar cache.
struct RefColumns {
    events: Vec<Vec<f64>>,
    cpi: Vec<f64>,
}

impl RefColumns {
    fn new(data: &Dataset) -> RefColumns {
        RefColumns {
            events: EventId::ALL.iter().map(|&e| data.column(e)).collect(),
            cpi: data.iter().map(|(s, _)| s.cpi()).collect(),
        }
    }

    fn event(&self, e: EventId) -> &[f64] {
        &self.events[e.index()]
    }
}

/// Target statistics of one node, accumulated in row order.
#[derive(Clone, Copy)]
struct RefStats {
    n: usize,
    sum: f64,
    sum_sq: f64,
}

impl RefStats {
    fn compute(cpi: &[f64], rows: &[u32]) -> RefStats {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &i in rows {
            let y = cpi[i as usize];
            sum += y;
            sum_sq += y * y;
        }
        RefStats {
            n: rows.len(),
            sum,
            sum_sq,
        }
    }

    fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    fn sd(&self) -> f64 {
        let mean = self.mean();
        (self.sum_sq / self.n as f64 - mean * mean).max(0.0).sqrt()
    }
}

/// A chosen split.
#[derive(Clone, Copy)]
struct RefSplit {
    event: EventId,
    threshold: f64,
    sdr: f64,
}

/// The structural role of a reference node.
pub enum RefKind {
    /// A leaf with its 1-based left-to-right model number.
    Leaf {
        /// 1-based linear model number.
        lm_index: usize,
    },
    /// An interior `event <= threshold` test.
    Split {
        /// The tested attribute.
        event: EventId,
        /// Samples with `value <= threshold` descend left.
        threshold: f64,
        /// Standard-deviation reduction of the split.
        sdr: f64,
        /// Left child.
        left: Box<RefNode>,
        /// Right child.
        right: Box<RefNode>,
    },
}

/// One node of the reference tree.
pub struct RefNode {
    /// Structural role.
    pub kind: RefKind,
    /// The node's linear model (interior nodes keep theirs for
    /// smoothing).
    pub model: LinearModel,
    /// Training samples that reached this node.
    pub n_samples: usize,
    /// Mean training CPI here.
    pub mean_cpi: f64,
    /// Population sd of training CPI here.
    pub sd_cpi: f64,
}

/// A reference M5' model tree.
pub struct RefTree {
    root: RefNode,
    config: M5Config,
    n_training: usize,
    root_sd: f64,
}

/// Growing-phase node.
struct GrownRef {
    rows: Vec<u32>,
    stats: RefStats,
    split: Option<(RefSplit, Box<GrownRef>, Box<GrownRef>)>,
}

/// Pruning-phase node.
struct PrunedRef {
    model: LinearModel,
    n_samples: usize,
    mean_cpi: f64,
    sd_cpi: f64,
    subtree_error: f64,
    attrs: Vec<EventId>,
    split: Option<(RefSplit, Box<PrunedRef>, Box<PrunedRef>)>,
}

/// The M5 adjusted-error factor `(n + v) / (n - v)` (infinite when the
/// model has at least as many parameters as samples).
fn adjusted_error_factor(n: usize, v: usize) -> f64 {
    if n <= v {
        f64::INFINITY
    } else {
        (n + v) as f64 / (n - v) as f64
    }
}

/// Mean absolute error of `model` over the selected rows, accumulated
/// in row order.
fn mean_abs_error(cols: &RefColumns, model: &LinearModel, rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let sum: f64 = rows
        .iter()
        .map(|&i| {
            let i = i as usize;
            let predicted = model.intercept()
                + model
                    .terms()
                    .iter()
                    .map(|(e, c)| c * cols.event(*e)[i])
                    .sum::<f64>();
            (predicted - cols.cpi[i]).abs()
        })
        .sum();
    sum / rows.len() as f64
}

/// Solves one least-squares subproblem by building the normal equations
/// straight from the raw rows (no shared Gram system): design columns
/// are `[1] ++ candidates[active]`, accumulated sample-by-sample in row
/// order. Returns the model and its sum of squared errors.
fn solve_subset(
    cols: &RefColumns,
    rows: &[u32],
    candidates: &[EventId],
    active: &[usize],
) -> (LinearModel, f64) {
    let m = active.len() + 1;
    let mut g = mathkit::matrix::Matrix::zeros(m, m);
    let mut c = vec![0.0; m];
    let mut yty = 0.0;
    let mut row = vec![0.0; m];
    for &i in rows {
        let i = i as usize;
        row[0] = 1.0;
        for (j, &a) in active.iter().enumerate() {
            row[j + 1] = cols.event(candidates[a])[i];
        }
        let y = cols.cpi[i];
        yty += y * y;
        for a in 0..m {
            c[a] += row[a] * y;
            for b in 0..m {
                g[(a, b)] += row[a] * row[b];
            }
        }
    }
    // Same solve chain as the trainer: exact SPD first, ridge only for
    // degenerate designs, mean-only constant as the last resort.
    let solution = mathkit::solve::solve_spd(&g, &c)
        .ok()
        .filter(|beta| beta.iter().all(|v| v.is_finite()))
        .map_or_else(|| mathkit::solve::solve_ridge(&g, &c, 1e-10), Ok);
    match solution {
        Ok(beta) => {
            let sse = (yty - beta.iter().zip(&c).map(|(b, ci)| b * ci).sum::<f64>()).max(0.0);
            let terms: Vec<(EventId, f64)> = active
                .iter()
                .zip(beta.iter().skip(1))
                .map(|(&a, &coef)| (candidates[a], coef))
                .collect();
            (LinearModel::new(beta[0], terms), sse)
        }
        Err(_) => {
            let n = rows.len();
            let mean = if n > 0 { c[0] / n as f64 } else { 0.0 };
            let sse = (yty - mean * c[0]).max(0.0);
            (LinearModel::constant(mean), sse)
        }
    }
}

fn adjusted_rmse(n: usize, sse: f64, v: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    (sse / n as f64).sqrt() * adjusted_error_factor(n, v)
}

/// Textbook node-model fitting: full least squares over the candidate
/// attributes, then greedy backward elimination accepting the drop with
/// the smallest adjusted RMSE no worse than the incumbent (earliest
/// position on exact ties).
fn fit_node_model(
    cols: &RefColumns,
    rows: &[u32],
    candidates: &[EventId],
    config: &M5Config,
) -> LinearModel {
    if rows.is_empty() {
        return LinearModel::constant(0.0);
    }
    if candidates.is_empty() {
        return solve_subset(cols, rows, candidates, &[]).0;
    }
    let mut active: Vec<usize> = (0..candidates.len()).collect();
    // Pre-trim so n > v + 1, dropping from the end of the list.
    while !active.is_empty() && rows.len() <= active.len() + 2 {
        active.pop();
    }
    let (mut model, sse) = solve_subset(cols, rows, candidates, &active);
    if !config.attribute_elimination {
        return model;
    }
    let mut best_adjusted = adjusted_rmse(rows.len(), sse, active.len() + 1);
    loop {
        if active.is_empty() {
            break;
        }
        let mut best_drop: Option<(usize, LinearModel, f64)> = None;
        for pos in 0..active.len() {
            let mut trial = active.clone();
            trial.remove(pos);
            let (m, s) = solve_subset(cols, rows, candidates, &trial);
            let adj = adjusted_rmse(rows.len(), s, trial.len() + 1);
            if adj <= best_adjusted && best_drop.as_ref().is_none_or(|(_, _, prev)| adj < *prev) {
                best_drop = Some((pos, m, adj));
            }
        }
        match best_drop {
            Some((pos, m, adj)) => {
                active.remove(pos);
                model = m;
                best_adjusted = adj;
            }
            None => break,
        }
    }
    model
}

/// Scans one attribute for its best admissible threshold: stable-sort
/// the node's rows by the attribute, then walk every boundary between
/// distinct adjacent values accumulating `(n, Σy, Σy²)` prefix sums.
fn scan_attribute(
    cols: &RefColumns,
    rows: &[u32],
    event: EventId,
    min_leaf: usize,
    stats: &RefStats,
    total_sd: f64,
) -> Option<RefSplit> {
    let col = cols.event(event);
    let mut seg: Vec<u32> = rows.to_vec();
    // Stable sort: ties stay in dataset order, like the trainer's
    // presorted segments.
    seg.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));

    let n = seg.len();
    if col[seg[0] as usize] == col[seg[n - 1] as usize] {
        return None; // constant column
    }

    let nf = n as f64;
    let floor = 1e-12 * total_sd;
    let bound = nf * (total_sd - floor);
    let mut best_w = bound;
    let mut best_threshold = f64::NAN;
    let mut left_sum = 0.0;
    let mut left_sum_sq = 0.0;

    // Admissible thresholds put `i + 1 ∈ [min_leaf, n - min_leaf]`
    // samples on the left.
    let lo = min_leaf.saturating_sub(1);
    let hi = (n - min_leaf).min(n - 1);
    for &i in &seg[..lo] {
        let y = cols.cpi[i as usize];
        left_sum += y;
        left_sum_sq += y * y;
    }
    for i in lo..hi {
        let y = cols.cpi[seg[i] as usize];
        left_sum += y;
        left_sum_sq += y * y;
        let value = col[seg[i] as usize];
        let next_value = col[seg[i + 1] as usize];
        if value == next_value {
            continue; // a threshold must separate distinct values
        }
        let threshold = 0.5 * (value + next_value);
        let right_sum = stats.sum - left_sum;
        let right_sum_sq = stats.sum_sq - left_sum_sq;
        // The division-free criterion: w = n·Σ (|T_i|/|T|)·sd(T_i).
        let scaled_l = ((i + 1) as f64 * left_sum_sq - left_sum * left_sum).max(0.0);
        let scaled_r = ((n - i - 1) as f64 * right_sum_sq - right_sum * right_sum).max(0.0);
        let w = scaled_l.sqrt() + scaled_r.sqrt();
        // Strict `<` keeps the leftmost minimum.
        if w < best_w {
            best_w = w;
            best_threshold = threshold;
        }
    }
    if best_w < bound {
        Some(RefSplit {
            event,
            threshold: best_threshold,
            sdr: total_sd - best_w / nf,
        })
    } else {
        None
    }
}

/// SDR-maximizing split over all attributes in `EventId::ALL` order;
/// strict `>` keeps the earliest attribute on ties.
fn find_best_split(
    cols: &RefColumns,
    rows: &[u32],
    min_leaf: usize,
    stats: &RefStats,
) -> Option<RefSplit> {
    if rows.len() < 2 * min_leaf {
        return None;
    }
    let total_sd = stats.sd();
    if total_sd <= 0.0 {
        return None;
    }
    let mut best: Option<RefSplit> = None;
    for event in EventId::ALL {
        if let Some(candidate) = scan_attribute(cols, rows, event, min_leaf, stats, total_sd) {
            if best.is_none_or(|b| candidate.sdr > b.sdr) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// Straight-line recursive growing.
fn grow(
    cols: &RefColumns,
    rows: Vec<u32>,
    depth: usize,
    sd_stop: f64,
    config: &M5Config,
) -> GrownRef {
    let stats = RefStats::compute(&cols.cpi, &rows);
    let stop = rows.len() < config.min_split || depth >= config.max_depth || stats.sd() < sd_stop;
    if !stop {
        if let Some(split) = find_best_split(cols, &rows, config.min_leaf, &stats) {
            let col = cols.event(split.event);
            let left_rows: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&i| col[i as usize] <= split.threshold)
                .collect();
            let right_rows: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&i| col[i as usize] > split.threshold)
                .collect();
            let left = grow(cols, left_rows, depth + 1, sd_stop, config);
            let right = grow(cols, right_rows, depth + 1, sd_stop, config);
            return GrownRef {
                rows,
                stats,
                split: Some((split, Box::new(left), Box::new(right))),
            };
        }
    }
    GrownRef {
        rows,
        stats,
        split: None,
    }
}

/// Textbook bottom-up pruning: fit this node's model over the subtree's
/// attributes and replace the subtree whenever the node's own adjusted
/// error is no worse than the (multiplier-scaled) weighted subtree
/// error.
fn prune(cols: &RefColumns, node: GrownRef, config: &M5Config) -> PrunedRef {
    let n = node.stats.n;
    let mean = node.stats.mean();
    let sd = node.stats.sd();
    match node.split {
        None => {
            let model = LinearModel::constant(mean);
            let error = mean_abs_error(cols, &model, &node.rows)
                * adjusted_error_factor(n, model.n_params());
            PrunedRef {
                model,
                n_samples: n,
                mean_cpi: mean,
                sd_cpi: sd,
                subtree_error: error,
                attrs: Vec::new(),
                split: None,
            }
        }
        Some((split, left, right)) => {
            let left = prune(cols, *left, config);
            let right = prune(cols, *right, config);

            // Attributes available to this node's model: everything the
            // subtree tests or models, in EventId order.
            let mut present = [false; N_EVENTS];
            for e in left.attrs.iter().chain(&right.attrs) {
                present[e.index()] = true;
            }
            present[split.event.index()] = true;
            let candidates: Vec<EventId> = EventId::ALL
                .into_iter()
                .filter(|e| present[e.index()])
                .collect();

            let model = fit_node_model(cols, &node.rows, &candidates, config);
            let node_error = mean_abs_error(cols, &model, &node.rows)
                * adjusted_error_factor(n, model.n_params());
            let subtree_error = if n == 0 {
                0.0
            } else {
                (left.subtree_error * left.n_samples as f64
                    + right.subtree_error * right.n_samples as f64)
                    / n as f64
            };
            let should_prune =
                config.prune && node_error <= subtree_error * config.pruning_multiplier;
            if should_prune {
                let attrs: Vec<EventId> = model.terms().iter().map(|(e, _)| *e).collect();
                PrunedRef {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error: node_error,
                    attrs,
                    split: None,
                }
            } else {
                let mut present = present;
                for (e, _) in model.terms() {
                    present[e.index()] = true;
                }
                let attrs: Vec<EventId> = EventId::ALL
                    .into_iter()
                    .filter(|e| present[e.index()])
                    .collect();
                PrunedRef {
                    model,
                    n_samples: n,
                    mean_cpi: mean,
                    sd_cpi: sd,
                    subtree_error,
                    attrs,
                    split: Some((split, Box::new(left), Box::new(right))),
                }
            }
        }
    }
}

/// Converts the pruned structure into [`RefNode`]s, numbering leaves
/// 1-based left to right.
fn finalize(node: PrunedRef, next_lm: &mut usize) -> RefNode {
    match node.split {
        Some((split, left, right)) => {
            let left = finalize(*left, next_lm);
            let right = finalize(*right, next_lm);
            RefNode {
                kind: RefKind::Split {
                    event: split.event,
                    threshold: split.threshold,
                    sdr: split.sdr,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                model: node.model,
                n_samples: node.n_samples,
                mean_cpi: node.mean_cpi,
                sd_cpi: node.sd_cpi,
            }
        }
        None => {
            let lm_index = *next_lm;
            *next_lm += 1;
            RefNode {
                kind: RefKind::Leaf { lm_index },
                model: node.model,
                n_samples: node.n_samples,
                mean_cpi: node.mean_cpi,
                sd_cpi: node.sd_cpi,
            }
        }
    }
}

impl RefTree {
    /// Fits a reference tree, with the same input rejections as the
    /// trainer: empty data, non-finite CPI, non-finite attribute cells.
    pub fn fit(data: &Dataset, config: &M5Config) -> Result<RefTree, String> {
        config.validate().map_err(|e| e.to_string())?;
        if data.is_empty() {
            return Err("empty training set".into());
        }
        let cols = RefColumns::new(data);
        if cols.cpi.iter().any(|y| !y.is_finite()) {
            return Err("non-finite CPI".into());
        }
        for event in EventId::ALL {
            if cols.event(event).iter().any(|v| !v.is_finite()) {
                return Err(format!("non-finite {} cell", event.short_name()));
            }
        }
        let rows: Vec<u32> = (0..data.len() as u32).collect();
        let root_stats = RefStats::compute(&cols.cpi, &rows);
        let root_sd = root_stats.sd();
        let sd_stop = config.sd_fraction * root_sd;
        let n_training = rows.len();
        let grown = grow(&cols, rows, 0, sd_stop, config);
        let pruned = prune(&cols, grown, config);
        let mut next_lm = 1;
        Ok(RefTree {
            root: finalize(pruned, &mut next_lm),
            config: *config,
            n_training,
            root_sd,
        })
    }

    /// The root node.
    pub fn root(&self) -> &RefNode {
        &self.root
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(node: &RefNode) -> usize {
            match &node.kind {
                RefKind::Leaf { .. } => 1,
                RefKind::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Textbook prediction: descend to a leaf, then (with smoothing on)
    /// blend back up with `p' = (n·p + k·q) / (n + k)`.
    pub fn predict(&self, sample: &Sample) -> f64 {
        self.predict_with_smoothing(sample, self.config.smoothing)
    }

    /// [`RefTree::predict`] with an explicit smoothing choice — lets the
    /// differential sweep reuse one reference fit across corners that
    /// differ only in smoothing (which does not affect training).
    pub fn predict_with_smoothing(&self, sample: &Sample, smoothing: bool) -> f64 {
        let mut path: Vec<&RefNode> = Vec::new();
        let mut node = &self.root;
        loop {
            path.push(node);
            match &node.kind {
                RefKind::Leaf { .. } => break,
                RefKind::Split {
                    event,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if sample.get(*event) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
        let mut p = path.last().expect("non-empty path").model.predict(sample);
        if !smoothing || path.len() == 1 {
            return p;
        }
        let k = self.config.smoothing_k;
        for w in path.windows(2).rev() {
            let n = w[1].n_samples as f64;
            let q = w[0].model.predict(sample);
            p = (n * p + k * q) / (n + k);
        }
        p
    }

    /// Verifies the optimized tree is **bit-identical** to this
    /// reference: same structure, same split events, bit-equal
    /// thresholds/statistics, bit-equal model coefficients, same leaf
    /// numbering. Returns a description of the first mismatch.
    pub fn assert_matches(&self, tree: &ModelTree) -> Result<(), String> {
        if tree.n_training() != self.n_training {
            return Err(format!(
                "n_training: {} vs reference {}",
                tree.n_training(),
                self.n_training
            ));
        }
        if tree.root_sd().to_bits() != self.root_sd.to_bits() {
            return Err(format!(
                "root_sd: {} vs reference {}",
                tree.root_sd(),
                self.root_sd
            ));
        }
        compare(tree, tree.root(), &self.root, "root")
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn compare(
    tree: &ModelTree,
    id: modeltree::NodeId,
    reference: &RefNode,
    path: &str,
) -> Result<(), String> {
    let node = tree.node(id);
    if node.n_samples() != reference.n_samples {
        return Err(format!(
            "{path}: n_samples {} vs reference {}",
            node.n_samples(),
            reference.n_samples
        ));
    }
    if !bits_eq(node.mean_cpi(), reference.mean_cpi) {
        return Err(format!(
            "{path}: mean_cpi {} vs reference {}",
            node.mean_cpi(),
            reference.mean_cpi
        ));
    }
    if !bits_eq(node.sd_cpi(), reference.sd_cpi) {
        return Err(format!(
            "{path}: sd_cpi {} vs reference {}",
            node.sd_cpi(),
            reference.sd_cpi
        ));
    }
    let model = node.model();
    if !bits_eq(model.intercept(), reference.model.intercept())
        || model.terms().len() != reference.model.terms().len()
        || model
            .terms()
            .iter()
            .zip(reference.model.terms())
            .any(|(a, b)| a.0 != b.0 || !bits_eq(a.1, b.1))
    {
        return Err(format!(
            "{path}: model {} vs reference {}",
            model, reference.model
        ));
    }
    match (node.kind(), &reference.kind) {
        (NodeKind::Leaf { lm_index }, RefKind::Leaf { lm_index: r }) => {
            if lm_index != r {
                return Err(format!("{path}: lm_index {lm_index} vs reference {r}"));
            }
            Ok(())
        }
        (
            NodeKind::Split {
                event,
                threshold,
                left,
                right,
            },
            RefKind::Split {
                event: re,
                threshold: rt,
                sdr: rsdr,
                left: rl,
                right: rr,
            },
        ) => {
            if event != re {
                return Err(format!(
                    "{path}: split event {} vs reference {}",
                    event.short_name(),
                    re.short_name()
                ));
            }
            if !bits_eq(*threshold, *rt) {
                return Err(format!("{path}: threshold {threshold} vs reference {rt}"));
            }
            if !bits_eq(node.sdr(), *rsdr) {
                return Err(format!("{path}: sdr {} vs reference {}", node.sdr(), rsdr));
            }
            compare(tree, *left, rl, &format!("{path}.L"))?;
            compare(tree, *right, rr, &format!("{path}.R"))
        }
        (NodeKind::Leaf { .. }, RefKind::Split { .. }) => {
            Err(format!("{path}: optimized leaf where reference splits"))
        }
        (NodeKind::Split { .. }, RefKind::Leaf { .. }) => Err(format!(
            "{path}: optimized split where reference has a leaf"
        )),
    }
}

// ---------------------------------------------------------------------
// CART oracle
// ---------------------------------------------------------------------

/// Fits a CART tree the naive way — the differential oracle for
/// [`baselines::RegressionTree`], which grows on the M5' trainer's
/// presorted arena. Every node copies its `(value, cpi)` pairs for every
/// event and re-sorts them with a stable `total_cmp` sort; children are
/// filtered copies of the parent's row list, so every sum runs in
/// original row order. Returns the node vector in pre-order, as
/// [`baselines::RegressionTree::nodes`] lays it out.
///
/// The caller must pass finite data with `min_leaf >= 1` and at least
/// one row; the optimized fit rejects everything else up front.
pub fn cart_fit(data: &Dataset, config: CartConfig) -> Vec<CartNode> {
    let mut nodes = Vec::new();
    let indices: Vec<usize> = (0..data.len()).collect();
    cart_grow(data, &config, &mut nodes, indices, 0);
    nodes
}

fn cart_grow(
    data: &Dataset,
    config: &CartConfig,
    nodes: &mut Vec<CartNode>,
    indices: Vec<usize>,
    depth: usize,
) -> usize {
    let mean = indices.iter().map(|&i| data.sample(i).cpi()).sum::<f64>() / indices.len() as f64;
    let stop = depth >= config.max_depth || indices.len() < 2 * config.min_leaf;
    let split = if stop {
        None
    } else {
        cart_best_split(data, &indices, config.min_leaf)
    };
    match split {
        None => {
            nodes.push(CartNode::Leaf { value: mean });
            nodes.len() - 1
        }
        Some((event, threshold)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.sample(i).get(event) <= threshold);
            let slot = nodes.len();
            nodes.push(CartNode::Leaf { value: mean });
            let left = cart_grow(data, config, nodes, left_idx, depth + 1);
            let right = cart_grow(data, config, nodes, right_idx, depth + 1);
            nodes[slot] = CartNode::Split {
                event,
                threshold,
                left,
                right,
            };
            slot
        }
    }
}

fn cart_best_split(data: &Dataset, indices: &[usize], min_leaf: usize) -> Option<(EventId, f64)> {
    let n = indices.len();
    let total_sum: f64 = indices.iter().map(|&i| data.sample(i).cpi()).sum();
    let total_sum_sq: f64 = indices
        .iter()
        .map(|&i| {
            let y = data.sample(i).cpi();
            y * y
        })
        .sum();
    let base_sse = total_sum_sq - total_sum * total_sum / n as f64;
    if base_sse <= 1e-12 {
        return None;
    }

    let mut best: Option<(EventId, f64, f64)> = None;
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for event in EventId::ALL {
        pairs.clear();
        pairs.extend(indices.iter().map(|&i| {
            let s = data.sample(i);
            (s.get(event), s.cpi())
        }));
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if pairs[0].0 == pairs[n - 1].0 {
            continue;
        }
        let mut left_sum = 0.0;
        let mut left_sum_sq = 0.0;
        for i in 0..n - 1 {
            let (value, y) = pairs[i];
            left_sum += y;
            left_sum_sq += y * y;
            if value == pairs[i + 1].0 {
                continue;
            }
            let n_left = (i + 1) as f64;
            let n_right = (n - i - 1) as f64;
            if (i + 1) < min_leaf || (n - i - 1) < min_leaf {
                continue;
            }
            let sse_left = left_sum_sq - left_sum * left_sum / n_left;
            let right_sum = total_sum - left_sum;
            let sse_right = (total_sum_sq - left_sum_sq) - right_sum * right_sum / n_right;
            let sse = sse_left + sse_right;
            if best.as_ref().is_none_or(|&(_, _, b)| sse < b) && sse < base_sse - 1e-12 {
                best = Some((event, 0.5 * (value + pairs[i + 1].0), sse));
            }
        }
    }
    best.map(|(e, t, _)| (e, t))
}

/// Compares a CART node vector against the oracle's: structure, events
/// and child links exactly, thresholds and leaf values by `to_bits`.
///
/// # Errors
///
/// Describes the first differing node.
pub fn compare_cart(nodes: &[CartNode], reference: &[CartNode]) -> Result<(), String> {
    if nodes.len() != reference.len() {
        return Err(format!(
            "{} nodes vs reference {}",
            nodes.len(),
            reference.len()
        ));
    }
    for (at, (node, r)) in nodes.iter().zip(reference).enumerate() {
        let same = match (node, r) {
            (CartNode::Leaf { value }, CartNode::Leaf { value: rv }) => bits_eq(*value, *rv),
            (
                CartNode::Split {
                    event,
                    threshold,
                    left,
                    right,
                },
                CartNode::Split {
                    event: re,
                    threshold: rt,
                    left: rl,
                    right: rr,
                },
            ) => event == re && bits_eq(*threshold, *rt) && left == rl && right == rr,
            _ => false,
        };
        if !same {
            return Err(format!("node {at}: {node:?} vs reference {r:?}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// QR oracle
// ---------------------------------------------------------------------

/// Householder QR walking the row-major matrix column by column — the
/// differential oracle for [`mathkit::qr::qr`], which runs the same
/// steps on column-major working copies. Returns the thin `(Q, R)`.
///
/// # Panics
///
/// Panics if `a` has more columns than rows.
pub fn householder_qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    assert!(m >= n, "QR requires rows >= cols, got {m}x{n}");
    let mut r = a.clone();
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    for k in 0..n {
        let norm_x = (k..m).map(|i| r[(i, k)] * r[(i, k)]).sum::<f64>().sqrt();
        let mut v = vec![0.0; m - k];
        if norm_x > 0.0 {
            let alpha = if r[(k, k)] >= 0.0 { -norm_x } else { norm_x };
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = r[(k + i, k)];
            }
            v[0] -= alpha;
            let norm_v = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm_v > 0.0 {
                for vi in v.iter_mut() {
                    *vi /= norm_v;
                }
                for c in k..n {
                    let dot = (0..m - k).map(|i| v[i] * r[(k + i, c)]).sum::<f64>();
                    for i in 0..m - k {
                        r[(k + i, c)] -= 2.0 * v[i] * dot;
                    }
                }
            }
        }
        vs.push(v);
    }

    let mut q = Matrix::zeros(m, n);
    for c in 0..n {
        q[(c, c)] = 1.0;
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        if v.iter().all(|&x| x == 0.0) {
            continue;
        }
        for c in 0..n {
            let dot = (0..m - k).map(|i| v[i] * q[(k + i, c)]).sum::<f64>();
            for i in 0..m - k {
                q[(k + i, c)] -= 2.0 * v[i] * dot;
            }
        }
    }

    let mut r_thin = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            r_thin[(i, j)] = r[(i, j)];
        }
    }
    (q, r_thin)
}

/// Least squares through [`householder_qr`], with the same singularity
/// test and back substitution as [`mathkit::qr::least_squares`]; `None`
/// where that returns [`mathkit::MathError::Singular`].
///
/// # Panics
///
/// Panics if `y.len() != a.rows()` or `a` is wider than tall.
pub fn qr_least_squares(a: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    let n = a.cols();
    let (q, r) = householder_qr(a);
    let min_diag = (0..n)
        .map(|i| r[(i, i)].abs())
        .fold(f64::INFINITY, f64::min);
    if min_diag <= 1e-10 * r.max_abs().max(1.0) {
        return None;
    }
    let qty = q.transpose_matvec(y).expect("target length matches rows");
    let mut beta = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = qty[i];
        for j in (i + 1)..n {
            acc -= r[(i, j)] * beta[j];
        }
        beta[i] = acc / r[(i, i)];
    }
    Some(beta)
}

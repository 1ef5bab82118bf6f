//! CART-style regression tree with constant leaves.
//!
//! Structurally identical to an M5' tree (variance-reduction splits) but
//! with leaf *means* instead of leaf linear models — the classic ablation
//! showing what the linear leaves buy.
//!
//! The tree grows on the M5' trainer's presorted column machinery
//! ([`modeltree::split`]): every attribute is sorted once at the root,
//! and children inherit sorted order by stable partitioning. The packed
//! `(total-order key, position)` root sort orders exactly as a stable
//! `f64::total_cmp` sort of the node's rows, and each node's original
//! row order survives in [`NodeSet::indices`], so every sum is taken in
//! the order a per-node re-sort would take it.

use crate::{check_finite, BaselineError, Regressor, Result};
use modeltree::split::{Columns, NodeSet, SortArena, Split};
use perfcounters::events::EventId;
use perfcounters::{Dataset, Sample};
use serde::{Deserialize, Serialize};

/// CART hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartConfig {
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Maximum depth (root = 0).
    pub max_depth: usize,
}

impl Default for CartConfig {
    fn default() -> Self {
        CartConfig {
            min_leaf: 8,
            max_depth: 12,
        }
    }
}

/// One node of a fitted [`RegressionTree`], in pre-order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CartNode {
    /// A constant prediction: the mean CPI of the node's samples.
    Leaf {
        /// The predicted CPI.
        value: f64,
    },
    /// An axis-aligned test: `value <= threshold` goes left.
    Split {
        /// The tested event.
        event: EventId,
        /// Midpoint between the two adjacent distinct values.
        threshold: f64,
        /// Index of the left child.
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<CartNode>,
    config: CartConfig,
}

impl RegressionTree {
    /// Fits a piecewise-constant regression tree.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::InvalidConfig`] if `min_leaf == 0`.
    /// * [`BaselineError::InsufficientData`] for an empty dataset.
    /// * [`BaselineError::NonFiniteAttribute`] if an event density or a
    ///   CPI is NaN or infinite.
    pub fn fit(data: &Dataset, config: CartConfig) -> Result<Self> {
        if config.min_leaf == 0 {
            return Err(BaselineError::InvalidConfig(
                "min_leaf must be at least 1".into(),
            ));
        }
        if data.is_empty() {
            return Err(BaselineError::InsufficientData("empty training set".into()));
        }
        // The presorted prefix split below relies on `<=` agreeing with
        // the total order, which only holds for finite values.
        let cols = Columns::new(data);
        check_finite(&cols)?;
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            config,
        };
        let mut arena = SortArena::root(&cols);
        let mut mask = vec![false; data.len()];
        let mut scratch = vec![0u32; data.len()];
        tree.grow(&cols, arena.node_set(), 0, &mut mask, &mut scratch);
        Ok(tree)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, CartNode::Leaf { .. }))
            .count()
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in pre-order; the root is the first.
    pub fn nodes(&self) -> &[CartNode] {
        &self.nodes
    }

    /// True if a node of `n` samples at `depth` becomes a leaf without
    /// searching for a split.
    fn stops(&self, n: usize, depth: usize) -> bool {
        depth >= self.config.max_depth || n < 2 * self.config.min_leaf
    }

    fn leaf(&mut self, cpi: &[f64], indices: &[u32]) -> usize {
        let sum = indices.iter().map(|&i| cpi[i as usize]).sum::<f64>();
        self.nodes.push(CartNode::Leaf {
            value: sum / indices.len() as f64,
        });
        self.nodes.len() - 1
    }

    fn grow(
        &mut self,
        cols: &Columns<'_>,
        set: NodeSet<'_>,
        depth: usize,
        mask: &mut [bool],
        scratch: &mut [u32],
    ) -> usize {
        let split = if self.stops(set.len(), depth) {
            None
        } else {
            best_variance_split(cols, &set, self.config.min_leaf)
        };
        let Some((event, threshold)) = split else {
            return self.leaf(cols.cpi, &set.indices);
        };
        // `split_plan` reads only the event and the threshold.
        let plan = Split {
            event,
            threshold,
            sdr: 0.0,
        };
        let (left_indices, right_indices) = set.split_plan(cols, &plan, mask);
        let slot = self.nodes.len();
        self.nodes.push(CartNode::Leaf { value: f64::NAN }); // placeholder
        let (left, right) = if self.stops(left_indices.len(), depth + 1)
            && self.stops(right_indices.len(), depth + 1)
        {
            // Two leaves need only their row lists, not sorted segments.
            (
                self.leaf(cols.cpi, &left_indices),
                self.leaf(cols.cpi, &right_indices),
            )
        } else {
            let (left_set, right_set) =
                set.partition_segments(left_indices, right_indices, mask, scratch);
            (
                self.grow(cols, left_set, depth + 1, mask, scratch),
                self.grow(cols, right_set, depth + 1, mask, scratch),
            )
        };
        self.nodes[slot] = CartNode::Split {
            event,
            threshold,
            left,
            right,
        };
        slot
    }
}

/// Finds the variance-minimizing `(event, threshold)` split, or `None`
/// when nothing admissible improves.
///
/// Node totals accumulate in row order; each attribute's prefix sums
/// accumulate along its presorted segment, ties kept in row order.
fn best_variance_split(
    cols: &Columns<'_>,
    set: &NodeSet<'_>,
    min_leaf: usize,
) -> Option<(EventId, f64)> {
    let n = set.len();
    let cpi = cols.cpi;
    let total_sum: f64 = set.indices.iter().map(|&i| cpi[i as usize]).sum();
    let total_sum_sq: f64 = set
        .indices
        .iter()
        .map(|&i| {
            let y = cpi[i as usize];
            y * y
        })
        .sum();
    let base_sse = total_sum_sq - total_sum * total_sum / n as f64;
    if base_sse <= 1e-12 {
        return None;
    }

    let mut best: Option<(EventId, f64, f64)> = None;
    for event in EventId::ALL {
        let col = cols.event(event);
        let seg = set.sorted(event);
        if col[seg[0] as usize] == col[seg[n - 1] as usize] {
            continue;
        }
        let mut left_sum = 0.0;
        let mut left_sum_sq = 0.0;
        for i in 0..n - 1 {
            let value = col[seg[i] as usize];
            let next = col[seg[i + 1] as usize];
            let y = cpi[seg[i] as usize];
            left_sum += y;
            left_sum_sq += y * y;
            if value == next {
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
                best = Some((event, 0.5 * (value + next), sse));
            }
        }
    }
    best.map(|(e, t, _)| (e, t))
}

impl Regressor for RegressionTree {
    fn predict(&self, sample: &Sample) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                CartNode::Leaf { value } => return value,
                CartNode::Split {
                    event,
                    threshold,
                    left,
                    right,
                } => {
                    at = if sample.get(event) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn step_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("step");
        for _ in 0..n {
            let dtlb = rng.gen::<f64>() * 4e-4;
            let cpi = if dtlb <= 2e-4 { 0.5 } else { 2.0 };
            let mut s = Sample::zeros(cpi);
            s.set(EventId::DtlbMiss, dtlb);
            ds.push(s, b);
        }
        ds
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            RegressionTree::fit(&Dataset::new(), CartConfig::default()),
            Err(BaselineError::InsufficientData(_))
        ));
        let ds = step_dataset(10, 0);
        assert!(matches!(
            RegressionTree::fit(
                &ds,
                CartConfig {
                    min_leaf: 0,
                    max_depth: 3
                }
            ),
            Err(BaselineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ds = step_dataset(50, 6);
            let mut s = Sample::zeros(1.0);
            s.set(EventId::L2Miss, bad);
            ds.push(s, 0);
            let err = RegressionTree::fit(&ds, CartConfig::default()).unwrap_err();
            assert!(matches!(err, BaselineError::NonFiniteAttribute(_)), "{err}");
            assert!(err.to_string().contains("row 50"), "{err}");

            let mut ds = step_dataset(50, 6);
            ds.push(Sample::zeros(bad), 0);
            assert!(matches!(
                RegressionTree::fit(&ds, CartConfig::default()),
                Err(BaselineError::NonFiniteAttribute(_))
            ));
        }
    }

    #[test]
    fn fits_step_function_exactly() {
        let ds = step_dataset(500, 1);
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        let mae = tree.mean_abs_error(&ds);
        assert!(mae < 0.01, "mae {mae}");
    }

    #[test]
    fn respects_max_depth() {
        let ds = step_dataset(500, 2);
        let tree = RegressionTree::fit(
            &ds,
            CartConfig {
                min_leaf: 2,
                max_depth: 1,
            },
        )
        .unwrap();
        assert!(tree.n_leaves() <= 2);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("flat");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut s = Sample::zeros(1.0);
            s.set(EventId::Load, rng.gen());
            ds.push(s, b);
        }
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&Sample::zeros(0.0)), 1.0);
    }

    #[test]
    fn piecewise_linear_needs_more_leaves_than_model_tree_would() {
        // A sloped target forces CART to stair-step: leaf count should
        // clearly exceed the 2 regimes.
        let mut rng = StdRng::seed_from_u64(4);
        let mut ds = Dataset::new();
        let b = ds.add_benchmark("slope");
        for _ in 0..2000 {
            let load: f64 = rng.gen();
            let mut s = Sample::zeros(0.5 + 2.0 * load);
            s.set(EventId::Load, load);
            ds.push(s, b);
        }
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        assert!(tree.n_leaves() > 4, "leaves {}", tree.n_leaves());
        assert!(tree.mean_abs_error(&ds) < 0.1);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = step_dataset(200, 5);
        let tree = RegressionTree::fit(&ds, CartConfig::default()).unwrap();
        let json = serde_json::to_string(&tree).unwrap();
        let back: RegressionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
    }
}

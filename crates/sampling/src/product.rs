//! Structure-aware sampling over d-dimensional product structures
//! (Section 4 of the paper).
//!
//! Pipeline:
//! 1. compute IPPS probabilities and set aside certain keys (`pᵢ = 1`);
//! 2. build [`KdHierarchy`] (Algorithm 2) over the active keys — a kd-tree
//!    whose splits halve the probability mass, so cells are mass-balanced;
//! 3. run the hierarchy summarization of Section 3 over the kd-tree:
//!    aggregate bottom-up, each subtree resolving to at most one active key.
//!
//! The discrepancy on a box `R` behaves like a structure-oblivious VarOpt
//! sample on a subset of mass `μ ≤ min{p(R), 2d·s^((d−1)/d)}` (boundary
//! cells only), i.e. error concentrated around
//! `√μ ≤ min{√p(R), √(2d)·s^((d−1)/(2d))}`.

use std::collections::HashMap;

use rand::Rng;

use sas_core::aggregate::{AggregationState, EntryState};
use sas_core::{KeyId, Sample, WeightedKey};
use sas_structures::kdtree::{KdHierarchy, KdItem};
use sas_structures::product::{BoxRange, Point};

use crate::IppsSetup;

const ROOT_TOL: f64 = 1e-6;

/// A d-dimensional weighted data set: every key has a location.
#[derive(Debug, Clone)]
pub struct SpatialData {
    /// The weighted keys.
    pub keys: Vec<WeightedKey>,
    /// Location of each key (same order as `keys`).
    pub points: Vec<Point>,
}

impl SpatialData {
    /// Creates a spatial data set.
    ///
    /// # Panics
    /// Panics if lengths differ or dimensions are inconsistent.
    pub fn new(keys: Vec<WeightedKey>, points: Vec<Point>) -> Self {
        assert_eq!(keys.len(), points.len(), "keys/points length mismatch");
        if let Some(first) = points.first() {
            let d = first.dim();
            assert!(points.iter().all(|p| p.dim() == d), "inconsistent dims");
        }
        Self { keys, points }
    }

    /// Builds from `(x, y, weight)` triples with keys `0..n`.
    pub fn from_xyw(rows: &[(u64, u64, f64)]) -> Self {
        let keys = rows
            .iter()
            .enumerate()
            .map(|(i, &(_, _, w))| WeightedKey::new(i as u64, w))
            .collect();
        let points = rows.iter().map(|&(x, y, _)| Point::xy(x, y)).collect();
        Self::new(keys, points)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Location of `key` (linear scan; build an index for bulk lookups).
    pub fn point_of(&self, key: KeyId) -> Option<&Point> {
        self.keys
            .iter()
            .position(|wk| wk.key == key)
            .map(|i| &self.points[i])
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.keys.iter().map(|wk| wk.weight).sum()
    }

    /// Exact weight inside a box.
    pub fn box_weight(&self, b: &BoxRange) -> f64 {
        self.keys
            .iter()
            .zip(&self.points)
            .filter(|(_, p)| b.contains(p))
            .map(|(wk, _)| wk.weight)
            .sum()
    }
}

/// Draws a structure-aware VarOpt sample of size `s` over spatial data.
///
/// Builds the kd-hierarchy over active keys and aggregates bottom-up.
pub fn sample<R: Rng + ?Sized>(data: &SpatialData, s: usize, rng: &mut R) -> Sample {
    let setup = IppsSetup::compute(&data.keys, s);
    if setup.active.is_empty() {
        return Sample::from_inclusion(
            &data.keys,
            &[],
            setup.certain.iter().map(|wk| wk.key),
            setup.tau,
        );
    }
    // Locations of active keys.
    let point_by_key: HashMap<KeyId, &Point> = data
        .keys
        .iter()
        .zip(&data.points)
        .map(|(wk, p)| (wk.key, p))
        .collect();
    let items: Vec<KdItem> = setup
        .active
        .iter()
        .map(|(wk, p)| KdItem {
            key: wk.key,
            point: (*point_by_key
                .get(&wk.key)
                .unwrap_or_else(|| panic!("key {} has no location", wk.key)))
            .clone(),
            prob: *p,
        })
        .collect();
    let tree = KdHierarchy::build(items, 0.0);
    let state = aggregate_over_kd(&tree, rng);

    let mut sample = Sample::from_inclusion(
        &data.keys,
        &[],
        state.included_keys().collect::<Vec<_>>(),
        setup.tau,
    );
    sample.merge(Sample::from_inclusion(
        &data.keys,
        &[],
        setup.certain.iter().map(|wk| wk.key),
        setup.tau,
    ));
    sample
}

/// Bottom-up aggregation over a kd-hierarchy: post-order traversal keeping
/// at most one active entry per subtree (the kd analogue of the lowest-LCA
/// rule).
pub fn aggregate_over_kd<R: Rng + ?Sized>(tree: &KdHierarchy, rng: &mut R) -> AggregationState {
    // Entries follow the tree's item order.
    let keys: Vec<KeyId> = tree.items().iter().map(|it| it.key).collect();
    let probs: Vec<f64> = tree.items().iter().map(|it| it.prob).collect();
    let mut state = AggregationState::new(keys, probs);

    let mut leftover: Vec<Option<usize>> = vec![None; tree.node_count()];
    let mut stack = vec![(tree.root(), false)];
    while let Some((n, processed)) = stack.pop() {
        if !processed {
            stack.push((n, true));
            if let Some((l, r)) = tree.children(n) {
                stack.push((l, false));
                stack.push((r, false));
            }
            continue;
        }
        if tree.is_leaf(n) {
            // Leaves may hold several co-located items: aggregate them.
            let mut survivor: Option<usize> = None;
            for &it in tree.leaf_items(n) {
                let idx = it as usize;
                if state.state(idx) != EntryState::Active {
                    continue;
                }
                survivor = match survivor {
                    None => Some(idx),
                    Some(cur) => {
                        state.aggregate(cur, idx, rng);
                        [cur, idx]
                            .into_iter()
                            .find(|&x| state.state(x) == EntryState::Active)
                    }
                };
            }
            leftover[n as usize] = survivor;
            continue;
        }
        let (l, r) = tree.children(n).expect("internal node");
        leftover[n as usize] = match (leftover[l as usize], leftover[r as usize]) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => {
                state.aggregate(a, b, rng);
                [a, b]
                    .into_iter()
                    .find(|&x| state.state(x) == EntryState::Active)
            }
        };
    }
    if let Some(idx) = leftover[tree.root() as usize] {
        if !state.finalize_entry(idx, ROOT_TOL) {
            state.round_entry(idx, rng);
        }
    }
    state
}

/// Estimates the weight inside `query` from a sample of spatial data.
pub fn estimate_box(sample: &Sample, data: &SpatialData, query: &BoxRange) -> f64 {
    let point_by_key: HashMap<KeyId, &Point> = data
        .keys
        .iter()
        .zip(&data.points)
        .map(|(wk, p)| (wk.key, p))
        .collect();
    sample.subset_estimate(|k| point_by_key.get(&k).is_some_and(|p| query.contains(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_spatial(n: usize, side: u64, seed: u64) -> SpatialData {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..side),
                    rng.gen_range(0..side),
                    rng.gen_range(0.1..5.0),
                )
            })
            .collect();
        SpatialData::from_xyw(&rows)
    }

    #[test]
    fn sample_size_exact() {
        let data = random_spatial(300, 100, 1);
        for s in [2, 10, 50] {
            let mut rng = StdRng::seed_from_u64(s as u64);
            let smp = sample(&data, s, &mut rng);
            assert_eq!(smp.len(), s, "s={s}");
        }
    }

    #[test]
    fn unbiased_box_estimates() {
        let data = random_spatial(200, 50, 2);
        let query = BoxRange::xy(10, 35, 5, 40);
        let truth = data.box_weight(&query);
        let runs = 8_000;
        let mut sum = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..runs {
            let smp = sample(&data, 25, &mut rng);
            sum += estimate_box(&smp, &data, &query);
        }
        let mean = sum / runs as f64;
        assert!((mean - truth).abs() / truth < 0.03, "{mean} vs {truth}");
    }

    #[test]
    fn aware_beats_oblivious_on_boxes() {
        // The headline claim, in miniature: mean |error| of the structure-
        // aware sampler is lower than oblivious VarOpt for box queries.
        use sas_core::varopt::VarOptSampler;
        let data = random_spatial(1500, 64, 4);
        let queries: Vec<BoxRange> = {
            let mut qrng = StdRng::seed_from_u64(5);
            (0..30)
                .map(|_| {
                    let x0 = qrng.gen_range(0..48);
                    let y0 = qrng.gen_range(0..48);
                    BoxRange::xy(x0, x0 + 15, y0, y0 + 15)
                })
                .collect()
        };
        let s = 100;
        let runs = 60;
        let mut err_aware = 0.0;
        let mut err_obliv = 0.0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let aware = sample(&data, s, &mut rng);
            let obliv = VarOptSampler::sample_slice(s, &data.keys, &mut rng);
            for q in &queries {
                let truth = data.box_weight(q);
                err_aware += (estimate_box(&aware, &data, q) - truth).abs();
                err_obliv += (estimate_box(&obliv, &data, q) - truth).abs();
            }
        }
        assert!(
            err_aware < err_obliv,
            "aware error {err_aware} not below oblivious {err_obliv}"
        );
    }

    #[test]
    fn all_keys_heavy_returns_certain_only() {
        let data = SpatialData::from_xyw(&[(1, 1, 5.0), (2, 2, 5.0)]);
        let mut rng = StdRng::seed_from_u64(6);
        let smp = sample(&data, 2, &mut rng);
        assert_eq!(smp.len(), 2);
    }

    #[test]
    fn colocated_points_are_handled() {
        let rows: Vec<(u64, u64, f64)> = (0..20).map(|_| (5, 5, 1.0)).collect();
        let data = SpatialData::from_xyw(&rows);
        let mut rng = StdRng::seed_from_u64(7);
        let smp = sample(&data, 4, &mut rng);
        assert_eq!(smp.len(), 4);
    }

    #[test]
    fn spatial_data_accessors() {
        let data = SpatialData::from_xyw(&[(1, 2, 3.0), (4, 5, 6.0)]);
        assert_eq!(data.len(), 2);
        assert!(!data.is_empty());
        assert_eq!(data.total_weight(), 9.0);
        assert_eq!(data.point_of(0), Some(&Point::xy(1, 2)));
        assert_eq!(data.point_of(99), None);
        assert_eq!(data.box_weight(&BoxRange::xy(0, 2, 0, 3)), 3.0);
    }
}

//! Count-sketch over dyadic rectangles — the "Sketch" baseline of
//! Section 6 [Charikar–Chen–Farach-Colton, ICALP 2002].
//!
//! One Count-sketch is kept per dyadic level pair `(ℓx, ℓy)`; each input
//! point updates the cell `(x ≫ ℓx, y ≫ ℓy)` in every sketch — the
//! `O(log X · log Y)` per-point update cost the paper measures (1024× for
//! 32-bit addresses). A box query is decomposed canonically into dyadic
//! rectangles, each estimated from its level-pair sketch by the median of
//! signed counters.
//!
//! As the paper observes, the space at which the sketch becomes accurate on
//! two-dimensional data is much larger than for the other summaries.

use sas_sampling::product::SpatialData;
use sas_structures::dyadic;
use sas_structures::product::BoxRange;

/// Number of independent rows per sketch (median-of-rows estimator).
const ROWS: usize = 3;

/// One Count-sketch: `ROWS` rows of `width` signed counters.
#[derive(Debug, Clone)]
struct CountSketch {
    width: usize,
    counters: Vec<f64>, // ROWS * width
    seeds: [u64; ROWS],
}

/// Fast 64-bit mix (splitmix64 finalizer) used for both bucket and sign
/// hashes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CountSketch {
    fn new(width: usize, seed: u64) -> Self {
        Self {
            width: width.max(1),
            counters: vec![0.0; ROWS * width.max(1)],
            seeds: [mix(seed), mix(seed ^ 0xdead_beef), mix(seed ^ 0x1234_5678)],
        }
    }

    fn update(&mut self, item: u64, weight: f64) {
        for (r, &seed) in self.seeds.iter().enumerate() {
            let h = mix(item ^ seed);
            let bucket = (h % self.width as u64) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            self.counters[r * self.width + bucket] += sign * weight;
        }
    }

    /// Median of the per-row estimates plus their sample variance — the
    /// spread of the independent rows is the sketch's own error signal.
    fn estimate_stats(&self, item: u64) -> (f64, f64) {
        let mut ests = [0.0; ROWS];
        for (r, &seed) in self.seeds.iter().enumerate() {
            let h = mix(item ^ seed);
            let bucket = (h % self.width as u64) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            ests[r] = sign * self.counters[r * self.width + bucket];
        }
        ests.sort_by(f64::total_cmp);
        let median = ests[ROWS / 2];
        let mean: f64 = ests.iter().sum::<f64>() / ROWS as f64;
        let variance: f64 =
            ests.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / (ROWS as f64 - 1.0);
        (median, variance)
    }
}

/// The dyadic-rectangle Count-sketch summary.
#[derive(Debug, Clone)]
pub struct SketchSummary {
    /// sketches[lx][ly]
    sketches: Vec<Vec<CountSketch>>,
    bits_x: u32,
    bits_y: u32,
}

impl SketchSummary {
    /// Builds the summary with a total budget of `s` counters split evenly
    /// across the `(bits_x + 1)(bits_y + 1)` level-pair sketches.
    pub fn build(data: &SpatialData, bits_x: u32, bits_y: u32, s: usize, seed: u64) -> Self {
        let pairs = ((bits_x + 1) * (bits_y + 1)) as usize;
        let width = (s / (pairs * ROWS)).max(1);
        let mut sketches: Vec<Vec<CountSketch>> = (0..=bits_x)
            .map(|lx| {
                (0..=bits_y)
                    .map(|ly| CountSketch::new(width, seed ^ ((lx as u64) << 32) ^ ly as u64))
                    .collect()
            })
            .collect();
        for (wk, p) in data.keys.iter().zip(&data.points) {
            if wk.weight == 0.0 {
                continue;
            }
            let (x, y) = (p.coord(0), p.coord(1));
            for lx in 0..=bits_x {
                for ly in 0..=bits_y {
                    let cell = cell_id(x >> lx, y >> ly);
                    sketches[lx as usize][ly as usize].update(cell, wk.weight);
                }
            }
        }
        Self {
            sketches,
            bits_x,
            bits_y,
        }
    }

    /// Merges a sketch of disjoint data by counter addition (linearity:
    /// the result is identical to a sketch built over the union). Fails
    /// without mutating `self` if the geometries (domain bits, counter
    /// width, hash seeds) differ — adding counters hashed differently
    /// would be meaningless.
    pub fn try_merge(&mut self, other: Self) -> Result<(), String> {
        if (self.bits_x, self.bits_y) != (other.bits_x, other.bits_y) {
            return Err(format!(
                "sketch domain mismatch: 2^{}×2^{} vs 2^{}×2^{}",
                self.bits_x, self.bits_y, other.bits_x, other.bits_y
            ));
        }
        for (rows_a, rows_b) in self.sketches.iter().zip(&other.sketches) {
            for (a, b) in rows_a.iter().zip(rows_b) {
                if a.width != b.width {
                    return Err("sketch width mismatch".into());
                }
                if a.seeds != b.seeds {
                    return Err("sketch seed mismatch".into());
                }
            }
        }
        for (rows_a, rows_b) in self.sketches.iter_mut().zip(other.sketches) {
            for (a, b) in rows_a.iter_mut().zip(rows_b) {
                for (ca, cb) in a.counters.iter_mut().zip(b.counters) {
                    *ca += cb;
                }
            }
        }
        Ok(())
    }

    /// Writes the wire representation (see `sas-codec` for the framing).
    pub(crate) fn write_wire(&self, w: &mut sas_codec::Writer) {
        let width = self.sketches[0][0].width as u64;
        w.section(1, |w| {
            w.put_u32(self.bits_x);
            w.put_u32(self.bits_y);
            w.put_u64(width);
            w.put_u8(ROWS as u8);
        });
        w.section(2, |w| {
            for rows in &self.sketches {
                for sk in rows {
                    for &seed in &sk.seeds {
                        w.put_u64(seed);
                    }
                    for &c in &sk.counters {
                        w.put_f64(c);
                    }
                }
            }
        });
    }

    /// Reads the wire representation, validating the geometry before any
    /// large allocation (never panics).
    pub(crate) fn read_wire(r: &mut sas_codec::Reader<'_>) -> Result<Self, sas_codec::CodecError> {
        use sas_codec::CodecError;
        let mut meta = r.expect_section(1)?;
        let bits_x = meta.get_u32()?;
        let bits_y = meta.get_u32()?;
        let width = meta.get_u64()? as usize;
        let rows = meta.get_u8()? as usize;
        meta.finish()?;
        if rows != ROWS {
            return Err(CodecError::Invalid(format!(
                "sketch has {rows} rows, this build expects {ROWS}"
            )));
        }
        if width == 0 {
            return Err(CodecError::Invalid("zero sketch width".into()));
        }
        if bits_x >= 32 || bits_y >= 32 {
            return Err(CodecError::Invalid(format!(
                "sketch domain bits ({bits_x}, {bits_y}) too large"
            )));
        }
        let mut body = r.expect_section(2)?;
        // One sketch is 3 seeds + ROWS·width counters; reject a corrupt
        // width before allocating anything near it. Every step is checked:
        // a crafted width must not wrap the arithmetic into a size that
        // matches the body (and then blow up in Vec::with_capacity).
        let pairs = ((bits_x + 1) * (bits_y + 1)) as usize;
        let overflow = || CodecError::Invalid(format!("sketch geometry {pairs}×{width} overflows"));
        let counters_per_sketch = ROWS.checked_mul(width).ok_or_else(overflow)?;
        let per_sketch = counters_per_sketch
            .checked_mul(8)
            .and_then(|v| v.checked_add(3 * 8))
            .ok_or_else(overflow)?;
        let needed = pairs.checked_mul(per_sketch).ok_or_else(overflow)?;
        if needed != body.remaining() {
            return Err(CodecError::LengthMismatch {
                declared: needed as u64,
                actual: body.remaining() as u64,
            });
        }
        let mut sketches = Vec::with_capacity((bits_x + 1) as usize);
        for _ in 0..=bits_x {
            let mut row = Vec::with_capacity((bits_y + 1) as usize);
            for _ in 0..=bits_y {
                let mut seeds = [0u64; ROWS];
                for s in &mut seeds {
                    *s = body.get_u64()?;
                }
                let mut counters = Vec::with_capacity(counters_per_sketch);
                for _ in 0..counters_per_sketch {
                    counters.push(body.get_finite_f64()?);
                }
                row.push(CountSketch {
                    width,
                    counters,
                    seeds,
                });
            }
            sketches.push(row);
        }
        body.finish()?;
        Ok(Self {
            sketches,
            bits_x,
            bits_y,
        })
    }

    /// Box estimate plus a variance proxy: the sum over the query's dyadic
    /// rectangles of the sample variance of the per-row estimates. The rows
    /// are independent unbiased estimators, so their spread is the sketch's
    /// own (heuristic) error signal — what the query API's Chebyshev-style
    /// interval is built from.
    pub fn estimate_box_stats(&self, query: &BoxRange) -> (f64, f64) {
        if query.is_empty() {
            return (0.0, 0.0);
        }
        // Clamp to the domain before dyadic decomposition.
        let max_x = if self.bits_x < 64 {
            (1u64 << self.bits_x) - 1
        } else {
            u64::MAX
        };
        let max_y = if self.bits_y < 64 {
            (1u64 << self.bits_y) - 1
        } else {
            u64::MAX
        };
        let xs = dyadic::decompose(
            query.sides[0].lo.min(max_x),
            query.sides[0].hi.min(max_x),
            self.bits_x,
        );
        let ys = dyadic::decompose(
            query.sides[1].lo.min(max_y),
            query.sides[1].hi.min(max_y),
            self.bits_y,
        );
        let mut sum = 0.0;
        let mut variance = 0.0;
        for dx in &xs {
            for dy in &ys {
                let sk = &self.sketches[dx.level as usize][dy.level as usize];
                let (median, var) = sk.estimate_stats(cell_id(dx.index, dy.index));
                sum += median;
                variance += var;
            }
        }
        (sum, variance)
    }
}

/// Packs 2-D cell coordinates into one hashable id.
fn cell_id(cx: u64, cy: u64) -> u64 {
    cx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ cy
}

impl SketchSummary {
    /// Estimated weight inside the box (the value of
    /// [`estimate_box_stats`](Self::estimate_box_stats)).
    pub fn estimate_box(&self, query: &BoxRange) -> f64 {
        self.estimate_box_stats(query).0
    }

    /// Number of counters over all levels — the size measure of the
    /// paper's plots.
    pub fn size_elements(&self) -> usize {
        self.sketches
            .iter()
            .flatten()
            .map(|s| s.counters.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, bits: u32, seed: u64) -> SpatialData {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 1u64 << bits;
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..side),
                    rng.gen_range(0..side),
                    rng.gen_range(0.5..5.0),
                )
            })
            .collect();
        SpatialData::from_xyw(&rows)
    }

    #[test]
    fn single_sketch_point_estimates() {
        let mut sk = CountSketch::new(64, 42);
        for i in 0..10u64 {
            sk.update(i, (i + 1) as f64);
        }
        // With 10 items in 64 buckets, collisions are unlikely per row and
        // the median kills outliers.
        for i in 0..10u64 {
            let (est, _) = sk.estimate_stats(i);
            assert!((est - (i + 1) as f64).abs() < 6.0, "item {i}: est {est}");
        }
    }

    #[test]
    fn huge_budget_is_accurate() {
        let data = random_data(100, 4, 1);
        let sk = SketchSummary::build(&data, 4, 4, 200_000, 7);
        let exact = crate::exact::ExactEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let x0 = rng.gen_range(0..16);
            let x1 = rng.gen_range(x0..16);
            let y0 = rng.gen_range(0..16);
            let y1 = rng.gen_range(y0..16);
            let q = BoxRange::xy(x0, x1, y0, y1);
            let est = sk.estimate_box(&q);
            let truth = exact.box_sum(&q);
            assert!(
                (est - truth).abs() < 0.15 * data.total_weight(),
                "{q:?}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn small_budget_is_much_worse_than_samples() {
        // Reproduces the paper's observation: at small sizes the 2-D sketch
        // error is enormous relative to other summaries.
        let data = random_data(2000, 8, 3);
        let sk = SketchSummary::build(&data, 8, 8, 500, 11);
        let exact = crate::exact::ExactEngine::new(&data);
        let q = BoxRange::xy(10, 100, 10, 100);
        let err = (sk.estimate_box(&q) - exact.box_sum(&q)).abs();
        // No correctness claim — just that the error is a macroscopic
        // fraction of the total, unlike samples at the same size.
        assert!(err > 1e-3 * data.total_weight(), "err {err}");
    }

    #[test]
    fn size_accounting() {
        let data = random_data(50, 4, 4);
        let sk = SketchSummary::build(&data, 4, 4, 3000, 5);
        // 25 level pairs × ROWS rows × width.
        assert!(sk.size_elements() <= 3000 + 25 * ROWS);
        assert!(sk.size_elements() > 0);
    }

    #[test]
    fn full_domain_estimate_reasonable() {
        let data = random_data(300, 6, 6);
        let sk = SketchSummary::build(&data, 6, 6, 50_000, 8);
        let full = BoxRange::xy(0, 63, 0, 63);
        let est = sk.estimate_box(&full);
        let truth = data.total_weight();
        // Full domain is a single dyadic rectangle at the top level pair.
        assert!((est - truth).abs() < 0.05 * truth, "{est} vs {truth}");
    }

    #[test]
    fn merged_sketch_identical_to_sketch_of_union() {
        // Linearity: build(A) ⊕ build(B) == build(A ∪ B), counter for
        // counter, when the geometry and seed agree.
        let all = random_data(400, 6, 9);
        let rows: Vec<(u64, u64, f64)> = all
            .keys
            .iter()
            .zip(&all.points)
            .map(|(wk, p)| (p.coord(0), p.coord(1), wk.weight))
            .collect();
        let (first, second) = rows.split_at(250);
        let mut a = SketchSummary::build(&SpatialData::from_xyw(first), 6, 6, 4000, 21);
        let b = SketchSummary::build(&SpatialData::from_xyw(second), 6, 6, 4000, 21);
        let whole = SketchSummary::build(&all, 6, 6, 4000, 21);
        a.try_merge(b).unwrap();
        for (rows_m, rows_w) in a.sketches.iter().zip(&whole.sketches) {
            for (m, w) in rows_m.iter().zip(rows_w) {
                for (cm, cw) in m.counters.iter().zip(&w.counters) {
                    assert!((cm - cw).abs() < 1e-9, "counter {cm} vs {cw}");
                }
            }
        }
    }

    #[test]
    fn mismatched_geometry_merge_errs_and_leaves_every_counter_unchanged() {
        let data = random_data(20, 4, 10);
        let a = SketchSummary::build(&data, 4, 4, 500, 1);
        let bits = |s: &SketchSummary| -> Vec<u64> {
            s.sketches
                .iter()
                .flatten()
                .flat_map(|sk| &sk.counters)
                .map(|c| c.to_bits())
                .collect()
        };
        let before = bits(&a);
        for (other, want) in [
            (SketchSummary::build(&data, 4, 4, 500, 2), "seed mismatch"),
            (SketchSummary::build(&data, 4, 4, 1000, 1), "width mismatch"),
            (SketchSummary::build(&data, 4, 5, 500, 1), "domain mismatch"),
        ] {
            let mut merged = a.clone();
            let err = merged.try_merge(other).unwrap_err();
            assert!(err.contains(want), "{err}");
            assert_eq!(bits(&merged), before, "{want}: counters moved");
        }
    }

    #[test]
    fn row_stats_agree_with_the_median_estimate() {
        let data = random_data(300, 5, 21);
        let sk = SketchSummary::build(&data, 5, 5, 1500, 4);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..50 {
            let x0 = rng.gen_range(0..32);
            let x1 = rng.gen_range(x0..32);
            let y0 = rng.gen_range(0..32);
            let y1 = rng.gen_range(y0..32);
            let q = BoxRange::xy(x0, x1, y0, y1);
            let (value, variance) = sk.estimate_box_stats(&q);
            // The stats value IS the estimate (same accumulation).
            assert_eq!(value.to_bits(), sk.estimate_box(&q).to_bits());
            assert!(variance >= 0.0, "{q:?}: variance {variance}");
        }
        // Empty query: zero value, zero spread.
        assert_eq!(
            sk.estimate_box_stats(&BoxRange::xy(9, 3, 0, 31)),
            (0.0, 0.0)
        );
        // A colossal sketch (noise-free): rows agree, so the spread
        // collapses while the value tracks the truth.
        let huge = SketchSummary::build(&data, 5, 5, 200_000, 4);
        let full = BoxRange::xy(0, 31, 0, 31);
        let (value, variance) = huge.estimate_box_stats(&full);
        assert!((value - data.total_weight()).abs() < 1e-6);
        assert!(
            variance < 1e-9,
            "noise-free sketch still spread: {variance}"
        );
    }
}

//! Two-dimensional standard (tensor-product) Haar wavelet summary with
//! coefficient thresholding — the "Wavelet" baseline of Section 6.
//!
//! For a domain `2^bx × 2^by`, the orthonormal basis is the tensor product
//! of the 1-D Haar bases. Each input point contributes to
//! `(bx + 1)(by + 1)` coefficients (the scaling function plus one wavelet
//! per level on each axis) — exactly the `log X · log Y` per-point cost the
//! paper measures. After the transform, the `s` largest (normalized)
//! coefficients are retained.
//!
//! A box query is answered in `O(s)` time: for each retained coefficient
//! `c_{u,v}` the contribution is `c · U([a,b]) · V([c,d])`, where `U`/`V`
//! are the closed-form sums of the 1-D basis functions over the query's
//! side intervals.

use std::collections::HashMap;

use sas_sampling::product::SpatialData;
use sas_structures::product::BoxRange;

/// A 1-D Haar basis function over a `2^bits` domain: either the scaling
/// (constant) function or the wavelet at `level ∈ [1, bits]`, block `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Basis1D {
    Scaling,
    /// `level` ≥ 1: support is `[k·2^level, (k+1)·2^level)`, positive on the
    /// first half, negative on the second, magnitude `2^(−level/2)`.
    Wavelet {
        level: u32,
        k: u64,
    },
}

impl Basis1D {
    /// Value of the basis function at `x` (0 outside support).
    fn value(self, x: u64, bits: u32) -> f64 {
        match self {
            Basis1D::Scaling => 2.0_f64.powi(-(bits as i32) / 2) * scale_adjust(bits),
            Basis1D::Wavelet { level, k } => {
                if (x >> level) != k {
                    return 0.0;
                }
                let sign = if ((x >> (level - 1)) & 1) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * 2.0_f64.powf(-(level as f64) / 2.0)
            }
        }
    }

    /// Sum of the basis function over the interval `[a, b]` (closed form).
    fn range_sum(self, a: u64, b: u64, bits: u32) -> f64 {
        if a > b {
            return 0.0;
        }
        match self {
            Basis1D::Scaling => {
                (b - a + 1) as f64 * 2.0_f64.powi(-(bits as i32) / 2) * scale_adjust(bits)
            }
            Basis1D::Wavelet { level, k } => {
                let lo = k << level;
                let half = 1u64 << (level - 1);
                let mid = lo + half; // first negative position
                let hi = lo + (1u64 << level) - 1;
                let pos = overlap(a, b, lo, mid - 1);
                let neg = overlap(a, b, mid, hi);
                (pos as f64 - neg as f64) * 2.0_f64.powf(-(level as f64) / 2.0)
            }
        }
    }
}

/// `2^(−bits/2)` is computed with integer `powi` for even bits; this factor
/// corrects odd bit counts (√2 adjustment).
fn scale_adjust(bits: u32) -> f64 {
    if bits % 2 == 1 {
        std::f64::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Maximum range inner product of a 1-D basis function: `2^(level/2)` for a
/// wavelet at `level` (half its support, signed), `2^(bits/2)` for scaling.
fn level_scale(b: Basis1D, bits: u32) -> f64 {
    match b {
        Basis1D::Scaling => 2.0_f64.powf(bits as f64 / 2.0),
        Basis1D::Wavelet { level, .. } => 2.0_f64.powf(level as f64 / 2.0),
    }
}

/// Canonical tie-break key: coefficients of equal importance come out of a
/// hash map in arbitrary order, and summation order must be deterministic
/// for byte-stable encodings and bit-identical merged estimates.
fn basis_key(b: Basis1D) -> (u8, u32, u64) {
    match b {
        Basis1D::Scaling => (0, 0, 0),
        Basis1D::Wavelet { level, k } => (1, level, k),
    }
}

/// Range-sum importance of a coefficient: an upper bound on its
/// contribution to any box query (`|c| ×` the two axes' maximum range
/// inner products).
fn importance(c: &Coefficient, bits_x: u32, bits_y: u32) -> f64 {
    c.value.abs() * level_scale(c.bx, bits_x) * level_scale(c.by, bits_y)
}

/// Sorts coefficients by descending range-sum impact with a canonical
/// tie-break (see [`basis_key`]).
fn sort_by_importance(coeffs: &mut [Coefficient], bits_x: u32, bits_y: u32) {
    coeffs.sort_by(|a, b| {
        importance(b, bits_x, bits_y)
            .total_cmp(&importance(a, bits_x, bits_y))
            .then_with(|| {
                (basis_key(a.bx), basis_key(a.by)).cmp(&(basis_key(b.bx), basis_key(b.by)))
            })
    });
}

/// Size of `[a,b] ∩ [lo,hi]` over integers.
fn overlap(a: u64, b: u64, lo: u64, hi: u64) -> u64 {
    let l = a.max(lo);
    let h = b.min(hi);
    if l > h {
        0
    } else {
        h - l + 1
    }
}

/// A retained 2-D wavelet coefficient.
#[derive(Debug, Clone, Copy)]
struct Coefficient {
    bx: Basis1D,
    by: Basis1D,
    value: f64,
}

/// The thresholded 2-D Haar wavelet summary.
#[derive(Debug, Clone)]
pub struct WaveletSummary {
    coeffs: Vec<Coefficient>,
    bits_x: u32,
    bits_y: u32,
    /// Upper bound on the importance of any coefficient this summary ever
    /// dropped (0 when the budget kept everything). Tracked through
    /// truncation and merges so [`bound_box`](WaveletSummary::bound_box)
    /// stays sound. Persisted in the optional wire section 3 whenever
    /// decoding could not rebuild it from the smallest retained importance
    /// (see [`WaveletSummary::write_wire`]).
    dropped_ceiling: f64,
    /// Upper bound on the error of any *retained* coefficient: 0 for
    /// direct builds (retained coefficients are exact), positive after a
    /// merge (a coefficient retained by one input but dropped by the other
    /// is missing the dropped input's share).
    retained_slack: f64,
}

impl WaveletSummary {
    /// Builds the full transform of `data` over a `2^bits_x × 2^bits_y`
    /// domain and keeps the `s` largest coefficients by magnitude.
    ///
    /// # Panics
    /// Panics if any point lies outside the domain.
    pub fn build(data: &SpatialData, bits_x: u32, bits_y: u32, s: usize) -> Self {
        let mut acc: HashMap<(Basis1D, Basis1D), f64> = HashMap::new();
        for (wk, p) in data.keys.iter().zip(&data.points) {
            if wk.weight == 0.0 {
                continue;
            }
            let (x, y) = (p.coord(0), p.coord(1));
            if bits_x < 64 {
                assert!(x < (1u64 << bits_x), "x={x} outside 2^{bits_x} domain");
            }
            if bits_y < 64 {
                assert!(y < (1u64 << bits_y), "y={y} outside 2^{bits_y} domain");
            }
            let xs = basis_functions_at(x, bits_x);
            let ys = basis_functions_at(y, bits_y);
            for &(ub, uv) in &xs {
                if uv == 0.0 {
                    continue;
                }
                for &(vb, vv) in &ys {
                    if vv == 0.0 {
                        continue;
                    }
                    *acc.entry((ub, vb)).or_insert(0.0) += wk.weight * uv * vv;
                }
            }
        }
        let mut all: Vec<Coefficient> = acc
            .into_iter()
            .map(|((bx, by), value)| Coefficient { bx, by, value })
            .collect();
        // Threshold by *range-sum impact*, not raw L2 magnitude: a level-ℓ
        // coefficient contributes up to |c|·2^(ℓ/2)/2 to a range query (its
        // range inner product), so coarse coefficients matter far more for
        // range sums than pointwise L2 thresholding would suggest. This is
        // the standard normalization for selectivity-estimation wavelets
        // [Matias–Vitter–Wang].
        sort_by_importance(&mut all, bits_x, bits_y);
        // The largest coefficient the truncation is about to drop caps the
        // contribution of *every* dropped coefficient to any box query —
        // the truncation ceiling `bound_box` is built on. A budget that
        // keeps everything drops nothing: the summary is exact.
        let dropped_ceiling = all
            .get(s)
            .map(|c| importance(c, bits_x, bits_y))
            .unwrap_or(0.0);
        all.truncate(s);
        Self {
            coeffs: all,
            bits_x,
            bits_y,
            dropped_ceiling,
            retained_slack: 0.0,
        }
    }

    /// Total number of coefficients that would exist without thresholding
    /// (diagnostic; the paper notes this reaches tens of millions).
    pub fn dense_coefficient_bound(data: &SpatialData, bits_x: u32, bits_y: u32) -> usize {
        data.len() * ((bits_x + 1) as usize) * ((bits_y + 1) as usize)
    }

    /// A copy keeping only the `s` largest coefficients. Cheap (coefficients
    /// are stored sorted by magnitude), so a single full transform can serve
    /// a whole summary-size sweep.
    pub fn truncated(&self, s: usize) -> Self {
        let dropped_ceiling = self
            .coeffs
            .get(s)
            .map(|c| importance(c, self.bits_x, self.bits_y))
            .map_or(self.dropped_ceiling, |i| self.dropped_ceiling.max(i));
        Self {
            coeffs: self.coeffs.iter().take(s).copied().collect(),
            bits_x: self.bits_x,
            bits_y: self.bits_y,
            dropped_ceiling,
            retained_slack: self.retained_slack,
        }
    }

    /// Merges a summary of disjoint data by coefficient-wise addition — the
    /// Haar transform is linear, so the merged coefficients equal those of a
    /// transform over the union (restricted to the retained basis
    /// functions). The union of the two coefficient sets is kept, re-sorted
    /// by range-sum impact; truncate with [`WaveletSummary::truncated`] to
    /// restore a size budget.
    ///
    /// Fails (no mutation) if the domain geometries differ.
    pub fn try_merge(&mut self, other: Self) -> Result<(), String> {
        if (self.bits_x, self.bits_y) != (other.bits_x, other.bits_y) {
            return Err(format!(
                "wavelet domain mismatch: 2^{}×2^{} vs 2^{}×2^{}",
                self.bits_x, self.bits_y, other.bits_x, other.bits_y
            ));
        }
        let mut acc: HashMap<(Basis1D, Basis1D), f64> = self
            .coeffs
            .drain(..)
            .map(|c| ((c.bx, c.by), c.value))
            .collect();
        for c in other.coeffs {
            *acc.entry((c.bx, c.by)).or_insert(0.0) += c.value;
        }
        let mut all: Vec<Coefficient> = acc
            .into_iter()
            .map(|((bx, by), value)| Coefficient { bx, by, value })
            .collect();
        sort_by_importance(&mut all, self.bits_x, self.bits_y);
        self.coeffs = all;
        // Error bookkeeping for `bound_box`: a coefficient missing from
        // the union was dropped by *both* inputs (errors add); one kept by
        // a single input is missing the other input's dropped share, so
        // every retained coefficient now carries up to one input-ceiling
        // of error each.
        let self_worst = self.retained_slack.max(self.dropped_ceiling);
        let other_worst = other.retained_slack.max(other.dropped_ceiling);
        self.retained_slack = self_worst + other_worst;
        self.dropped_ceiling += other.dropped_ceiling;
        Ok(())
    }

    /// The `dropped_ceiling` a decoder assumes when the frame carries no
    /// section 3: the smallest retained importance. Sound for direct builds
    /// and their truncations — the largest dropped coefficient cannot
    /// outrank the smallest kept one.
    fn fallback_ceiling(coeffs: &[Coefficient], bits_x: u32, bits_y: u32) -> f64 {
        coeffs.last().map_or(0.0, |c| importance(c, bits_x, bits_y))
    }

    /// Writes the wire representation (see `sas-codec` for the framing).
    ///
    /// Sections 1 (domain bits) and 2 (coefficients) are always present.
    /// Section 3 holds `[dropped_ceiling, retained_slack]` and is written
    /// only when the decode fallback would lose them — after a merge.
    /// Direct builds never write it, so their frames keep the original v1
    /// layout byte for byte.
    pub(crate) fn write_wire(&self, w: &mut sas_codec::Writer) {
        fn put_basis(w: &mut sas_codec::Writer, b: Basis1D) {
            match b {
                Basis1D::Scaling => {
                    w.put_u8(0);
                    w.put_u32(0);
                    w.put_u64(0);
                }
                Basis1D::Wavelet { level, k } => {
                    w.put_u8(1);
                    w.put_u32(level);
                    w.put_u64(k);
                }
            }
        }
        w.section(1, |w| {
            w.put_u32(self.bits_x);
            w.put_u32(self.bits_y);
        });
        w.section(2, |w| {
            w.put_u64(self.coeffs.len() as u64);
            for c in &self.coeffs {
                put_basis(w, c.bx);
                put_basis(w, c.by);
                w.put_f64(c.value);
            }
        });
        let fallback = Self::fallback_ceiling(&self.coeffs, self.bits_x, self.bits_y);
        if self.retained_slack > 0.0 || self.dropped_ceiling > fallback {
            w.section(3, |w| {
                w.put_f64(self.dropped_ceiling);
                w.put_f64(self.retained_slack);
            });
        }
    }

    /// Reads the wire representation, validating basis indices against the
    /// domain geometry (never panics).
    pub(crate) fn read_wire(r: &mut sas_codec::Reader<'_>) -> Result<Self, sas_codec::CodecError> {
        use sas_codec::CodecError;
        fn get_basis(r: &mut sas_codec::Reader<'_>, bits: u32) -> Result<Basis1D, CodecError> {
            let tag = r.get_u8()?;
            let level = r.get_u32()?;
            let k = r.get_u64()?;
            match tag {
                0 => Ok(Basis1D::Scaling),
                1 => {
                    if level == 0 || level > bits {
                        return Err(CodecError::Invalid(format!(
                            "wavelet level {level} outside [1, {bits}]"
                        )));
                    }
                    if bits < 64 && k >= 1u64 << (bits - level) {
                        return Err(CodecError::Invalid(format!(
                            "wavelet block {k} outside level-{level} domain"
                        )));
                    }
                    Ok(Basis1D::Wavelet { level, k })
                }
                t => Err(CodecError::Invalid(format!("unknown basis tag {t}"))),
            }
        }
        let mut meta = r.expect_section(1)?;
        let bits_x = meta.get_u32()?;
        let bits_y = meta.get_u32()?;
        meta.finish()?;
        if bits_x >= 64 || bits_y >= 64 {
            return Err(CodecError::Invalid(format!(
                "domain bits ({bits_x}, {bits_y}) too large"
            )));
        }
        let mut body = r.expect_section(2)?;
        let n = body.get_len(34)?; // 2 × (u8 + u32 + u64) + f64 per coefficient
        let mut coeffs = Vec::with_capacity(n);
        for _ in 0..n {
            let bx = get_basis(&mut body, bits_x)?;
            let by = get_basis(&mut body, bits_y)?;
            let value = body.get_finite_f64()?;
            coeffs.push(Coefficient { bx, by, value });
        }
        body.finish()?;
        // Without section 3 the summary is a direct build (or a truncation
        // of one): its ceiling is the smallest retained importance and it
        // carries no merge slack.
        let (dropped_ceiling, retained_slack) = if r.is_empty() {
            (Self::fallback_ceiling(&coeffs, bits_x, bits_y), 0.0)
        } else {
            let mut bounds = r.expect_section(3)?;
            let ceiling = bounds.get_finite_f64()?;
            let slack = bounds.get_finite_f64()?;
            bounds.finish()?;
            if ceiling < 0.0 || slack < 0.0 {
                return Err(CodecError::Invalid(format!(
                    "negative wavelet error bound (ceiling {ceiling}, slack {slack})"
                )));
            }
            (ceiling, slack)
        };
        Ok(Self {
            coeffs,
            bits_x,
            bits_y,
            dropped_ceiling,
            retained_slack,
        })
    }
}

impl WaveletSummary {
    /// Deterministic bound on the truncation error of
    /// [`estimate_box`](Self::estimate_box): the exact answer
    /// lies within `estimate ± bound_box(query)`.
    ///
    /// Derivation: the exact answer is the inner product over *all*
    /// coefficients, and a coefficient's contribution to any box query is
    /// at most its range-sum importance `|c|·2^(ℓx/2)·2^(ℓy/2)`. Only
    /// O(log²) basis pairs have a nonzero inner product with a given box
    /// (a wavelet fully inside or outside the query sums to zero; only the
    /// ≤ 2 blocks per level straddling a query edge survive), so the error
    /// is at most the dropped-coefficient ceiling times the number of
    /// those *relevant* pairs not retained (plus the per-retained-pair
    /// merge slack, below).
    ///
    /// The ceiling on dropped coefficients is tracked explicitly
    /// (`dropped_ceiling`): the importance of the largest coefficient the
    /// build's truncation discarded — 0 when the budget kept everything,
    /// so an untruncated summary answers with a zero-width bound. Merges
    /// keep the bound sound by adding the inputs' ceilings and charging
    /// every *retained* coefficient the possible missing share of the
    /// input that dropped it (`retained_slack`). Both survive persistence:
    /// a merged summary writes them to the optional wire section 3, and a
    /// decoded direct build rebuilds its ceiling from its smallest retained
    /// importance, which is sound for it.
    pub fn bound_box(&self, query: &BoxRange) -> f64 {
        if query.is_empty() || self.coeffs.is_empty() {
            return 0.0;
        }
        if self.dropped_ceiling == 0.0 && self.retained_slack == 0.0 {
            return 0.0; // nothing was ever dropped: the transform is exact
        }
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
        let (ax, bx) = (query.sides[0].lo.min(max_x), query.sides[0].hi.min(max_x));
        let (ay, by) = (query.sides[1].lo.min(max_y), query.sides[1].hi.min(max_y));
        let rel_x = relevant_bases(ax, bx, self.bits_x);
        let rel_y = relevant_bases(ay, by, self.bits_y);
        let retained_relevant = self
            .coeffs
            .iter()
            .filter(|c| rel_x.contains(&c.bx) && rel_y.contains(&c.by))
            .count();
        let missing = (rel_x.len() * rel_y.len()).saturating_sub(retained_relevant);
        self.dropped_ceiling * missing as f64 + self.retained_slack * retained_relevant as f64
    }
}

/// The basis functions with a nonzero range inner product over `[a, b]`:
/// the scaling function plus, per level, the at-most-two wavelets whose
/// support straddles `a` or `b` (fully covered or disjoint supports sum to
/// zero).
fn relevant_bases(a: u64, b: u64, bits: u32) -> Vec<Basis1D> {
    let mut out = vec![Basis1D::Scaling];
    for level in 1..=bits {
        for k in [a >> level, b >> level] {
            let basis = Basis1D::Wavelet { level, k };
            if basis.range_sum(a, b, bits) != 0.0 && !out.contains(&basis) {
                out.push(basis);
            }
        }
    }
    out
}

/// The `(bits+1)` basis functions with `x` in their support, with values.
fn basis_functions_at(x: u64, bits: u32) -> Vec<(Basis1D, f64)> {
    let mut out = Vec::with_capacity(bits as usize + 1);
    let scaling = Basis1D::Scaling;
    out.push((scaling, scaling.value(x, bits)));
    for level in 1..=bits {
        let b = Basis1D::Wavelet {
            level,
            k: x >> level,
        };
        out.push((b, b.value(x, bits)));
    }
    out
}

impl WaveletSummary {
    /// Estimated weight inside the box: the inner product of the retained
    /// coefficients with the box's indicator.
    pub fn estimate_box(&self, query: &BoxRange) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        // Clamp to the domain: queries may legitimately extend past it
        // (e.g. kd-tree cells tile the whole u64 space).
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
        let (ax, bx) = (query.sides[0].lo.min(max_x), query.sides[0].hi.min(max_x));
        let (ay, by) = (query.sides[1].lo.min(max_y), query.sides[1].hi.min(max_y));
        self.coeffs
            .iter()
            .map(|c| {
                c.value * c.bx.range_sum(ax, bx, self.bits_x) * c.by.range_sum(ay, by, self.bits_y)
            })
            .sum()
    }

    /// Number of retained coefficients — the size measure of the paper's
    /// plots.
    pub fn size_elements(&self) -> usize {
        self.coeffs.len()
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
    fn basis_orthonormal_1d() {
        let bits = 3;
        let n = 1u64 << bits;
        let mut fns = vec![Basis1D::Scaling];
        for level in 1..=bits {
            for k in 0..(n >> level) {
                fns.push(Basis1D::Wavelet { level, k });
            }
        }
        assert_eq!(fns.len() as u64, n);
        for (i, &u) in fns.iter().enumerate() {
            for (j, &v) in fns.iter().enumerate() {
                let dot: f64 = (0..n).map(|x| u.value(x, bits) * v.value(x, bits)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < 1e-9,
                    "<{u:?},{v:?}> = {dot}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn basis_range_sum_matches_pointwise() {
        let bits = 4;
        let n = 1u64 << bits;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let level = rng.gen_range(1..=bits);
            let k = rng.gen_range(0..(n >> level));
            let b = Basis1D::Wavelet { level, k };
            let a = rng.gen_range(0..n);
            let z = rng.gen_range(a..n);
            let direct: f64 = (a..=z).map(|x| b.value(x, bits)).sum();
            let closed = b.range_sum(a, z, bits);
            assert!((direct - closed).abs() < 1e-9, "{b:?} on [{a},{z}]");
        }
        // Scaling too.
        let s = Basis1D::Scaling;
        let direct: f64 = (2..=13).map(|x| s.value(x, bits)).sum();
        assert!((direct - s.range_sum(2, 13, bits)).abs() < 1e-9);
    }

    #[test]
    fn full_transform_is_exact() {
        // Keeping all coefficients reconstructs every range sum exactly.
        let data = random_data(40, 4, 2);
        let all = 40 * 5 * 5; // generous upper bound on distinct coeffs
        let w = WaveletSummary::build(&data, 4, 4, all);
        let exact = crate::exact::ExactEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let x0 = rng.gen_range(0..16);
            let x1 = rng.gen_range(x0..16);
            let y0 = rng.gen_range(0..16);
            let y1 = rng.gen_range(y0..16);
            let q = BoxRange::xy(x0, x1, y0, y1);
            let est = w.estimate_box(&q);
            let truth = exact.box_sum(&q);
            assert!(
                (est - truth).abs() < 1e-6 * (1.0 + truth),
                "{q:?}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn odd_bit_domain_is_exact_too() {
        let data = random_data(30, 3, 7);
        let w = WaveletSummary::build(&data, 3, 3, 10_000);
        let exact = crate::exact::ExactEngine::new(&data);
        let q = BoxRange::xy(1, 6, 2, 7);
        assert!((w.estimate_box(&q) - exact.box_sum(&q)).abs() < 1e-6);
    }

    #[test]
    fn thresholding_keeps_s_and_degrades_gracefully() {
        let data = random_data(200, 5, 4);
        let w_full = WaveletSummary::build(&data, 5, 5, usize::MAX);
        let w_half = WaveletSummary::build(&data, 5, 5, w_full.size_elements() / 2);
        assert!(w_half.size_elements() <= w_full.size_elements() / 2 + 1);
        let exact = crate::exact::ExactEngine::new(&data);
        let q = BoxRange::xy(0, 31, 0, 15);
        let e_full = (w_full.estimate_box(&q) - exact.box_sum(&q)).abs();
        let e_half = (w_half.estimate_box(&q) - exact.box_sum(&q)).abs();
        assert!(e_full < 1e-6);
        // Half-size estimate is approximate but bounded.
        assert!(e_half < exact.total());
    }

    #[test]
    fn empty_query_is_zero() {
        let data = random_data(10, 3, 5);
        let w = WaveletSummary::build(&data, 3, 3, 100);
        assert_eq!(w.estimate_box(&BoxRange::xy(5, 2, 0, 7)), 0.0);
    }

    #[test]
    fn dense_bound_matches_paper_formula() {
        let data = random_data(100, 8, 6);
        assert_eq!(
            WaveletSummary::dense_coefficient_bound(&data, 8, 8),
            100 * 81
        );
    }

    #[test]
    fn relevant_bases_are_the_only_nonzero_ones() {
        // The O(log) set `relevant_bases` returns must contain every basis
        // function with a nonzero inner product over the interval.
        let bits = 5;
        let n = 1u64 << bits;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a..n);
            let rel = relevant_bases(a, b, bits);
            assert!(rel.len() <= 2 * bits as usize + 1);
            for level in 1..=bits {
                for k in 0..(n >> level) {
                    let basis = Basis1D::Wavelet { level, k };
                    if basis.range_sum(a, b, bits) != 0.0 {
                        assert!(rel.contains(&basis), "[{a},{b}]: missing {basis:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_bound_contains_exact_answer() {
        let data = random_data(250, 5, 12);
        let exact = crate::exact::ExactEngine::new(&data);
        for budget in [15, 60, 200] {
            let w = WaveletSummary::build(&data, 5, 5, budget);
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..50 {
                let x0 = rng.gen_range(0..32);
                let x1 = rng.gen_range(x0..32);
                let y0 = rng.gen_range(0..32);
                let y1 = rng.gen_range(y0..32);
                let q = BoxRange::xy(x0, x1, y0, y1);
                let est = w.estimate_box(&q);
                let err = w.bound_box(&q);
                let truth = exact.box_sum(&q);
                assert!(err >= 0.0);
                assert!(
                    (est - truth).abs() <= err + 1e-6,
                    "budget {budget} {q:?}: |{est} - {truth}| > {err}"
                );
            }
        }
        // Empty query: zero bound.
        let w = WaveletSummary::build(&data, 5, 5, 30);
        assert_eq!(w.bound_box(&BoxRange::xy(9, 3, 0, 31)), 0.0);
        // A budget that kept every coefficient dropped nothing: the bound
        // collapses to zero everywhere.
        let exact_build = WaveletSummary::build(&data, 5, 5, 250 * 36);
        assert_eq!(exact_build.bound_box(&BoxRange::xy(3, 17, 5, 29)), 0.0);
    }

    #[test]
    fn truncation_bound_survives_merges() {
        // The store's compaction path: two independently truncated halves
        // merged via try_merge. The merged bound must still contain the
        // exact answer over the union — the merge bookkeeping (ceiling
        // addition + retained slack) is what makes this sound.
        let all = random_data(400, 5, 41);
        let rows: Vec<(u64, u64, f64)> = all
            .keys
            .iter()
            .zip(&all.points)
            .map(|(wk, p)| (p.coord(0), p.coord(1), wk.weight))
            .collect();
        let (first, second) = rows.split_at(200);
        let exact = crate::exact::ExactEngine::new(&all);
        for budget in [20, 80] {
            let mut merged = WaveletSummary::build(&SpatialData::from_xyw(first), 5, 5, budget);
            merged
                .try_merge(WaveletSummary::build(
                    &SpatialData::from_xyw(second),
                    5,
                    5,
                    budget,
                ))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            for _ in 0..50 {
                let x0 = rng.gen_range(0..32);
                let x1 = rng.gen_range(x0..32);
                let y0 = rng.gen_range(0..32);
                let y1 = rng.gen_range(y0..32);
                let q = BoxRange::xy(x0, x1, y0, y1);
                let est = merged.estimate_box(&q);
                let err = merged.bound_box(&q);
                let truth = exact.box_sum(&q);
                assert!(
                    (est - truth).abs() <= err + 1e-6,
                    "budget {budget} {q:?}: |{est} - {truth}| > {err}"
                );
            }
        }
    }

    /// Two independently built halves of `all` (`s` coefficients each),
    /// merged.
    fn merged_halves(all: &SpatialData, bits: u32, s: usize) -> WaveletSummary {
        let rows: Vec<(u64, u64, f64)> = all
            .keys
            .iter()
            .zip(&all.points)
            .map(|(wk, p)| (p.coord(0), p.coord(1), wk.weight))
            .collect();
        let (first, second) = rows.split_at(rows.len() / 2);
        let mut merged = WaveletSummary::build(&SpatialData::from_xyw(first), bits, bits, s);
        merged
            .try_merge(WaveletSummary::build(
                &SpatialData::from_xyw(second),
                bits,
                bits,
                s,
            ))
            .unwrap();
        merged
    }

    #[test]
    fn truncation_bound_survives_merge_and_persistence() {
        // The store persists every window it compacts, so a merged wavelet
        // must keep its confidence-1 interval through encode/decode, not
        // only in memory.
        use crate::erased::{decode_summary, encode_summary};
        use crate::query::Query;
        let mut misses = 0;
        for seed in 0..40u64 {
            let all = random_data(300, 6, 1000 + seed);
            let frame = encode_summary(&merged_halves(&all, 6, 40));
            let decoded = decode_summary(&frame).unwrap();
            assert_eq!(encode_summary(decoded.as_ref()), frame, "seed {seed}");
            let exact = crate::exact::ExactEngine::new(&all);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let x0 = rng.gen_range(0..64);
                let x1 = rng.gen_range(x0..64);
                let y0 = rng.gen_range(0..64);
                let y1 = rng.gen_range(y0..64);
                let est = decoded
                    .answer(&Query::BoxRange(vec![(x0, x1), (y0, y1)]), 1.0)
                    .unwrap();
                let truth = exact.box_sum(&BoxRange::xy(x0, x1, y0, y1));
                if truth < est.lower - 1e-6 || truth > est.upper + 1e-6 {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 0, "decoded merged wavelets missed their bound");
    }

    #[test]
    fn corrupt_error_bounds_are_rejected_on_decode() {
        use crate::erased::{decode_summary, encode_summary};
        let frame = encode_summary(&merged_halves(&random_data(120, 4, 7), 4, 10));
        // Section 3 is the last section: `[dropped_ceiling, retained_slack]`
        // right before the CRC trailer.
        let at = frame.len() - sas_codec::TRAILER_LEN;
        for (offset, bad) in [(16, f64::NAN), (16, -1.0), (8, f64::INFINITY), (8, -0.5)] {
            let mut bytes = frame.clone();
            bytes[at - offset..at - offset + 8].copy_from_slice(&bad.to_le_bytes());
            let crc = sas_codec::crc32(&bytes[..at]);
            bytes[at..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                decode_summary(&bytes).is_err(),
                "bound {bad} at -{offset} decoded"
            );
        }
    }
}

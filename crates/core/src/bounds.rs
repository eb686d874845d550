//! Chernoff tail bounds for Poisson and VarOpt samples (the paper's
//! Eqns. 2–4) and the Vapnik–Chervonenkis ε-approximation size bound
//! (Theorem 2).
//!
//! Because VarOpt samples satisfy the inclusion/exclusion product conditions,
//! the classic Chernoff bounds on `X_J = |S ∩ J|` apply verbatim, which is
//! what gives sample-based summaries their `O(√p(R))` expected discrepancy on
//! any single range — and, unlike deterministic summaries, an error on
//! multi-range queries that grows with the *square root* of the number of
//! ranges rather than linearly.

/// Upper tail: probability of at least `a` samples in a subset with mean
/// `mu`, for a sample of (fixed) size `s` — the paper's Eqn. (2),
/// simplified exponential form `exp(a − μ) · (μ/a)^a`.
///
/// Requires `mu <= a`. Returns 1.0 when the bound is vacuous.
pub fn chernoff_upper(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    if a <= mu {
        return 1.0;
    }
    if mu == 0.0 {
        return 0.0;
    }
    ((a - mu) + a * (mu / a).ln()).exp().min(1.0)
}

/// Lower tail: probability of at most `a` samples in a subset with mean `mu`
/// — the paper's Eqn. (3), exponential form.
///
/// Requires `a <= mu`. Returns 1.0 when the bound is vacuous.
pub fn chernoff_lower(mu: f64, a: f64) -> f64 {
    assert!(mu >= 0.0 && a >= 0.0);
    if a >= mu {
        return 1.0;
    }
    if a == 0.0 {
        return (-mu).exp().min(1.0);
    }
    ((a - mu) + a * (mu / a).ln()).exp().min(1.0)
}

/// The exponent [`weight_tail`] exponentiates: `(h − w)/τ + (h/τ)·ln(w/h)`,
/// which is `m·(1 − x + ln x)` with `x = w/h` and `m = h/τ`.
#[inline]
fn tail_exponent(w: f64, h: f64, tau: f64) -> f64 {
    ((h - w) / tau) + (h / tau) * (w / h).ln()
}

/// Weight-estimate tail (the paper's Eqn. (4)): bound on
/// `Pr[a(J) ≥ h]` (or `≤ h` on the other side) for a subset of true weight
/// `w`, threshold `tau`.
pub fn weight_tail(w: f64, h: f64, tau: f64) -> f64 {
    assert!(w >= 0.0 && h >= 0.0 && tau > 0.0);
    if h == 0.0 || w == 0.0 {
        return 1.0;
    }
    tail_exponent(w, h, tau).exp().min(1.0)
}

/// A two-sided deviation bound: probability that `|X_J − μ| ≥ d`.
pub fn chernoff_two_sided(mu: f64, d: f64) -> f64 {
    assert!(d >= 0.0);
    let up = chernoff_upper(mu, mu + d);
    let down = if mu >= d {
        chernoff_lower(mu, mu - d)
    } else {
        0.0
    };
    (up + down).min(1.0)
}

/// The ε-approximation sample-size bound of Theorem 2 (Vapnik–Chervonenkis):
/// a random sample of size `c·ε⁻²(d·log(d/ε) + log(1/δ))` is an
/// ε-approximation with probability `1 − δ`. We use `c = 1` — constants in
/// the theorem are not tight and this is only used for sizing heuristics.
pub fn epsilon_approximation_size(vc_dim: f64, eps: f64, delta: f64) -> f64 {
    assert!(vc_dim > 0.0 && eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
    (vc_dim * (vc_dim / eps).ln() + (1.0 / delta).ln()) / (eps * eps)
}

/// A two-sided confidence interval for a subset's true weight, derived by
/// inverting the weight tail bound (Eqn. 4) at confidence `1 − delta`.
///
/// Given an HT estimate `a_j` of a light-key subset (all member weights
/// below `tau`), returns `(lo, hi)` such that the true weight lies inside
/// with probability at least `1 − delta`.
///
/// Each end solves `m·(1 − x + ln x) = ln(δ/2)` (the log of
/// [`weight_tail`] with `x = w/h`, `m = h/τ`) by a safeguarded Newton
/// iteration, the upper end in `w` and the lower end in `y = ln x`. Each
/// keeps a bracket whose outer end always satisfies
/// `weight_tail(·, ·, τ) ≤ δ/2`, takes a bisection step whenever Newton
/// would leave that bracket, and returns the outer end, so every returned
/// end is certified by that predicate, evaluated with `weight_tail`'s own
/// arithmetic. A lower end of 0 needs no certificate (weights are
/// non-negative), nor does an upper end of +∞ (returned only when no weight
/// up to 1e300 certifies, e.g. for a subnormal `tau`).
///
/// The ends agree with the 100-step bisection this replaced to within
/// about 10 ulps for light-key counts `a_j/τ` in the thousands. The gap
/// grows like `ε·√(a_j/τ)`, because rounding `w/h` inside `weight_tail`
/// makes the predicate flicker over that span: up to about 2e-13 relative
/// at `a_j = 10⁷τ` and 1e-10 at `10¹²τ`, where any certified point of the
/// span is as tight as another.
pub fn weight_confidence_interval(a_j: f64, tau: f64, delta: f64) -> (f64, f64) {
    assert!(a_j >= 0.0 && tau > 0.0 && delta > 0.0 && delta < 1.0);
    let target = delta / 2.0;
    let ln_target = target.ln();
    // Upper end: the smallest w with Pr[a(J) <= a_j | w] <= δ/2.
    let upper = upper_end(a_j.max(tau * 1e-9), tau, target, ln_target);
    // Lower end: the largest w with Pr[a(J) >= a_j | w] <= δ/2.
    let lower = if a_j == 0.0 {
        0.0
    } else {
        lower_end(a_j, tau, target, ln_target)
    };
    (lower, upper)
}

/// Iteration cap for either end: enough for a pure bisection of any
/// bracket down to one ulp, which a Newton step that keeps leaving its
/// bracket degrades to.
const MAX_STEPS: usize = 80;

/// A Newton step this small relative to its iterate has reached rounding.
const CONVERGED: f64 = 4.0 * f64::EPSILON;

/// Whether the tail exponent `e` certifies the bound, exactly as
/// `weight_tail(w, h, τ) <= target` decides it for `w, h > 0`.
#[inline]
fn certifies(e: f64, target: f64) -> bool {
    e.exp().min(1.0) <= target
}

/// The upper end: the root `w > h` of `E(w) = ln target`, where
/// `E = tail_exponent(·, h, τ)` is concave and falls for `w > h`. Newton
/// from the certified side stays there, so the start is chosen certified.
fn upper_end(h: f64, tau: f64, target: f64, ln_target: f64) -> f64 {
    // With c = −ln(target)/m the root solves u − ln(1 + u) = c for
    // u = x − 1, and u = c + √(2c) overshoots it for every c > 0.
    let c = -ln_target / (h / tau);
    let mut lo = h; // weight_tail(h, h, τ) = 1: fails.
    let mut hi = h * (1.0 + c + (2.0 * c).sqrt());
    let mut e = tail_exponent(hi, h, tau);
    while !certifies(e, target) {
        // Rounding, or a degenerate scale (`h/τ` overflowing or `h`
        // underflowing to 0): the start overshoots the root analytically.
        lo = hi;
        hi *= 2.0;
        if hi.is_nan() || hi > 1e300 {
            return f64::INFINITY;
        }
        e = tail_exponent(hi, h, tau);
    }
    let mut w = hi;
    let mut last_step = f64::INFINITY;
    for _ in 0..MAX_STEPS {
        // E'(w) = (h/w − 1)/τ.
        let step = (e - ln_target) * tau / (h / w - 1.0);
        if step.is_nan() || step.abs() <= CONVERGED * w {
            break;
        }
        let mut next = w - step;
        if !(next > lo && next < hi) {
            next = lo + 0.5 * (hi - lo);
        }
        let moved = (next - w).abs();
        // An exhausted bracket, or Newton no longer gaining on rounding
        // noise: the predicate cannot resolve the root any further.
        if next == lo || next == hi || moved >= last_step {
            break;
        }
        last_step = moved;
        w = next;
        e = tail_exponent(w, h, tau);
        if certifies(e, target) {
            hi = w;
        } else {
            lo = w;
        }
    }
    if w == lo {
        // The last iterate fell just inside the root: walk outward from it,
        // doubling the stride, to the first weight the predicate certifies.
        let mut stride = w * f64::EPSILON;
        while w + stride < hi {
            if certifies(tail_exponent(w + stride, h, tau), target) {
                return w + stride;
            }
            stride *= 2.0;
        }
    }
    hi
}

/// The lower end: the root `w < h` of `E(w) = ln target`, solved in
/// `y = ln(w/h)`, where `E(h·e^y)` is concave and rises to 0 at `y = 0`
/// (in `w` the far-left root sits on a logarithm, where Newton crawls).
/// Returns 0 when the root lies below the smallest positive weight.
fn lower_end(h: f64, tau: f64, target: f64, ln_target: f64) -> f64 {
    // The root solves e^y − 1 − y = c, and y = −(c + √(2c)) lies beyond
    // it for every c > 0.
    let c = -ln_target / (h / tau);
    let mut hi = 0.0; // y = 0 is w = h, which fails.
    let mut lo = -(c + (2.0 * c).sqrt());
    let mut w = h * lo.exp();
    let mut e = tail_exponent(w, h, tau);
    while !(w > 0.0 && certifies(e, target)) {
        if w == 0.0 {
            return 0.0;
        }
        hi = lo;
        lo = 2.0 * lo - 1.0;
        w = h * lo.exp();
        e = tail_exponent(w, h, tau);
    }
    let mut best = w; // The certified weight at `lo`.
    let mut y = lo;
    let mut last_step = f64::INFINITY;
    for _ in 0..MAX_STEPS {
        // dE/dy = w·E'(w) = (h − w)/τ.
        let step = (e - ln_target) * tau / (h - w);
        // A step in y is a relative step in w, down to y's own rounding.
        if step.is_nan() || step.abs() <= CONVERGED * y.abs().max(1.0) {
            break;
        }
        let mut next = y - step;
        if !(next > lo && next < hi) {
            next = lo + 0.5 * (hi - lo);
        }
        let moved = (next - y).abs();
        if next == lo || next == hi || moved >= last_step {
            break;
        }
        last_step = moved;
        y = next;
        w = h * y.exp();
        e = tail_exponent(w, h, tau);
        if w > 0.0 && certifies(e, target) {
            lo = y;
            best = w;
        } else {
            hi = y;
        }
    }
    if y == hi {
        let mut stride = w * f64::EPSILON;
        while w - stride > best {
            if certifies(tail_exponent(w - stride, h, tau), target) {
                return w - stride;
            }
            stride *= 2.0;
        }
    }
    best
}

/// Expected discrepancy scale `O(√p(R))` for a structure-oblivious sample on
/// a range of expected sample mass `p_r` — the quantity structure-aware
/// sampling improves to `O(1)` in one dimension.
pub fn oblivious_discrepancy_scale(p_r: f64) -> f64 {
    p_r.max(0.0).sqrt()
}

/// Product-structure discrepancy bound of Section 4:
/// `min{ 2d·s^((d−1)/d), p(R) }` is the VarOpt subset mass μ the error
/// concentrates around the square root of.
pub fn product_mu_bound(d: u32, s: f64, p_r: f64) -> f64 {
    assert!(d >= 1);
    let d_f = d as f64;
    (2.0 * d_f * s.powf((d_f - 1.0) / d_f)).min(p_r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_tail_decreases_in_a() {
        let mu = 10.0;
        let mut last = 1.0;
        for a in 11..40 {
            let b = chernoff_upper(mu, a as f64);
            assert!(b <= last + 1e-15, "a={a}: {b} > {last}");
            last = b;
        }
    }

    #[test]
    fn lower_tail_decreases_as_a_drops() {
        let mu = 10.0;
        let mut last = 1.0;
        for a in (0..10).rev() {
            let b = chernoff_lower(mu, a as f64);
            assert!(b <= last + 1e-15, "a={a}: {b} > {last}");
            last = b;
        }
    }

    #[test]
    fn vacuous_bounds_are_one() {
        assert_eq!(chernoff_upper(5.0, 5.0), 1.0);
        assert_eq!(chernoff_upper(5.0, 3.0), 1.0);
        assert_eq!(chernoff_lower(5.0, 5.0), 1.0);
        assert_eq!(chernoff_lower(5.0, 7.0), 1.0);
    }

    #[test]
    fn zero_mean_upper_tail_zero() {
        assert_eq!(chernoff_upper(0.0, 1.0), 0.0);
    }

    #[test]
    fn empirical_tail_dominated_by_bound() {
        // Poisson-binomial with p=0.5, n=20: check P[X>=a] <= bound.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 20;
        let mu = 10.0;
        let runs = 100_000;
        let mut counts = vec![0usize; n + 1];
        for _ in 0..runs {
            let x = (0..n).filter(|_| rng.gen_bool(0.5)).count();
            counts[x] += 1;
        }
        for a in 11..=n {
            let emp: f64 = counts[a..].iter().sum::<usize>() as f64 / runs as f64;
            let bound = chernoff_upper(mu, a as f64);
            assert!(
                emp <= bound + 0.01,
                "a={a}: empirical {emp} > bound {bound}"
            );
        }
    }

    #[test]
    fn weight_tail_sane() {
        // Upper deviation of 2x weight is unlikely.
        let b = weight_tail(100.0, 200.0, 5.0);
        assert!(b < 1e-3, "bound {b}");
        assert_eq!(weight_tail(0.0, 10.0, 1.0), 1.0);
    }

    #[test]
    fn two_sided_bound() {
        let b = chernoff_two_sided(25.0, 15.0);
        assert!(b < 0.05, "bound {b}");
        assert_eq!(chernoff_two_sided(25.0, 0.0), 1.0);
    }

    #[test]
    fn confidence_interval_contains_truth() {
        // Empirical coverage: CI from repeated VarOpt-like estimates covers
        // the truth at least 1-delta of the time. Simulate estimates as
        // tau * Binomial(n, w/(n*tau)) for a light subset.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tau = 5.0;
        let w = 100.0; // true subset weight; mu = 20 samples expected
        let n = 200; // subset size, each key weight 0.5 => p = 0.1
        let p = (w / n as f64) / tau;
        let delta = 0.1;
        let trials = 2000;
        let mut covered = 0;
        for _ in 0..trials {
            let hits = (0..n).filter(|_| rng.gen_bool(p)).count();
            let est = tau * hits as f64;
            let (lo, hi) = weight_confidence_interval(est, tau, delta);
            if lo <= w && w <= hi {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage >= 1.0 - delta - 0.02,
            "coverage {coverage} below {}",
            1.0 - delta
        );
    }

    #[test]
    fn confidence_interval_monotone_in_delta() {
        let (lo1, hi1) = weight_confidence_interval(50.0, 5.0, 0.01);
        let (lo9, hi9) = weight_confidence_interval(50.0, 5.0, 0.2);
        assert!(
            lo1 <= lo9 + 1e-9 && hi9 <= hi1 + 1e-9,
            "stricter delta must widen"
        );
        assert!(lo1 < 50.0 && hi1 > 50.0);
    }

    #[test]
    fn confidence_interval_zero_estimate() {
        let (lo, hi) = weight_confidence_interval(0.0, 2.0, 0.05);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 100.0, "hi = {hi}");
    }

    /// The bisection the Newton solver replaced, kept as the oracle the
    /// solver is checked against: a doubling search for the upper bracket,
    /// then 100 halvings of each bracket on the same predicate.
    fn bisection_interval(a_j: f64, tau: f64, delta: f64) -> (f64, f64) {
        assert!(a_j >= 0.0 && tau > 0.0 && delta > 0.0 && delta < 1.0);
        // Find the smallest w_hi with Pr[a(J) <= a_j | w = w_hi] <= delta/2 and
        // the largest w_lo with Pr[a(J) >= a_j | w = w_lo] <= delta/2, by
        // bisection on the monotone tail bound.
        let target = delta / 2.0;
        // Upper endpoint: raising w makes observing a_j-or-less less likely.
        let mut lo = a_j;
        let mut hi = (a_j + tau).max(tau) * 4.0 + 10.0 * tau;
        while weight_tail(hi, a_j.max(tau * 1e-9), tau) > target {
            hi *= 2.0;
            if hi > 1e300 {
                break;
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if weight_tail(mid, a_j.max(tau * 1e-9), tau) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let upper = hi;
        // Lower endpoint: lowering w makes observing a_j-or-more less likely.
        let (mut lo2, mut hi2) = (0.0, a_j);
        for _ in 0..100 {
            let mid = 0.5 * (lo2 + hi2);
            if weight_tail(mid, a_j, tau) > target {
                hi2 = mid;
            } else {
                lo2 = mid;
            }
        }
        let lower = if a_j == 0.0 { 0.0 } else { lo2 };
        (lower, upper)
    }

    /// The property corpus: a fixed edge grid plus 10 000 random cases,
    /// `(a_j, τ, δ)` with τ ∈ [1e-6, 1e6] and δ ∈ [1e-12, 0.999].
    fn interval_corpus() -> Vec<(f64, f64, f64)> {
        use rand::{Rng, SeedableRng};
        let mut cases = Vec::new();
        for tau in [1e-6, 1e-3, 1.0, 7.5, 1e3, 1e6] {
            for ratio in [0.0, 1e-9, 1.0, 1e3, 1e12] {
                for delta in [1e-12, 1e-6, 0.01, 0.1, 0.5, 0.999] {
                    cases.push((ratio * tau, tau, delta));
                }
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed4);
        for _ in 0..10_000 {
            let tau = 10f64.powf(rng.gen_range(-6.0..6.0));
            let delta = 10f64.powf(rng.gen_range(-12.0..0.999f64.log10()));
            let a_j = if rng.gen_bool(0.05) {
                0.0
            } else {
                tau * 10f64.powf(rng.gen_range(-9.0..12.0))
            };
            cases.push((a_j, tau, delta));
        }
        cases
    }

    /// Checks one end against the oracle: within 1e-12 relative, widened
    /// only where `weight_tail` itself cannot resolve the root that finely,
    /// plus the oracle's own resolution. Rounding `w/h` moves the computed
    /// exponent by about `m·ε`, a band of `≈ ε·h/|h − w|` in relative weight:
    /// wider than 1e-12 only for `a_j/τ` beyond about 10⁷.
    fn assert_matches(new: f64, reference: f64, h: f64, resolution: f64, what: &str) {
        let scale = new.max(reference);
        let band = 4.0 * f64::EPSILON * h / (h - reference).abs();
        let tol = 1e-12f64.max(band) * scale + resolution;
        assert!(
            (new - reference).abs() <= tol,
            "{what}: {new:e} vs bisection {reference:e} (tolerance {tol:e})"
        );
    }

    #[test]
    fn interval_ends_are_certified_tight_and_match_bisection() {
        for (a_j, tau, delta) in interval_corpus() {
            let case = format!("a_j={a_j:e} tau={tau:e} delta={delta:e}");
            let target = delta / 2.0;
            let h_up = a_j.max(tau * 1e-9);
            let (lo, hi) = weight_confidence_interval(a_j, tau, delta);
            let (ref_lo, ref_hi) = bisection_interval(a_j, tau, delta);
            // Certified by the predicate the bisection used.
            assert!(weight_tail(hi, h_up, tau) <= target, "{case}: upper {hi:e}");
            assert!(
                lo == 0.0 || weight_tail(lo, a_j, tau) <= target,
                "{case}: lower {lo:e}"
            );
            // Tight: 1e-9 inward (at least one ulp) breaks the predicate.
            assert!(
                weight_tail(hi * (1.0 - 1e-9), h_up, tau) > target,
                "{case}: upper {hi:e} is loose"
            );
            if lo > 0.0 {
                let inward = (lo * (1.0 + 1e-9)).max(lo.next_up());
                assert!(
                    weight_tail(inward, a_j, tau) > target,
                    "{case}: lower {lo:e} is loose"
                );
            }
            // The oracle's brackets end 2^-100 of their start apart.
            let resolution = a_j * 2f64.powi(-100);
            assert_matches(hi, ref_hi, h_up, ref_hi * 2f64.powi(-100), &case);
            if lo == 0.0 {
                assert!(
                    ref_lo <= resolution,
                    "{case}: lower 0, bisection {ref_lo:e}"
                );
            } else {
                assert_matches(lo, ref_lo, a_j, resolution, &case);
            }
        }
    }

    #[test]
    fn interval_survives_degenerate_scales() {
        // τ·1e-9 underflows to 0: weight_tail is 1 at every weight.
        assert_eq!(
            weight_confidence_interval(0.0, 1e-320, 0.1),
            (0.0, f64::INFINITY)
        );
        // a_j/τ overflows: no weight up to 1e300 certifies either end.
        assert_eq!(
            weight_confidence_interval(1e300, 1e-300, 0.1),
            (0.0, f64::INFINITY)
        );
        // a_j/τ so small that the lower root is below every positive weight.
        let (lo, hi) = weight_confidence_interval(1e-310, 1e6, 0.1);
        assert_eq!(lo, 0.0);
        assert!(hi.is_finite() && weight_tail(hi, 1e-3, 1e6) <= 0.05);
    }

    #[test]
    fn interval_widens_as_delta_shrinks() {
        let deltas = [
            0.999, 0.6, 0.3, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12,
        ];
        for (a_j, tau, _) in interval_corpus().into_iter().step_by(5) {
            let mut last = weight_confidence_interval(a_j, tau, deltas[0]);
            for &delta in &deltas[1..] {
                let (lo, hi) = weight_confidence_interval(a_j, tau, delta);
                assert!(
                    lo <= last.0 && hi >= last.1,
                    "a_j={a_j:e} tau={tau:e} delta={delta:e}: [{lo:e}, {hi:e}] inside {last:?}"
                );
                last = (lo, hi);
            }
        }
    }

    #[test]
    fn upper_end_is_monotone_in_estimate() {
        for tau in [1e-6, 0.3, 7.5, 1e6] {
            for delta in [1e-12, 1e-4, 0.05, 0.5, 0.999] {
                let mut last = weight_confidence_interval(0.0, tau, delta).1;
                for k in -80..=96 {
                    let a_j = tau * 10f64.powf(k as f64 / 8.0);
                    let hi = weight_confidence_interval(a_j, tau, delta).1;
                    assert!(
                        hi >= last,
                        "tau={tau:e} delta={delta:e} a_j={a_j:e}: upper {hi:e} < {last:e}"
                    );
                    last = hi;
                }
            }
        }
    }

    #[test]
    fn eps_approx_size_grows_with_precision() {
        let a = epsilon_approximation_size(2.0, 0.1, 0.05);
        let b = epsilon_approximation_size(2.0, 0.01, 0.05);
        assert!(b > a * 50.0);
    }

    #[test]
    fn product_mu_bound_caps_at_mass() {
        // Small range: dominated by p(R).
        assert_eq!(product_mu_bound(2, 10_000.0, 3.0), 3.0);
        // Large range: dominated by the boundary term 2d·s^((d−1)/d).
        let big = product_mu_bound(2, 10_000.0, 1e9);
        assert!((big - 4.0 * 100.0).abs() < 1e-9);
    }
}

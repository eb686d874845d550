//! # sas-core — VarOpt sampling primitives
//!
//! This crate implements the sampling substrate of *Cohen, Cormode, Duffield,
//! "Structure-Aware Sampling: Flexible and Accurate Summarization"* (VLDB
//! 2011): everything the structure-aware schemes in `sas-sampling` are built
//! on, plus the structure-oblivious baselines the paper compares against.
//!
//! ## Contents
//!
//! * [`ipps`] — Inclusion Probability Proportional to Size: the threshold
//!   τ_s solving Σᵢ min(1, wᵢ/τ_s) = s, computed exactly (sort-based) or in
//!   one streaming pass with an s-sized heap (the paper's Algorithm 4).
//! * [`aggregate`] — `PAIR-AGGREGATE` (the paper's Algorithm 1) and the
//!   probabilistic-aggregation state machine. This is the freedom-exposing
//!   primitive: *any* sequence of pair aggregations yields a VarOpt sample,
//!   and choosing which pairs to aggregate is what makes a sample
//!   structure-aware.
//! * [`varopt`] — streaming VarOpt_s reservoir (Cohen et al., SODA 2009),
//!   the structure-oblivious baseline ("obliv" in the paper's plots) and the
//!   first-pass guide sample of the two-pass algorithms.
//! * [`poisson`] — Poisson IPPS sampling (independent inclusions).
//! * [`reservoir`] — classic uniform reservoir sampling, the special case of
//!   VarOpt on uniform weights.
//! * [`systematic`] — systematic sampling over an order (Appendix D): a
//!   deterministic-offset scheme with Δ < 1 that satisfies VarOpt conditions
//!   (i) and (ii) but not (iii).
//! * [`estimate`] — [`estimate::Sample`]: the summary object holding
//!   sampled keys with Horvitz–Thompson adjusted weights, subset-sum and
//!   range-sum estimation.
//! * Merging — summaries over disjoint data combine into a summary of the
//!   union, the substrate of sharded and distributed summarization:
//!   [`Sample::merge`] concatenates finished samples, and
//!   [`VarOptSampler::merge`] is the VarOpt threshold merge of reservoir
//!   states.
//! * [`bounds`] — Chernoff tail bounds for Poisson/VarOpt samples (the
//!   paper's Eqns. 2–4) and the ε-approximation size bound (Theorem 2).
//! * [`discrepancy`] — sample-vs-expectation discrepancy Δ(S, R), the
//!   central quality measure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use rand::SeedableRng;
//! use sas_core::varopt::VarOptSampler;
//!
//! let weights: Vec<f64> = (1..=100).map(|i| i as f64).collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut sampler = VarOptSampler::new(10);
//! for (i, &w) in weights.iter().enumerate() {
//!     sampler.push(i as u64, w, &mut rng);
//! }
//! let sample = sampler.finish();
//! assert_eq!(sample.len(), 10);
//! // The sample estimates the total weight without bias:
//! let est: f64 = sample.iter().map(|e| e.adjusted_weight).sum();
//! assert!((est - 5050.0).abs() / 5050.0 < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod bounds;
pub mod discrepancy;
pub mod estimate;
pub mod ipps;
pub mod poisson;
pub mod reservoir;
pub mod systematic;
pub mod varopt;

pub use aggregate::{pair_aggregate, AggregationState};
pub use estimate::{Sample, SampleEntry};
pub use ipps::{inclusion_probabilities, threshold_exact, StreamingThreshold};
pub use varopt::VarOptSampler;

/// Identifier of a key in a data set.
///
/// Keys are opaque 64-bit identifiers; structure (order, position in a
/// hierarchy, multi-dimensional coordinates) is attached by `sas-structures`
/// rather than being baked into the key type.
pub type KeyId = u64;

/// A `(key, weight)` pair, the unit of input data throughout the library.
///
/// Weights must be non-negative and finite; zero-weight keys are legal and
/// are never sampled (their IPPS probability is 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedKey {
    /// The key identifier.
    pub key: KeyId,
    /// The key's non-negative weight.
    pub weight: f64,
}

impl WeightedKey {
    /// Creates a new weighted key.
    ///
    /// # Panics
    /// Panics if `weight` is negative, NaN, or infinite.
    pub fn new(key: KeyId, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative, got {weight}"
        );
        Self { key, weight }
    }
}

/// Sums the weights of a slice of weighted keys.
pub fn total_weight(data: &[WeightedKey]) -> f64 {
    data.iter().map(|wk| wk.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_key_construction() {
        let wk = WeightedKey::new(42, 3.5);
        assert_eq!(wk.key, 42);
        assert_eq!(wk.weight, 3.5);
    }

    #[test]
    fn zero_weight_is_legal() {
        let wk = WeightedKey::new(0, 0.0);
        assert_eq!(wk.weight, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        WeightedKey::new(1, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_weight_panics() {
        WeightedKey::new(1, f64::NAN);
    }

    #[test]
    fn total_weight_sums() {
        let data = vec![
            WeightedKey::new(1, 1.0),
            WeightedKey::new(2, 2.0),
            WeightedKey::new(3, 3.0),
        ];
        assert_eq!(total_weight(&data), 6.0);
        assert_eq!(total_weight(&[]), 0.0);
    }
}

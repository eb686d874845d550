//! Samples and Horvitz–Thompson estimation (Appendix A of the paper).
//!
//! A [`Sample`] is the summary object produced by every sampler in this
//! library: the included keys together with their HT *adjusted weights*
//! `a(i) = wᵢ / pᵢ`. For IPPS probabilities, `a(i) = max(wᵢ, τ)`:
//! heavy keys (`wᵢ ≥ τ`) keep their exact weight; light keys are inflated
//! to τ.
//!
//! The adjusted weight of a subset `J` is `a(J) = Σ_{i ∈ S∩J} a(i)`, an
//! unbiased estimator of the true subset weight `w(J)` for *any* subset
//! chosen after the fact — this flexibility is the core advantage of
//! sample-based summaries over dedicated range-sum structures.

use std::collections::HashMap;

use crate::{KeyId, WeightedKey};

/// One sampled key with its original and HT-adjusted weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEntry {
    /// The sampled key.
    pub key: KeyId,
    /// The key's original weight (when known; streaming samplers that only
    /// retain adjusted weights store the adjusted weight here too).
    pub weight: f64,
    /// Horvitz–Thompson adjusted weight `wᵢ / pᵢ`.
    pub adjusted_weight: f64,
}

/// A sample-based summary: sampled keys with HT adjusted weights.
///
/// Supports unbiased subset-sum estimation over arbitrary predicates and
/// key sets, and exposes the IPPS threshold used to build it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    entries: Vec<SampleEntry>,
    tau: f64,
}

impl Sample {
    /// Builds a sample from entries and the IPPS threshold `τ`.
    pub fn from_entries(entries: Vec<SampleEntry>, tau: f64) -> Self {
        Self { entries, tau }
    }

    /// Builds a sample from `(key, probability)` aggregation output plus the
    /// original data weights. Keys with `pᵢ = 1` (within tolerance) are
    /// included; adjusted weight is `max(wᵢ, τ)`.
    pub fn from_inclusion(
        data: &[WeightedKey],
        probabilities: &[f64],
        included: impl IntoIterator<Item = KeyId>,
        tau: f64,
    ) -> Self {
        let _ = probabilities;
        let by_key: HashMap<KeyId, f64> = data.iter().map(|wk| (wk.key, wk.weight)).collect();
        let entries = included
            .into_iter()
            .map(|k| {
                let w = by_key.get(&k).copied().unwrap_or(0.0);
                SampleEntry {
                    key: k,
                    weight: w,
                    adjusted_weight: if tau > 0.0 { w.max(tau) } else { w },
                }
            })
            .collect();
        Self { entries, tau }
    }

    /// Number of sampled keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The IPPS threshold τ used to build this sample.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Iterates over the sampled entries.
    pub fn iter(&self) -> impl Iterator<Item = &SampleEntry> {
        self.entries.iter()
    }

    /// The sampled keys.
    pub fn keys(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.entries.iter().map(|e| e.key)
    }

    /// Whether `key` is present in the sample.
    pub fn contains(&self, key: KeyId) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// HT estimate of the total data weight.
    pub fn total_estimate(&self) -> f64 {
        self.entries.iter().map(|e| e.adjusted_weight).sum()
    }

    /// HT estimate of the weight of the subset of keys satisfying `pred`.
    ///
    /// Unbiased for any fixed predicate: `E[a(J)] = w(J)`.
    pub fn subset_estimate(&self, mut pred: impl FnMut(KeyId) -> bool) -> f64 {
        self.entries
            .iter()
            .filter(|e| pred(e.key))
            .map(|e| e.adjusted_weight)
            .sum()
    }

    /// Number of sampled keys satisfying `pred` (for discrepancy studies).
    pub fn subset_count(&self, mut pred: impl FnMut(KeyId) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e.key)).count()
    }

    /// Per-key variance of the HT estimator under IPPS:
    /// `Var[a(i)] = wᵢ(τ − wᵢ)` if `wᵢ ≤ τ`, else 0.
    ///
    /// Requires original weights for all data keys (not just sampled ones);
    /// returns the sum `ΣV = Σᵢ Var[a(i)]`, the quantity VarOpt minimizes.
    pub fn sum_per_key_variance(data: &[WeightedKey], tau: f64) -> f64 {
        data.iter()
            .map(|wk| {
                if wk.weight < tau {
                    wk.weight * (tau - wk.weight)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Merges another sample into this one (keys assumed disjoint), keeping
    /// the larger threshold for reporting purposes.
    pub fn merge(&mut self, other: Sample) {
        self.entries.extend(other.entries);
        self.tau = self.tau.max(other.tau);
    }

    /// Consumes the sample returning its entries.
    pub fn into_entries(self) -> Vec<SampleEntry> {
        self.entries
    }
}

impl FromIterator<SampleEntry> for Sample {
    fn from_iter<T: IntoIterator<Item = SampleEntry>>(iter: T) -> Self {
        Self {
            entries: iter.into_iter().collect(),
            tau: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fixture() -> Sample {
        Sample::from_entries(
            vec![
                SampleEntry {
                    key: 1,
                    weight: 20.0,
                    adjusted_weight: 20.0,
                },
                SampleEntry {
                    key: 5,
                    weight: 2.0,
                    adjusted_weight: 10.0,
                },
                SampleEntry {
                    key: 9,
                    weight: 3.0,
                    adjusted_weight: 10.0,
                },
            ],
            10.0,
        )
    }

    #[test]
    fn subset_estimate_filters() {
        let s = sample_fixture();
        assert_eq!(s.subset_estimate(|k| k > 4), 20.0);
        assert_eq!(s.subset_estimate(|_| true), 40.0);
        assert_eq!(s.subset_estimate(|_| false), 0.0);
        assert_eq!(s.total_estimate(), 40.0);
    }

    #[test]
    fn subset_count_counts() {
        let s = sample_fixture();
        assert_eq!(s.subset_count(|k| k >= 5), 2);
    }

    #[test]
    fn from_inclusion_adjusts_weights() {
        let data = vec![
            WeightedKey::new(1, 20.0),
            WeightedKey::new(2, 2.0),
            WeightedKey::new(3, 1.0),
        ];
        let s = Sample::from_inclusion(&data, &[1.0, 0.5, 0.25], [1, 2], 4.0);
        assert_eq!(s.len(), 2);
        let e1 = s.iter().find(|e| e.key == 1).unwrap();
        assert_eq!(e1.adjusted_weight, 20.0); // heavy: exact
        let e2 = s.iter().find(|e| e.key == 2).unwrap();
        assert_eq!(e2.adjusted_weight, 4.0); // light: τ
    }

    #[test]
    fn variance_formula() {
        let data = vec![WeightedKey::new(1, 2.0), WeightedKey::new(2, 8.0)];
        // τ = 4: key1 light → 2·(4−2)=4, key2 heavy → 0.
        assert_eq!(Sample::sum_per_key_variance(&data, 4.0), 4.0);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample_fixture();
        let b = Sample::from_entries(
            vec![SampleEntry {
                key: 42,
                weight: 1.0,
                adjusted_weight: 12.0,
            }],
            12.0,
        );
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.tau(), 12.0);
        assert!(a.contains(42));
    }

    #[test]
    fn merge_keeps_the_larger_threshold_and_the_total() {
        let mut a = Sample::from_entries(
            vec![SampleEntry {
                key: 1,
                weight: 2.0,
                adjusted_weight: 4.0,
            }],
            4.0,
        );
        let b = Sample::from_entries(
            vec![SampleEntry {
                key: 2,
                weight: 3.0,
                adjusted_weight: 3.0,
            }],
            1.0,
        );
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.tau(), 4.0);
        assert!((a.total_estimate() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample() {
        let s = Sample::default();
        assert!(s.is_empty());
        assert_eq!(s.total_estimate(), 0.0);
    }
}

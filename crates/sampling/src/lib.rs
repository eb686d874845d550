//! # sas-sampling — structure-aware VarOpt samplers
//!
//! The paper's contribution: VarOpt samples whose pair-aggregation order is
//! chosen to respect the structure of the key domain, driving per-range
//! discrepancy from the structure-oblivious `O(√p(R))` down to:
//!
//! | structure | ranges | max discrepancy | module |
//! |---|---|---|---|
//! | disjoint ranges | the partition classes | Δ < 1 | [`disjoint`] |
//! | hierarchy | leaf sets under nodes | Δ < 1 | [`hierarchy`] |
//! | order | all intervals | Δ < 2 (optimal) | [`order`] |
//! | d-dim product | axis-parallel boxes | O(d·s^((d−1)/(2d))) | [`product`] |
//!
//! The [`sharded`] module scales these samplers across threads: the input is
//! split by key range or round-robin, each shard is summarized
//! independently, and the per-shard samples are merged bottom-up with a
//! structure-aware threshold merge ([`sharded::merge_samples`]), in the one
//! bottom-up merge order of [`sharded::merge_pairwise`].
//!
//! Each main-memory sampler has a two-pass I/O-efficient counterpart in
//! [`two_pass`] (the paper's Section 5) that uses `O(s′)` memory independent
//! of the data size: pass 1 computes the IPPS threshold (Algorithm 4) and a
//! structure-oblivious guide sample `S′`; pass 2 aggregates keys within the
//! cells of a partition derived from `S′` (`IO-AGGREGATE`, Algorithm 3).
//!
//! All samplers return a [`sas_core::Sample`] carrying Horvitz–Thompson
//! adjusted weights, so every estimator and tail bound from `sas-core`
//! applies unchanged.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disjoint;
pub mod hierarchy;
pub mod multirange;
pub mod order;
pub mod product;
pub mod sharded;
pub mod streaming;
pub mod two_pass;
pub mod uniform_cube;

use sas_core::{ipps, KeyId, WeightedKey};

/// The IPPS decomposition of a data set for target sample size `s`:
/// keys certain to be included (`p = 1`), and "active" keys with
/// `p ∈ (0, 1)` that the aggregation process will resolve.
#[derive(Debug, Clone)]
pub struct IppsSetup {
    /// The threshold τ_s.
    pub tau: f64,
    /// Keys with `wᵢ ≥ τ_s` — always in the sample, estimated exactly.
    pub certain: Vec<WeightedKey>,
    /// Keys with `0 < pᵢ < 1`, paired with their probability.
    pub active: Vec<(WeightedKey, f64)>,
}

impl IppsSetup {
    /// Computes the decomposition with the exact threshold for size `s`.
    ///
    /// If `s ≥ #positive-weight keys`, every key is certain and τ = 0.
    pub fn compute(data: &[WeightedKey], s: usize) -> Self {
        let tau = ipps::threshold_for_keys(data, s as f64);
        let mut certain = Vec::new();
        let mut active = Vec::new();
        for &wk in data {
            if wk.weight <= 0.0 {
                continue;
            }
            if tau <= 0.0 || wk.weight >= tau {
                certain.push(wk);
            } else {
                active.push((wk, wk.weight / tau));
            }
        }
        Self {
            tau,
            certain,
            active,
        }
    }

    /// Total probability mass of the active keys (≈ `s − certain.len()`,
    /// integral for integer `s`).
    pub fn active_mass(&self) -> f64 {
        self.active.iter().map(|(_, p)| p).sum()
    }

    /// Inclusion probability of `key` under this setup (0 when absent).
    pub fn probability_of(&self, key: KeyId) -> f64 {
        if self.certain.iter().any(|wk| wk.key == key) {
            return 1.0;
        }
        self.active
            .iter()
            .find(|(wk, _)| wk.key == key)
            .map_or(0.0, |(_, p)| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_splits_certain_and_active() {
        let data = vec![
            WeightedKey::new(1, 100.0),
            WeightedKey::new(2, 1.0),
            WeightedKey::new(3, 1.0),
            WeightedKey::new(4, 0.0),
        ];
        let setup = IppsSetup::compute(&data, 2);
        assert_eq!(setup.certain.len(), 1);
        assert_eq!(setup.certain[0].key, 1);
        assert_eq!(setup.active.len(), 2);
        assert!((setup.active_mass() - 1.0).abs() < 1e-9);
        assert_eq!(setup.probability_of(1), 1.0);
        assert!((setup.probability_of(2) - 0.5).abs() < 1e-9);
        assert_eq!(setup.probability_of(4), 0.0);
    }

    #[test]
    fn setup_all_certain_when_s_large() {
        let data = vec![WeightedKey::new(1, 1.0), WeightedKey::new(2, 2.0)];
        let setup = IppsSetup::compute(&data, 5);
        assert_eq!(setup.certain.len(), 2);
        assert!(setup.active.is_empty());
        assert_eq!(setup.tau, 0.0);
    }

    #[test]
    fn active_mass_is_integral_for_integer_s() {
        let data: Vec<WeightedKey> = (0..50)
            .map(|k| WeightedKey::new(k, 1.0 + (k % 9) as f64))
            .collect();
        for s in [3, 7, 20] {
            let setup = IppsSetup::compute(&data, s);
            let mass = setup.active_mass() + setup.certain.len() as f64;
            assert!((mass - s as f64).abs() < 1e-6, "s={s}: total mass {mass}");
        }
    }
}

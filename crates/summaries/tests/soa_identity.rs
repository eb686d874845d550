//! Properties pinning the column-oriented (SoA) `StoredSample` layout to
//! the historical behavior: identical query values against an
//! array-of-structs reference evaluation, identical encodings, and
//! `answer().value` equal to an independent reference computation for
//! every registered kind.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_sampling::product::SpatialData;
use sas_structures::product::{BoxRange, Point};
use sas_summaries::countsketch::SketchSummary;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{decode_summary, encode_summary, Query, StoredSample, Summary};

fn keys_strategy() -> impl Strategy<Value = Vec<WeightedKey>> {
    prop::collection::vec((0u64..5000, 0.1f64..50.0), 1..120).prop_map(|pairs| {
        // Deduplicate by key (last weight wins) — samplers expect the
        // aggregated form, one row per key.
        let m: std::collections::BTreeMap<u64, f64> = pairs.into_iter().collect();
        m.into_iter().map(|(k, w)| WeightedKey::new(k, w)).collect()
    })
}

fn intervals_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..5000, 0u64..5000), 1..10)
        .prop_map(|v| v.into_iter().map(|(a, b)| (a.min(b), a.max(b))).collect())
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0u64..256, 0u64..256, 0.1f64..50.0), 1..120)
}

/// The point estimate of a box query.
fn box_value(s: &dyn Summary, range: &[(u64, u64)]) -> f64 {
    s.answer(&Query::BoxRange(range.to_vec()), 0.95)
        .unwrap()
        .value
}

/// Checks a batch answer against per-query answers, bit for bit.
fn assert_batch_matches_loop(s: &dyn Summary, queries: &[Query]) {
    let batch = s.answer_batch(queries, 0.95).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, b) in queries.iter().zip(&batch) {
        let one = s.answer(q, 0.95).unwrap();
        assert_eq!(one.value.to_bits(), b.value.to_bits(), "{q}");
        assert_eq!(one.lower.to_bits(), b.lower.to_bits(), "{q}");
        assert_eq!(one.upper.to_bits(), b.upper.to_bits(), "{q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The 1-D column layout is observationally identical to evaluating
    /// the sample entries the old array-of-structs way, and the encoding
    /// round-trips byte-identically.
    #[test]
    fn soa_sample_1d_matches_aos_reference(
        data in keys_strategy(),
        ranges in intervals_strategy(),
        budget in 1usize..80,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stored = StoredSample::one_dim(sas_sampling::order::sample(&data, budget, &mut rng));
        // Reference: walk the entries in order, as the old layout did.
        let aos = stored.to_sample();
        for &(lo, hi) in &ranges {
            // Fold from +0.0 like the query accumulator (`Iterator::sum`
            // would yield -0.0 on ranges matching nothing).
            let reference: f64 = aos
                .iter()
                .filter(|e| lo <= e.key && e.key <= hi)
                .fold(0.0, |acc, e| acc + e.adjusted_weight);
            let est = stored.answer(&Query::BoxRange(vec![(lo, hi)]), 0.95).unwrap();
            prop_assert_eq!(est.value.to_bits(), reference.to_bits(), "lo={lo} hi={hi}");
        }
        let queries: Vec<Query> = ranges.iter().map(|&r| Query::BoxRange(vec![r])).collect();
        assert_batch_matches_loop(&stored, &queries);
        let bytes = encode_summary(&stored);
        let decoded = decode_summary(&bytes).unwrap();
        prop_assert_eq!(bytes, encode_summary(decoded.as_ref()));
    }

    /// The 2-D coordinate columns are observationally identical to the old
    /// per-key location-map lookups.
    #[test]
    fn soa_sample_2d_matches_aos_reference(
        rows in rows_strategy(),
        boxes in prop::collection::vec((0u64..256, 0u64..256, 0u64..256, 0u64..256), 1..10),
        budget in 1usize..80,
        seed in 0u64..1000,
    ) {
        let keys: Vec<WeightedKey> = rows
            .iter()
            .enumerate()
            .map(|(i, &(_, _, w))| WeightedKey::new(i as u64, w))
            .collect();
        let points: HashMap<u64, Point> = rows
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _))| (i as u64, Point::xy(x, y)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = sas_sampling::order::sample(&keys, budget, &mut rng);
        let stored = StoredSample::two_dim(sample, points.clone()).unwrap();
        let aos = stored.to_sample();
        let mut queries = Vec::new();
        for &(a, b, c, d) in &boxes {
            let (x0, x1, y0, y1) = (a.min(b), a.max(b), c.min(d), c.max(d));
            let reference: f64 = aos
                .iter()
                .filter(|e| {
                    let p = &points[&e.key];
                    x0 <= p.coord(0) && p.coord(0) <= x1 && y0 <= p.coord(1) && p.coord(1) <= y1
                })
                .fold(0.0, |acc, e| acc + e.adjusted_weight);
            let range = [(x0, x1), (y0, y1)];
            let est = stored.answer(&Query::BoxRange(range.to_vec()), 0.95).unwrap();
            prop_assert_eq!(est.value.to_bits(), reference.to_bits());
            queries.push(Query::BoxRange(range.to_vec()));
        }
        assert_batch_matches_loop(&stored, &queries);
        let bytes = encode_summary(&stored);
        let decoded = decode_summary(&bytes).unwrap();
        prop_assert_eq!(bytes, encode_summary(decoded.as_ref()));
    }

    /// `answer().value` — the single source of truth for query values —
    /// reproduces the historical value-only results for every kind: for
    /// each kind it equals an independent reference computation replayed
    /// here, bit for bit.
    #[test]
    fn range_sum_is_answer_value_for_every_kind(
        data in keys_strategy(),
        rows in rows_strategy(),
        ranges in intervals_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stored = StoredSample::one_dim(sas_sampling::order::sample(&data, 40, &mut rng));
        let mut varopt = VarOptSampler::new(30);
        for wk in &data {
            varopt.push(wk.key, wk.weight, &mut rng);
        }
        let spatial = SpatialData::from_xyw(&rows);
        let qdigest = QDigestSummary::build(&spatial, 8, 50);
        let wavelet = WaveletSummary::build(&spatial, 8, 8, 60);
        let sketch = SketchSummary::build(&spatial, 8, 8, 400, seed % 16);

        for &(lo, hi) in &ranges {
            // VarOpt: the old override's large/small scan (folded from
            // +0.0, like the batch accumulator).
            let tau = VarOptSampler::tau(&varopt);
            let large: f64 = varopt
                .large_entries()
                .filter(|&(k, _)| lo <= k && k <= hi)
                .fold(0.0, |acc, (_, w)| acc + w.max(tau));
            let small = varopt.small_keys().iter().filter(|&&k| lo <= k && k <= hi).count();
            let reference = large + small as f64 * tau;
            prop_assert_eq!(box_value(&varopt, &[(lo, hi)]).to_bits(), reference.to_bits());

            // Stored samples: the entries walked in order, folded from
            // +0.0 like the accumulator.
            let reference = stored
                .to_sample()
                .iter()
                .filter(|e| lo <= e.key && e.key <= hi)
                .fold(0.0, |acc, e| acc + e.adjusted_weight);
            prop_assert_eq!(box_value(&stored, &[(lo, hi)]).to_bits(), reference.to_bits());

            // Deterministic 2-D kinds: the old override's estimate_box
            // (`answer` folds the box values from +0.0, so normalize a
            // possible -0.0 the same way).
            let b = BoxRange::xy(lo.min(255), hi.min(255), 0, u64::MAX);
            let range2 = [(lo.min(255), hi.min(255)), (0, u64::MAX)];
            prop_assert_eq!(
                box_value(&qdigest, &range2).to_bits(),
                (0.0 + qdigest.estimate_box(&b)).to_bits()
            );
            prop_assert_eq!(
                box_value(&wavelet, &range2).to_bits(),
                (0.0 + wavelet.estimate_box(&b)).to_bits()
            );
            prop_assert_eq!(
                box_value(&sketch, &range2).to_bits(),
                (0.0 + sketch.estimate_box(&b)).to_bits()
            );
        }
    }
}

//! End-to-end integration tests: generate → summarize → query → compare,
//! across every crate through the facade.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{answer_value, avg_abs_error, build_aware, build_obliv};
use structure_aware_sampling::core::varopt::VarOptSampler;
use structure_aware_sampling::data::{
    uniform_area_queries, uniform_weight_queries, NetworkConfig, TicketConfig,
};
use structure_aware_sampling::sampling::product::{self, SpatialData};
use structure_aware_sampling::sampling::two_pass;
use structure_aware_sampling::structures::product::MultiRangeQuery;
use structure_aware_sampling::summaries::exact::ExactEngine;
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::wavelet::WaveletSummary;
use structure_aware_sampling::summaries::{Query, StoredSample, Summary};

fn network() -> SpatialData {
    let cfg = NetworkConfig {
        bits: 10,
        flows: 15_000,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    cfg.generate(&mut rng)
}

fn stored(sample: structure_aware_sampling::core::Sample, data: &SpatialData) -> StoredSample {
    StoredSample::spatial(sample, data).expect("every key has a location")
}

#[test]
fn full_pipeline_network_accuracy_ordering() {
    let data = network();
    let exact = ExactEngine::new(&data);
    let total = exact.total();
    let s = 800;

    let mut rng = StdRng::seed_from_u64(2);
    let aware = stored(two_pass::sample_product(&data, s, 5, &mut rng), &data);
    let obliv = stored(VarOptSampler::sample_slice(s, &data.keys, &mut rng), &data);

    let mut qrng = StdRng::seed_from_u64(3);
    let queries = uniform_area_queries(&mut qrng, 1 << 10, 1 << 10, 40, 10, 0.3);

    let ea = avg_abs_error(&aware, &exact, &queries, total);
    let eo = avg_abs_error(&obliv, &exact, &queries, total);
    // The headline: structure-aware no worse than oblivious on range
    // batteries (usually 2x better; allow slack for one seed).
    assert!(
        ea < 1.2 * eo,
        "aware error {ea} not competitive with oblivious {eo}"
    );
    // And both are far better than nothing (error below 5% of total).
    assert!(ea < 0.05 && eo < 0.10, "errors too large: {ea}, {eo}");
}

#[test]
fn all_summaries_answer_the_same_queries() {
    let data = network();
    let exact = ExactEngine::new(&data);
    let s = 500;
    let mut rng = StdRng::seed_from_u64(4);

    let summaries: Vec<(&str, Box<dyn Summary>)> = vec![
        (
            "aware",
            Box::new(stored(
                two_pass::sample_product(&data, s, 5, &mut rng),
                &data,
            )),
        ),
        (
            "obliv",
            Box::new(stored(
                VarOptSampler::sample_slice(s, &data.keys, &mut rng),
                &data,
            )),
        ),
        ("wavelet", Box::new(WaveletSummary::build(&data, 10, 10, s))),
        ("qdigest", Box::new(QDigestSummary::build(&data, 10, s))),
    ];

    let mut qrng = StdRng::seed_from_u64(5);
    let queries = uniform_weight_queries(&mut qrng, &data, 10, 5, 0.1);
    for (name, sm) in &summaries {
        assert!(sm.item_count() <= s + 1, "{name} too large");
        for q in &queries {
            let est = answer_value(sm.as_ref(), q);
            let truth = exact.multi_sum(q);
            // Sanity window: no summary may be wildly out (10x total).
            assert!(
                (est - truth).abs() < 0.5 * exact.total(),
                "{name}: {est} vs {truth}"
            );
        }
    }
}

/// Pins the figure harness. Its sample series answer, through
/// `Summary::answer`, exactly what the reference estimator
/// (`product::estimate_box` over a sample drawn with the same recipe and
/// seed) computes; its deterministic series stay within float dust of a
/// per-box sum taken in battery order. A change to a sampler, the
/// harness's builders, or an answer kernel that moves a figure fails here.
#[test]
fn figure_harness_series_match_the_reference_estimators() {
    let data = network();
    let exact = ExactEngine::new(&data);
    let total = exact.total();
    let s = 800;
    let mut qrng = StdRng::seed_from_u64(8);
    let batteries = [
        uniform_area_queries(&mut qrng, 1 << 10, 1 << 10, 12, 25, 0.3),
        uniform_weight_queries(&mut qrng, &data, 10, 10, 0.1),
    ];

    let aware = build_aware(&data, s, 11);
    let obliv = build_obliv(&data, s, 12);
    let reference = [
        two_pass::sample_product(&data, s, 5, &mut StdRng::seed_from_u64(11)),
        VarOptSampler::sample_slice(s, &data.keys, &mut StdRng::seed_from_u64(12)),
    ];
    let point_of: std::collections::HashMap<u64, _> = data
        .keys
        .iter()
        .map(|wk| wk.key)
        .zip(&data.points)
        .collect();
    // The summaries fold from +0.0; `Iterator::sum` yields -0.0 on an
    // empty range, so the reference is normalized the same way.
    let same = |got: f64, want: f64| got.to_bits() == (0.0 + want).to_bits();
    for queries in &batteries {
        for (summary, sample) in [(&aware, &reference[0]), (&obliv, &reference[1])] {
            let mut abs_sum = 0.0;
            for q in queries {
                for b in &q.boxes {
                    let one = MultiRangeQuery::new(vec![b.clone()]);
                    let (got, want) = (
                        answer_value(summary, &one),
                        product::estimate_box(sample, &data, b),
                    );
                    assert!(same(got, want), "box {b:?}: {got} vs {want}");
                }
                let got = answer_value(summary, q);
                let want = sample.subset_estimate(|k| q.contains(point_of[&k]));
                assert!(same(got, want), "multi-range {q:?}: {got} vs {want}");
                abs_sum += (want - exact.multi_sum(q)).abs();
            }
            let want = abs_sum / (queries.len() as f64 * total);
            assert_eq!(avg_abs_error(summary, &exact, queries, total), want);
        }

        let wavelet = WaveletSummary::build(&data, 10, 10, s);
        let qdigest = QDigestSummary::build(&data, 10, s);
        for q in queries {
            let per_box = |f: &dyn Fn(&_) -> f64| {
                let values: Vec<f64> = q.boxes.iter().map(f).collect();
                let scale: f64 = values.iter().map(|v| v.abs()).sum();
                (values.into_iter().sum::<f64>(), scale)
            };
            for (got, (want, scale)) in [
                (
                    answer_value(&wavelet, q),
                    per_box(&|b| wavelet.estimate_box(b)),
                ),
                (
                    answer_value(&qdigest, q),
                    per_box(&|b| qdigest.estimate_box(b)),
                ),
            ] {
                assert!(
                    (got - want).abs() <= 1e-15 * scale,
                    "{q:?}: {got} vs per-box {want}"
                );
            }
        }
    }
}

#[test]
fn ticket_pipeline_runs_end_to_end() {
    let cfg = TicketConfig {
        tickets: 20_000,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(6);
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    let s = 600;
    let aware = stored(two_pass::sample_product(&data, s, 5, &mut rng), &data);
    assert_eq!(aware.len(), s);

    // Hierarchy-aligned box: first-level trouble subtree × whole location
    // domain. Mixed-radix layout makes this a coordinate interval.
    let (td, ld) = cfg.domains();
    let sub = td / 16;
    let q = structure_aware_sampling::structures::product::BoxRange::xy(0, sub - 1, 0, ld - 1);
    let truth = exact.box_sum(&q);
    let est = aware
        .answer(&Query::BoxRange(vec![(0, sub - 1), (0, ld - 1)]), 0.9)
        .unwrap()
        .value;
    assert!(
        (est - truth).abs() < 0.1 * exact.total(),
        "subtree estimate {est} vs {truth}"
    );
}

#[test]
fn sample_supports_arbitrary_subset_queries() {
    // What dedicated summaries cannot do: estimate an arbitrary predicate
    // (not a range) from the same summary, unbiasedly.
    let data = network();
    let truth: f64 = data
        .keys
        .iter()
        .zip(&data.points)
        .filter(|(_, p)| (p.coord(0) ^ p.coord(1)) % 3 == 0)
        .map(|(wk, _)| wk.weight)
        .sum();
    let runs = 300;
    let mut acc = 0.0;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let sample = two_pass::sample_product(&data, 400, 5, &mut rng);
        let point_of: std::collections::HashMap<u64, _> = data
            .keys
            .iter()
            .zip(&data.points)
            .map(|(wk, p)| (wk.key, p))
            .collect();
        acc += sample.subset_estimate(|k| {
            point_of
                .get(&k)
                .is_some_and(|p| (p.coord(0) ^ p.coord(1)) % 3 == 0)
        });
    }
    let mean = acc / runs as f64;
    assert!(
        (mean - truth).abs() / truth < 0.05,
        "mean estimate {mean} vs truth {truth}"
    );
}

#[test]
fn two_pass_memory_is_bounded_by_guide_size() {
    // Structural test: the partition derived from the guide sample has at
    // most s' cells, so pass-2 state is O(s'). We check the observable
    // consequence: the sample is exact-size and correct even when the data
    // is 100x larger than the summary.
    let data = network();
    let s = 150;
    let mut rng = StdRng::seed_from_u64(7);
    let sample = two_pass::sample_product(&data, s, 5, &mut rng);
    assert_eq!(sample.len(), s);
    let est = sample.total_estimate();
    let truth: f64 = data.total_weight();
    assert!(
        (est - truth).abs() / truth < 0.2,
        "total estimate {est} vs {truth}"
    );
}

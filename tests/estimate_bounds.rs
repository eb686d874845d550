//! Certification of the query API's error bars: the interval an
//! [`Estimate`] reports must actually contain the exact answer —
//! *probabilistically* at the configured confidence for the sample-based
//! kinds (coverage measured over 150 seeds, and over 100 seeds through the
//! store's whole window lifecycle), *always* for the q-digest and wavelet
//! deterministic bounds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use structure_aware_sampling::core::varopt::VarOptSampler;
use structure_aware_sampling::core::WeightedKey;
use structure_aware_sampling::sampling::product::SpatialData;
use structure_aware_sampling::store::{StorageFormat, Store, StoreConfig};
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::wavelet::WaveletSummary;
use structure_aware_sampling::summaries::StoredSample;
use structure_aware_sampling::{Query, Summary, SummaryKind};

const CONFIDENCE: f64 = 0.9;
const SEEDS: u64 = 150;

fn mixed_data(n: u64, seed: u64) -> Vec<WeightedKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let w = if rng.gen_bool(0.05) {
                rng.gen_range(20.0..100.0)
            } else {
                rng.gen_range(0.1..3.0)
            };
            WeightedKey::new(k, w)
        })
        .collect()
}

fn exact_range(data: &[WeightedKey], lo: u64, hi: u64) -> f64 {
    data.iter()
        .filter(|wk| (lo..=hi).contains(&wk.key))
        .map(|wk| wk.weight)
        .sum()
}

/// Measures interval coverage for a summary builder over `SEEDS` seeds:
/// one random range per seed, counting how often the exact answer lands
/// inside `[lower, upper]`.
fn coverage(build: impl Fn(&[WeightedKey], &mut StdRng) -> Box<dyn Summary>) -> f64 {
    let mut covered = 0u64;
    for seed in 0..SEEDS {
        let data = mixed_data(800, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let summary = build(&data, &mut rng);
        let lo = rng.gen_range(0..400u64);
        let hi = rng.gen_range(lo..800u64);
        let e = summary
            .answer(&Query::interval(lo, hi), CONFIDENCE)
            .expect("interval query answers");
        assert!(
            e.lower <= e.value && e.value <= e.upper,
            "seed {seed}: value {} outside its own interval [{}, {}]",
            e.value,
            e.lower,
            e.upper
        );
        let exact = exact_range(&data, lo, hi);
        if e.lower <= exact && exact <= e.upper {
            covered += 1;
        }
    }
    covered as f64 / SEEDS as f64
}

#[test]
fn stored_sample_interval_covers_at_configured_confidence() {
    let rate = coverage(|data, rng| {
        let sample = structure_aware_sampling::sampling::order::sample(data, 60, rng);
        Box::new(StoredSample::one_dim(sample))
    });
    assert!(
        rate >= CONFIDENCE - 0.03,
        "sample coverage {rate} below configured confidence {CONFIDENCE}"
    );
}

#[test]
fn varopt_reservoir_interval_covers_at_configured_confidence() {
    let rate = coverage(|data, rng| {
        let mut sampler = VarOptSampler::new(60);
        for wk in data {
            sampler.push(wk.key, wk.weight, rng);
        }
        Box::new(sampler)
    });
    assert!(
        rate >= CONFIDENCE - 0.03,
        "varopt coverage {rate} below configured confidence {CONFIDENCE}"
    );
}

#[test]
fn multirange_and_total_cover_too() {
    // The union-of-boxes and full-domain paths carry the same guarantee;
    // Total is exact-by-construction only when every key is heavy, so the
    // interval must still cover the true total elsewhere.
    let mut covered_multi = 0u64;
    let mut covered_total = 0u64;
    for seed in 0..SEEDS {
        let data = mixed_data(600, seed + 5000);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
        let sample = structure_aware_sampling::sampling::order::sample(&data, 50, &mut rng);
        let summary: Box<dyn Summary> = Box::new(StoredSample::one_dim(sample));
        let q = Query::MultiRange(vec![vec![(0, 99)], vec![(300, 449)]]);
        let e = summary.answer(&q, CONFIDENCE).unwrap();
        let exact = exact_range(&data, 0, 99) + exact_range(&data, 300, 449);
        if e.lower <= exact && exact <= e.upper {
            covered_multi += 1;
        }
        let e = summary.answer(&Query::Total, CONFIDENCE).unwrap();
        let total: f64 = data.iter().map(|wk| wk.weight).sum();
        if e.lower <= total && total <= e.upper {
            covered_total += 1;
        }
    }
    for (name, covered) in [("multi-range", covered_multi), ("total", covered_total)] {
        let rate = covered as f64 / SEEDS as f64;
        assert!(
            rate >= CONFIDENCE - 0.03,
            "{name} coverage {rate} below {CONFIDENCE}"
        );
    }
}

/// One ingested row: tick, key, weight.
type Row = (u64, u64, f64);

const LIFECYCLE_SEEDS: u64 = 100;
const LIFECYCLE_KEYS: u64 = 2_000;

/// One batch of `n` rows with distinct random keys, summarized as `kind`
/// below its row count, so every window is genuinely probabilistic.
fn lifecycle_batch(
    rng: &mut StdRng,
    kind: SummaryKind,
    ts: u64,
    rows: &mut Vec<Row>,
) -> Box<dyn Summary> {
    let n = rng.gen_range(150..300u64);
    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..LIFECYCLE_KEYS)).collect();
    keys.sort_unstable();
    keys.dedup();
    let batch: Vec<WeightedKey> = keys
        .iter()
        .map(|&k| {
            let w = if rng.gen_bool(0.1) {
                rng.gen_range(20.0..100.0)
            } else {
                rng.gen_range(0.1..3.0)
            };
            WeightedKey::new(k, w)
        })
        .collect();
    rows.extend(batch.iter().map(|wk| (ts, wk.key, wk.weight)));
    if kind == SummaryKind::Sample {
        let size = batch.len() / 2;
        Box::new(StoredSample::one_dim(
            structure_aware_sampling::sampling::order::sample(&batch, size, rng),
        ))
    } else {
        let mut sampler = VarOptSampler::new(batch.len() / 3);
        for wk in &batch {
            sampler.push(wk.key, wk.weight, rng);
        }
        Box::new(sampler)
    }
}

#[test]
fn sample_kinds_cover_through_the_store_lifecycle() {
    // Per seed and kind: two batches into each of three hours' minute
    // windows under a merge budget, one batch past them that seals the
    // hours, a lifecycle tick rolling the minutes into hours, conversion to
    // mapped v2 segments, and a restart. The reopened store then answers at
    // 0.9 over time filters spanning 3–4 windows, so each window answers at
    // 1 − δ/k and only the union bound certifies the sum.
    const HOUR: u64 = 3_600;
    let filters = [None, Some((0, 3 * HOUR - 1)), Some((HOUR, 4 * HOUR + 59))];
    for kind in [SummaryKind::Sample, SummaryKind::VarOptReservoir] {
        let (mut covered, mut probes) = (0u64, 0u64);
        for seed in 0..LIFECYCLE_SEEDS {
            let dir = std::env::temp_dir().join(format!(
                "sas-bounds-lifecycle-{}-{kind}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = StoreConfig {
                budget: Some(80),
                cache_capacity: 0,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe);
            let mut rows: Vec<Row> = Vec::new();
            {
                let store = Store::open(&dir, config.clone()).unwrap();
                for ts in [
                    0,
                    1_800,
                    HOUR,
                    HOUR + 1_800,
                    2 * HOUR,
                    2 * HOUR + 1_800,
                    4 * HOUR,
                ] {
                    let batch = lifecycle_batch(&mut rng, kind, ts, &mut rows);
                    store.ingest("flows", ts, batch).unwrap();
                }
                let stats = store.lifecycle_tick().unwrap();
                assert_eq!(stats.rollups, 3, "seed {seed}: {stats:?}");
                assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 4);
            }
            let store = Store::open(&dir, config).unwrap();
            let lo = rng.gen_range(0..LIFECYCLE_KEYS / 2);
            let hi = rng.gen_range(lo..LIFECYCLE_KEYS);
            let queries = [
                (Query::interval(lo, hi), lo, hi),
                (Query::Total, 0, u64::MAX),
            ];
            for time in filters {
                for (query, lo, hi) in &queries {
                    let a = store
                        .estimate("flows", kind, query, CONFIDENCE, time)
                        .unwrap();
                    assert!(
                        a.windows >= 3,
                        "seed {seed}: {time:?} read {} windows",
                        a.windows
                    );
                    let e = a.estimate;
                    assert!(
                        e.lower <= e.value && e.value <= e.upper,
                        "seed {seed}: {e:?}"
                    );
                    let exact: f64 = rows
                        .iter()
                        .filter(|&&(ts, key, _)| {
                            (*lo..=*hi).contains(&key)
                                && time.is_none_or(|(t0, t1)| (t0..=t1).contains(&ts))
                        })
                        .map(|&(_, _, w)| w)
                        .sum();
                    probes += 1;
                    if e.lower <= exact && exact <= e.upper {
                        covered += 1;
                    }
                }
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let rate = covered as f64 / probes as f64;
        assert!(
            rate >= CONFIDENCE - 0.03,
            "{kind}: lifecycle coverage {rate} below {CONFIDENCE} ({covered}/{probes})"
        );
    }
}

#[test]
fn sketch_intervals_track_row_spread() {
    use structure_aware_sampling::summaries::countsketch::SketchSummary;
    // The sketch's Chebyshev-style interval is a heuristic, so only its
    // structure is certified: value inside its own interval, spread
    // shrinking as the budget grows, and a noise-free sketch collapsing to
    // a (near-)degenerate interval around the exact answer.
    let data = spatial(500, 6, 77);
    let bx = vec![(8u64, 47u64), (0u64, 63u64)];
    let exact = exact_box(&data, &bx);
    let mut last_width = f64::INFINITY;
    for budget in [600usize, 6_000, 600_000] {
        let sketch = SketchSummary::build(&data, 6, 6, budget, 5);
        let summary: &dyn Summary = &sketch;
        let e = summary.answer(&Query::BoxRange(bx.clone()), 0.9).unwrap();
        assert!(e.lower <= e.value && e.value <= e.upper, "{budget}: {e:?}");
        assert!(e.variance >= 0.0);
        let width = e.upper - e.lower;
        assert!(
            width <= last_width * 4.0,
            "budget {budget}: interval exploded ({width} after {last_width})"
        );
        last_width = width;
        if budget == 600_000 {
            assert!((e.value - exact).abs() < 1e-6, "{} vs {exact}", e.value);
            assert!(width < 1e-6, "noise-free sketch still wide: {width}");
        }
    }
    // Confidence 1 is rejected (the Chebyshev deviation would be infinite).
    let sketch = SketchSummary::build(&data, 6, 6, 600, 5);
    let summary: &dyn Summary = &sketch;
    assert!(summary.answer(&Query::Total, 1.0).is_err());
}

fn spatial(n: usize, bits: u32, seed: u64) -> SpatialData {
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

fn exact_box(data: &SpatialData, b: &[(u64, u64)]) -> f64 {
    data.keys
        .iter()
        .zip(&data.points)
        .filter(|(_, p)| {
            (b[0].0..=b[0].1).contains(&p.coord(0)) && (b[1].0..=b[1].1).contains(&p.coord(1))
        })
        .map(|(wk, _)| wk.weight)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qdigest_deterministic_bounds_always_contain_exact(
        seed in 0u64..10_000,
        budget in 20usize..150,
        x0 in 0u64..64, w in 1u64..64, y0 in 0u64..64, h in 1u64..64,
    ) {
        let data = spatial(400, 6, seed);
        let digest = QDigestSummary::build(&data, 6, budget);
        let summary: &dyn Summary = &digest;
        let bx = vec![(x0, (x0 + w).min(63)), (y0, (y0 + h).min(63))];
        let e = summary.answer(&Query::BoxRange(bx.clone()), 0.5).unwrap();
        let exact = exact_box(&data, &bx);
        prop_assert!(e.confidence == 1.0);
        prop_assert!(e.variance == 0.0);
        prop_assert!(
            e.lower <= exact + 1e-9 && exact <= e.upper + 1e-9,
            "exact {exact} outside [{}, {}] (value {})", e.lower, e.upper, e.value
        );
    }

    #[test]
    fn wavelet_deterministic_bounds_always_contain_exact(
        seed in 0u64..10_000,
        budget in 10usize..200,
        x0 in 0u64..64, w in 1u64..64, y0 in 0u64..64, h in 1u64..64,
    ) {
        let data = spatial(300, 6, seed);
        let wavelet = WaveletSummary::build(&data, 6, 6, budget);
        let summary: &dyn Summary = &wavelet;
        let bx = vec![(x0, (x0 + w).min(63)), (y0, (y0 + h).min(63))];
        let e = summary.answer(&Query::BoxRange(bx.clone()), 0.5).unwrap();
        let exact = exact_box(&data, &bx);
        prop_assert!(e.confidence == 1.0);
        prop_assert!(
            e.lower <= exact + 1e-6 && exact <= e.upper + 1e-6,
            "exact {exact} outside [{}, {}] (value {})", e.lower, e.upper, e.value
        );
    }

    #[test]
    fn sample_estimates_are_structurally_sound(
        seed in 0u64..10_000,
        size in 10usize..100,
        lo in 0u64..500, span in 1u64..500,
    ) {
        let data = mixed_data(500, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let sample = structure_aware_sampling::sampling::order::sample(&data, size, &mut rng);
        let summary: Box<dyn Summary> = Box::new(StoredSample::one_dim(sample));
        let q = Query::interval(lo, lo + span);
        let e = summary.answer(&q, 0.95).unwrap();
        prop_assert!(e.lower <= e.value && e.value <= e.upper);
        prop_assert!(e.variance >= 0.0);
        prop_assert!(e.lower >= 0.0, "weights are non-negative; lower = {}", e.lower);
        // Tighter confidence never narrows the interval.
        let wide = summary.answer(&q, 0.999).unwrap();
        prop_assert!(wide.upper - wide.lower + 1e-12 >= e.upper - e.lower);
    }
}

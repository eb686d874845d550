//! Facade-level store integration: the paper's summaries (1-D samples and
//! 2-D deterministic baselines) flowing through the windowed catalog —
//! ingest, compaction, and restart — with answers checked against direct
//! in-memory summaries.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use structure_aware_sampling::core::WeightedKey;
use structure_aware_sampling::sampling::product::SpatialData;
use structure_aware_sampling::store::server::handle_request;
use structure_aware_sampling::store::window::Level;
use structure_aware_sampling::store::wire::{Request, Response};
use structure_aware_sampling::store::{Store, StoreConfig};
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::{StoredSample, Summary, SummaryKind};
use structure_aware_sampling::Query;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sas-facade-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A box estimate's value at confidence 0.95.
fn box_value(store: &Store, dataset: &str, kind: SummaryKind, range: &[(u64, u64)]) -> f64 {
    store
        .estimate(dataset, kind, &Query::BoxRange(range.to_vec()), 0.95, None)
        .unwrap()
        .estimate
        .value
}

/// The value a legacy `REQ_QUERY` request answers.
fn legacy_query(store: &Store, dataset: &str, kind: SummaryKind, range: &[(u64, u64)]) -> f64 {
    let req = Request::Query {
        dataset: dataset.into(),
        kind,
        range: range.to_vec(),
        time: None,
    };
    match handle_request(store, req) {
        Response::Query { value, .. } => value,
        other => panic!("expected a query answer, got {other:?}"),
    }
}

fn sample_batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let rows: Vec<WeightedKey> = (lo..lo + n)
        .map(|k| WeightedKey::new(k, 0.5 + (k % 11) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(StoredSample::one_dim(
        structure_aware_sampling::sampling::order::sample(&rows, rows.len(), &mut rng),
    ))
}

fn spatial_batch(shift: u64, n: u64) -> Box<dyn Summary> {
    let rows: Vec<(u64, u64, f64)> = (0..n)
        .map(|i| {
            (
                (i * 13 + shift) % 64,
                (i * 29 + shift) % 64,
                1.0 + (i % 3) as f64,
            )
        })
        .collect();
    Box::new(QDigestSummary::build(
        &SpatialData::from_xyw(&rows),
        6,
        usize::MAX,
    ))
}

#[test]
fn windowed_store_tracks_direct_summaries_across_kinds_and_restart() {
    let dir = temp_dir("kinds");
    let store = Store::open(&dir, StoreConfig::default()).unwrap();

    // A 1-D sample series across two hours plus a 2-D q-digest series.
    for (i, ts) in [0u64, 60, 3600, 3660, 7200].into_iter().enumerate() {
        store
            .ingest("flows", ts, sample_batch(i as u64 * 300, 200, i as u64))
            .unwrap();
        store
            .ingest("grid", ts, spatial_batch(i as u64, 150))
            .unwrap();
    }

    let sample_truth: f64 = (0..5u64)
        .flat_map(|i| (i * 300..i * 300 + 200).map(|k| 0.5 + (k % 11) as f64))
        .sum();
    let full1 = [(0u64, u64::MAX)];
    let got = box_value(&store, "flows", SummaryKind::Sample, &full1);
    assert!((got - sample_truth).abs() / sample_truth < 1e-9);

    // The q-digest store answer equals merging the same batches directly.
    let mut direct = spatial_batch(0, 150);
    let mut rng = StdRng::seed_from_u64(1);
    for i in 1..5u64 {
        direct
            .merge_in_place(spatial_batch(i, 150), None, &mut rng)
            .unwrap();
    }
    let boxq = [(5u64, 40u64), (10u64, 55u64)];
    let got = box_value(&store, "grid", SummaryKind::QDigest, &boxq);
    let want = direct
        .answer(&Query::BoxRange(boxq.to_vec()), 0.95)
        .unwrap()
        .value;
    assert!(
        (got - want).abs() <= want.abs() * 1e-9,
        "store {got} vs direct {want}"
    );

    // Compact (hours 0 and 1 are sealed), then restart: answers persist.
    let rollups = store.compact_once().unwrap();
    assert_eq!(rollups, 4, "two sealed hours × two series");
    let q_after = box_value(&store, "grid", SummaryKind::QDigest, &boxq);
    assert!((q_after - want).abs() <= want.abs() * 1e-9);
    let flows_after = box_value(&store, "flows", SummaryKind::Sample, &full1);

    drop(store);
    let store = Arc::new(Store::open(&dir, StoreConfig::default()).unwrap());
    assert_eq!(
        box_value(&store, "flows", SummaryKind::Sample, &full1).to_bits(),
        flows_after.to_bits()
    );
    assert_eq!(
        box_value(&store, "grid", SummaryKind::QDigest, &boxq).to_bits(),
        q_after.to_bits()
    );
    let hours = store
        .list()
        .iter()
        .filter(|r| r.key.level == Level::Hour)
        .count();
    assert_eq!(hours, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn facade_estimates_across_kinds_and_compaction() {
    // The facade path of the PR-5 acceptance criterion: Store::estimate
    // returns an Estimate with bounds for sampled *and* deterministic
    // series, the value agrees bit-for-bit with the legacy path, and the
    // guarantee survives compaction.
    let dir = temp_dir("estimate");
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    for (i, ts) in [0u64, 60, 120, 3700].iter().enumerate() {
        store
            .ingest("flows", *ts, sample_batch(i as u64 * 500, 300, *ts))
            .unwrap();
        store
            .ingest("grid", *ts, spatial_batch(i as u64, 80))
            .unwrap();
    }
    let probes = [
        Query::interval(0, 999),
        Query::Total,
        Query::MultiRange(vec![vec![(0, 99)], vec![(700, 1299)]]),
    ];
    for q in &probes {
        let ans = store
            .estimate("flows", SummaryKind::Sample, q, 0.95, None)
            .unwrap();
        let e = ans.estimate;
        assert!(e.lower <= e.value && e.value <= e.upper, "{q}: {e:?}");
    }
    let grid_q = Query::BoxRange(vec![(0, 31), (0, 63)]);
    let grid = store
        .estimate("grid", SummaryKind::QDigest, &grid_q, 0.95, None)
        .unwrap()
        .estimate;
    assert_eq!(grid.confidence, 1.0, "deterministic kind certifies");
    assert!(grid.lower <= grid.value && grid.value <= grid.upper);

    // Values agree with the legacy path before and after compaction.
    let legacy = legacy_query(&store, "flows", SummaryKind::Sample, &[(0, 999)]);
    let est = store
        .estimate("flows", SummaryKind::Sample, &probes[0], 0.95, None)
        .unwrap();
    assert_eq!(legacy.to_bits(), est.estimate.value.to_bits());
    assert!(store.compact_once().unwrap() > 0);
    let legacy_after = legacy_query(&store, "flows", SummaryKind::Sample, &[(0, 999)]);
    let est_after = store
        .estimate("flows", SummaryKind::Sample, &probes[0], 0.95, None)
        .unwrap();
    assert_eq!(legacy_after.to_bits(), est_after.estimate.value.to_bits());
    // Exact batches: the interval still contains the exact sub-range sum.
    let truth: f64 = (0..=999u64)
        .filter(|k| k % 500 < 300)
        .map(|k| 0.5 + (k % 11) as f64)
        .sum();
    assert!(
        est_after.estimate.lower <= truth && truth <= est_after.estimate.upper,
        "exact {truth} outside [{}, {}]",
        est_after.estimate.lower,
        est_after.estimate.upper
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

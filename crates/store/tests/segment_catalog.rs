//! Cold-catalog properties: converting stored-sample windows to v2
//! segments must change *where the bytes live* and nothing else — every
//! query answer, merge result, and compaction roll-up stays bit-identical
//! to the frame-backed store, across restarts.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_store::{frame_path, StorageFormat, Store, StoreConfig};
use sas_summaries::{encode_summary, Query, SegmentSummary, StoredSample, Summary, SummaryKind};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sas-segcat-test-{}-{id}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let rows: Vec<WeightedKey> = (lo..lo + n)
        .map(|k| WeightedKey::new(k, 1.0 + (k % 7) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Budget below the row count so the sample is genuinely probabilistic
    // (non-zero tau) and estimates carry real intervals.
    Box::new(StoredSample::one_dim(sas_sampling::order::sample(
        &rows,
        (n as usize) / 2,
        &mut rng,
    )))
}

fn probe_queries() -> Vec<Query> {
    vec![
        Query::Total,
        Query::interval(0, 120),
        Query::interval(40, 90),
        Query::MultiRange(vec![vec![(0, 20)], vec![(60, 200)]]),
    ]
}

fn seeded_store(dir: &TempDir) -> Store {
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    store.ingest("web", 65, batch(100, 80, 2)).unwrap();
    store.ingest("api", 5, batch(0, 60, 3)).unwrap();
    store
}

fn estimates(store: &Store) -> Vec<(u64, u64, f64, f64, f64)> {
    probe_queries()
        .iter()
        .map(|q| {
            let a = store
                .estimate("web", SummaryKind::Sample, q, 0.95, None)
                .unwrap();
            (
                a.windows,
                a.estimate.value.to_bits(),
                a.estimate.lower,
                a.estimate.upper,
                a.estimate.variance,
            )
        })
        .collect()
}

#[test]
fn converting_to_segments_preserves_every_answer() {
    let dir = TempDir::new("convert");
    let store = seeded_store(&dir);
    let before = estimates(&store);
    let rows = store.list();

    let converted = store.convert(StorageFormat::SegmentV2).unwrap();
    assert_eq!(converted, 3);
    // Idempotent: a second pass finds nothing to do.
    assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 0);

    assert_eq!(estimates(&store), before);
    // Same windows and item counts; only the on-disk byte size moved.
    let cold_rows = store.list();
    assert_eq!(cold_rows.len(), rows.len());
    for (a, b) in rows.iter().zip(&cold_rows) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.items, b.items);
        assert_eq!(a.batches, b.batches);
    }
}

#[test]
fn cold_catalog_survives_restart_mapped() {
    let dir = TempDir::new("restart");
    let before = {
        let store = seeded_store(&dir);
        store.convert(StorageFormat::SegmentV2).unwrap();
        estimates(&store)
    };
    // Fresh process: recovery must sniff the segment files and serve them
    // in place, bit-identically.
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    assert_eq!(estimates(&store), before);
    // The files on disk really are segments.
    for row in store.list() {
        let bytes = fs::read(frame_path(dir.path(), &row.key)).unwrap();
        assert!(sas_codec::segment::is_segment(&bytes));
    }
}

#[test]
fn converting_back_to_frames_restores_v1_bytes() {
    let frames_of = |store: &Store, dir: &TempDir| -> Vec<Vec<u8>> {
        store
            .list()
            .iter()
            .map(|row| fs::read(frame_path(dir.path(), &row.key)).unwrap())
            .collect()
    };
    let dir = TempDir::new("roundtrip");
    let store = seeded_store(&dir);
    // The windows live in the batch log until converted; their v1 frames
    // are their encodings.
    let v1: Vec<Vec<u8>> = store
        .snapshot()
        .windows
        .values()
        .map(|w| encode_summary(w.summary.as_ref()))
        .collect();
    store.convert(StorageFormat::SegmentV2).unwrap();
    assert_eq!(store.convert(StorageFormat::FrameV1).unwrap(), 3);
    assert_eq!(frames_of(&store, &dir), v1);
}

#[test]
fn ingest_into_cold_window_matches_warm_store() {
    // Two stores ingest the same sequence; one converts to segments midway.
    // The segment detour must not change a single merge outcome.
    let warm_dir = TempDir::new("warm");
    let cold_dir = TempDir::new("cold");
    let warm = seeded_store(&warm_dir);
    let cold = seeded_store(&cold_dir);
    cold.convert(StorageFormat::SegmentV2).unwrap();

    for (ts, lo, seed) in [(6u64, 300u64, 10u64), (66, 400, 11), (7, 500, 12)] {
        warm.ingest("web", ts, batch(lo, 50, seed)).unwrap();
        cold.ingest("web", ts, batch(lo, 50, seed)).unwrap();
    }
    assert_eq!(estimates(&warm), estimates(&cold));
    // The re-ingested windows were hydrated in memory and keep their new
    // batches in the batch log on top of their segment files; the
    // untouched "api" window is still served from its segment.
    for w in cold.snapshot().windows.values() {
        let bytes = fs::read(frame_path(cold_dir.path(), &w.key)).unwrap();
        assert!(sas_codec::segment::is_segment(&bytes), "{}", w.key);
        let mapped = w
            .summary
            .as_any()
            .downcast_ref::<SegmentSummary>()
            .is_some();
        let expect_segment = w.key.dataset == "api";
        assert_eq!(mapped, expect_segment, "{}", w.key);
        assert_eq!(
            w.persisted_batches() < w.batches,
            !expect_segment,
            "{}",
            w.key
        );
    }
}

#[test]
fn compaction_over_cold_windows_matches_warm_store() {
    let warm_dir = TempDir::new("warm-compact");
    let cold_dir = TempDir::new("cold-compact");
    let warm = Store::open(warm_dir.path(), StoreConfig::default()).unwrap();
    let cold = Store::open(cold_dir.path(), StoreConfig::default()).unwrap();
    // Fill one hour's worth of minute windows, then one more ingest past
    // the hour so the watermark seals it.
    for store in [&warm, &cold] {
        for m in 0..5u64 {
            store.ingest("web", m * 60, batch(m * 100, 60, m)).unwrap();
        }
    }
    cold.convert(StorageFormat::SegmentV2).unwrap();
    for store in [&warm, &cold] {
        store.ingest("web", 3600, batch(900, 30, 99)).unwrap();
        assert!(store.compact_once().unwrap() > 0);
    }
    assert_eq!(estimates(&warm), estimates(&cold));
    let (warm_snap, cold_snap) = (warm.snapshot(), cold.snapshot());
    assert_eq!(warm_snap.windows.len(), cold_snap.windows.len());
    // The rolled-up hour frame is byte-identical across the two stores,
    // and so is the window still in the batch log.
    for (w, c) in warm_snap.windows.values().zip(cold_snap.windows.values()) {
        assert_eq!(w.key, c.key);
        assert_eq!(
            encode_summary(w.summary.as_ref()),
            encode_summary(c.summary.as_ref()),
            "{}",
            w.key
        );
        assert_eq!(w.frame.is_some(), c.frame.is_some(), "{}", w.key);
        if w.frame.is_some() {
            assert_eq!(
                fs::read(frame_path(warm_dir.path(), &w.key)).unwrap(),
                fs::read(frame_path(cold_dir.path(), &c.key)).unwrap(),
                "{}",
                w.key
            );
        }
    }
    assert_eq!(
        warm_snap
            .windows
            .values()
            .filter(|w| w.frame.is_some())
            .count(),
        1
    );
}

/// One batch of `n` distinct random keys below `KEY_SPAN`, in random order
/// — successive batches interleave in key space, as real feeds do.
fn interleaved_batch(rng: &mut StdRng, kind: SummaryKind, n: usize) -> Box<dyn Summary> {
    let mut seen = std::collections::HashSet::new();
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let key = rng.gen_range(0..KEY_SPAN);
        if seen.insert(key) {
            let w = if rng.gen_bool(0.05) {
                rng.gen_range(40.0..300.0)
            } else {
                rng.gen_range(0.5..6.0)
            };
            rows.push(WeightedKey::new(key, w));
        }
    }
    match kind {
        SummaryKind::Sample => Box::new(StoredSample::one_dim(sas_sampling::order::sample(
            &rows,
            n / 3,
            rng,
        ))),
        _ => {
            let mut v = VarOptSampler::new(n / 3);
            for wk in &rows {
                v.push(wk.key, wk.weight, rng);
            }
            Box::new(v)
        }
    }
}

const KEY_SPAN: u64 = 5_000;

/// Interval, 1–16-range multi-range, `Total`, and empty-range probes.
fn lifecycle_queries(rng: &mut StdRng) -> Vec<Query> {
    let mut queries = vec![
        Query::Total,
        Query::interval(0, KEY_SPAN / 2),
        Query::interval(KEY_SPAN / 3, u64::MAX),
        // Empty ranges: beyond every key, and one point nobody ingested.
        Query::interval(KEY_SPAN, 2 * KEY_SPAN),
        Query::Point(vec![u64::MAX]),
    ];
    for _ in 0..4 {
        let (a, b) = (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..KEY_SPAN));
        queries.push(Query::interval(a.min(b), a.max(b)));
    }
    for boxes in 1..=16usize {
        let mut ends: Vec<u64> = (0..2 * boxes).map(|_| rng.gen_range(0..KEY_SPAN)).collect();
        ends.sort_unstable();
        ends.dedup();
        ends.truncate(ends.len() / 2 * 2);
        if ends.is_empty() {
            continue;
        }
        queries.push(Query::MultiRange(
            ends.chunks(2).map(|c| vec![(c[0], c[1])]).collect(),
        ));
    }
    queries
}

type Answer = (u64, [u64; 5]);

fn lifecycle_answers(store: &Store, queries: &[Query]) -> Vec<Answer> {
    let filters = [
        None,
        Some((0, 3_599)),
        Some((1_800, 9_000)),
        Some((3 * 3_600, 4 * 3_600)),
        Some((100_000, 200_000)), // matches no window
    ];
    let mut out = Vec::new();
    for dataset in ["web", "api"] {
        for kind in [SummaryKind::Sample, SummaryKind::VarOptReservoir] {
            for time in filters {
                for q in queries {
                    let a = store.estimate(dataset, kind, q, 0.9, time).unwrap();
                    assert!(!a.cached, "the cache is off: every answer is computed");
                    let e = a.estimate;
                    out.push((
                        a.windows,
                        [e.value, e.lower, e.upper, e.variance, e.confidence].map(f64::to_bits),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn whole_lifecycle_keeps_estimates_bit_identical_on_segments() {
    // Interleaved-key batches, several per minute window, for both stored
    // sample kinds; roll-ups by lifecycle ticks; conversion to mapped
    // segments; restart. Every estimate must survive the trip bit for bit.
    for budget in [None, Some(90)] {
        let dir = TempDir::new("lifecycle");
        let config = StoreConfig {
            budget,
            cache_capacity: 0,
        };
        let mut rng = StdRng::seed_from_u64(2026);
        let queries = lifecycle_queries(&mut rng);
        let store = Store::open(dir.path(), config.clone()).unwrap();
        for dataset in ["web", "api"] {
            for kind in [SummaryKind::Sample, SummaryKind::VarOptReservoir] {
                // Three hours of minute windows every 20 minutes, three
                // batches each, then one ingest past them that seals the
                // hours for compaction.
                for minute in (0..180u64).step_by(20) {
                    for _ in 0..3 {
                        let n = rng.gen_range(30..120);
                        let batch = interleaved_batch(&mut rng, kind, n);
                        store.ingest(dataset, minute * 60, batch).unwrap();
                    }
                }
                let batch = interleaved_batch(&mut rng, kind, 60);
                store.ingest(dataset, 4 * 3_600, batch).unwrap();
            }
        }
        let stats = store.lifecycle_tick().unwrap();
        assert!(stats.rollups >= 3 * 4, "{budget:?}: {stats:?}");
        let before = lifecycle_answers(&store, &queries);
        assert!(before.iter().any(|(windows, _)| *windows > 1));

        let converted = store.convert(StorageFormat::SegmentV2).unwrap();
        assert_eq!(converted, store.list().len(), "{budget:?}");
        assert_eq!(
            lifecycle_answers(&store, &queries),
            before,
            "{budget:?}: converted"
        );
        drop(store);

        let store = Store::open(dir.path(), config).unwrap();
        for row in store.list() {
            let bytes = fs::read(frame_path(dir.path(), &row.key)).unwrap();
            assert!(sas_codec::segment::is_segment(&bytes), "{}", row.key);
        }
        assert_eq!(
            lifecycle_answers(&store, &queries),
            before,
            "{budget:?}: reopened"
        );
    }
}

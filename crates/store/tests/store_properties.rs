//! System-level properties of the summary store: persistence and restart
//! recovery, the crash points of every commit, compaction-vs-rebuild
//! bit-identity, snapshot consistency under concurrent ingest + query, and
//! the TCP daemon round trip.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_core::WeightedKey;
use sas_store::client::{Client, ClientError};
use sas_store::manifest::Manifest;
use sas_store::policy::Policy;
use sas_store::server::{handle_request, Server};
use sas_store::window::{Level, WindowKey};
use sas_store::wire::{Request, Response};
use sas_store::{
    frame_path, rebuild_parent, EstimateAnswer, LifecycleStats, StorageFormat, Store, StoreConfig,
    StoreError,
};
use sas_summaries::{
    decode_summary, encode_summary, Estimate, Query, StoredSample, Summary, SummaryKind,
};

/// A unique store directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sas-store-test-{}-{id}-{name}", std::process::id()));
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

/// An *exact* 1-D sample batch: budget ≥ rows, so every key survives with
/// its original weight and range sums are exact — which is what lets the
/// tests assert equality rather than tolerances.
fn batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let rows: Vec<WeightedKey> = (lo..lo + n)
        .map(|k| WeightedKey::new(k, 1.0 + (k % 7) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(StoredSample::one_dim(sas_sampling::order::sample(
        &rows,
        rows.len(),
        &mut rng,
    )))
}

fn exact_total(lo: u64, n: u64) -> f64 {
    (lo..lo + n).map(|k| 1.0 + (k % 7) as f64).sum()
}

const FULL: &[(u64, u64)] = &[(0, u64::MAX)];

/// A box estimate at confidence 0.95 — the answer the value-only
/// `REQ_QUERY` tag serves.
fn query(
    store: &Store,
    dataset: &str,
    kind: SummaryKind,
    range: &[(u64, u64)],
    time: Option<(u64, u64)>,
) -> EstimateAnswer {
    store
        .estimate(dataset, kind, &Query::BoxRange(range.to_vec()), 0.95, time)
        .unwrap()
}

/// The point estimate of a box query against one summary.
fn box_value(s: &dyn Summary, range: &[(u64, u64)]) -> f64 {
    s.answer(&Query::BoxRange(range.to_vec()), 0.95)
        .unwrap()
        .value
}

/// The value a legacy `REQ_QUERY` request for a sample series answers.
fn legacy_query(store: &Store, dataset: &str, range: &[(u64, u64)]) -> f64 {
    let req = Request::Query {
        dataset: dataset.into(),
        kind: SummaryKind::Sample,
        range: range.to_vec(),
        time: None,
    };
    match handle_request(store, req) {
        Response::Query { value, .. } => value,
        other => panic!("expected a query answer, got {other:?}"),
    }
}

#[test]
fn ingest_persists_and_recovers_bit_identically() {
    let dir = TempDir::new("recover");
    let ranges: Vec<Vec<(u64, u64)>> = vec![vec![(0, u64::MAX)], vec![(0, 120)], vec![(40, 90)]];
    let (answers, rows) = {
        let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
        store.ingest("web", 5, batch(0, 100, 1)).unwrap();
        store.ingest("web", 65, batch(100, 50, 2)).unwrap();
        store.ingest("web", 70, batch(150, 50, 3)).unwrap(); // same window as 65
        store.ingest("api", 5, batch(0, 30, 4)).unwrap();
        let answers: Vec<f64> = ranges
            .iter()
            .map(|r| {
                query(&store, "web", SummaryKind::Sample, r, None)
                    .estimate
                    .value
            })
            .collect();
        assert_eq!(
            query(&store, "web", SummaryKind::Sample, FULL, None)
                .estimate
                .value,
            exact_total(0, 200)
        );
        // Two minute windows for web (65 and 70 share one), one for api.
        assert_eq!(store.list().len(), 3);
        (answers, store.list())
    };
    // A fresh process recovers the catalog purely from disk.
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    assert_eq!(store.list(), rows);
    for (r, expect) in ranges.iter().zip(&answers) {
        let got = query(&store, "web", SummaryKind::Sample, r, None)
            .estimate
            .value;
        assert_eq!(got.to_bits(), expect.to_bits(), "range {r:?}");
    }
    // Time filtering selects windows by span.
    assert_eq!(
        query(&store, "web", SummaryKind::Sample, FULL, Some((0, 59)))
            .estimate
            .value,
        exact_total(0, 100)
    );
    assert_eq!(
        query(&store, "web", SummaryKind::Sample, FULL, Some((60, 119)))
            .estimate
            .value,
        exact_total(100, 100)
    );
}

#[test]
fn budgeted_compaction_matches_offline_rebuild() {
    // Budgeted roll-ups re-subsample through the structure-aware threshold
    // merge, and one compaction pass rolls up several hours. Each hour
    // frame must equal the offline `rebuild_parent` byte for byte, across
    // many store layouts.
    for seed in 0..30u64 {
        let dir = TempDir::new("compact-budget");
        let store = Store::open(
            dir.path(),
            StoreConfig {
                budget: Some(25),
                cache_capacity: 16,
            },
        )
        .unwrap();
        // Three minutes in hour 0, two in hour 1, one sealer in hour 2.
        for (i, ts) in [0u64, 60, 120, 3600, 3660, 7200].into_iter().enumerate() {
            store
                .ingest(
                    "web",
                    ts,
                    batch(seed * 6000 + i as u64 * 1000, 80, seed * 10 + i as u64),
                )
                .unwrap();
        }
        // The minutes live in the batch log; their frames are their
        // encodings.
        let minute_frames: Vec<(WindowKey, Vec<u8>)> = store
            .snapshot()
            .windows
            .values()
            .map(|w| (w.key.clone(), encode_summary(w.summary.as_ref())))
            .collect();
        assert_eq!(store.compact_once().unwrap(), 2);
        for hour_start in [0u64, 3600] {
            let hour_key = WindowKey {
                dataset: "web".into(),
                kind: SummaryKind::Sample,
                level: Level::Hour,
                start: hour_start,
            };
            let children: Vec<Box<dyn Summary>> = minute_frames
                .iter()
                .filter(|(k, _)| k.parent().unwrap() == hour_key)
                .map(|(_, bytes)| decode_summary(bytes).unwrap())
                .collect();
            let rebuilt = rebuild_parent(&hour_key, children, Some(25)).unwrap();
            let on_disk = fs::read(frame_path(dir.path(), &hour_key)).unwrap();
            assert_eq!(
                on_disk,
                encode_summary(rebuilt.as_ref()),
                "seed {seed}, hour {hour_start}: budgeted compaction must \
                 equal the offline rebuild byte-for-byte"
            );
        }
    }
}

#[test]
fn compaction_is_bit_identical_to_offline_rebuild() {
    let dir = TempDir::new("compact");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    // Three minutes in hour 0, two in hour 1, one in hour 2 (the sealer).
    for (i, ts) in [0u64, 60, 120, 3600, 3660, 7200].into_iter().enumerate() {
        store
            .ingest("web", ts, batch(i as u64 * 1000, 80, i as u64))
            .unwrap();
    }
    let total_before = query(&store, "web", SummaryKind::Sample, FULL, None)
        .estimate
        .value;

    // Capture the minute frames compaction will consume (the minutes live
    // in the batch log; their frames are their encodings).
    let minute_frames: Vec<(WindowKey, Vec<u8>)> = store
        .snapshot()
        .windows
        .values()
        .map(|w| (w.key.clone(), encode_summary(w.summary.as_ref())))
        .collect();

    // Hours 0 and 1 are sealed (watermark = 7260); hour 2 is still open.
    assert_eq!(store.compact_once().unwrap(), 2);
    let list = store.list();
    let levels: Vec<Level> = list.iter().map(|r| r.key.level).collect();
    assert_eq!(levels, vec![Level::Minute, Level::Hour, Level::Hour]);

    for hour_start in [0u64, 3600] {
        let hour_key = WindowKey {
            dataset: "web".into(),
            kind: SummaryKind::Sample,
            level: Level::Hour,
            start: hour_start,
        };
        let children: Vec<Box<dyn Summary>> = minute_frames
            .iter()
            .filter(|(k, _)| k.parent().unwrap() == hour_key)
            .map(|(_, bytes)| decode_summary(bytes).unwrap())
            .collect();
        assert!(!children.is_empty());
        let rebuilt = rebuild_parent(&hour_key, children, None).unwrap();
        let on_disk = fs::read(frame_path(dir.path(), &hour_key)).unwrap();
        assert_eq!(
            on_disk,
            encode_summary(rebuilt.as_ref()),
            "hour {hour_start}: compaction must equal the offline rebuild byte-for-byte"
        );
        // The consumed minute frames are gone from disk.
        for (k, _) in minute_frames
            .iter()
            .filter(|(k, _)| k.level == Level::Minute)
        {
            if k.parent().unwrap() == hour_key {
                assert!(!frame_path(dir.path(), k).exists());
            }
        }
    }

    // The answers survive the roll-up (same data, re-associated sum).
    let total_after = query(&store, "web", SummaryKind::Sample, FULL, None)
        .estimate
        .value;
    assert!((total_after - total_before).abs() / total_before < 1e-12);

    // History below the compaction floor is immutable.
    match store.ingest("web", 30, batch(0, 5, 9)) {
        Err(StoreError::Stale { floor, .. }) => assert_eq!(floor, 7200),
        other => panic!("expected Stale, got {other:?}"),
    }

    // An ingest past the day boundary seals everything: the leftover
    // minute cascades into its hour and the hours into the day, in one
    // pass.
    store.ingest("web", 86_460, batch(9000, 40, 7)).unwrap();
    assert_eq!(store.compact_once().unwrap(), 2);
    let levels: Vec<Level> = store.list().iter().map(|r| r.key.level).collect();
    assert_eq!(levels, vec![Level::Minute, Level::Day]);
    let total_final = query(&store, "web", SummaryKind::Sample, FULL, None)
        .estimate
        .value;
    let truth = total_before + exact_total(9000, 40);
    assert!((total_final - truth).abs() / truth < 1e-12);

    // Restart after compaction recovers the same catalog and answers.
    let answer = query(&store, "web", SummaryKind::Sample, &[(0, 5000)], None)
        .estimate
        .value;
    drop(store);
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    assert_eq!(
        query(&store, "web", SummaryKind::Sample, &[(0, 5000)], None)
            .estimate
            .value
            .to_bits(),
        answer.to_bits()
    );
    // And a compacted store still refuses stale writes after restart.
    assert!(matches!(
        store.ingest("web", 30, batch(0, 5, 9)),
        Err(StoreError::Stale { .. })
    ));
}

#[test]
fn budgeted_windows_stay_bounded_and_conserve_totals() {
    let dir = TempDir::new("budget");
    let store = Store::open(
        dir.path(),
        StoreConfig {
            budget: Some(64),
            ..StoreConfig::default()
        },
    )
    .unwrap();
    for i in 0..12u64 {
        store.ingest("web", 7, batch(i * 500, 300, i)).unwrap();
    }
    let rows = store.list();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].items <= 64, "window capped by the merge budget");
    let truth: f64 = (0..12u64).map(|i| exact_total(i * 500, 300)).sum();
    let est = query(&store, "web", SummaryKind::Sample, FULL, None)
        .estimate
        .value;
    // The threshold merge conserves the total exactly.
    assert!((est - truth).abs() / truth < 1e-9, "{est} vs {truth}");
}

#[test]
fn concurrent_ingest_and_queries_see_consistent_snapshots() {
    let dir = TempDir::new("concurrent");
    let store = Arc::new(Store::open(dir.path(), StoreConfig::default()).unwrap());
    let done = Arc::new(AtomicBool::new(false));
    const BATCHES: u64 = 40;
    // Every reader has answered one query before any writer starts, so
    // each reader runs however the threads are scheduled.
    let start = Arc::new(Barrier::new(2 + 4));

    // Two writers on separate datasets ingesting in parallel.
    let writers: Vec<_> = ["web", "api"]
        .into_iter()
        .enumerate()
        .map(|(w, dataset)| {
            let store = store.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..BATCHES {
                    let ts = i * 45; // crosses minute windows
                    store
                        .ingest(dataset, ts, batch(i * 200, 100, w as u64 * 1000 + i))
                        .unwrap();
                }
            })
        })
        .collect();

    // Four readers issuing full-range queries throughout. Monotonicity is
    // the consistency property: ingest only appends weight, so for an
    // unbudgeted sample store both the snapshot version and the
    // full-domain estimate must never decrease.
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let store = store.clone();
            let done = done.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let dataset = if r % 2 == 0 { "web" } else { "api" };
                let mut last_version = 0;
                let mut last_value = 0.0f64;
                let mut observed = 0u64;
                loop {
                    let ans = query(&store, dataset, SummaryKind::Sample, FULL, None);
                    assert!(
                        ans.version >= last_version,
                        "snapshot versions must be monotone"
                    );
                    assert!(
                        ans.estimate.value >= last_value,
                        "{dataset}: estimate went backwards: {} after {}",
                        ans.estimate.value,
                        last_value
                    );
                    last_version = ans.version;
                    last_value = ans.estimate.value;
                    observed += 1;
                    if observed == 1 {
                        start.wait();
                    } else if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observed
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have run");
    }

    // Quiesced: the served answers equal an offline recompute from what
    // is on disk (a store recovered from the directory), summed in catalog
    // order — bit for bit.
    let served: Vec<f64> = ["web", "api"]
        .iter()
        .map(|dataset| {
            query(&store, dataset, SummaryKind::Sample, FULL, None)
                .estimate
                .value
        })
        .collect();
    drop(store);
    let recovered = Store::open(dir.path(), StoreConfig::default()).unwrap();
    for (dataset, served) in ["web", "api"].into_iter().zip(served) {
        let offline: f64 = recovered
            .snapshot()
            .windows
            .values()
            .filter(|w| w.key.dataset == dataset)
            .map(|w| box_value(w.summary.as_ref(), FULL))
            .sum();
        assert_eq!(served.to_bits(), offline.to_bits(), "{dataset}");
        let truth: f64 = (0..BATCHES).map(|i| exact_total(i * 200, 100)).sum();
        assert!((served - truth).abs() / truth < 1e-9);
    }
}

#[test]
fn daemon_round_trip_over_tcp() {
    let dir = TempDir::new("daemon");
    let store = Arc::new(Store::open(dir.path(), StoreConfig::default()).unwrap());
    let server = Server::start(store.clone(), "127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let ack = client
        .ingest("web", 61, encode_summary(batch(0, 120, 1).as_ref()))
        .unwrap();
    assert_eq!((ack.level, ack.start, ack.items), (Level::Minute, 60, 120));

    let remote = client
        .query("web", SummaryKind::Sample, FULL, None)
        .unwrap();
    let local = query(&store, "web", SummaryKind::Sample, FULL, None);
    assert_eq!(remote.value.to_bits(), local.estimate.value.to_bits());
    assert_eq!(remote.windows, 1);
    // Same query again: served from the LRU cache.
    let again = client
        .query("web", SummaryKind::Sample, FULL, None)
        .unwrap();
    assert!(again.cached);
    assert_eq!(again.value.to_bits(), remote.value.to_bits());

    let rows = client.list().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].key.dataset, "web");
    let stats = client.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
    };
    assert_eq!(get("windows"), 1);
    assert_eq!(get("ingested_batches"), 1);
    assert!(get("cache_hits") >= 1);

    // Server-side errors arrive as messages, not hangups: the connection
    // keeps working afterwards.
    match client.ingest("bad/name", 0, encode_summary(batch(0, 5, 2).as_ref())) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("dataset"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    match client.ingest("web", 0, b"SASF not really".to_vec()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("bad batch frame"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    assert!(client.query("web", SummaryKind::Sample, FULL, None).is_ok());

    // Parallel clients hammer queries while another client ingests.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last = 0.0f64;
                for _ in 0..50 {
                    let ans = c.query("web", SummaryKind::Sample, FULL, None).unwrap();
                    assert!(ans.value >= last);
                    last = ans.value;
                }
            })
        })
        .collect();
    for i in 0..10u64 {
        client
            .ingest(
                "web",
                61,
                encode_summary(batch(1000 + i * 50, 50, i).as_ref()),
            )
            .unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }

    // An idle client holding its connection open must not keep the daemon
    // alive: shutdown closes parked connections (regression: wait() used
    // to hang forever here).
    let _idle = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.wait();
    // The daemon is gone; a fresh exchange cannot complete.
    let mut dead = match Client::connect(addr) {
        Err(_) => return,
        Ok(c) => c,
    };
    assert!(dead.query("web", SummaryKind::Sample, FULL, None).is_err());
}

#[test]
fn crash_debris_and_orphans_are_swept_on_open() {
    let dir = TempDir::new("debris");
    {
        let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
        store.ingest("web", 5, batch(0, 60, 1)).unwrap();
    }
    // Simulate a crash mid-write (truncated temp never renamed) and a
    // frame orphaned by an interrupted compaction.
    let window_dir = dir.path().join("web/sample/minute");
    fs::create_dir_all(&window_dir).unwrap();
    fs::write(window_dir.join("0.sas.tmp-12345-0"), b"torn").unwrap();
    fs::write(
        window_dir.join("999960.sas"),
        encode_summary(batch(0, 10, 2).as_ref()),
    )
    .unwrap();
    // Files the store never names, at the root, in a subdirectory, next to
    // the frames, and shaped like a temp file or a non-canonical frame:
    // none of them is the store's to delete.
    fs::create_dir_all(dir.path().join("notes")).unwrap();
    let foreign = [
        dir.path().join("README.txt"),
        dir.path().join("notes/todo.md"),
        dir.path().join("notes/todo.md.tmp-12345-0"),
        window_dir.join("notes.txt"),
        window_dir.join("007.sas"),
    ];
    for f in &foreign {
        fs::write(f, b"keep me").unwrap();
    }

    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    assert_eq!(store.list().len(), 1, "orphan not resurrected");
    assert_eq!(
        query(&store, "web", SummaryKind::Sample, FULL, None)
            .estimate
            .value,
        exact_total(0, 60)
    );
    let stats = store.stats();
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(get("temp_files_swept"), 1);
    assert_eq!(get("orphans_removed"), 1);
    assert!(!window_dir.join("999960.sas").exists());
    assert!(!window_dir.join("0.sas.tmp-12345-0").exists());
    for f in &foreign {
        assert_eq!(fs::read(f).unwrap(), b"keep me", "{}", f.display());
    }

    // A corrupted manifest is an error, not a panic or a silent reset.
    fs::write(dir.path().join("MANIFEST.sas"), b"SASF junk").unwrap();
    assert!(Store::open(dir.path(), StoreConfig::default()).is_err());
}

#[test]
fn cache_serves_repeats_and_never_goes_stale() {
    let dir = TempDir::new("cache");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 50, 1)).unwrap();
    let r = [(0u64, 30u64)];
    let first = query(&store, "web", SummaryKind::Sample, &r, None);
    assert!(!first.cached);
    let second = query(&store, "web", SummaryKind::Sample, &r, None);
    assert!(second.cached);
    assert_eq!(
        second.estimate.value.to_bits(),
        first.estimate.value.to_bits()
    );
    // Ingest re-stamps the series: the cache may not answer with the old
    // value.
    store.ingest("web", 7, batch(10_000, 20, 2)).unwrap();
    let third = query(&store, "web", SummaryKind::Sample, &r, None);
    assert!(!third.cached, "a re-stamped series must invalidate");
    // Keys 10000.. are outside the range.
    assert_eq!(
        third.estimate.value.to_bits(),
        first.estimate.value.to_bits()
    );
    let fourth = query(&store, "web", SummaryKind::Sample, FULL, None);
    assert_eq!(
        fourth.estimate.value,
        exact_total(0, 50) + exact_total(10_000, 20)
    );
}

#[test]
fn cached_estimate_answers_only_hits_and_counts_each_query_once() {
    let dir = TempDir::new("cached-estimate");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 50, 1)).unwrap();
    let q = Query::BoxRange(vec![(0, 30)]);
    let lookup = |q: &Query| {
        store.lookup(
            "web".into(),
            SummaryKind::Sample,
            Cow::Owned(q.clone()),
            0.9,
            None,
        )
    };
    let counts = || {
        let stats = store.stats();
        let stat = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
        (stat("cache_hits"), stat("cache_misses"))
    };
    // Cold: no answer and nothing counted; answering the same lookup
    // counts the miss.
    let cold = lookup(&q);
    assert_eq!(store.cached_estimate(&cold), None);
    assert_eq!(counts(), (0, 0));
    let computed = store.answer(cold).unwrap();
    assert!(!computed.cached);
    assert_eq!(counts(), (0, 1));
    // Warm: the computed answer, bit for bit, counted as one hit.
    let hit = store
        .cached_estimate(&lookup(&q))
        .expect("a warm cache line");
    assert_eq!(
        (estimate_bits(&hit.estimate), hit.windows, hit.version),
        (
            estimate_bits(&computed.estimate),
            computed.windows,
            computed.version
        )
    );
    assert!(hit.cached);
    assert_eq!(counts(), (1, 1));
    // `Store::estimate` reads the same line.
    let estimated = store
        .estimate("web", SummaryKind::Sample, &q, 0.9, None)
        .unwrap();
    assert!(estimated.cached);
    assert_eq!(counts(), (2, 1));
    // A malformed query keeps its error: no cache probe answers it, and
    // answering it counts one miss.
    let malformed = lookup(&Query::BoxRange(vec![(9, 3)]));
    assert_eq!(store.cached_estimate(&malformed), None);
    assert!(matches!(
        store.answer(malformed),
        Err(StoreError::BadRequest(_))
    ));
    assert_eq!(counts(), (2, 2));
    // An ingest re-stamps the series: a new lookup misses rather than
    // serve the old answer.
    store.ingest("web", 7, batch(10, 20, 2)).unwrap();
    assert_eq!(store.cached_estimate(&lookup(&q)), None);
    assert_eq!(counts(), (2, 2));
}

#[test]
fn a_lookup_answers_against_the_snapshot_it_pinned() {
    // A lookup taken before an ingest into its series answers as of
    // before the ingest, and the query is counted once.
    let dir = TempDir::new("lookup-snapshot");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 50, 1)).unwrap();
    let before = store.snapshot().version;
    let lookup = store.lookup(
        "web".into(),
        SummaryKind::Sample,
        Cow::Owned(Query::Total),
        0.9,
        None,
    );
    store.ingest("web", 7, batch(10_000, 20, 2)).unwrap();
    assert!(store.snapshot().version > before);
    let answer = store.answer(lookup).unwrap();
    assert_eq!(answer.version, before);
    assert_eq!(answer.estimate.value, exact_total(0, 50));
    assert!(!answer.cached);
    let stats = store.stats();
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!((stat("cache_hits"), stat("cache_misses")), (0, 1));
    // The old answer went into the old series stamp's line: the current
    // snapshot does not read it.
    let now = store
        .estimate("web", SummaryKind::Sample, &Query::Total, 0.9, None)
        .unwrap();
    assert!(!now.cached);
    assert_eq!(
        now.estimate.value,
        exact_total(0, 50) + exact_total(10_000, 20)
    );
}

#[test]
fn estimates_carry_bounds_and_match_the_legacy_value_path() {
    let dir = TempDir::new("estimate");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    // Budgeted (non-exact) batches so the intervals are non-degenerate.
    for (i, ts) in [5u64, 65, 125].iter().enumerate() {
        let rows: Vec<WeightedKey> = (0..400u64)
            .map(|k| WeightedKey::new(i as u64 * 400 + k, 0.5 + (k % 9) as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(*ts);
        let sampled = sas_sampling::order::sample(&rows, 60, &mut rng);
        store
            .ingest("web", *ts, Box::new(StoredSample::one_dim(sampled)))
            .unwrap();
    }
    let queries = [
        Query::interval(0, 599),
        Query::Total,
        Query::MultiRange(vec![vec![(0, 99)], vec![(800, 1199)]]),
        Query::HierarchyNode { level: 8, index: 1 },
        Query::Point(vec![42]),
    ];
    for q in &queries {
        let ans = store
            .estimate("web", SummaryKind::Sample, q, 0.95, None)
            .unwrap();
        let e = ans.estimate;
        assert!(e.lower <= e.value && e.value <= e.upper, "{q}: {e:?}");
        assert_eq!(ans.windows, 3, "{q}");
        // Probabilistic answers report the requested confidence; an answer
        // that happened to be exact in every window (e.g. a point query on
        // a never-sampled or always-heavy key) reports certainty.
        assert!(
            e.confidence == 0.95 || (e.confidence == 1.0 && e.lower == e.upper),
            "{q}: {e:?}"
        );
    }
    // The estimate's value is bit-identical to the legacy `REQ_QUERY`
    // tag's for box queries — old-tag and new-tag clients must agree.
    let old = legacy_query(&store, "web", &[(0, 599)]);
    let new = store
        .estimate("web", SummaryKind::Sample, &queries[0], 0.95, None)
        .unwrap();
    assert_eq!(old.to_bits(), new.estimate.value.to_bits());
    // The exact total lies inside the Total estimate's interval (union
    // bound across the three windows).
    let truth: f64 = (0..3)
        .flat_map(|_| (0..400u64).map(|k| 0.5 + (k % 9) as f64))
        .sum();
    let total = store
        .estimate("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap()
        .estimate;
    assert!(
        total.lower <= truth && truth <= total.upper,
        "total {truth} outside [{}, {}]",
        total.lower,
        total.upper
    );
    // Unknown series: exact zero over zero windows.
    let ghost = store
        .estimate("ghost", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
    assert_eq!(ghost.windows, 0);
    assert_eq!(ghost.estimate.value, 0.0);
    assert_eq!(ghost.estimate.confidence, 1.0);
    // Malformed queries surface as BadRequest, not a panic.
    let bad = store.estimate(
        "web",
        SummaryKind::Sample,
        &Query::BoxRange(vec![(9, 3)]),
        0.95,
        None,
    );
    assert!(matches!(bad, Err(StoreError::BadRequest(_))));
}

#[test]
fn estimate_cache_keys_on_canonical_queries() {
    let dir = TempDir::new("estimate-cache");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 50, 1)).unwrap();
    // Equivalent spellings share one cache line…
    let first = store
        .estimate(
            "web",
            SummaryKind::Sample,
            &Query::BoxRange(vec![(0, u64::MAX)]),
            0.9,
            None,
        )
        .unwrap();
    assert!(!first.cached);
    for spelling in [
        Query::Total,
        Query::HierarchyNode {
            level: 64,
            index: 0,
        },
        Query::BoxRange(vec![(0, u64::MAX)]),
    ] {
        let again = store
            .estimate("web", SummaryKind::Sample, &spelling, 0.9, None)
            .unwrap();
        assert!(again.cached, "{spelling} should hit the canonical cache");
        assert_eq!(again.estimate, first.estimate);
    }
    // …but a different confidence is a different answer…
    let other = store
        .estimate("web", SummaryKind::Sample, &Query::Total, 0.5, None)
        .unwrap();
    assert!(!other.cached);
    // …and the legacy tag (confidence 0.95) agrees on the value.
    let plain = legacy_query(&store, "web", FULL);
    assert_eq!(plain.to_bits(), first.estimate.value.to_bits());
    // Ingest re-stamps the series: estimates recompute.
    store.ingest("web", 70, batch(1000, 10, 2)).unwrap();
    let after = store
        .estimate("web", SummaryKind::Sample, &Query::Total, 0.9, None)
        .unwrap();
    assert!(!after.cached, "a re-stamped series must invalidate");
}

#[test]
fn mixed_kinds_coexist_and_mismatches_fail_cleanly() {
    let dir = TempDir::new("kinds");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 40, 1)).unwrap();
    // A varopt series for the same dataset lives alongside the samples.
    let mut rng = StdRng::seed_from_u64(3);
    let mut varopt = sas_core::varopt::VarOptSampler::new(16);
    for k in 0..200u64 {
        varopt.push(k, 1.0 + (k % 5) as f64, &mut rng);
    }
    store.ingest("web", 5, Box::new(varopt)).unwrap();
    assert_eq!(store.list().len(), 2);
    let sample_ans = query(&store, "web", SummaryKind::Sample, FULL, None);
    let varopt_ans = query(&store, "web", SummaryKind::VarOptReservoir, FULL, None);
    assert_eq!(sample_ans.windows, 1);
    assert_eq!(varopt_ans.windows, 1);
    assert!(varopt_ans.estimate.value > 0.0);
    // Unknown series: zero windows, zero estimate — not an error.
    let missing = query(&store, "nope", SummaryKind::Sample, FULL, None);
    assert_eq!((missing.estimate.value, missing.windows), (0.0, 0));
}

#[test]
fn stats_counters_are_a_view_over_the_registry() {
    let dir = TempDir::new("stats-view");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    // Two minutes of hour 0, then an hour-1 batch that seals hour 0.
    for ts in [5u64, 65, 3605] {
        store.ingest("web", ts, batch(ts, 20, ts)).unwrap();
    }
    let total = |store: &Store, dataset: &str| {
        store.estimate(dataset, SummaryKind::Sample, &Query::Total, 0.95, None)
    };
    total(&store, "web").unwrap(); // miss
    total(&store, "web").unwrap(); // hit
    legacy_query(&store, "web", &[(0, 50)]); // miss
    legacy_query(&store, "web", &[(0, 50)]); // hit
                                             // An invalid dataset name answers zero over zero windows, counted
                                             // under its own label; a malformed query is rejected, but counted.
    total(&store, "bad/name").unwrap(); // miss
    let reversed = Query::BoxRange(vec![(9, 3)]);
    assert!(store
        .estimate("web", SummaryKind::Sample, &reversed, 0.95, None)
        .is_err()); // miss
    assert_eq!(store.lifecycle_tick().unwrap().rollups, 1);
    legacy_query(&store, "web", &[(0, 50)]); // miss: the roll-up re-stamped web

    let stats = store.stats();
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
    let report = store.obs().snapshot();
    let counter = |name: &str| report.counters.iter().find(|(n, _)| n == name).unwrap().1;
    let labelled = |family: &str| -> u64 {
        let prefix = format!("{family}{{");
        report
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(stat("cache_hits"), labelled("sas_store_cache_hits_total"));
    assert_eq!(
        stat("cache_misses"),
        labelled("sas_store_cache_misses_total")
    );
    assert_eq!((stat("cache_hits"), stat("cache_misses")), (2, 5));
    assert_eq!(stat("queries"), 7);
    assert_eq!(
        stat("ingested_batches"),
        counter("sas_store_ingested_batches_total")
    );
    assert_eq!(stat("ingested_batches"), 3);
    assert_eq!(stat("rollups"), counter("sas_store_rollups_total"));
    assert_eq!(stat("rollups"), 1);
    assert_eq!(
        stat("compaction_passes"),
        counter("sas_store_compactions_total")
    );
    assert_eq!(stat("compaction_passes"), 1);
}

/// A VarOpt reservoir batch (16 slots over `n` rows), so a dataset can
/// carry a second series kind next to its samples.
fn varopt_batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut varopt = sas_core::varopt::VarOptSampler::new(16);
    for k in lo..lo + n {
        varopt.push(k, 1.0 + (k % 5) as f64, &mut rng);
    }
    Box::new(varopt)
}

fn estimate_bits(e: &Estimate) -> [u64; 5] {
    [
        e.value.to_bits(),
        e.variance.to_bits(),
        e.lower.to_bits(),
        e.upper.to_bits(),
        e.confidence.to_bits(),
    ]
}

/// [`Store::estimate`], checked bit for bit — estimate and window count —
/// against the uncached answer over the store's current snapshot.
fn ask_checked(
    store: &Store,
    dataset: &str,
    kind: SummaryKind,
    query: &Query,
    confidence: f64,
    time: Option<(u64, u64)>,
) -> EstimateAnswer {
    let answer = store
        .estimate(dataset, kind, query, confidence, time)
        .unwrap();
    let (fresh, windows) = store
        .snapshot()
        .estimate(dataset, kind, query, confidence, time)
        .unwrap();
    assert_eq!(
        (estimate_bits(&answer.estimate), answer.windows),
        (estimate_bits(&fresh), windows),
        "{dataset}/{kind} {query} @{confidence} {time:?} (cached: {})",
        answer.cached
    );
    answer
}

fn ttl_policy(ticks: u64) -> Policy {
    Policy {
        retention_ttl: Some(ticks),
        ..Policy::default()
    }
}

#[test]
fn writes_to_other_series_keep_cached_answers_live() {
    let dir = TempDir::new("series-isolation");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("a", 5, batch(0, 40, 1)).unwrap();
    store.ingest("a", 5, varopt_batch(0, 200, 2)).unwrap();
    store.ingest("b", 5, batch(0, 40, 3)).unwrap();
    let q = Query::interval(0, 30);
    let ask = || ask_checked(&store, "a", SummaryKind::Sample, &q, 0.95, None);
    let first = ask();
    assert!(!first.cached);
    assert!(ask().cached);

    store.ingest("b", 3605, batch(100, 20, 4)).unwrap();
    assert!(
        ask().cached,
        "an ingest into b/sample must not evict a/sample"
    );
    store.ingest("a", 65, varopt_batch(200, 50, 5)).unwrap();
    assert!(
        ask().cached,
        "an ingest into a/varopt must not evict a/sample: the kind is part of the series"
    );
    store.set_policy("b", ttl_policy(5000)).unwrap();
    assert!(ask().cached, "a policy change must not evict anything");
    store.ingest("b", 7205, batch(200, 20, 6)).unwrap();
    // b's watermark is 7260: its minute 0 is 5000 ticks behind it and its
    // hour 1 is sealed. Nothing of a's is due (a has no policy and its
    // watermarks are still inside hour 0).
    assert_eq!(
        store.lifecycle_tick().unwrap(),
        LifecycleStats {
            expired: 1,
            rollups: 1
        }
    );
    let last = ask();
    assert!(
        last.cached,
        "a lifecycle tick confined to b must not evict a"
    );
    // Answers still report the global version, which every publish above
    // moved: three ingests, the policy change, and the tick's retention
    // and compaction passes.
    assert_eq!(last.version, store.snapshot().version);
    assert_eq!(last.version, first.version + 6);
}

#[test]
fn writes_to_a_series_retire_only_its_cached_answers() {
    let dir = TempDir::new("series-invalidation");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("a", 5, batch(0, 40, 1)).unwrap();
    store.ingest("b", 5, batch(0, 40, 2)).unwrap();
    // Map both series up front, so the convert below has only a's new
    // window left to rewrite.
    assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 2);
    let q = Query::interval(0, 30);
    let ask = |dataset: &str| ask_checked(&store, dataset, SummaryKind::Sample, &q, 0.95, None);
    for dataset in ["a", "b"] {
        assert!(!ask(dataset).cached);
        assert!(ask(dataset).cached);
    }
    let expect_retired = |what: &str| {
        assert!(!ask("a").cached, "{what} must retire a/sample's answer");
        assert!(ask("a").cached, "{what}: the fresh answer is cached again");
        assert!(ask("b").cached, "{what} must leave b/sample's answer live");
    };

    store.ingest("a", 3605, batch(20, 30, 3)).unwrap();
    expect_retired("an ingest");
    assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 1);
    expect_retired("a SegmentV2 convert");
    // a's watermark (3660) has sealed hour 0; b's (60) has not.
    assert_eq!(store.compact_once().unwrap(), 1);
    expect_retired("a roll-up");
    store.set_policy("a", ttl_policy(60)).unwrap();
    assert!(ask("a").cached, "a policy change alone retires nothing");
    // The hour-0 roll-up ends 60 ticks behind a's watermark.
    assert_eq!(store.retain_once().unwrap(), 1);
    expect_retired("a retention pass");
}

/// Cached ≡ uncached through the whole window lifecycle. Each seeded
/// history randomly interleaves ingests into three datasets × two kinds,
/// lifecycle ticks, conversions to and from mapped segments, policy
/// changes, and dropping and reopening the store. After every step, every
/// estimate asked so far must come back from [`Store::estimate`] bit for
/// bit equal to the uncached snapshot answer. Dataset `c` runs a TTL plus
/// `compact_after` policy, and halfway through each history retention
/// empties `c`'s sample series completely before it is ingested into
/// again — the history in which a reused series stamp would address a
/// stale line.
#[test]
fn cached_answers_equal_uncached_through_the_lifecycle() {
    const SEEDS: u64 = 64;
    const STEPS: usize = 48;
    const DATASETS: [&str; 3] = ["a", "b", "c"];
    const KINDS: [SummaryKind; 2] = [SummaryKind::Sample, SummaryKind::VarOptReservoir];
    let lifecycle = Policy {
        retention_ttl: Some(1800),
        compact_after: Some(120),
        ..Policy::default()
    };
    let config = StoreConfig {
        budget: Some(24),
        ..StoreConfig::default()
    };
    type Asked = (usize, usize, Query, f64, Option<(u64, u64)>);
    let (mut hits, mut total) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let dir = TempDir::new("cached-uncached");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = Store::open(dir.path(), config.clone()).unwrap();
        store.set_policy("c", lifecycle.clone()).unwrap();
        // Next ingest tick per series; each advances on its own clock.
        let mut clock = [[0u64; 2]; 3];
        let ingest =
            |store: &Store, clock: &mut [[u64; 2]; 3], rng: &mut StdRng, d: usize, k: usize| {
                let ts = clock[d][k];
                clock[d][k] += rng.gen_range(60..2400);
                let lo = rng.gen_range(0..400u64);
                let n = rng.gen_range(10..60u64);
                let batch_seed = rng.gen::<u64>();
                let summary = match KINDS[k] {
                    SummaryKind::Sample => batch(lo, n, batch_seed),
                    _ => varopt_batch(lo, n, batch_seed),
                };
                match store.ingest(DATASETS[d], ts, summary) {
                    Ok(_) => true,
                    // A roll-up or retention pass may already have sealed the
                    // minute this tick lands in.
                    Err(StoreError::Stale { .. }) => false,
                    Err(e) => panic!("seed {seed}: ingest failed: {e}"),
                }
            };
        // One total per series up front, so every series has lines to go
        // stale from the first step on.
        let mut asked: Vec<Asked> = (0..DATASETS.len())
            .flat_map(|d| (0..KINDS.len()).map(move |k| (d, k, Query::Total, 0.9, None)))
            .collect();
        for step in 0..STEPS {
            if step == STEPS / 2 {
                // Empty c/sample by retention, ask over the empty series,
                // then ingest into it again.
                store.set_policy("c", ttl_policy(0)).unwrap();
                store.retain_once().unwrap();
                let c_windows = store.list().iter().filter(|r| r.key.dataset == "c").count();
                assert_eq!(c_windows, 0, "seed {seed}: retention emptied c");
                let empty = ask_checked(&store, "c", KINDS[0], &Query::Total, 0.9, None);
                assert_eq!((empty.estimate.value, empty.windows), (0.0, 0));
                store.set_policy("c", lifecycle.clone()).unwrap();
                // The next minute boundary is past every window end, so
                // past every floor retention just raised.
                clock[2][0] = (clock[2][0] / 60 + 1) * 60;
                assert!(ingest(&store, &mut clock, &mut rng, 2, 0));
            } else {
                match rng.gen_range(0..12u32) {
                    0..=5 => {
                        let (d, k) = (rng.gen_range(0..3usize), rng.gen_range(0..2usize));
                        ingest(&store, &mut clock, &mut rng, d, k);
                    }
                    6 | 7 => {
                        store.lifecycle_tick().unwrap();
                    }
                    8 => {
                        store.convert(StorageFormat::SegmentV2).unwrap();
                    }
                    9 => {
                        store.convert(StorageFormat::FrameV1).unwrap();
                    }
                    10 => {
                        let dataset = DATASETS[rng.gen_range(0..2usize)];
                        let policy = match rng.gen_range(0..3u32) {
                            0 => Policy::default(),
                            1 => ttl_policy(2400),
                            _ => Policy {
                                compact_after: Some(300),
                                ..Policy::default()
                            },
                        };
                        store.set_policy(dataset, policy).unwrap();
                    }
                    _ => {
                        drop(store);
                        store = Store::open(dir.path(), config.clone()).unwrap();
                    }
                }
            }
            let lo = rng.gen_range(0..300u64);
            let query = if rng.gen_bool(0.2) {
                Query::Total
            } else {
                Query::interval(lo, lo + rng.gen_range(1..200u64))
            };
            let time = match rng.gen_range(0..3u32) {
                0 => None,
                1 => Some((0, 3600)),
                _ => Some((1800, 9000)),
            };
            let confidence = if rng.gen_bool(0.5) { 0.9 } else { 0.95 };
            asked.push((
                rng.gen_range(0..3usize),
                rng.gen_range(0..2usize),
                query,
                confidence,
                time,
            ));
            for (d, k, query, confidence, time) in &asked {
                let answer =
                    ask_checked(&store, DATASETS[*d], KINDS[*k], query, *confidence, *time);
                hits += answer.cached as u64;
                total += 1;
            }
        }
    }
    // The property is vacuous unless the cache actually answers.
    assert!(
        hits * 2 > total,
        "only {hits} of {total} answers were cached"
    );
}

/// Every file under a store directory, by path relative to it.
type Files = BTreeMap<PathBuf, Vec<u8>>;

fn read_files(dir: &Path) -> Files {
    sas_store::fsio::walk_files(dir)
        .unwrap()
        .into_iter()
        .map(|path| {
            let bytes = fs::read(&path).unwrap();
            (path.strip_prefix(dir).unwrap().to_path_buf(), bytes)
        })
        .collect()
}

fn write_file(dir: &Path, rel: &Path, bytes: &[u8]) {
    let path = dir.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, bytes).unwrap();
}

/// One file-system step of a catalog change.
#[derive(Debug)]
enum Step {
    Write(PathBuf, Vec<u8>),
    Append(PathBuf, Vec<u8>),
    Delete(PathBuf),
}

/// The steps that turn directory `before` into `after`, in the order the
/// crash contract allows, with the index of the step that commits the
/// change. An ingest only appends records to the batch log: one `Append`
/// step, which commits. Any other change writes every new frame, then the
/// manifest (which commits), then the rewritten log, then every deletion.
fn commit_steps(before: &Files, after: &Files) -> (Vec<Step>, usize) {
    let manifest = PathBuf::from(sas_store::MANIFEST_FILE);
    let log = PathBuf::from(sas_store::LOG_FILE);
    let (log_before, log_after) = (&before[&log], &after[&log]);
    if before.get(&manifest) == after.get(&manifest) {
        let others = |files: &Files| -> Vec<PathBuf> {
            files.keys().filter(|p| **p != log).cloned().collect()
        };
        assert_eq!(others(before), others(after), "an ingest writes no file");
        assert!(
            log_after.len() > log_before.len() && log_after.starts_with(log_before),
            "an ingest only appends to the log"
        );
        let appended = log_after[log_before.len()..].to_vec();
        return (vec![Step::Append(log, appended)], 0);
    }
    for (path, bytes) in before {
        if *path != manifest && *path != log && after.get(path).is_some_and(|b| b != bytes) {
            // Only a re-encode of the same batches may rewrite a frame in
            // place; no scenario here does.
            panic!("{} was rewritten in place", path.display());
        }
    }
    let mut steps: Vec<Step> = after
        .iter()
        .filter(|(path, _)| **path != manifest && !before.contains_key(*path))
        .map(|(path, bytes)| Step::Write(path.clone(), bytes.clone()))
        .collect();
    let manifest_step = steps.len();
    steps.push(Step::Write(manifest.clone(), after[&manifest].clone()));
    if log_before != log_after {
        steps.push(Step::Write(log, log_after.clone()));
    }
    steps.extend(
        before
            .keys()
            .filter(|path| !after.contains_key(*path))
            .map(|path| Step::Delete(path.clone())),
    );
    (steps, manifest_step)
}

fn append_file(dir: &Path, rel: &Path, bytes: &[u8]) {
    use std::io::Write as _;
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(dir.join(rel))
        .unwrap();
    f.write_all(bytes).unwrap();
}

/// What a store recovered from `dir` serves, bit for bit: its window rows,
/// and the total, one box and one multi-range of `web`'s samples at 0.9.
fn recovered(dir: &Path) -> (Vec<sas_store::wire::WindowRow>, Vec<[u64; 5]>) {
    let store = Store::open(dir, StoreConfig::default()).unwrap();
    (store.list(), battery(&store))
}

/// The total, one box and one multi-range of `web`'s samples at 0.9.
fn battery(store: &Store) -> Vec<[u64; 5]> {
    let battery = [
        Query::Total,
        Query::BoxRange(vec![(10, 120)]),
        Query::MultiRange(vec![vec![(0, 30)], vec![(60, 90)], vec![(200, 4000)]]),
    ];
    battery
        .iter()
        .map(|q| {
            let answer = store.estimate("web", SummaryKind::Sample, q, 0.9, None);
            estimate_bits(&answer.unwrap().estimate)
        })
        .collect()
}

/// Runs `op` on a store prepared by `setup`, derives the operation's
/// file-system steps from the directory before (B) and after (A) it, and
/// crashes after every prefix of them: B plus the first `k` steps, plus a
/// torn temp file when step `k + 1` is a write, or half its record when it
/// is an append. Each crashed directory must recover to exactly B's rows
/// and estimates before the commit step and to A's from it on, and
/// recovery must sweep the directory back to B's or A's files. Returns the
/// steps for the caller to check the scenario's shape, and the rows B and
/// A serve.
fn check_crash_points(
    name: &str,
    setup: impl FnOnce(&Store),
    op: impl FnOnce(&Store),
) -> (Vec<Step>, [Vec<sas_store::wire::WindowRow>; 2]) {
    let dir = TempDir::new(name);
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    setup(&store);
    let before = read_files(dir.path());
    op(&store);
    drop(store);
    let after = read_files(dir.path());
    let (steps, commit_step) = commit_steps(&before, &after);
    let serves = |files: &Files| {
        let copy = TempDir::new(name);
        for (rel, bytes) in files {
            write_file(copy.path(), rel, bytes);
        }
        recovered(copy.path())
    };
    let (serves_before, serves_after) = (serves(&before), serves(&after));
    assert_ne!(serves_before.0, serves_after.0, "{name}: the rows changed");

    for k in 0..=steps.len() {
        let crash = TempDir::new(name);
        for (rel, bytes) in &before {
            write_file(crash.path(), rel, bytes);
        }
        for step in &steps[..k] {
            match step {
                Step::Write(rel, bytes) => write_file(crash.path(), rel, bytes),
                Step::Append(rel, bytes) => append_file(crash.path(), rel, bytes),
                Step::Delete(rel) => fs::remove_file(crash.path().join(rel)).unwrap(),
            }
        }
        match steps.get(k) {
            Some(Step::Write(rel, bytes)) => {
                let mut torn = rel.clone().into_os_string();
                torn.push(format!("{}0-0", sas_store::fsio::TEMP_INFIX));
                write_file(crash.path(), Path::new(&torn), &bytes[..bytes.len() / 2]);
            }
            Some(Step::Append(rel, bytes)) => {
                append_file(crash.path(), rel, &bytes[..bytes.len() / 2]);
            }
            _ => {}
        }
        let (files, serves) = if k > commit_step {
            (&after, &serves_after)
        } else {
            (&before, &serves_before)
        };
        assert_eq!(
            &recovered(crash.path()),
            serves,
            "{name}: crash after {k} of {} steps",
            steps.len()
        );
        assert_eq!(
            &read_files(crash.path()),
            files,
            "{name}: recovery after {k} of {} steps leaves only the live files",
            steps.len()
        );
    }
    (steps, [serves_before.0, serves_after.0])
}

/// The crash points of every catalog change, enumerated: an ingest into a
/// new window and into an existing one, a roll-up, a retention pass, and a
/// `convert` that persists a window whose frame holds fewer batches than
/// the window does, each survive a crash between any two of their
/// file-system steps.
#[test]
fn every_crash_point_of_a_commit_recovers_the_old_or_the_new_catalog() {
    let shape = |steps: &[Step]| {
        let writes = steps
            .iter()
            .filter(|s| !matches!(s, Step::Delete(..)))
            .count();
        (writes, steps.len() - writes)
    };

    for (name, ts) in [("crash-ingest", 65u64), ("crash-ingest-merge", 10)] {
        let (steps, _) = check_crash_points(
            name,
            |store| {
                store.ingest("web", 5, batch(0, 50, 1)).unwrap();
            },
            |store| {
                store.ingest("web", ts, batch(100, 50, 2)).unwrap();
            },
        );
        assert!(
            matches!(steps.as_slice(), [Step::Append(..)]),
            "{name}: one log append: {steps:?}"
        );
    }

    let (steps, _) = check_crash_points(
        "crash-rollup",
        |store| {
            for ts in [0u64, 60, 120, 180] {
                store.ingest("web", ts, batch(ts, 50, ts)).unwrap();
            }
            // Seal hour 0 by moving the watermark past it.
            store.ingest("web", 3600, batch(3600, 10, 9)).unwrap();
        },
        |store| assert_eq!(store.compact_once().unwrap(), 1),
    );
    assert_eq!(shape(&steps), (3, 0), "hour, manifest, log: {steps:?}");

    let (steps, _) = check_crash_points(
        "crash-retention",
        |store| {
            store.set_policy("web", ttl_policy(120)).unwrap();
            for ts in [0u64, 60, 120, 300] {
                store.ingest("web", ts, batch(ts, 50, ts + 1)).unwrap();
            }
        },
        // The watermark is 360: the minutes ending 60, 120 and 180 are at
        // least 120 ticks behind it.
        |store| assert_eq!(store.retain_once().unwrap(), 3),
    );
    assert_eq!(shape(&steps), (2, 0), "manifest, log: {steps:?}");

    // A window persisted with 50 keys at ts 5 takes 50 more at ts 10, then
    // the convert that persists both. The new frame takes the next
    // generation instead of replacing the one the old manifest row counts
    // as one batch, so a crash anywhere recovers 1 or 2 batches, never a
    // 100-item frame counted as one.
    let (steps, [rows_before, rows_after]) = check_crash_points(
        "crash-convert",
        |store| {
            store.ingest("web", 5, batch(0, 50, 1)).unwrap();
            assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 1);
        },
        |store| {
            store.ingest("web", 10, batch(100, 50, 2)).unwrap();
            assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 1);
        },
    );
    assert_eq!(
        shape(&steps),
        (2, 1),
        "frame generation 1, manifest, generation 0: {steps:?}"
    );
    for (rows, batches) in [(rows_before, 1), (rows_after, 2)] {
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].batches, rows[0].items), (batches, 50 * batches));
    }
    // The same convert with the second batch already acknowledged: before
    // the log rewrite, the log still holds that batch's record, which the
    // new manifest row counts, so replay must skip it.
    let (steps, [rows_before, rows_after]) = check_crash_points(
        "crash-convert-logged",
        |store| {
            store.ingest("web", 5, batch(0, 50, 1)).unwrap();
            assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 1);
            store.ingest("web", 10, batch(100, 50, 2)).unwrap();
        },
        |store| assert_eq!(store.convert(StorageFormat::SegmentV2).unwrap(), 1),
    );
    assert_eq!(
        shape(&steps),
        (3, 1),
        "frame generation 1, manifest, log, generation 0: {steps:?}"
    );
    for rows in [rows_before, rows_after] {
        assert_eq!((rows[0].batches, rows[0].items), (2, 100));
    }
}

/// A store that ingested `ops` (dataset, ts, batch) in order, with a
/// per-kind budget of 30 on `web` so merges re-subsample, and a convert to
/// segments after the third ingest so later records follow a persisted
/// frame.
fn prefix_store(dir: &Path, ops: &[(&str, u64, u64)]) -> Store {
    let store = Store::open(dir, StoreConfig::default()).unwrap();
    let mut budget = Policy::default();
    budget.per_kind_budget.insert(SummaryKind::Sample.tag(), 30);
    store.set_policy("web", budget).unwrap();
    for (i, &(dataset, ts, seed)) in ops.iter().enumerate() {
        store
            .ingest(dataset, ts, batch(seed * 100, 20 + seed % 7, seed))
            .unwrap();
        if i == 2 {
            store.convert(StorageFormat::SegmentV2).unwrap();
        }
    }
    store
}

/// Every window's key, batch count and encoded summary, plus the battery.
type CatalogBits = (Vec<(WindowKey, u64, Vec<u8>)>, Vec<[u64; 5]>);

fn catalog_bits(store: &Store) -> CatalogBits {
    let windows = store
        .snapshot()
        .windows
        .values()
        .map(|w| (w.key.clone(), w.batches, encode_summary(w.summary.as_ref())))
        .collect();
    (windows, battery(store))
}

/// A log cut at any byte inside its last two records recovers exactly the
/// acknowledged prefix: the store equals, window by window and bit for
/// bit, one that ingested only the records wholly before the cut.
#[test]
fn a_log_truncated_anywhere_recovers_exactly_the_acknowledged_prefix() {
    let ops: [(&str, u64, u64); 8] = [
        ("web", 5, 1),
        ("web", 10, 2),
        ("api", 70, 3),
        ("web", 20, 4),
        ("web", 65, 5),
        ("api", 75, 6),
        ("web", 30, 7),
        ("web", 66, 8),
    ];
    let dir = TempDir::new("truncate");
    let mut ends = Vec::new();
    {
        let store = prefix_store(dir.path(), &ops[..3]);
        ends.push(
            fs::metadata(dir.path().join(sas_store::LOG_FILE))
                .unwrap()
                .len(),
        );
        for &(dataset, ts, seed) in &ops[3..] {
            store
                .ingest(dataset, ts, batch(seed * 100, 20 + seed % 7, seed))
                .unwrap();
            ends.push(
                fs::metadata(dir.path().join(sas_store::LOG_FILE))
                    .unwrap()
                    .len(),
            );
        }
    }
    let files = read_files(dir.path());
    let expect: Vec<_> = (ops.len() - 2..=ops.len())
        .map(|n| {
            let reference = TempDir::new("truncate-reference");
            catalog_bits(&prefix_store(reference.path(), &ops[..n]))
        })
        .collect();
    let log = &files[Path::new(sas_store::LOG_FILE)];
    let first_cut = ends[ends.len() - 3];
    assert_eq!(*ends.last().unwrap(), log.len() as u64);
    for cut in first_cut..=log.len() as u64 {
        let crash = TempDir::new("truncate-crash");
        for (rel, bytes) in &files {
            write_file(crash.path(), rel, bytes);
        }
        write_file(
            crash.path(),
            Path::new(sas_store::LOG_FILE),
            &log[..cut as usize],
        );
        // `ends[0]` is the log after the first three ingests and the
        // convert; each later end closes one more ingest's record.
        let ingested = 3 + ends[1..].iter().filter(|&&end| end <= cut).count();
        let store = Store::open(crash.path(), StoreConfig::default()).unwrap();
        assert_eq!(
            catalog_bits(&store),
            expect[ingested - (ops.len() - 2)],
            "cut at byte {cut}"
        );
    }
}

/// Ingests `records` batches of `keys` keys into one window of a store in
/// `dir`, one log record each, and returns each record's end offset in
/// the log.
fn logged(dir: &Path, records: u64, keys: u64) -> Vec<u64> {
    let store = Store::open(dir, StoreConfig::default()).unwrap();
    let log = dir.join(sas_store::LOG_FILE);
    (0..records)
        .map(|i| {
            store
                .ingest("web", 5 + i, batch(i * keys, keys, i))
                .unwrap();
            fs::metadata(&log).unwrap().len()
        })
        .collect()
}

/// A store in `dir` whose log is damaged at byte `at`, with whole records
/// after the damage, neither opens nor scans (`sas info`): both errors
/// name the damaged record's offset, and no file changes.
fn assert_refused(dir: &Path, at: u64) {
    let files = read_files(dir);
    let named = format!("at byte {at}:");
    let Err(err) = Store::open(dir, StoreConfig::default()) else {
        panic!("a log damaged at byte {at} opened");
    };
    assert!(err.to_string().contains(&named), "{err}");
    let manifest = fs::read(dir.join(sas_store::MANIFEST_FILE))
        .map(|bytes| Manifest::decode(&bytes).unwrap())
        .unwrap_or_default();
    let err = sas_store::scan_log(dir, &manifest).unwrap_err();
    assert!(err.to_string().contains(&named), "{err}");
    assert_eq!(read_files(dir), files, "the damaged store was changed");
}

/// One flipped bit in the middle record of five is damage, not a torn
/// tail: records 4 and 5 were acknowledged, so the store refuses to open
/// rather than cut them off. Each position is flipped on its own: the
/// magic, the tag, the length, the body and the checksum.
#[test]
fn a_flipped_bit_mid_log_refuses_to_open_and_keeps_the_log() {
    let dir = TempDir::new("flipped-bit");
    let ends = logged(dir.path(), 5, 40);
    let log = dir.path().join(sas_store::LOG_FILE);
    let clean = fs::read(&log).unwrap();
    let (start, end) = (ends[1], ends[2]);
    for byte in [start, start + 6, start + 9, (start + end) / 2, end - 1] {
        let mut damaged = clean.clone();
        damaged[byte as usize] ^= 0x10;
        fs::write(&log, &damaged).unwrap();
        assert_refused(dir.path(), start);
    }
    fs::write(&log, &clean).unwrap();
    Store::open(dir.path(), StoreConfig::default()).unwrap();
}

/// A zeroed 4 KiB page in the middle of the log is damage too: the error
/// names the first record the page reaches into.
#[test]
fn a_zeroed_page_mid_log_refuses_to_open_and_keeps_the_log() {
    let dir = TempDir::new("zeroed-page");
    let ends = logged(dir.path(), 16, 60);
    let log = dir.path().join(sas_store::LOG_FILE);
    let mut bytes = fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    let page = mid - 2048..mid + 2048;
    assert!(
        (page.end as u64) < ends[ends.len() - 2],
        "whole records follow the page"
    );
    bytes[page.clone()].fill(0);
    fs::write(&log, &bytes).unwrap();
    let damaged = ends
        .iter()
        .copied()
        .filter(|&end| end <= page.start as u64)
        .max()
        .unwrap_or(0);
    assert_refused(dir.path(), damaged);
}

/// A per-kind budget changed between two logged ingests into one window
/// still replays bit-identically: each record carries the budget it was
/// merged under.
#[test]
fn a_budget_changed_between_logged_ingests_replays_bit_identically() {
    let dir = TempDir::new("budget-replay");
    let with_budget = |b: u64| {
        let mut p = Policy::default();
        p.per_kind_budget.insert(SummaryKind::Sample.tag(), b);
        p
    };
    let before = {
        let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
        store.set_policy("web", with_budget(40)).unwrap();
        store.ingest("web", 5, batch(0, 60, 1)).unwrap();
        store.ingest("web", 6, batch(100, 60, 2)).unwrap();
        store.set_policy("web", with_budget(15)).unwrap();
        store.ingest("web", 7, batch(200, 60, 3)).unwrap();
        store.ingest("web", 8, batch(300, 60, 4)).unwrap();
        let rows = store.list();
        assert_eq!((rows.len(), rows[0].batches, rows[0].items), (1, 4, 15));
        catalog_bits(&store)
    };
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    assert_eq!(catalog_bits(&store), before);
}

/// Ingests into new minute windows create, rename and rewrite no file:
/// the directory keeps the same names, the log keeps its inode, and only
/// the log's bytes grow.
#[test]
fn ingests_into_new_minute_windows_leave_the_file_set_unchanged() {
    use std::os::unix::fs::MetadataExt;
    let dir = TempDir::new("file-set");
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.set_policy("web", ttl_policy(86_400)).unwrap();
    let log = dir.path().join(sas_store::LOG_FILE);
    let before = read_files(dir.path());
    let inode = fs::metadata(&log).unwrap().ino();
    for i in 0..20u64 {
        store.ingest("web", i * 60, batch(i * 100, 30, i)).unwrap();
    }
    assert_eq!(store.list().len(), 20);
    let after = read_files(dir.path());
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>()
    );
    for (path, bytes) in &before {
        if path != Path::new(sas_store::LOG_FILE) {
            assert_eq!(&after[path], bytes, "{}", path.display());
        }
    }
    assert!(
        after[Path::new(sas_store::LOG_FILE)].len() > before[Path::new(sas_store::LOG_FILE)].len()
    );
    assert_eq!(fs::metadata(&log).unwrap().ino(), inode);
}

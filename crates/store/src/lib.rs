//! # sas-store — a concurrent, persistent catalog of summary windows
//!
//! The paper's summaries are mergeable and persistable (PR 2/PR 3); this
//! crate turns those two properties into a long-running system: a catalog
//! keyed by `(dataset, kind, time-window)` that ingests batches while
//! serving range queries from consistent snapshots, in the spirit of
//! continuously-aggregated sketch stores.
//!
//! ## Architecture
//!
//! * **Windowed ingest** — every batch is an erased [`Summary`] that lands
//!   in the minute window containing its timestamp, merged through the
//!   same type-erased `merge_in_place` that `sas merge` uses.
//! * **Snapshot-swapped reads** — the whole catalog lives in one immutable
//!   [`Snapshot`] behind an `Arc`. Readers clone the `Arc` (a refcount
//!   bump under a briefly-held read lock) and then query entirely
//!   lock-free; writers build the next snapshot on the side and swap it in.
//!   An LRU [`QueryCache`] memoizes hot estimates, keyed by the
//!   **series stamp** of the series they read
//!   ([`Snapshot::series_version`]): the snapshot version at which that
//!   `(dataset, kind)` series last changed. A write therefore retires only
//!   the answers of the series it touched, and since versions are never
//!   reused, a stale answer can never be addressed.
//! * **Merge-tree compaction** — [`Store::lifecycle_tick`] rolls sealed
//!   minute windows into hours and hours into days with
//!   [`sas_summaries::merge_tree`] under a per-window deterministic seed,
//!   so a compacted window is **bit-identical** to an offline rebuild of
//!   its children ([`rebuild_parent`]). The daemon's event loop drives the
//!   tick; embedded users call it themselves.
//! * **Crash-safe persistence** — an ingest is durable once one record is
//!   appended to the store-wide batch [`log`] and `sync_data`'d: no new
//!   file, rename or manifest rewrite. Minute windows live only in the log
//!   until a roll-up, a retention pass or [`Store::convert`] persists or
//!   drops them. Persisted windows are `sas-codec` frames written via
//!   temp-file + `rename` ([`fsio::write_atomic`]), referenced by an
//!   atomically-rewritten [`Manifest`]. Every such catalog change goes
//!   through one private `Commit`, whose `finish` is the one place that
//!   orders the writes: frames before the manifest that names them, then
//!   the log rewrite and the deletions the manifest made dead. Restart
//!   recovery loads the manifest's frames, replays the log through the
//!   same seeded merge, and sweeps crash debris.
//!
//! The TCP daemon (`sas serve`) and its client live in [`server`] and
//! [`client`]; the wire messages in [`wire`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod conn;
pub mod fsio;
pub mod log;
pub mod manifest;
pub mod mapped;
pub mod policy;
pub mod poller;
pub mod server;
pub mod window;
pub mod wire;

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_obs::{
    slog, Counter as ObsCounter, Histogram as ObsHistogram, Level as LogLevel, Registry,
};

use sas_codec::segment::is_segment;
use sas_codec::CodecError;
use sas_summaries::{
    decode_summary, encode_segment, encode_summary, merge_tree, Estimate, Query, QueryError,
    SegmentSummary, Summary, SummaryError, SummaryKind,
};

use cache::{CacheKey, QueryCache};
use log::{BatchLog, LogError, LogReader, LogRecord};
use manifest::{Manifest, ManifestEntry};
use policy::{Coverage, Policy};
use window::{check_dataset, valid_dataset, window_seed, Level, WindowKey};

/// File name of the store manifest inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.sas";

/// File name of the batch log inside the store directory.
pub const LOG_FILE: &str = "LOG.sas";

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Size budget applied to every window merge (ingest and compaction).
    /// Sample-based kinds re-subsample down to it; deterministic kinds
    /// ignore it. `None` lets windows grow by concatenation.
    pub budget: Option<usize>,
    /// Capacity of the LRU query cache (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            budget: None,
            cache_capacity: 1024,
        }
    }
}

/// Everything that can go wrong inside the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, annotated with the path involved.
    Io(PathBuf, io::Error),
    /// A frame or manifest failed to decode.
    Codec(CodecError),
    /// A summary merge was rejected.
    Summary(SummaryError),
    /// The caller's request is invalid (bad dataset name, kind mismatch…).
    BadRequest(String),
    /// An ingest landed below the compaction floor: its minute window was
    /// already rolled up and the roll-up is immutable.
    Stale {
        /// The minute window the batch would have landed in.
        key: WindowKey,
        /// First tick still accepting ingest for the series.
        floor: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            StoreError::Codec(e) => write!(f, "{e}"),
            StoreError::Summary(e) => write!(f, "{e}"),
            StoreError::BadRequest(msg) => write!(f, "{msg}"),
            StoreError::Stale { key, floor } => write!(
                f,
                "window {key} was already compacted (series accepts ticks >= {floor})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<SummaryError> for StoreError {
    fn from(e: SummaryError) -> Self {
        StoreError::Summary(e)
    }
}

fn log_error(path: &Path, e: LogError) -> StoreError {
    match e {
        LogError::Io(e) => StoreError::Io(path.to_path_buf(), e),
        LogError::Corrupt(at, e) => StoreError::Codec(CodecError::Invalid(format!(
            "{} at byte {at}: {e}",
            path.display()
        ))),
    }
}

/// One immutable window: its coordinate, its summary, and its write state.
#[derive(Debug)]
pub struct WindowState {
    /// Catalog coordinate.
    pub key: WindowKey,
    /// The window's summary.
    pub summary: Box<dyn Summary>,
    /// Batches merged in so far.
    pub batches: u64,
    /// Bytes the window holds on disk: its frame, if it has one, plus its
    /// live batch-log records.
    pub frame_bytes: u64,
    /// The window's persisted frame; `None` while it lives only in the
    /// batch log.
    pub frame: Option<FrameRef>,
}

impl WindowState {
    /// Batches the window's persisted frame holds (0 while it lives only
    /// in the log). Its log records from this batch index on are live.
    pub fn persisted_batches(&self) -> u64 {
        self.frame.map_or(0, |f| f.batches)
    }
}

/// A persisted window frame, as its manifest row names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Generation in the frame's file name ([`frame_file`]).
    pub generation: u64,
    /// Batches the frame holds.
    pub batches: u64,
    /// Size of the frame file in bytes.
    pub bytes: u64,
}

/// An immutable, internally consistent view of the whole catalog. Cheap to
/// clone (`Arc` per window); readers hold it for as long as they like while
/// writers publish newer versions.
#[derive(Debug)]
pub struct Snapshot {
    /// Global catalog version: bumped by every publish (ingest, roll-up,
    /// retention, convert, policy change) and never reused within a
    /// process. This is the version answers, watch pushes and `stats`
    /// report; the answer cache keys on [`Snapshot::series_versions`].
    pub version: u64,
    /// All windows in key order.
    pub windows: BTreeMap<WindowKey, Arc<WindowState>>,
    /// Series stamps per `(dataset, kind tag)`: the global version at
    /// which the series' window set last changed (a window added, removed
    /// or replaced). Derived by the store on every publish, so no writer
    /// can forget to stamp a series it changed. A series whose windows all
    /// expired keeps its entry, so its stamp still moves forward.
    pub series_versions: BTreeMap<(String, u16), u64>,
    /// Retention floors per `(dataset, kind tag)` series: the largest
    /// window end retention has dropped. Lets gap-aware answers classify
    /// uncovered spans as *expired* (below the floor) vs *missing*.
    pub retention_floors: BTreeMap<(String, u16), u64>,
}

impl Snapshot {
    /// The series stamp of `(dataset, kind)` (see
    /// [`Snapshot::series_versions`]); 0 for a series this process has
    /// never seen. Every answer over the series is a pure function of its
    /// windows, so it is a pure function of this stamp.
    pub fn series_version(&self, dataset: &str, kind: SummaryKind) -> u64 {
        self.series_versions
            .get(&(dataset.to_string(), kind.tag()))
            .copied()
            .unwrap_or(0)
    }

    /// The windows of one series, in key order. Keys order by
    /// `(dataset, kind, level, start)`, so a series is one contiguous run:
    /// walk it from the series' first possible key and stop at the first
    /// key of another series, instead of filtering the whole catalog.
    fn series<'a>(
        &'a self,
        dataset: &'a str,
        kind: SummaryKind,
    ) -> impl Iterator<Item = &'a Arc<WindowState>> + 'a {
        let first = WindowKey {
            dataset: dataset.to_string(),
            kind,
            level: Level::Minute,
            start: 0,
        };
        self.windows
            .range(first..)
            .map(|(_, w)| w)
            .take_while(move |w| w.key.dataset == dataset && w.key.kind == kind)
    }

    /// The windows a query over `(dataset, kind, time)` consults, in key
    /// order.
    pub fn matching(
        &self,
        dataset: &str,
        kind: SummaryKind,
        time: Option<(u64, u64)>,
    ) -> Vec<Arc<WindowState>> {
        self.series(dataset, kind)
            .filter(|w| time.is_none_or(|(t0, t1)| w.key.overlaps(t0, t1)))
            .cloned()
            .collect()
    }

    /// Directly computes a query estimate against this snapshot (no
    /// cache): values, variances, and bounds add across the matching
    /// windows (disjoint data). The requested failure probability is split
    /// across the windows (each answers at `1 − δ/k`), so by the union
    /// bound the summed interval holds at the requested confidence.
    pub fn estimate(
        &self,
        dataset: &str,
        kind: SummaryKind,
        query: &Query,
        confidence: f64,
        time: Option<(u64, u64)>,
    ) -> Result<(Estimate, u64), QueryError> {
        let windows = self.matching(dataset, kind, time);
        if windows.is_empty() {
            return Ok((Estimate::exact(0.0), 0));
        }
        let per_window = 1.0 - (1.0 - confidence) / windows.len() as f64;
        let mut acc = Estimate::exact(0.0);
        for w in &windows {
            acc.merge_disjoint(&w.summary.answer(query, per_window)?);
        }
        if acc.confidence < 1.0 {
            // At least one window answered probabilistically; the union
            // bound over the δ/k splits certifies the requested level.
            acc.confidence = confidence;
        }
        Ok((acc, windows.len() as u64))
    }

    /// Gap report for a series over the query time filter: which stretches
    /// of the requested span no window covered, and whether each was
    /// expired by retention or simply never ingested. Computed against the
    /// same snapshot as the answer it accompanies, so the two can never
    /// disagree about which windows exist.
    pub fn coverage(&self, dataset: &str, kind: SummaryKind, time: Option<(u64, u64)>) -> Coverage {
        let spans: Vec<(u64, u64)> = self
            .series(dataset, kind)
            .map(|w| (w.key.start, w.key.end()))
            .collect();
        let floor = self
            .retention_floors
            .get(&(dataset.to_string(), kind.tag()))
            .copied()
            .unwrap_or(0);
        Coverage::compute(&spans, time, floor)
    }
}

/// A query answer with error bounds, from [`Store::estimate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateAnswer {
    /// The estimate with its bounds.
    pub estimate: Estimate,
    /// Windows consulted.
    pub windows: u64,
    /// Whether the answer came from the LRU cache.
    pub cached: bool,
    /// Snapshot version answered against.
    pub version: u64,
}

/// An estimate started by [`Store::lookup`]: the snapshot it reads and
/// the query's cache key (or the reason the query cannot have one),
/// built once. [`Store::cached_estimate`] probes the cache with it and
/// [`Store::answer`] finishes it, on whichever thread holds it. The
/// dataset and query are borrowed when the caller keeps them (an
/// in-process [`Store::estimate`]) and owned when the lookup must
/// travel (the daemon's `Lookup<'static>`), so neither is ever copied.
#[derive(Debug)]
pub struct Lookup<'q> {
    snap: Arc<Snapshot>,
    pub(crate) dataset: Cow<'q, str>,
    kind: SummaryKind,
    query: Cow<'q, Query>,
    /// Holds the confidence and time filter too.
    pub(crate) key: Result<CacheKey, QueryError>,
}

/// Per-series mutable writer state (watermarks drive compaction sealing,
/// floors reject writes into already-compacted history) and the batch log.
#[derive(Debug)]
struct WriterState {
    /// Highest ingested tick's window end, per `(dataset, kind tag)`.
    watermarks: HashMap<(String, u16), u64>,
    /// First tick still accepting ingest, per `(dataset, kind tag)`.
    floors: HashMap<(String, u16), u64>,
    /// Installed lifecycle policies, persisted in the manifest.
    policies: BTreeMap<String, Policy>,
    /// Largest window end retention has dropped, per series. A subset of
    /// `floors` (retention bumps both); kept separately so coverage can
    /// tell *expired* history from merely compacted history, and persisted
    /// so recovery reproduces the watermark even when retention removed
    /// the newest windows.
    retention_floors: BTreeMap<(String, u16), u64>,
    manifest_sequence: u64,
    /// The open batch log; appends are serialized by the writer lock.
    log: BatchLog,
}

/// The store's metric registry plus pre-resolved hot-path handles — the
/// store's only counters ([`Store::stats`] is a view over them). Fixed
/// cells are resolved once at open; per-dataset cache counters arrive at
/// runtime, so they are memoized in a map and the query path pays one
/// `RwLock` read instead of a registry lock per request.
#[derive(Debug)]
struct StoreObs {
    registry: Arc<Registry>,
    ingested_batches: Arc<ObsCounter>,
    rollups: Arc<ObsCounter>,
    compactions: Arc<ObsCounter>,
    compaction_ns: Arc<ObsHistogram>,
    segment_hydrations: Arc<ObsCounter>,
    retention_passes: Arc<ObsCounter>,
    expired_windows: Arc<ObsCounter>,
    recovered_windows: Arc<ObsCounter>,
    orphans_removed: Arc<ObsCounter>,
    temp_files_swept: Arc<ObsCounter>,
    log_rewrites: Arc<ObsCounter>,
    /// Ingest sub-stages: waiting for the writer lock, merging the batch
    /// (and encoding its log record), appending the record plus its
    /// `sync_data`, and publishing the snapshot.
    ingest_lock_wait_ns: Arc<ObsHistogram>,
    ingest_merge_ns: Arc<ObsHistogram>,
    ingest_log_ns: Arc<ObsHistogram>,
    ingest_publish_ns: Arc<ObsHistogram>,
    datasets: RwLock<HashMap<String, CacheCells>>,
}

/// Per-dataset cache hit/miss counter handles.
#[derive(Debug, Clone)]
struct CacheCells {
    hits: Arc<ObsCounter>,
    misses: Arc<ObsCounter>,
}

impl StoreObs {
    fn new(registry: Arc<Registry>) -> StoreObs {
        StoreObs {
            ingested_batches: registry.counter("sas_store_ingested_batches_total"),
            rollups: registry.counter("sas_store_rollups_total"),
            compactions: registry.counter("sas_store_compactions_total"),
            compaction_ns: registry.histogram("sas_store_compaction_ns"),
            segment_hydrations: registry.counter("sas_store_segment_hydrations_total"),
            retention_passes: registry.counter("sas_store_retention_passes_total"),
            expired_windows: registry.counter("sas_store_expired_windows_total"),
            recovered_windows: registry.counter("sas_store_recovered_windows"),
            orphans_removed: registry.counter("sas_store_orphans_removed"),
            temp_files_swept: registry.counter("sas_store_temp_files_swept"),
            log_rewrites: registry.counter("sas_store_log_rewrites_total"),
            ingest_lock_wait_ns: registry.histogram("sas_store_ingest_ns{stage=\"lock_wait\"}"),
            ingest_merge_ns: registry.histogram("sas_store_ingest_ns{stage=\"merge\"}"),
            ingest_log_ns: registry.histogram("sas_store_ingest_ns{stage=\"log\"}"),
            ingest_publish_ns: registry.histogram("sas_store_ingest_ns{stage=\"publish\"}"),
            datasets: RwLock::new(HashMap::new()),
            registry,
        }
    }

    /// [`hydrate_clone`] with the hydration counted when it actually
    /// transforms a mapped segment into its owned form.
    fn hydrate_counted(&self, summary: &dyn Summary) -> Box<dyn Summary> {
        if summary.as_any().downcast_ref::<SegmentSummary>().is_some() {
            self.segment_hydrations.inc();
        }
        hydrate_clone(summary)
    }

    /// Merges batch number `index` into a minute window — the one merge
    /// both [`Store::ingest`] and log replay run. A new window is the
    /// batch itself; otherwise the window is seeded from its key plus the
    /// batch counter, so replaying the same batches reproduces it.
    fn apply_batch(
        &self,
        key: &WindowKey,
        window: Option<&dyn Summary>,
        index: u64,
        batch: Box<dyn Summary>,
        budget: Option<usize>,
    ) -> Result<Box<dyn Summary>, StoreError> {
        let Some(window) = window else {
            return Ok(batch);
        };
        let mut merged = self.hydrate_counted(window);
        let mut rng =
            StdRng::seed_from_u64(window_seed(key).wrapping_add(index.wrapping_mul(GOLDEN)));
        merged.merge_in_place(batch, budget, &mut rng)?;
        Ok(merged)
    }
}

/// The concurrent summary catalog. See the crate docs for the design.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    snapshot: RwLock<Arc<Snapshot>>,
    writer: Mutex<WriterState>,
    cache: QueryCache,
    obs: StoreObs,
}

impl Store {
    /// Opens (or creates) a store directory: sweeps crash debris, loads
    /// the manifest's frames, replays the batch log, removes orphaned
    /// frames, and rewrites the log if it holds dead records.
    ///
    /// Replay applies each record through the same seeded merge as
    /// [`Store::ingest`], under the budget the record carries. It skips a
    /// record whose batch index its window's manifest row already counts,
    /// or whose window starts below the series floor (compaction's or
    /// retention's): those batches are in a persisted frame or were
    /// dropped with their window. Recovery is therefore bit-identical to
    /// the catalog before the crash, minus any unacknowledged torn tail.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Store, StoreError> {
        let recovery_started = Instant::now();
        let dir = dir.into();
        fsio::create_dirs(&dir).map_err(|e| StoreError::Io(dir.clone(), e))?;
        let swept = fsio::remove_temp_files(&dir, |dest| store_file(&dir, dest))
            .map_err(|e| StoreError::Io(dir.clone(), e))?;
        let manifest = read_manifest(&dir)?;
        let obs = StoreObs::new(Arc::new(Registry::new()));

        let mut windows = BTreeMap::new();
        let (mut watermarks, floors) = recovery_marks(&manifest);
        // Segment files stay *mapped*: their validation pass walks the map
        // once (warming the page cache) and the window serves queries in
        // place with no heap copy until a merge hydrates it. v1 frames
        // decode straight from their map.
        let mut mapped_windows = 0u64;
        for entry in &manifest.entries {
            let path = frame_file(&dir, &entry.key, entry.generation);
            let buf = mapped::Mapped::open(&path).map_err(|e| StoreError::Io(path, e))?;
            let bytes = buf.len() as u64;
            let summary: Box<dyn Summary> = if is_segment(buf.as_ref()) {
                mapped_windows += 1;
                Box::new(SegmentSummary::open(Arc::new(buf))?)
            } else {
                decode_summary(buf.as_ref())?
            };
            if summary.kind() != entry.key.kind {
                return Err(StoreError::BadRequest(format!(
                    "manifest says {} holds a {} summary, file holds {}",
                    entry.key,
                    entry.key.kind,
                    summary.kind()
                )));
            }
            windows.insert(
                entry.key.clone(),
                Arc::new(WindowState {
                    key: entry.key.clone(),
                    summary,
                    batches: entry.batches,
                    frame_bytes: bytes,
                    frame: Some(FrameRef {
                        generation: entry.generation,
                        batches: entry.batches,
                        bytes,
                    }),
                }),
            );
        }

        // Orphans: frame files on disk the manifest does not name (debris
        // of a crash between a commit's frame writes and its manifest, or
        // between the manifest and its deletions). The manifest is
        // authoritative; sweep them. A file under a name the store never
        // writes is not the store's to delete.
        let log_path = dir.join(LOG_FILE);
        let expected: std::collections::HashSet<PathBuf> = windows
            .values()
            .filter_map(|w| Some(frame_file(&dir, &w.key, w.frame?.generation)))
            .collect();
        let mut orphans = 0;
        for path in fsio::walk_files(&dir).map_err(|e| StoreError::Io(dir.clone(), e))? {
            if expected.contains(&path) || parse_frame_file(&dir, &path).is_none() {
                continue;
            }
            fs::remove_file(&path).map_err(|e| StoreError::Io(path.clone(), e))?;
            orphans += 1;
        }

        let replayed = obs.replay(&log_path, &mut windows, &floors, &mut watermarks)?;
        let mut log = BatchLog::open(&log_path, replayed.valid_len, replayed.records)
            .map_err(|e| StoreError::Io(log_path.clone(), e))?;
        if replayed.dead > 0 {
            log.rewrite(|r| record_is_live(&windows, &floors, r))
                .map_err(|e| log_error(&log_path, e))?;
            obs.log_rewrites.inc();
        }
        let writer = WriterState {
            watermarks,
            floors,
            policies: manifest.policies.clone(),
            retention_floors: manifest.retention_floors.clone(),
            manifest_sequence: manifest.sequence,
            log,
        };

        // Recovery publishes version 1, so every recovered series is
        // stamped 1; the cache starts empty, so no older line exists.
        let series_versions = windows.keys().map(|k| (series_of(k), 1)).collect();
        let recovered = windows.len() as u64;
        let store = Store {
            dir,
            cache: QueryCache::new(config.cache_capacity),
            config,
            snapshot: RwLock::new(Arc::new(Snapshot {
                version: 1,
                windows,
                series_versions,
                retention_floors: manifest.retention_floors.clone(),
            })),
            writer: Mutex::new(writer),
            obs,
        };
        store.obs.recovered_windows.add(recovered);
        store.obs.orphans_removed.add(orphans);
        store.obs.temp_files_swept.add(swept);
        let recovery_ns = recovery_started.elapsed().as_nanos() as u64;
        let obs = &store.obs.registry;
        obs.counter("sas_store_recovery_ns").record_max(recovery_ns);
        obs.counter("sas_store_recovered_windows_mapped")
            .add(mapped_windows);
        obs.counter("sas_store_recovered_windows_hydrated")
            .add(manifest.entries.len() as u64 - mapped_windows);
        obs.counter("sas_store_replayed_batches")
            .add(replayed.applied);
        slog!(
            LogLevel::Info,
            "store_opened",
            windows = recovered,
            mapped = mapped_windows,
            replayed = replayed.applied,
            dead_records = replayed.dead,
            torn_log = replayed.torn,
            orphans_removed = orphans,
            temp_files_swept = swept,
            recovery_ms = recovery_ns / 1_000_000
        );
        Ok(store)
    }

    /// The store's metric registry. The daemon snapshots this for
    /// `REQ_METRICS` and registers its own connection/request metrics in
    /// it, so one report covers the whole process.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Memoized per-dataset cache hit/miss counter handles. Unvalidated
    /// dataset strings (queries do not reject them) collapse into one
    /// `"_invalid"` label so hostile names cannot mint unbounded metrics
    /// or smuggle quotes into the exposition format.
    fn cache_cells(&self, dataset: &str) -> CacheCells {
        let dataset = if valid_dataset(dataset) {
            dataset
        } else {
            "_invalid"
        };
        if let Some(cells) = self.obs.datasets.read().expect("obs lock").get(dataset) {
            return cells.clone();
        }
        let cells = CacheCells {
            hits: self.obs.registry.counter(&format!(
                "sas_store_cache_hits_total{{dataset=\"{dataset}\"}}"
            )),
            misses: self.obs.registry.counter(&format!(
                "sas_store_cache_misses_total{{dataset=\"{dataset}\"}}"
            )),
        };
        self.obs
            .datasets
            .write()
            .expect("obs lock")
            .entry(dataset.to_string())
            .or_insert(cells)
            .clone()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current catalog snapshot (lock-free to use; the read lock is
    /// held only for the `Arc` clone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.read().expect("snapshot lock").clone()
    }

    /// Merges a batch summary into the minute window containing `ts`,
    /// makes it durable by appending one record to the batch log, and
    /// publishes a new snapshot. Returns the updated window. When this
    /// returns `Ok`, the batch survives a crash; the window's frame and the
    /// manifest are untouched until a later commit persists it.
    pub fn ingest(
        &self,
        dataset: &str,
        ts: u64,
        batch: Box<dyn Summary>,
    ) -> Result<Arc<WindowState>, StoreError> {
        check_dataset(dataset).map_err(StoreError::BadRequest)?;
        let key = WindowKey::minute(dataset, batch.kind(), ts);
        let waiting = Instant::now();
        let mut writer = self.writer.lock().expect("writer lock");
        let merging = Instant::now();
        self.obs
            .ingest_lock_wait_ns
            .record_duration(merging - waiting);
        let series = series_of(&key);
        let floor = writer.floors.get(&series).copied().unwrap_or(0);
        if key.start < floor {
            return Err(StoreError::Stale { key, floor });
        }

        // Policy budget clamps apply to ingest-time merges: a per-kind
        // entry overrides the store-wide budget for this dataset. Roll-ups
        // keep the store budget so compaction stays bit-identical to the
        // offline rebuild. The record carries the budget, so replay does
        // not depend on the policy in force when it runs.
        let budget = writer
            .policies
            .get(dataset)
            .and_then(|p| p.per_kind_budget.get(&key.kind.tag()))
            .map(|&b| b as usize)
            .or(self.config.budget);
        let prev = self.snapshot();
        let existing = prev.windows.get(&key);
        let index = existing.map_or(0, |w| w.batches);
        let record = log::encode_record(&key, ts, index, budget, &encode_summary(batch.as_ref()));
        let summary = self.obs.apply_batch(
            &key,
            existing.map(|w| w.summary.as_ref()),
            index,
            batch,
            budget,
        )?;
        let logging = Instant::now();
        self.obs.ingest_merge_ns.record_duration(logging - merging);

        writer
            .log
            .append(&record)
            .map_err(|e| StoreError::Io(writer.log.path().to_path_buf(), e))?;
        let publishing = Instant::now();
        self.obs.ingest_log_ns.record_duration(publishing - logging);

        let state = Arc::new(WindowState {
            key: key.clone(),
            summary,
            batches: index + 1,
            frame_bytes: existing.map_or(0, |w| w.frame_bytes) + record.len() as u64,
            frame: existing.and_then(|w| w.frame),
        });
        bump_max(&mut writer.watermarks, series, key.end());
        let mut windows = prev.windows.clone();
        windows.insert(key, state.clone());
        self.publish(&prev, windows, &writer);
        drop(writer);
        self.obs
            .ingest_publish_ns
            .record_duration(publishing.elapsed());
        self.obs.ingested_batches.inc();
        Ok(state)
    }

    /// Swaps in the successor of `prev` with `windows`, re-stamping exactly
    /// the series whose windows differ from `prev`'s. Called with the
    /// writer lock held, so publishes are ordered.
    fn publish(
        &self,
        prev: &Snapshot,
        windows: BTreeMap<WindowKey, Arc<WindowState>>,
        writer: &WriterState,
    ) {
        let version = prev.version + 1;
        let series_versions = restamp(prev, &windows, version);
        *self.snapshot.write().expect("snapshot lock") = Arc::new(Snapshot {
            version,
            windows,
            series_versions,
            retention_floors: writer.retention_floors.clone(),
        });
    }

    /// Answers a query with error bounds from the current snapshot,
    /// through the LRU cache: [`Store::lookup`], then [`Store::answer`],
    /// the two steps every daemon query tag is answered by. The cache key
    /// is the query's **canonical** form, so equivalent spellings share
    /// one entry.
    pub fn estimate(
        &self,
        dataset: &str,
        kind: SummaryKind,
        query: &Query,
        confidence: f64,
        time: Option<(u64, u64)>,
    ) -> Result<EstimateAnswer, StoreError> {
        self.answer(self.lookup(dataset.into(), kind, Cow::Borrowed(query), confidence, time))
    }

    /// [`Store::estimate`] plus a gap report, both computed against the
    /// *same* snapshot: the answer can never describe one catalog state
    /// and the coverage another. The estimate goes through the LRU cache
    /// exactly like [`Store::estimate`], so clients of every query tag
    /// polling the same canonical query read bit-identical values.
    pub fn estimate_with_coverage(
        &self,
        dataset: &str,
        kind: SummaryKind,
        query: &Query,
        confidence: f64,
        time: Option<(u64, u64)>,
    ) -> Result<(EstimateAnswer, Coverage), StoreError> {
        let lookup = self.lookup(dataset.into(), kind, Cow::Borrowed(query), confidence, time);
        let coverage = lookup.snap.coverage(dataset, kind, time);
        Ok((self.answer(lookup)?, coverage))
    }

    /// Starts an estimate: pins the current snapshot and builds the
    /// query's cache key against it, once. A malformed query keeps its
    /// error instead; [`Store::answer`] reports it. Nothing is counted
    /// until the lookup is answered.
    pub fn lookup<'q>(
        &self,
        dataset: Cow<'q, str>,
        kind: SummaryKind,
        query: Cow<'q, Query>,
        confidence: f64,
        time: Option<(u64, u64)>,
    ) -> Lookup<'q> {
        let snap = self.snapshot();
        let key = query.canonical_bytes().map(|query| CacheKey {
            series_version: snap.series_version(&dataset, kind),
            dataset: String::from(&*dataset),
            kind_tag: kind.tag(),
            query,
            confidence_bits: confidence.to_bits(),
            time,
        });
        Lookup {
            snap,
            dataset,
            kind,
            query,
            key,
        }
    }

    /// Answers `lookup` from the LRU cache alone, without waiting: `None`
    /// on a miss, for a malformed query, or while the cache lock is held
    /// elsewhere. Only a hit is counted: the caller hands a miss to
    /// [`Store::answer`], which counts it, so each query counts once. The
    /// daemon's event loop answers cache hits through this whenever it
    /// cannot rule out a worker holding the cache lock.
    pub fn cached_estimate(&self, lookup: &Lookup<'_>) -> Option<EstimateAnswer> {
        let hit = self.cache.try_get(lookup.key.as_ref().ok()?)?;
        Some(self.cache_hit(lookup, hit))
    }

    /// Finishes an estimate against the snapshot its lookup pinned: a
    /// cache hit, or else a counted miss answered from that snapshot and
    /// cached. A lookup taken before an ingest into its series answers
    /// as of before the ingest.
    pub fn answer(&self, lookup: Lookup<'_>) -> Result<EstimateAnswer, StoreError> {
        if let Some(hit) = lookup.key.as_ref().ok().and_then(|k| self.cache.get(k)) {
            return Ok(self.cache_hit(&lookup, hit));
        }
        // Every query is a hit or a miss — a malformed one, rejected just
        // below, included — so `queries` in [`Store::stats`] is their sum.
        self.cache_cells(&lookup.dataset).misses.inc();
        let bad = |e: QueryError| StoreError::BadRequest(e.to_string());
        let key = lookup.key.map_err(bad)?;
        let (snap, confidence) = (&lookup.snap, f64::from_bits(key.confidence_bits));
        let (estimate, windows) = snap
            .estimate(
                &key.dataset,
                lookup.kind,
                &lookup.query,
                confidence,
                key.time,
            )
            .map_err(bad)?;
        self.cache.put(key, (estimate, windows));
        Ok(EstimateAnswer {
            estimate,
            windows,
            cached: false,
            version: snap.version,
        })
    }

    /// Counts a cache hit and frames it as an answer against the
    /// lookup's snapshot.
    fn cache_hit(
        &self,
        lookup: &Lookup<'_>,
        (estimate, windows): (Estimate, u64),
    ) -> EstimateAnswer {
        self.cache_cells(&lookup.dataset).hits.inc();
        EstimateAnswer {
            estimate,
            windows,
            cached: true,
            version: lookup.snap.version,
        }
    }

    /// Lists the catalog's windows in key order.
    pub fn list(&self) -> Vec<wire::WindowRow> {
        self.snapshot()
            .windows
            .values()
            .map(|w| wire::WindowRow {
                key: w.key.clone(),
                items: w.summary.item_count() as u64,
                batches: w.batches,
                frame_bytes: w.frame_bytes,
            })
            .collect()
    }

    /// Store statistics as ordered name/value pairs (also the `stats`
    /// protocol response): catalog shape from the current snapshot, plus a
    /// view over the store's registry counters (the same cells
    /// [`Store::obs`] reports), plus the batch log's records and bytes.
    pub fn stats(&self) -> Vec<(String, u64)> {
        let (log_records, log_bytes) = {
            let writer = self.writer.lock().expect("writer lock");
            (writer.log.records(), writer.log.len())
        };
        let snap = self.snapshot();
        let per_level =
            |level: Level| snap.windows.keys().filter(|k| k.level == level).count() as u64;
        let items: u64 = snap
            .windows
            .values()
            .map(|w| w.summary.item_count() as u64)
            .sum();
        let bytes: u64 = snap.windows.values().map(|w| w.frame_bytes).sum();
        let level_bytes = |level: Level| -> u64 {
            snap.windows
                .values()
                .filter(|w| w.key.level == level)
                .map(|w| w.frame_bytes)
                .sum()
        };
        let o = &self.obs;
        let (hits, misses) = o
            .datasets
            .read()
            .expect("obs lock")
            .values()
            .fold((0, 0), |(h, m), c| (h + c.hits.get(), m + c.misses.get()));
        vec![
            ("windows".into(), snap.windows.len() as u64),
            ("minute_windows".into(), per_level(Level::Minute)),
            ("hour_windows".into(), per_level(Level::Hour)),
            ("day_windows".into(), per_level(Level::Day)),
            ("items".into(), items),
            ("frame_bytes".into(), bytes),
            ("minute_frame_bytes".into(), level_bytes(Level::Minute)),
            ("hour_frame_bytes".into(), level_bytes(Level::Hour)),
            ("day_frame_bytes".into(), level_bytes(Level::Day)),
            ("snapshot_version".into(), snap.version),
            ("ingested_batches".into(), o.ingested_batches.get()),
            ("rollups".into(), o.rollups.get()),
            ("compaction_passes".into(), o.compactions.get()),
            ("retention_passes".into(), o.retention_passes.get()),
            ("expired_windows".into(), o.expired_windows.get()),
            ("queries".into(), hits + misses),
            ("cache_hits".into(), hits),
            ("cache_misses".into(), misses),
            ("cache_entries".into(), self.cache.len() as u64),
            ("recovered_windows".into(), o.recovered_windows.get()),
            ("orphans_removed".into(), o.orphans_removed.get()),
            ("temp_files_swept".into(), o.temp_files_swept.get()),
            ("log_records".into(), log_records),
            ("log_bytes".into(), log_bytes),
        ]
    }

    /// Runs one compaction pass: every sealed parent window (its span
    /// entirely below the series watermark) absorbs its children via the
    /// deterministic merge tree. Returns the number of roll-ups performed.
    pub fn compact_once(&self) -> Result<usize, StoreError> {
        let pass_started = Instant::now();
        let mut commit = self.begin();
        self.obs.compactions.inc();
        let mut rollups = 0usize;

        // Minute→hour first so freshly built hours can cascade into days
        // within the same pass.
        for level in [Level::Minute, Level::Hour] {
            let mut groups: BTreeMap<WindowKey, Vec<Arc<WindowState>>> = BTreeMap::new();
            let writer = &commit.writer;
            for (key, state) in commit.windows.iter().filter(|(k, _)| k.level == level) {
                let parent = key.parent().expect("minute/hour have parents");
                let watermark = writer.watermarks.get(&series_of(key)).copied().unwrap_or(0);
                // Policy cadence: the dataset may delay sealing until the
                // watermark has advanced `compact_after` ticks past the
                // parent's end (late batches keep landing in minutes).
                let delay = writer
                    .policies
                    .get(&key.dataset)
                    .and_then(|p| p.compact_after)
                    .unwrap_or(0);
                if parent.end().saturating_add(delay) <= watermark {
                    // BTreeMap iteration is key-ordered, so children arrive
                    // in ascending window-start order — the rebuild order.
                    groups.entry(parent).or_default().push(state.clone());
                }
            }
            for (parent_key, children) in groups {
                let batches: u64 = children.iter().map(|c| c.batches).sum();
                let merged = rebuild_parent(
                    &parent_key,
                    children
                        .iter()
                        .map(|c| self.obs.hydrate_counted(c.summary.as_ref()))
                        .collect(),
                    self.config.budget,
                )?;
                let bytes = encode_summary(merged.as_ref());
                let (_, frame) = commit.write(&parent_key, &bytes, batches)?;
                for child in &children {
                    commit.remove(&child.key);
                }
                bump_max(
                    &mut commit.writer.floors,
                    series_of(&parent_key),
                    parent_key.end(),
                );
                commit.insert(&parent_key, merged, batches, frame);
                rollups += 1;
            }
        }

        if rollups > 0 {
            commit.finish()?;
            self.obs.rollups.add(rollups as u64);
        }
        let elapsed = pass_started.elapsed();
        self.obs.compaction_ns.record_duration(elapsed);
        if rollups > 0 {
            slog!(
                LogLevel::Debug,
                "compaction_pass",
                rollups = rollups,
                us = elapsed.as_micros()
            );
        }
        Ok(rollups)
    }

    /// Runs one retention pass: every window whose span has fallen
    /// `retention_ttl` ticks behind its series watermark is dropped from
    /// the manifest, its frame deleted and its log records rewritten away.
    /// "Now" is the watermark — the largest window end ever ingested —
    /// never the wall clock, so the pass is a pure function of the ingest
    /// history: replaying the same ingests and ticks reproduces the same
    /// store bit-for-bit.
    ///
    /// The manifest (no longer naming the expired windows, now carrying
    /// their retention floor) is written *first*, the log rewrite and frame
    /// deletion second — a crash between the two leaves orphans and dead
    /// log records that `open()` sweeps.
    /// Dropped spans also raise the series ingest floor, so an expired
    /// tick can never be re-ingested (which would make retention order
    /// observable). Returns the number of windows dropped.
    pub fn retain_once(&self) -> Result<usize, StoreError> {
        let mut commit = self.begin();
        self.obs.retention_passes.inc();
        let prev = commit.prev.clone();
        let mut expired = 0usize;
        for key in prev.windows.keys() {
            let writer = &mut *commit.writer;
            let Some(ttl) = writer
                .policies
                .get(&key.dataset)
                .and_then(|p| p.retention_ttl)
            else {
                continue;
            };
            let series = series_of(key);
            let watermark = writer.watermarks.get(&series).copied().unwrap_or(0);
            if key.end().saturating_add(ttl) <= watermark {
                let floor = writer.retention_floors.entry(series.clone()).or_insert(0);
                *floor = (*floor).max(key.end());
                bump_max(&mut writer.floors, series, key.end());
                commit.remove(key);
                expired += 1;
            }
        }
        if expired > 0 {
            commit.finish()?;
            self.obs.expired_windows.add(expired as u64);
            slog!(LogLevel::Debug, "retention_pass", expired = expired);
        }
        Ok(expired)
    }

    /// One deterministic lifecycle tick: retention first (expired minutes
    /// must not be sealed into parents), then compaction. The daemon's
    /// event loop drives this on its timer; offline tools may call it
    /// directly — the result depends only on the store state, not on who
    /// ticks or when.
    pub fn lifecycle_tick(&self) -> Result<LifecycleStats, StoreError> {
        let expired = self.retain_once()?;
        let rollups = self.compact_once()?;
        Ok(LifecycleStats { expired, rollups })
    }

    /// Installs (or, for an empty policy, clears) a dataset's lifecycle
    /// policy and persists it in the manifest. Takes effect from the next
    /// ingest / lifecycle tick; nothing is retro-actively re-merged.
    pub fn set_policy(&self, dataset: &str, policy: Policy) -> Result<(), StoreError> {
        check_dataset(dataset).map_err(StoreError::BadRequest)?;
        // The manifest decoder rejects unknown kinds and zero budgets;
        // refuse to persist what recovery could not read back.
        for (&tag, &budget) in &policy.per_kind_budget {
            if SummaryKind::from_tag(tag).is_none() {
                return Err(StoreError::BadRequest(format!(
                    "policy budget names unknown summary kind tag {tag}"
                )));
            }
            if budget == 0 {
                return Err(StoreError::BadRequest(
                    "policy budget must be at least 1".into(),
                ));
            }
        }
        let mut commit = self.begin();
        if policy.is_empty() {
            commit.writer.policies.remove(dataset);
        } else {
            commit.writer.policies.insert(dataset.to_string(), policy);
        }
        // No window changes, so every series keeps its stamp and no cached
        // answer is retired.
        commit.finish()
    }

    /// The installed policy for one dataset, if any.
    pub fn policy(&self, dataset: &str) -> Option<Policy> {
        self.writer
            .lock()
            .expect("writer lock")
            .policies
            .get(dataset)
            .cloned()
    }

    /// All installed policies, in dataset order.
    pub fn policies(&self) -> Vec<(String, Policy)> {
        self.writer
            .lock()
            .expect("writer lock")
            .policies
            .iter()
            .map(|(d, p)| (d.clone(), p.clone()))
            .collect()
    }

    /// Rewrites every stored-sample window's frame in the requested format
    /// and publishes the converted catalog. A window that lives in the
    /// batch log, wholly or in part, is persisted by `SegmentV2`, which
    /// leaves each converted window **cold**: its summary becomes a mapped
    /// [`SegmentSummary`] served in place from the new file. `FrameV1`
    /// hydrates segments back to owned summaries and v1 frames. Windows
    /// whose kind has no segment layout (the deterministic summaries) are
    /// left untouched either way. Returns the number of windows rewritten.
    pub fn convert(&self, format: StorageFormat) -> Result<usize, StoreError> {
        let mut commit = self.begin();
        let prev = commit.prev.clone();
        let mut converted = 0usize;
        for (key, state) in &prev.windows {
            let is_seg = state
                .summary
                .as_any()
                .downcast_ref::<SegmentSummary>()
                .is_some();
            let (frame, summary): (FrameRef, Box<dyn Summary>) = match format {
                StorageFormat::SegmentV2 => {
                    if is_seg {
                        continue;
                    }
                    let Some(bytes) = encode_segment(state.summary.as_ref()) else {
                        continue;
                    };
                    let (path, frame) = commit.write(key, &bytes, state.batches)?;
                    let buf = mapped::Mapped::open(&path).map_err(|e| StoreError::Io(path, e))?;
                    let seg = SegmentSummary::open(Arc::new(buf))?;
                    (frame, Box::new(seg))
                }
                StorageFormat::FrameV1 => {
                    if !is_seg {
                        continue;
                    }
                    let summary = self.obs.hydrate_counted(state.summary.as_ref());
                    let bytes = encode_summary(summary.as_ref());
                    let (_, frame) = commit.write(key, &bytes, state.batches)?;
                    (frame, summary)
                }
            };
            commit.insert(key, summary, state.batches, frame);
            converted += 1;
        }
        if converted > 0 {
            commit.finish()?;
        }
        Ok(converted)
    }

    /// Starts a catalog change: takes the writer lock and pins the current
    /// snapshot, whose window map the change edits a copy of.
    fn begin(&self) -> Commit<'_> {
        let writer = self.writer.lock().expect("writer lock");
        let prev = self.snapshot();
        Commit {
            store: self,
            writer,
            windows: prev.windows.clone(),
            prev,
            doomed: Vec::new(),
        }
    }
}

/// One catalog change in flight, holding the writer lock. Every change
/// that persists or drops a window (roll-up, retention, convert) and every
/// policy change goes through it, so the crash ordering lives in one
/// place: frames are written as they are staged, [`Commit::finish`] writes
/// the manifest that names them, and only then rewrites the batch log
/// without the records the manifest made dead and deletes the frames it
/// forgot. A frame is never written over one that holds other batches
/// (see [`Commit::write`]), so a crash at any step leaves a directory that
/// `open()` recovers to the old or the new catalog. Dropping an unfinished
/// commit publishes nothing.
struct Commit<'a> {
    store: &'a Store,
    writer: MutexGuard<'a, WriterState>,
    /// The snapshot this change succeeds.
    prev: Arc<Snapshot>,
    /// The next snapshot's windows.
    windows: BTreeMap<WindowKey, Arc<WindowState>>,
    /// Frames of removed or superseded windows, deleted after the manifest.
    doomed: Vec<PathBuf>,
}

impl Commit<'_> {
    /// Writes the frame of a window holding `batches` batches atomically
    /// and returns its path and manifest reference. The frame keeps the
    /// window's current generation only when that frame holds the same
    /// batches (a re-encode); a window whose batches changed gets the next
    /// generation, and its old frame is deleted after the manifest. So no
    /// frame ever holds batches its manifest row does not count.
    fn write(
        &mut self,
        key: &WindowKey,
        bytes: &[u8],
        batches: u64,
    ) -> Result<(PathBuf, FrameRef), StoreError> {
        let generation = match self.windows.get(key).and_then(|w| w.frame) {
            None => 0,
            Some(old) if old.batches == batches => old.generation,
            Some(old) => {
                self.doomed
                    .push(frame_file(&self.store.dir, key, old.generation));
                old.generation + 1
            }
        };
        let path = frame_file(&self.store.dir, key, generation);
        fsio::write_atomic(&path, bytes).map_err(|e| StoreError::Io(path.clone(), e))?;
        let frame = FrameRef {
            generation,
            batches,
            bytes: bytes.len() as u64,
        };
        Ok((path, frame))
    }

    /// Stages a window whose frame has been written.
    fn insert(
        &mut self,
        key: &WindowKey,
        summary: Box<dyn Summary>,
        batches: u64,
        frame: FrameRef,
    ) -> Arc<WindowState> {
        let state = Arc::new(WindowState {
            key: key.clone(),
            summary,
            batches,
            frame_bytes: frame.bytes,
            frame: Some(frame),
        });
        self.windows.insert(key.clone(), state.clone());
        state
    }

    /// Stages a window's removal; its frame, if it has one, is deleted by
    /// `finish`, and its log records are rewritten away.
    fn remove(&mut self, key: &WindowKey) {
        if let Some(frame) = self.windows.remove(key).and_then(|w| w.frame) {
            self.doomed
                .push(frame_file(&self.store.dir, key, frame.generation));
        }
    }

    /// Writes the manifest, publishes the successor of `prev`, rewrites
    /// the batch log if the change made records dead (a window persisted
    /// or dropped while it held live records), then deletes the doomed
    /// frames. A crash before the manifest leaves the new frames as
    /// orphans; a crash after it leaves the old frames and the dead
    /// records. `open()` sweeps either.
    fn finish(self) -> Result<(), StoreError> {
        let Commit {
            store,
            mut writer,
            prev,
            windows,
            doomed,
        } = self;
        writer.manifest_sequence += 1;
        let manifest = Manifest {
            sequence: writer.manifest_sequence,
            entries: windows
                .values()
                .filter_map(|w| {
                    let frame = w.frame?;
                    Some(ManifestEntry {
                        key: w.key.clone(),
                        batches: frame.batches,
                        frame_bytes: frame.bytes,
                        generation: frame.generation,
                    })
                })
                .collect(),
            policies: writer.policies.clone(),
            retention_floors: writer.retention_floors.clone(),
        };
        let path = store.dir.join(MANIFEST_FILE);
        fsio::write_atomic(&path, &manifest.encode()).map_err(|e| StoreError::Io(path, e))?;
        let kills_records = logged_batches(&windows) < logged_batches(&prev.windows);
        store.publish(&prev, windows, &writer);
        if kills_records {
            let snap = store.snapshot();
            let WriterState { log, floors, .. } = &mut *writer;
            log.rewrite(|r| record_is_live(&snap.windows, floors, r))
                .map_err(|e| log_error(log.path(), e))?;
            store.obs.log_rewrites.inc();
        }
        for path in doomed {
            fs::remove_file(&path).map_err(|e| StoreError::Io(path.clone(), e))?;
        }
        Ok(())
    }
}

/// What one [`Store::lifecycle_tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Windows dropped by retention.
    pub expired: usize,
    /// Roll-ups performed by compaction.
    pub rollups: usize,
}

/// The multiplier spreading a window's batch counter into its merge seed.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// On-disk encoding for stored-sample windows, chosen by [`Store::convert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFormat {
    /// The original framed encoding (`sas-codec` v1 frames).
    FrameV1,
    /// The columnar segment encoding, queryable in place when mapped.
    SegmentV2,
}

/// Clones a window summary for mutation: mapped segments hydrate into
/// their owned form (a segment is immutable and cannot merge in place),
/// everything else is a plain `clone_box`. Hydration and a v1 decode of
/// the same data are bit-identical, so merge results do not depend on
/// which format the window happened to be stored in.
pub fn hydrate_clone(summary: &dyn Summary) -> Box<dyn Summary> {
    match summary.as_any().downcast_ref::<SegmentSummary>() {
        Some(seg) => seg.hydrate(),
        None => summary.clone_box(),
    }
}

/// Rebuilds a parent window from its children — the *definition* of what
/// compaction must produce: child summaries in ascending window order,
/// merged bottom-up by [`sas_summaries::merge_tree`] under the parent's
/// deterministic seed. Offline verification decodes persisted child frames
/// and calls this; the result is bit-identical to the store's own roll-up.
pub fn rebuild_parent(
    parent: &WindowKey,
    children: Vec<Box<dyn Summary>>,
    budget: Option<usize>,
) -> Result<Box<dyn Summary>, StoreError> {
    let mut rng = StdRng::seed_from_u64(window_seed(parent));
    Ok(merge_tree(children, budget, &mut rng)?)
}

/// On-disk location of a window's generation-0 frame: the name every
/// window's first frame gets ([`frame_file`]).
pub fn frame_path(dir: &Path, key: &WindowKey) -> PathBuf {
    frame_file(dir, key, 0)
}

/// On-disk location of a window's frame of the given generation:
/// `<dataset>/<kind>/<level>/<start>.sas` for generation 0,
/// `<start>.<generation>.sas` after it.
pub fn frame_file(dir: &Path, key: &WindowKey, generation: u64) -> PathBuf {
    let name = match generation {
        0 => format!("{}.sas", key.start),
        g => format!("{}.{g}.sas", key.start),
    };
    dir.join(&key.dataset)
        .join(key.kind.name())
        .join(key.level.name())
        .join(name)
}

/// The inverse of [`frame_file`]: the window and generation whose frame
/// `path` is under `dir`, or `None` for any path `frame_file` never
/// produces.
pub fn parse_frame_file(dir: &Path, path: &Path) -> Option<(WindowKey, u64)> {
    let parts: Vec<&str> = path
        .strip_prefix(dir)
        .ok()?
        .iter()
        .map(|c| c.to_str())
        .collect::<Option<_>>()?;
    let [dataset, kind, level, name] = parts[..] else {
        return None;
    };
    let stem = name.strip_suffix(".sas")?;
    let (start, generation) = stem.split_once('.').unwrap_or((stem, "0"));
    let key = WindowKey {
        dataset: dataset.to_string(),
        kind: SummaryKind::from_name(kind)?,
        level: Level::all().into_iter().find(|l| l.name() == level)?,
        start: start.parse().ok()?,
    };
    let generation = generation.parse().ok()?;
    // Only the canonical spelling: no leading zeros or signs, no `.0`.
    (valid_dataset(dataset) && frame_file(dir, &key, generation) == path)
        .then_some((key, generation))
}

/// Whether the store writes a file named `path` under `dir`: the manifest,
/// the batch log, or a window frame.
fn store_file(dir: &Path, path: &Path) -> bool {
    path == dir.join(MANIFEST_FILE)
        || path == dir.join(LOG_FILE)
        || parse_frame_file(dir, path).is_some()
}

/// Reads a store directory's manifest; a directory without one holds no
/// persisted window.
fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    match fs::read(&path) {
        Ok(bytes) => Ok(Manifest::decode(&bytes)?),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Manifest::default()),
        Err(e) => Err(StoreError::Io(path, e)),
    }
}

/// A value per `(dataset, kind tag)` series.
type SeriesMarks = HashMap<(String, u16), u64>;

/// The series watermarks and ingest floors a manifest implies. Retention
/// floors seed both: a dropped window proves the watermark had advanced at
/// least to its end, even when retention removed every window of the
/// series (nothing else on disk records that). This is what makes
/// retention and recovery commute bit-identically. Compacted windows raise
/// the floor to their end; every window raises the watermark.
fn recovery_marks(manifest: &Manifest) -> (SeriesMarks, SeriesMarks) {
    let (mut watermarks, mut floors) = (HashMap::new(), HashMap::new());
    for ((dataset, kind_tag), floor) in &manifest.retention_floors {
        bump_max(&mut watermarks, (dataset.clone(), *kind_tag), *floor);
        bump_max(&mut floors, (dataset.clone(), *kind_tag), *floor);
    }
    for entry in &manifest.entries {
        let series = series_of(&entry.key);
        bump_max(&mut watermarks, series.clone(), entry.key.end());
        if entry.key.level != Level::Minute {
            bump_max(&mut floors, series, entry.key.end());
        }
    }
    (watermarks, floors)
}

fn floor_of(floors: &SeriesMarks, key: &WindowKey) -> u64 {
    floors.get(&series_of(key)).copied().unwrap_or(0)
}

/// The replay rule: a log record for `key` is dead when its window starts
/// below the series floor (rolled up or expired) or its batch `index` is
/// already counted by the window's frame, which holds `persisted` batches.
fn record_is_dead(key: &WindowKey, index: u64, floors: &SeriesMarks, persisted: u64) -> bool {
    key.start < floor_of(floors, key) || index < persisted
}

/// Whether a log record holds a batch the catalog still needs: its window
/// is in the catalog and the record is not dead.
fn record_is_live(
    windows: &BTreeMap<WindowKey, Arc<WindowState>>,
    floors: &SeriesMarks,
    record: &LogRecord,
) -> bool {
    let key = record.key();
    windows
        .get(&key)
        .is_some_and(|w| !record_is_dead(&key, record.index, floors, w.persisted_batches()))
}

/// Batches the catalog holds only in the batch log: its live records.
fn logged_batches(windows: &BTreeMap<WindowKey, Arc<WindowState>>) -> u64 {
    windows
        .values()
        .map(|w| w.batches - w.persisted_batches())
        .sum()
}

/// What replaying the batch log did.
struct Replayed {
    /// Records merged into the catalog.
    applied: u64,
    /// Records skipped as dead (counted by a frame, or below a floor).
    dead: u64,
    /// All records in the log's valid prefix.
    records: u64,
    /// Length of the valid prefix.
    valid_len: u64,
    /// Bytes of torn tail after it.
    torn: u64,
}

impl StoreObs {
    /// Replays the batch log at `path` into `windows` (loaded from the
    /// manifest), by the rule in [`Store::open`].
    fn replay(
        &self,
        path: &Path,
        windows: &mut BTreeMap<WindowKey, Arc<WindowState>>,
        floors: &SeriesMarks,
        watermarks: &mut SeriesMarks,
    ) -> Result<Replayed, StoreError> {
        let mut reader =
            LogReader::open(path).map_err(|e| StoreError::Io(path.to_path_buf(), e))?;
        let (mut applied, mut dead) = (0u64, 0u64);
        while let Some(record) = reader.next_record().map_err(|e| log_error(path, e))? {
            let key = record.key();
            let existing = windows.get(&key);
            let persisted = existing.map_or(0, |w| w.persisted_batches());
            if record_is_dead(&key, record.index, floors, persisted) {
                dead += 1;
                continue;
            }
            let batches = existing.map_or(0, |w| w.batches);
            if record.index != batches {
                return Err(StoreError::Codec(CodecError::Invalid(format!(
                    "{}: record {} of {key} follows {batches} batches",
                    path.display(),
                    record.index
                ))));
            }
            let batch = decode_summary(record.frame())?;
            if batch.kind() != key.kind {
                return Err(StoreError::Codec(CodecError::Invalid(format!(
                    "{}: a {} record holds a {} batch",
                    path.display(),
                    key.kind,
                    batch.kind()
                ))));
            }
            let summary = self.apply_batch(
                &key,
                existing.map(|w| w.summary.as_ref()),
                record.index,
                batch,
                record.budget,
            )?;
            let state = WindowState {
                key: key.clone(),
                summary,
                batches: batches + 1,
                frame_bytes: existing.map_or(0, |w| w.frame_bytes) + record.bytes().len() as u64,
                frame: existing.and_then(|w| w.frame),
            };
            bump_max(watermarks, series_of(&key), key.end());
            windows.insert(key, Arc::new(state));
            applied += 1;
        }
        Ok(Replayed {
            applied,
            dead,
            records: applied + dead,
            valid_len: reader.valid_len(),
            torn: reader.torn_bytes(),
        })
    }
}

/// What a store directory's batch log holds, by the replay rule of
/// [`Store::open`] and without merging anything (`sas info` reads this).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogScan {
    /// Records replay would apply.
    pub live_records: u64,
    /// Their bytes.
    pub live_bytes: u64,
    /// Records replay would skip (and the next rewrite drops).
    pub dead_records: u64,
    /// Bytes of torn tail after the last whole record.
    pub torn_bytes: u64,
    /// Windows no manifest row names, which live only in the log, with
    /// the batches each holds.
    pub log_only: BTreeMap<WindowKey, u64>,
}

/// Scans the batch log of the store in `dir`, whose manifest is
/// `manifest`.
pub fn scan_log(dir: &Path, manifest: &Manifest) -> Result<LogScan, StoreError> {
    let (_, floors) = recovery_marks(manifest);
    let counted: HashMap<&WindowKey, u64> = manifest
        .entries
        .iter()
        .map(|e| (&e.key, e.batches))
        .collect();
    let path = dir.join(LOG_FILE);
    let mut reader = LogReader::open(&path).map_err(|e| StoreError::Io(path.clone(), e))?;
    let mut scan = LogScan::default();
    while let Some(record) = reader.next_record().map_err(|e| log_error(&path, e))? {
        let key = record.key();
        let persisted = counted.get(&key).copied();
        if record_is_dead(&key, record.index, &floors, persisted.unwrap_or(0)) {
            scan.dead_records += 1;
            continue;
        }
        scan.live_records += 1;
        scan.live_bytes += record.bytes().len() as u64;
        if persisted.is_none() {
            *scan.log_only.entry(key).or_default() += 1;
        }
    }
    scan.torn_bytes = reader.torn_bytes();
    Ok(scan)
}

fn series_of(key: &WindowKey) -> (String, u16) {
    (key.dataset.clone(), key.kind.tag())
}

/// `prev`'s series stamps, with every series whose window set differs
/// between `prev.windows` and `windows` stamped `version`: a window was
/// added, removed, or replaced by a different `Arc`. One merge walk over
/// both maps, which are in key order.
fn restamp(
    prev: &Snapshot,
    windows: &BTreeMap<WindowKey, Arc<WindowState>>,
    version: u64,
) -> BTreeMap<(String, u16), u64> {
    let mut stamps = prev.series_versions.clone();
    let (mut old, mut new) = (prev.windows.iter().peekable(), windows.iter().peekable());
    loop {
        let changed = match (old.peek(), new.peek()) {
            (None, None) => break,
            (Some(&(ko, wo)), Some(&(kn, wn))) if ko == kn => {
                old.next();
                new.next();
                if Arc::ptr_eq(wo, wn) {
                    continue;
                }
                ko
            }
            (Some(&(ko, _)), Some(&(kn, _))) if ko > kn => {
                new.next();
                kn
            }
            (Some(&(ko, _)), _) => {
                old.next();
                ko
            }
            (None, Some(&(kn, _))) => {
                new.next();
                kn
            }
        };
        stamps.insert(series_of(changed), version);
    }
    stamps
}

fn bump_max(map: &mut HashMap<(String, u16), u64>, series: (String, u16), value: u64) {
    let slot = map.entry(series).or_insert(0);
    *slot = (*slot).max(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sas_core::varopt::VarOptSampler;

    #[test]
    fn frame_file_names_parse_back_and_nothing_else_does() {
        let dir = Path::new("/store");
        let key = WindowKey {
            dataset: "web-1_a".into(),
            kind: SummaryKind::VarOptReservoir,
            level: Level::Hour,
            start: 7200,
        };
        for generation in [0, 1, 12] {
            let path = frame_file(dir, &key, generation);
            assert_eq!(
                parse_frame_file(dir, &path),
                Some((key.clone(), generation))
            );
        }
        for name in [
            "README.txt",
            "MANIFEST.sas",
            "notes/todo.md",
            "web/sample/minute",
            "web/sample/minute/60.sas.tmp-1-0",
            "web/sample/minute/060.sas",
            "web/sample/minute/+60.sas",
            "web/sample/minute/60.0.sas",
            "web/sample/minute/60.x.sas",
            "web/sample/minute/60.txt",
            "web/bogus/minute/60.sas",
            "web/sample/week/60.sas",
            "we.b/sample/minute/60.sas",
            "web/sample/minute/60.sas/1.sas",
        ] {
            assert_eq!(parse_frame_file(dir, &dir.join(name)), None, "{name}");
        }
        assert_eq!(
            parse_frame_file(dir, Path::new("/elsewhere/web/sample/minute/60.sas")),
            None
        );
        assert!(store_file(dir, &dir.join(MANIFEST_FILE)));
        assert!(store_file(dir, &dir.join(LOG_FILE)));
        assert!(!store_file(dir, &dir.join("notes/MANIFEST.sas")));
    }

    /// A catalog of 4 datasets (one name a prefix of another) × 2 kinds ×
    /// all three levels, plus the filters the range walk replaced.
    #[test]
    fn series_walk_matches_the_full_catalog_filter() {
        let datasets = ["a", "an", "an_a", "b-1"];
        let kinds = [SummaryKind::Sample, SummaryKind::VarOptReservoir];
        let mut rng = StdRng::seed_from_u64(7);
        let mut windows = BTreeMap::new();
        for dataset in datasets {
            for kind in kinds {
                for level in Level::all() {
                    for _ in 0..rng.gen_range(1..6usize) {
                        let start = level.window_start(rng.gen_range(0..400_000u64));
                        let key = WindowKey {
                            dataset: dataset.to_string(),
                            kind,
                            level,
                            start,
                        };
                        let state = WindowState {
                            key: key.clone(),
                            summary: Box::new(VarOptSampler::new(4)),
                            batches: 1,
                            frame_bytes: 0,
                            frame: None,
                        };
                        windows.insert(key, Arc::new(state));
                    }
                }
            }
        }
        let snapshot = Snapshot {
            version: 1,
            windows,
            series_versions: BTreeMap::new(),
            retention_floors: BTreeMap::new(),
        };
        let keys = |ws: &[Arc<WindowState>]| -> Vec<WindowKey> {
            ws.iter().map(|w| w.key.clone()).collect()
        };
        for dataset in datasets.iter().copied().chain(["", "am", "an_", "c"]) {
            for kind in kinds.into_iter().chain([SummaryKind::QDigest]) {
                for round in 0..50 {
                    let time = (round > 0).then(|| {
                        let t0 = rng.gen_range(0..400_000u64);
                        (t0, t0 + rng.gen_range(0..200_000u64))
                    });
                    let filtered: Vec<Arc<WindowState>> = snapshot
                        .windows
                        .values()
                        .filter(|w| {
                            w.key.dataset == dataset
                                && w.key.kind == kind
                                && time.is_none_or(|(t0, t1)| w.key.overlaps(t0, t1))
                        })
                        .cloned()
                        .collect();
                    let walked = snapshot.matching(dataset, kind, time);
                    assert_eq!(keys(&walked), keys(&filtered), "{dataset}/{kind}/{time:?}");
                    let spans: Vec<(u64, u64)> = snapshot
                        .windows
                        .values()
                        .filter(|w| w.key.dataset == dataset && w.key.kind == kind)
                        .map(|w| (w.key.start, w.key.end()))
                        .collect();
                    assert_eq!(
                        snapshot.coverage(dataset, kind, time),
                        Coverage::compute(&spans, time, 0),
                        "{dataset}/{kind}/{time:?}"
                    );
                }
            }
        }
        // The prefix pair really shares the catalog's neighbourhood.
        assert!(!snapshot
            .matching("an", SummaryKind::Sample, None)
            .is_empty());
        assert!(!snapshot
            .matching("an_a", SummaryKind::Sample, None)
            .is_empty());
    }
}

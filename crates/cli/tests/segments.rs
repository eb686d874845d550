//! End-to-end v2 segment surface of the `sas` binary: `compact` converts a
//! store directory between frame and segment files, `info` prints the
//! segment header dump (never a misleading "serialized bytes" line), and
//! `query`/`merge` accept segment files transparently via hydration.

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{box_value, parse_info_field, sas, TempFile};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sas_core::WeightedKey;
use sas_store::{frame_path, Store, StoreConfig};
use sas_summaries::{StoredSample, Summary};

/// A unique temp directory removed on drop (the store layout is a tree, so
/// the shared `TempFile` is not enough).
struct TempDir(PathBuf);

impl TempDir {
    fn create(name: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sas-cli-seg-{}-{id}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let rows: Vec<WeightedKey> = (lo..lo + n)
        .map(|k| WeightedKey::new(k, 1.0 + (k % 5) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(StoredSample::one_dim(sas_sampling::order::sample(
        &rows,
        (n as usize) / 2,
        &mut rng,
    )))
}

/// Seeds a store with two windows, which live in its batch log, and
/// returns the path each window's frame takes once persisted, with the
/// window's v1 frame bytes.
fn seeded_store_dir(dir: &TempDir) -> (Vec<PathBuf>, Vec<Vec<u8>>) {
    let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    store.ingest("api", 5, batch(50, 80, 2)).unwrap();
    store
        .snapshot()
        .windows
        .values()
        .map(|w| {
            (
                frame_path(std::path::Path::new(dir.path()), &w.key),
                sas_summaries::encode_summary(w.summary.as_ref()),
            )
        })
        .unzip()
}

#[test]
fn compact_roundtrips_a_store_through_segments() {
    let dir = TempDir::create("roundtrip");
    let (files, v1) = seeded_store_dir(&dir);

    let (_, status) = sas(&["compact", dir.path(), "--format", "v2"], true);
    assert!(status.contains("converted 2 of 2"), "{status}");
    for f in &files {
        assert!(sas_codec::segment::is_segment(&fs::read(f).unwrap()));
    }
    // Idempotent: nothing left to convert.
    let (_, status) = sas(&["compact", dir.path()], true);
    assert!(status.contains("converted 0 of 2"), "{status}");

    // Back to v1: byte-identical frames.
    let (_, status) = sas(&["compact", dir.path(), "--format", "v1"], true);
    assert!(status.contains("converted 2 of 2"), "{status}");
    let restored: Vec<Vec<u8>> = files.iter().map(|f| fs::read(f).unwrap()).collect();
    assert_eq!(restored, v1);

    // Bad invocations fail cleanly.
    let (_, stderr) = sas(&["compact", dir.path(), "--format", "v7"], false);
    assert!(stderr.contains("unknown --format"), "{stderr}");
    let (_, stderr) = sas(&["compact", "/nonexistent/sas-seg-store"], false);
    assert!(stderr.contains("not a store directory"), "{stderr}");
}

#[test]
fn info_dumps_the_segment_header() {
    let dir = TempDir::create("info");
    let (files, frames) = seeded_store_dir(&dir);
    let decoded = sas_summaries::decode_summary(&frames[0]).unwrap();
    sas(&["compact", dir.path(), "--format", "v2"], true);

    let seg_path = files[0].to_str().unwrap();
    let (info, _) = sas(&["info", seg_path], true);
    assert!(info.contains("format: segment v2"), "{info}");
    assert!(info.contains("kind: sample"), "{info}");
    assert!(info.contains("crc: ok"), "{info}");
    assert!(info.contains("  id\telements\toffset\tbytes"), "{info}");
    // The reported metadata matches the decoded summary, and the file size
    // on disk is the segment itself — no v1 re-encode size is shown.
    assert_eq!(
        parse_info_field(&info, "keys") as usize,
        decoded.item_count()
    );
    let seg_len = fs::read(seg_path).unwrap().len();
    assert_eq!(parse_info_field(&info, "file bytes") as usize, seg_len);
    assert!(!info.contains("serialized bytes"), "{info}");

    // Directory mode lists segment files alongside the manifest.
    let (lines, _) = sas(&["info", dir.path()], true);
    assert!(
        lines.lines().any(|l| l.contains("sample")),
        "no summary line in: {lines}"
    );
    assert!(
        lines.lines().any(|l| l.contains("manifest")),
        "no manifest line in: {lines}"
    );
}

#[test]
fn query_and_merge_accept_segment_files() {
    let dir = TempDir::create("query");
    let (files, frames) = seeded_store_dir(&dir);
    let decoded = sas_summaries::decode_summary(&frames[0]).unwrap();
    let expect = box_value(decoded.as_ref(), &[(0, 500)]);
    sas(&["compact", dir.path(), "--format", "v2"], true);

    let seg_path = files[0].to_str().unwrap();
    let (value, _) = sas(&["query", seg_path, "--range", "0..500"], true);
    let value: f64 = value.trim().parse().expect("estimate is a number");
    assert_eq!(value.to_bits(), expect.to_bits());

    // Merging a segment with a v1 frame works: both hydrate to the same
    // owned representation first.
    let other = TempFile::create("other.sas", "");
    fs::write(
        other.path(),
        sas_summaries::encode_summary(decoded.as_ref()),
    )
    .unwrap();
    let merged = TempFile::create("merged.sas", "");
    let (_, status) = sas(
        &["merge", seg_path, other.path(), "--out", merged.path()],
        true,
    );
    assert!(status.contains("merged 2"), "{status}");
    let loaded = sas_summaries::decode_summary(&fs::read(merged.path()).unwrap()).unwrap();
    let doubled = box_value(loaded.as_ref(), &[(0, 500)]);
    assert!(
        (doubled - 2.0 * expect).abs() <= 1e-9 * expect.abs(),
        "merge of two copies doubles the mass: {doubled} vs {}",
        2.0 * expect
    );
}

/// `sas info <store-dir>` reads the batch log: it reports the live records
/// and their bytes, counts the windows that live only in the log in the
/// per-level summary, and lists the log as a log, never decoding it as a
/// summary frame.
#[test]
fn info_reports_the_batch_log_and_log_only_windows() {
    let dir = TempDir::create("info-log");
    let log_bytes = {
        let store = Store::open(dir.path(), StoreConfig::default()).unwrap();
        store.ingest("web", 5, batch(0, 100, 1)).unwrap();
        store.ingest("web", 65, batch(100, 80, 2)).unwrap();
        store.ingest("api", 5, batch(50, 80, 3)).unwrap();
        // Persist all three, then log one more batch into a persisted
        // window and one into a new window.
        assert_eq!(
            store.convert(sas_store::StorageFormat::SegmentV2).unwrap(),
            3
        );
        store.ingest("web", 10, batch(300, 40, 4)).unwrap();
        store.ingest("web", 125, batch(400, 40, 5)).unwrap();
        let stats = store.stats();
        let stat = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(stat("log_records"), 2);
        stat("log_bytes")
    };
    let log_path = std::path::Path::new(dir.path()).join(sas_store::LOG_FILE);
    assert_eq!(fs::metadata(&log_path).unwrap().len(), log_bytes);

    let (info, _) = sas(&["info", dir.path()], true);
    assert!(info.contains("store: 4 windows, "), "{info}");
    assert!(
        info.contains(&format!(
            "log: 2 live records, {log_bytes} bytes, 1 log-only window\n"
        )),
        "{info}"
    );
    assert!(
        info.contains("  sample@minute: 3 windows, span 0..180"),
        "{info}"
    );
    assert!(
        info.contains(&format!("{}\tlog\t2\t{log_bytes}", log_path.display())),
        "{info}"
    );
    let frames = info.lines().filter(|l| l.contains("\tsample\t")).count();
    assert_eq!(frames, 3, "{info}");
    assert!(!info.contains("\terror\t"), "{info}");
}

#[test]
fn info_on_a_store_lists_only_store_files() {
    let dir = TempDir::create("info-foreign");
    let (files, _) = seeded_store_dir(&dir);
    sas(&["compact", dir.path(), "--format", "v2"], true);
    let root = std::path::Path::new(dir.path());
    fs::write(root.join("README.txt"), "operator notes").unwrap();
    fs::create_dir_all(root.join("notes")).unwrap();
    fs::write(root.join("notes/todo.md"), "- rotate").unwrap();

    let (info, _) = sas(&["info", dir.path()], true);
    assert!(!info.contains("README.txt"), "{info}");
    assert!(!info.contains("todo.md"), "{info}");
    assert!(!info.contains("\terror\t"), "{info}");
    assert!(info.contains("\tmanifest\t2\t"), "{info}");
    for f in &files {
        let line = format!("{}\tsample\t", f.display());
        assert!(info.contains(&line), "no line for {}: {info}", f.display());
    }
    // The foreign files are untouched.
    assert!(root.join("README.txt").exists() && root.join("notes/todo.md").exists());
}

//! End-to-end daemon test: spawn a real `sas serve` process, drive it with
//! `sas client` processes — ≥4 parallel query clients during active ingest
//! — then verify every served answer against offline `sas query` runs over
//! the persisted frames, shut down cleanly, and prove restart recovery is
//! bit-identical.

mod common;

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use common::sas;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sas-daemon-test-{}-{id}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running `sas serve` child whose address was read from its readiness
/// line. Killed on drop if the test failed before the clean shutdown.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(store_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sas"))
            .arg("serve")
            .arg(store_dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sas serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before its readiness line")
                .expect("readable stderr");
            if let Some(rest) = line.strip_prefix("sas-store: listening on ") {
                break rest.trim().to_string();
            }
        };
        // Drain the rest of stderr in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// Requests shutdown via the protocol and waits for a clean exit.
    fn shutdown(mut self) {
        sas(&["client", &self.addr, "shutdown"], true);
        let status = self.child.wait().expect("wait for serve");
        assert!(status.success(), "serve exited with {status:?}");
        // Disarm the drop kill.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write_tsv(dir: &Path, name: &str, lo: u64, n: u64) -> PathBuf {
    let mut text = String::new();
    for k in lo..lo + n {
        text.push_str(&format!("{k}\t{}\n", 1.0 + (k % 7) as f64));
    }
    let path = dir.join(name);
    fs::write(&path, text).unwrap();
    path
}

fn exact_total(lo: u64, n: u64) -> f64 {
    (lo..lo + n).map(|k| 1.0 + (k % 7) as f64).sum()
}

/// All persisted window frames under a store directory (manifest and
/// batch log excluded).
fn frame_files(store_dir: &Path) -> Vec<PathBuf> {
    sas_store::fsio::walk_files(store_dir)
        .unwrap()
        .into_iter()
        .filter(|p| {
            p.extension().is_some_and(|e| e == "sas")
                && p.file_name()
                    .is_some_and(|n| n != "MANIFEST.sas" && n != "LOG.sas")
        })
        .collect()
}

#[test]
fn daemon_serves_concurrent_clients_and_recovers_bit_identically() {
    let work = TempDir::new("e2e");
    let store_dir = work.path().join("store");
    // Compaction off: the offline comparison below wants the exact frames
    // the ingests produced (compaction correctness has its own tests).
    let daemon = Daemon::spawn(&store_dir, &["--compact-every", "0"]);
    let addr = daemon.addr.clone();

    // Seed one batch so queries during the storm always have data.
    let first = write_tsv(work.path(), "first.tsv", 0, 100);
    sas(
        &[
            "client",
            &addr,
            "ingest",
            first.to_str().unwrap(),
            "--dataset",
            "web",
            "--ts",
            "30",
        ],
        true,
    );

    // ≥4 parallel clients issue range queries while the main thread keeps
    // ingesting. Totals only grow, so every client asserts monotonicity —
    // a torn snapshot would show up as a regression.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let range = if r % 2 == 0 { "0..99999999" } else { "0..1999" };
                let mut last = 0.0f64;
                let mut runs = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || runs < 5 {
                    let (stdout, _) = sas(
                        &[
                            "client",
                            &addr,
                            "query",
                            "--dataset",
                            "web",
                            "--range",
                            range,
                        ],
                        true,
                    );
                    let value: f64 = stdout.trim().parse().expect("numeric answer");
                    assert!(
                        value >= last,
                        "reader {r}: answer regressed from {last} to {value}"
                    );
                    last = value;
                    runs += 1;
                }
                runs
            })
        })
        .collect();

    let batches: Vec<(u64, u64, u64)> = (0..8u64)
        .map(|i| (i * 500 + 100, 250, 30 + i * 40))
        .collect();
    for (i, &(lo, n, ts)) in batches.iter().enumerate() {
        let data = write_tsv(work.path(), &format!("b{i}.tsv"), lo, n);
        sas(
            &[
                "client",
                &addr,
                "ingest",
                data.to_str().unwrap(),
                "--dataset",
                "web",
                "--ts",
                &ts.to_string(),
            ],
            true,
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() >= 5);
    }

    // Quiesced: capture the served answers. The checks against the files
    // follow the shutdown, once `sas compact` has persisted the windows
    // the batch log holds.
    let probes = ["0..99999999", "0..1999", "700..3000"];
    let serve_answers: Vec<String> = probes
        .iter()
        .map(|range| {
            let (stdout, _) = sas(
                &[
                    "client",
                    &addr,
                    "query",
                    "--dataset",
                    "web",
                    "--range",
                    range,
                ],
                true,
            );
            stdout.trim().to_string()
        })
        .collect();

    // `sas list` and `sas info <dir>` agree on the catalog: with
    // compaction off, every window lives only in the batch log.
    let (list_out, _) = sas(&["client", &addr, "list"], true);
    let windows = list_out.lines().count();
    assert!(windows >= 2, "expected several minute windows:\n{list_out}");
    let (info_out, _) = sas(&["info", store_dir.to_str().unwrap()], true);
    assert!(
        info_out.contains(&format!(", {windows} log-only windows")),
        "{info_out}"
    );
    assert!(frame_files(&store_dir).is_empty(), "{info_out}");
    daemon.shutdown();

    // Persist every window, then every served answer must match the
    // offline `sas query` sum over the frames — the daemon held no truth
    // the files don't.
    let (_, status) = sas(&["compact", store_dir.to_str().unwrap()], true);
    assert!(
        status.contains(&format!("converted {windows} of {windows}")),
        "{status}"
    );
    let frames = frame_files(&store_dir);
    assert_eq!(frames.len(), windows);
    for (range, served) in probes.iter().zip(&serve_answers) {
        let offline: f64 = frames
            .iter()
            .map(|f| {
                let (stdout, _) = sas(&["query", f.to_str().unwrap(), "--range", range], true);
                stdout.trim().parse::<f64>().unwrap()
            })
            .sum();
        let served: f64 = served.parse().unwrap();
        assert!(
            (served - offline).abs() <= offline.abs() * 1e-9,
            "range {range}: served {served} vs offline {offline}"
        );
    }
    // And the full-domain answer is the exact input total (unbudgeted
    // exact batches).
    let truth = exact_total(0, 100)
        + batches
            .iter()
            .map(|&(lo, n, _)| exact_total(lo, n))
            .sum::<f64>();
    let served: f64 = serve_answers[0].parse().unwrap();
    assert!((served - truth).abs() <= truth * 1e-9);

    let (info_out, _) = sas(&["info", store_dir.to_str().unwrap()], true);
    assert!(info_out.contains(", 0 log-only windows"), "{info_out}");
    let info_frames = info_out
        .lines()
        .filter(|l| l.contains("\tsample\t"))
        .count();
    assert_eq!(info_frames, windows, "{info_out}");
    assert_eq!(
        info_out
            .lines()
            .filter(|l| l.contains("\tmanifest\t"))
            .count(),
        1,
        "{info_out}"
    );

    // Restart on the same directory: recovery must serve bit-identical
    // answers (shortest-roundtrip float printing makes string equality
    // exactly bit equality).
    let daemon = Daemon::spawn(&store_dir, &["--compact-every", "0"]);
    for (range, before) in probes.iter().zip(&serve_answers) {
        let (stdout, _) = sas(
            &[
                "client",
                &daemon.addr,
                "query",
                "--dataset",
                "web",
                "--range",
                range,
            ],
            true,
        );
        assert_eq!(stdout.trim(), before, "range {range} after restart");
    }
    let (stats_out, _) = sas(&["client", &daemon.addr, "stats"], true);
    assert!(
        stats_out
            .lines()
            .any(|l| l.starts_with("recovered_windows: ") && !l.ends_with(" 0")),
        "{stats_out}"
    );
    daemon.shutdown();
}

#[test]
fn mixed_old_and_new_tag_clients_get_identical_values() {
    // One server, two protocols: the legacy REQ_QUERY tag (bare value) and
    // the PR-5 REQ_ESTIMATE tag (`--confidence`, value ± bound) must agree
    // on every value, bit for bit (shortest-roundtrip float printing makes
    // string equality exactly bit equality) — and the estimate's interval
    // must contain its own value.
    let work = TempDir::new("mixed-tags");
    let store_dir = work.path().join("store");
    let daemon = Daemon::spawn(&store_dir, &["--compact-every", "0"]);
    let addr = daemon.addr.clone();

    for (i, ts) in [30u64, 90, 150].iter().enumerate() {
        let data = write_tsv(work.path(), &format!("m{i}.tsv"), *ts * 10, 200);
        sas(
            &[
                "client",
                &addr,
                "ingest",
                data.to_str().unwrap(),
                "--dataset",
                "web",
                "--ts",
                &ts.to_string(),
            ],
            true,
        );
    }

    let probes = ["0..99999999", "300..1499", "0..999", "1500.."];
    for range in probes {
        let (old_out, _) = sas(
            &[
                "client",
                &addr,
                "query",
                "--dataset",
                "web",
                "--range",
                range,
            ],
            true,
        );
        let (new_out, new_err) = sas(
            &[
                "client",
                &addr,
                "query",
                "--dataset",
                "web",
                "--range",
                range,
                "--confidence",
                "0.95",
            ],
            true,
        );
        let old_value = old_out.trim();
        // New-tag output: `value ±half [lower, upper] @confidence`.
        let mut parts = new_out.split_whitespace();
        let new_value = parts.next().expect("value field");
        assert_eq!(
            new_value, old_value,
            "range {range}: old tag {old_value} vs new tag {new_value}"
        );
        let lower: f64 = parts
            .nth(1)
            .expect("lower field")
            .trim_matches(['[', ','])
            .parse()
            .expect("numeric lower");
        let upper: f64 = parts
            .next()
            .expect("upper field")
            .trim_matches([']', ','])
            .parse()
            .expect("numeric upper");
        let value: f64 = new_value.parse().expect("numeric value");
        assert!(
            lower <= value && value <= upper,
            "range {range}: value {value} outside [{lower}, {upper}]"
        );
        assert!(new_err.contains("window"), "{new_err}");
    }

    // Both tags share the canonical-query cache: the same estimate asked
    // twice reports a cache hit the second time.
    let ask = || {
        sas(
            &[
                "client",
                &addr,
                "query",
                "--dataset",
                "web",
                "--range",
                "0..999",
                "--confidence",
                "0.9",
            ],
            true,
        )
    };
    ask();
    let (_, stderr) = ask();
    assert!(stderr.contains("(cached)"), "{stderr}");
    daemon.shutdown();
}

#[test]
fn daemon_rejects_garbage_and_stays_up() {
    let work = TempDir::new("errors");
    let store_dir = work.path().join("store");
    let daemon = Daemon::spawn(&store_dir, &["--compact-every", "0"]);
    let addr = daemon.addr.clone();

    // Bad dataset name: the client surfaces the server's message and
    // exits nonzero; the daemon keeps serving.
    let data = write_tsv(work.path(), "d.tsv", 0, 10);
    let (_, stderr) = sas(
        &[
            "client",
            &addr,
            "ingest",
            data.to_str().unwrap(),
            "--dataset",
            "no/slashes",
        ],
        false,
    );
    assert!(stderr.contains("dataset"), "{stderr}");
    // Unknown series queries answer 0 over 0 windows rather than failing.
    let (stdout, stderr) = sas(
        &[
            "client",
            &addr,
            "query",
            "--dataset",
            "ghost",
            "--range",
            "0..9",
        ],
        true,
    );
    assert_eq!(stdout.trim(), "0");
    assert!(stderr.contains("0 windows"), "{stderr}");
    daemon.shutdown();
}

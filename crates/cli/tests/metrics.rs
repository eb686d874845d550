//! End-to-end observability test: spawn a real `sas serve` process, drive
//! it with `sas client`, and check the three faces of the metrics layer —
//! the `REQ_METRICS` exchange behind `sas client metrics` (all three
//! output formats), the structured stderr log with the slow-query trace
//! (`--slow-query-ms 0` logs every request), and the periodic
//! `--metrics-every` operational dump.

mod common;

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

use common::sas;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sas-metrics-test-{}-{id}-{name}",
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

/// A running `sas serve` child that records every stderr line it emits, so
/// tests can assert on the structured log and the periodic metric dumps
/// after shutdown.
struct Daemon {
    child: Child,
    addr: String,
    stderr_lines: Arc<Mutex<Vec<String>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(store_dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sas"));
        cmd.arg("serve")
            .arg(store_dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn sas serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let stderr_lines = Arc::new(Mutex::new(Vec::new()));
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before its readiness line")
                .expect("readable stderr");
            let found = line
                .strip_prefix("sas-store: listening on ")
                .map(|rest| rest.trim().to_string());
            stderr_lines.lock().unwrap().push(line);
            if let Some(addr) = found {
                break addr;
            }
        };
        let sink = stderr_lines.clone();
        let reader = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Daemon {
            child,
            addr,
            stderr_lines,
            reader: Some(reader),
        }
    }

    /// Shuts down via the protocol and returns everything the daemon wrote
    /// to stderr over its lifetime.
    fn shutdown(mut self) -> Vec<String> {
        sas(&["client", &self.addr, "shutdown"], true);
        let status = self.child.wait().expect("wait for serve");
        assert!(status.success(), "serve exited with {status:?}");
        self.reader.take().unwrap().join().expect("stderr reader");
        let lines = std::mem::take(&mut *self.stderr_lines.lock().unwrap());
        std::mem::forget(self);
        lines
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

/// Finds a metric's value in Prometheus text output.
fn prom_value(out: &str, name: &str) -> Option<f64> {
    out.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[test]
fn client_metrics_serves_counts_in_every_format() {
    let work = TempDir::new("formats");
    let store_dir = work.path().join("store");
    let daemon = Daemon::spawn(&store_dir, &["--compact-every", "0"], &[]);
    let addr = daemon.addr.clone();

    let data = write_tsv(work.path(), "d.tsv", 0, 200);
    sas(
        &[
            "client",
            &addr,
            "ingest",
            data.to_str().unwrap(),
            "--dataset",
            "web",
            "--ts",
            "30",
        ],
        true,
    );
    for _ in 0..3 {
        sas(
            &[
                "client",
                &addr,
                "query",
                "--dataset",
                "web",
                "--range",
                "0..999",
            ],
            true,
        );
    }
    sas(&["client", &addr, "ping"], true);

    // Prometheus (the default format): every non-comment line is
    // `name value`, request counters carry per-tag labels, error counters
    // are zero, and the query latency histogram is populated.
    let (prom, _) = sas(&["client", &addr, "metrics"], true);
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split(' ');
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert!(parts.next().is_none(), "extra token in line: {line}");
        assert!(!name.is_empty() && name.starts_with("sas_"), "{line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert!(prom.lines().any(|l| l.starts_with("# TYPE ")), "{prom}");
    assert!(
        prom_value(&prom, "sas_requests_total{tag=\"query\"}").unwrap() >= 3.0,
        "{prom}"
    );
    assert_eq!(
        prom_value(&prom, "sas_requests_total{tag=\"ingest\"}"),
        Some(1.0),
        "{prom}"
    );
    for zero in [
        "sas_protocol_errors_total",
        "sas_conns_shed_total",
        "sas_requests_shed_total",
        "sas_conn_read_timeouts_total",
    ] {
        assert_eq!(prom_value(&prom, zero), Some(0.0), "{zero}\n{prom}");
    }
    assert!(
        prom_value(&prom, "sas_request_ns_count{tag=\"query\"}").unwrap() >= 3.0,
        "{prom}"
    );
    // Every request is timed through exactly five stages, each recorded
    // once per request: a stage's count is its tag's request count.
    assert!(!prom.contains("stage=\"read\""), "{prom}");
    for tag in ["query", "ingest", "ping"] {
        let requests = prom_value(&prom, &format!("sas_request_ns_count{{tag=\"{tag}\"}}"));
        assert!(requests.unwrap() >= 1.0, "{tag}\n{prom}");
        let prefix = format!("sas_stage_ns_count{{tag=\"{tag}\",stage=\"");
        let mut stages: Vec<&str> = prom
            .lines()
            .filter_map(|l| l.strip_prefix(prefix.as_str())?.split('"').next())
            .collect();
        stages.sort_unstable();
        assert_eq!(
            stages,
            ["flush", "parse", "queue", "queued", "work"],
            "{tag}\n{prom}"
        );
        for stage in stages {
            let name = format!("sas_stage_ns_count{{tag=\"{tag}\",stage=\"{stage}\"}}");
            assert_eq!(prom_value(&prom, &name), requests, "{name}\n{prom}");
        }
    }
    // The one ingest is attributed to its store sub-stages.
    for stage in ["lock_wait", "merge", "log", "publish"] {
        let name = format!("sas_store_ingest_ns_count{{stage=\"{stage}\"}}");
        assert_eq!(prom_value(&prom, &name), Some(1.0), "{name}\n{prom}");
    }
    // Cumulative bucket lines end with the +Inf sentinel equal to _count.
    assert!(
        prom.lines()
            .any(|l| l.starts_with("sas_request_ns_bucket{tag=\"query\",le=\"+Inf\"}")),
        "{prom}"
    );

    // TSV: strict two-column `name\tvalue` lines, histograms expanded to
    // summary columns.
    let (tsv, _) = sas(&["client", &addr, "metrics", "--format", "tsv"], true);
    for line in tsv.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 2, "not two columns: {line}");
        cols[1]
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert!(
        tsv.lines()
            .any(|l| l.starts_with("sas_request_ns{tag=\"query\"}.p99\t")),
        "{tsv}"
    );

    // JSON: one object, numeric values, with the same request counter.
    let (json, _) = sas(&["client", &addr, "metrics", "--format", "json"], true);
    let json = json.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(
        json.contains("\"sas_requests_total{tag=\\\"ingest\\\"}\": 1"),
        "{json}"
    );

    // Unknown formats fail loudly.
    sas(&["client", &addr, "metrics", "--format", "xml"], false);

    // `sas client stats` output is sorted by stat name for diffability.
    let (stats, _) = sas(&["client", &addr, "stats"], true);
    let names: Vec<&str> = stats.lines().filter_map(|l| l.split(':').next()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "{stats}");
    assert!(stats.lines().any(|l| l.starts_with("minute_frame_bytes: ")));

    daemon.shutdown();
}

#[test]
fn slow_query_log_and_periodic_dump_reach_stderr() {
    let work = TempDir::new("slowlog");
    let store_dir = work.path().join("store");
    // Threshold 0 logs every request; the 1s metric cadence is the
    // smallest the flag accepts.
    let daemon = Daemon::spawn(
        &store_dir,
        &[
            "--compact-every",
            "0",
            "--slow-query-ms",
            "0",
            "--metrics-every",
            "1",
        ],
        &[("SAS_LOG", "info")],
    );
    let addr = daemon.addr.clone();

    let data = write_tsv(work.path(), "d.tsv", 0, 100);
    sas(
        &[
            "client",
            &addr,
            "ingest",
            data.to_str().unwrap(),
            "--dataset",
            "web",
            "--ts",
            "30",
        ],
        true,
    );
    // The same query twice: a worker answers the first, the event loop
    // answers the second from the cache.
    for _ in 0..2 {
        sas(
            &[
                "client",
                &addr,
                "query",
                "--dataset",
                "web",
                "--range",
                "0..999",
            ],
            true,
        );
    }

    // Let at least one periodic dump fire.
    std::thread::sleep(std::time::Duration::from_millis(1400));
    let lines = daemon.shutdown();

    // SAS_LOG=info surfaces the recovery record.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("level=info") && l.contains("event=store_opened")),
        "no store_opened record in:\n{}",
        lines.join("\n")
    );
    // Every request was "slow": the trace names the dataset, the canonical
    // query bytes, and the per-stage breakdown.
    let slow: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("event=slow_query") && l.contains("tag=query"))
        .collect();
    assert_eq!(
        slow.len(),
        2,
        "two slow_query records in:\n{}",
        lines.join("\n")
    );
    for key in [
        "dataset=web",
        "query=",
        "total_us=",
        "work_us=",
        "flush_us=",
    ] {
        assert!(slow[0].contains(key), "missing {key} in: {}", slow[0]);
    }
    // The cache hit answered on the loop carries the same metadata, and
    // never waited in the worker queue.
    for key in ["dataset=web", "query=", "windows=1 ", "queue_us=0 "] {
        assert!(slow[1].contains(key), "missing {key} in: {}", slow[1]);
    }
    assert!(!slow[1].contains("query=- "), "{}", slow[1]);
    // The periodic dump wrote at least one TSV metric line.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("sas_conns_accepted_total\t")),
        "no periodic metrics dump in:\n{}",
        lines.join("\n")
    );
}

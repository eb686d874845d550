//! Open-loop, layer-attributed benchmark for the `sas serve` daemon.
//!
//! ```text
//! perfbench --sas PATH --work DIR --workload dashboard|analyst --seed N
//!           [--seconds S] [--trace 0|1] [--repeat N [--vary-seed]]
//! ```
//!
//! Every run does the same four steps:
//!
//! 1. set-up, five times and untraced, the median reported as `setup_s`:
//!    generate the workload from the seed, pre-load the catalog
//!    in-process, start `sas serve` on it, install policies over the wire,
//!    warm up;
//! 2. the timed phase: `S` seconds (default [`DEFAULT_SECONDS`]) split
//!    into a fixed-rate open-loop phase and a closed-loop capacity probe,
//!    from one thread over two connections;
//! 3. a quiesced verification pass against exact answers;
//! 4. with the daemon stopped, so it cannot perturb the figures above, the
//!    traced run: the batch construction again with spans, and the timed
//!    stream replayed in-process, untraced and then traced, on copies of
//!    the pre-built store.
//!
//! Every run so measures both metric sets of `BENCHMARK.json` and prints
//! all of them: as a table on stderr and as the `all_metrics` stdout line.
//! The last stdout line is the JSON result. Its `metrics` carry the
//! `end_to_end` set with `--trace 0` (the default) and the `per_layer` set
//! with `--trace 1`, the result format `BENCHMARK.json`'s consumers read;
//! the flag changes nothing else. The first stdout line stamps the host,
//! seed and workload parameters. `--repeat N` runs the seed N times (with
//! `--vary-seed`, seeds `seed, seed+1, …`) and prints each metric's median and
//! quartile spread.

mod daemon;
mod loadgen;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sas_obs::{HistogramSnapshot, MetricsReport};
use sas_store::client::Client;
use sas_store::wire::{decode_response, Response};
use sas_store::{StorageFormat, Store, StoreConfig};
use sas_summaries::{decode_summary, Query, SummaryKind};

use crate::daemon::Daemon;
use crate::loadgen::{drive, Plan, Record};
use crate::oracle::Oracle;
use crate::stats::{json_num, json_str, median, percentile_of, quartiles, Metrics};
use crate::trace::Tracer;
use crate::workload::{Op, Probe, Workload, CONFIDENCE};

/// Length of the timed phase without `--seconds`: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 40;
/// Share of `--seconds` spent in the fixed-rate phase; the rest probes
/// capacity.
const FIXED_SHARE: f64 = 0.8;
/// Set-ups per run (the median is reported). Pre-loading fsyncs every
/// window, so one set-up follows the disk's latency of the moment.
const SETUP_REPS: usize = 5;
/// Interval at which host steal and daemon CPU are read during the timed
/// phase (see `stats::quiet_intervals`).
const TICK: Duration = Duration::from_millis(100);
/// Longest stream prefix the traced run replays.
const REPLAY_CAP: usize = 6_000;
/// The whole run must finish well inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    sas: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    /// The result line carries the per-layer metrics (`--trace 1`).
    per_layer_result: bool,
    repeat: usize,
    vary_seed: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (want one of {:?})",
            workload::NAMES
        ));
    }
    let num = |flag: &str, v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} '{v}'"));
    let seconds = get("--seconds").map_or(Ok(DEFAULT_SECONDS), |v| num("--seconds", v))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        sas: PathBuf::from(need("--sas")?),
        work: PathBuf::from(get("--work").unwrap_or("target/perfbench")),
        workload,
        seed: num("--seed", need("--seed")?)?,
        seconds: seconds as f64,
        per_layer_result: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
        },
        repeat: get("--repeat").map_or(Ok(0), |v| num("--repeat", v))? as usize,
        vary_seed: argv.iter().any(|a| a == "--vary-seed"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return repeat(&args);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; stopping");
        sys::kill_children();
        std::process::exit(3);
    });
    match run(&args, args.seed) {
        Ok(out) => {
            println!("{}", out.stamp);
            println!("{{\"all_metrics\": {}}}", out.all().to_json());
            let result = if args.per_layer_result {
                &out.layers
            } else {
                &out.e2e
            };
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.correct,
                out.attempted,
                out.failed,
                result.to_json()
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the seed (or, with `--vary-seed`, seeds `seed..seed+N`) N times
/// and prints each metric's median and spread.
fn repeat(args: &Args) -> ExitCode {
    let mut runs: Vec<Outcome> = Vec::new();
    for i in 0..args.repeat as u64 {
        let seed = if args.vary_seed {
            args.seed + i
        } else {
            args.seed
        };
        match run(args, seed) {
            Ok(out) => {
                eprintln!(
                    "run {} (seed {seed}): correct={} {} {}",
                    i + 1,
                    out.correct,
                    out.all().to_json(),
                    out.stamp
                );
                runs.push(out);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let all: Vec<Metrics> = runs.iter().map(Outcome::all).collect();
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    let mut json = String::from("{");
    for (k, m) in all[0].0.iter().enumerate() {
        let values: Vec<f64> = all.iter().filter_map(|r| r.get(&m.name)).collect();
        let med = median(&values);
        let (q1, q3) = quartiles(&values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{:<44} {:>14.6} {:>14.6} {:>14.6} {:>8.4}  {}",
            m.name, med, q1, q3, spread, m.unit
        );
        let sep = if k == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(med),
            json_num(q1),
            json_num(q3),
            json_num(spread),
            json_str(m.unit)
        ));
    }
    json.push('}');
    let all_correct = runs.iter().all(|r| r.correct);
    println!(
        "{{\"repeat\": {}, \"vary_seed\": {}, \"correct\": {all_correct}, \"metrics\": {json}}}",
        runs.len(),
        args.vary_seed
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct Outcome {
    stamp: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    e2e: Metrics,
    /// The `per_layer` metrics.
    layers: Metrics,
}

impl Outcome {
    fn all(&self) -> Metrics {
        Metrics(self.e2e.0.iter().chain(&self.layers.0).cloned().collect())
    }
}

/// Everything set-up leaves for the timed phase.
struct Ready {
    /// Wall time of the set-up, less the copy kept for the traced run.
    setup_s: f64,
    w: Workload,
    daemon: Daemon,
    oracle: Oracle,
    store_dir: PathBuf,
    /// Copy of the pre-loaded store, before the daemon touched it.
    prebuilt: Option<PathBuf>,
    ops: Vec<Op>,
    frames: Vec<(Vec<u8>, u16)>,
    at: Vec<Duration>,
    problems: Vec<String>,
}

fn setup(args: &Args, seed: u64, root: &Path, keep_copy: bool) -> Result<Ready, String> {
    let started = Instant::now();
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    std::fs::create_dir_all(root).map_err(|e| io("work dir", &e))?;
    let mut w =
        Workload::build(&args.workload, seed, &mut Tracer::new(false)).ok_or("unknown workload")?;
    let mut oracle = Oracle::new(&w);

    let store_dir = root.join("store");
    {
        let store = Store::open(&store_dir, StoreConfig::default()).map_err(|e| io("open", &e))?;
        for &(s, b, ts) in &w.preload {
            let series = &w.series[s];
            let batch = decode_summary(&series.batches[b].frame).map_err(|e| io("batch", &e))?;
            store
                .ingest(series.dataset, ts, batch)
                .map_err(|e| io("pre-load", &e))?;
            oracle.record(s, b, ts);
        }
        store
            .lifecycle_tick()
            .map_err(|e| io("pre-load tick", &e))?;
        if w.convert_v2 {
            store
                .convert(StorageFormat::SegmentV2)
                .map_err(|e| io("convert", &e))?;
        }
    }
    let mut copy_s = 0.0;
    let prebuilt = if keep_copy {
        let copying = Instant::now();
        let copy = root.join("prebuilt");
        sys::copy_dir(&store_dir, &copy).map_err(|e| io("copy", &e))?;
        copy_s = copying.elapsed().as_secs_f64();
        Some(copy)
    } else {
        None
    };

    let n = (w.rate * args.seconds * FIXED_SHARE).round() as usize;
    let ops: Vec<Op> = (0..n).map(|_| w.next_op()).collect();
    let frames = ops.iter().map(|op| w.frame(op)).collect();
    let at = (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / w.rate))
        .collect();

    let daemon = Daemon::start(&args.sas, &store_dir, &root.join("daemon.log"))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| io("connect", &e))?;
    let mut installed = BTreeSet::new();
    for s in &w.series {
        if let (Some(p), true) = (&s.policy, installed.insert(s.dataset)) {
            client
                .set_policy(s.dataset, p.clone())
                .map_err(|e| io("policy", &e))?;
        }
    }
    let mut problems = Vec::new();
    for op in std::mem::take(&mut w.warmup) {
        match &op {
            Op::Estimate {
                series,
                query,
                time,
            } => {
                let s = &w.series[*series];
                let e = client
                    .estimate(s.dataset, s.kind, query, CONFIDENCE, *time)
                    .map_err(|e| io("warm-up estimate", &e))?;
                problems.extend(oracle::malformed(&e.estimate));
            }
            Op::Ingest { series, batch, ts } => {
                let s = &w.series[*series];
                client
                    .ingest(s.dataset, *ts, s.batches[*batch].frame.clone())
                    .map_err(|e| io("warm-up ingest", &e))?;
                oracle.record(*series, *batch, *ts);
            }
        }
        w.warmup.push(op);
    }
    Ok(Ready {
        setup_s: started.elapsed().as_secs_f64() - copy_s,
        w,
        daemon,
        oracle,
        store_dir,
        prebuilt,
        ops,
        frames,
        at,
        problems,
    })
}

/// Host steal and daemon CPU, read as each tick of a phase begins.
#[derive(Clone, Copy)]
struct Mark {
    steal: (u64, u64),
    daemon_cpu_s: f64,
}

/// How one timed request ended.
enum Reply {
    Estimate(sas_summaries::Estimate),
    Ingested,
    Failed(String),
}

fn classify(rec: &Record) -> Reply {
    if rec.done.is_none() {
        return Reply::Failed("unanswered".into());
    }
    match decode_response(&rec.response, rec.tag) {
        Ok(Response::Estimate { estimate, .. }) => Reply::Estimate(estimate),
        Ok(Response::Ingest { .. }) => Reply::Ingested,
        Ok(Response::Err(m)) => Reply::Failed(format!("error: {m}")),
        Ok(Response::Busy(m)) => Reply::Failed(format!("busy: {m}")),
        Ok(other) => Reply::Failed(format!("unexpected response {other:?}")),
        Err(e) => Reply::Failed(format!("undecodable response: {e}")),
    }
}

/// Histogram of the observations recorded between two snapshots.
fn delta(before: Option<&HistogramSnapshot>, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = after.buckets.clone();
    if let Some(b) = before {
        for (i, n) in &mut buckets {
            if let Some((_, m)) = b.buckets.iter().find(|(j, _)| j == i) {
                *n -= m;
            }
        }
    }
    buckets.retain(|(_, n)| *n > 0);
    HistogramSnapshot {
        count: buckets.iter().map(|(_, n)| n).sum(),
        sum: after.sum - before.map_or(0, |b| b.sum),
        min: 0,
        max: after.max,
        buckets,
    }
}

fn counter_delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> f64 {
    let get = |r: &MetricsReport| {
        r.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    get(after).saturating_sub(get(before)) as f64
}

fn run(args: &Args, seed: u64) -> Result<Outcome, String> {
    let root = args
        .work
        .join(format!("{}-{}-{}", args.workload, seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(args, seed, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, seed: u64, root: &Path) -> Result<Outcome, String> {
    // ---- set-up, untraced, several times; the median is reported --------
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let dir = root.join(format!("setup{rep}"));
        let r = setup(args, seed, &dir, last)?;
        setup_s.push(r.setup_s);
        if last {
            ready = Some(r);
        } else {
            r.daemon.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let Ready {
        mut w,
        daemon,
        mut oracle,
        store_dir,
        prebuilt,
        ops,
        frames,
        at,
        mut problems,
        ..
    } = ready.expect("at least one set-up");

    // ---- timed phase ----------------------------------------------------
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut streams = [connect()?, connect()?];
    let mut control = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let metrics_before = control.metrics().map_err(|e| format!("metrics: {e}"))?;
    let threads_before = sys::thread_cpu_s(daemon.pid);
    let gen_cpu_before = sys::current_thread_cpu_s();
    let fixed_for = Duration::from_secs_f64(args.seconds * FIXED_SHARE);
    let grace = Duration::from_secs(10);
    let pid = daemon.pid;
    let mark = || Mark {
        steal: sys::steal_and_total(),
        daemon_cpu_s: sys::process_cpu_s(pid),
    };
    let mut fixed_marks = Vec::new();
    let fixed = drive(
        &mut streams,
        Plan::Open {
            at: &at,
            frames: &frames,
        },
        Instant::now() + Duration::from_millis(5),
        fixed_for,
        grace,
        TICK,
        &mut || fixed_marks.push(mark()),
    )
    .map_err(|e| format!("fixed-rate phase: {e}"))?;
    fixed_marks.push(mark());
    // The per-layer server numbers describe the fixed-rate phase, the one
    // whose latencies they attribute.
    let threads_after = sys::thread_cpu_s(daemon.pid);
    let metrics_after = control.metrics().map_err(|e| format!("metrics: {e}"))?;
    let gen_cpu_s = sys::current_thread_cpu_s() - gen_cpu_before;
    let cap_for = Duration::from_secs_f64(args.seconds * (1.0 - FIXED_SHARE));
    let mut cap_ops: Vec<Op> = Vec::new();
    let depth = w.depth;
    let mut cap_marks = Vec::new();
    let capacity = {
        let mut build = |_: usize| {
            let op = w.next_op();
            let frame = w.frame(&op);
            cap_ops.push(op);
            frame
        };
        drive(
            &mut streams,
            Plan::Saturate {
                depth,
                next: &mut build,
            },
            Instant::now() + Duration::from_millis(1),
            cap_for,
            grace,
            TICK,
            &mut || cap_marks.push(mark()),
        )
        .map_err(|e| format!("capacity phase: {e}"))?
    };
    cap_marks.push(mark());
    drop(streams);
    let steal = |marks: &[Mark]| marks.iter().map(|m| m.steal).collect::<Vec<_>>();
    let (quiet, cap_quiet) = (
        stats::quiet_intervals(&steal(&fixed_marks)),
        stats::quiet_intervals(&steal(&cap_marks)),
    );
    let (first, last) = (
        fixed_marks[0].steal,
        fixed_marks[fixed_marks.len() - 1].steal,
    );
    let steal_pct = (last.0 - first.0) as f64 * 100.0 / (last.1 - first.1).max(1) as f64;

    // ---- outcomes of the timed requests --------------------------------
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let (mut est_ms, mut ing_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Capacity-probe completions per tick, by completion time.
    let mut cap_per_tick = vec![0u64; cap_quiet.len()];
    let tick_of = |d: Duration| (d.as_nanos() / TICK.as_nanos()) as usize;
    let is_quiet = |d: Duration| quiet.get(tick_of(d)).copied().unwrap_or(false);
    for (phase, plan_ops, is_fixed) in [(&fixed, &ops, true), (&capacity, &cap_ops, false)] {
        for rec in phase {
            attempted += 1;
            let op = &plan_ops[rec.idx];
            let outcome = classify(rec);
            match (&outcome, op) {
                (Reply::Failed(why), _) => {
                    failed += 1;
                    if failed <= 5 {
                        eprintln!("perfbench: request {} failed: {why}", rec.idx);
                    }
                    if why.starts_with("undecodable") {
                        problems.push(why.clone());
                    }
                    continue;
                }
                (Reply::Estimate(e), _) => problems.extend(oracle::malformed(e)),
                (Reply::Ingested, Op::Ingest { series, batch, ts }) => {
                    oracle.record(*series, *batch, *ts)
                }
                (Reply::Ingested, _) => problems.push("ingest ack for an estimate".into()),
            }
            if !is_fixed {
                if let Some(slot) = rec.done.and_then(|d| cap_per_tick.get_mut(tick_of(d))) {
                    *slot += 1;
                }
            } else {
                let ms = rec.latency().expect("answered").as_secs_f64() * 1e3;
                late_ms.push(rec.lateness().unwrap_or_default().as_secs_f64() * 1e3);
                // Latency counts only for requests due and answered in
                // quiet ticks.
                if !(is_quiet(rec.intended) && rec.done.is_some_and(is_quiet)) {
                    continue;
                }
                match op {
                    Op::Estimate { .. } => est_ms.push(ms),
                    Op::Ingest { .. } => ing_ms.push(ms),
                }
            }
        }
    }
    // Daemon CPU over the whole fixed-rate phase (lifecycle ticks
    // included), and completions per second over the capacity probe's
    // quiet ticks.
    let fixed_cpu_s = fixed_marks[fixed_marks.len() - 1].daemon_cpu_s - fixed_marks[0].daemon_cpu_s;
    let cap_rates: Vec<f64> = cap_quiet
        .iter()
        .zip(&cap_per_tick)
        .filter(|(q, _)| **q)
        .map(|(_, &n)| n as f64 / TICK.as_secs_f64())
        .collect();

    // ---- quiesced verification -----------------------------------------
    let mut rel_errs = Vec::new();
    let mut covered = 0usize;
    let mut checked = 0usize;
    let key_set = |rows: &[sas_store::wire::WindowRow]| -> Vec<String> {
        rows.iter().map(|r| r.key.to_string()).collect()
    };
    let mut verified = false;
    let (mut store_bytes, mut held_rows) = (0, 0);
    for _attempt in 0..5 {
        let before = control.list().map_err(|e| format!("list: {e}"))?;
        let mut answers = Vec::with_capacity(w.battery.len());
        for p in &w.battery {
            let s = &w.series[p.series];
            answers.push(control.estimate(s.dataset, s.kind, &p.query, CONFIDENCE, p.time));
        }
        // Measured between the two listings, so the catalog on disk is the
        // one the first listing describes.
        let bytes = sys::dir_bytes(&store_dir);
        let after = control.list().map_err(|e| format!("list: {e}"))?;
        if key_set(&before) != key_set(&after) {
            std::thread::sleep(Duration::from_millis(300));
            continue;
        }
        for (p, a) in w.battery.iter().zip(answers) {
            let e = match a {
                Ok(a) => a.estimate,
                Err(e) => {
                    problems.push(format!("verification estimate failed: {e}"));
                    continue;
                }
            };
            problems.extend(oracle::malformed(&e));
            let exact = match oracle.exact(&w, p, &before) {
                Ok(x) => x,
                Err(why) => {
                    problems.push(why);
                    continue;
                }
            };
            let s = &w.series[p.series];
            if p.query == Query::Total {
                // The daemon runs unbudgeted (CLI default): sample totals
                // are sums of exact per-batch totals.
                if s.kind == SummaryKind::Sample && !oracle::exact_enough(e.value, exact) {
                    problems.push(format!(
                        "total of {}/{} is {} but exactly {exact}",
                        s.dataset, s.kind, e.value
                    ));
                }
                continue;
            }
            checked += 1;
            covered += oracle::covers(&e, exact) as usize;
            // The error relative to the total weight in the probe's scope
            // (the paper's normalised absolute error): no near-empty probe
            // can blow it up.
            let scope = Probe {
                query: Query::Total,
                ..p.clone()
            };
            match oracle.exact(&w, &scope, &before) {
                Ok(total) if total > 0.0 => rel_errs.push((e.value - exact).abs() / total),
                Ok(_) => {}
                Err(why) => problems.push(why),
            }
        }
        store_bytes = bytes;
        held_rows = oracle.held_rows(&w, &before).unwrap_or_else(|why| {
            problems.push(why);
            0
        });
        verified = true;
        break;
    }
    if !verified {
        problems.push("catalog kept changing after the load stopped".into());
    }
    let peak_rss = sys::peak_rss_mib(daemon.pid);

    drop(control);
    daemon.stop()?;

    // ---- end-to-end metrics ---------------------------------------------
    let fixed_s = fixed_for.as_secs_f64();
    let fixed_done = fixed.iter().filter(|r| r.done.is_some()).count();
    let pct = |v: &[f64], p: f64| percentile_of(v, p);
    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_s), "s");
    e2e.put(
        "cpu_ms_per_req",
        fixed_cpu_s * 1e3 / fixed_done.max(1) as f64,
        "ms",
    );
    e2e.put("peak_rss_mb", peak_rss, "MiB");
    e2e.put(
        "store_bytes_per_row",
        store_bytes as f64 / held_rows.max(1) as f64,
        "B",
    );
    e2e.put("rel_err", stats::mean(&rel_errs), "fraction");
    e2e.put(
        "coverage_90",
        covered as f64 / checked.max(1) as f64,
        "fraction",
    );

    // ---- per-layer metrics: the daemon's own counters --------------------
    let mut layers = Metrics::default();
    let mut server_self_ms = 0.0;
    for tag in ["estimate", "ingest"] {
        for stage in ["read", "parse", "queue", "work", "queued", "flush"] {
            let name = format!("sas_stage_ns{{tag=\"{tag}\",stage=\"{stage}\"}}");
            let find = |r: &MetricsReport| {
                r.histograms
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, h)| h.clone())
            };
            let d = match find(&metrics_after) {
                Some(a) => delta(find(&metrics_before).as_ref(), &a),
                None => HistogramSnapshot::default(),
            };
            if matches!(stage, "read" | "parse" | "flush") {
                server_self_ms += d.sum as f64 / 1e6;
            }
            layers.put(
                format!("server.{tag}.{stage}_p50_us"),
                d.percentile(50.0) as f64 / 1e3,
                "us",
            );
            layers.put(
                format!("server.{tag}.{stage}_p99_us"),
                d.percentile(99.0) as f64 / 1e3,
                "us",
            );
        }
    }
    let cpu_of = |rows: &[(String, f64)], prefix: &str| -> f64 {
        rows.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    };
    layers.put(
        "server.loop_cpu_s",
        cpu_of(&threads_after, "sas-serve-loop") - cpu_of(&threads_before, "sas-serve-loop"),
        "s",
    );
    layers.put(
        "server.worker_cpu_s",
        cpu_of(&threads_after, "sas-serve-worke") - cpu_of(&threads_before, "sas-serve-worke"),
        "s",
    );
    let (before, after) = (&metrics_before, &metrics_after);
    layers.put(
        "server.wakeups_per_req",
        counter_delta(before, after, "sas_loop_wakeups_total") / fixed_done.max(1) as f64,
        "count",
    );
    layers.put(
        "server.shed_requests",
        counter_delta(before, after, "sas_requests_shed_total"),
        "count",
    );
    layers.put(
        "server.backpressure_stalls",
        counter_delta(before, after, "sas_read_backpressure_stalls_total"),
        "count",
    );
    layers.put("loadgen.late_p99_ms", pct(&late_ms, 99.0), "ms");
    layers.put("loadgen.offered_rps", ops.len() as f64 / fixed_s, "req/s");
    let last_done = fixed
        .iter()
        .filter_map(|r| r.done)
        .max()
        .unwrap_or(fixed_for)
        .as_secs_f64();
    layers.put(
        "loadgen.achieved_rps",
        fixed_done as f64 / last_done.max(1e-9),
        "req/s",
    );

    // ---- traced run, with the daemon stopped -----------------------------
    // Set-up ran untraced, so the batch construction is repeated here with
    // spans; then the warm-up and the fixed-rate stream are replayed
    // in-process, untraced first (the baseline for the overhead), then
    // traced.
    let mut tracer = Tracer::new(true);
    Workload::build(&args.workload, seed, &mut tracer).ok_or("unknown workload")?;
    let prebuilt = prebuilt.expect("the last set-up keeps a copy");
    let mut stream: Vec<(f64, Op)> = w.warmup.iter().map(|op| (0.0, op.clone())).collect();
    stream.extend(at.iter().map(|a| a.as_secs_f64()).zip(ops.iter().cloned()));
    stream.truncate(REPLAY_CAP);
    let copy = |name: &str| -> Result<PathBuf, String> {
        let dir = root.join(name);
        sys::copy_dir(&prebuilt, &dir).map_err(|e| format!("copy: {e}"))?;
        Ok(dir)
    };
    let plain = trace::replay(&w, &copy("replay-plain")?, &stream, &mut Tracer::new(false))?;
    let traced = trace::replay(&w, &copy("replay-traced")?, &stream, &mut tracer)?;
    trace::layer_metrics(&tracer, &traced, &mut layers);
    let self_ms = tracer.self_ms();
    for layer in ["sampling", "codec", "wire", "store", "summaries"] {
        layers.put(
            format!("self_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    layers.put("self_ms.server", server_self_ms, "ms");
    layers.put("self_ms.loadgen", gen_cpu_s * 1e3, "ms");
    layers.put(
        "trace.overhead_pct",
        (traced.request_s - plain.request_s) / plain.request_s.max(1e-12) * 100.0,
        "%",
    );
    let path = args
        .work
        .join("traces")
        .join(format!("{}-{}.tsv", args.workload, seed));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("trace file: {e}"))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );

    for p in problems.iter().take(10) {
        eprintln!("perfbench: check failed: {p}");
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let host = sys::host_descriptor(root);
    let mut stamp = format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"offered_rps\": {}, \"fixed_rate_requests\": {}, \"capacity_requests\": {}, \"capacity_rps\": {}, \"error_rate\": {}, \"verification_probes\": {}, \"late_p99_ms\": {}, \"steal_pct\": {}, \"estimate_samples\": {}, \"estimate_p50_ms\": {}, \"estimate_p90_ms\": {}, \"estimate_p99_ms\": {}, \"ingest_samples\": {}, \"ingest_p50_ms\": {}, \"ingest_p90_ms\": {}, \"ingest_p99_ms\": {}",
        json_str(&args.workload),
        json_num(args.seconds),
        json_num(w.rate),
        ops.len(),
        capacity.len(),
        // Completions per second over the probe's quiet ticks (see
        // `stats::quiet_intervals`).
        json_num(median(&cap_rates)),
        json_num(error_rate),
        w.battery.len(),
        json_num(pct(&late_ms, 99.0)),
        json_num(steal_pct),
        est_ms.len(),
        json_num(pct(&est_ms, 50.0)),
        json_num(pct(&est_ms, 90.0)),
        json_num(pct(&est_ms, 99.0)),
        ing_ms.len(),
        json_num(pct(&ing_ms, 50.0)),
        json_num(pct(&ing_ms, 90.0)),
        json_num(pct(&ing_ms, 99.0)),
    );
    for (section, pairs) in [
        ("host", host),
        (
            "params",
            w.params.iter().map(|(k, v)| (*k, v.clone())).collect(),
        ),
    ] {
        stamp.push_str(&format!(", {}: {{", json_str(section)));
        for (i, (k, v)) in pairs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            stamp.push_str(&format!("{sep}{}: {}", json_str(k), json_str(v)));
        }
        stamp.push('}');
    }
    stamp.push_str("}}");
    for metric in e2e.0.iter().chain(&layers.0) {
        eprintln!("{:<44} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    Ok(Outcome {
        stamp,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        e2e,
        layers,
    })
}

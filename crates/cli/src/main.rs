//! `sas` — build structure-aware summaries from TSV data, persist them as
//! versioned binary files, merge them across processes, answer range
//! queries from a summary file alone, and run the summary-store daemon.
//!
//! ```text
//! sas summarize <data.tsv> --size N [--seed S] [--shards N]
//!               [--kind sample|varopt|qdigest|wavelet|sketch]
//!               [--out file.sas] [--per-shard]        > summary.tsv
//! sas merge <a.sas> <b.sas> [...] --out all.sas [--size N] [--seed S]
//! sas query <summary> --range lo..hi                  # 1-D
//! sas query <summary> --range x0..x1,y0..y1           # 2-D
//! sas query <summary> --range :100 --confidence 0.95  # value ± bound
//! sas query <summary> --queries FILE [--format tsv|json]
//! sas info <summary|dir> [more paths...]
//! sas serve <store-dir> [--addr H:P] [--threads N] [--budget N]
//!           [--cache N] [--compact-every MS] [--max-conns N]
//!           [--read-timeout MS] [--idle-timeout MS] [--shed N]
//! sas policy set <dir|addr> --dataset D [--ttl TICKS]
//!            [--compact-after TICKS] [--budget KIND=N ...]
//! sas policy show <dir|addr> [--dataset D]
//! sas client <addr> query --dataset D --range R [--kind K]
//!            [--since T] [--until T] [--confidence C] [--coverage]
//! sas client <addr> watch --dataset D --range R [--kind K]
//!            [--confidence C] [--count N]
//! sas client <addr> ingest <data.tsv> --dataset D [--ts T] [--kind K]
//!            [--size N] [--seed S]
//! sas client <addr> list | stats | ping | shutdown
//! ```
//!
//! `query` and `info` accept both binary frames and legacy TSV summaries;
//! `info` with several paths (or a store directory) prints one line per
//! frame. Every file the CLI writes goes through temp-file + `rename`, so
//! a crash can never leave a torn frame. `serve` runs the `sas-store`
//! daemon (windowed ingest, merge-tree compaction, snapshot reads) and
//! `client` speaks its wire protocol.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sas_cli::{
    answer_queries, build_summary, format_estimates, info_text, load_summary, merge_summaries,
    parse_dataset, parse_query, parse_range, segment_info_text, summarize_per_shard,
    summarize_sharded, write_summary, Dataset, LoadedSummary, OutputFormat,
};
use sas_store::client::Client;
use sas_store::manifest::Manifest;
use sas_store::policy::Policy;
use sas_store::server::{Server, ServerConfig};
use sas_store::{fsio, StorageFormat, Store, StoreConfig};
use sas_summaries::{encode_summary, StoredSample, SummaryKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sas summarize <data.tsv> --size N [--seed S] [--shards N] [--kind K] [--out F] [--per-shard]\n  sas merge <a.sas> <b.sas> [...] --out F [--size N] [--seed S]\n  sas query <summary> --range lo..hi[,lo..hi] [--confidence C] [--format tsv|json]\n  sas query <summary> --queries FILE [--confidence C] [--format tsv|json]\n  sas info <summary|dir> [more paths...]\n  sas compact <store-dir> [--format v1|v2]\n  sas serve <store-dir> [--addr H:P] [--threads N] [--budget N] [--cache N] [--compact-every MS] [--max-conns N] [--read-timeout MS] [--idle-timeout MS] [--shed N] [--slow-query-ms N] [--metrics-every SECS]\n  sas policy set <dir|addr> --dataset D [--ttl TICKS] [--compact-after TICKS] [--budget KIND=N ...]\n  sas policy show <dir|addr> [--dataset D]\n  sas client <addr> query --dataset D --range R [--kind K] [--since T] [--until T] [--confidence C] [--coverage]\n  sas client <addr> watch --dataset D --range R [--kind K] [--confidence C] [--since T] [--until T] [--count N]\n  sas client <addr> ingest <data.tsv> --dataset D [--ts T] [--kind K] [--size N] [--seed S]\n  sas client <addr> metrics [--format prom|tsv|json]\n  sas client <addr> list | stats | ping | shutdown\nranges: lo..hi or lo:hi per axis; either endpoint may be omitted (clamps to the domain)\nquery lines: a range, ranges joined by ';' (disjoint union), 'point C[,C]', 'node LEVEL/INDEX', 'total'\nkinds: sample (default), varopt, qdigest, wavelet, sketch\npolicy set with no policy flags clears the dataset's policy"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "summarize" => cmd_summarize(&args[1..]),
        "merge" => cmd_merge(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "policy" => cmd_policy(&args[1..]),
        "client" => cmd_client(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {flag}").into()),
    }
}

fn cmd_summarize(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing input path")?;
    let size: usize = flag_value(args, "--size")
        .ok_or("missing --size")?
        .parse()
        .map_err(|_| "bad --size")?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let shards: usize = parse_flag(args, "--shards", 1)?;
    let kind = match flag_value(args, "--kind") {
        None => SummaryKind::Sample,
        Some(name) => SummaryKind::from_name(name)
            .ok_or_else(|| format!("unknown --kind '{name}' (see usage)"))?,
    };
    let out = flag_value(args, "--out");
    let text = std::fs::read_to_string(path)?;
    let data = parse_dataset(&text)?;

    if has_flag(args, "--per-shard") {
        let base = out.ok_or("--per-shard requires --out")?;
        if kind != SummaryKind::Sample {
            return Err("--per-shard supports --kind sample only".into());
        }
        let samples = summarize_per_shard(&data, size, seed, shards)?;
        // Tiny inputs may collapse to fewer shards than requested; report
        // the files actually written so scripted merges see real paths.
        let written = samples.len();
        for (i, sample) in samples.into_iter().enumerate() {
            let shard_path = format!("{base}.{i}");
            let stored = StoredSample::one_dim(sample);
            fsio::write_atomic(Path::new(&shard_path), &encode_summary(&stored))?;
        }
        eprintln!(
            "wrote {written} unmerged shard summaries to {base}.0..{base}.{}",
            written - 1
        );
        return Ok(());
    }

    match out {
        Some(out_path) => {
            let summary = build_summary(&data, size, seed, shards, kind)?;
            let bytes = encode_summary(summary.as_ref());
            fsio::write_atomic(Path::new(out_path), &bytes)?;
            eprintln!(
                "wrote {}-item {}–D {} summary ({} bytes) to {out_path}",
                summary.item_count(),
                summary.dims(),
                summary.kind(),
                bytes.len(),
            );
        }
        None => {
            if kind != SummaryKind::Sample {
                return Err(format!(
                    "--kind {kind} has no TSV form; write a binary file with --out"
                )
                .into());
            }
            let (sample, dims) = summarize_sharded(&data, size, seed, shards)?;
            eprintln!(
                "built {}-key {}–D structure-aware summary (tau = {:.6}, {} shard{})",
                sample.len(),
                dims,
                sample.tau(),
                shards,
                if shards == 1 { "" } else { "s" }
            );
            print!("{}", write_summary(&sample, &data));
        }
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // Positional arguments (input paths) end at the first flag.
    let inputs: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    if inputs.len() < 2 {
        return Err("merge needs at least two summary files".into());
    }
    let out = flag_value(args, "--out").ok_or("missing --out")?;
    let budget: Option<usize> = flag_value(args, "--size")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "bad --size")?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let summaries = inputs
        .iter()
        .map(|p| load_summary(&std::fs::read(p.as_str())?).map_err(Into::into))
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
    let n = summaries.len();
    let merged = merge_summaries(summaries, budget, seed)?;
    let bytes = encode_summary(&*merged);
    fsio::write_atomic(Path::new(out), &bytes)?;
    eprintln!(
        "merged {n} {} summaries into {}-item {out} ({} bytes)",
        merged.kind(),
        merged.item_count(),
        bytes.len(),
    );
    Ok(())
}

/// Parses and range-checks a `--confidence` value: `(0, 1]` (1 is only
/// certifiable by the deterministic kinds; sample kinds reject it at
/// answer time when a probabilistic bound is needed).
fn parse_confidence(value: &str) -> Result<f64, Box<dyn std::error::Error>> {
    let c: f64 = value.parse().map_err(|_| "bad --confidence")?;
    if !(c > 0.0 && c <= 1.0) {
        return Err(format!("bad --confidence {value} (want 0 < c <= 1)").into());
    }
    Ok(c)
}

fn cmd_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing summary path")?;
    let summary = load_summary(&std::fs::read(path)?)?;
    let confidence_flag = flag_value(args, "--confidence");
    let confidence: f64 = match confidence_flag {
        None => 0.95,
        Some(v) => parse_confidence(v)?,
    };
    let format = flag_value(args, "--format")
        .map(OutputFormat::from_name)
        .transpose()?;

    // Batch mode: one query spec per line (ranges, multi-ranges, points,
    // hierarchy nodes, total), answered in a single pass for sample kinds.
    if let Some(file) = flag_value(args, "--queries") {
        let text = std::fs::read_to_string(file)?;
        let queries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| parse_query(l, summary.dims()))
            .collect::<Result<Vec<_>, _>>()?;
        if queries.is_empty() {
            return Err("no queries in the batch file".into());
        }
        let estimates = answer_queries(&summary, &queries, confidence)?;
        print!(
            "{}",
            format_estimates(&queries, &estimates, format.unwrap_or(OutputFormat::Tsv))
        );
        return Ok(());
    }

    let spec = flag_value(args, "--range").ok_or("missing --range (or --queries FILE)")?;
    let q = parse_query(spec, summary.dims())?;
    let estimates = answer_queries(&summary, std::slice::from_ref(&q), confidence)?;
    match (format, confidence_flag) {
        // Bare `--range`: the historical single-value contract.
        (None, None) => println!("{}", estimates[0].value),
        (None, Some(_)) => print!(
            "{}",
            format_estimates(std::slice::from_ref(&q), &estimates, OutputFormat::Bounds)
        ),
        (Some(f), _) => print!(
            "{}",
            format_estimates(std::slice::from_ref(&q), &estimates, f)
        ),
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let paths: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        return Err("missing summary path".into());
    }
    // Expand directories into their frame files. A directory with a
    // decodable manifest or a batch log is a store: lead with its
    // lifecycle summary (log records, per-dataset policy, window counts
    // per level, oldest/newest span), then list only the files the store
    // owns — the manifest and frame names — so foreign files (a README,
    // notes) never print as failed summaries. The log is summarized, never
    // decoded as a frame. Any other directory lists every file except
    // in-flight temp debris.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for p in &paths {
        let path = Path::new(p.as_str());
        if path.is_dir() {
            let log_path = path.join(sas_store::LOG_FILE);
            let manifest_path = path.join(sas_store::MANIFEST_FILE);
            let manifest = match std::fs::read(&manifest_path) {
                Ok(bytes) => Manifest::decode(&bytes).ok(),
                Err(_) => log_path.exists().then(Manifest::default),
            };
            let is_store = manifest.is_some();
            if let Some(manifest) = manifest {
                let scan = sas_store::scan_log(path, &manifest)?;
                print!("{}", sas_cli::store_info_text(&manifest, &scan));
                println!(
                    "{}\tlog\t{}\t{}",
                    log_path.display(),
                    scan.live_records,
                    std::fs::metadata(&log_path).map_or(0, |m| m.len())
                );
            }
            files.extend(fsio::walk_files(path)?.into_iter().filter(|f| {
                if is_store {
                    *f == manifest_path || sas_store::parse_frame_file(path, f).is_some()
                } else {
                    f.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| !n.contains(fsio::TEMP_INFIX))
                }
            }));
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.len() == 1 && !Path::new(paths[0].as_str()).is_dir() {
        // Single file keeps the detailed multi-line report. A v2 segment
        // gets its own header dump (section table, CRC status) — it is
        // served in place, so a v1 "serialized bytes" line would mislead.
        let bytes = std::fs::read(&files[0])?;
        if sas_codec::segment::is_segment(&bytes) {
            print!("{}", segment_info_text(&bytes)?);
            return Ok(());
        }
        let summary: LoadedSummary = load_summary(&bytes)?;
        print!("{}", info_text(&summary, Some(bytes.len() as u64)));
        return Ok(());
    }
    // Several paths or a directory: one `path kind items bytes` line per
    // frame (manifests report their window count as items).
    for file in &files {
        let bytes = std::fs::read(file)?;
        let line = match load_summary(&bytes) {
            Ok(summary) => format!(
                "{}\t{}\t{}\t{}",
                file.display(),
                summary.kind(),
                summary.item_count(),
                bytes.len()
            ),
            Err(load_err) => match Manifest::decode(&bytes) {
                Ok(manifest) => format!(
                    "{}\tmanifest\t{}\t{}",
                    file.display(),
                    manifest.entries.len(),
                    bytes.len()
                ),
                Err(_) => format!("{}\terror\t-\t{load_err}", file.display()),
            },
        };
        println!("{line}");
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.first().ok_or("missing store directory")?;
    if !Path::new(dir.as_str()).is_dir() {
        return Err(format!("'{dir}' is not a store directory").into());
    }
    let (format, label) = match flag_value(args, "--format") {
        None | Some("v2") => (StorageFormat::SegmentV2, "v2 segment"),
        Some("v1") => (StorageFormat::FrameV1, "v1 frame"),
        Some(other) => return Err(format!("unknown --format '{other}' (want v1 or v2)").into()),
    };
    let store = Store::open(dir.as_str(), StoreConfig::default())?;
    let windows = store.list().len();
    let converted = store.convert(format)?;
    eprintln!(
        "converted {converted} of {windows} window{} in {dir} to {label} files",
        if windows == 1 { "" } else { "s" }
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.first().ok_or("missing store directory")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:4741");
    let threads: usize = parse_flag(args, "--threads", 4)?;
    let budget: Option<usize> = flag_value(args, "--budget")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "bad --budget")?;
    let cache_capacity: usize = parse_flag(args, "--cache", 1024)?;
    let compact_every_ms: u64 = parse_flag(args, "--compact-every", 1000)?;
    let defaults = ServerConfig::default();
    let max_conns: usize = parse_flag(args, "--max-conns", defaults.max_conns)?;
    let read_timeout_ms: u64 = parse_flag(
        args,
        "--read-timeout",
        defaults.read_timeout.as_millis() as u64,
    )?;
    // 0 (the default): idle connections are never reaped.
    let idle_timeout_ms: u64 = parse_flag(args, "--idle-timeout", 0)?;
    let shed: usize = parse_flag(args, "--shed", defaults.dataset_inflight)?;
    // Threshold 0 logs every request (handy when tracing a live daemon);
    // omitting the flag disables the slow-query log entirely.
    let slow_query_ms: u64 = parse_flag(args, "--slow-query-ms", u64::MAX)?;
    let metrics_every_secs: u64 = parse_flag(args, "--metrics-every", 0)?;

    let store = Arc::new(Store::open(
        dir.as_str(),
        StoreConfig {
            budget,
            cache_capacity,
        },
    )?);
    let recovered = store.list().len();
    let server = Server::start_with(
        store.clone(),
        addr,
        ServerConfig {
            threads,
            max_conns,
            read_timeout: Duration::from_millis(read_timeout_ms),
            idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
            dataset_inflight: shed,
            slow_query: (slow_query_ms != u64::MAX).then(|| Duration::from_millis(slow_query_ms)),
            // The event loop drives retention + compaction on this
            // cadence.
            lifecycle_every: (compact_every_ms > 0)
                .then(|| Duration::from_millis(compact_every_ms)),
            ..defaults
        },
    )?;
    // The "listening" line is the readiness signal scripts wait for; it
    // reports the real port when --addr used an ephemeral one.
    eprintln!("sas-store: listening on {}", server.local_addr());
    eprintln!("sas-store: {recovered} windows recovered from {dir}");
    if metrics_every_secs > 0 {
        // Periodic operational dump; dies with the process when the
        // daemon exits, so no shutdown plumbing is needed.
        let store = store.clone();
        std::thread::Builder::new()
            .name("sas-metrics-dump".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_secs(metrics_every_secs));
                eprint!("{}", store.obs().snapshot().to_tsv());
            })
            .expect("spawn metrics dumper");
    }
    server.wait();
    eprintln!("sas-store: shut down cleanly");
    Ok(())
}

/// Collects every value of a repeatable flag (`--budget sample=64
/// --budget sketch=32`).
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Builds a [`Policy`] from `--ttl`, `--compact-after`, and repeated
/// `--budget KIND=N` flags. No flags at all yields the empty policy,
/// which `policy set` treats as "clear".
fn parse_policy(args: &[String]) -> Result<Policy, Box<dyn std::error::Error>> {
    let mut policy = Policy {
        retention_ttl: flag_value(args, "--ttl")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "bad --ttl")?,
        compact_after: flag_value(args, "--compact-after")
            .map(|v| v.parse())
            .transpose()
            .map_err(|_| "bad --compact-after")?,
        ..Policy::default()
    };
    for spec in flag_values(args, "--budget") {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --budget '{spec}' (want KIND=N)"))?;
        let kind = SummaryKind::from_name(name)
            .ok_or_else(|| format!("unknown summary kind '{name}' in --budget"))?;
        let budget: u64 = value
            .parse()
            .map_err(|_| format!("bad --budget '{spec}' (want KIND=N)"))?;
        policy.per_kind_budget.insert(kind.tag(), budget);
    }
    Ok(policy)
}

/// `sas policy set|show` against a store directory (offline) or a running
/// daemon (over the wire) — the target decides.
fn cmd_policy(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let sub = args.first().ok_or("missing policy subcommand (set|show)")?;
    let target = args
        .get(1)
        .ok_or("missing store directory or daemon address")?;
    let rest = &args[2..];
    let offline = Path::new(target.as_str()).is_dir();
    match sub.as_str() {
        "set" => {
            let dataset = flag_value(rest, "--dataset").ok_or("missing --dataset")?;
            let policy = parse_policy(rest)?;
            if offline {
                let store = Store::open(target.as_str(), StoreConfig::default())?;
                store.set_policy(dataset, policy.clone())?;
            } else {
                Client::connect(target.as_str())?.set_policy(dataset, policy.clone())?;
            }
            if policy.is_empty() {
                eprintln!("cleared policy for {dataset}");
            } else {
                eprintln!("set policy for {dataset}: {policy}");
            }
        }
        "show" => {
            let dataset = flag_value(rest, "--dataset");
            let rows = if offline {
                let store = Store::open(target.as_str(), StoreConfig::default())?;
                match dataset {
                    None => store.policies(),
                    Some(d) => store
                        .policy(d)
                        .map(|p| (d.to_string(), p))
                        .into_iter()
                        .collect(),
                }
            } else {
                Client::connect(target.as_str())?.policies(dataset)?
            };
            for (d, p) in rows {
                println!("{d}\t{p}");
            }
        }
        other => return Err(format!("unknown policy subcommand '{other}' (want set|show)").into()),
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.first().ok_or("missing server address")?;
    let sub = args.get(1).ok_or("missing client subcommand")?;
    let rest = &args[2..];
    let mut client = Client::connect(addr.as_str())?;
    match sub.as_str() {
        "query" => {
            let dataset = flag_value(rest, "--dataset").ok_or("missing --dataset")?;
            let kind = parse_kind(rest)?;
            let spec = flag_value(rest, "--range").ok_or("missing --range")?;
            // The daemon knows the series' dimensionality; infer axes from
            // the spec itself.
            let dims = spec.split(',').count();
            let range = parse_range(spec, dims)?;
            let since: Option<u64> = flag_value(rest, "--since")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --since")?;
            let until: Option<u64> = flag_value(rest, "--until")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --until")?;
            let time = match (since, until) {
                (None, None) => None,
                (t0, t1) => Some((t0.unwrap_or(0), t1.unwrap_or(u64::MAX))),
            };
            let confidence = flag_value(rest, "--confidence");
            let (windows, cached) = if has_flag(rest, "--coverage") {
                // Gap-aware protocol: the estimate plus which stretches of
                // the requested span were missing or expired.
                let confidence = confidence
                    .map(parse_confidence)
                    .transpose()?
                    .unwrap_or(0.95);
                let q = sas_summaries::Query::BoxRange(range);
                let ans = client.estimate_cov(dataset, kind, &q, confidence, time)?;
                print_estimate_line(&ans.estimate);
                println!("coverage: {}", ans.coverage);
                (ans.windows, ans.cached)
            } else if let Some(c) = confidence {
                // New protocol: value with an error bar.
                let confidence = parse_confidence(c)?;
                let q = sas_summaries::Query::BoxRange(range);
                let ans = client.estimate(dataset, kind, &q, confidence, time)?;
                print_estimate_line(&ans.estimate);
                (ans.windows, ans.cached)
            } else {
                // Old wire tag, still answered: bare value.
                let ans = client.query(dataset, kind, &range, time)?;
                println!("{}", ans.value);
                (ans.windows, ans.cached)
            };
            eprintln!(
                "consulted {windows} window{}{}",
                if windows == 1 { "" } else { "s" },
                if cached { " (cached)" } else { "" }
            );
        }
        "watch" => {
            let dataset = flag_value(rest, "--dataset").ok_or("missing --dataset")?;
            let kind = parse_kind(rest)?;
            let spec = flag_value(rest, "--range").ok_or("missing --range")?;
            let dims = spec.split(',').count();
            let range = parse_range(spec, dims)?;
            let since: Option<u64> = flag_value(rest, "--since")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --since")?;
            let until: Option<u64> = flag_value(rest, "--until")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --until")?;
            let time = match (since, until) {
                (None, None) => None,
                (t0, t1) => Some((t0.unwrap_or(0), t1.unwrap_or(u64::MAX))),
            };
            let confidence = flag_value(rest, "--confidence")
                .map(parse_confidence)
                .transpose()?
                .unwrap_or(0.95);
            // 0: watch forever (until the daemon closes the connection).
            let count: u64 = parse_flag(rest, "--count", 0)?;
            let q = sas_summaries::Query::BoxRange(range);
            // Subscribe first, then poll the baseline: once the baseline
            // line is out, the subscription is registered — a script may
            // start ingesting the moment it reads it. The baseline prints
            // in the same format as every later push (pushes go through
            // the daemon's one estimate path), so a push and a poll of the
            // same state print the identical line.
            let watch_id = client.watch(dataset, kind, &q, confidence, time)?;
            let first = client.estimate_cov(dataset, kind, &q, confidence, time)?;
            print_estimate_line(&first.estimate);
            eprintln!("coverage: {}", first.coverage);
            eprintln!("watching {dataset} (watch {watch_id}); updates follow");
            let mut seen = 0u64;
            while count == 0 || seen < count {
                let update = client.next_update()?;
                print_estimate_line(&update.estimate);
                eprintln!(
                    "update watch={} version={} windows={} coverage: {}",
                    update.watch_id, update.version, update.windows, update.coverage
                );
                seen += 1;
            }
        }
        "ingest" => {
            // The data path is strictly positional (before any flag), like
            // every other subcommand — scanning further would mistake flag
            // values for it.
            let path = rest
                .first()
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing data path (it must come before the flags)")?;
            let dataset = flag_value(rest, "--dataset").ok_or("missing --dataset")?;
            let ts: u64 = parse_flag(rest, "--ts", 0)?;
            let kind = parse_kind(rest)?;
            let seed: u64 = parse_flag(rest, "--seed", 0)?;
            let text = std::fs::read_to_string(path.as_str())?;
            let data = parse_dataset(&text)?;
            let rows = match &data {
                Dataset::OneDim(rows) => rows.len(),
                Dataset::TwoDim(s) => s.len(),
            };
            // Default batch budget: every row survives (an exact batch).
            let size: usize = parse_flag(rest, "--size", rows)?;
            let summary = build_summary(&data, size, seed, 1, kind)?;
            let ack = client.ingest(dataset, ts, encode_summary(summary.as_ref()))?;
            eprintln!(
                "ingested {rows} rows into {}/{kind}/{}/{} ({} items)",
                dataset, ack.level, ack.start, ack.items
            );
        }
        "list" => {
            for row in client.list()? {
                println!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    row.key.dataset,
                    row.key.kind,
                    row.key.level,
                    row.key.start,
                    row.items,
                    row.batches,
                    row.frame_bytes
                );
            }
        }
        "stats" => {
            // The daemon emits stats in its own fixed (not alphabetical)
            // order, which may change across versions; sort by name so the
            // output is stable and diffable.
            let mut pairs = client.stats()?;
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, value) in pairs {
                println!("{name}: {value}");
            }
        }
        "metrics" => {
            let report = client.metrics()?;
            match flag_value(rest, "--format").unwrap_or("prom") {
                "prom" => print!("{}", report.to_prometheus()),
                "tsv" => print!("{}", report.to_tsv()),
                "json" => print!("{}", report.to_json()),
                other => {
                    return Err(format!("unknown --format '{other}' (want prom|tsv|json)").into())
                }
            }
        }
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "shutdown" => {
            client.shutdown()?;
            eprintln!("server shut down");
        }
        other => return Err(format!("unknown client subcommand '{other}'").into()),
    }
    Ok(())
}

/// The one-line estimate format shared by `client query --confidence`,
/// `client query --coverage`, and every `client watch` push — identical
/// state must print the identical line.
fn print_estimate_line(e: &sas_summaries::Estimate) {
    println!(
        "{} ±{} [{}, {}] @{}",
        e.value,
        e.half_width(),
        e.lower,
        e.upper,
        e.confidence
    );
}

fn parse_kind(args: &[String]) -> Result<SummaryKind, Box<dyn std::error::Error>> {
    match flag_value(args, "--kind") {
        None => Ok(SummaryKind::Sample),
        Some(name) => {
            SummaryKind::from_name(name).ok_or_else(|| format!("unknown --kind '{name}'").into())
        }
    }
}

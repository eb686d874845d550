//! Cold-catalog query throughput: v2 mapped segments served in place vs.
//! v1 frames decoded on demand.
//!
//! The workload models a store waking up over a catalog of `W` persisted
//! windows and answering `Q` range queries against every window, repeated
//! for `R` rounds:
//!
//! * **decode** — the v1 path: each round reads and decodes every window's
//!   frame (a cold catalog holds no hydrated summaries, so serving a round
//!   of queries pays the full decode), then answers the batch against the
//!   owned summary.
//! * **view** — the v2 path: each window's segment file is mapped and
//!   validated once (that is the catalog's resident state — the store
//!   keeps cold windows as [`sas_store::mapped::Mapped`] segments), and
//!   every round answers the same batch straight through the column views,
//!   no decode and no allocation per round.
//!
//! Both paths answer the identical query battery and the bench exits
//! non-zero if any answer drifts bitwise — the ratio is only meaningful if
//! the two paths agree. `scripts/bench_core.sh` records the two rates in
//! `BENCH_core.json` (`cold_query_view_qps`, `cold_query_decode_qps`) and
//! `scripts/bench_regression.sh` gates them; CI additionally asserts the
//! view/decode ratio stays ≥ 2x.
//!
//! The battery per round is deliberately small (default 8 queries): the
//! cold-catalog access pattern is a few queries arriving at a window whose
//! summary is not resident, so the v1 path pays a full decode for a
//! handful of answers. Large batteries amortize the decode away and
//! measure the (identical) answer loops instead.
//!
//! Environment knobs: `SAS_COLD_WINDOWS` (default 64), `SAS_COLD_ROWS`
//! (rows per window, default 2000), `SAS_COLD_BUDGET` (sample budget per
//! window, default 512), `SAS_COLD_QUERIES` (queries per round, default
//! 8), `SAS_COLD_ROUNDS` (default 32). `--json PATH` writes the
//! machine-readable result.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{env_usize, mix, parse_json_flag, print_table, timed, JsonObj};
use sas_core::WeightedKey;
use sas_store::mapped::Mapped;
use sas_summaries::{
    decode_summary, encode_segment, encode_summary, Estimate, Query, SegmentSummary, StoredSample,
    Summary,
};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cold bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let windows = env_usize("SAS_COLD_WINDOWS", 64).max(1);
    let rows = env_usize("SAS_COLD_ROWS", 2000).max(16) as u64;
    let budget = env_usize("SAS_COLD_BUDGET", 512).max(8);
    let queries = env_usize("SAS_COLD_QUERIES", 8).max(1);
    let rounds = env_usize("SAS_COLD_ROUNDS", 32).max(1);
    let confidence = 0.95;

    let dir = std::env::temp_dir().join(format!("sas-cold-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // One budgeted 1-D stored sample per window over adjacent key spans,
    // persisted twice: the v1 frame and the equivalent v2 segment.
    let mut frame_paths: Vec<PathBuf> = Vec::with_capacity(windows);
    let mut segment_paths: Vec<PathBuf> = Vec::with_capacity(windows);
    for w in 0..windows as u64 {
        let data: Vec<WeightedKey> = (w * rows..(w + 1) * rows)
            .map(|k| WeightedKey::new(k, 0.5 + (k % 11) as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(w + 11);
        let sample = sas_sampling::order::sample(&data, budget, &mut rng);
        let stored = StoredSample::one_dim(sample);
        let frame = encode_summary(&stored);
        let segment = encode_segment(&stored).ok_or("stored sample has a segment layout")?;
        let frame_path = dir.join(format!("w{w}.frame.sas"));
        let segment_path = dir.join(format!("w{w}.segment.sas"));
        std::fs::write(&frame_path, &frame).map_err(|e| format!("write frame: {e}"))?;
        std::fs::write(&segment_path, &segment).map_err(|e| format!("write segment: {e}"))?;
        frame_paths.push(frame_path);
        segment_paths.push(segment_path);
    }

    let span = windows as u64 * rows;
    let battery: Vec<Query> = (0..queries as u64)
        .map(|i| {
            let lo = mix(i) % span;
            let hi = lo + (mix(i ^ 1) % (span - lo)).max(1);
            Query::interval(lo, hi)
        })
        .collect();

    // The catalog's resident state for the view path: every segment mapped
    // and validated once, up front.
    let views: Vec<SegmentSummary> = segment_paths
        .iter()
        .map(|p| {
            let mapped = Mapped::open(p).map_err(|e| format!("map {}: {e}", p.display()))?;
            SegmentSummary::open(Arc::new(mapped)).map_err(|e| format!("open segment: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mapped_count = views.iter().filter(|v| v.segment_len() > 0).count();

    // Per-batch latencies live twice on each path: the lock-free histogram
    // is what gets reported (the same math the daemon's metrics serve), the
    // raw vector is sort-based ground truth to cross-check it against.
    let answered = (queries * windows * rounds) as f64;
    let decode_hist = sas_obs::Histogram::new();
    let mut decode_lat_ms: Vec<f64> = Vec::with_capacity(windows * rounds);
    let mut decode_answers: Vec<Vec<Estimate>> = Vec::new();
    let mut decode_err = None;
    let (_, decode_secs) = timed(|| {
        for round in 0..rounds {
            for path in &frame_paths {
                let batch_started = Instant::now();
                let result = std::fs::read(path)
                    .map_err(|e| format!("read frame: {e}"))
                    .and_then(|bytes| {
                        decode_summary(&bytes).map_err(|e| format!("decode frame: {e}"))
                    })
                    .and_then(|summary| {
                        summary
                            .answer_batch(&battery, confidence)
                            .map_err(|e| format!("decode-path answer: {e}"))
                    });
                let elapsed = batch_started.elapsed();
                decode_hist.record_duration(elapsed);
                decode_lat_ms.push(elapsed.as_secs_f64() * 1e3);
                match result {
                    Ok(answers) => {
                        if round == 0 {
                            decode_answers.push(answers);
                        }
                    }
                    Err(e) => decode_err = Some(e),
                }
            }
        }
    });
    if let Some(e) = decode_err {
        return Err(e);
    }

    let view_hist = sas_obs::Histogram::new();
    let mut view_lat_ms: Vec<f64> = Vec::with_capacity(windows * rounds);
    let mut view_answers: Vec<Vec<Estimate>> = Vec::new();
    let mut view_err = None;
    let (_, view_secs) = timed(|| {
        for round in 0..rounds {
            for view in &views {
                let batch_started = Instant::now();
                let result = view.answer_batch(&battery, confidence);
                let elapsed = batch_started.elapsed();
                view_hist.record_duration(elapsed);
                view_lat_ms.push(elapsed.as_secs_f64() * 1e3);
                match result {
                    Ok(answers) => {
                        if round == 0 {
                            view_answers.push(answers);
                        }
                    }
                    Err(e) => view_err = Some(format!("view-path answer: {e}")),
                }
            }
        }
    });
    if let Some(e) = view_err {
        return Err(e);
    }

    let _ = std::fs::remove_dir_all(&dir);

    // The ratio is only meaningful if the paths agree bitwise.
    if decode_answers.len() != view_answers.len() {
        return Err("decode/view window count mismatch".into());
    }
    for (w, (d, v)) in decode_answers.iter().zip(&view_answers).enumerate() {
        for (q, (a, b)) in d.iter().zip(v).enumerate() {
            if a.value.to_bits() != b.value.to_bits()
                || a.lower.to_bits() != b.lower.to_bits()
                || a.upper.to_bits() != b.upper.to_bits()
            {
                return Err(format!(
                    "window {w} query {q}: view answer drifted from decode ({} vs {})",
                    b.value, a.value
                ));
            }
        }
    }

    // Histogram percentiles must agree with a sort of the raw batch
    // latencies to within one log bucket before they are worth reporting.
    decode_lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    view_lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let decode_snap = decode_hist.snapshot();
    let view_snap = view_hist.snapshot();
    sas_bench::assert_hist_matches_sorted(&decode_snap, &decode_lat_ms, "decode path");
    sas_bench::assert_hist_matches_sorted(&view_snap, &view_lat_ms, "view path");

    let decode_qps = answered / decode_secs;
    let view_qps = answered / view_secs;
    let ratio = view_qps / decode_qps;
    let batch_us = |snap: &sas_obs::HistogramSnapshot, p: f64| snap.percentile(p) as f64 / 1e3;
    print_table(
        &format!(
            "cold catalog ({windows} windows x {queries} queries x {rounds} rounds, \
             {mapped_count} segments mapped)"
        ),
        &["path", "qps", "secs", "ratio", "p50_us", "p95_us", "p99_us"],
        &[
            vec![
                "decode".into(),
                format!("{decode_qps:.0}"),
                format!("{decode_secs:.3}"),
                "1.00".into(),
                format!("{:.1}", batch_us(&decode_snap, 50.0)),
                format!("{:.1}", batch_us(&decode_snap, 95.0)),
                format!("{:.1}", batch_us(&decode_snap, 99.0)),
            ],
            vec![
                "view".into(),
                format!("{view_qps:.0}"),
                format!("{view_secs:.3}"),
                format!("{ratio:.2}"),
                format!("{:.1}", batch_us(&view_snap, 50.0)),
                format!("{:.1}", batch_us(&view_snap, 95.0)),
                format!("{:.1}", batch_us(&view_snap, 99.0)),
            ],
        ],
    );

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "cold_catalog")
            .int("windows", windows as u64)
            .int("rows", rows)
            .int("budget", budget as u64)
            .int("queries", queries as u64)
            .int("rounds", rounds as u64)
            .num("cold_query_decode_qps", decode_qps)
            .num("cold_query_view_qps", view_qps)
            .num("cold_view_decode_ratio", ratio)
            .num("cold_decode_batch_p99_us", batch_us(&decode_snap, 99.0))
            .num("cold_view_batch_p99_us", batch_us(&view_snap, 99.0));
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

//! Query-API throughput: batch vs. loop evaluation across the summary
//! kinds (including a 2-D stored sample — the SoA hot path), and estimate
//! throughput against a live store at 1/4/8 reader threads.
//!
//! Two tables:
//!
//! 1. **summary-level** — per kind, `M` mixed queries answered one
//!    `answer()` call at a time (loop) vs. one `answer_batch()` call
//!    (batch: a single pass over the sample items for the sample-based
//!    kinds), repeated `SAS_QUERY_REPS` times for stable rates.
//! 2. **store-level** — `Store::estimate` ops/s at 1/4/8 threads, cold
//!    (distinct canonical queries, every call walks the windows) and hot
//!    (one repeated query, served by the LRU cache).
//!
//! Plus one kernel rate, `interval_per_s`: `weight_confidence_interval`
//! calls per second over a fixed `(a_j, τ, δ)` grid (light-key counts
//! 0–3000, three thresholds, per-window δ of 0.1 split over 1–20 windows)
//! — the Eqn-4 inversion every sample and VarOpt window answer pays.
//!
//! Environment knobs: `SAS_QUERY_ITEMS` (rows per dataset, default 20000),
//! `SAS_QUERY_BATCH` (queries per batch, default 64), `SAS_QUERY_OPS`
//! (store queries per thread count, default 4000), `SAS_QUERY_REPS`
//! (summary-level repetitions, default 50).
//!
//! `--json PATH` writes the machine-readable result consumed by
//! `scripts/bench_core.sh`; any phase failure (including a batch answer
//! drifting from the loop answer bitwise) exits non-zero.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{env_usize, mix, parse_json_flag, print_table, timed, JsonObj};
use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_sampling::product::SpatialData;
use sas_store::{Store, StoreConfig};
use sas_summaries::countsketch::SketchSummary;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{Query, StoredSample, Summary, SummaryKind};

/// A mixed battery over a 1-D key span or a 2-D `2^bits` square: boxes,
/// multi-ranges, points, hierarchy nodes, and totals.
fn battery(count: usize, dims: usize, span: u64, salt: u64) -> Vec<Query> {
    (0..count as u64)
        .map(|i| {
            let lo = mix(i ^ salt) % span;
            let hi = lo + (mix(i ^ salt ^ 1) % (span - lo)).max(1);
            match i % 5 {
                0 => {
                    if dims == 1 {
                        Query::BoxRange(vec![(lo, hi)])
                    } else {
                        Query::BoxRange(vec![(lo, hi), (mix(i) % span, span - 1)])
                    }
                }
                1 => {
                    let mid = lo + (hi - lo) / 2;
                    if mid + 1 < hi && lo < mid {
                        Query::MultiRange(vec![vec![(lo, mid)], vec![(mid + 1, hi)]])
                    } else {
                        Query::BoxRange(vec![(lo, hi)])
                    }
                }
                2 => Query::Point(vec![lo % span; dims]),
                3 => Query::HierarchyNode {
                    level: 4,
                    index: (lo % span) >> 4,
                },
                _ => Query::Total,
            }
        })
        .collect()
}

/// The `interval_per_s` grid: `a_j = k·τ` for light-key counts `k` a
/// window answer sees, at three thresholds, with δ = 0.1 and 0.01 split
/// over 1, 7 and 20 windows (the store's per-window `δ/k`).
fn interval_grid() -> Vec<(f64, f64, f64)> {
    let mut grid = Vec::new();
    for k in [0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0] {
        for tau in [0.37, 12.5, 4400.0] {
            for delta in [0.1, 0.1 / 7.0, 0.1 / 20.0, 0.01, 0.01 / 20.0] {
                grid.push((k * tau, tau, delta));
            }
        }
    }
    grid
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("query bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let items = env_usize("SAS_QUERY_ITEMS", 20_000);
    let batch = env_usize("SAS_QUERY_BATCH", 64);
    let ops = env_usize("SAS_QUERY_OPS", 4000);
    let reps = env_usize("SAS_QUERY_REPS", 50).max(1);
    let confidence = 0.95;

    let data: Vec<WeightedKey> = (0..items as u64)
        .map(|k| WeightedKey::new(k, 0.5 + (k % 13) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let sample = sas_sampling::order::sample(&data, 2000, &mut rng);
    let mut varopt = VarOptSampler::new(2000);
    for wk in &data {
        varopt.push(wk.key, wk.weight, &mut rng);
    }
    let rows: Vec<(u64, u64, f64)> = (0..items as u64)
        .map(|i| (mix(i) % 256, mix(i ^ 99) % 256, 0.5 + (i % 9) as f64))
        .collect();
    let spatial = SpatialData::from_xyw(&rows);

    // The 2-D stored sample: keys are row indices, each carrying its (x, y)
    // location — the layout whose per-item range tests dominate the
    // answer_batch profile.
    let sample2d = {
        let mut r = StdRng::seed_from_u64(2);
        let smp = sas_sampling::order::sample(&spatial.keys, 2000, &mut r);
        StoredSample::spatial(smp, &spatial).map_err(|e| format!("build 2-D sample: {e}"))?
    };

    let summaries: Vec<(&str, Box<dyn Summary>)> = vec![
        ("sample", Box::new(StoredSample::one_dim(sample.clone()))),
        ("sample2d", Box::new(sample2d)),
        ("varopt", Box::new(varopt)),
        ("qdigest", Box::new(QDigestSummary::build(&spatial, 8, 800))),
        (
            "wavelet",
            Box::new(WaveletSummary::build(&spatial, 8, 8, 800)),
        ),
        (
            "sketch",
            Box::new(SketchSummary::build(&spatial, 8, 8, 4000, 7)),
        ),
    ];

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut rates: Vec<(String, f64, f64)> = Vec::new();
    for (idx, (label, summary)) in summaries.iter().enumerate() {
        let dims = summary.dims();
        let span = if dims == 1 { items as u64 } else { 256 };
        let queries = battery(batch, dims, span, idx as u64 + 1);
        let mut loop_err = None;
        let (loop_answers, loop_secs) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..reps {
                match queries
                    .iter()
                    .map(|q| summary.answer(q, confidence))
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(a) => last = a,
                    Err(e) => loop_err = Some(format!("{label}: loop answer: {e}")),
                }
            }
            last
        });
        let mut batch_err = None;
        let (batch_answers, batch_secs) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..reps {
                match summary.answer_batch(&queries, confidence) {
                    Ok(a) => last = a,
                    Err(e) => batch_err = Some(format!("{label}: batch answer: {e}")),
                }
            }
            last
        });
        if let Some(e) = loop_err.or(batch_err) {
            return Err(e);
        }
        if loop_answers.len() != batch_answers.len() {
            return Err(format!("{label}: loop/batch answer count mismatch"));
        }
        for (q, (a, b)) in queries.iter().zip(loop_answers.iter().zip(&batch_answers)) {
            if a.value.to_bits() != b.value.to_bits() {
                return Err(format!(
                    "{label}: batch answer drifted from loop answer on {q}: {} vs {}",
                    a.value, b.value
                ));
            }
        }
        let total_queries = (queries.len() * reps) as f64;
        let loop_qps = total_queries / loop_secs;
        let batch_qps = total_queries / batch_secs;
        rates.push(((*label).to_string(), loop_qps, batch_qps));
        table.push(vec![
            (*label).to_string(),
            format!("{loop_qps:.0}"),
            format!("{batch_qps:.0}"),
            format!("{:.2}", loop_secs / batch_secs),
        ]);
    }
    print_table(
        &format!("batch vs loop (queries/s, {batch} queries x {reps} reps)"),
        &["kind", "loop_qps", "batch_qps", "speedup"],
        &table,
    );

    let grid = interval_grid();
    let rounds = reps * 40;
    let (checksum, secs) = timed(|| {
        let mut sum = 0.0;
        for _ in 0..rounds {
            for &(a_j, tau, delta) in &grid {
                let (lo, hi) = sas_core::bounds::weight_confidence_interval(
                    std::hint::black_box(a_j),
                    tau,
                    delta,
                );
                sum += lo + hi;
            }
        }
        sum
    });
    if !checksum.is_finite() {
        return Err("interval grid produced a non-finite end".into());
    }
    let interval_per_s = (rounds * grid.len()) as f64 / secs;
    print_table(
        &format!(
            "Eqn-4 interval inversion ({} grid points x {rounds})",
            grid.len()
        ),
        &["op", "per_s", "ns_per_call"],
        &[vec![
            "weight_confidence_interval".into(),
            format!("{interval_per_s:.0}"),
            format!("{:.0}", 1e9 / interval_per_s),
        ]],
    );

    // Store-level: ingest one window per kind, then hammer estimates.
    let dir = std::env::temp_dir().join(format!("sas-query-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        Store::open(
            &dir,
            StoreConfig {
                budget: None,
                cache_capacity: 4096,
            },
        )
        .map_err(|e| format!("open store: {e}"))?,
    );
    for (i, (_, summary)) in summaries.iter().enumerate() {
        store
            .ingest("bench", i as u64 * 60, summary.clone())
            .map_err(|e| format!("ingest: {e}"))?;
    }

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut store_hot_8t = 0.0;
    for threads in [1usize, 4, 8] {
        for (mode, hot) in [("estimate-cold", false), ("estimate-hot", true)] {
            let per_thread = ops / threads;
            let (worker_results, secs) = timed(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let store = store.clone();
                            scope.spawn(move || -> Result<(), String> {
                                for i in 0..per_thread {
                                    let lo = if hot {
                                        0
                                    } else {
                                        mix((threads * 1_000_003 + t * per_thread + i) as u64)
                                            % items as u64
                                    };
                                    let q = Query::interval(lo, lo + items as u64 / 4);
                                    let ans = store
                                        .estimate(
                                            "bench",
                                            SummaryKind::Sample,
                                            &q,
                                            confidence,
                                            None,
                                        )
                                        .map_err(|e| format!("estimate: {e}"))?;
                                    if ans.estimate.lower > ans.estimate.upper {
                                        return Err("estimate bounds inverted".into());
                                    }
                                }
                                Ok(())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("estimate worker panicked"))
                        .collect::<Result<Vec<_>, _>>()
                })
            });
            worker_results?;
            let ops_per_sec = (per_thread * threads) as f64 / secs;
            if hot && threads == 8 {
                store_hot_8t = ops_per_sec;
            }
            table.push(vec![
                mode.into(),
                threads.to_string(),
                format!("{ops_per_sec:.0}"),
            ]);
        }
    }
    print_table(
        "store estimate throughput (ops/s)",
        &["op", "threads", "ops_per_sec"],
        &table,
    );
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "core_query")
            .int("items", items as u64)
            .int("batch", batch as u64)
            .int("reps", reps as u64);
        for (label, loop_qps, batch_qps) in &rates {
            if label == "sample" {
                obj.num("answer_batch_1d_qps", *batch_qps)
                    .num("answer_loop_1d_qps", *loop_qps);
            } else if label == "sample2d" {
                obj.num("answer_batch_2d_qps", *batch_qps)
                    .num("answer_loop_2d_qps", *loop_qps);
            }
        }
        let mut kinds = JsonObj::new();
        for (label, loop_qps, batch_qps) in &rates {
            let mut kind = JsonObj::new();
            kind.num("loop_qps", *loop_qps).num("batch_qps", *batch_qps);
            kinds.obj(label, &kind);
        }
        obj.obj("kinds", &kinds)
            .num("store_hot_8t_ops_per_s", store_hot_8t)
            .num("interval_per_s", interval_per_s);
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

//! Persistence-layer throughput: encode and decode bandwidth per summary
//! kind, plus the end-to-end *merge-from-disk* pipeline (read shard frames
//! → batch-decode → bottom-up budgeted merge tree), the path a distributed
//! summarization deployment pays per merge worker.
//!
//! Environment knobs: `SAS_CODEC_N` (1-D stream length, default 200000),
//! `SAS_CODEC_S` (summary budget, default 4000), `SAS_CODEC_SHARDS`
//! (shard files per merge, default 8), `SAS_CODEC_REPS` (encode/decode
//! repetitions, default 50), `SAS_CODEC_MERGE_REPS` (pipeline repetitions,
//! default 20).
//!
//! `--json PATH` writes the machine-readable result consumed by
//! `scripts/bench_core.sh`; any phase failure exits non-zero.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sas_bench::{env_usize, parse_json_flag, print_table, timed, JsonObj};
use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_sampling::product::SpatialData;
use sas_sampling::sharded::{per_shard_samples, ShardedConfig};
use sas_summaries::countsketch::SketchSummary;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{decode_summary, encode_summary, merge_tree, StoredSample, Summary};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("codec bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let json_path = parse_json_flag()?;
    let n = env_usize("SAS_CODEC_N", 200_000) as u64;
    let s = env_usize("SAS_CODEC_S", 4_000);
    let shards = env_usize("SAS_CODEC_SHARDS", 8);
    let reps = env_usize("SAS_CODEC_REPS", 50);
    let merge_reps = env_usize("SAS_CODEC_MERGE_REPS", 20);
    let seed = 11u64;

    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<WeightedKey> = (0..n)
        .map(|k| {
            let w = if rng.gen_bool(0.02) {
                rng.gen_range(100.0..1500.0)
            } else {
                rng.gen_range(0.1..4.0)
            };
            WeightedKey::new(k, w)
        })
        .collect();
    let spatial = {
        let rows: Vec<(u64, u64, f64)> = data
            .iter()
            .take((n as usize).min(50_000))
            .map(|wk| (wk.key % 1024, (wk.key * 7919) % 1024, wk.weight))
            .collect();
        SpatialData::from_xyw(&rows)
    };

    // One summary per kind at comparable element budgets.
    let sample = {
        let mut r = StdRng::seed_from_u64(seed);
        StoredSample::one_dim(sas_sampling::order::sample(&data, s, &mut r))
    };
    let varopt = {
        let mut r = StdRng::seed_from_u64(seed);
        let mut v = VarOptSampler::new(s);
        for wk in &data {
            v.push(wk.key, wk.weight, &mut r);
        }
        v
    };
    let summaries: Vec<(&str, Box<dyn Summary>)> = vec![
        ("sample", Box::new(sample)),
        ("varopt", Box::new(varopt)),
        ("qdigest", Box::new(QDigestSummary::build(&spatial, 10, s))),
        (
            "wavelet",
            Box::new(WaveletSummary::build(&spatial, 10, 10, s)),
        ),
        (
            "sketch",
            Box::new(SketchSummary::build(&spatial, 10, 10, s, seed)),
        ),
    ];

    // --- encode / decode bandwidth per kind -------------------------------
    let mut rows = Vec::new();
    let mut kinds_json = JsonObj::new();
    let (mut sample_encode_mb_s, mut sample_decode_mb_s) = (0.0, 0.0);
    for (name, summary) in &summaries {
        let bytes = encode_summary(summary.as_ref());
        let mb = bytes.len() as f64 / 1e6;
        let (_, enc_t) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(encode_summary(summary.as_ref()));
            }
        });
        let mut decode_err = None;
        let (_, dec_t) = timed(|| {
            for _ in 0..reps {
                match decode_summary(&bytes) {
                    Ok(s) => {
                        std::hint::black_box(s);
                    }
                    Err(e) => decode_err = Some(format!("{name}: decode failed: {e}")),
                }
            }
        });
        if let Some(e) = decode_err {
            return Err(e);
        }
        let encode_mb_s = mb * reps as f64 / enc_t;
        let decode_mb_s = mb * reps as f64 / dec_t;
        if *name == "sample" {
            sample_encode_mb_s = encode_mb_s;
            sample_decode_mb_s = decode_mb_s;
        }
        let mut kind_json = JsonObj::new();
        kind_json
            .int("bytes", bytes.len() as u64)
            .num("encode_mb_s", encode_mb_s)
            .num("decode_mb_s", decode_mb_s);
        kinds_json.obj(name, &kind_json);
        rows.push(vec![
            name.to_string(),
            summary.item_count().to_string(),
            bytes.len().to_string(),
            format!("{encode_mb_s:.1}"),
            format!("{decode_mb_s:.1}"),
        ]);
    }
    print_table(
        &format!("encode/decode throughput (items ~{s}, {reps} reps)"),
        &["kind", "items", "bytes", "encode_MB_s", "decode_MB_s"],
        &rows,
    );

    // --- merge-from-disk pipeline -----------------------------------------
    // Frames are read and decoded in one batch up front, then merged
    // bottom-up through the shared `merge_tree` (the same order the store's
    // compaction uses), instead of interleaving decode and merge.
    let dir = std::env::temp_dir().join(format!("sas-codec-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create temp dir: {e}"))?;
    let cfg = ShardedConfig::key_range(shards, seed);
    let parts = per_shard_samples(&data, s, &cfg);
    let merges_per_tree = (parts.len().max(1) - 1) as u64;
    let mut total_bytes = 0usize;
    let mut paths = Vec::new();
    for (i, p) in parts.into_iter().enumerate() {
        let path = dir.join(format!("part.{i}.sas"));
        let bytes = encode_summary(&StoredSample::one_dim(p));
        total_bytes += bytes.len();
        std::fs::write(&path, bytes).map_err(|e| format!("write shard frame: {e}"))?;
        paths.push(path);
    }

    let (result, t) = timed(|| -> Result<usize, String> {
        let mut last = 0;
        for rep in 0..merge_reps {
            let mut rng = StdRng::seed_from_u64(seed + rep as u64);
            let frames: Vec<Vec<u8>> = paths
                .iter()
                .map(|p| std::fs::read(p).map_err(|e| format!("read shard frame: {e}")))
                .collect::<Result<_, _>>()?;
            let decoded: Vec<Box<dyn Summary>> = frames
                .iter()
                .map(|f| decode_summary(f))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("decode shard frame: {e}"))?;
            let merged =
                merge_tree(decoded, Some(s), &mut rng).map_err(|e| format!("merge: {e}"))?;
            last = merged.item_count();
        }
        Ok(last)
    });
    let _ = std::fs::remove_dir_all(&dir);
    let items = result?;

    let merge_from_disk_mb_s = total_bytes as f64 * merge_reps as f64 / 1e6 / t;
    let merge_from_disk_merges_per_s = (merges_per_tree * merge_reps as u64) as f64 / t;
    print_table(
        "merge-from-disk (read + batch decode + budgeted merge tree)",
        &[
            "shards",
            "budget",
            "merged_items",
            "disk_MB",
            "merges_per_s",
            "MB_s",
        ],
        &[vec![
            shards.to_string(),
            s.to_string(),
            items.to_string(),
            format!("{:.2}", total_bytes as f64 / 1e6),
            format!("{merge_from_disk_merges_per_s:.1}"),
            format!("{merge_from_disk_mb_s:.1}"),
        ]],
    );

    if let Some(path) = json_path {
        let mut obj = JsonObj::new();
        obj.str("bench", "core_codec")
            .int("n", n)
            .int("s", s as u64)
            .int("shards", shards as u64)
            .num("codec_encode_mb_s", sample_encode_mb_s)
            .num("codec_decode_mb_s", sample_decode_mb_s)
            .num("merge_from_disk_mb_s", merge_from_disk_mb_s)
            .num("merge_from_disk_merges_per_s", merge_from_disk_merges_per_s)
            .obj("kinds", &kinds_json);
        obj.write(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

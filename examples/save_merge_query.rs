//! The save → merge → query workflow: summaries as durable artifacts.
//!
//! Two workers each summarize their shard of a stream and persist the
//! result as a binary frame; a separate merge step — which could run in
//! another process, on another machine, at another time — loads the
//! frames, combines them with the structure-aware threshold merge, and
//! answers range queries without ever seeing the original data.
//!
//! ```sh
//! cargo run --release --example save_merge_query
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use structure_aware_sampling::core::{total_weight, WeightedKey};
use structure_aware_sampling::sampling::order;
use structure_aware_sampling::summaries::{decode_summary, encode_summary, StoredSample};
use structure_aware_sampling::Query;

fn main() {
    // A heavy-tailed 1-D stream, split across two workers by key range.
    let data: Vec<WeightedKey> = (0..100_000u64)
        .map(|k| {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            let w = 0.5 + (h % 997) as f64 / 10.0 + if h % 53 == 0 { 500.0 } else { 0.0 };
            WeightedKey::new(k, w)
        })
        .collect();
    let (left, right) = data.split_at(data.len() / 2);
    let budget = 2_000;

    // --- worker phase: sample each shard, persist the summary -------------
    let dir = std::env::temp_dir().join(format!("sas-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (i, shard) in [left, right].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let sample = order::sample(shard, budget, &mut rng);
        let frame = encode_summary(&StoredSample::one_dim(sample));
        let path = dir.join(format!("shard.{i}.sas"));
        std::fs::write(&path, &frame).expect("write frame");
        println!(
            "worker {i}: wrote {} bytes to {}",
            frame.len(),
            path.display()
        );
    }

    // --- merge phase: no access to `data`, only to the two files ----------
    let mut rng = StdRng::seed_from_u64(7);
    let mut merged =
        decode_summary(&std::fs::read(dir.join("shard.0.sas")).unwrap()).expect("decode shard 0");
    let other =
        decode_summary(&std::fs::read(dir.join("shard.1.sas")).unwrap()).expect("decode shard 1");
    merged
        .merge_in_place(other, Some(budget), &mut rng)
        .expect("same-kind merge");
    println!(
        "merged: {} entries, kind {}, τ = {:.3}",
        merged.item_count(),
        merged.kind(),
        merged.tau().unwrap_or(0.0),
    );

    // --- query phase -------------------------------------------------------
    let truth_total = total_weight(&data);
    let est_total = merged.answer(&Query::Total, 0.95).expect("total").value;
    println!("total:      estimate {est_total:.1} vs truth {truth_total:.1} (conserved exactly)");
    assert!((est_total - truth_total).abs() / truth_total < 1e-9);

    for (lo, hi) in [(10_000u64, 39_999u64), (45_000, 55_000), (80_000, 99_999)] {
        let truth: f64 = data
            .iter()
            .filter(|wk| (lo..=hi).contains(&wk.key))
            .map(|wk| wk.weight)
            .sum();
        let est = merged
            .answer(&Query::interval(lo, hi), 0.95)
            .expect("interval")
            .value;
        println!(
            "[{lo:>6}, {hi:>6}]: estimate {est:>12.1} vs truth {truth:>12.1} ({:+.3}%)",
            (est - truth) / truth * 100.0
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

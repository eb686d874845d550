//! Store-layer ingest and compaction throughput: windowed ingest (batches
//! and rows per second, including the per-batch log append and
//! `sync_data`), then one compaction pass over the resulting windows.
//!
//! Query throughput is measured by `--bin query` (its store-level table is
//! the one `BENCH_core.json` records) and the daemon end to end by
//! `perfbench`.
//!
//! Environment knobs: `SAS_STORE_BATCHES` (default 240), `SAS_STORE_ROWS`
//! (rows per batch, default 500), `SAS_STORE_BUDGET` (window budget,
//! default 4000).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{env_usize, print_table, timed};
use sas_core::WeightedKey;
use sas_store::{Store, StoreConfig};
use sas_summaries::{StoredSample, Summary};

fn main() {
    let batches = env_usize("SAS_STORE_BATCHES", 240);
    let rows = env_usize("SAS_STORE_ROWS", 500) as u64;
    let budget = env_usize("SAS_STORE_BUDGET", 4000);

    let dir = std::env::temp_dir().join(format!("sas-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(
        &dir,
        StoreConfig {
            budget: Some(budget),
            ..StoreConfig::default()
        },
    )
    .expect("open store");

    // Pre-build the batch summaries so ingest timing measures the store
    // (merge + log append + snapshot swap), not the sampler.
    let built: Vec<(u64, Box<dyn Summary>)> = (0..batches as u64)
        .map(|i| {
            let data: Vec<WeightedKey> = (0..rows)
                .map(|r| WeightedKey::new(i * rows + r, 0.5 + ((i + r) % 13) as f64))
                .collect();
            let mut rng = StdRng::seed_from_u64(i);
            let sample = sas_sampling::order::sample(&data, (rows as usize).min(budget), &mut rng);
            // 45-tick spacing crosses minute windows and spans hours, so
            // the compaction pass below has real work.
            (
                i * 45,
                Box::new(StoredSample::one_dim(sample)) as Box<dyn Summary>,
            )
        })
        .collect();
    let total_rows = batches as u64 * rows;

    let mut table: Vec<Vec<String>> = Vec::new();
    let (_, secs) = timed(|| {
        for (ts, batch) in built {
            store.ingest("bench", ts, batch).expect("ingest");
        }
    });
    table.push(vec![
        "ingest".into(),
        format!("{:.0}", batches as f64 / secs),
        format!("{:.3e}", total_rows as f64 / secs),
    ]);

    let (rollups, secs) = timed(|| store.compact_once().expect("compact"));
    table.push(vec![
        format!("compact({rollups} rollups)"),
        format!("{:.0}", rollups as f64 / secs.max(1e-9)),
        "-".into(),
    ]);

    let stats = store.stats();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    eprintln!(
        "# windows={} frame_bytes={}",
        get("windows"),
        get("frame_bytes")
    );
    print_table(
        "store throughput (ingest: batches/s + rows/s; compact: rollups/s)",
        &["op", "ops_per_sec", "rows_per_sec"],
        &table,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end persistence tests for the `sas` binary: the save → merge →
//! query workflow across *separate process invocations*, certifying the
//! acceptance criterion that a summary written by `sas summarize --out`,
//! merged from shard files in another process, answers range queries
//! **bit-identically** to the same merge performed in-memory.

mod common;

use common::{box_value, parse_info_field, sas, TempFile};

use sas_cli::{load_summary, merge_summaries, parse_range, LoadedSummary};
use sas_summaries::SummaryKind;

/// Deterministic heavy-tailed-ish weight (no RNG dependency).
fn weight(i: u64) -> f64 {
    let h = i.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 33;
    0.5 + (h % 811) as f64 / 8.0 + if h.is_multiple_of(71) { 300.0 } else { 0.0 }
}

fn one_dim_data(n: u64) -> String {
    let mut tsv = String::from("# key\tweight\n");
    for i in 0..n {
        tsv.push_str(&format!("{i}\t{:.6}\n", weight(i)));
    }
    tsv
}

struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("sas-persist-{}-{id}-{name}", std::process::id())))
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("UTF-8 path")
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn save_then_query_binary_summary() {
    const N: u64 = 500;
    let data = TempFile::create("bin.tsv", &one_dim_data(N));
    let out = TempPath::new("bin.sas");

    let (_, status) = sas(
        &[
            "summarize",
            data.path(),
            "--size",
            "40",
            "--seed",
            "3",
            "--out",
            out.path(),
        ],
        true,
    );
    assert!(
        status.contains("40-item") && status.contains("sample"),
        "status: {status}"
    );

    // The file is a binary frame, loadable by a fresh process.
    let bytes = std::fs::read(out.path()).expect("summary file exists");
    assert!(sas_codec::is_frame(&bytes));

    // info on the binary file reports kind, size, and byte sizes.
    let (info, _) = sas(&["info", out.path()], true);
    assert!(info.contains("kind: sample"), "{info}");
    assert_eq!(parse_info_field(&info, "keys") as usize, 40);
    assert_eq!(parse_info_field(&info, "dims") as u64, 1);
    assert_eq!(
        parse_info_field(&info, "file bytes") as usize,
        bytes.len(),
        "{info}"
    );
    assert!(parse_info_field(&info, "serialized bytes") > 0.0);

    // Queries from the file match the in-process decode bit-for-bit, and
    // the total is conserved exactly (VarOpt invariant).
    let loaded = load_summary(&bytes).unwrap();
    let exact_total: f64 = (0..N).map(weight).sum();
    for spec in ["0..499", "100..399", "250..250"] {
        let (line, _) = sas(&["query", out.path(), "--range", spec], true);
        let cli_est: f64 = line.trim().parse().expect("estimate");
        let mem_est = box_value(&*loaded, &parse_range(spec, 1).unwrap());
        assert_eq!(cli_est.to_bits(), mem_est.to_bits(), "range {spec}");
    }
    let total = parse_info_field(&info, "total estimate");
    assert!((total - exact_total).abs() <= 1e-6 * exact_total);
}

#[test]
fn shard_files_merged_in_separate_process_match_in_memory_merge_bit_for_bit() {
    const N: u64 = 1200;
    const SIZE: &str = "64";
    const MERGE_SEED: u64 = 9;

    let data = TempFile::create("shards.tsv", &one_dim_data(N));
    let base = TempPath::new("part.sas");

    // Process 1: write per-shard, unmerged summaries.
    let (_, status) = sas(
        &[
            "summarize",
            data.path(),
            "--size",
            SIZE,
            "--seed",
            "7",
            "--shards",
            "3",
            "--per-shard",
            "--out",
            base.path(),
        ],
        true,
    );
    assert!(status.contains("3 unmerged shard summaries"), "{status}");
    let shard_paths: Vec<String> = (0..3).map(|i| format!("{}.{i}", base.path())).collect();

    // Process 2: merge the shard files down to the budget.
    let merged_path = TempPath::new("merged.sas");
    let (_, status) = sas(
        &[
            "merge",
            &shard_paths[0],
            &shard_paths[1],
            &shard_paths[2],
            "--size",
            SIZE,
            "--seed",
            "9",
            "--out",
            merged_path.path(),
        ],
        true,
    );
    assert!(status.contains("merged 3 sample summaries"), "{status}");

    // In-memory reference: load the same shard files and merge them with
    // the same budget and seed through the same erased API.
    let shards: Vec<LoadedSummary> = shard_paths
        .iter()
        .map(|p| load_summary(&std::fs::read(p).unwrap()).unwrap())
        .collect();
    let reference = merge_summaries(shards, Some(64), MERGE_SEED).unwrap();

    // Process 3: query the merged file; answers must be bit-identical to
    // the in-memory merge (Rust's shortest-roundtrip float formatting makes
    // the printed estimate parse back to the exact f64).
    let (info, _) = sas(&["info", merged_path.path()], true);
    assert_eq!(parse_info_field(&info, "keys") as usize, 64);
    for spec in ["0..1199", "0..399", "400..799", "137..1042"] {
        let (line, _) = sas(&["query", merged_path.path(), "--range", spec], true);
        let cli_est: f64 = line.trim().parse().expect("estimate");
        let mem_est = box_value(&*reference, &parse_range(spec, 1).unwrap());
        assert_eq!(
            cli_est.to_bits(),
            mem_est.to_bits(),
            "range {spec}: {cli_est} vs {mem_est}"
        );
    }

    // And the merged file conserves the exact total.
    let exact_total: f64 = (0..N).map(weight).sum();
    let total = parse_info_field(&info, "total estimate");
    assert!((total - exact_total).abs() <= 1e-6 * exact_total);

    for p in &shard_paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn merge_rejects_mixed_kinds_and_bad_inputs() {
    let data1 = TempFile::create("m1.tsv", &one_dim_data(100));
    let a = TempPath::new("a.sas");
    let b = TempPath::new("b.sas");
    sas(
        &["summarize", data1.path(), "--size", "10", "--out", a.path()],
        true,
    );
    sas(
        &[
            "summarize",
            data1.path(),
            "--size",
            "10",
            "--kind",
            "varopt",
            "--out",
            b.path(),
        ],
        true,
    );
    let out = TempPath::new("mixed.sas");
    let (_, stderr) = sas(&["merge", a.path(), b.path(), "--out", out.path()], false);
    assert!(stderr.contains("cannot merge"), "stderr: {stderr}");

    // A single input is refused; a corrupt input is a clean error.
    let (_, stderr) = sas(&["merge", a.path(), "--out", out.path()], false);
    assert!(stderr.contains("at least two"), "stderr: {stderr}");
    let corrupt = TempFile::create("corrupt.sas", "SASFnot really a frame");
    let (_, stderr) = sas(
        &["merge", a.path(), corrupt.path(), "--out", out.path()],
        false,
    );
    assert!(stderr.contains("error"), "stderr: {stderr}");
}

#[test]
fn every_kind_summarizes_to_disk_and_reports_info() {
    let one_d = TempFile::create("k1.tsv", &one_dim_data(300));
    let mut two_d = String::new();
    for i in 0..300u64 {
        two_d.push_str(&format!(
            "{}\t{}\t{:.4}\n",
            (i * 11) % 64,
            (i * 23) % 64,
            weight(i)
        ));
    }
    let two_d = TempFile::create("k2.tsv", &two_d);

    for kind in SummaryKind::all() {
        let name = kind.name();
        let input = match kind {
            SummaryKind::Sample | SummaryKind::VarOptReservoir => &one_d,
            _ => &two_d,
        };
        let out = TempPath::new(&format!("{name}.sas"));
        let (_, status) = sas(
            &[
                "summarize",
                input.path(),
                "--size",
                "32",
                "--seed",
                "5",
                "--kind",
                name,
                "--out",
                out.path(),
            ],
            true,
        );
        assert!(status.contains(name), "{name}: {status}");
        let (info, _) = sas(&["info", out.path()], true);
        assert!(info.contains(&format!("kind: {name}")), "{name}: {info}");
        assert!(parse_info_field(&info, "keys") > 0.0, "{name}");
        assert!(parse_info_field(&info, "serialized bytes") > 0.0, "{name}");

        // Full-domain query answers (total weight is conserved by sample,
        // varopt, and qdigest; wavelet/sketch are approximate).
        let dims = parse_info_field(&info, "dims") as usize;
        let spec = if dims == 1 {
            "0..9999".into()
        } else {
            "0..9999,0..9999".to_string()
        };
        let (line, _) = sas(&["query", out.path(), "--range", &spec], true);
        let est: f64 = line.trim().parse().expect("estimate");
        assert!(est.is_finite(), "{name}: {est}");
    }

    // Non-sample kinds have no TSV form without --out.
    let (_, stderr) = sas(
        &["summarize", one_d.path(), "--size", "8", "--kind", "varopt"],
        false,
    );
    assert!(stderr.contains("--out"), "stderr: {stderr}");
    // Unknown kind is a clean error.
    let (_, stderr) = sas(
        &["summarize", one_d.path(), "--size", "8", "--kind", "bogus"],
        false,
    );
    assert!(stderr.contains("unknown --kind"), "stderr: {stderr}");
}

#[test]
fn per_shard_reports_actual_file_count_for_tiny_inputs() {
    // 3 data rows with --shards 4: the sampler collapses to one shard, and
    // the status line must name the one file actually written.
    let data = TempFile::create("tiny.tsv", "1\t5.0\n2\t3.0\n9\t1.5\n");
    let base = TempPath::new("tiny.sas");
    let (_, status) = sas(
        &[
            "summarize",
            data.path(),
            "--size",
            "2",
            "--shards",
            "4",
            "--per-shard",
            "--out",
            base.path(),
        ],
        true,
    );
    assert!(status.contains("wrote 1 unmerged shard"), "{status}");
    assert!(std::fs::metadata(format!("{}.0", base.path())).is_ok());
    assert!(std::fs::metadata(format!("{}.1", base.path())).is_err());
    let _ = std::fs::remove_file(format!("{}.0", base.path()));
}

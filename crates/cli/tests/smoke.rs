//! End-to-end smoke test for the `sas` binary: `summarize → query → info`
//! over a temp TSV file, checking range estimates against the exact answer
//! within the paper's discrepancy bound (HT estimator error = τ · Δ(S, R),
//! with Δ < 2 for all intervals under the order-structure sampler).

mod common;

use common::{parse_info_field, sas, TempFile};

/// Deterministic heavy-tailed-ish weight for key `i` (no RNG dependency).
fn weight(i: u64) -> f64 {
    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    1.0 + (h % 997) as f64 / 10.0 + if h.is_multiple_of(53) { 400.0 } else { 0.0 }
}

#[test]
fn one_dim_summarize_query_info_within_paper_bound() {
    const N: u64 = 600;
    const SIZE: usize = 48;

    let mut data_tsv = String::from("# key\tweight\n");
    let mut exact_total = 0.0;
    let mut exact_range = 0.0; // keys in [150, 449]
    for i in 0..N {
        let w = weight(i);
        exact_total += w;
        if (150..450).contains(&i) {
            exact_range += w;
        }
        data_tsv.push_str(&format!("{i}\t{w:.4}\n"));
    }
    let data = TempFile::create("1d.tsv", &data_tsv);

    // summarize: summary TSV on stdout, status line on stderr.
    let (summary_text, status) = sas(
        &["summarize", data.path(), "--size", "48", "--seed", "7"],
        true,
    );
    assert!(
        status.contains("48-key") && status.contains("1–D"),
        "unexpected status line: {status}"
    );
    assert!(summary_text.starts_with("#sas-summary tau="));
    let summary = TempFile::create("1d-summary.tsv", &summary_text);

    // info: reports the key count, dimensionality, threshold and total.
    let (info, _) = sas(&["info", summary.path()], true);
    assert_eq!(parse_info_field(&info, "keys") as usize, SIZE);
    assert_eq!(parse_info_field(&info, "dims") as u64, 1);
    let tau = parse_info_field(&info, "tau");
    assert!(tau > 0.0, "tau must be positive for n > s");

    // VarOpt preserves the population total exactly (zero-variance total).
    let total = parse_info_field(&info, "total estimate");
    assert!(
        (total - exact_total).abs() <= 1e-6 * exact_total,
        "total estimate {total} vs exact {exact_total}"
    );

    // query: the paper's order-structure guarantee is Δ(S, R) < 2 for every
    // interval R, and the HT estimator's absolute error is exactly τ·Δ.
    let (est_line, _) = sas(&["query", summary.path(), "--range", "150..449"], true);
    let est: f64 = est_line.trim().parse().expect("estimate is a number");
    let err = (est - exact_range).abs();
    assert!(
        err <= 2.0 * tau + 1e-9,
        "range estimate {est} vs exact {exact_range}: |error| {err} exceeds 2τ = {}",
        2.0 * tau
    );

    // A full-domain interval query must also hit the exact total.
    let (full_line, _) = sas(&["query", summary.path(), "--range", "0..599"], true);
    let full: f64 = full_line.trim().parse().expect("estimate is a number");
    assert!((full - exact_total).abs() <= 1e-6 * exact_total);
}

#[test]
fn two_dim_summarize_query_within_product_bound() {
    const SIDE: u64 = 64;
    const SIZE: f64 = 64.0;

    let mut data_tsv = String::new();
    let mut exact_total = 0.0;
    let mut exact_box = 0.0; // box [8, 39] × [16, 47]
    let mut i = 0u64;
    for x in 0..SIDE {
        for y in 0..SIDE {
            if (x * 31 + y * 17) % 3 != 0 {
                continue; // sparse grid
            }
            let w = weight(i);
            i += 1;
            exact_total += w;
            if (8..40).contains(&x) && (16..48).contains(&y) {
                exact_box += w;
            }
            data_tsv.push_str(&format!("{x}\t{y}\t{w:.4}\n"));
        }
    }
    let data = TempFile::create("2d.tsv", &data_tsv);

    let (summary_text, status) = sas(
        &["summarize", data.path(), "--size", "64", "--seed", "11"],
        true,
    );
    assert!(status.contains("2–D"), "unexpected status line: {status}");
    let summary = TempFile::create("2d-summary.tsv", &summary_text);

    let (info, _) = sas(&["info", summary.path()], true);
    let tau = parse_info_field(&info, "tau");
    assert_eq!(parse_info_field(&info, "dims") as u64, 2);
    let total = parse_info_field(&info, "total estimate");
    assert!(
        (total - exact_total).abs() <= 1e-6 * exact_total,
        "total estimate {total} vs exact {exact_total}"
    );

    // 2-D boxes: Δ = O(d·s^((d−1)/(2d))) = O(2·s^¼); allow a 4× constant.
    let delta_bound = 4.0 * 2.0 * SIZE.powf(0.25);
    let (est_line, _) = sas(&["query", summary.path(), "--range", "8..39,16..47"], true);
    let est: f64 = est_line.trim().parse().expect("estimate is a number");
    let err = (est - exact_box).abs();
    assert!(
        err <= delta_bound * tau,
        "box estimate {est} vs exact {exact_box}: |error| {err} exceeds {delta_bound}·τ = {}",
        delta_bound * tau
    );
}

#[test]
fn sharded_summarize_matches_serial_guarantees() {
    const N: u64 = 600;

    let mut data_tsv = String::new();
    let mut exact_total = 0.0;
    let mut exact_range = 0.0; // keys in [150, 449]
    for i in 0..N {
        let w = weight(i);
        exact_total += w;
        if (150..450).contains(&i) {
            exact_range += w;
        }
        data_tsv.push_str(&format!("{i}\t{w:.4}\n"));
    }
    let data = TempFile::create("sharded.tsv", &data_tsv);

    let (summary_text, status) = sas(
        &[
            "summarize",
            data.path(),
            "--size",
            "48",
            "--seed",
            "7",
            "--shards",
            "4",
        ],
        true,
    );
    assert!(
        status.contains("48-key") && status.contains("4 shards"),
        "unexpected status line: {status}"
    );
    let summary = TempFile::create("sharded-summary.tsv", &summary_text);

    let (info, _) = sas(&["info", summary.path()], true);
    assert_eq!(parse_info_field(&info, "keys") as usize, 48);
    let tau = parse_info_field(&info, "tau");
    assert!(tau > 0.0);

    // The threshold merge conserves the total exactly, like serial VarOpt.
    let total = parse_info_field(&info, "total estimate");
    assert!(
        (total - exact_total).abs() <= 1e-6 * exact_total,
        "total estimate {total} vs exact {exact_total}"
    );

    // Interval error: serial guarantees τ·Δ with Δ < 2; each of the
    // log₂(4) = 2 merge levels may add < 2 more, so allow Δ < 6.
    let (est_line, _) = sas(&["query", summary.path(), "--range", "150..449"], true);
    let est: f64 = est_line.trim().parse().expect("estimate is a number");
    let err = (est - exact_range).abs();
    assert!(
        err <= 6.0 * tau + 1e-9,
        "range estimate {est} vs exact {exact_range}: |error| {err} exceeds 6τ = {}",
        6.0 * tau
    );

    // 2-D data must reject --shards with a clean error.
    let bad = TempFile::create("sharded-2d.tsv", "1\t2\t3.0\n4\t5\t6.0\n");
    let (_, stderr) = sas(
        &["summarize", bad.path(), "--size", "2", "--shards", "2"],
        false,
    );
    assert!(stderr.contains("error"), "expected error, got: {stderr}");
}

#[test]
fn query_bounds_batch_and_formats() {
    // Build a modest budgeted summary, then drive every new query surface:
    // open-ended ranges, --confidence bounds output, --queries batch mode
    // in tsv and json.
    let mut data = String::new();
    let mut total = 0.0;
    for k in 0..800u64 {
        let w = 0.5 + (k % 9) as f64;
        total += w;
        data.push_str(&format!("{k}\t{w}\n"));
    }
    let input = TempFile::create("bounds-data.tsv", &data);
    let summary = TempFile::create("bounds-summary.sas", "");
    sas(
        &[
            "summarize",
            input.path(),
            "--size",
            "80",
            "--seed",
            "3",
            "--out",
            summary.path(),
        ],
        true,
    );

    // Open-ended range, bare value (back-compat contract).
    let (bare, _) = sas(&["query", summary.path(), "--range", ":"], true);
    let bare: f64 = bare.trim().parse().expect("bare value");
    assert!((bare - total).abs() <= 1e-6 * total);

    // Same query with --confidence: `value ±half [lower, upper] @c`, the
    // value identical and the interval containing the exact total.
    let (bounds, _) = sas(
        &[
            "query",
            summary.path(),
            "--range",
            ":",
            "--confidence",
            "0.9",
        ],
        true,
    );
    let fields: Vec<&str> = bounds.split_whitespace().collect();
    assert_eq!(fields[0].parse::<f64>().unwrap().to_bits(), bare.to_bits());
    let lower: f64 = fields[2].trim_matches(['[', ',']).parse().unwrap();
    let upper: f64 = fields[3].trim_matches([']']).parse().unwrap();
    assert!(
        lower <= total && total <= upper,
        "total {total} outside [{lower}, {upper}]: {bounds}"
    );
    assert!(fields[4].starts_with('@'), "{bounds}");

    // Reversed bounds fail loudly, not as a silent empty range.
    let (_, stderr) = sas(&["query", summary.path(), "--range", "9..3"], false);
    assert!(stderr.contains("reversed"), "{stderr}");

    // Batch mode: every query shape in one file, tsv and json output.
    let batch = TempFile::create(
        "bounds-queries.txt",
        "# one query per line\n:199\n200..399;600:\npoint 17\nnode 6/3\ntotal\n",
    );
    let (tsv, _) = sas(&["query", summary.path(), "--queries", batch.path()], true);
    let rows: Vec<&str> = tsv.lines().collect();
    assert!(rows[0].starts_with("#query"), "{tsv}");
    assert_eq!(rows.len(), 6, "{tsv}");
    for row in &rows[1..] {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 6, "{row}");
        let value: f64 = cols[1].parse().unwrap();
        let lower: f64 = cols[2].parse().unwrap();
        let upper: f64 = cols[3].parse().unwrap();
        assert!(lower <= value && value <= upper, "{row}");
    }
    // The total row's value matches the bare full-domain query.
    let total_row: Vec<&str> = rows[5].split('\t').collect();
    assert_eq!(total_row[0], "total");
    assert_eq!(
        total_row[1].parse::<f64>().unwrap().to_bits(),
        bare.to_bits()
    );

    let (json, _) = sas(
        &[
            "query",
            summary.path(),
            "--queries",
            batch.path(),
            "--format",
            "json",
        ],
        true,
    );
    assert!(json.trim_start().starts_with('['), "{json}");
    assert_eq!(json.matches("\"query\"").count(), 5, "{json}");
    assert!(json.contains("\"confidence\": 0.95"), "{json}");

    // An overlapping multi-range in the batch file is rejected.
    let bad = TempFile::create("bounds-bad.txt", "0..10;5..20\n");
    let (_, stderr) = sas(&["query", summary.path(), "--queries", bad.path()], false);
    assert!(stderr.contains("overlap"), "{stderr}");
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown subcommand and missing file must not succeed (or panic).
    sas(&["frobnicate"], false);
    sas(
        &["summarize", "/nonexistent/sas-smoke.tsv", "--size", "10"],
        false,
    );

    // Malformed data surfaces a parse error, not a crash.
    let bad = TempFile::create("bad.tsv", "1\t2\t3\t4\t5\n");
    let (_, stderr) = sas(&["summarize", bad.path(), "--size", "10"], false);
    assert!(
        stderr.contains("error"),
        "expected an error message, got: {stderr}"
    );
}

#[test]
fn query_confidence_outside_the_unit_interval_is_rejected() {
    // A q-digest certifies its containment bounds at confidence 1, so 1 is
    // a valid request; 0, anything above 1, and NaN are not, whatever the
    // summary kind and with or without a batch file.
    let data: String = (0..200u64)
        .map(|k| format!("{}\t{}\t{}\n", k % 32, (k * 7) % 32, 1.0 + (k % 5) as f64))
        .collect();
    let input = TempFile::create("conf-data.tsv", &data);
    let summary = TempFile::create("conf-qdigest.sas", "");
    sas(
        &[
            "summarize",
            input.path(),
            "--size",
            "40",
            "--kind",
            "qdigest",
            "--out",
            summary.path(),
        ],
        true,
    );
    let batch = TempFile::create("conf-queries.txt", "0..15,0..31\ntotal\n");
    for confidence in ["0", "1.5", "nan"] {
        for target in [["--range", "0..15,0..31"], ["--queries", batch.path()]] {
            let mut args = vec!["query", summary.path()];
            args.extend(target);
            args.extend(["--confidence", confidence]);
            let (_, stderr) = sas(&args, false);
            assert!(stderr.contains("--confidence"), "{confidence}: {stderr}");
        }
    }
    let (line, _) = sas(
        &[
            "query",
            summary.path(),
            "--range",
            "0..15,0..31",
            "--confidence",
            "1",
        ],
        true,
    );
    assert!(line.trim_end().ends_with("@1"), "{line}");
    let (tsv, _) = sas(
        &[
            "query",
            summary.path(),
            "--queries",
            batch.path(),
            "--confidence",
            "1",
        ],
        true,
    );
    assert_eq!(tsv.lines().count(), 3, "{tsv}");
}

//! Statistical certification of the mergeable-summary subsystem: across
//! ≥ 100 seeds, merged VarOpt samples must stay unbiased (mean HT estimates
//! within a confidence interval of true subset sums) and keep interval
//! discrepancy within the `O(log n)`-flavored bound the tier-1 suites use —
//! serial order samples guarantee Δ < 2 per interval, and each binary merge
//! level adds less than 2 more, so a `2^L`-shard sample must stay within
//! `2·(L + 1)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use structure_aware_sampling::core::{total_weight, VarOptSampler, WeightedKey};
use structure_aware_sampling::sampling::sharded::{
    merge_samples, summarize_sharded, ShardTopology, ShardedConfig,
};
use structure_aware_sampling::sampling::{order, IppsSetup};
use structure_aware_sampling::structures::order::Interval;

fn mixed_data(n: u64, seed: u64) -> Vec<WeightedKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let w = if rng.gen_bool(0.06) {
                rng.gen_range(40.0..250.0)
            } else {
                rng.gen_range(0.1..3.0)
            };
            WeightedKey::new(k, w)
        })
        .collect()
}

/// Streams `data` split into `parts` equal chunks through independent
/// VarOpt reservoirs and merges them left to right.
fn varopt_merged(data: &[WeightedKey], s: usize, parts: usize, rng: &mut StdRng) -> VarOptSampler {
    let per = data.len().div_ceil(parts).max(1);
    let mut chunks = data.chunks(per);
    let mut acc = VarOptSampler::new(s);
    for wk in chunks.next().unwrap_or(&[]) {
        acc.push(wk.key, wk.weight, rng);
    }
    for chunk in chunks {
        let mut part = VarOptSampler::new(s);
        for wk in chunk {
            part.push(wk.key, wk.weight, rng);
        }
        acc.merge(part, rng);
    }
    acc
}

#[test]
fn merged_varopt_is_valid_sample_across_seeds() {
    // Structural validity over 120 seeds: exact size, threshold domination,
    // heavy keys kept, totals conserved exactly.
    let mut data = mixed_data(900, 7);
    data[450] = WeightedKey::new(450, 1e6);
    let truth = total_weight(&data);
    let s = 40;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let merged = varopt_merged(&data, s, 3, &mut rng);
        assert_eq!(merged.held(), s, "seed {seed}");
        let sample = merged.finish();
        assert_eq!(sample.len(), s, "seed {seed}");
        assert!(sample.contains(450), "seed {seed}: heavy key dropped");
        let est = sample.total_estimate();
        assert!(
            (est - truth).abs() / truth < 1e-9,
            "seed {seed}: total {est} vs {truth}"
        );
    }
}

#[test]
fn merged_varopt_unbiased_within_confidence_interval() {
    // Mean subset estimates over many independent merge runs must land
    // within ~4 standard errors of the truth.
    let data = mixed_data(600, 11);
    type Pred = fn(u64) -> bool;
    let subsets: [(&str, Pred); 3] = [
        ("prefix", |k| k < 200),
        ("middle", |k| (250..420).contains(&k)),
        ("scattered", |k| k % 5 == 0),
    ];
    let runs = 500u64;
    let mut acc = [0.0f64; 3];
    let mut acc_sq = [0.0f64; 3];
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(40_000 + seed);
        let sample = varopt_merged(&data, 50, 4, &mut rng).finish();
        for (i, (_, pred)) in subsets.iter().enumerate() {
            let est = sample.subset_estimate(pred);
            acc[i] += est;
            acc_sq[i] += est * est;
        }
    }
    for (i, (name, pred)) in subsets.iter().enumerate() {
        let truth: f64 = data
            .iter()
            .filter(|wk| pred(wk.key))
            .map(|wk| wk.weight)
            .sum();
        let mean = acc[i] / runs as f64;
        let var = (acc_sq[i] / runs as f64 - mean * mean).max(0.0);
        let stderr = (var / runs as f64).sqrt();
        assert!(
            (mean - truth).abs() <= 4.0 * stderr + 1e-9 * truth,
            "{name}: mean {mean} vs truth {truth} (stderr {stderr})"
        );
    }
}

#[test]
fn sharded_sample_discrepancy_within_log_shards_bound() {
    // 4 shards = 2 merge levels: every interval must satisfy
    // Δ < 2·(log₂(shards) + 1) = 6, measured against the final sample's own
    // IPPS probabilities (adjusted-weight error = τ_final · Δ).
    let s = 30;
    let n = 480u64;
    for seed in 0..110u64 {
        let data = mixed_data(n, 3000 + seed);
        let truth_total = total_weight(&data);
        let cfg = ShardedConfig::key_range(4, seed);
        let sample = summarize_sharded(&data, s, &cfg);
        assert_eq!(sample.len(), s, "seed {seed}");
        assert!(
            (sample.total_estimate() - truth_total).abs() / truth_total < 1e-9,
            "seed {seed}: total not conserved"
        );
        let tau = sample.tau();
        assert!(tau > 0.0, "seed {seed}");
        let bound = 2.0 * ((4f64).log2() + 1.0); // 6
        for (lo, hi) in [(0, n - 1), (0, n / 2), (n / 4, 3 * n / 4), (n / 3, n - 1)] {
            let iv = Interval::new(lo, hi);
            let truth: f64 = data
                .iter()
                .filter(|wk| iv.contains(wk.key))
                .map(|wk| wk.weight)
                .sum();
            let est = sample.subset_estimate(|k| iv.contains(k));
            // Error of an HT estimate is τ·Δ plus the (exact) heavy part,
            // so |err|/τ bounds the light-key discrepancy.
            let delta = (est - truth).abs() / tau;
            assert!(
                delta < bound + 1e-6,
                "seed {seed} interval [{lo},{hi}]: Δ = {delta} ≥ {bound}"
            );
        }
    }
}

#[test]
fn pairwise_sample_merge_discrepancy_adds_less_than_two() {
    // One merge level: serial halves guarantee Δ < 2 each; the merged
    // sample must stay below 4 on every interval, across 100 seeds.
    let n = 360u64;
    let s = 24;
    for seed in 0..100u64 {
        let data = mixed_data(n, 7000 + seed);
        let mid = (n / 2) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = order::sample(&data[..mid], s, &mut rng);
        let b = order::sample(&data[mid..], s, &mut rng);
        let merged = merge_samples(a, b, s, &mut rng);
        assert_eq!(merged.len(), s, "seed {seed}");
        let tau = merged.tau();
        for (lo, hi) in [(0, n - 1), (n / 4, 3 * n / 4), (0, n / 3), (n / 2, n - 1)] {
            let iv = Interval::new(lo, hi);
            let truth: f64 = data
                .iter()
                .filter(|wk| iv.contains(wk.key))
                .map(|wk| wk.weight)
                .sum();
            let est = merged.subset_estimate(|k| iv.contains(k));
            let delta = (est - truth).abs() / tau;
            assert!(
                delta < 4.0 + 1e-6,
                "seed {seed} interval [{lo},{hi}]: Δ = {delta}"
            );
        }
    }
}

#[test]
fn sharded_matches_serial_statistically() {
    // The sharded driver must agree with the serial sampler in
    // distribution: mean estimates within the same tolerance of the truth,
    // and mean absolute error within a constant factor.
    let data = mixed_data(800, 13);
    let iv = Interval::new(200, 599);
    let truth: f64 = data
        .iter()
        .filter(|wk| iv.contains(wk.key))
        .map(|wk| wk.weight)
        .sum();
    let runs = 300u64;
    let s = 60;
    let (mut acc_serial, mut acc_sharded) = (0.0, 0.0);
    let (mut abs_serial, mut abs_sharded) = (0.0, 0.0);
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(90_000 + seed);
        let serial = order::sample(&data, s, &mut rng);
        let es = serial.subset_estimate(|k| iv.contains(k));
        acc_serial += es;
        abs_serial += (es - truth).abs();

        let cfg = ShardedConfig {
            shards: 4,
            topology: ShardTopology::KeyRange,
            seed,
        };
        let sharded = summarize_sharded(&data, s, &cfg);
        let eh = sharded.subset_estimate(|k| iv.contains(k));
        acc_sharded += eh;
        abs_sharded += (eh - truth).abs();
    }
    let mean_serial = acc_serial / runs as f64;
    let mean_sharded = acc_sharded / runs as f64;
    assert!(
        (mean_serial - truth).abs() / truth < 0.02,
        "serial mean {mean_serial} vs {truth}"
    );
    assert!(
        (mean_sharded - truth).abs() / truth < 0.02,
        "sharded mean {mean_sharded} vs {truth}"
    );
    // Sharding trades a bounded amount of accuracy for parallelism; the
    // merge analysis (log₂ shards extra discrepancy) caps the factor at 3
    // for 4 shards, with slack for noise.
    assert!(
        abs_sharded / runs as f64 <= 3.0 * (abs_serial / runs as f64) + 1e-9,
        "sharded MAE {} vs serial {}",
        abs_sharded / runs as f64,
        abs_serial / runs as f64
    );
}

#[test]
fn merged_varopt_inclusion_follows_effective_ipps() {
    // After a merge at threshold τ', each surviving light key's inclusion
    // frequency must track min(1, w̃/τ') — the IPPS property w.r.t.
    // effective weights. Checked on a small fixed dataset where τ' is
    // stable across runs.
    let data: Vec<WeightedKey> = (0..24)
        .map(|k| WeightedKey::new(k, 1.0 + (k % 6) as f64))
        .collect();
    let s = 6;
    let runs = 30_000;
    let mut hits = vec![0usize; data.len()];
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..runs {
        let sample = varopt_merged(&data, s, 2, &mut rng).finish();
        for e in sample.iter() {
            hits[e.key as usize] += 1;
        }
    }
    // Merged inclusion probabilities are IPPS for the *whole* data set:
    // compare against the offline setup (both halves see the same weight
    // multiset, so effective IPPS coincides with offline IPPS here in
    // expectation; allow a generous tolerance for merge noise).
    let setup = IppsSetup::compute(&data, s);
    for (k, &h) in hits.iter().enumerate() {
        let freq = h as f64 / runs as f64;
        let p = setup.probability_of(k as u64);
        assert!(
            (freq - p).abs() < 0.06,
            "key {k}: freq {freq} vs offline p {p}"
        );
    }
}

// ---------------------------------------------------------------------------
// Persistence properties: encoding is transparent. For every summary kind,
// encode→decode→query must equal the original's answers exactly (bit-level),
// and merging decoded summaries must equal the same merge performed on the
// in-memory objects — persistence cannot change a single estimate.
// ---------------------------------------------------------------------------

use structure_aware_sampling::sampling::product::SpatialData;
use structure_aware_sampling::summaries::countsketch::SketchSummary;
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::wavelet::WaveletSummary;
use structure_aware_sampling::summaries::{decode_summary, encode_summary, StoredSample};
use structure_aware_sampling::{Query, Summary};

/// The point estimate of a box query.
fn box_value(s: &dyn Summary, range: &[(u64, u64)]) -> f64 {
    s.answer(&Query::BoxRange(range.to_vec()), 0.95)
        .unwrap()
        .value
}

fn spatial_data(n: usize, bits: u32, seed: u64) -> SpatialData {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = 1u64 << bits;
    let rows: Vec<(u64, u64, f64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..side),
                rng.gen_range(0..side),
                rng.gen_range(0.2..8.0),
            )
        })
        .collect();
    SpatialData::from_xyw(&rows)
}

fn query_battery(dims: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![vec![(0, u64::MAX); dims]];
    for _ in 0..25 {
        out.push(
            (0..dims)
                .map(|_| {
                    let lo = rng.gen_range(0..400u64);
                    (lo, lo + rng.gen_range(0..200u64))
                })
                .collect(),
        );
    }
    out
}

/// Asserts two erased summaries answer the whole battery bit-identically.
fn assert_identical_answers(name: &str, a: &dyn Summary, b: &dyn Summary) {
    assert_eq!(a.dims(), b.dims(), "{name}");
    assert_eq!(a.item_count(), b.item_count(), "{name}");
    assert_eq!(a.tau(), b.tau(), "{name}");
    for range in query_battery(a.dims(), 7) {
        let (ea, eb) = (box_value(a, &range), box_value(b, &range));
        assert_eq!(
            ea.to_bits(),
            eb.to_bits(),
            "{name}: range {range:?}: {ea} vs {eb}"
        );
    }
}

/// One in-memory summary of every kind over deterministic data. The
/// sketch's hash seeds come from `sketch_seed`: two sketches merge only
/// when they share it.
fn kind_fixtures_seeded(seed: u64, sketch_seed: u64) -> Vec<(&'static str, Box<dyn Summary>)> {
    let data = mixed_data(500, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let sample = order::sample(&data, 60, &mut rng);
    let mut varopt = VarOptSampler::new(40);
    for wk in &data {
        varopt.push(wk.key, wk.weight, &mut rng);
    }
    let sp = spatial_data(300, 9, seed ^ 0x77);
    vec![
        (
            "sample",
            Box::new(StoredSample::one_dim(sample)) as Box<dyn Summary>,
        ),
        ("varopt", Box::new(varopt)),
        ("qdigest", Box::new(QDigestSummary::build(&sp, 9, 60))),
        ("wavelet", Box::new(WaveletSummary::build(&sp, 9, 9, 80))),
        (
            "sketch",
            Box::new(SketchSummary::build(&sp, 9, 9, 2000, sketch_seed)),
        ),
    ]
}

fn kind_fixtures(seed: u64) -> Vec<(&'static str, Box<dyn Summary>)> {
    kind_fixtures_seeded(seed, seed)
}

#[test]
fn encode_decode_query_is_exact_for_every_kind_across_seeds() {
    for seed in 0..20u64 {
        for (name, original) in kind_fixtures(seed) {
            let bytes = encode_summary(original.as_ref());
            let decoded =
                decode_summary(&bytes).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_identical_answers(name, original.as_ref(), decoded.as_ref());
            // Encoding is canonical: decode→encode reproduces the bytes.
            assert_eq!(
                bytes,
                encode_summary(decoded.as_ref()),
                "{name} seed {seed}"
            );
        }
    }
}

#[test]
fn decoded_merge_equals_in_memory_merge_for_every_kind() {
    // Build two summaries per kind over disjoint data, then merge twice:
    // once with the in-memory objects, once with decoded copies — with the
    // same RNG seed the results must answer queries bit-identically.
    for seed in 0..10u64 {
        let halves = |half: u64| kind_fixtures_seeded(seed * 2 + half, seed);
        for ((name, a), (_, b)) in halves(0).into_iter().zip(halves(1)) {
            let (bytes_a, bytes_b) = (encode_summary(a.as_ref()), encode_summary(b.as_ref()));
            let mut mem = a;
            let mut rng_mem = StdRng::seed_from_u64(900 + seed);
            mem.merge_in_place(b, Some(50), &mut rng_mem)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: in-memory merge: {e}"));

            let mut disk = decode_summary(&bytes_a).unwrap();
            let mut rng_disk = StdRng::seed_from_u64(900 + seed);
            disk.merge_in_place(decode_summary(&bytes_b).unwrap(), Some(50), &mut rng_disk)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: decoded merge: {e}"));

            assert_identical_answers(name, mem.as_ref(), disk.as_ref());
        }
    }
}

#[test]
fn budgeted_sample_merge_roundtrip_conserves_invariants() {
    // The full distributed pipeline in miniature: shard → encode → decode →
    // budgeted merge; size exact, totals conserved, estimates unbiased
    // within the discrepancy envelope (reuses the tier-1 bound: 1 merge
    // level ⇒ Δ < 4 per interval).
    let s = 30;
    for seed in 0..60u64 {
        let data = mixed_data(400, 5000 + seed);
        let mid = data.len() / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = StoredSample::one_dim(order::sample(&data[..mid], s, &mut rng));
        let b = StoredSample::one_dim(order::sample(&data[mid..], s, &mut rng));
        let mut merged = decode_summary(&encode_summary(&a)).unwrap();
        merged
            .merge_in_place(
                decode_summary(&encode_summary(&b)).unwrap(),
                Some(s),
                &mut rng,
            )
            .unwrap();
        assert_eq!(merged.item_count(), s, "seed {seed}");
        let truth = total_weight(&data);
        let est = box_value(merged.as_ref(), &[(0, u64::MAX)]);
        assert!(
            (est - truth).abs() / truth < 1e-9,
            "seed {seed}: total {est} vs {truth}"
        );
        let tau = merged.tau().expect("sample kind reports tau");
        for (lo, hi) in [(0u64, 199u64), (100, 299), (200, 399)] {
            let truth: f64 = data
                .iter()
                .filter(|wk| (lo..=hi).contains(&wk.key))
                .map(|wk| wk.weight)
                .sum();
            let delta = (box_value(merged.as_ref(), &[(lo, hi)]) - truth).abs() / tau;
            assert!(delta < 4.0 + 1e-6, "seed {seed} [{lo},{hi}]: Δ = {delta}");
        }
    }
}

//! Sharded parallel summarization: split a stream across worker threads,
//! run a structure-aware sampler per shard, and merge the per-shard samples
//! bottom-up into one budget-`s` summary.
//!
//! This is the "mergeable summaries" regime the VarOpt foundation supports:
//! each shard's sample carries Horvitz–Thompson adjusted weights that are
//! unbiased for the shard's subset sums, so a *threshold merge* — union the
//! entries under their adjusted weights, recompute the IPPS threshold `τ'`
//! for budget `s`, and re-subsample — keeps every estimate unbiased (tower
//! property) while restoring the fixed sample size.
//!
//! Structure awareness survives the merge because the re-subsampling is
//! itself structure-aware: the active entries are pair-aggregated in key
//! order (`OSSUMMARIZE`), so each merge level adds less than 2 to any
//! interval's discrepancy. With `N` shards merged in a binary tree the
//! interval discrepancy of the final sample is `O(log N)` — against `O(√s)`
//! for an oblivious merge — matching the `O(log n)`-flavored error regime
//! the tier-1 suites certify.
//!
//! Two shard topologies are provided:
//!
//! * [`ShardTopology::KeyRange`] — contiguous key ranges (sorted by key,
//!   chunked evenly). Merging adjacent shards keeps actives that compete
//!   with each other close in the order; best interval accuracy.
//! * [`ShardTopology::RoundRobin`] — item `i` goes to shard `i mod N`, the
//!   natural topology when the input arrives as an arbitrary stream and
//!   shard assignment must be oblivious to key values.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_core::aggregate::{AggregationState, EntryState};
use sas_core::estimate::SampleEntry;
use sas_core::{ipps, KeyId, Sample, WeightedKey};

use crate::order;

/// How input items are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardTopology {
    /// Sort by key and split into contiguous, equal-count key ranges.
    KeyRange,
    /// Item `i` goes to shard `i mod N` (stream-order oblivious split).
    RoundRobin,
}

/// Configuration of a sharded summarization run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of worker threads / shards (≥ 1).
    pub shards: usize,
    /// Shard assignment policy.
    pub topology: ShardTopology,
    /// Base RNG seed; shard `i` derives an independent stream from it.
    pub seed: u64,
}

impl ShardedConfig {
    /// Key-range topology with the given shard count and seed.
    pub fn key_range(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            topology: ShardTopology::KeyRange,
            seed,
        }
    }

    /// Round-robin topology with the given shard count and seed.
    pub fn round_robin(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            topology: ShardTopology::RoundRobin,
            seed,
        }
    }
}

/// Salt mixed into per-shard and merge RNG seeds so they are unrelated to
/// each other and to any direct use of `cfg.seed` by the caller.
const SHARD_SEED_SALT: u64 = 0x5a5d_1e0f_9bd3_1c71;

fn shard_seed(base: u64, shard: u64) -> u64 {
    base ^ SHARD_SEED_SALT.wrapping_mul(shard.wrapping_add(1))
}

/// Seed for the bottom-up merge phase's RNG stream. A fixed rotation of the
/// salt (not `shard_seed` with a sentinel index: `shard_seed(base, u64::MAX)`
/// would collapse to the raw `base`, aliasing any caller-side use of it).
fn merge_seed(base: u64) -> u64 {
    base ^ SHARD_SEED_SALT.rotate_left(31)
}

/// Per-shard input slices, plus the storage that backs them when the
/// partition had to rearrange the data. Key-range sharding of already
/// key-sorted input (the common case for order-structured streams) is
/// zero-copy: the shards are subslices of the caller's data.
struct Partition<'a> {
    storage: Vec<Vec<WeightedKey>>,
    borrowed: Vec<&'a [WeightedKey]>,
}

impl Partition<'_> {
    fn shard_slices(&self) -> Vec<&[WeightedKey]> {
        if self.borrowed.is_empty() {
            self.storage.iter().map(Vec::as_slice).collect()
        } else {
            self.borrowed.clone()
        }
    }
}

/// Splits `data` into per-shard inputs according to the topology.
fn partition<'a>(data: &'a [WeightedKey], cfg: &ShardedConfig) -> Partition<'a> {
    let n = cfg.shards.max(1);
    match cfg.topology {
        ShardTopology::RoundRobin => {
            let mut shards: Vec<Vec<WeightedKey>> = (0..n)
                .map(|_| Vec::with_capacity(data.len() / n + 1))
                .collect();
            for (i, &wk) in data.iter().enumerate() {
                shards[i % n].push(wk);
            }
            Partition {
                storage: shards,
                borrowed: Vec::new(),
            }
        }
        ShardTopology::KeyRange => {
            let per = data.len().div_ceil(n).max(1);
            if data.windows(2).all(|w| w[0].key <= w[1].key) {
                Partition {
                    storage: Vec::new(),
                    borrowed: data.chunks(per).collect(),
                }
            } else {
                let mut sorted: Vec<WeightedKey> = data.to_vec();
                sorted.sort_unstable_by_key(|wk| wk.key);
                Partition {
                    storage: sorted.chunks(per).map(<[WeightedKey]>::to_vec).collect(),
                    borrowed: Vec::new(),
                }
            }
        }
    }
}

/// Merges two finished samples over disjoint key sets down to budget `s`,
/// preserving structure awareness over the key order.
///
/// Entries enter with their adjusted weights as effective weights; a new
/// threshold `τ'` solving `Σ min(1, w̃ᵢ/τ') = s` is computed over the union.
/// Keys at or above `τ'` are kept exactly; the rest are pair-aggregated *in
/// key order* (`OSSUMMARIZE`) with probability `w̃ᵢ/τ'` each, so intervals
/// of the key domain keep low discrepancy through the merge. If the union
/// already fits in `s`, it is returned unchanged (concatenation).
pub fn merge_samples<R: Rng + ?Sized>(a: Sample, b: Sample, s: usize, rng: &mut R) -> Sample {
    assert!(s > 0, "merge budget must be positive");
    let tau_reported = a.tau().max(b.tau());
    let mut entries = a.into_entries();
    entries.extend(b.into_entries());

    let eff: Vec<f64> = entries.iter().map(|e| e.adjusted_weight).collect();
    let tau_new = ipps::threshold_exact(&eff, s as f64);
    if tau_new <= 0.0 {
        // Union fits in the budget: concatenation is the exact merge.
        return Sample::from_entries(entries, tau_reported);
    }

    let mut kept: Vec<SampleEntry> = Vec::with_capacity(s);
    let mut active: Vec<SampleEntry> = Vec::new();
    for e in entries {
        if e.adjusted_weight >= tau_new {
            kept.push(e);
        } else {
            active.push(e);
        }
    }
    // Structure-aware re-subsampling: aggregate actives in key order.
    active.sort_by_key(|e| e.key);
    let keys: Vec<KeyId> = active.iter().map(|e| e.key).collect();
    let probs: Vec<f64> = active.iter().map(|e| e.adjusted_weight / tau_new).collect();
    let order_idx: Vec<usize> = (0..active.len()).collect();
    let mut state = AggregationState::new(keys, probs);
    order::os_summarize(&mut state, &order_idx, rng);
    // Inclusion is read per *index*, not per key: duplicate keys (legal in
    // the input format, and splittable across shards) must be resolved
    // entry-by-entry or the merged size drifts from s.
    kept.extend(active.into_iter().enumerate().filter_map(|(i, e)| {
        (state.state(i) == EntryState::Included).then_some(SampleEntry {
            key: e.key,
            weight: e.weight,
            adjusted_weight: tau_new,
        })
    }));
    Sample::from_entries(kept, tau_new)
}

/// Summarizes `data` with `cfg.shards` parallel workers, each running the
/// order-structure sampler ([`order::sample`]) with full budget `s` on its
/// shard, then merging the per-shard samples bottom-up (adjacent pairs, one
/// `std::thread` per shard for the sampling phase).
///
/// The result has exactly `min(s, #positive-weight keys)` entries and the
/// same unbiasedness guarantees as the serial sampler; interval discrepancy
/// grows only with `log₂(shards)` (see the module docs). With `shards == 1`
/// this is exactly the serial `order::sample`.
pub fn summarize_sharded(data: &[WeightedKey], s: usize, cfg: &ShardedConfig) -> Sample {
    let per_shard = per_shard_samples(data, s, cfg);
    let mut rng = StdRng::seed_from_u64(merge_seed(cfg.seed));
    merge_sample_tree(per_shard, s, &mut rng)
}

/// Runs only the parallel sampling phase of [`summarize_sharded`]: one
/// finished budget-`s` sample per shard, in shard order, without the final
/// merge.
///
/// This is the distributed entry point: each worker's sample can be
/// serialized to its own file (`sas summarize --per-shard`) and the merge
/// performed later — in another process, or on another machine — with
/// [`merge_sample_tree`] or the erased merge of `sas-summaries`. With one
/// shard (or fewer items than shards) the result is a single serial sample.
pub fn per_shard_samples(data: &[WeightedKey], s: usize, cfg: &ShardedConfig) -> Vec<Sample> {
    assert!(s > 0, "summary size must be positive");
    assert!(cfg.shards > 0, "shard count must be positive");
    if cfg.shards == 1 || data.len() <= cfg.shards {
        let mut rng = StdRng::seed_from_u64(shard_seed(cfg.seed, 0));
        return vec![order::sample(data, s, &mut rng)];
    }

    let parts = partition(data, cfg);
    let shards = parts.shard_slices();
    let mut per_shard: Vec<Sample> = Vec::with_capacity(shards.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, &shard)| {
                let base = cfg.seed;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(shard_seed(base, i as u64 + 1));
                    order::sample(shard, s, &mut rng)
                })
            })
            .collect();
        per_shard.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked")),
        );
    });
    per_shard
}

/// The one bottom-up merge order, shared by [`merge_sample_tree`] and the
/// erased `merge_tree` of `sas-summaries` (and through it by `sas merge`
/// and the store's compaction): adjacent pairs merge level by level, and
/// an odd item out is carried up unchanged to the next level. `N` inputs
/// pay `⌈log₂ N⌉` merge levels instead of the `N − 1` of a left-to-right
/// fold. Returns `None` for no input; stops at the first failed merge.
pub fn merge_pairwise<T, E>(
    items: Vec<T>,
    mut merge: impl FnMut(T, T) -> Result<T, E>,
) -> Result<Option<T>, E> {
    let mut level = items;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => merge(a, b)?,
                None => a,
            });
        }
        level = next;
    }
    Ok(level.pop())
}

/// Merges per-shard samples bottom-up in a binary tree
/// ([`merge_pairwise`]: adjacent pairs — preserves key locality for the
/// key-range topology), landing at budget `s`. With `L` merge levels the
/// interval discrepancy bound is `2·(L + 1)`.
pub fn merge_sample_tree<R: Rng + ?Sized>(samples: Vec<Sample>, s: usize, rng: &mut R) -> Sample {
    assert!(s > 0, "merge budget must be positive");
    let Ok(root) = merge_pairwise(samples, |a, b| {
        Ok::<_, Infallible>(merge_samples(a, b, s, rng))
    });
    root.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: u64, seed: u64) -> Vec<WeightedKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let w = if rng.gen_bool(0.05) {
                    rng.gen_range(40.0..200.0)
                } else {
                    rng.gen_range(0.1..4.0)
                };
                WeightedKey::new(k, w)
            })
            .collect()
    }

    #[test]
    fn sharded_sample_has_exact_budget() {
        let data = stream(3000, 1);
        for shards in [1, 2, 3, 4, 8] {
            for topology in [ShardTopology::KeyRange, ShardTopology::RoundRobin] {
                let cfg = ShardedConfig {
                    shards,
                    topology,
                    seed: 7,
                };
                let smp = summarize_sharded(&data, 100, &cfg);
                assert_eq!(smp.len(), 100, "shards={shards} topology={topology:?}");
            }
        }
    }

    #[test]
    fn sharded_is_deterministic_for_fixed_seed() {
        let data = stream(2000, 2);
        let cfg = ShardedConfig::key_range(4, 99);
        let a = summarize_sharded(&data, 64, &cfg);
        let b = summarize_sharded(&data, 64, &cfg);
        let ka: Vec<_> = a.keys().collect();
        let kb: Vec<_> = b.keys().collect();
        assert_eq!(ka, kb);
        assert_eq!(a.tau(), b.tau());
    }

    #[test]
    fn sharded_total_estimate_matches_truth_exactly() {
        // VarOpt preserves totals with zero variance; the threshold merge
        // keeps that property (certain + re-subsampled mass is conserved).
        let data = stream(2500, 3);
        let truth = sas_core::total_weight(&data);
        for topology in [ShardTopology::KeyRange, ShardTopology::RoundRobin] {
            let cfg = ShardedConfig {
                shards: 4,
                topology,
                seed: 5,
            };
            let est = summarize_sharded(&data, 80, &cfg).total_estimate();
            assert!(
                (est - truth).abs() / truth < 1e-9,
                "{topology:?}: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn sharded_estimates_unbiased() {
        let data = stream(1200, 4);
        let truth: f64 = data
            .iter()
            .filter(|wk| wk.key < 500)
            .map(|wk| wk.weight)
            .sum();
        let runs = 400;
        let mut acc = 0.0;
        for seed in 0..runs {
            let cfg = ShardedConfig::key_range(4, seed);
            acc += summarize_sharded(&data, 60, &cfg).subset_estimate(|k| k < 500);
        }
        let mean = acc / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.03,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn merge_samples_respects_budget_and_total() {
        let data = stream(800, 6);
        let mut rng = StdRng::seed_from_u64(8);
        let a = order::sample(&data[..400], 50, &mut rng);
        let b = order::sample(&data[400..], 50, &mut rng);
        let truth = a.total_estimate() + b.total_estimate();
        let merged = merge_samples(a, b, 50, &mut rng);
        assert_eq!(merged.len(), 50);
        assert!((merged.total_estimate() - truth).abs() / truth < 1e-9);
    }

    #[test]
    fn merge_samples_union_fits_concatenates() {
        let data = stream(30, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let a = order::sample(&data[..15], 20, &mut rng);
        let b = order::sample(&data[15..], 20, &mut rng);
        let merged = merge_samples(a, b, 60, &mut rng);
        assert_eq!(merged.len(), 30);
        let truth = sas_core::total_weight(&data);
        assert!((merged.total_estimate() - truth).abs() < 1e-9);
    }

    #[test]
    fn merge_handles_duplicate_keys_across_inputs() {
        // The input format permits repeated keys, and a repeated key can
        // straddle a shard boundary. Inclusion must be resolved per entry:
        // the merged sample keeps exactly s entries and conserves the total.
        use sas_core::estimate::SampleEntry;
        let dup = |tau: f64| {
            Sample::from_entries(
                (0..20u64)
                    .map(|k| SampleEntry {
                        key: k,
                        weight: 1.0,
                        adjusted_weight: 1.0,
                    })
                    .collect(),
                tau,
            )
        };
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let merged = merge_samples(dup(0.5), dup(0.5), 20, &mut rng);
            assert_eq!(merged.len(), 20, "seed {seed}");
            assert!(
                (merged.total_estimate() - 40.0).abs() < 1e-9,
                "seed {seed}: total {}",
                merged.total_estimate()
            );
        }
    }

    #[test]
    fn sharded_keeps_heavy_keys() {
        let mut data = stream(1000, 10);
        data[123] = WeightedKey::new(123, 5e5);
        data[877] = WeightedKey::new(877, 7e5);
        for seed in 0..10 {
            let cfg = ShardedConfig::round_robin(4, seed);
            let smp = summarize_sharded(&data, 30, &cfg);
            assert!(smp.contains(123) && smp.contains(877), "seed {seed}");
        }
    }

    #[test]
    fn per_shard_samples_recombine_to_the_sharded_summary() {
        // Persisting per-shard samples and merging later must equal the
        // single-process sharded run exactly (same seeds, same tree).
        let data = stream(2400, 21);
        let s = 90;
        let cfg = ShardedConfig::key_range(4, 17);
        let direct = summarize_sharded(&data, s, &cfg);
        let shards = per_shard_samples(&data, s, &cfg);
        assert_eq!(shards.len(), 4);
        let mut rng = StdRng::seed_from_u64(merge_seed(cfg.seed));
        let recombined = merge_sample_tree(shards, s, &mut rng);
        let ka: Vec<_> = direct.keys().collect();
        let kb: Vec<_> = recombined.keys().collect();
        assert_eq!(ka, kb);
        assert_eq!(direct.tau().to_bits(), recombined.tau().to_bits());
    }

    #[test]
    fn merge_pairwise_pairs_adjacent_items_and_carries_the_odd_one_up() {
        let tree = |n: usize| {
            let leaves: Vec<String> = (0..n).map(|i| ((b'a' + i as u8) as char).into()).collect();
            merge_pairwise(leaves, |a, b| Ok::<_, Infallible>(format!("({a}{b})"))).unwrap()
        };
        assert_eq!(tree(0), None);
        assert_eq!(tree(1).as_deref(), Some("a"));
        assert_eq!(tree(5).as_deref(), Some("(((ab)(cd))e)"));
        assert_eq!(tree(6).as_deref(), Some("(((ab)(cd))(ef))"));
        assert_eq!(tree(7).as_deref(), Some("(((ab)(cd))((ef)g))"));
        // The first failed merge stops the tree and surfaces its error.
        let mut calls = 0;
        let failed = merge_pairwise(vec![1, 2, 3, 4], |a, b| {
            calls += 1;
            if a == 3 {
                Err(a + b)
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(failed, Err(7));
        assert_eq!(calls, 2);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cfg = ShardedConfig::key_range(4, 1);
        assert!(summarize_sharded(&[], 10, &cfg).is_empty());
        let tiny = stream(3, 11);
        let smp = summarize_sharded(&tiny, 10, &cfg);
        assert_eq!(smp.len(), 3);
    }
}

//! The sample-kind answer kernels: one fold per sample layout, shared by
//! the owned summaries ([`StoredSample`](crate::StoredSample)) and the
//! mapped ones ([`SegmentSummary`](crate::SegmentSummary)).
//!
//! Each kernel is generic over [`Column`], a read-only view of one column
//! of 8-byte values, implemented for owned slices and for the
//! little-endian runs of a segment (`sas_codec::segment::Le`). An owned
//! answer and a mapped answer therefore run the same code, and agree bit
//! for bit by construction.
//!
//! * [`sample_1d`] — 1-D samples, through a [`KeyOrder`] index built with
//!   block sums: each box finds its index positions through the key
//!   fence, then folds its edge items one by one and every whole block in
//!   between through the block's stored [`SampleAccumulator`].
//!   O(k·(log n + BLOCK) + b) per query for a `k`-box query over `n`
//!   items whose boxes cover `b ≤ n/BLOCK` whole blocks.
//! * [`sample_2d`] — 2-D samples: one pass over the items for the whole
//!   batch, each item tested against every query's boxes.
//! * [`varopt_1d`] — mapped VarOpt reservoirs: large hits, found through
//!   the same fence, are marked in a bitset ([`Hits`]) and fold in item
//!   order as heavy items of weight `max(w, τ)`; small keys only count, so
//!   their counts are differences of index positions (the boxes of a
//!   validated [`Query`] are disjoint), and fold in through
//!   [`SampleAccumulator::add_small`].
//!
//! Every kernel finishes its answers through [`SampleAccumulator::finish`].
//!
//! The 2-D and VarOpt kernels fold their hits in item order, so they
//! agree bit for bit with a scan that tests every item against every box.
//! The 1-D sample fold adds in key order and sums whole blocks apart, so
//! it agrees with that scan to within float reassociation (a few ulps);
//! the tests pin it bit for bit to a naive replay of its own block
//! decomposition instead.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use sas_codec::segment::{Le, Word};
use sas_codec::CodecError;

use crate::erased::in_interval;
use crate::query::{Estimate, Query, QueryError, SampleAccumulator};

/// Read access to one column of 8-byte values, owned or mapped.
pub(crate) trait Column<T>: Copy {
    /// Number of values.
    fn len(self) -> usize;
    /// Value `i`.
    fn at(self, i: usize) -> T;
    /// Every value, in item order.
    fn values(self) -> impl Iterator<Item = T>;
}

impl<T: Copy> Column<T> for &[T] {
    fn len(self) -> usize {
        <[T]>::len(self)
    }

    #[inline(always)]
    fn at(self, i: usize) -> T {
        self[i]
    }

    fn values(self) -> impl Iterator<Item = T> {
        self.iter().copied()
    }
}

impl<T: Word> Column<T> for Le<'_, T> {
    fn len(self) -> usize {
        Le::len(self)
    }

    #[inline(always)]
    fn at(self, i: usize) -> T {
        Le::at(self, i)
    }

    fn values(self) -> impl Iterator<Item = T> {
        Le::values(self)
    }
}

/// Index positions per block: the key fence holds the key at the start
/// of every block, and a sample index one block sum per whole block.
const BLOCK: usize = 16;

/// The key-order index of one key column. Shared, so cloning a summary
/// that holds one stays cheap.
#[derive(Clone)]
pub(crate) struct KeyOrder(Arc<Index>);

struct Index {
    /// Item indices stably sorted by key.
    order: Box<[u32]>,
    /// The key at index position `b·BLOCK`, for every block `b`: a
    /// search picks its block here before it touches the index.
    fence: Box<[u64]>,
    /// For a sample column ([`KeyOrder::build_sample`]), block `b`'s items
    /// folded in position order, one per whole block; empty otherwise.
    blocks: Box<[SampleAccumulator]>,
}

impl fmt::Debug for KeyOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyOrder({} items)", self.len())
    }
}

/// Items a key-order index can address: its entries are `u32`.
fn index_len(items: usize) -> Result<u32, CodecError> {
    u32::try_from(items).map_err(|_| {
        CodecError::Invalid(format!(
            "key column of {items} items exceeds the index limit of {}",
            u32::MAX
        ))
    })
}

impl Index {
    /// Sorts the item indices of a key column by key, ties in item order,
    /// and samples the fence. The `(key, index)` pairs exist only while
    /// sorting.
    fn sort(keys: impl Column<u64>) -> Result<Self, CodecError> {
        index_len(keys.len())?;
        let mut pairs: Vec<(u64, u32)> = keys.values().zip(0u32..).collect();
        pairs.sort_unstable();
        Ok(Index {
            fence: pairs.iter().step_by(BLOCK).map(|&(k, _)| k).collect(),
            order: pairs.into_iter().map(|(_, i)| i).collect(),
            blocks: Box::new([]),
        })
    }
}

impl KeyOrder {
    /// The index of a key column that carries no per-item sums (the
    /// VarOpt partitions).
    pub(crate) fn build(keys: impl Column<u64>) -> Result<Self, CodecError> {
        Ok(KeyOrder(Arc::new(Index::sort(keys)?)))
    }

    /// The index of a 1-D sample's key column, with the block sums that
    /// [`sample_1d`] folds whole blocks through: each block's items fold
    /// in position order through [`SampleAccumulator::add`].
    pub(crate) fn build_sample(
        keys: impl Column<u64>,
        weights: impl Column<f64>,
        adjusted: impl Column<f64>,
    ) -> Result<Self, CodecError> {
        let mut index = Index::sort(keys)?;
        index.blocks = index
            .order
            .chunks_exact(BLOCK)
            .map(|block| {
                let mut acc = SampleAccumulator::default();
                add_items(&mut acc, block, weights, adjusted);
                acc
            })
            .collect();
        Ok(KeyOrder(Arc::new(index)))
    }

    fn len(&self) -> usize {
        self.0.order.len()
    }

    /// The first index position whose key fails `before`, a predicate
    /// that holds on a prefix of the keys in index order: the fence picks
    /// the block, one block of the index finishes the search. Equal to
    /// `partition_point` over the whole index.
    fn partition_point(&self, keys: impl Column<u64>, before: impl Fn(u64) -> bool) -> usize {
        let Index { order, fence, .. } = &*self.0;
        let Some(block) = fence.partition_point(|&k| before(k)).checked_sub(1) else {
            return 0;
        };
        let start = block * BLOCK;
        let run = &order[start..order.len().min(start + BLOCK)];
        start + run.partition_point(|&i| before(keys.at(i as usize)))
    }

    /// The index positions of the items whose keys lie in `[lo, hi]`.
    fn positions(&self, keys: impl Column<u64>, (lo, hi): (u64, u64)) -> Range<usize> {
        self.partition_point(keys, |k| k < lo)..self.partition_point(keys, |k| k <= hi)
    }

    /// The items whose keys lie in `[lo, hi]`.
    fn span(&self, keys: impl Column<u64>, range: (u64, u64)) -> &[u32] {
        &self.0.order[self.positions(keys, range)]
    }

    /// Folds one query's boxes, in their validated ascending order. Each
    /// box folds its left edge items by position, then its whole blocks
    /// through their sums ([`SampleAccumulator::absorb`]), then its right
    /// edge items.
    fn fold<U: Column<u64>, F: Column<f64>>(
        &self,
        c: &SampleColumns<U, F>,
        boxes: &[Vec<(u64, u64)>],
    ) -> SampleAccumulator {
        let Index { order, blocks, .. } = &*self.0;
        let mut acc = SampleAccumulator::default();
        for axes in boxes {
            let Range { start, end } = self.positions(c.keys, axes[0]);
            let (first, last) = (start.div_ceil(BLOCK), end / BLOCK);
            if first < last {
                add_items(
                    &mut acc,
                    &order[start..first * BLOCK],
                    c.weights,
                    c.adjusted,
                );
                for block in &blocks[first..last] {
                    acc.absorb(block);
                }
                add_items(&mut acc, &order[last * BLOCK..end], c.weights, c.adjusted);
            } else {
                add_items(&mut acc, &order[start..end], c.weights, c.adjusted);
            }
        }
        acc
    }
}

/// Folds `items`, in the given order, through [`SampleAccumulator::add`].
fn add_items(
    acc: &mut SampleAccumulator,
    items: &[u32],
    weights: impl Column<f64>,
    adjusted: impl Column<f64>,
) {
    for &i in items {
        acc.add(weights.at(i as usize), adjusted.at(i as usize));
    }
}

/// A bitset over item indices: marks one query's VarOpt large hits, then
/// hands them back in ascending item order.
struct Hits(Vec<u64>);

impl Hits {
    fn new(items: usize) -> Self {
        Hits(vec![0; items.div_ceil(64)])
    }

    fn mark(&mut self, items: &[u32]) {
        for &i in items {
            self.0[i as usize / 64] |= 1 << (i % 64);
        }
    }

    /// Calls `f` on every marked item in ascending order and clears the
    /// set for the next query.
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// One query's disjoint boxes, each a list of per-axis closed intervals.
type Boxes = Vec<Vec<(u64, u64)>>;

/// Every query's boxes, compiled up front so a malformed query fails the
/// batch before any answer is computed.
fn compile(queries: &[Query], dims: usize) -> Result<Vec<Boxes>, QueryError> {
    queries.iter().map(|q| q.boxes(dims)).collect()
}

/// The columns of one sample, owned (`&[u64]` / `&[f64]`) or mapped
/// ([`Le`]). `xs` and `ys` are empty for 1-D samples.
pub(crate) struct SampleColumns<U, F> {
    pub keys: U,
    pub weights: F,
    pub adjusted: F,
    pub xs: U,
    pub ys: U,
}

/// The value a sample's [`Query::Total`] folds to — bit for bit the value
/// `answer(&Query::Total, _)` returns — without finishing an interval:
/// through the key-order index `order` for 1-D samples, in item order for
/// 2-D samples (`order` is `None`).
pub(crate) fn sample_total<U: Column<u64>, F: Column<f64>>(
    c: &SampleColumns<U, F>,
    order: Option<&KeyOrder>,
) -> f64 {
    match order {
        Some(order) => {
            let boxes = Query::Total.boxes(1).expect("Total has boxes in 1-D");
            order.fold(c, &boxes).value
        }
        None => {
            let mut acc = SampleAccumulator::default();
            for (w, a) in c.weights.values().zip(c.adjusted.values()) {
                acc.add(w, a);
            }
            acc.value
        }
    }
}

/// 1-D sample answers through the key-order index over `c.keys`.
pub(crate) fn sample_1d<U: Column<u64>, F: Column<f64>>(
    c: &SampleColumns<U, F>,
    order: &KeyOrder,
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    compile(queries, 1)?
        .iter()
        .map(|boxes| order.fold(c, boxes).finish(confidence))
        .collect()
}

/// 2-D sample answers in one pass over the items. Single-box queries
/// (every shape except MultiRange) have their bounds flattened into
/// parallel per-axis columns, so the hot loop tests each item's
/// coordinates against plain bound arrays; the multi-box stragglers ride
/// the same pass with the any-box test. The light/heavy split depends only
/// on the item, so it is hoisted out of the per-query loop.
pub(crate) fn sample_2d<U: Column<u64>, F: Column<f64>>(
    c: &SampleColumns<U, F>,
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    let compiled = compile(queries, 2)?;
    let mut accs = vec![SampleAccumulator::default(); queries.len()];
    let mut qidx: Vec<usize> = Vec::with_capacity(queries.len());
    let mut b0: Vec<(u64, u64)> = Vec::with_capacity(queries.len());
    let mut b1: Vec<(u64, u64)> = Vec::with_capacity(queries.len());
    // Multi-box queries, as (query index, compiled boxes) pairs.
    let mut multi: Vec<(usize, &Boxes)> = Vec::new();
    for (qi, boxes) in compiled.iter().enumerate() {
        if let [axes] = boxes.as_slice() {
            qidx.push(qi);
            b0.push(axes[0]);
            b1.push(axes[1]);
        } else {
            multi.push((qi, boxes));
        }
    }
    let mut flat = vec![SampleAccumulator::default(); qidx.len()];
    let items = c.xs.values().zip(c.ys.values());
    for ((x, y), (w, a)) in items.zip(c.weights.values().zip(c.adjusted.values())) {
        let (light, light_var) = SampleAccumulator::classify(w, a);
        for ((acc, &(x0, x1)), &(y0, y1)) in flat.iter_mut().zip(&b0).zip(&b1) {
            if x0 <= x && x <= x1 && y0 <= y && y <= y1 {
                acc.add_classified(a, light, light_var);
            }
        }
        for &(qi, boxes) in &multi {
            if boxes
                .iter()
                .any(|axes| in_interval(axes[0], x) && in_interval(axes[1], y))
            {
                accs[qi].add_classified(a, light, light_var);
            }
        }
    }
    for (&qi, acc) in qidx.iter().zip(flat) {
        accs[qi] = acc;
    }
    accs.into_iter().map(|a| a.finish(confidence)).collect()
}

/// VarOpt answers through the key-order indexes of the reservoir's two
/// partitions, each given as its columns and index: large hits fold in
/// item order, small hits are counted by position.
pub(crate) fn varopt_1d<U: Column<u64>, F: Column<f64>>(
    tau: f64,
    (large_keys, large_weights, large_order): (U, F, &KeyOrder),
    (small_keys, small_order): (U, &KeyOrder),
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    let compiled = compile(queries, 1)?;
    let mut hits = Hits::new(large_order.len());
    compiled
        .iter()
        .map(|boxes| {
            let mut small = 0;
            for axes in boxes {
                hits.mark(large_order.span(large_keys, axes[0]));
                small += small_order.span(small_keys, axes[0]).len();
            }
            let mut acc = SampleAccumulator::default();
            hits.drain(|i| {
                let large = large_weights.at(i).max(tau);
                acc.add(large, large);
            });
            acc.add_small(small, tau);
            acc.finish(confidence)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{encode_segment, SegmentSummary, StoredSample, Summary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sas_core::estimate::{Sample, SampleEntry};

    /// The reference sample fold: every item tested against every box of
    /// every query, hits folded through [`SampleAccumulator::add`] in item
    /// order. Independent of the kernels above (no index, no hoisting).
    pub(crate) fn reference_answers(
        s: &StoredSample,
        queries: &[Query],
        confidence: f64,
    ) -> Vec<Estimate> {
        queries
            .iter()
            .map(|q| {
                let boxes = q.boxes(s.dims()).unwrap();
                let mut acc = SampleAccumulator::default();
                for i in 0..s.len() {
                    let inside = |axes: &Vec<(u64, u64)>| match s.dims() {
                        1 => in_interval(axes[0], s.keys()[i]),
                        _ => in_interval(axes[0], s.xs()[i]) && in_interval(axes[1], s.ys()[i]),
                    };
                    if boxes.iter().any(inside) {
                        acc.add(s.weights()[i], s.adjusted_weights()[i]);
                    }
                }
                acc.finish(confidence).unwrap()
            })
            .collect()
    }

    /// Asserts two answer lists agree bit for bit on every field.
    pub(crate) fn assert_same_bits(a: &[Estimate], b: &[Estimate], queries: &[Query], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for ((q, x), y) in queries.iter().zip(a).zip(b) {
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}: {q} value");
            assert_eq!(
                x.variance.to_bits(),
                y.variance.to_bits(),
                "{ctx}: {q} variance"
            );
            assert_eq!(x.lower.to_bits(), y.lower.to_bits(), "{ctx}: {q} lower");
            assert_eq!(x.upper.to_bits(), y.upper.to_bits(), "{ctx}: {q} upper");
            assert_eq!(
                x.confidence.to_bits(),
                y.confidence.to_bits(),
                "{ctx}: {q} confidence"
            );
        }
    }

    /// `(key, item)` pairs in key order, ties in item order: the index
    /// positions, sorted here without [`KeyOrder`].
    fn sorted_pairs(keys: &[u64]) -> Vec<(u64, usize)> {
        let mut pairs: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        pairs
    }

    /// The block reference: the decomposition [`sample_1d`] folds, walked
    /// naively over `sorted` (from [`sorted_pairs`]). Each box's positions
    /// go in order; a block of [`BLOCK`] positions that the box covers
    /// whole and that starts on a multiple of `BLOCK` is folded into a
    /// fresh accumulator and then absorbed, field by field rather than
    /// through [`SampleAccumulator::absorb`]; every other item is added
    /// on its own.
    fn block_reference_fold(
        sorted: &[(u64, usize)],
        weights: &[f64],
        adjusted: &[f64],
        boxes: &[Vec<(u64, u64)>],
    ) -> SampleAccumulator {
        let add = |acc: &mut SampleAccumulator, p: usize| {
            let i = sorted[p].1;
            acc.add(weights[i], adjusted[i]);
        };
        let mut acc = SampleAccumulator::default();
        for axes in boxes {
            let inside: Vec<usize> = (0..sorted.len())
                .filter(|&p| in_interval(axes[0], sorted[p].0))
                .collect();
            let (mut p, end) = match (inside.first(), inside.last()) {
                (Some(&first), Some(&last)) => (first, last + 1),
                _ => continue,
            };
            while p < end {
                if p % BLOCK == 0 && p + BLOCK <= end {
                    let mut block = SampleAccumulator::default();
                    (p..p + BLOCK).for_each(|q| add(&mut block, q));
                    acc.value += block.value;
                    acc.heavy += block.heavy;
                    acc.light_adjusted += block.light_adjusted;
                    acc.light_tau = acc.light_tau.max(block.light_tau);
                    acc.variance += block.variance;
                    p += BLOCK;
                } else {
                    add(&mut acc, p);
                    p += 1;
                }
            }
        }
        acc
    }

    /// [`block_reference_fold`] for every query of a 1-D sample. 2-D
    /// samples fold in item order, so they answer [`reference_answers`].
    fn block_reference_answers(
        s: &StoredSample,
        queries: &[Query],
        confidence: f64,
    ) -> Vec<Estimate> {
        if s.dims() != 1 {
            return reference_answers(s, queries, confidence);
        }
        let sorted = sorted_pairs(s.keys());
        queries
            .iter()
            .map(|q| {
                let boxes = q.boxes(1).unwrap();
                block_reference_fold(&sorted, s.weights(), s.adjusted_weights(), &boxes)
                    .finish(confidence)
                    .unwrap()
            })
            .collect()
    }

    /// Pins answers of the sample `s` to both references: bit for bit to
    /// [`block_reference_answers`], and to the item-order
    /// [`reference_answers`] within `n·ε` relative on the value, variance
    /// and interval ends of an `n`-item sample (block sums reassociate
    /// the float additions), with confidence — and so exactness — bit for
    /// bit.
    pub(crate) fn assert_sample_answers(
        s: &StoredSample,
        got: &[Estimate],
        queries: &[Query],
        confidence: f64,
        ctx: &str,
    ) {
        let blocks = block_reference_answers(s, queries, confidence);
        assert_same_bits(got, &blocks, queries, &format!("{ctx}: vs block fold"));
        let items = reference_answers(s, queries, confidence);
        let tol = s.len() as f64 * f64::EPSILON;
        for ((q, x), y) in queries.iter().zip(got).zip(&items) {
            for (field, a, b) in [
                ("value", x.value, y.value),
                ("variance", x.variance, y.variance),
                ("lower", x.lower, y.lower),
                ("upper", x.upper, y.upper),
            ] {
                assert!(
                    (a - b).abs() <= tol * a.abs().max(b.abs()),
                    "{ctx}: {q} {field} {a} vs item order {b}"
                );
            }
            assert_eq!(
                x.confidence.to_bits(),
                y.confidence.to_bits(),
                "{ctx}: {q} confidence vs item order"
            );
        }
    }

    #[test]
    fn key_order_index_is_a_stable_sort_by_key() {
        let keys: &[u64] = &[5, 1, 5, u64::MAX, 0, 1, 5];
        let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let le = Le::<u64>::new(&bytes);
        for order in [KeyOrder::build(keys).unwrap(), KeyOrder::build(le).unwrap()] {
            assert_eq!(&*order.0.order, &[4, 1, 5, 0, 2, 6, 3]);
            assert_eq!(order.span(keys, (5, 5)), &[0, 2, 6]);
            assert_eq!(order.span(le, (5, 5)), &[0, 2, 6]);
            assert_eq!(order.span(keys, (2, 4)), &[] as &[u32]);
            assert_eq!(order.span(keys, (0, u64::MAX)).len(), 7);
            assert_eq!(order.span(le, (u64::MAX, u64::MAX)), &[3]);
        }
    }

    #[test]
    fn key_order_index_caps_columns_at_u32_items() {
        // A segment whose key column the `u32` index cannot address (a
        // 32 GiB column) is refused; the limit is checked on the count.
        assert!(index_len(u32::MAX as usize).is_ok());
        assert!(matches!(
            index_len(u32::MAX as usize + 1),
            Err(CodecError::Invalid(_))
        ));
    }

    /// The whole-index search the fence replaces: the slice [`KeyOrder::span`]
    /// must return.
    fn whole_index_span<'a>(order: &'a [u32], keys: &[u64], (lo, hi): (u64, u64)) -> &'a [u32] {
        let start = order.partition_point(|&i| keys[i as usize] < lo);
        let rest = &order[start..];
        &rest[..rest.partition_point(|&i| keys[i as usize] <= hi)]
    }

    /// A key column of `n` items in scrambled item order. In key order the
    /// keys rise in steps of 0–4, the three positions around every fence
    /// (`b·BLOCK − 1 ..= b·BLOCK + 1`) share one key, and on odd seeds the
    /// last keys are `u64::MAX` (the first key is 0 on some seeds).
    fn fence_fixture(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = rng.gen_range(0..3u64);
        let mut keys: Vec<u64> = (0..n)
            .map(|p| {
                if p > 0 && p % BLOCK > 1 {
                    key += rng.gen_range(0..5u64);
                }
                key
            })
            .collect();
        if seed % 2 == 1 {
            let tail = n.saturating_sub(3);
            keys[tail..].fill(u64::MAX);
        }
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        keys
    }

    /// Ranges whose ends are 0, `u64::MAX`, and every distinct key and its
    /// two neighbours: every pair of ends when there are few, else each
    /// end alone, against each domain end, and paired with a later end.
    fn fence_probe_ranges(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut ends = vec![0, u64::MAX];
        for &k in keys {
            ends.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        ends.sort_unstable();
        ends.dedup();
        if ends.len() <= 120 {
            return ends
                .iter()
                .enumerate()
                .flat_map(|(i, &lo)| ends[i..].iter().map(move |&hi| (lo, hi)))
                .collect();
        }
        ends.iter()
            .enumerate()
            .flat_map(|(i, &e)| {
                [
                    (e, e),
                    (0, e),
                    (e, u64::MAX),
                    (e, ends[(i + 7).min(ends.len() - 1)]),
                ]
            })
            .collect()
    }

    /// The probe ranges on which `order` answers a different slice from
    /// the whole-index search over `reference`, the keys' stable sort.
    fn fence_mismatches(order: &KeyOrder, keys: &[u64], reference: &[u32]) -> usize {
        let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let le = Le::<u64>::new(&bytes);
        fence_probe_ranges(keys)
            .into_iter()
            .filter(|&range| {
                let want = whole_index_span(reference, keys, range);
                order.span(keys, range) != want || order.span(le, range) != want
            })
            .count()
    }

    #[test]
    fn fence_search_returns_the_whole_index_slice() {
        for n in [0, 1, 15, 16, 17, 31, 32, 33, 1000] {
            for seed in 0..6u64 {
                let keys = fence_fixture(n, seed);
                let order = KeyOrder::build(keys.as_slice()).unwrap();
                assert_eq!(order.0.fence.len(), n.div_ceil(BLOCK), "n {n}");
                let reference: Vec<u32> =
                    sorted_pairs(&keys).iter().map(|&(_, i)| i as u32).collect();
                assert_eq!(&*order.0.order, reference.as_slice(), "n {n}");
                let bad = fence_mismatches(&order, &keys, &reference);
                assert_eq!(bad, 0, "n {n}, seed {seed}: {bad} ranges differ");
            }
        }
        // The fixtures hold runs of duplicate keys across fences.
        let keys = fence_fixture(1000, 2);
        let order = KeyOrder::build(keys.as_slice()).unwrap();
        let at = |p: usize| keys[order.0.order[p] as usize];
        assert!((1..1000 / BLOCK).all(|b| at(b * BLOCK - 1) == at(b * BLOCK)));
    }

    #[test]
    fn fence_off_by_one_block_is_caught() {
        let keys = fence_fixture(1000, 3);
        let order = KeyOrder::build(keys.as_slice()).unwrap();
        let index = &*order.0;
        // Each block's fence entry names the next block's first key.
        let shifted: Box<[u64]> = index.fence[1..].iter().copied().chain([u64::MAX]).collect();
        let mutated = KeyOrder(Arc::new(Index {
            order: index.order.clone(),
            fence: shifted,
            blocks: Box::new([]),
        }));
        assert!(fence_mismatches(&mutated, &keys, &index.order) > 0);
    }

    /// A 1-D sample of `n` items: key-order position `p` holds key `10·p`,
    /// item `i` holds position `37·i mod n` (a scramble for `n` coprime to
    /// 37), and `light(p)` picks the light positions. Light items carry the
    /// threshold of their batch `i mod 3` (2, 7.5 or 30), so the sample
    /// mixes thresholds like an unbudgeted roll-up; heavy items keep their
    /// weight.
    fn block_fixture(n: u64, light: impl Fn(u64) -> bool) -> StoredSample {
        let mut rng = StdRng::seed_from_u64(n);
        let entries = (0..n)
            .map(|i| {
                let p = (37 * i) % n;
                let tau = [2.0, 7.5, 30.0][(i % 3) as usize];
                let (weight, adjusted_weight) = if light(p) {
                    (rng.gen_range(0.1..tau), tau)
                } else {
                    let w = rng.gen_range(1.0..40.0);
                    (w, w)
                };
                SampleEntry {
                    key: 10 * p,
                    weight,
                    adjusted_weight,
                }
            })
            .collect();
        StoredSample::one_dim(Sample::from_entries(entries, 30.0))
    }

    /// The range of key-order positions `start..end` of a [`block_fixture`].
    fn positions(start: u64, end: u64) -> (u64, u64) {
        (10 * start, 10 * end - 1)
    }

    /// Answers `queries` on the owned sample and on its mapped segment,
    /// pins the two together and to both references, and returns them.
    fn owned_and_mapped(s: &StoredSample, queries: &[Query]) -> Vec<Estimate> {
        let seg = SegmentSummary::from_vec(encode_segment(s).unwrap()).unwrap();
        let owned = s.answer_batch(queries, 0.9).unwrap();
        let mapped = seg.answer_batch(queries, 0.9).unwrap();
        assert_same_bits(&owned, &mapped, queries, "owned vs mapped");
        assert_sample_answers(s, &owned, queries, 0.9, "block fixture");
        owned
    }

    /// `1..=16`-range multi-ranges over `n` positions, the ends spread
    /// evenly (shifted by `offset`), as position ranges.
    fn multi_position_ranges(n: u64, offset: u64) -> Vec<Vec<(u64, u64)>> {
        (1..=16u64)
            .map(|k| {
                let ends: Vec<u64> = (0..2 * k)
                    .map(|j| offset + j * (n - offset) / (2 * k))
                    .collect();
                ends.chunks(2).map(|e| positions(e[0], e[1])).collect()
            })
            .collect()
    }

    #[test]
    fn block_fold_splits_spans_at_block_edges() {
        let s = block_fixture(100, |p| p % 5 != 0);
        let order = s.key_order();
        let spans = [
            (16, 48),
            (16, 40),
            (5, 32),
            (0, 16),
            (32, 48),
            (80, 96),
            (17, 20),
            (3, 13),
            (15, 17),
            (47, 49),
            (0, 1),
            (96, 100),
            (99, 100),
            (0, 100),
        ];
        let mut queries = vec![
            Query::Total,
            Query::interval(161, 169),
            Query::interval(1000, 5000),
            Query::interval(u64::MAX, u64::MAX),
        ];
        for (start, end) in spans {
            let range = positions(start, end);
            let want = start as usize..end as usize;
            assert_eq!(order.positions(s.keys(), range), want, "{range:?}");
            queries.push(Query::interval(range.0, range.1));
        }
        for offset in [0, 3] {
            for boxes in multi_position_ranges(100, offset) {
                let boxes = boxes.into_iter().map(|b| vec![b]).collect();
                queries.push(Query::MultiRange(boxes));
            }
        }
        let answers = owned_and_mapped(&s, &queries);
        assert_eq!(answers[1].value, 0.0);
        assert_eq!(answers[2].value, 0.0);
        assert_eq!(answers[3].value, 0.0);
    }

    #[test]
    fn heavy_only_blocks_answer_exactly() {
        // Positions 16..48 (blocks 1 and 2) are heavy; every other
        // position is light.
        let s = block_fixture(100, |p| !(16..48).contains(&p));
        let exact = [(16, 48), (16, 32), (32, 48), (20, 40), (17, 18)];
        let mut queries: Vec<Query> = exact
            .iter()
            .map(|&(a, b)| {
                let (lo, hi) = positions(a, b);
                Query::interval(lo, hi)
            })
            .collect();
        queries.push(Query::MultiRange(vec![
            vec![positions(16, 20)],
            vec![positions(24, 40)],
            vec![positions(44, 48)],
        ]));
        let light = [(15, 48), (16, 49), (0, 100)];
        for &(a, b) in &light {
            let (lo, hi) = positions(a, b);
            queries.push(Query::interval(lo, hi));
        }
        let answers = owned_and_mapped(&s, &queries);
        let (exact_answers, light_answers) = answers.split_at(exact.len() + 1);
        for (q, e) in queries.iter().zip(exact_answers) {
            let want = Estimate::exact(e.value);
            assert_same_bits(&[*e], &[want], std::slice::from_ref(q), "heavy blocks");
        }
        assert!(light_answers.iter().all(|e| e.confidence == 0.9));
    }

    #[test]
    fn mixed_threshold_blocks_keep_the_largest_light_threshold() {
        let s = block_fixture(100, |p| p % 7 != 3);
        let (keys, weights, adjusted) = (s.keys(), s.weights(), s.adjusted_weights());
        let key_bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let weight_bytes: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        let adjusted_bytes: Vec<u8> = adjusted.iter().flat_map(|a| a.to_le_bytes()).collect();
        let owned = SampleColumns {
            keys,
            weights,
            adjusted,
            xs: &[][..],
            ys: &[][..],
        };
        let mapped = SampleColumns {
            keys: Le::new(&key_bytes),
            weights: Le::new(&weight_bytes),
            adjusted: Le::new(&adjusted_bytes),
            xs: Le::new(&[]),
            ys: Le::new(&[]),
        };
        let owned_order =
            KeyOrder::build_sample(owned.keys, owned.weights, owned.adjusted).unwrap();
        let mapped_order =
            KeyOrder::build_sample(mapped.keys, mapped.weights, mapped.adjusted).unwrap();
        let sorted = sorted_pairs(keys);
        let mut cases: Vec<Vec<(u64, u64)>> = [(16, 48), (5, 60), (0, 100), (33, 35), (64, 80)]
            .iter()
            .map(|&(a, b)| vec![positions(a, b)])
            .collect();
        cases.extend(multi_position_ranges(100, 1));
        let mut thresholds = Vec::new();
        for boxes in &cases {
            let boxes: Vec<Vec<(u64, u64)>> = boxes.iter().map(|&b| vec![b]).collect();
            let a = owned_order.fold(&owned, &boxes);
            let b = mapped_order.fold(&mapped, &boxes);
            let reference = block_reference_fold(&sorted, weights, adjusted, &boxes);
            for (x, ctx) in [(b, "mapped"), (reference, "block reference")] {
                for (f, g) in [
                    (a.value, x.value),
                    (a.heavy, x.heavy),
                    (a.light_adjusted, x.light_adjusted),
                    (a.light_tau, x.light_tau),
                    (a.variance, x.variance),
                ] {
                    assert_eq!(f.to_bits(), g.to_bits(), "{boxes:?}: owned vs {ctx}");
                }
            }
            let largest = (0..keys.len())
                .filter(|&i| boxes.iter().any(|axes| in_interval(axes[0], keys[i])))
                .filter(|&i| adjusted[i] > weights[i])
                .map(|i| adjusted[i])
                .fold(0.0, f64::max);
            assert_eq!(a.light_tau.to_bits(), largest.to_bits(), "{boxes:?}");
            thresholds.push(largest);
        }
        // The cases see more than one threshold as the largest.
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup();
        assert!(thresholds.len() >= 2, "{thresholds:?}");
    }
}

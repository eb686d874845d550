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
//! Every 1-D kernel finds a key range through a [`KeyIndex`], the
//! key-order index of `sas_core::key_index`, whose searches read keys
//! through an accessor.
//!
//! * [`sample_1d`] — 1-D samples, through a [`KeyOrder`]: the key index
//!   plus block sums. Each box finds its index positions through the key
//!   fence, then folds its edge items one by one and every whole block in
//!   between through the block's stored [`SampleAccumulator`].
//!   O(k·(log n + BLOCK) + b) per query for a `k`-box query over `n`
//!   items whose boxes cover `b ≤ n/BLOCK` whole blocks.
//! * [`sample_2d`] — 2-D samples: one pass over the items for the whole
//!   batch, each item tested against every query's boxes.
//! * [`varopt_1d`] — VarOpt reservoirs, owned and mapped, through the key
//!   indexes of their two partitions: large hits are marked in a bitset
//!   ([`Hits`]) and fold in item order as heavy items of weight
//!   `max(w, τ)`; small keys only count, so their counts are differences
//!   of index positions (the boxes of a validated [`Query`] are
//!   disjoint), and fold in through [`SampleAccumulator::add_small`].
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
use sas_core::key_index::{KeyIndex, BLOCK};

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

/// The key-order index of a 1-D sample's key column, with the block sums
/// that [`sample_1d`] folds whole blocks through. Shared, so cloning a
/// summary that holds one stays cheap.
#[derive(Clone)]
pub(crate) struct KeyOrder {
    index: KeyIndex,
    /// Block `b`'s items folded in position order, one per whole block.
    blocks: Arc<[SampleAccumulator]>,
}

impl fmt::Debug for KeyOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyOrder({} items)", self.index.order().len())
    }
}

impl KeyOrder {
    /// Indexes a 1-D sample's key column and sums its blocks: each block's
    /// items fold in position order through [`SampleAccumulator::add`].
    pub(crate) fn build_sample(
        keys: impl Column<u64>,
        weights: impl Column<f64>,
        adjusted: impl Column<f64>,
    ) -> Result<Self, CodecError> {
        let index = KeyIndex::build(keys.len(), |i| keys.at(i)).map_err(CodecError::Invalid)?;
        let blocks = index
            .order()
            .chunks_exact(BLOCK)
            .map(|block| {
                let mut acc = SampleAccumulator::default();
                add_items(&mut acc, block, weights, adjusted);
                acc
            })
            .collect();
        Ok(KeyOrder { index, blocks })
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
        let (order, blocks) = (self.index.order(), &*self.blocks);
        let mut acc = SampleAccumulator::default();
        for axes in boxes {
            let Range { start, end } = self.index.positions(|i| c.keys.at(i), axes[0]);
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
/// partitions, each given as its item accessors and index: large hits fold
/// in item order, small hits are counted by position.
pub(crate) fn varopt_1d(
    tau: f64,
    (large_key, large_weight, large_index): (
        impl Fn(usize) -> u64,
        impl Fn(usize) -> f64,
        &KeyIndex,
    ),
    (small_key, small_index): (impl Fn(usize) -> u64, &KeyIndex),
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    let compiled = compile(queries, 1)?;
    let mut hits = Hits::new(large_index.order().len());
    compiled
        .iter()
        .map(|boxes| {
            let mut small = 0;
            for axes in boxes {
                hits.mark(large_index.span(&large_key, axes[0]));
                small += small_index.positions(&small_key, axes[0]).len();
            }
            let mut acc = SampleAccumulator::default();
            hits.drain(|i| {
                let large = large_weight(i).max(tau);
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
            assert_eq!(
                order.index.positions(|i| s.keys()[i], range),
                want,
                "{range:?}"
            );
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

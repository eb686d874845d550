//! The sample-kind answer kernels: one fold per sample layout, shared by
//! the owned summaries ([`StoredSample`](crate::StoredSample)) and the
//! mapped ones ([`SegmentSummary`](crate::SegmentSummary)).
//!
//! Each kernel is generic over [`Column`], a read-only view of one column
//! of 8-byte values, implemented for owned slices and for the
//! little-endian runs of a segment ([`Le`]). An owned answer and a mapped
//! answer therefore run the same code, and agree bit for bit by
//! construction.
//!
//! * [`sample_1d`] — 1-D samples, through a [`KeyOrder`] index: each box
//!   is binary-searched in the index, the hits are marked in a bitset
//!   ([`Hits`]) and folded in ascending item order through
//!   [`SampleAccumulator::add`]. O(k·log n + hits + n/64) per query for a
//!   `k`-box query over `n` items.
//! * [`sample_2d`] — 2-D samples: one pass over the items for the whole
//!   batch, each item tested against every query's boxes.
//! * [`varopt_1d`] — mapped VarOpt reservoirs: large hits fold in item
//!   order as `max(w, τ)`; small keys only count, so their counts are
//!   differences of index positions (the boxes of a validated [`Query`]
//!   are disjoint).
//!
//! Every kernel folds its hits in item order, so all three agree bit for
//! bit with a scan that tests every item against every box (the
//! reference the tests keep).

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use sas_codec::CodecError;

use crate::erased::{in_interval, varopt_estimate};
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

/// A value stored as 8 little-endian bytes.
pub(crate) trait Word: Copy {
    /// Decodes one word.
    fn from_le(word: [u8; 8]) -> Self;
}

impl Word for u64 {
    #[inline(always)]
    fn from_le(word: [u8; 8]) -> Self {
        u64::from_le_bytes(word)
    }
}

impl Word for f64 {
    #[inline(always)]
    fn from_le(word: [u8; 8]) -> Self {
        f64::from_le_bytes(word)
    }
}

/// A column run of little-endian `T`s inside segment bytes, indexed as
/// whole 8-byte words.
#[derive(Clone, Copy)]
pub(crate) struct Le<'a, T> {
    words: &'a [[u8; 8]],
    _value: PhantomData<T>,
}

impl<'a, T> Le<'a, T> {
    /// Views a run whose length is a multiple of 8 (segment validation
    /// guarantees it for every column).
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        let (words, rest) = bytes.as_chunks();
        debug_assert!(rest.is_empty(), "column run of {} bytes", bytes.len());
        Self {
            words,
            _value: PhantomData,
        }
    }
}

impl<T: Word> Column<T> for Le<'_, T> {
    fn len(self) -> usize {
        self.words.len()
    }

    #[inline(always)]
    fn at(self, i: usize) -> T {
        T::from_le(self.words[i])
    }

    fn values(self) -> impl Iterator<Item = T> {
        self.words.iter().map(|&w| T::from_le(w))
    }
}

/// The key-order index of one key column: item indices stably sorted by
/// key. Shared, so cloning a summary that holds one stays cheap.
#[derive(Clone)]
pub(crate) struct KeyOrder(Arc<[u32]>);

impl fmt::Debug for KeyOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyOrder({} items)", self.0.len())
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

impl KeyOrder {
    /// Sorts the item indices of a key column by key, ties in item order.
    /// The `(key, index)` pairs exist only while sorting.
    pub(crate) fn build(keys: impl Column<u64>) -> Result<Self, CodecError> {
        index_len(keys.len())?;
        let mut pairs: Vec<(u64, u32)> = keys.values().zip(0u32..).collect();
        pairs.sort_unstable();
        Ok(KeyOrder(pairs.into_iter().map(|(_, i)| i).collect()))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// The items whose keys lie in `[lo, hi]`, found by binary search.
    fn span(&self, keys: impl Column<u64>, (lo, hi): (u64, u64)) -> &[u32] {
        let key = |i: &u32| keys.at(*i as usize);
        let start = self.0.partition_point(|i| key(i) < lo);
        let rest = &self.0[start..];
        &rest[..rest.partition_point(|i| key(i) <= hi)]
    }
}

/// A bitset over item indices: marks one query's hits, then hands them
/// back in ascending item order — the fold order of every kernel.
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
    pub tau: f64,
    pub keys: U,
    pub weights: F,
    pub adjusted: F,
    pub xs: U,
    pub ys: U,
}

/// 1-D sample answers through the key-order index over `c.keys`.
pub(crate) fn sample_1d<U: Column<u64>, F: Column<f64>>(
    c: &SampleColumns<U, F>,
    order: &KeyOrder,
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, QueryError> {
    let compiled = compile(queries, 1)?;
    let mut hits = Hits::new(order.len());
    compiled
        .iter()
        .map(|boxes| {
            for axes in boxes {
                hits.mark(order.span(c.keys, axes[0]));
            }
            let mut acc = SampleAccumulator::default();
            hits.drain(|i| acc.add(c.weights.at(i), c.adjusted.at(i), c.tau));
            acc.finish(c.tau, confidence)
        })
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
    let (tau, compiled) = (c.tau, compile(queries, 2)?);
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
        let (light, light_var) = SampleAccumulator::classify(w, tau);
        for ((acc, &(x0, x1)), &(y0, y1)) in flat.iter_mut().zip(&b0).zip(&b1) {
            if x0 <= x && x <= x1 && y0 <= y && y <= y1 {
                acc.add_classified(a, tau, light, light_var);
            }
        }
        for &(qi, boxes) in &multi {
            if boxes
                .iter()
                .any(|axes| in_interval(axes[0], x) && in_interval(axes[1], y))
            {
                accs[qi].add_classified(a, tau, light, light_var);
            }
        }
    }
    for (&qi, acc) in qidx.iter().zip(flat) {
        accs[qi] = acc;
    }
    accs.into_iter()
        .map(|a| a.finish(tau, confidence))
        .collect()
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
            let mut large = 0.0;
            hits.drain(|i| large += large_weights.at(i).max(tau));
            varopt_estimate(large, small, tau, confidence)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::StoredSample;

    /// The reference sample fold: every item tested against every box of
    /// every query, hits folded through [`SampleAccumulator::add`] in item
    /// order. Independent of the kernels above (no index, no hoisting).
    pub(crate) fn reference_answers(
        s: &StoredSample,
        queries: &[Query],
        confidence: f64,
    ) -> Vec<Estimate> {
        let tau = s.tau();
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
                        acc.add(s.weights()[i], s.adjusted_weights()[i], tau);
                    }
                }
                acc.finish(tau, confidence).unwrap()
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

    #[test]
    fn key_order_index_is_a_stable_sort_by_key() {
        let keys: &[u64] = &[5, 1, 5, u64::MAX, 0, 1, 5];
        let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let le = Le::<u64>::new(&bytes);
        for order in [KeyOrder::build(keys).unwrap(), KeyOrder::build(le).unwrap()] {
            assert_eq!(&*order.0, &[4, 1, 5, 0, 2, 6, 3]);
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
}

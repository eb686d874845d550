//! [`SegmentSummary`] — a zero-copy [`Summary`] served straight from v2
//! segment bytes (see `sas_codec::segment` for the byte layout).
//!
//! A v1 frame must be *decoded* into an owned [`StoredSample`] or
//! [`VarOptSampler`] before it can answer anything; a segment's column runs
//! **are** the query representation. [`SegmentSummary::open`] validates the
//! bytes once (checksum, layout, and every invariant the v1 decoder would
//! enforce), and from then on `answer` / `answer_batch` read the columns in
//! place — the store keeps cold windows as `mmap`ed segments and serves
//! Estimate queries off the page cache without ever materializing the
//! summary on the heap.
//!
//! ## Key-order index
//!
//! Structure-aware samples are drawn over the key order, so a range (or a
//! disjoint union of ranges) is answered by the sampled keys inside it
//! alone. Once validation passes, [`SegmentSummary::open`] builds, for every
//! 1-D key column (the sample keys, and both VarOpt partitions), a `u32`
//! permutation of item indices stably sorted by key — 4 bytes per item, no
//! copy of the keys. A 1-D query then binary-searches each of its boxes in
//! that index instead of testing every key: O(k·log n + hits + n/64) per
//! query and window for a `k`-box query over `n` items, against O(n·k) for
//! a scan. 2-D samples keep the column scan.
//!
//! ## Bit-identity contract
//!
//! Answers are bit-identical to decoding the v1 frame and asking the owned
//! [`StoredSample`] / [`VarOptSampler`] — pinned by the multi-seed property
//! tests at the bottom of this file. Columns hold the same little-endian
//! words the v1 wire carries, and every float fold runs in the **same
//! order** as the owned scan: the index only *finds* the hits; they are
//! marked in a bitset and folded in ascending item order (sample hits
//! through `SampleAccumulator::add`, VarOpt large weights as `w.max(τ)`),
//! with the same accumulator and the same finish. VarOpt small keys only
//! count, so their counts are differences of index positions (the boxes of
//! a validated [`Query`] are disjoint). The 2-D scan mirrors the owned 2-D
//! loop operation for operation. When the owned fold changes, change this
//! one.
//!
//! Merging is the one thing a segment cannot do in place:
//! [`SegmentSummary::hydrate`] rebuilds the owned summary (the store calls
//! it on the merge and compaction paths only).

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use rand::RngCore;

use sas_codec::segment::{SegmentBuilder, SegmentView};
use sas_codec::{CodecError, Writer};
use sas_core::varopt::VarOptSampler;
use sas_core::KeyId;

use crate::erased::{answer_one, in_interval, varopt_estimate, SummaryError};
use crate::query::{Estimate, Query, QueryError, SampleAccumulator};
use crate::stored::StoredSample;
use crate::{Summary, SummaryKind};

/// Shared immutable bytes a segment view borrows from — an owned buffer or
/// an `mmap`ed file (the store's `Mapped` implements `AsRef<[u8]>`).
pub type SharedBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

// Column ids for the sample layout (kind tag 1). Meta packs the section-1
// scalars of the v1 frame as 8-byte words: `[dims: u64, tau: f64 bits]`.
/// Sample meta column: `[dims, tau bits]`.
pub const COL_SAMPLE_META: u32 = 1;
/// Sample key column.
pub const COL_SAMPLE_KEYS: u32 = 2;
/// Sample original-weight column.
pub const COL_SAMPLE_WEIGHTS: u32 = 3;
/// Sample HT adjusted-weight column.
pub const COL_SAMPLE_ADJUSTED: u32 = 4;
/// Sample x-coordinate column (count 0 for 1-D).
pub const COL_SAMPLE_XS: u32 = 5;
/// Sample y-coordinate column (count 0 for 1-D).
pub const COL_SAMPLE_YS: u32 = 6;

// Column ids for the VarOpt layout (kind tag 2). Meta is
// `[capacity: u64, tau: f64 bits, count: u64, total_weight: f64 bits]`.
/// VarOpt meta column: `[capacity, tau bits, count, total_weight bits]`.
pub const COL_VAROPT_META: u32 = 1;
/// VarOpt large-partition key column (heap order).
pub const COL_VAROPT_LARGE_KEYS: u32 = 2;
/// VarOpt large-partition weight column, aligned with the keys.
pub const COL_VAROPT_LARGE_WEIGHTS: u32 = 3;
/// VarOpt small-partition key column.
pub const COL_VAROPT_SMALL_KEYS: u32 = 4;

/// Encodes a summary into v2 segment bytes, if its kind has a segment
/// layout (finished samples and VarOpt reservoirs — the store's two
/// stored-sample kinds). Returns `None` for the deterministic kinds, which
/// stay on the v1 frame format.
pub fn encode_segment(s: &dyn Summary) -> Option<Vec<u8>> {
    if let Some(s) = s.as_any().downcast_ref::<StoredSample>() {
        let mut b = SegmentBuilder::new(SummaryKind::Sample.tag());
        b.column_u64(COL_SAMPLE_META, [s.dims() as u64, s.tau().to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, s.keys().iter().copied());
        b.column_f64(COL_SAMPLE_WEIGHTS, s.weights().iter().copied());
        b.column_f64(COL_SAMPLE_ADJUSTED, s.adjusted_weights().iter().copied());
        b.column_u64(COL_SAMPLE_XS, s.xs().iter().copied());
        b.column_u64(COL_SAMPLE_YS, s.ys().iter().copied());
        return Some(b.finish());
    }
    if let Some(v) = s.as_any().downcast_ref::<VarOptSampler>() {
        let mut b = SegmentBuilder::new(SummaryKind::VarOptReservoir.tag());
        b.column_u64(
            COL_VAROPT_META,
            [
                v.capacity() as u64,
                v.tau().to_bits(),
                v.count() as u64,
                v.total_weight().to_bits(),
            ],
        );
        b.column_u64(COL_VAROPT_LARGE_KEYS, v.large_entries().map(|(k, _)| k));
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, v.large_entries().map(|(_, w)| w));
        b.column_u64(COL_VAROPT_SMALL_KEYS, v.small_keys().iter().copied());
        return Some(b.finish());
    }
    None
}

/// A byte range inside the segment, proven in-bounds at open time.
#[derive(Debug, Clone, Copy)]
struct Col {
    start: usize,
    end: usize,
}

impl Col {
    fn of(entry: &sas_codec::segment::SectionEntry) -> Self {
        Self {
            start: entry.offset as usize,
            end: (entry.offset + entry.len) as usize,
        }
    }

    fn count(&self) -> usize {
        (self.end - self.start) / 8
    }

    fn slice<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.start..self.end]
    }
}

/// Iterates a column run as little-endian `u64`s.
fn u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
}

/// Iterates a column run as `f64` bit patterns.
fn f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    u64s(bytes).map(f64::from_bits)
}

/// Word `i` of a column run.
fn u64_at(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("slice of 8"))
}

/// Word `i` of a column run as an `f64`.
fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_bits(u64_at(bytes, i))
}

/// The key-order index of one key column: item indices stably sorted by
/// key (see the module docs). Shared, so cloning a segment stays cheap.
#[derive(Clone)]
struct KeyOrder(Arc<[u32]>);

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
    /// Sorts the item indices of a validated key column by key, ties in
    /// item order. The `(key, index)` pairs exist only while sorting.
    fn build(keys: &[u8]) -> Result<Self, CodecError> {
        index_len(keys.len() / 8)?;
        let mut pairs: Vec<(u64, u32)> = u64s(keys).zip(0u32..).collect();
        pairs.sort_unstable();
        Ok(KeyOrder(pairs.into_iter().map(|(_, i)| i).collect()))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// The items whose keys lie in `[lo, hi]`, found by binary search.
    fn span(&self, keys: &[u8], (lo, hi): (u64, u64)) -> &[u32] {
        let key = |i: &u32| u64_at(keys, *i as usize);
        let start = self.0.partition_point(|i| key(i) < lo);
        let rest = &self.0[start..];
        &rest[..rest.partition_point(|i| key(i) <= hi)]
    }
}

/// A bitset over item indices: marks one query's hits, then hands them
/// back in ascending item order — the fold order of the owned scans.
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

/// The validated column layout of one segment.
#[derive(Debug, Clone)]
enum Layout {
    Sample {
        dims: usize,
        tau: f64,
        total: f64,
        keys: Col,
        weights: Col,
        adjusted: Col,
        xs: Col,
        ys: Col,
        /// Key-order index over `keys`; `None` for 2-D, which scans.
        order: Option<KeyOrder>,
    },
    VarOpt {
        capacity: usize,
        tau: f64,
        count: usize,
        total_weight: f64,
        total: f64,
        large_keys: Col,
        large_weights: Col,
        small_keys: Col,
        large_order: KeyOrder,
        small_order: KeyOrder,
    },
}

/// A summary served in place from v2 segment bytes (module docs above).
#[derive(Clone)]
pub struct SegmentSummary {
    bytes: SharedBytes,
    layout: Layout,
}

impl fmt::Debug for SegmentSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentSummary")
            .field("bytes", &self.data().len())
            .field("layout", &self.layout)
            .finish()
    }
}

fn section(
    view: &SegmentView<'_>,
    id: u32,
) -> Result<sas_codec::segment::SectionEntry, CodecError> {
    view.sections()
        .iter()
        .find(|e| e.id == id)
        .copied()
        .ok_or_else(|| CodecError::Invalid(format!("missing segment section {id}")))
}

impl SegmentSummary {
    /// Opens a segment over shared bytes: one full validation pass
    /// (checksum, table, and every invariant the v1 decoder enforces —
    /// including that [`SegmentSummary::hydrate`] cannot fail later), then
    /// queries read the columns in place. Never panics on corrupted,
    /// truncated, or forged input.
    pub fn open(bytes: SharedBytes) -> Result<Self, CodecError> {
        let layout = Self::validate((*bytes).as_ref())?;
        Ok(Self { bytes, layout })
    }

    /// [`SegmentSummary::open`] over an owned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, CodecError> {
        Self::open(Arc::new(bytes))
    }

    fn validate(b: &[u8]) -> Result<Layout, CodecError> {
        let view = SegmentView::parse(b)?;
        match SummaryKind::from_tag(view.kind()) {
            Some(SummaryKind::Sample) => Self::validate_sample(b, &view),
            Some(SummaryKind::VarOptReservoir) => Self::validate_varopt(b, &view),
            Some(kind) => Err(CodecError::Invalid(format!(
                "summary kind {kind} has no segment layout"
            ))),
            None => Err(CodecError::UnknownKind(view.kind())),
        }
    }

    fn validate_sample(b: &[u8], view: &SegmentView<'_>) -> Result<Layout, CodecError> {
        let meta = view.column(COL_SAMPLE_META).ok_or_else(|| {
            CodecError::Invalid(format!("missing segment section {COL_SAMPLE_META}"))
        })?;
        if meta.count() != 2 {
            return Err(CodecError::Invalid(format!(
                "sample meta holds {} words, expected 2",
                meta.count()
            )));
        }
        let dims = meta.u64_at(0).expect("count 2") as usize;
        let tau = meta.f64_at(1).expect("count 2");
        if dims != 1 && dims != 2 {
            return Err(CodecError::Invalid(format!("unsupported dims {dims}")));
        }
        if !(tau.is_finite() && tau >= 0.0) {
            return Err(CodecError::Invalid(format!("invalid threshold {tau}")));
        }
        let keys = Col::of(&section(view, COL_SAMPLE_KEYS)?);
        let weights = Col::of(&section(view, COL_SAMPLE_WEIGHTS)?);
        let adjusted = Col::of(&section(view, COL_SAMPLE_ADJUSTED)?);
        let xs = Col::of(&section(view, COL_SAMPLE_XS)?);
        let ys = Col::of(&section(view, COL_SAMPLE_YS)?);
        let n = keys.count();
        if weights.count() != n || adjusted.count() != n {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {n} keys, {} weights, {} adjusted",
                weights.count(),
                adjusted.count()
            )));
        }
        let expected = if dims == 2 { n } else { 0 };
        if xs.count() != expected || ys.count() != expected {
            return Err(CodecError::Invalid(format!(
                "{} locations for {expected} expected",
                xs.count().max(ys.count())
            )));
        }
        for (w, a) in f64s(weights.slice(b)).zip(f64s(adjusted.slice(b))) {
            if !(w.is_finite() && a.is_finite() && w >= 0.0 && a >= 0.0) {
                return Err(CodecError::Invalid(format!(
                    "invalid weight pair ({w}, {a})"
                )));
            }
        }
        // Mirrors `StoredSample::total_estimate` (same fold order).
        let total = f64s(adjusted.slice(b)).sum();
        let order = match dims {
            1 => Some(KeyOrder::build(keys.slice(b))?),
            _ => None,
        };
        Ok(Layout::Sample {
            dims,
            tau,
            total,
            keys,
            weights,
            adjusted,
            xs,
            ys,
            order,
        })
    }

    fn validate_varopt(b: &[u8], view: &SegmentView<'_>) -> Result<Layout, CodecError> {
        let meta = view.column(COL_VAROPT_META).ok_or_else(|| {
            CodecError::Invalid(format!("missing segment section {COL_VAROPT_META}"))
        })?;
        if meta.count() != 4 {
            return Err(CodecError::Invalid(format!(
                "varopt meta holds {} words, expected 4",
                meta.count()
            )));
        }
        let capacity = meta.u64_at(0).expect("count 4") as usize;
        let tau = meta.f64_at(1).expect("count 4");
        let count = meta.u64_at(2).expect("count 4") as usize;
        let total_weight = meta.f64_at(3).expect("count 4");
        let large_keys = Col::of(&section(view, COL_VAROPT_LARGE_KEYS)?);
        let large_weights = Col::of(&section(view, COL_VAROPT_LARGE_WEIGHTS)?);
        let small_keys = Col::of(&section(view, COL_VAROPT_SMALL_KEYS)?);
        if large_weights.count() != large_keys.count() {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {} large keys, {} large weights",
                large_keys.count(),
                large_weights.count()
            )));
        }
        // Reassembling through `from_parts` enforces every reservoir
        // invariant (heap order, weights vs threshold, counts) — and proves
        // `hydrate` cannot fail on these bytes.
        let large: Vec<(KeyId, f64)> = u64s(large_keys.slice(b))
            .zip(f64s(large_weights.slice(b)))
            .collect();
        let small: Vec<KeyId> = u64s(small_keys.slice(b)).collect();
        VarOptSampler::from_parts(capacity, large, small, tau, count, total_weight)
            .map_err(CodecError::Invalid)?;
        // Mirrors the erased `VarOptSampler::total_estimate` (same order).
        let large_total: f64 = f64s(large_weights.slice(b)).map(|w| w.max(tau)).sum();
        let total = large_total + small_keys.count() as f64 * tau;
        Ok(Layout::VarOpt {
            capacity,
            tau,
            count,
            total_weight,
            total,
            large_keys,
            large_weights,
            small_keys,
            large_order: KeyOrder::build(large_keys.slice(b))?,
            small_order: KeyOrder::build(small_keys.slice(b))?,
        })
    }

    fn data(&self) -> &[u8] {
        (*self.bytes).as_ref()
    }

    /// The segment size in bytes.
    pub fn segment_len(&self) -> usize {
        self.data().len()
    }

    /// Rebuilds the owned summary from the columns — the store's merge and
    /// compaction paths call this; queries never need it. Infallible
    /// because [`SegmentSummary::open`] already enforced every decoder
    /// invariant on these bytes.
    pub fn hydrate(&self) -> Box<dyn Summary> {
        let b = self.data();
        match &self.layout {
            Layout::Sample {
                dims,
                tau,
                keys,
                weights,
                adjusted,
                xs,
                ys,
                ..
            } => Box::new(StoredSample::from_columns(
                u64s(keys.slice(b)).collect(),
                f64s(weights.slice(b)).collect(),
                f64s(adjusted.slice(b)).collect(),
                u64s(xs.slice(b)).collect(),
                u64s(ys.slice(b)).collect(),
                *tau,
                *dims,
            )),
            Layout::VarOpt {
                capacity,
                tau,
                count,
                total_weight,
                large_keys,
                large_weights,
                small_keys,
                ..
            } => {
                let large: Vec<(KeyId, f64)> = u64s(large_keys.slice(b))
                    .zip(f64s(large_weights.slice(b)))
                    .collect();
                let small: Vec<KeyId> = u64s(small_keys.slice(b)).collect();
                Box::new(
                    VarOptSampler::from_parts(*capacity, large, small, *tau, *count, *total_weight)
                        .expect("invariants were validated when the segment was opened"),
                )
            }
        }
    }

    /// 1-D sample answers through the key-order index (module docs).
    fn answer_sample_1d(
        &self,
        tau: f64,
        [keys, weights, adjusted]: [Col; 3],
        order: &KeyOrder,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let b = self.data();
        let (keys, weights, adjusted) = (keys.slice(b), weights.slice(b), adjusted.slice(b));
        let compiled = compile(queries, 1)?;
        let mut hits = Hits::new(order.len());
        compiled
            .iter()
            .map(|boxes| {
                for axes in boxes {
                    hits.mark(order.span(keys, axes[0]));
                }
                let mut acc = SampleAccumulator::default();
                hits.drain(|i| acc.add(f64_at(weights, i), f64_at(adjusted, i), tau));
                acc.finish(tau, confidence)
            })
            .collect()
    }

    /// Mirror of the 2-D branch of `StoredSample::answer_batch` over column
    /// bytes — see the module docs. Keep the twins in sync.
    fn answer_sample_2d(
        &self,
        tau: f64,
        [weights, adjusted, xs, ys]: [Col; 4],
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let b = self.data();
        let compiled = compile(queries, 2)?;
        let mut accs = vec![SampleAccumulator::default(); queries.len()];
        let mut qidx: Vec<usize> = Vec::with_capacity(queries.len());
        let mut b0: Vec<(u64, u64)> = Vec::with_capacity(queries.len());
        let mut b1: Vec<(u64, u64)> = Vec::with_capacity(queries.len());
        type MultiBox<'a> = (usize, &'a [Vec<(u64, u64)>]);
        let mut multi: Vec<MultiBox<'_>> = Vec::new();
        for (qi, boxes) in compiled.iter().enumerate() {
            if let [axes] = boxes.as_slice() {
                qidx.push(qi);
                b0.push(axes[0]);
                b1.push(axes[1]);
            } else {
                multi.push((qi, boxes.as_slice()));
            }
        }
        let mut flat = vec![SampleAccumulator::default(); qidx.len()];
        for (((x, y), w), a) in u64s(xs.slice(b))
            .zip(u64s(ys.slice(b)))
            .zip(f64s(weights.slice(b)))
            .zip(f64s(adjusted.slice(b)))
        {
            let light = tau > 0.0 && w < tau;
            let light_var = if light { tau * (tau - w) } else { 0.0 };
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

    /// VarOpt answers through the two partitions' key-order indexes: large
    /// hits fold in item order, small hits are counted by position.
    fn answer_varopt(
        &self,
        tau: f64,
        [large_keys, large_weights, small_keys]: [Col; 3],
        [large_order, small_order]: [&KeyOrder; 2],
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let b = self.data();
        let (large_keys, large_weights) = (large_keys.slice(b), large_weights.slice(b));
        let small_keys = small_keys.slice(b);
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
                hits.drain(|i| large += f64_at(large_weights, i).max(tau));
                varopt_estimate(large, small, tau, confidence)
            })
            .collect()
    }
}

/// One query's disjoint boxes, each a list of per-axis closed intervals.
type Boxes = Vec<Vec<(u64, u64)>>;

/// Every query's boxes, compiled up front so a malformed query fails the
/// batch before any answer is computed — as the owned paths do.
fn compile(queries: &[Query], dims: usize) -> Result<Vec<Boxes>, QueryError> {
    queries.iter().map(|q| q.boxes(dims)).collect()
}

impl Summary for SegmentSummary {
    fn kind(&self) -> SummaryKind {
        match self.layout {
            Layout::Sample { .. } => SummaryKind::Sample,
            Layout::VarOpt { .. } => SummaryKind::VarOptReservoir,
        }
    }

    fn dims(&self) -> usize {
        match self.layout {
            Layout::Sample { dims, .. } => dims,
            Layout::VarOpt { .. } => 1,
        }
    }

    fn item_count(&self) -> usize {
        match &self.layout {
            Layout::Sample { keys, .. } => keys.count(),
            Layout::VarOpt {
                large_keys,
                small_keys,
                ..
            } => large_keys.count() + small_keys.count(),
        }
    }

    fn total_estimate(&self) -> f64 {
        match self.layout {
            Layout::Sample { total, .. } => total,
            Layout::VarOpt { total, .. } => total,
        }
    }

    fn tau(&self) -> Option<f64> {
        match self.layout {
            Layout::Sample { tau, .. } => Some(tau),
            Layout::VarOpt { tau, .. } => Some(tau),
        }
    }

    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError> {
        answer_one(self, query, confidence)
    }

    fn answer_batch(
        &self,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        match &self.layout {
            Layout::Sample {
                tau,
                keys,
                weights,
                adjusted,
                order: Some(order),
                ..
            } => self.answer_sample_1d(
                *tau,
                [*keys, *weights, *adjusted],
                order,
                queries,
                confidence,
            ),
            Layout::Sample {
                tau,
                weights,
                adjusted,
                xs,
                ys,
                order: None,
                ..
            } => self.answer_sample_2d(*tau, [*weights, *adjusted, *xs, *ys], queries, confidence),
            Layout::VarOpt {
                tau,
                large_keys,
                large_weights,
                small_keys,
                large_order,
                small_order,
                ..
            } => self.answer_varopt(
                *tau,
                [*large_keys, *large_weights, *small_keys],
                [large_order, small_order],
                queries,
                confidence,
            ),
        }
    }

    fn merge_in_place(
        &mut self,
        _other: Box<dyn Summary>,
        _budget: Option<usize>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        // A segment is immutable by design; the store hydrates cold windows
        // before merging. Failing loudly here keeps that contract honest.
        Err(SummaryError::Merge(
            "segment-backed summary must be hydrated before merging".into(),
        ))
    }

    fn encode_body(&self, w: &mut Writer) {
        // Rare path (the store re-encodes only owned summaries): delegate
        // to the hydrated form so the v1 body is bit-identical to it.
        self.hydrate().encode_body(w);
    }

    fn clone_box(&self) -> Box<dyn Summary> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_summary, encode_summary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sas_core::WeightedKey;
    use sas_structures::product::Point;
    use std::collections::HashMap;

    fn weighted(n: u64, seed: u64) -> Vec<WeightedKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                let w = if rng.gen_bool(0.05) {
                    rng.gen_range(50.0..400.0)
                } else {
                    rng.gen_range(0.1..8.0)
                };
                WeightedKey::new(k, w)
            })
            .collect()
    }

    fn sample_fixture(seed: u64, two_dim: bool) -> StoredSample {
        let data = weighted(300, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let sample = sas_sampling::order::sample(&data, 48, &mut rng);
        if two_dim {
            let points: HashMap<u64, Point> = data
                .iter()
                .map(|wk| (wk.key, Point::xy(wk.key % 64, (wk.key * 7919) % 64)))
                .collect();
            StoredSample::two_dim(sample, points).unwrap()
        } else {
            StoredSample::one_dim(sample)
        }
    }

    fn varopt_fixture(seed: u64) -> VarOptSampler {
        let data = weighted(250, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut v = VarOptSampler::new(32);
        for wk in &data {
            v.push(wk.key, wk.weight, &mut rng);
        }
        v
    }

    fn probe_queries(two_dim: bool) -> Vec<Query> {
        if two_dim {
            vec![
                Query::Total,
                Query::BoxRange(vec![(0, 31), (0, 31)]),
                Query::BoxRange(vec![(10, 50), (5, 60)]),
                Query::Point(vec![5, 9]),
                Query::HierarchyNode { level: 4, index: 1 },
                Query::MultiRange(vec![vec![(0, 15), (0, 63)], vec![(16, 31), (0, 63)]]),
            ]
        } else {
            vec![
                Query::Total,
                Query::interval(0, 99),
                Query::interval(42, 199),
                Query::Point(vec![7]),
                Query::HierarchyNode { level: 6, index: 1 },
                Query::MultiRange(vec![vec![(0, 49)], vec![(100, 199)]]),
            ]
        }
    }

    fn assert_estimates_bit_identical(owned: &dyn Summary, seg: &SegmentSummary, ctx: &str) {
        assert_answers_bit_identical(owned, seg, &probe_queries(owned.dims() == 2), ctx);
    }

    fn assert_answers_bit_identical(
        owned: &dyn Summary,
        seg: &SegmentSummary,
        queries: &[Query],
        ctx: &str,
    ) {
        for confidence in [0.5, 0.9, 0.99] {
            let a = owned.answer_batch(queries, confidence).unwrap();
            let b = seg.answer_batch(queries, confidence).unwrap();
            assert_eq!(a.len(), b.len());
            for ((q, x), y) in queries.iter().zip(&a).zip(&b) {
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
            // The single-answer path routes through the same batch loop.
            for q in queries {
                let x = owned.answer(q, confidence).unwrap();
                let y = seg.answer(q, confidence).unwrap();
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}: {q} single");
            }
        }
        assert_eq!(seg.kind(), owned.kind(), "{ctx}");
        assert_eq!(seg.dims(), owned.dims(), "{ctx}");
        assert_eq!(seg.item_count(), owned.item_count(), "{ctx}");
        assert_eq!(
            seg.total_estimate().to_bits(),
            owned.total_estimate().to_bits(),
            "{ctx}"
        );
        assert_eq!(
            Summary::tau(seg).unwrap().to_bits(),
            Summary::tau(owned).unwrap().to_bits(),
            "{ctx}"
        );
    }

    #[test]
    fn view_matches_decoded_sample_across_seeds() {
        // 120 seeds, alternating 1-D and 2-D: the view path must reproduce
        // the v1-decoded answers bit for bit.
        for seed in 0..120u64 {
            let owned = sample_fixture(seed, seed % 2 == 1);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            // Answer against a *decoded* copy, exactly as the acceptance
            // bar is phrased: view vs v1 decode.
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            assert_estimates_bit_identical(decoded.as_ref(), &seg, &format!("sample seed {seed}"));
        }
    }

    #[test]
    fn view_matches_decoded_varopt_across_seeds() {
        for seed in 0..120u64 {
            let owned = varopt_fixture(seed);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            assert_estimates_bit_identical(decoded.as_ref(), &seg, &format!("varopt seed {seed}"));
        }
    }

    /// Distinct random keys below `span` — plus, now and then, the domain
    /// ends 0 and `u64::MAX` — in random order, with the fixture weights.
    fn random_rows(rng: &mut StdRng, n: usize, span: u64) -> Vec<WeightedKey> {
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            let key = match rng.gen_range(0..40) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.gen_range(0..span),
            };
            if seen.insert(key) {
                let w = if rng.gen_bool(0.05) {
                    rng.gen_range(50.0..400.0)
                } else {
                    rng.gen_range(0.1..8.0)
                };
                rows.push(WeightedKey::new(key, w));
            }
        }
        rows
    }

    /// A 1-D sample shaped like a store roll-up: several batches of
    /// interleaved random keys, each sampled, then concatenated (the
    /// unbudgeted merge). The key column is out of key order, and a narrow
    /// `span` makes batches share keys, so the column holds duplicates.
    fn rollup_sample_fixture(seed: u64, span: u64) -> StoredSample {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut window: Option<StoredSample> = None;
        for _ in 0..rng.gen_range(2..6) {
            let n = rng.gen_range(1..160);
            let rows = random_rows(&mut rng, n, span);
            let size = rng.gen_range(1..=n.min(60));
            let batch = StoredSample::one_dim(sas_sampling::order::sample(&rows, size, &mut rng));
            match window.as_mut() {
                None => window = Some(batch),
                Some(w) => w.merge(batch, None, &mut rng).unwrap(),
            }
        }
        window.expect("at least two batches")
    }

    /// A VarOpt reservoir fed random keys in random order across several
    /// merged batches, so both partitions hold keys scattered over the
    /// domain (duplicates included when `span` is narrow).
    fn rollup_varopt_fixture(seed: u64, span: u64) -> VarOptSampler {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let capacity = rng.gen_range(4..48);
        let mut window = VarOptSampler::new(capacity);
        for _ in 0..rng.gen_range(2..5) {
            let mut batch = VarOptSampler::new(capacity);
            let n = rng.gen_range(1..200);
            for wk in random_rows(&mut rng, n, span) {
                batch.push(wk.key, wk.weight, &mut rng);
            }
            window.merge(batch, &mut rng);
        }
        window
    }

    /// Queries aimed at what the key-order index changes: single-key,
    /// no-hit and domain-end ranges, ranges between held keys, and
    /// multi-ranges of 1–16 disjoint boxes.
    fn index_probe_queries(rng: &mut StdRng, held: &[u64]) -> Vec<Query> {
        let mut sorted = held.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut queries = vec![
            Query::Total,
            Query::interval(0, 0),
            Query::interval(u64::MAX, u64::MAX),
            Query::interval(0, u64::MAX - 1),
            Query::interval(1, u64::MAX),
        ];
        // A random endpoint: a held key, a neighbour of one, or anything.
        let endpoint = |rng: &mut StdRng| match (rng.gen_range(0..3), sorted.is_empty()) {
            (0, false) => sorted[rng.gen_range(0..sorted.len())],
            (1, false) => sorted[rng.gen_range(0..sorted.len())].wrapping_add(1),
            _ => rng.gen_range(0..u64::MAX),
        };
        for _ in 0..6 {
            let (a, b) = (endpoint(rng), endpoint(rng));
            queries.push(Query::interval(a.min(b), a.max(b)));
            let k = endpoint(rng);
            queries.push(Query::Point(vec![k]));
        }
        // No-hit ranges: strictly between two adjacent held keys.
        for pair in sorted.windows(2).take(4) {
            if pair[1] - pair[0] >= 2 {
                queries.push(Query::interval(pair[0] + 1, pair[1] - 1));
            }
        }
        for boxes in 1..=16usize {
            let mut ends: Vec<u64> = (0..2 * boxes).map(|_| endpoint(rng)).collect();
            ends.sort_unstable();
            ends.dedup();
            if ends.len() % 2 == 1 {
                ends.pop();
            }
            if ends.is_empty() {
                continue;
            }
            queries.push(Query::MultiRange(
                ends.chunks(2).map(|c| vec![(c[0], c[1])]).collect(),
            ));
        }
        queries.push(Query::HierarchyNode {
            level: rng.gen_range(0..64),
            index: 0,
        });
        queries
    }

    #[test]
    fn view_matches_decoded_rollup_sample_across_seeds() {
        // Out-of-key-order columns: a fold in index order instead of item
        // order would reassociate the float sums and show up here.
        let mut with_duplicates = 0;
        for seed in 0..160u64 {
            let span = if seed % 2 == 0 { 400 } else { u64::MAX };
            let owned = rollup_sample_fixture(seed, span);
            assert!(
                owned.keys().windows(2).any(|w| w[0] > w[1]) || owned.len() < 3,
                "seed {seed}: fixture keys should be out of order"
            );
            let mut distinct = owned.keys().to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            with_duplicates += usize::from(distinct.len() < owned.len());
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let queries = index_probe_queries(&mut rng, owned.keys());
            let ctx = format!("rollup sample seed {seed}");
            assert_answers_bit_identical(decoded.as_ref(), &seg, &queries, &ctx);
        }
        // The duplicate-key case is real, not vacuous.
        assert!(with_duplicates >= 40, "only {with_duplicates} fixtures");
    }

    #[test]
    fn view_matches_decoded_rollup_varopt_across_seeds() {
        let mut both_partitions = 0;
        for seed in 0..160u64 {
            let span = if seed % 2 == 0 { 300 } else { u64::MAX };
            let owned = rollup_varopt_fixture(seed, span);
            let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
            let decoded = decode_summary(&encode_summary(&owned)).unwrap();
            let held: Vec<u64> = owned
                .large_entries()
                .map(|(k, _)| k)
                .chain(owned.small_keys().iter().copied())
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let queries = index_probe_queries(&mut rng, &held);
            let ctx = format!("rollup varopt seed {seed}");
            assert_answers_bit_identical(decoded.as_ref(), &seg, &queries, &ctx);
            // Count queries answered from both partitions at once.
            let hits = |q: &Query, k: u64| {
                q.boxes(1)
                    .unwrap()
                    .iter()
                    .any(|axes| in_interval(axes[0], k))
            };
            both_partitions += queries
                .iter()
                .filter(|q| {
                    owned.large_entries().any(|(k, _)| hits(q, k))
                        && owned.small_keys().iter().any(|&k| hits(q, k))
                })
                .count();
        }
        assert!(
            both_partitions >= 1000,
            "only {both_partitions} queries hit both partitions"
        );
    }

    #[test]
    fn empty_segments_answer_every_query_shape_like_decoded() {
        let mut rng = StdRng::seed_from_u64(7);
        let queries = index_probe_queries(&mut rng, &[]);
        let sample = StoredSample::one_dim(sas_core::estimate::Sample::from_entries(vec![], 0.0));
        let varopt = VarOptSampler::new(8);
        for owned in [&sample as &dyn Summary, &varopt] {
            let seg = SegmentSummary::from_vec(encode_segment(owned).unwrap()).unwrap();
            assert_answers_bit_identical(owned, &seg, &queries, "empty");
        }
    }

    #[test]
    fn key_order_index_is_a_stable_sort_by_key() {
        let keys: Vec<u8> = [5u64, 1, 5, u64::MAX, 0, 1, 5]
            .iter()
            .flat_map(|k| k.to_le_bytes())
            .collect();
        let order = KeyOrder::build(&keys).unwrap();
        assert_eq!(&*order.0, &[4, 1, 5, 0, 2, 6, 3]);
        assert_eq!(order.span(&keys, (5, 5)), &[0, 2, 6]);
        assert_eq!(order.span(&keys, (2, 4)), &[] as &[u32]);
        assert_eq!(order.span(&keys, (0, u64::MAX)).len(), 7);
        assert_eq!(order.span(&keys, (u64::MAX, u64::MAX)), &[3]);
    }

    #[test]
    fn key_order_index_caps_columns_at_u32_items() {
        // `open` refuses a key column the `u32` index cannot address (a
        // 32 GiB column; the limit is checked on the item count).
        assert!(index_len(u32::MAX as usize).is_ok());
        assert!(matches!(
            index_len(u32::MAX as usize + 1),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn hydrate_reproduces_v1_bytes() {
        for seed in [3u64, 4] {
            let sample = sample_fixture(seed, seed % 2 == 0);
            let seg = SegmentSummary::from_vec(encode_segment(&sample).unwrap()).unwrap();
            assert_eq!(
                encode_summary(seg.hydrate().as_ref()),
                encode_summary(&sample)
            );
            let varopt = varopt_fixture(seed);
            let seg = SegmentSummary::from_vec(encode_segment(&varopt).unwrap()).unwrap();
            assert_eq!(
                encode_summary(seg.hydrate().as_ref()),
                encode_summary(&varopt)
            );
        }
    }

    #[test]
    fn encode_body_matches_hydrated_frame() {
        let sample = sample_fixture(9, true);
        let seg = SegmentSummary::from_vec(encode_segment(&sample).unwrap()).unwrap();
        assert_eq!(encode_summary(&seg), encode_summary(&sample));
    }

    #[test]
    fn empty_sample_segment_answers_exact_zero() {
        let owned = StoredSample::one_dim(sas_core::estimate::Sample::from_entries(vec![], 0.0));
        let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
        assert_eq!(seg.item_count(), 0);
        let e = seg.answer(&Query::Total, 0.9).unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.confidence, 1.0);
    }

    #[test]
    fn merge_requires_hydration() {
        let owned = sample_fixture(1, false);
        let mut seg: Box<dyn Summary> =
            Box::new(SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(seg
            .merge_in_place(Box::new(sample_fixture(2, false)), None, &mut rng)
            .is_err());
        // Hydrating first makes the same merge succeed.
        let hydrated = seg
            .as_any()
            .downcast_ref::<SegmentSummary>()
            .unwrap()
            .hydrate();
        let mut hydrated = hydrated;
        assert!(hydrated
            .merge_in_place(Box::new(sample_fixture(2, false)), None, &mut rng)
            .is_ok());
    }

    #[test]
    fn deterministic_kinds_have_no_segment_layout() {
        let data = {
            let rows: Vec<(u64, u64, f64)> = (0..50).map(|k| (k % 16, (k * 3) % 16, 1.0)).collect();
            sas_sampling::product::SpatialData::from_xyw(&rows)
        };
        let qd = crate::qdigest::QDigestSummary::build(&data, 4, 40);
        assert!(encode_segment(&qd).is_none());
        // And a hand-forged segment claiming a deterministic kind is
        // rejected at open.
        let bytes = SegmentBuilder::new(SummaryKind::QDigest.tag()).finish();
        assert!(SegmentSummary::from_vec(bytes).is_err());
        let bytes = SegmentBuilder::new(999).finish();
        assert!(matches!(
            SegmentSummary::from_vec(bytes).unwrap_err(),
            CodecError::UnknownKind(999)
        ));
    }

    #[test]
    fn forged_sample_segments_are_rejected() {
        let n = |b: SegmentBuilder| SegmentSummary::from_vec(b.finish());
        // dims out of range.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [3, 1.0f64.to_bits()]);
        for id in [
            COL_SAMPLE_KEYS,
            COL_SAMPLE_WEIGHTS,
            COL_SAMPLE_ADJUSTED,
            COL_SAMPLE_XS,
            COL_SAMPLE_YS,
        ] {
            b.column_u64(id, []);
        }
        assert!(n(b).is_err());
        // Negative threshold.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, (-1.0f64).to_bits()]);
        for id in [
            COL_SAMPLE_KEYS,
            COL_SAMPLE_WEIGHTS,
            COL_SAMPLE_ADJUSTED,
            COL_SAMPLE_XS,
            COL_SAMPLE_YS,
        ] {
            b.column_u64(id, []);
        }
        assert!(n(b).is_err());
        // Column counts disagree.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1, 2]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [1.0]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0, 1.0]);
        b.column_u64(COL_SAMPLE_XS, []);
        b.column_u64(COL_SAMPLE_YS, []);
        assert!(n(b).is_err());
        // NaN weight.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [f64::NAN]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0]);
        b.column_u64(COL_SAMPLE_XS, []);
        b.column_u64(COL_SAMPLE_YS, []);
        assert!(n(b).is_err());
        // Locations for a 1-D sample.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, [1]);
        b.column_f64(COL_SAMPLE_WEIGHTS, [1.0]);
        b.column_f64(COL_SAMPLE_ADJUSTED, [1.0]);
        b.column_u64(COL_SAMPLE_XS, [4]);
        b.column_u64(COL_SAMPLE_YS, [5]);
        assert!(n(b).is_err());
        // Missing column.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1, 1.0f64.to_bits()]);
        b.column_u64(COL_SAMPLE_KEYS, []);
        assert!(n(b).is_err());
        // Meta too short.
        let mut b = SegmentBuilder::new(1);
        b.column_u64(COL_SAMPLE_META, [1]);
        assert!(n(b).is_err());
    }

    #[test]
    fn forged_varopt_segments_are_rejected() {
        let meta =
            |cap: u64, tau: f64, count: u64, tw: f64| [cap, tau.to_bits(), count, tw.to_bits()];
        // Held keys beyond capacity.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(1, 1.0, 5, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [2.0, 3.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Large weight below the threshold.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 2.0, 2, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [0.5]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Heap order violated.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 1.0, 3, 30.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2, 3]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [9.0, 2.0, 3.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
        // Mismatched large columns.
        let mut b = SegmentBuilder::new(2);
        b.column_u64(COL_VAROPT_META, meta(8, 1.0, 2, 10.0));
        b.column_u64(COL_VAROPT_LARGE_KEYS, [1, 2]);
        b.column_f64(COL_VAROPT_LARGE_WEIGHTS, [2.0]);
        b.column_u64(COL_VAROPT_SMALL_KEYS, []);
        assert!(SegmentSummary::from_vec(b.finish()).is_err());
    }

    #[test]
    fn clone_is_cheap_and_shares_bytes() {
        let owned = sample_fixture(5, false);
        let seg = SegmentSummary::from_vec(encode_segment(&owned).unwrap()).unwrap();
        let clone = seg.clone_box();
        assert_eq!(clone.item_count(), seg.item_count());
        let q = Query::interval(0, 120);
        assert_eq!(
            clone.answer(&q, 0.9).unwrap().value.to_bits(),
            seg.answer(&q, 0.9).unwrap().value.to_bits()
        );
    }
}

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
//! copy of the keys — and a fence holding the key at the start of every
//! block of 16 index positions (0.5 B per item), which a range search
//! binary-searches before it reads one block of the index. The sample
//! index also keeps one sum of each whole block's items (2.5 B per item),
//! so a range folds its two edges item by item and the blocks between
//! them as sums. 2-D samples keep the column scan.
//!
//! ## Answers
//!
//! The answer kernels live in `crate::fold` and are shared with the owned
//! [`StoredSample`]: a segment hands them its little-endian column runs
//! where the owned sample hands them its vectors, so the two answer the
//! same query by running the same code. Columns hold the same words the v1
//! wire carries, so a segment answers bit for bit like the decoded v1
//! frame — pinned by the multi-seed property tests at the bottom of this
//! file, which also check both against the reference folds of
//! `crate::fold`'s tests: bit for bit against a naive replay of the block
//! decomposition, and to within float reassociation against an
//! item-by-item scan.
//! VarOpt segments answer through `crate::fold::varopt_1d`; the owned
//! [`VarOptSampler`] keeps its own scan, and both finish through the
//! sample accumulator's one Eqn. (4) finisher. The same tests pin the two
//! together and both to an independent copy of the reservoir's answer
//! formula.
//!
//! Merging is the one thing a segment cannot do in place:
//! [`SegmentSummary::hydrate`] rebuilds the owned summary (the store calls
//! it on the merge and compaction paths only).

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use rand::RngCore;

use sas_codec::segment::{Le, SegmentBuilder, SegmentView, Word};
use sas_codec::{CodecError, Writer};
use sas_core::varopt::VarOptSampler;
use sas_core::KeyId;

use crate::erased::{answer_one, SummaryError};
use crate::fold::{self, KeyOrder, SampleColumns};
use crate::query::{Estimate, Query, QueryError};
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

/// The byte range of one column run inside the segment, proven in-bounds
/// and a whole number of words at open time.
type Run = Range<usize>;

/// Column run `run` of the segment bytes `b`, as little-endian `T`s.
fn le<'a, T: Word>(b: &'a [u8], run: &Run) -> Le<'a, T> {
    Le::new(&b[run.clone()])
}

/// The validated column layout of one segment.
#[derive(Debug, Clone)]
enum Layout {
    Sample {
        dims: usize,
        tau: f64,
        total: f64,
        keys: Run,
        weights: Run,
        adjusted: Run,
        xs: Run,
        ys: Run,
        /// Key-order index over `keys`; `None` for 2-D, which scans.
        order: Option<KeyOrder>,
    },
    VarOpt {
        capacity: usize,
        tau: f64,
        count: usize,
        total_weight: f64,
        total: f64,
        large_keys: Run,
        large_weights: Run,
        small_keys: Run,
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
        let meta = view.column::<u64>(COL_SAMPLE_META)?;
        if meta.len() != 2 {
            return Err(CodecError::Invalid(format!(
                "sample meta holds {} words, expected 2",
                meta.len()
            )));
        }
        let dims = meta.at(0) as usize;
        let tau = f64::from_bits(meta.at(1));
        if dims != 1 && dims != 2 {
            return Err(CodecError::Invalid(format!("unsupported dims {dims}")));
        }
        if !(tau.is_finite() && tau >= 0.0) {
            return Err(CodecError::Invalid(format!("invalid threshold {tau}")));
        }
        let keys = view.column_range(COL_SAMPLE_KEYS)?;
        let weights = view.column_range(COL_SAMPLE_WEIGHTS)?;
        let adjusted = view.column_range(COL_SAMPLE_ADJUSTED)?;
        let xs = view.column_range(COL_SAMPLE_XS)?;
        let ys = view.column_range(COL_SAMPLE_YS)?;
        let cols = SampleColumns {
            keys: le::<u64>(b, &keys),
            weights: le::<f64>(b, &weights),
            adjusted: le::<f64>(b, &adjusted),
            xs: le::<u64>(b, &xs),
            ys: le::<u64>(b, &ys),
        };
        let n = cols.keys.len();
        if cols.weights.len() != n || cols.adjusted.len() != n {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {n} keys, {} weights, {} adjusted",
                cols.weights.len(),
                cols.adjusted.len()
            )));
        }
        let expected = if dims == 2 { n } else { 0 };
        if cols.xs.len() != expected || cols.ys.len() != expected {
            return Err(CodecError::Invalid(format!(
                "{} locations for {expected} expected",
                cols.xs.len().max(cols.ys.len())
            )));
        }
        for (w, a) in cols.weights.values().zip(cols.adjusted.values()) {
            if !(w.is_finite() && a.is_finite() && w >= 0.0 && a >= 0.0) {
                return Err(CodecError::Invalid(format!(
                    "invalid weight pair ({w}, {a})"
                )));
            }
        }
        let order = match dims {
            1 => Some(KeyOrder::build_sample(
                cols.keys,
                cols.weights,
                cols.adjusted,
            )?),
            _ => None,
        };
        // The `Total` fold's value, as `StoredSample::total_estimate`.
        let total = fold::sample_total(&cols, order.as_ref());
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
        let meta = view.column::<u64>(COL_VAROPT_META)?;
        if meta.len() != 4 {
            return Err(CodecError::Invalid(format!(
                "varopt meta holds {} words, expected 4",
                meta.len()
            )));
        }
        let capacity = meta.at(0) as usize;
        let tau = f64::from_bits(meta.at(1));
        let count = meta.at(2) as usize;
        let total_weight = f64::from_bits(meta.at(3));
        let large_keys = view.column_range(COL_VAROPT_LARGE_KEYS)?;
        let large_weights = view.column_range(COL_VAROPT_LARGE_WEIGHTS)?;
        let small_keys = view.column_range(COL_VAROPT_SMALL_KEYS)?;
        let (lk, lw, sk) = (
            le::<u64>(b, &large_keys),
            le::<f64>(b, &large_weights),
            le::<u64>(b, &small_keys),
        );
        if lw.len() != lk.len() {
            return Err(CodecError::Invalid(format!(
                "column counts disagree: {} large keys, {} large weights",
                lk.len(),
                lw.len()
            )));
        }
        // Reassembling through `from_parts` enforces every reservoir
        // invariant (heap order, weights vs threshold, counts) — and proves
        // `hydrate` cannot fail on these bytes.
        let large: Vec<(KeyId, f64)> = lk.values().zip(lw.values()).collect();
        let small: Vec<KeyId> = sk.values().collect();
        VarOptSampler::from_parts(capacity, large, small, tau, count, total_weight)
            .map_err(CodecError::Invalid)?;
        // Mirrors the erased `VarOptSampler::total_estimate` (same order).
        let large_total: f64 = lw.values().map(|w| w.max(tau)).sum();
        let total = large_total + sk.len() as f64 * tau;
        Ok(Layout::VarOpt {
            capacity,
            tau,
            count,
            total_weight,
            total,
            large_keys,
            large_weights,
            small_keys,
            large_order: KeyOrder::build(lk)?,
            small_order: KeyOrder::build(sk)?,
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
                le(b, keys).values().collect(),
                le(b, weights).values().collect(),
                le(b, adjusted).values().collect(),
                le(b, xs).values().collect(),
                le(b, ys).values().collect(),
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
                let large: Vec<(KeyId, f64)> = le(b, large_keys)
                    .values()
                    .zip(le(b, large_weights).values())
                    .collect();
                let small: Vec<KeyId> = le(b, small_keys).values().collect();
                Box::new(
                    VarOptSampler::from_parts(*capacity, large, small, *tau, *count, *total_weight)
                        .expect("invariants were validated when the segment was opened"),
                )
            }
        }
    }
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
        let words = |run: &Run| run.len() / 8;
        match &self.layout {
            Layout::Sample { keys, .. } => words(keys),
            Layout::VarOpt {
                large_keys,
                small_keys,
                ..
            } => words(large_keys) + words(small_keys),
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
        let b = self.data();
        match &self.layout {
            Layout::Sample {
                keys,
                weights,
                adjusted,
                xs,
                ys,
                order,
                ..
            } => {
                let cols = SampleColumns {
                    keys: le::<u64>(b, keys),
                    weights: le::<f64>(b, weights),
                    adjusted: le::<f64>(b, adjusted),
                    xs: le::<u64>(b, xs),
                    ys: le::<u64>(b, ys),
                };
                match order {
                    Some(order) => fold::sample_1d(&cols, order, queries, confidence),
                    None => fold::sample_2d(&cols, queries, confidence),
                }
            }
            Layout::VarOpt {
                tau,
                large_keys,
                large_weights,
                small_keys,
                large_order,
                small_order,
                ..
            } => fold::varopt_1d(
                *tau,
                (
                    le::<u64>(b, large_keys),
                    le::<f64>(b, large_weights),
                    large_order,
                ),
                (le::<u64>(b, small_keys), small_order),
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
    use crate::erased::in_interval;
    use crate::fold::tests::{assert_same_bits, assert_sample_answers};
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

    /// The reservoir answer formula, kept apart from the kernels and the
    /// accumulator: every held key tested against every box, large hits
    /// summed in item order as `max(w, τ)`, small hits counted, and the
    /// light part `small·τ` bounded by inverting Eqn. (4) at τ.
    fn reference_varopt_answer(
        v: &VarOptSampler,
        query: &Query,
        confidence: f64,
    ) -> Result<Estimate, QueryError> {
        let tau = v.tau();
        let boxes = query.boxes(1)?;
        let hit = |k: u64| boxes.iter().any(|axes| in_interval(axes[0], k));
        let mut large = 0.0;
        for (k, w) in v.large_entries() {
            if hit(k) {
                large += w.max(tau);
            }
        }
        let small = v.small_keys().iter().filter(|&&k| hit(k)).count();
        let value = large + small as f64 * tau;
        if tau <= 0.0 || small == 0 {
            return Ok(Estimate::exact(value));
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(QueryError::BadConfidence(confidence));
        }
        let light = small as f64 * tau;
        let (lo, hi) = sas_core::bounds::weight_confidence_interval(light, tau, 1.0 - confidence);
        Ok(Estimate {
            value,
            variance: small as f64 * tau * tau,
            lower: (large + lo).min(value),
            upper: (large + hi).max(value),
            confidence,
        })
    }

    /// Pins owned and mapped answers of the reservoir `v` to
    /// [`reference_varopt_answer`]: the same estimates bit for bit, or the
    /// same error.
    fn assert_varopt_reference(
        v: &VarOptSampler,
        seg: &SegmentSummary,
        queries: &[Query],
        confidence: f64,
        ctx: &str,
    ) {
        let want: Result<Vec<Estimate>, QueryError> = queries
            .iter()
            .map(|q| reference_varopt_answer(v, q, confidence))
            .collect();
        for (got, path) in [
            (v.answer_batch(queries, confidence), "owned"),
            (seg.answer_batch(queries, confidence), "mapped"),
        ] {
            let ctx = format!("{ctx}: confidence {confidence}: {path} vs reference");
            match (&got, &want) {
                (Ok(got), Ok(want)) => assert_same_bits(got, want, queries, &ctx),
                _ => assert_eq!(got, want, "{ctx}"),
            }
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
            assert_same_bits(&a, &b, queries, ctx);
            // Owned and mapped samples share their kernels, so agreeing
            // with each other proves nothing about the fold itself: pin
            // both to the independent reference folds.
            if let Some(sample) = owned.as_any().downcast_ref::<StoredSample>() {
                let ctx = format!("{ctx}: confidence {confidence}");
                assert_sample_answers(sample, &a, queries, confidence, &format!("{ctx}: owned"));
                assert_sample_answers(sample, &b, queries, confidence, &format!("{ctx}: mapped"));
            }
            // Reservoirs share the finisher with the samples too: pin them
            // to the reservoir formula.
            if let Some(v) = owned.as_any().downcast_ref::<VarOptSampler>() {
                assert_varopt_reference(v, seg, queries, confidence, ctx);
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
        // Both report the value the `Total` query answers, bit for bit.
        for (s, path) in [(owned, "owned"), (seg as &dyn Summary, "mapped")] {
            assert_eq!(
                s.total_estimate().to_bits(),
                s.answer(&Query::Total, 0.9).unwrap().value.to_bits(),
                "{ctx}: {path} total"
            );
        }
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
        // Out-of-key-order columns with duplicate keys: the fold's order
        // (key order, ties in item order, whole blocks summed apart) is
        // what the block reference replays, so any other order shows up
        // here.
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
    fn varopt_edge_answers_match_the_reference_formula() {
        let mut rng = StdRng::seed_from_u64(17);
        // Under capacity: every key is held as a large entry and τ = 0, so
        // every answer is exact, at any confidence.
        let mut under = VarOptSampler::new(64);
        for wk in weighted(20, 3) {
            under.push(wk.key, wk.weight, &mut rng);
        }
        assert_eq!(under.tau(), 0.0);
        let seg = SegmentSummary::from_vec(encode_segment(&under).unwrap()).unwrap();
        let held: Vec<u64> = under.large_entries().map(|(k, _)| k).collect();
        assert_eq!(held.len(), 20);
        let queries = index_probe_queries(&mut rng, &held);
        for confidence in [0.5, 0.9, 0.99, 1.0] {
            assert_varopt_reference(&under, &seg, &queries, confidence, "under capacity");
            let answers = seg.answer_batch(&queries, confidence).unwrap();
            assert!(answers
                .iter()
                .all(|e| e.confidence == 1.0 && e.lower == e.upper));
        }

        // A full reservoir (τ > 0), asked about boxes that hit large keys
        // only, small keys only, and both.
        let full = varopt_fixture(5);
        assert!(full.tau() > 0.0);
        let seg = SegmentSummary::from_vec(encode_segment(&full).unwrap()).unwrap();
        let large_only: Vec<Query> = full
            .large_entries()
            .map(|(k, _)| Query::Point(vec![k]))
            .collect();
        let small_hit: Vec<Query> = full
            .small_keys()
            .iter()
            .map(|&k| Query::Point(vec![k]))
            .chain([Query::Total])
            .collect();
        assert!(!large_only.is_empty() && small_hit.len() > 1);
        for confidence in [0.5, 0.9, 0.99, 1.0] {
            assert_varopt_reference(&full, &seg, &large_only, confidence, "large only");
            // No small-key hit: exact, even at confidence 1.
            for e in seg.answer_batch(&large_only, confidence).unwrap() {
                assert_eq!(e, Estimate::exact(e.value));
            }
            assert_varopt_reference(&full, &seg, &small_hit, confidence, "small hit");
        }
        // A small-key hit needs a probabilistic bound, which confidence 1
        // cannot certify.
        for s in [&full as &dyn Summary, &seg] {
            for q in &small_hit {
                assert_eq!(
                    s.answer(q, 1.0),
                    Err(QueryError::BadConfidence(1.0)),
                    "{}: {q}",
                    s.kind()
                );
            }
        }
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

//! The erased [`Summary`] trait and the [`SummaryKind`] registry: every
//! summary in this workspace — VarOpt reservoir state, finished samples,
//! q-digest, wavelet, count-sketch — behind one object-safe interface with
//! a versioned binary persistence format.
//!
//! This is what lets a summary outlive the process that built it: `sas
//! summarize --out part.sas` writes a frame (see `sas-codec` for the
//! layout), `sas merge` combines frames from different processes through
//! [`Summary::merge_in_place`], and `sas query` answers range sums from a
//! frame alone — all without a single per-kind `match` in the caller.
//!
//! ## Adding a kind
//!
//! 1. give the type `write_wire`/`read_wire` methods in its own module;
//! 2. implement [`Summary`] for it here;
//! 3. append a [`KindEntry`] to [`REGISTRY`] with a **fresh tag** (tags are
//!    part of the wire format and must never be reused or renumbered).

use std::any::Any;
use std::fmt;

use rand::RngCore;

use sas_codec::{encode_frame, open_frame, CodecError, Reader, Writer};
use sas_core::varopt::VarOptSampler;
use sas_sampling::sharded::merge_pairwise;
use sas_structures::product::BoxRange;

use crate::countsketch::SketchSummary;
use crate::fold::{self, SampleColumns};
use crate::qdigest::QDigestSummary;
use crate::query::{Estimate, Query, QueryError};
use crate::stored::StoredSample;
use crate::wavelet::WaveletSummary;

/// The registered summary kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// A finished sample with HT adjusted weights ([`StoredSample`]).
    Sample,
    /// Live VarOpt reservoir state ([`VarOptSampler`]) — resumable.
    VarOptReservoir,
    /// 2-D q-digest ([`QDigestSummary`]).
    QDigest,
    /// 2-D thresholded Haar wavelet ([`WaveletSummary`]).
    Wavelet,
    /// Dyadic count-sketch ([`SketchSummary`]).
    CountSketch,
}

impl SummaryKind {
    /// The kind's wire tag (stable; part of the format).
    pub fn tag(self) -> u16 {
        self.entry().tag
    }

    /// Short stable name (`sample`, `varopt`, `qdigest`, `wavelet`,
    /// `sketch`) — accepted by `sas summarize --kind`.
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// Looks a kind up by wire tag.
    pub fn from_tag(tag: u16) -> Option<Self> {
        REGISTRY.iter().find(|e| e.tag == tag).map(|e| e.kind)
    }

    /// Looks a kind up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        REGISTRY.iter().find(|e| e.name == name).map(|e| e.kind)
    }

    /// All registered kinds.
    pub fn all() -> impl Iterator<Item = Self> {
        REGISTRY.iter().map(|e| e.kind)
    }

    fn entry(self) -> &'static KindEntry {
        REGISTRY
            .iter()
            .find(|e| e.kind == self)
            .expect("every kind is registered")
    }
}

impl fmt::Display for SummaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from the erased summary layer.
#[derive(Debug)]
pub enum SummaryError {
    /// Decoding failed (corruption, truncation, version/kind mismatch).
    Codec(CodecError),
    /// A merge was rejected (kind, dimensionality, or geometry mismatch).
    Merge(String),
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::Codec(e) => write!(f, "{e}"),
            SummaryError::Merge(msg) => write!(f, "merge rejected: {msg}"),
        }
    }
}

impl std::error::Error for SummaryError {}

impl From<CodecError> for SummaryError {
    fn from(e: CodecError) -> Self {
        SummaryError::Codec(e)
    }
}

/// An object-safe, persistable, mergeable summary.
///
/// Implementations answer range-sum queries, expose their build metadata
/// (kind, dimensionality, size, threshold), merge type-erased peers, and
/// encode themselves onto the `sas-codec` wire format. Everything a caller
/// needs to query, merge, and persist lives behind `Box<dyn Summary>`.
/// Downcasts through [`Summary::as_any`] remain only where a caller needs
/// the concrete layout: the segment encoder, and the store telling mapped
/// [`SegmentSummary`](crate::SegmentSummary) windows from owned ones.
///
/// `Send + Sync` is part of the contract: summaries are plain data, and
/// the store serves them from shared snapshots across threads.
pub trait Summary: fmt::Debug + Send + Sync {
    /// Which registered kind this is.
    fn kind(&self) -> SummaryKind;

    /// Dimensionality of the key domain the summary answers queries over.
    fn dims(&self) -> usize;

    /// Stored elements (keys / nodes / coefficients / counters) — the
    /// paper's space axis.
    fn item_count(&self) -> usize;

    /// Estimate of the total data weight.
    fn total_estimate(&self) -> f64;

    /// The IPPS threshold, for sample-based kinds.
    fn tau(&self) -> Option<f64> {
        None
    }

    /// Answers a [`Query`] with an [`Estimate`] — a value *with an error
    /// bar*. This is the one query entry point: per kind,
    ///
    /// * stored samples / VarOpt reservoirs bound the light-key mass by
    ///   inverting the paper's Eqn. (4) tail
    ///   ([`sas_core::bounds::weight_confidence_interval`]) and report an
    ///   HT variance estimate; `confidence` must lie in `(0, 1)` whenever
    ///   a probabilistic bound is actually needed;
    /// * q-digests report deterministic containment bounds, wavelets a
    ///   deterministic truncation bound — both at `confidence = 1`,
    ///   whatever was requested;
    /// * count-sketches report a Chebyshev-style interval from the spread
    ///   of their per-row estimates.
    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError>;

    /// Answers a batch of queries, one estimate per query in order.
    ///
    /// Sample-based kinds override this to walk their items **once**,
    /// testing each item against every query, instead of once per query.
    /// `sas query --queries` and the benches call it; the store answers
    /// one query at a time through [`Summary::answer`].
    fn answer_batch(
        &self,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        queries.iter().map(|q| self.answer(q, confidence)).collect()
    }

    /// Merges a type-erased summary of *disjoint* data into `self`.
    ///
    /// `budget` bounds the merged size where the kind supports it (finished
    /// samples re-subsample down to it; reservoirs already carry their
    /// capacity; deterministic summaries merge by addition and ignore it).
    /// Randomized merges draw from `rng`; deterministic ones ignore it.
    /// Fails — without mutating `self` — on kind, dimensionality, or
    /// geometry mismatch.
    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        budget: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError>;

    /// Writes the kind-specific frame body (sections only; the envelope is
    /// added by [`encode_summary`]).
    fn encode_body(&self, w: &mut Writer);

    /// Deep copy behind the erased interface — what lets a concurrent
    /// catalog hand out immutable snapshots while a writer merges into a
    /// private copy (`Box<dyn Summary>` implements [`Clone`] through this).
    fn clone_box(&self) -> Box<dyn Summary>;

    /// Upcast for inspection.
    fn as_any(&self) -> &dyn Any;

    /// Upcast for consuming downcasts (used by merge implementations).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl Clone for Box<dyn Summary> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One registry row: the kind, its stable wire tag and name, and the
/// decoder producing the erased summary from a frame body.
pub struct KindEntry {
    /// The kind.
    pub kind: SummaryKind,
    /// Stable wire tag.
    pub tag: u16,
    /// Stable CLI name.
    pub name: &'static str,
    /// Body decoder.
    pub decode: for<'a> fn(&mut Reader<'a>) -> Result<Box<dyn Summary>, CodecError>,
}

/// The kind registry: the single place associating tags, names, and
/// decoders. Order is cosmetic; tags are forever.
pub static REGISTRY: &[KindEntry] = &[
    KindEntry {
        kind: SummaryKind::Sample,
        tag: 1,
        name: "sample",
        decode: |r| Ok(Box::new(StoredSample::read_wire(r)?)),
    },
    KindEntry {
        kind: SummaryKind::VarOptReservoir,
        tag: 2,
        name: "varopt",
        decode: |r| Ok(Box::new(decode_varopt(r)?)),
    },
    KindEntry {
        kind: SummaryKind::QDigest,
        tag: 3,
        name: "qdigest",
        decode: |r| Ok(Box::new(QDigestSummary::read_wire(r)?)),
    },
    KindEntry {
        kind: SummaryKind::Wavelet,
        tag: 4,
        name: "wavelet",
        decode: |r| Ok(Box::new(WaveletSummary::read_wire(r)?)),
    },
    KindEntry {
        kind: SummaryKind::CountSketch,
        tag: 5,
        name: "sketch",
        decode: |r| Ok(Box::new(SketchSummary::read_wire(r)?)),
    },
];

/// Encodes any summary into a self-describing binary frame.
pub fn encode_summary(s: &dyn Summary) -> Vec<u8> {
    encode_frame(s.kind().tag(), |w| s.encode_body(w))
}

/// Decodes a binary frame into the summary it holds, dispatching through
/// the registry. Never panics on corrupted input.
pub fn decode_summary(bytes: &[u8]) -> Result<Box<dyn Summary>, CodecError> {
    let mut frame = open_frame(bytes)?;
    let entry = REGISTRY
        .iter()
        .find(|e| e.tag == frame.kind)
        .ok_or(CodecError::UnknownKind(frame.kind))?;
    let summary = (entry.decode)(&mut frame.body)?;
    frame.body.finish()?;
    Ok(summary)
}

/// Merges summaries of *disjoint* data bottom-up in a binary tree, in the
/// one merge order of [`merge_pairwise`]: adjacent pairs merge level by
/// level, so `N` inputs pay `O(log₂ N)` merge levels (for budgeted samples
/// each level adds less than 2 to any interval's discrepancy — a
/// left-to-right fold would pay one level per input). `sas merge`, sharded
/// summarization, and the store's window compaction all merge in this
/// order: given the same inputs, budget, and RNG stream, the result is
/// bit-identical wherever it runs.
pub fn merge_tree(
    summaries: Vec<Box<dyn Summary>>,
    budget: Option<usize>,
    rng: &mut dyn RngCore,
) -> Result<Box<dyn Summary>, SummaryError> {
    merge_pairwise(summaries, |mut a, b| {
        a.merge_in_place(b, budget, rng)?;
        Ok::<_, SummaryError>(a)
    })?
    .ok_or_else(|| SummaryError::Merge("nothing to merge".into()))
}

/// Consuming downcast with a kind-aware error.
fn downcast<T: Any>(other: Box<dyn Summary>, into: SummaryKind) -> Result<Box<T>, SummaryError> {
    let found = other.kind();
    other.into_any().downcast::<T>().map_err(|_| {
        SummaryError::Merge(format!(
            "cannot merge a {found} summary into a {into} summary"
        ))
    })
}

/// One answer through the (overridden) batch path.
pub(crate) fn answer_one(
    s: &(impl Summary + ?Sized),
    query: &Query,
    confidence: f64,
) -> Result<Estimate, QueryError> {
    Ok(s.answer_batch(std::slice::from_ref(query), confidence)?
        .pop()
        .expect("one estimate per query"))
}

pub(crate) fn in_interval((lo, hi): (u64, u64), v: u64) -> bool {
    (lo..=hi).contains(&v)
}

/// The deterministic kinds' shared answer shape: per-box values and bounds
/// add over a disjoint union.
fn deterministic_estimate(value: f64, lower: f64, upper: f64) -> Estimate {
    Estimate {
        value,
        variance: 0.0,
        // Float dust between the value and bound accumulations must never
        // push the value outside its own interval.
        lower: lower.min(value),
        upper: upper.max(value),
        confidence: 1.0,
    }
}

// --- Sample ----------------------------------------------------------------

impl Summary for StoredSample {
    fn kind(&self) -> SummaryKind {
        SummaryKind::Sample
    }

    fn dims(&self) -> usize {
        StoredSample::dims(self)
    }

    fn item_count(&self) -> usize {
        self.len()
    }

    fn total_estimate(&self) -> f64 {
        StoredSample::total_estimate(self)
    }

    fn tau(&self) -> Option<f64> {
        Some(StoredSample::tau(self))
    }

    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError> {
        answer_one(self, query, confidence)
    }

    fn answer_batch(
        &self,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let cols = SampleColumns {
            keys: self.keys(),
            weights: self.weights(),
            adjusted: self.adjusted_weights(),
            xs: self.xs(),
            ys: self.ys(),
        };
        match StoredSample::dims(self) {
            1 => fold::sample_1d(&cols, self.key_order(), queries, confidence),
            _ => fold::sample_2d(&cols, queries, confidence),
        }
    }

    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        budget: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        let other = downcast::<StoredSample>(other, SummaryKind::Sample)?;
        self.merge(*other, budget, rng).map_err(SummaryError::Merge)
    }

    fn encode_body(&self, w: &mut Writer) {
        self.write_wire(w);
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

// --- VarOpt reservoir ------------------------------------------------------

fn decode_varopt(r: &mut Reader<'_>) -> Result<VarOptSampler, CodecError> {
    let mut meta = r.expect_section(1)?;
    let s = meta.get_u64()? as usize;
    let tau = meta.get_f64()?;
    let count = meta.get_u64()? as usize;
    let total_weight = meta.get_f64()?;
    meta.finish()?;
    let mut large_sec = r.expect_section(2)?;
    let n_large = large_sec.get_len(16)?; // u64 + f64 per entry
    let mut large = Vec::with_capacity(n_large);
    for _ in 0..n_large {
        let key = large_sec.get_u64()?;
        let weight = large_sec.get_f64()?;
        large.push((key, weight));
    }
    large_sec.finish()?;
    let mut small_sec = r.expect_section(3)?;
    let n_small = small_sec.get_len(8)?;
    let mut small = Vec::with_capacity(n_small);
    for _ in 0..n_small {
        small.push(small_sec.get_u64()?);
    }
    small_sec.finish()?;
    VarOptSampler::from_parts(s, large, small, tau, count, total_weight)
        .map_err(CodecError::Invalid)
}

impl Summary for VarOptSampler {
    fn kind(&self) -> SummaryKind {
        SummaryKind::VarOptReservoir
    }

    fn dims(&self) -> usize {
        1
    }

    fn item_count(&self) -> usize {
        self.held()
    }

    fn total_estimate(&self) -> f64 {
        VarOptSampler::total_estimate(self)
    }

    fn tau(&self) -> Option<f64> {
        Some(self.tau())
    }

    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError> {
        answer_one(self, query, confidence)
    }

    fn answer_batch(
        &self,
        queries: &[Query],
        confidence: f64,
    ) -> Result<Vec<Estimate>, QueryError> {
        let [large, small] = self.key_indexes();
        let small_keys = self.small_keys();
        fold::varopt_1d(
            self.tau(),
            (|i| self.large_entry(i).0, |i| self.large_entry(i).1, large),
            (|i| small_keys[i], small),
            queries,
            confidence,
        )
    }

    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        _budget: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        // The reservoir's own capacity *is* the budget: the threshold merge
        // re-subsamples the union down to it.
        let other = downcast::<VarOptSampler>(other, SummaryKind::VarOptReservoir)?;
        self.merge(*other, rng);
        Ok(())
    }

    fn encode_body(&self, w: &mut Writer) {
        w.section(1, |w| {
            w.put_u64(self.capacity() as u64);
            w.put_f64(self.tau());
            w.put_u64(self.count() as u64);
            w.put_f64(self.total_weight());
        });
        w.section(2, |w| {
            w.put_u64(self.large_entries().count() as u64);
            for (key, weight) in self.large_entries() {
                w.put_u64(key);
                w.put_f64(weight);
            }
        });
        w.section(3, |w| {
            w.put_u64(self.small_keys().len() as u64);
            for &key in self.small_keys() {
                w.put_u64(key);
            }
        });
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

// --- Q-digest --------------------------------------------------------------

impl Summary for QDigestSummary {
    fn kind(&self) -> SummaryKind {
        SummaryKind::QDigest
    }

    fn dims(&self) -> usize {
        2
    }

    fn item_count(&self) -> usize {
        self.size_elements()
    }

    fn total_estimate(&self) -> f64 {
        self.stored_total()
    }

    fn answer(&self, query: &Query, _confidence: f64) -> Result<Estimate, QueryError> {
        // Deterministic containment bounds: every cell's data lies inside
        // the cell, so fully-covered cells are a floor and intersecting
        // cells a ceiling on the exact answer. Reported at confidence 1.
        let mut value = 0.0;
        let (mut lower, mut upper) = (0.0, 0.0);
        for axes in query.boxes(2)? {
            let b = box_from(&axes);
            value += self.estimate_box(&b);
            let (lo, hi) = self.bound_box(&b);
            lower += lo;
            upper += hi;
        }
        Ok(deterministic_estimate(value, lower, upper))
    }

    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        _budget: Option<usize>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        // Deterministic node addition; the budget does not apply (rebuild
        // from data to recompress).
        let other = downcast::<QDigestSummary>(other, SummaryKind::QDigest)?;
        self.merge(*other);
        Ok(())
    }

    fn encode_body(&self, w: &mut Writer) {
        self.write_wire(w);
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

// --- Wavelet ---------------------------------------------------------------

impl Summary for WaveletSummary {
    fn kind(&self) -> SummaryKind {
        SummaryKind::Wavelet
    }

    fn dims(&self) -> usize {
        2
    }

    fn item_count(&self) -> usize {
        self.size_elements()
    }

    fn total_estimate(&self) -> f64 {
        self.estimate_box(&box_from(&[]))
    }

    fn answer(&self, query: &Query, _confidence: f64) -> Result<Estimate, QueryError> {
        // Deterministic truncation bound (see `WaveletSummary::bound_box`):
        // dropped coefficients contribute at most the tracked ceiling each,
        // over the O(log²) basis pairs relevant to the box, plus the merge
        // slack of retained ones. Reported at confidence 1.
        let mut value = 0.0;
        let mut err = 0.0;
        for axes in query.boxes(2)? {
            let b = box_from(&axes);
            value += self.estimate_box(&b);
            err += self.bound_box(&b);
        }
        Ok(deterministic_estimate(value, value - err, value + err))
    }

    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        _budget: Option<usize>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        let other = downcast::<WaveletSummary>(other, SummaryKind::Wavelet)?;
        self.try_merge(*other).map_err(SummaryError::Merge)
    }

    fn encode_body(&self, w: &mut Writer) {
        self.write_wire(w);
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

// --- Count-sketch ----------------------------------------------------------

impl Summary for SketchSummary {
    fn kind(&self) -> SummaryKind {
        SummaryKind::CountSketch
    }

    fn dims(&self) -> usize {
        2
    }

    fn item_count(&self) -> usize {
        self.size_elements()
    }

    fn total_estimate(&self) -> f64 {
        self.estimate_box(&box_from(&[]))
    }

    fn answer(&self, query: &Query, confidence: f64) -> Result<Estimate, QueryError> {
        // Sketch confidence comes from the rows: the per-rectangle spread
        // of the independent row estimates is the variance proxy, turned
        // into a Chebyshev-style interval `value ± √(σ²/δ)`. Heuristic —
        // the rows share counters across rectangles — but it tracks the
        // sketch's actual noise level where deterministic bounds have
        // nothing to say.
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(QueryError::BadConfidence(confidence));
        }
        let mut value = 0.0;
        let mut variance = 0.0;
        for axes in query.boxes(2)? {
            let (v, var) = self.estimate_box_stats(&box_from(&axes));
            value += v;
            variance += var;
        }
        let dev = (variance / (1.0 - confidence)).sqrt();
        Ok(Estimate {
            value,
            variance,
            lower: value - dev,
            upper: value + dev,
            confidence,
        })
    }

    fn merge_in_place(
        &mut self,
        other: Box<dyn Summary>,
        _budget: Option<usize>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SummaryError> {
        let other = downcast::<SketchSummary>(other, SummaryKind::CountSketch)?;
        self.try_merge(*other).map_err(SummaryError::Merge)
    }

    fn encode_body(&self, w: &mut Writer) {
        self.write_wire(w);
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

/// Builds a 2-D box from axis ranges; missing axes span the full domain
/// (the estimators clamp to their own domain bits).
fn box_from(range: &[(u64, u64)]) -> BoxRange {
    let axis = |i: usize| range.get(i).copied().unwrap_or((0, u64::MAX));
    let (x0, x1) = axis(0);
    let (y0, y1) = axis(1);
    BoxRange::xy(x0, x1, y0, y1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sas_core::WeightedKey;
    use sas_sampling::product::SpatialData;

    fn spatial(n: usize, bits: u32, seed: u64) -> SpatialData {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 1u64 << bits;
        let rows: Vec<(u64, u64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..side),
                    rng.gen_range(0..side),
                    rng.gen_range(0.5..5.0),
                )
            })
            .collect();
        SpatialData::from_xyw(&rows)
    }

    fn keys(n: u64, seed: u64) -> Vec<WeightedKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| WeightedKey::new(k, rng.gen_range(0.1..20.0)))
            .collect()
    }

    /// Builds one fixture per registered kind (used by the sweeps below).
    fn fixtures() -> Vec<Box<dyn Summary>> {
        let data1 = keys(300, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = sas_sampling::order::sample(&data1, 40, &mut rng);
        let stored = StoredSample::one_dim(sample);

        let mut varopt = VarOptSampler::new(25);
        for wk in &data1 {
            varopt.push(wk.key, wk.weight, &mut rng);
        }

        let data2 = spatial(200, 6, 3);
        let qdigest = QDigestSummary::build(&data2, 6, 50);
        let wavelet = WaveletSummary::build(&data2, 6, 6, 60);
        let sketch = SketchSummary::build(&data2, 6, 6, 800, 7);

        vec![
            Box::new(stored),
            Box::new(varopt),
            Box::new(qdigest),
            Box::new(wavelet),
            Box::new(sketch),
        ]
    }

    /// The point estimate of a box query. The probes mix 1-D and 2-D
    /// boxes, so axes beyond the summary's dimensionality are dropped.
    fn box_value(s: &dyn Summary, range: &[(u64, u64)]) -> f64 {
        let range = &range[..range.len().min(s.dims())];
        s.answer(&Query::BoxRange(range.to_vec()), 0.95)
            .unwrap_or_else(|e| panic!("{}: {range:?}: {e}", s.kind()))
            .value
    }

    fn probe_ranges() -> Vec<Vec<(u64, u64)>> {
        vec![
            vec![(0, u64::MAX), (0, u64::MAX)],
            vec![(0, 31), (0, 31)],
            vec![(10, 50), (5, 60)],
            vec![(100, 250)],
        ]
    }

    #[test]
    fn registry_is_consistent() {
        // Tags and names are unique; lookups invert each other.
        let mut tags = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(tags.insert(e.tag), "duplicate tag {}", e.tag);
            assert!(names.insert(e.name), "duplicate name {}", e.name);
            assert_eq!(SummaryKind::from_tag(e.tag), Some(e.kind));
            assert_eq!(SummaryKind::from_name(e.name), Some(e.kind));
            assert_eq!(e.kind.tag(), e.tag);
            assert_eq!(e.kind.name(), e.name);
        }
        assert_eq!(SummaryKind::all().count(), 5);
        assert_eq!(SummaryKind::from_tag(999), None);
        assert_eq!(SummaryKind::from_name("bogus"), None);
    }

    #[test]
    fn every_kind_roundtrips_bit_exactly() {
        for original in fixtures() {
            let bytes = encode_summary(original.as_ref());
            let decoded = decode_summary(&bytes)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", original.kind()));
            assert_eq!(decoded.kind(), original.kind());
            assert_eq!(decoded.dims(), original.dims());
            assert_eq!(decoded.item_count(), original.item_count());
            assert_eq!(decoded.tau(), original.tau());
            for range in probe_ranges() {
                let a = box_value(original.as_ref(), &range);
                let b = box_value(decoded.as_ref(), &range);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: range {range:?}: {a} vs {b}",
                    original.kind()
                );
            }
            // Re-encoding the decoded summary reproduces the same bytes.
            assert_eq!(
                bytes,
                encode_summary(decoded.as_ref()),
                "{}",
                original.kind()
            );
        }
    }

    #[test]
    fn cross_kind_merges_are_rejected() {
        let all = fixtures();
        for (i, a) in fixtures().into_iter().enumerate() {
            let mut a = a;
            for (j, b) in all.iter().enumerate() {
                if i == j {
                    continue;
                }
                let b = decode_summary(&encode_summary(b.as_ref())).unwrap();
                let mut rng = StdRng::seed_from_u64(1);
                assert!(
                    a.merge_in_place(b, None, &mut rng).is_err(),
                    "merging kind {j} into kind {i} must fail"
                );
            }
        }
    }

    #[test]
    fn varopt_reservoir_resumes_after_decode() {
        // The round-tripped reservoir is live state: pushing the same
        // suffix with the same RNG stream matches the original exactly.
        let data = keys(600, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut original = VarOptSampler::new(30);
        for wk in &data[..400] {
            original.push(wk.key, wk.weight, &mut rng);
        }
        let bytes = encode_summary(&original);
        let decoded = decode_summary(&bytes).unwrap();
        let mut restored = *decoded.into_any().downcast::<VarOptSampler>().unwrap();
        let (mut r1, mut r2) = (StdRng::seed_from_u64(99), StdRng::seed_from_u64(99));
        for wk in &data[400..] {
            original.push(wk.key, wk.weight, &mut r1);
            restored.push(wk.key, wk.weight, &mut r2);
        }
        let (a, b) = (original.finish(), restored.finish());
        assert_eq!(a.tau().to_bits(), b.tau().to_bits());
        let ka: Vec<_> = a.keys().collect();
        let kb: Vec<_> = b.keys().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn geometry_mismatches_fail_cleanly() {
        let d = spatial(50, 5, 21);
        let mut rng = StdRng::seed_from_u64(22);
        // Sketch: different build seeds → different hash seeds.
        let mut a: Box<dyn Summary> = Box::new(SketchSummary::build(&d, 5, 5, 400, 1));
        let b: Box<dyn Summary> = Box::new(SketchSummary::build(&d, 5, 5, 400, 2));
        assert!(a.merge_in_place(b, None, &mut rng).is_err());
        // Wavelet: different domain bits.
        let mut wa: Box<dyn Summary> = Box::new(WaveletSummary::build(&d, 5, 5, 40));
        let wb: Box<dyn Summary> = Box::new(WaveletSummary::build(&d, 6, 6, 40));
        assert!(wa.merge_in_place(wb, None, &mut rng).is_err());
    }

    #[test]
    fn erased_merge_matches_concrete_merge() {
        // Wavelet: erased merge must equal the concrete coefficient merge.
        let all = spatial(300, 6, 31);
        let rows: Vec<(u64, u64, f64)> = all
            .keys
            .iter()
            .zip(&all.points)
            .map(|(wk, p)| (p.coord(0), p.coord(1), wk.weight))
            .collect();
        let (first, second) = rows.split_at(150);
        let build = |rows: &[(u64, u64, f64)]| {
            WaveletSummary::build(&SpatialData::from_xyw(rows), 6, 6, 5000)
        };
        let mut concrete = build(first);
        concrete.try_merge(build(second)).unwrap();
        let mut erased: Box<dyn Summary> = Box::new(build(first));
        let mut rng = StdRng::seed_from_u64(1);
        erased
            .merge_in_place(Box::new(build(second)), None, &mut rng)
            .unwrap();
        for range in probe_ranges() {
            assert_eq!(
                box_value(&concrete, &range).to_bits(),
                box_value(erased.as_ref(), &range).to_bits()
            );
        }
    }

    #[test]
    fn clone_box_is_a_deep_independent_copy() {
        for original in fixtures() {
            let clone = original.clone_box();
            assert_eq!(clone.kind(), original.kind());
            // Byte-identical encodings…
            assert_eq!(
                encode_summary(original.as_ref()),
                encode_summary(clone.as_ref()),
                "{}",
                original.kind()
            );
            // …and mutating the clone (merge into itself) never disturbs
            // the original's encoding.
            let mut clone = clone;
            let peer = decode_summary(&encode_summary(original.as_ref())).unwrap();
            let before = encode_summary(original.as_ref());
            let mut rng = StdRng::seed_from_u64(7);
            clone
                .merge_in_place(peer, None, &mut rng)
                .unwrap_or_else(|e| panic!("{}: self-merge failed: {e}", original.kind()));
            assert_eq!(before, encode_summary(original.as_ref()));
        }
    }

    #[test]
    fn merge_tree_matches_cli_merge_order() {
        // Four disjoint parts, merged as a tree, equal the explicit
        // ((a+b)+(c+d)) pairing bit-for-bit.
        let parts: Vec<Vec<WeightedKey>> = (0..4u64)
            .map(|p| {
                keys(50, p + 40)
                    .iter()
                    .map(|wk| WeightedKey::new(wk.key + p * 1000, wk.weight))
                    .collect()
            })
            .collect();
        let build = |rows: &Vec<WeightedKey>, seed| -> Box<dyn Summary> {
            let mut rng = StdRng::seed_from_u64(seed);
            Box::new(StoredSample::one_dim(sas_sampling::order::sample(
                rows, 20, &mut rng,
            )))
        };
        let summaries: Vec<Box<dyn Summary>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| build(p, i as u64))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let tree = merge_tree(summaries, Some(30), &mut rng).unwrap();

        let mut rng = StdRng::seed_from_u64(9);
        let mut ab = build(&parts[0], 0);
        ab.merge_in_place(build(&parts[1], 1), Some(30), &mut rng)
            .unwrap();
        let mut cd = build(&parts[2], 2);
        cd.merge_in_place(build(&parts[3], 3), Some(30), &mut rng)
            .unwrap();
        ab.merge_in_place(cd, Some(30), &mut rng).unwrap();
        assert_eq!(encode_summary(tree.as_ref()), encode_summary(ab.as_ref()));
        // Empty input is an error, single input is the identity.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(merge_tree(vec![], None, &mut rng).is_err());
        let one = merge_tree(vec![build(&parts[0], 0)], None, &mut rng).unwrap();
        assert_eq!(
            encode_summary(one.as_ref()),
            encode_summary(build(&parts[0], 0).as_ref())
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = sas_codec::encode_frame(999, |w| w.put_u64(0));
        assert!(matches!(
            decode_summary(&bytes),
            Err(CodecError::UnknownKind(999))
        ));
    }

    #[test]
    fn every_kind_answers_with_bounds_containing_the_value() {
        for s in fixtures() {
            for range in probe_ranges() {
                let range = &range[..range.len().min(s.dims())];
                let q = Query::BoxRange(range.to_vec());
                let e = s
                    .answer(&q, 0.9)
                    .unwrap_or_else(|err| panic!("{}: {q}: {err}", s.kind()));
                // The value does not depend on the requested confidence,
                // and sits inside its own interval.
                assert_eq!(
                    e.value.to_bits(),
                    box_value(s.as_ref(), range).to_bits(),
                    "{}: {q}",
                    s.kind()
                );
                assert!(
                    e.lower <= e.value && e.value <= e.upper,
                    "{}: {q}: {e:?}",
                    s.kind()
                );
                assert!(e.variance >= 0.0, "{}: {q}", s.kind());
                assert!(
                    (0.0..=1.0).contains(&e.confidence),
                    "{}: {q}: {e:?}",
                    s.kind()
                );
            }
        }
    }

    #[test]
    fn every_kind_answers_every_query_shape() {
        for s in fixtures() {
            let queries = if s.dims() == 1 {
                vec![
                    Query::Total,
                    Query::Point(vec![5]),
                    Query::HierarchyNode { level: 6, index: 1 },
                    Query::MultiRange(vec![vec![(0, 49)], vec![(100, 199)]]),
                ]
            } else {
                vec![
                    Query::Total,
                    Query::Point(vec![5, 9]),
                    Query::HierarchyNode { level: 4, index: 1 },
                    Query::MultiRange(vec![vec![(0, 15), (0, 63)], vec![(16, 31), (0, 63)]]),
                ]
            };
            for q in queries {
                let e = s
                    .answer(&q, 0.9)
                    .unwrap_or_else(|err| panic!("{}: {q}: {err}", s.kind()));
                assert!(
                    e.lower <= e.value && e.value <= e.upper,
                    "{}: {q}: {e:?}",
                    s.kind()
                );
            }
            // Too many axes for the summary's dimensionality is an error.
            let overdim = Query::BoxRange(vec![(0, 1); s.dims() + 1]);
            assert!(s.answer(&overdim, 0.9).is_err(), "{}", s.kind());
        }
    }

    #[test]
    fn batch_answers_match_individual_answers_bitwise() {
        let queries = vec![
            Query::interval(0, 99),
            Query::Total,
            Query::MultiRange(vec![vec![(0, 9)], vec![(50, 149)]]),
            Query::Point(vec![7]),
        ];
        for s in fixtures().into_iter().filter(|s| s.dims() == 1) {
            let batch = s.answer_batch(&queries, 0.95).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                let single = s.answer(q, 0.95).unwrap();
                assert_eq!(
                    single.value.to_bits(),
                    b.value.to_bits(),
                    "{}: {q}",
                    s.kind()
                );
                assert_eq!(
                    single.lower.to_bits(),
                    b.lower.to_bits(),
                    "{}: {q}",
                    s.kind()
                );
                assert_eq!(
                    single.upper.to_bits(),
                    b.upper.to_bits(),
                    "{}: {q}",
                    s.kind()
                );
            }
        }
    }

    #[test]
    fn multirange_answer_adds_disjoint_boxes() {
        for s in fixtures() {
            let (a, b) = if s.dims() == 1 {
                (vec![(0u64, 99u64)], vec![(200u64, 299u64)])
            } else {
                (vec![(0, 31), (0, 31)], vec![(32, 63), (0, 31)])
            };
            let ea = s.answer(&Query::BoxRange(a.clone()), 0.9).unwrap();
            let eb = s.answer(&Query::BoxRange(b.clone()), 0.9).unwrap();
            let both = s.answer(&Query::MultiRange(vec![a, b]), 0.9).unwrap();
            assert!(
                (both.value - (ea.value + eb.value)).abs() <= 1e-9 * (1.0 + both.value.abs()),
                "{}: {} vs {} + {}",
                s.kind(),
                both.value,
                ea.value,
                eb.value
            );
        }
    }

    #[test]
    fn sample_confidence_tightens_with_delta() {
        // Wider confidence → wider interval, for a sample with light keys.
        let data = keys(400, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let sample = sas_sampling::order::sample(&data, 50, &mut rng);
        let s: Box<dyn Summary> = Box::new(StoredSample::one_dim(sample));
        let q = Query::interval(0, 199);
        let loose = s.answer(&q, 0.5).unwrap();
        let tight = s.answer(&q, 0.99).unwrap();
        assert!(loose.upper - loose.lower <= tight.upper - tight.lower);
        // A probabilistic bound at confidence 1 is rejected.
        assert!(matches!(
            s.answer(&q, 1.0),
            Err(QueryError::BadConfidence(_))
        ));
        // Malformed queries are rejected, not mis-answered.
        assert!(s.answer(&Query::BoxRange(vec![(9, 3)]), 0.9).is_err());
    }
}

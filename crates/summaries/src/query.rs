//! The unified query/estimation API: every question asked of a summary —
//! offline `sas query`, the store daemon, the facade — is a [`Query`], and
//! every answer is an [`Estimate`]: a value *with an error bar*.
//!
//! The paper's central claim is not point estimates but accuracy: VarOpt
//! samples answer subset-sum queries with Chernoff-bounded deviation
//! (Eqns. 2–4), q-digests and wavelets carry deterministic truncation
//! error, sketches report the spread of their row medians. This module is
//! where those per-kind bound derivations meet one answer type.
//!
//! ## Query kinds
//!
//! * [`Query::BoxRange`] — weight inside one axis-aligned box.
//! * [`Query::MultiRange`] — weight of a disjoint union of boxes.
//! * [`Query::Point`] — weight at a single key / location.
//! * [`Query::HierarchyNode`] — weight under a dyadic hierarchy node
//!   (level, index) on axis 0 — the paper's hierarchy-range primitive.
//! * [`Query::Total`] — total data weight.
//!
//! [`Query::canonical`] folds equivalent spellings onto one form (a point
//! is a degenerate box, a full-domain box is `Total`, multi-range boxes
//! sort canonically) so the store's query cache and the wire encoding are
//! stable under re-phrasing.
//!
//! ## Wire form
//!
//! Queries and estimates travel as `sas-codec` frames
//! ([`sas_codec::proto::TAG_QUERY`] / [`TAG_ESTIMATE`](sas_codec::proto::TAG_ESTIMATE)):
//! the store protocol embeds the same body layout in its
//! `REQ_ESTIMATE` messages, and `tests/golden/` pins both encodings.

use std::borrow::Cow;
use std::fmt;

use sas_codec::{encode_frame, open_frame, proto, CodecError, Reader, Writer};
use sas_structures::product::MultiRangeQuery;

/// Hard cap on boxes in one multi-range query (protocol sanity bound).
pub const MAX_QUERY_BOXES: usize = 4096;

/// Hard cap on query axes (the summaries in this workspace are 1-D/2-D;
/// the format leaves room).
pub const MAX_QUERY_AXES: usize = 8;

/// One question asked of a summary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Weight inside an axis-aligned box: `axes[i]` is the closed interval
    /// on axis `i`; missing axes span the full domain.
    BoxRange(Vec<(u64, u64)>),
    /// Weight of a *disjoint* union of boxes (validated on
    /// [`Query::canonical`]).
    MultiRange(Vec<Vec<(u64, u64)>>),
    /// Weight at a single key (1-D) or location (2-D): one coordinate per
    /// axis.
    Point(Vec<u64>),
    /// Weight under the dyadic hierarchy node `(level, index)` on axis 0:
    /// keys in `[index·2^level, (index+1)·2^level − 1]`, full domain on
    /// any remaining axes.
    HierarchyNode {
        /// Node level (side `2^level`).
        level: u32,
        /// Node index at that level.
        index: u64,
    },
    /// Total data weight.
    Total,
}

/// An answer with an error bar.
///
/// `value` is the summary's estimate; `[lower, upper]` contains the exact
/// answer with probability at least `confidence` (exactly, for the
/// deterministic kinds, which report `confidence = 1`); `variance` is the
/// kind's variance estimate (0 for deterministic kinds, an HT-style
/// estimate of `Σ Var[a(i)]` for sample kinds, the row-spread proxy for
/// sketches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// Variance estimate of the point estimate (0 when deterministic).
    pub variance: f64,
    /// Lower end of the confidence interval.
    pub lower: f64,
    /// Upper end of the confidence interval.
    pub upper: f64,
    /// Probability that `[lower, upper]` contains the exact answer.
    pub confidence: f64,
}

impl Estimate {
    /// An exact answer: zero variance, degenerate interval, certainty.
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            variance: 0.0,
            lower: value,
            upper: value,
            confidence: 1.0,
        }
    }

    /// Half-width of the confidence interval (the `±` the CLI prints).
    pub fn half_width(&self) -> f64 {
        ((self.upper - self.lower) / 2.0).max(0.0)
    }

    /// Adds another estimate of *disjoint* data: values, variances, and
    /// interval ends add (interval sums are valid per-window; the caller
    /// is responsible for splitting the failure probability across
    /// summands — see the store's union-bound query path).
    pub fn merge_disjoint(&mut self, other: &Estimate) {
        self.value += other.value;
        self.variance += other.variance;
        self.lower += other.lower;
        self.upper += other.upper;
        self.confidence = self.confidence.min(other.confidence);
    }
}

/// Everything that can go wrong answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query itself is malformed (reversed bounds, overlapping
    /// multi-range boxes, axis count beyond the summary's dimensionality…).
    BadQuery(String),
    /// The requested confidence is outside what the kind can certify.
    BadConfidence(f64),
    /// Wire decoding failed.
    Codec(CodecError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            QueryError::BadConfidence(c) => {
                write!(f, "confidence {c} outside (0, 1)")
            }
            QueryError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CodecError> for QueryError {
    fn from(e: CodecError) -> Self {
        QueryError::Codec(e)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError::BadQuery(msg.into()))
}

/// The full-domain interval.
const FULL: (u64, u64) = (0, u64::MAX);

fn axes_valid(axes: &[(u64, u64)]) -> Result<(), QueryError> {
    if axes.len() > MAX_QUERY_AXES {
        return bad(format!(
            "{} axes exceed the cap {MAX_QUERY_AXES}",
            axes.len()
        ));
    }
    for &(lo, hi) in axes {
        if lo > hi {
            return bad(format!("reversed range {lo}..{hi} (lo > hi)"));
        }
    }
    Ok(())
}

/// Closed intervals `[a_lo, a_hi]` and `[b_lo, b_hi]` overlap on every axis
/// (missing axes are full-domain and always overlap).
fn boxes_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    let axes = a.len().max(b.len());
    (0..axes).all(|i| {
        let (alo, ahi) = a.get(i).copied().unwrap_or(FULL);
        let (blo, bhi) = b.get(i).copied().unwrap_or(FULL);
        alo.max(blo) <= ahi.min(bhi)
    })
}

/// A multi-range query of the experiment harness, box for box in
/// battery order (a one-box query folds onto that box on
/// [`Query::canonical`]).
impl From<&MultiRangeQuery> for Query {
    fn from(query: &MultiRangeQuery) -> Self {
        Query::MultiRange(
            query
                .boxes
                .iter()
                .map(|b| b.sides.iter().map(|iv| (iv.lo, iv.hi)).collect())
                .collect(),
        )
    }
}

/// The canonical form of a query ([`Query::canonical`]), its boxes
/// borrowed from the query where it spells them out.
enum Canonical<'a> {
    Total,
    BoxRange(Cow<'a, [(u64, u64)]>),
    /// Two or more disjoint boxes, sorted.
    MultiRange(Vec<&'a [(u64, u64)]>),
}

fn put_axes(w: &mut Writer, axes: &[(u64, u64)]) {
    w.put_u64(axes.len() as u64);
    for &(lo, hi) in axes {
        w.put_u64(lo);
        w.put_u64(hi);
    }
}

/// The wire form of [`Query::BoxRange`].
fn put_box(w: &mut Writer, axes: &[(u64, u64)]) {
    w.section(1, |w| w.put_u8(1));
    w.section(2, |w| put_axes(w, axes));
}

/// The wire form of [`Query::MultiRange`].
fn put_multi<B: AsRef<[(u64, u64)]>>(w: &mut Writer, boxes: &[B]) {
    w.section(1, |w| w.put_u8(2));
    w.section(2, |w| {
        w.put_u64(boxes.len() as u64);
        for axes in boxes {
            put_axes(w, axes.as_ref());
        }
    });
}

impl Query {
    /// A box query over one 1-D interval.
    pub fn interval(lo: u64, hi: u64) -> Self {
        Query::BoxRange(vec![(lo, hi)])
    }

    /// Validates the query and folds it onto its canonical form:
    ///
    /// * a full-domain (or empty-axes) box, and a level-`64` spelling of
    ///   the whole hierarchy, become [`Query::Total`];
    /// * a point becomes the degenerate box;
    /// * a hierarchy node becomes the box over its span;
    /// * a single-box multi-range becomes that box; remaining boxes sort
    ///   lexicographically.
    ///
    /// The canonical form is what the store's query cache keys on, so
    /// `0..u64::MAX`, `Total`, and `node 64/0` all share one cache line.
    pub fn canonical(&self) -> Result<Query, QueryError> {
        Ok(match self.canonical_form()? {
            Canonical::Total => Query::Total,
            Canonical::BoxRange(axes) => Query::BoxRange(axes.into_owned()),
            Canonical::MultiRange(boxes) => {
                Query::MultiRange(boxes.into_iter().map(<[_]>::to_vec).collect())
            }
        })
    }

    /// The canonical form of [`Query::canonical`], borrowing this query's
    /// boxes instead of copying them.
    fn canonical_form(&self) -> Result<Canonical<'_>, QueryError> {
        let axes: Cow<'_, [(u64, u64)]> = match self {
            Query::Total => return Ok(Canonical::Total),
            Query::BoxRange(axes) => {
                axes_valid(axes)?;
                Cow::Borrowed(axes)
            }
            Query::Point(coords) => {
                if coords.is_empty() {
                    return bad("point query needs at least one coordinate");
                }
                if coords.len() > MAX_QUERY_AXES {
                    return bad(format!(
                        "{} coordinates exceed the cap {MAX_QUERY_AXES}",
                        coords.len()
                    ));
                }
                Cow::Owned(coords.iter().map(|&c| (c, c)).collect())
            }
            Query::HierarchyNode { level, index } => {
                let (level, index) = (*level, *index);
                if level > 64 {
                    return bad(format!("hierarchy level {level} exceeds 64"));
                }
                if level == 64 {
                    return if index == 0 {
                        Ok(Canonical::Total)
                    } else {
                        bad(format!("level-64 node index {index} out of range"))
                    };
                }
                // Level 0 nodes are single keys: every u64 index is valid
                // (and 64 − 0 would overflow the shift).
                if level > 0 && index >= (1u64 << (64 - level)) {
                    return bad(format!("node index {index} out of range at level {level}"));
                }
                let lo = index << level;
                let hi = lo + ((1u64 << level) - 1);
                Cow::Owned(vec![(lo, hi)])
            }
            Query::MultiRange(boxes) => {
                if boxes.is_empty() {
                    return bad("multi-range query needs at least one box");
                }
                if boxes.len() > MAX_QUERY_BOXES {
                    return bad(format!(
                        "{} boxes exceed the cap {MAX_QUERY_BOXES}",
                        boxes.len()
                    ));
                }
                for axes in boxes {
                    axes_valid(axes)?;
                }
                for (i, a) in boxes.iter().enumerate() {
                    for b in &boxes[i + 1..] {
                        if boxes_overlap(a, b) {
                            return bad(format!(
                                "multi-range boxes {a:?} and {b:?} overlap (the union must be disjoint)"
                            ));
                        }
                    }
                }
                if let [only] = boxes.as_slice() {
                    Cow::Borrowed(only)
                } else {
                    let mut sorted: Vec<&[(u64, u64)]> = boxes.iter().map(Vec::as_slice).collect();
                    sorted.sort_unstable();
                    return Ok(Canonical::MultiRange(sorted));
                }
            }
        };
        Ok(if axes.iter().all(|&a| a == FULL) {
            Canonical::Total
        } else {
            Canonical::BoxRange(axes)
        })
    }

    /// The disjoint boxes the (canonical) query evaluates over, each
    /// normalized to `dims` axes (missing axes full-domain). Errors if the
    /// query names more axes than the summary has.
    pub fn boxes(&self, dims: usize) -> Result<Vec<Vec<(u64, u64)>>, QueryError> {
        let norm = |axes: &[(u64, u64)]| -> Result<Vec<(u64, u64)>, QueryError> {
            if axes.len() > dims {
                return bad(format!(
                    "query names {} axes but the summary is {dims}-D",
                    axes.len()
                ));
            }
            Ok((0..dims)
                .map(|i| axes.get(i).copied().unwrap_or(FULL))
                .collect())
        };
        match self.canonical_form()? {
            Canonical::Total => Ok(vec![vec![FULL; dims]]),
            Canonical::BoxRange(axes) => Ok(vec![norm(&axes)?]),
            Canonical::MultiRange(boxes) => boxes.into_iter().map(norm).collect(),
        }
    }

    /// The canonical body bytes — what the store's query cache keys on:
    /// [`Query::canonical`]'s wire form, written straight from this
    /// query's boxes.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, QueryError> {
        let mut w = Writer::new();
        match self.canonical_form()? {
            Canonical::Total => Query::Total.write_wire(&mut w),
            Canonical::BoxRange(axes) => put_box(&mut w, &axes),
            Canonical::MultiRange(boxes) => put_multi(&mut w, &boxes),
        }
        Ok(w.into_bytes())
    }

    /// Writes the wire representation (two sections: kind tag, payload).
    pub fn write_wire(&self, w: &mut Writer) {
        match self {
            Query::BoxRange(axes) => put_box(w, axes),
            Query::MultiRange(boxes) => put_multi(w, boxes),
            Query::Point(coords) => {
                w.section(1, |w| w.put_u8(3));
                w.section(2, |w| {
                    w.put_u64(coords.len() as u64);
                    for &c in coords {
                        w.put_u64(c);
                    }
                });
            }
            Query::HierarchyNode { level, index } => {
                w.section(1, |w| w.put_u8(4));
                w.section(2, |w| {
                    w.put_u32(*level);
                    w.put_u64(*index);
                });
            }
            Query::Total => {
                w.section(1, |w| w.put_u8(5));
                w.section(2, |_| {});
            }
        }
    }

    /// Reads the wire representation, validating shape invariants (never
    /// panics on hostile input).
    pub fn read_wire(r: &mut Reader<'_>) -> Result<Query, CodecError> {
        let invalid = |e: QueryError| CodecError::Invalid(e.to_string());
        let mut kind_sec = r.expect_section(1)?;
        let kind = kind_sec.get_u8()?;
        kind_sec.finish()?;
        let mut body = r.expect_section(2)?;
        let get_axes = |body: &mut Reader<'_>| -> Result<Vec<(u64, u64)>, CodecError> {
            let n = body.get_len(16)?;
            if n > MAX_QUERY_AXES {
                return Err(CodecError::Invalid(format!("{n} axes exceed the cap")));
            }
            let mut axes = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = body.get_u64()?;
                let hi = body.get_u64()?;
                if lo > hi {
                    return Err(CodecError::Invalid(format!("reversed range {lo}..{hi}")));
                }
                axes.push((lo, hi));
            }
            Ok(axes)
        };
        let query = match kind {
            1 => Query::BoxRange(get_axes(&mut body)?),
            2 => {
                let n = body.get_len(8)?;
                if n > MAX_QUERY_BOXES {
                    return Err(CodecError::Invalid(format!("{n} boxes exceed the cap")));
                }
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    boxes.push(get_axes(&mut body)?);
                }
                Query::MultiRange(boxes)
            }
            3 => {
                let n = body.get_len(8)?;
                if n > MAX_QUERY_AXES {
                    return Err(CodecError::Invalid(format!(
                        "{n} coordinates exceed the cap"
                    )));
                }
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    coords.push(body.get_u64()?);
                }
                Query::Point(coords)
            }
            4 => Query::HierarchyNode {
                level: body.get_u32()?,
                index: body.get_u64()?,
            },
            5 => Query::Total,
            t => return Err(CodecError::Invalid(format!("unknown query kind {t}"))),
        };
        body.finish()?;
        // Structural validation beyond per-field checks (index ranges,
        // multi-range disjointness) is shared with the in-process path.
        query.canonical_form().map_err(invalid)?;
        Ok(query)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes = |f: &mut fmt::Formatter<'_>, axes: &[(u64, u64)]| {
            for (i, (lo, hi)) in axes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{lo}..{hi}")?;
            }
            Ok(())
        };
        match self {
            Query::BoxRange(a) => axes(f, a),
            Query::MultiRange(boxes) => {
                for (i, b) in boxes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    axes(f, b)?;
                }
                Ok(())
            }
            Query::Point(coords) => {
                write!(f, "point ")?;
                for (i, c) in coords.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Query::HierarchyNode { level, index } => write!(f, "node {level}/{index}"),
            Query::Total => write!(f, "total"),
        }
    }
}

impl Estimate {
    /// Writes the wire representation (one section of five `f64`s).
    pub fn write_wire(&self, w: &mut Writer) {
        w.section(1, |w| {
            w.put_f64(self.value);
            w.put_f64(self.variance);
            w.put_f64(self.lower);
            w.put_f64(self.upper);
            w.put_f64(self.confidence);
        });
    }

    /// Reads the wire representation, rejecting non-finite fields and
    /// inverted intervals (never panics on hostile input).
    pub fn read_wire(r: &mut Reader<'_>) -> Result<Estimate, CodecError> {
        let mut sec = r.expect_section(1)?;
        let value = sec.get_finite_f64()?;
        let variance = sec.get_finite_f64()?;
        let lower = sec.get_finite_f64()?;
        let upper = sec.get_finite_f64()?;
        let confidence = sec.get_finite_f64()?;
        sec.finish()?;
        if lower > upper {
            return Err(CodecError::Invalid(format!(
                "inverted interval [{lower}, {upper}]"
            )));
        }
        if variance < 0.0 {
            return Err(CodecError::Invalid(format!("negative variance {variance}")));
        }
        if !(0.0..=1.0).contains(&confidence) {
            return Err(CodecError::Invalid(format!(
                "confidence {confidence} outside [0, 1]"
            )));
        }
        Ok(Estimate {
            value,
            variance,
            lower,
            upper,
            confidence,
        })
    }
}

/// Encodes a query as a standalone self-describing frame
/// ([`proto::TAG_QUERY`]).
pub fn encode_query(q: &Query) -> Vec<u8> {
    encode_frame(proto::TAG_QUERY, |w| q.write_wire(w))
}

/// Decodes a standalone query frame.
pub fn decode_query(bytes: &[u8]) -> Result<Query, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind != proto::TAG_QUERY {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let q = Query::read_wire(&mut frame.body)?;
    frame.body.finish()?;
    Ok(q)
}

/// Encodes an estimate as a standalone self-describing frame
/// ([`proto::TAG_ESTIMATE`]).
pub fn encode_estimate(e: &Estimate) -> Vec<u8> {
    encode_frame(proto::TAG_ESTIMATE, |w| e.write_wire(w))
}

/// Decodes a standalone estimate frame.
pub fn decode_estimate(bytes: &[u8]) -> Result<Estimate, CodecError> {
    let mut frame = open_frame(bytes)?;
    if frame.kind != proto::TAG_ESTIMATE {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let e = Estimate::read_wire(&mut frame.body)?;
    frame.body.finish()?;
    Ok(e)
}

// --- Shared bound machinery -------------------------------------------------

/// Per-query accumulator for every sample-based kind (stored samples and
/// VarOpt reservoirs, owned or mapped): filled in one pass over the items,
/// finished into an [`Estimate`] by [`SampleAccumulator::finish`], the one
/// Eqn. (4) finisher.
///
/// Every item carries its own threshold: a sampled light key's adjusted
/// weight *is* the threshold `τᵢ > wᵢ` it was sampled at, while a heavy key
/// keeps `adjusted = wᵢ`. A window concatenated from batches sampled at
/// different thresholds is therefore bounded per key, with no window-wide
/// τ (see DESIGN "Query API" for why one inversion at the largest `τᵢ` is
/// sound).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleAccumulator {
    /// Running estimate — the sum of the adjusted weights folded in.
    pub value: f64,
    /// Exact part: adjusted weights of heavy keys (included with
    /// probability 1).
    pub heavy: f64,
    /// HT estimate of the light part: `Σ τᵢ` over sampled light keys.
    pub light_adjusted: f64,
    /// Largest threshold among the sampled light keys (0 when none).
    pub light_tau: f64,
    /// HT estimate of `Σ Var[a(i)]`: each sampled light key contributes
    /// `Var[a(i)]/pᵢ = τᵢ·(τᵢ − wᵢ)`.
    pub variance: f64,
}

impl SampleAccumulator {
    /// The light/heavy rule for an item of original weight `weight` and
    /// adjusted weight `adjusted`: whether it is light (`adjusted > weight`,
    /// so it carries the HT weight of its own threshold `τᵢ = adjusted`)
    /// and, if so, its variance term `τᵢ·(τᵢ − wᵢ)` (else 0).
    #[inline(always)]
    pub fn classify(weight: f64, adjusted: f64) -> (bool, f64) {
        let light = adjusted > weight;
        let variance = if light {
            adjusted * (adjusted - weight)
        } else {
            0.0
        };
        (light, variance)
    }

    /// Folds one in-range item in. The indexed kernels fold their hits
    /// through this directly; the 2-D scan hoists [`Self::classify`] out
    /// of its per-query loop and calls [`Self::add_classified`].
    #[inline(always)]
    pub fn add(&mut self, weight: f64, adjusted: f64) {
        let (light, light_var) = Self::classify(weight, adjusted);
        self.add_classified(adjusted, light, light_var);
    }

    /// Folds one in-range item already classified by [`Self::classify`]
    /// (which depends only on the item, not the query).
    #[inline(always)]
    pub fn add_classified(&mut self, adjusted: f64, light: bool, light_var: f64) {
        self.value += adjusted;
        if light {
            self.light_adjusted += adjusted;
            self.light_tau = self.light_tau.max(adjusted);
            self.variance += light_var;
        } else {
            self.heavy += adjusted;
        }
    }

    /// Folds in `count` in-range keys that each carry the HT weight `tau`
    /// and no original weight (a VarOpt reservoir's small keys): light mass
    /// `count·τ`, variance `count·τ·τ` (the per-key ceiling of
    /// `τ·(τ − wᵢ)`), threshold `τ`. No keys add nothing, so a reservoir
    /// answer without small hits stays exact.
    #[inline(always)]
    pub fn add_small(&mut self, count: usize, tau: f64) {
        if count == 0 {
            return;
        }
        let light = count as f64 * tau;
        self.value += light;
        self.light_adjusted += light;
        self.light_tau = self.light_tau.max(tau);
        self.variance += light * tau;
    }

    /// Folds in the accumulator of a disjoint set of items (a block sum of
    /// the key-order index): the sums add, and the largest light threshold
    /// is the larger of the two.
    #[inline(always)]
    pub fn absorb(&mut self, other: &SampleAccumulator) {
        self.value += other.value;
        self.heavy += other.heavy;
        self.light_adjusted += other.light_adjusted;
        self.light_tau = self.light_tau.max(other.light_tau);
        self.variance += other.variance;
    }

    /// Finishes the accumulator into an estimate: heavy part exact, light
    /// part bounded by inverting the paper's Eqn. (4) tail at confidence
    /// `1 − δ` and the largest light threshold
    /// ([`sas_core::bounds::weight_confidence_interval`]).
    pub fn finish(self, confidence: f64) -> Result<Estimate, QueryError> {
        if self.light_tau == 0.0 {
            // Every in-range key was kept exactly.
            return Ok(Estimate::exact(self.value));
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(QueryError::BadConfidence(confidence));
        }
        let delta = 1.0 - confidence;
        let (lo, hi) = sas_core::bounds::weight_confidence_interval(
            self.light_adjusted,
            self.light_tau,
            delta,
        );
        Ok(Estimate {
            value: self.value,
            variance: self.variance,
            // Float dust between the split (heavy + light) accumulation and
            // the single-pass value must never push the value outside its
            // own interval.
            lower: (self.heavy + lo).min(self.value),
            upper: (self.heavy + hi).max(self.value),
            confidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_fixtures() -> Vec<Query> {
        vec![
            Query::interval(10, 99),
            Query::BoxRange(vec![(0, 31), (16, 47)]),
            Query::MultiRange(vec![vec![(0, 9)], vec![(20, 29)], vec![(40, 49)]]),
            Query::Point(vec![42]),
            Query::Point(vec![3, 7]),
            Query::HierarchyNode { level: 4, index: 3 },
            Query::Total,
        ]
    }

    #[test]
    fn queries_roundtrip_through_frames() {
        for q in query_fixtures() {
            let bytes = encode_query(&q);
            assert_eq!(decode_query(&bytes).unwrap(), q, "{q}");
        }
    }

    #[test]
    fn estimate_roundtrips_through_frames() {
        let e = Estimate {
            value: 12.5,
            variance: 3.25,
            lower: 8.0,
            upper: 20.0,
            confidence: 0.95,
        };
        let bytes = encode_estimate(&e);
        assert_eq!(decode_estimate(&bytes).unwrap(), e);
        assert_eq!(e.half_width(), 6.0);
    }

    #[test]
    fn canonical_folds_equivalent_spellings() {
        // Full-domain spellings all collapse to Total.
        for q in [
            Query::BoxRange(vec![]),
            Query::BoxRange(vec![(0, u64::MAX)]),
            Query::BoxRange(vec![(0, u64::MAX), (0, u64::MAX)]),
            Query::HierarchyNode {
                level: 64,
                index: 0,
            },
            Query::MultiRange(vec![vec![(0, u64::MAX)]]),
        ] {
            assert_eq!(q.canonical().unwrap(), Query::Total, "{q:?}");
        }
        // Point = degenerate box; node = its span.
        assert_eq!(
            Query::Point(vec![5, 9]).canonical().unwrap(),
            Query::BoxRange(vec![(5, 5), (9, 9)])
        );
        assert_eq!(
            Query::HierarchyNode { level: 3, index: 2 }
                .canonical()
                .unwrap(),
            Query::BoxRange(vec![(16, 23)])
        );
        // Multi-range boxes sort canonically.
        let a = Query::MultiRange(vec![vec![(40, 49)], vec![(0, 9)]]);
        let b = Query::MultiRange(vec![vec![(0, 9)], vec![(40, 49)]]);
        assert_eq!(a.canonical_bytes().unwrap(), b.canonical_bytes().unwrap());
        // …and the canonical bytes of distinct queries differ.
        assert_ne!(
            Query::interval(0, 5).canonical_bytes().unwrap(),
            Query::interval(0, 6).canonical_bytes().unwrap()
        );
    }

    #[test]
    fn canonical_bytes_match_the_canonical_querys_wire_form() {
        // The borrowed writer against the owned reference, bytes and
        // errors alike, over every shape and every fold.
        let reference = |q: &Query| -> Result<Vec<u8>, QueryError> {
            let mut w = Writer::new();
            q.canonical()?.write_wire(&mut w);
            Ok(w.into_bytes())
        };
        let mut queries = query_fixtures();
        queries.extend([
            // Unsorted multi-ranges, 1-D and 2-D, and a one-box multi-range.
            Query::MultiRange(vec![vec![(40, 49)], vec![(0, 9)], vec![(20, 29)]]),
            Query::MultiRange(vec![vec![(5, 9), (0, 3)], vec![(0, 4), (8, 9)]]),
            Query::MultiRange(vec![vec![(7, 8), (1, 2)]]),
            Query::MultiRange(vec![vec![(0, u64::MAX)]]),
            // Full-domain boxes map to Total; a point maps to a box.
            Query::BoxRange(vec![]),
            Query::BoxRange(vec![(0, u64::MAX), (0, u64::MAX)]),
            Query::Point(vec![0, u64::MAX]),
            Query::HierarchyNode {
                level: 64,
                index: 0,
            },
            Query::HierarchyNode { level: 0, index: 9 },
            Query::HierarchyNode {
                level: 63,
                index: 1,
            },
            // Errors.
            Query::MultiRange(vec![vec![(0, 10)], vec![(10, 20)]]),
            Query::MultiRange(vec![vec![(20, 30)], vec![(0, 10)], vec![(5, 6)]]),
            Query::MultiRange(vec![]),
            Query::BoxRange(vec![(9, 3)]),
            Query::BoxRange(vec![(0, 1); MAX_QUERY_AXES + 1]),
            Query::Point(vec![]),
            Query::HierarchyNode {
                level: 64,
                index: 1,
            },
            Query::HierarchyNode {
                level: 65,
                index: 0,
            },
        ]);
        for q in &queries {
            assert_eq!(q.canonical_bytes(), reference(q), "{q:?}");
        }
        // The wire layout itself, written out by hand: a multi-range
        // sorts its boxes before it writes them.
        let mut w = Writer::new();
        w.section(1, |w| w.put_u8(2));
        w.section(2, |w| {
            for v in [2, 1, 0, 9, 1, 40, 49] {
                w.put_u64(v);
            }
        });
        assert_eq!(
            Query::MultiRange(vec![vec![(40, 49)], vec![(0, 9)]]).canonical_bytes(),
            Ok(w.into_bytes())
        );
        // Spellings that fold together share bytes.
        assert_eq!(
            Query::HierarchyNode {
                level: 64,
                index: 0
            }
            .canonical_bytes(),
            Query::Total.canonical_bytes()
        );
        assert_eq!(
            Query::Point(vec![4, 5]).canonical_bytes(),
            Query::BoxRange(vec![(4, 4), (5, 5)]).canonical_bytes()
        );
    }

    #[test]
    fn invalid_queries_rejected() {
        for q in [
            Query::BoxRange(vec![(9, 3)]),
            Query::Point(vec![]),
            Query::HierarchyNode {
                level: 65,
                index: 0,
            },
            Query::HierarchyNode {
                level: 64,
                index: 1,
            },
            Query::HierarchyNode {
                level: 60,
                index: 16,
            },
            Query::MultiRange(vec![]),
            Query::MultiRange(vec![vec![(0, 10)], vec![(10, 20)]]), // overlap at 10
            Query::MultiRange(vec![vec![(0, 10), (0, 5)], vec![(5, 20)]]), // y-full overlaps
        ] {
            assert!(q.canonical().is_err(), "{q:?} must be rejected");
        }
        // Disjoint on one axis is enough.
        let ok = Query::MultiRange(vec![vec![(0, 10), (0, 5)], vec![(0, 10), (6, 9)]]);
        assert!(ok.canonical().is_ok());
    }

    #[test]
    fn boxes_normalize_to_dims() {
        let q = Query::interval(5, 9);
        assert_eq!(q.boxes(1).unwrap(), vec![vec![(5, 9)]]);
        assert_eq!(q.boxes(2).unwrap(), vec![vec![(5, 9), (0, u64::MAX)]]);
        // More axes than the summary has is an error.
        let q2 = Query::BoxRange(vec![(0, 1), (0, 1)]);
        assert!(q2.boxes(1).is_err());
        assert_eq!(Query::Total.boxes(2).unwrap(), vec![vec![(0, u64::MAX); 2]]);
    }

    #[test]
    fn estimate_wire_rejects_malformed_fields() {
        let enc = |f: fn(&mut Writer)| encode_frame(proto::TAG_ESTIMATE, |w| w.section(1, f));
        // Inverted interval.
        let bytes = enc(|w| {
            for v in [1.0, 0.0, 5.0, 2.0, 0.9] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // Confidence beyond 1.
        let bytes = enc(|w| {
            for v in [1.0, 0.0, 0.0, 2.0, 1.5] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // NaN value.
        let bytes = enc(|w| {
            w.put_f64(f64::NAN);
            for v in [0.0, 0.0, 2.0, 0.5] {
                w.put_f64(v);
            }
        });
        assert!(decode_estimate(&bytes).is_err());
        // A query frame is not an estimate.
        assert!(matches!(
            decode_estimate(&encode_query(&Query::Total)),
            Err(CodecError::UnknownKind(_))
        ));
    }

    #[test]
    fn merge_disjoint_adds_components() {
        let mut a = Estimate {
            value: 10.0,
            variance: 1.0,
            lower: 8.0,
            upper: 12.0,
            confidence: 0.95,
        };
        let b = Estimate {
            value: 5.0,
            variance: 0.5,
            lower: 4.0,
            upper: 7.0,
            confidence: 0.99,
        };
        a.merge_disjoint(&b);
        assert_eq!(a.value, 15.0);
        assert_eq!(a.variance, 1.5);
        assert_eq!(a.lower, 12.0);
        assert_eq!(a.upper, 19.0);
        assert_eq!(a.confidence, 0.95);
    }

    #[test]
    fn display_renders_the_cli_spelling() {
        for (q, text) in [
            (Query::interval(5, 9), "5..9"),
            (Query::BoxRange(vec![(0, 3), (4, 7)]), "0..3,4..7"),
            (
                Query::MultiRange(vec![vec![(0, 1)], vec![(5, 6)]]),
                "0..1;5..6",
            ),
            (Query::Point(vec![3, 7]), "point 3,7"),
            (Query::HierarchyNode { level: 4, index: 3 }, "node 4/3"),
            (Query::Total, "total"),
        ] {
            assert_eq!(q.to_string(), text);
        }
    }

    #[test]
    fn hierarchy_node_edges() {
        // Level 0 is a single key.
        assert_eq!(
            Query::HierarchyNode { level: 0, index: 9 }
                .canonical()
                .unwrap(),
            Query::BoxRange(vec![(9, 9)])
        );
        // Top valid index at a level.
        let top = Query::HierarchyNode {
            level: 62,
            index: 3,
        };
        let Query::BoxRange(axes) = top.canonical().unwrap() else {
            panic!("node canonicalizes to a box");
        };
        assert_eq!(axes[0].1, u64::MAX);
        // Level 63, index 1 covers the upper half exactly.
        assert_eq!(
            Query::HierarchyNode {
                level: 63,
                index: 1
            }
            .canonical()
            .unwrap(),
            Query::BoxRange(vec![(1u64 << 63, u64::MAX)])
        );
    }

    #[test]
    fn sample_accumulator_exact_when_no_light_keys() {
        let mut acc = SampleAccumulator::default();
        acc.add(10.0, 10.0);
        acc.add(6.0, 6.0);
        let e = acc.finish(0.9).unwrap();
        assert_eq!(e, Estimate::exact(16.0));
        // An exact summary (adjusted = weight everywhere) is exact
        // regardless of confidence.
        let mut acc = SampleAccumulator::default();
        acc.add(3.0, 3.0);
        assert_eq!(acc.finish(0.5).unwrap(), Estimate::exact(3.0));
    }

    #[test]
    fn sample_accumulator_bounds_contain_value() {
        let mut acc = SampleAccumulator::default();
        acc.add(10.0, 10.0); // heavy
        acc.add(1.0, 4.0); // light, inflated to τ
        acc.add(2.0, 4.0); // light
        let e = acc.finish(0.9).unwrap();
        assert_eq!(e.value, 18.0);
        assert!(e.lower <= e.value && e.value <= e.upper);
        assert!(e.lower >= 10.0, "heavy part is certain: {}", e.lower);
        assert_eq!(e.variance, 4.0 * 3.0 + 4.0 * 2.0);
        assert_eq!(e.confidence, 0.9);
        // Bad confidence is rejected when bounds are actually needed.
        let mut acc = SampleAccumulator::default();
        acc.add(1.0, 4.0);
        assert!(matches!(acc.finish(1.0), Err(QueryError::BadConfidence(_))));
    }

    #[test]
    fn sample_accumulator_counts_small_keys_at_the_reservoir_threshold() {
        // No small keys leave a heavy-only answer exact.
        let mut acc = SampleAccumulator::default();
        acc.add(12.0, 12.0);
        acc.add_small(0, 3.0);
        assert_eq!(acc.finish(1.0).unwrap(), Estimate::exact(12.0));
        // Three small keys at τ = 3: light mass 9, variance 27.
        acc.add_small(3, 3.0);
        assert_eq!(acc.value, 21.0);
        assert_eq!(acc.heavy, 12.0);
        assert_eq!(acc.light_adjusted, 9.0);
        assert_eq!(acc.light_tau, 3.0);
        assert_eq!(acc.variance, 27.0);
        assert!(matches!(acc.finish(1.0), Err(QueryError::BadConfidence(_))));
    }

    #[test]
    fn sample_accumulator_charges_each_light_key_its_own_threshold() {
        // Two light keys sampled at τ = 2 and τ = 50, and a heavy key of
        // weight 30 (below the larger threshold, but kept exactly).
        let mut acc = SampleAccumulator::default();
        acc.add(1.0, 2.0);
        acc.add(30.0, 30.0);
        acc.add(5.0, 50.0);
        let e = acc.finish(0.9).unwrap();
        assert_eq!(e.value, 82.0);
        assert_eq!(e.variance, 2.0 * 1.0 + 50.0 * 45.0);
        // The light part is inverted at the largest light threshold.
        let (lo, hi) = sas_core::bounds::weight_confidence_interval(52.0, 50.0, 1.0 - 0.9);
        assert_eq!(e.lower, (30.0 + lo).min(82.0));
        assert_eq!(e.upper, (30.0 + hi).max(82.0));
    }
}

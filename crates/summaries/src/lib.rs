//! # sas-summaries — baseline range-sum summaries
//!
//! The dedicated summaries the paper compares structure-aware sampling
//! against (Section 6 "Methods"):
//!
//! * [`wavelet`] — the standard (tensor-product) two-dimensional Haar
//!   wavelet transform with coefficient thresholding [Vitter–Wang–Iyer]:
//!   each input point touches `(log X + 1)(log Y + 1)` coefficients; the
//!   `s` largest normalized coefficients are retained.
//! * [`qdigest`] — a two-dimensional q-digest / adaptive spatial
//!   partitioning summary [Shrivastava et al.; Hershberger et al.]: a
//!   deterministic dyadic-grid compression keeping heavy cells.
//! * [`countsketch`] — Count-sketch [Charikar–Chen–Farach-Colton] over
//!   dyadic rectangles: one sketch per dyadic level pair, queried through
//!   the canonical rectangle decomposition.
//! * [`exact`] — scan-based exact range sums, the ground truth used by the
//!   experiment harness.
//!
//! All summaries implement [`RangeSumSummary`], reporting their size in
//! *elements* (comparable to sample keys, as in the paper's plots) and
//! answering axis-parallel box queries. The q-digest and count-sketch also
//! implement `sas_core::Mergeable` — per-shard summaries built over disjoint
//! data combine by node/counter addition, mirroring the mergeable VarOpt
//! samples of `sas-sampling::sharded`.

//!
//! The [`erased`] module adds the durability layer: the object-safe
//! [`Summary`] trait (build metadata, queries, type-erased merge,
//! encode/decode onto the `sas-codec` wire format) and the [`SummaryKind`]
//! registry, so VarOpt reservoirs, finished samples ([`stored`]), q-digests,
//! wavelets, and count-sketches can be saved, merged, and queried across
//! process boundaries.
//!
//! The [`query`] module is the unified estimation API on top: every
//! question is a [`Query`] (box, disjoint multi-range, point, hierarchy
//! node, total) and every answer an [`Estimate`] — value, variance, and a
//! confidence interval derived per kind (Chernoff inversion for samples,
//! deterministic containment/truncation bounds for q-digest/wavelet, row
//! spread for sketches). [`QueryBatch`] evaluates many queries in one pass
//! over a summary's items.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod countsketch;
pub mod erased;
pub mod exact;
mod fold;
pub mod qdigest;
pub mod qdigest1d;
pub mod query;
pub mod stored;
pub mod view;
pub mod wavelet;
pub mod wavelet1d;

pub use erased::{
    decode_summaries, decode_summary, encode_summary, merge_tree, merge_tree_with, Summary,
    SummaryError, SummaryKind,
};
pub use query::{Estimate, Query, QueryBatch, QueryError};
pub use sas_sampling::sharded::MergeArena;
pub use stored::StoredSample;
pub use view::{encode_segment, SegmentSummary};

use sas_structures::product::{BoxRange, MultiRangeQuery};

/// Common interface of every range-sum summary in this crate (and of
/// sample-based summaries via [`exact::SampleSummary`]).
pub trait RangeSumSummary {
    /// Estimated total weight inside the box.
    fn estimate_box(&self, query: &BoxRange) -> f64;

    /// Number of stored elements (keys / coefficients / nodes / counters) —
    /// the size measure used on the x-axis of the paper's plots.
    fn size_elements(&self) -> usize;

    /// Short name for reports ("aware", "obliv", "wavelet", …).
    fn name(&self) -> &'static str;

    /// Estimated weight of a multi-range query (sum over disjoint boxes).
    fn estimate_multi(&self, query: &MultiRangeQuery) -> f64 {
        query.boxes.iter().map(|b| self.estimate_box(b)).sum()
    }
}

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
//!   experiment harness. It is not a summary.
//!
//! Every summary answers through the [`Summary`] trait below, samples
//! included ([`StoredSample`]), and reports its size in *elements*
//! ([`Summary::item_count`], comparable to sample keys, as in the paper's
//! plots). Each kind has one merge of its own — per-shard summaries built
//! over disjoint data combine by node/coefficient/counter addition,
//! mirroring the threshold merge of `sas-sampling::sharded` — and
//! [`Summary::merge_in_place`] reaches all of them through one erased call.

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

pub use erased::{decode_summary, encode_summary, merge_tree, Summary, SummaryError, SummaryKind};
pub use query::{Estimate, Query, QueryBatch, QueryError};
pub use stored::StoredSample;
pub use view::{encode_segment, SegmentSummary};

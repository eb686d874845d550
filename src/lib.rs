//! # structure-aware-sampling
//!
//! Facade crate for the full reproduction of *Cohen, Cormode, Duffield,
//! "Structure-Aware Sampling: Flexible and Accurate Summarization"*
//! (VLDB 2011). Re-exports the public API of every workspace crate:
//!
//! * [`core`] — VarOpt/IPPS sampling primitives, estimation, tail bounds,
//!   and the merges that combine samples of disjoint data.
//! * [`structures`] — orders, hierarchies, product spaces, kd-hierarchies.
//! * [`sampling`] — the structure-aware samplers (the paper's contribution)
//!   and the sharded parallel summarization driver
//!   ([`sampling::sharded::summarize_sharded`]).
//! * [`summaries`] — baseline summaries (wavelet, q-digest, count-sketch),
//!   the erased [`Summary`] trait with its [`SummaryKind`] registry, and
//!   the unified query API: every [`Query`] (box, multi-range, point,
//!   hierarchy node, total) is answered with an [`Estimate`] — a value
//!   with variance and a per-kind confidence interval.
//! * [`codec`] — the versioned binary wire format behind
//!   [`summaries::encode_summary`] / [`summaries::decode_summary`]: save,
//!   merge, and query summaries across process boundaries.
//! * [`obs`] — lock-free observability primitives: log-bucketed latency
//!   histograms, counters, the metric registry served by `sas client
//!   metrics`, and the leveled `slog!` logger.
//! * [`store`] — the concurrent summary catalog: windowed ingest,
//!   merge-tree compaction, snapshot-swapped reads, crash-safe
//!   persistence, and the `sas serve` TCP daemon.
//! * [`data`] — synthetic workload and query generators.
//!
//! See `examples/quickstart.rs` for a guided tour
//! (`examples/save_merge_query.rs` for the persistence workflow), and
//! `DESIGN.md` / `EXPERIMENTS.md` for the experiment index.

pub use sas_apps as apps;
pub use sas_codec as codec;
pub use sas_core as core;
pub use sas_data as data;
pub use sas_obs as obs;
pub use sas_sampling as sampling;
pub use sas_store as store;
pub use sas_structures as structures;
pub use sas_summaries as summaries;

pub use sas_summaries::{Estimate, Query, QueryBatch, QueryError, Summary, SummaryKind};

//! # sas-bench — experiment harness for every figure in the paper
//!
//! The binaries in `src/bin/` regenerate the series of the paper's Figures
//! 2, 3 and 4 (see `EXPERIMENTS.md` for the index and observed outputs):
//!
//! | binary | paper figure | series |
//! |---|---|---|
//! | `fig2a` | 2(a) | accuracy vs summary size, Network, uniform-area queries |
//! | `fig2b` | 2(b) | accuracy vs query weight, Network, uniform-weight queries |
//! | `fig2c` | 2(c) | accuracy vs ranges/query, Network |
//! | `fig3a` | 3(a) | construction throughput, Network |
//! | `fig3b` | 3(b) | construction throughput, Tech Ticket |
//! | `fig3c` | 3(c) | query time vs summary size |
//! | `fig4a` | 4(a) | accuracy vs size, Tech Ticket, uniform-weight queries |
//! | `fig4b` | 4(b) | accuracy vs query weight, Tech Ticket, uniform-area |
//! | `fig4c` | 4(c) | accuracy vs query weight, Tech Ticket, uniform-weight |
//! | `discrepancy` | Thm 1 / Sec 3-4 | empirical max discrepancy per structure |
//! | `ablation_guide` | design ablation | two-pass accuracy vs s′/s factor |
//! | `ablation_pair_rule` | design ablation | structure-aware vs arbitrary pair order |
//!
//! Every series is scored through [`Summary::answer`] (see
//! [`answer_value`]), the path `sas serve` answers with, against
//! [`ExactEngine`] ground truth.
//!
//! Scale is controlled by the `SAS_SCALE` env var: `small` (default —
//! seconds per figure) or `full` (matches the paper's data scale; the
//! wavelet/sketch baselines then take correspondingly long, which is itself
//! one of the paper's findings).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_data::{NetworkConfig, TicketConfig};
use sas_sampling::product::SpatialData;
use sas_structures::product::MultiRangeQuery;
use sas_summaries::exact::ExactEngine;
use sas_summaries::{Query, StoredSample, Summary};

/// Experiment scale, selected by the `SAS_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced data and size sweep: every figure runs in seconds.
    Small,
    /// The paper's data scale (196K network pairs, 100K+ tickets).
    Full,
}

impl Scale {
    /// Reads `SAS_SCALE` (default `Small`).
    pub fn from_env() -> Self {
        match std::env::var("SAS_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Address bits per axis for the network data set.
    pub fn network_bits(self) -> u32 {
        match self {
            Scale::Small => 12,
            Scale::Full => 16,
        }
    }

    /// Flow count for the network data set.
    pub fn network_flows(self) -> usize {
        match self {
            Scale::Small => 40_000,
            Scale::Full => 196_000,
        }
    }

    /// Ticket count for the tech-ticket data set.
    pub fn tickets(self) -> usize {
        match self {
            Scale::Small => 40_000,
            Scale::Full => 500_000,
        }
    }

    /// Summary sizes swept in the "vs size" figures.
    pub fn size_sweep(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![100, 300, 1_000, 3_000, 10_000],
            Scale::Full => vec![100, 300, 1_000, 3_000, 10_000, 30_000, 100_000],
        }
    }

    /// Number of queries per battery (paper: 50).
    pub fn query_count(self) -> usize {
        50
    }
}

/// A prepared data set with its exact engine.
pub struct Workload {
    /// Human-readable name ("network" / "tickets").
    pub name: &'static str,
    /// The data.
    pub data: SpatialData,
    /// Ground-truth engine.
    pub exact: ExactEngine,
    /// Total data weight (normalizer for absolute error).
    pub total: f64,
    /// Domain bits per axis (square domains).
    pub bits: u32,
}

/// Generates the Network workload at the given scale (fixed seed).
pub fn network_workload(scale: Scale) -> Workload {
    let cfg = NetworkConfig {
        bits: scale.network_bits(),
        flows: scale.network_flows(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0xB007);
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    let total = exact.total();
    Workload {
        name: "network",
        data,
        exact,
        total,
        bits: cfg.bits,
    }
}

/// Generates the Tech Ticket workload at the given scale (fixed seed).
pub fn ticket_workload(scale: Scale) -> Workload {
    let cfg = TicketConfig {
        tickets: scale.tickets(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0x7_1CCE7);
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    let total = exact.total();
    // Ticket domains are 2^14 per axis with the default branching.
    let (dx, _) = cfg.domains();
    let bits = 64 - (dx - 1).leading_zeros();
    Workload {
        name: "tickets",
        data,
        exact,
        total,
        bits,
    }
}

/// Confidence the harness asks its answers at. Only the value is scored;
/// the interval rides along as `sas serve` computes it.
const CONFIDENCE: f64 = 0.9;

/// The value a summary answers for one battery query, through the same
/// [`Summary::answer`] path `sas serve` uses.
///
/// # Panics
/// Panics if the summary refuses the query (the batteries are disjoint
/// boxes inside the summaries' domains, so this is a harness bug).
pub fn answer_value(summary: &dyn Summary, query: &MultiRangeQuery) -> f64 {
    summary
        .answer(&Query::from(query), CONFIDENCE)
        .unwrap_or_else(|e| panic!("{:?} summary refused a battery query: {e}", summary.kind()))
        .value
}

/// Mean absolute error of a summary over a query battery, normalized by the
/// total data weight — the y-axis of the paper's accuracy plots.
pub fn avg_abs_error(
    summary: &dyn Summary,
    exact: &ExactEngine,
    queries: &[MultiRangeQuery],
    total: f64,
) -> f64 {
    error_metrics(summary, exact, queries, total).mean_abs
}

/// The three error metrics the paper reports ("absolute, sum-squared and
/// relative errors"), all computed in one pass over the battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMetrics {
    /// Mean |estimate − truth| / total weight.
    pub mean_abs: f64,
    /// Root-mean-square of (estimate − truth) / total weight.
    pub rms: f64,
    /// Mean |estimate − truth| / truth over queries with positive truth.
    pub mean_rel: f64,
}

/// Computes [`ErrorMetrics`] for a summary over a query battery.
pub fn error_metrics(
    summary: &dyn Summary,
    exact: &ExactEngine,
    queries: &[MultiRangeQuery],
    total: f64,
) -> ErrorMetrics {
    let mut abs_sum = 0.0;
    let mut sq_sum = 0.0;
    let mut rel_sum = 0.0;
    let mut rel_count = 0usize;
    for q in queries {
        let truth = exact.multi_sum(q);
        let err = answer_value(summary, q) - truth;
        abs_sum += err.abs();
        sq_sum += err * err;
        if truth > 0.0 {
            rel_sum += err.abs() / truth;
            rel_count += 1;
        }
    }
    let n = queries.len().max(1) as f64;
    ErrorMetrics {
        mean_abs: abs_sum / (n * total),
        rms: (sq_sum / n).sqrt() / total,
        mean_rel: if rel_count > 0 {
            rel_sum / rel_count as f64
        } else {
            0.0
        },
    }
}

/// Builds the structure-aware sample ("aware"): the two-pass product
/// sampler with the paper's guide factor of 5.
pub fn build_aware(data: &SpatialData, s: usize, seed: u64) -> StoredSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = sas_sampling::two_pass::sample_product(data, s, 5, &mut rng);
    StoredSample::spatial(sample, data).expect("every sampled key has a location")
}

/// Builds the structure-oblivious VarOpt sample ("obliv").
pub fn build_obliv(data: &SpatialData, s: usize, seed: u64) -> StoredSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = sas_core::varopt::VarOptSampler::sample_slice(s, &data.keys, &mut rng);
    StoredSample::spatial(sample, data).expect("every sampled key has a location")
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Sort-based percentile over an ascending slice at the same nearest-rank
/// rule (`ceil(p/100 * n)`) that [`sas_obs::HistogramSnapshot::percentile`]
/// uses, so a histogram percentile and the sort-based one pick the same
/// ranked observation and can be compared bucket-for-bucket.
pub fn rank_value(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Asserts that a histogram snapshot's p50/p95/p99 each land within one
/// log-bucket of the sort-based percentile over the raw latencies
/// (milliseconds, ascending). Used by the `cold` bin, whose reported
/// percentiles come from [`sas_obs::Histogram`] — the same math the
/// daemon's metrics endpoint serves — with the raw vector kept as ground
/// truth.
pub fn assert_hist_matches_sorted(
    snap: &sas_obs::HistogramSnapshot,
    sorted_ms: &[f64],
    what: &str,
) {
    for p in [50.0, 95.0, 99.0] {
        let hist_ns = snap.percentile(p);
        let sorted_ns = (rank_value(sorted_ms, p) * 1e6).round() as u64;
        assert!(
            sas_obs::within_one_bucket(hist_ns, sorted_ns),
            "{what}: histogram p{p} = {hist_ns} ns more than one bucket away \
             from sort-based {sorted_ns} ns"
        );
    }
}

/// Reads a `usize` environment knob with a default (shared by the bins).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// splitmix64: decorrelates a query index from the range it probes (a
/// linear stride aliases modulo the key span and quietly turns distinct
/// probes into cache hits). Shared by the bins that generate batteries.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parses the bin's command line: `--json PATH` selects machine-readable
/// output alongside the human tables. Unknown arguments are an error so a
/// scripted invocation with a typo fails loudly instead of silently
/// printing text and exiting 0.
pub fn parse_json_flag() -> Result<Option<std::path::PathBuf>, String> {
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                let p = args.next().ok_or("--json requires a path")?;
                out = Some(std::path::PathBuf::from(p));
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected: --json PATH)"
                ))
            }
        }
    }
    Ok(out)
}

/// Incremental writer for the flat JSON objects the bins emit under
/// `--json`. Fields keep insertion order; one level of nesting via
/// [`JsonObj::obj`]. Numbers are written as plain decimals (never
/// scientific notation) so `scripts/bench_regression.sh` can extract them
/// with a `"name": *[0-9.]*` grep.
#[derive(Debug, Default, Clone)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a numeric field (non-finite values are recorded as 0).
    pub fn num(&mut self, name: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        let s = if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.0}")
        } else if v.abs() < 0.01 {
            format!("{v:.8}")
        } else {
            format!("{v:.3}")
        };
        self.fields.push((name.to_string(), s));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, name: &str, v: u64) -> &mut Self {
        self.fields.push((name.to_string(), v.to_string()));
        self
    }

    /// Adds a string field (callers pass plain identifiers; quotes and
    /// backslashes are escaped just in case).
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((name.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a nested object field.
    pub fn obj(&mut self, name: &str, v: &JsonObj) -> &mut Self {
        self.fields.push((name.to_string(), v.render()));
        self
    }

    /// Renders the object as a single-line JSON string.
    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('"');
            s.push_str(k);
            s.push_str("\": ");
            s.push_str(v);
        }
        s.push('}');
        s
    }

    /// Writes the rendered object (plus trailing newline) to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// A counting global allocator for bins that report allocation deltas
/// (e.g. allocations per merge). Opt in from a bin with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sas_bench::alloc_count::CountingAlloc =
///     sas_bench::alloc_count::CountingAlloc;
/// ```
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator, counting every allocation
    /// (including reallocations, which allocate).
    pub struct CountingAlloc;

    // SAFETY: pure pass-through to `System`; the counter has no effect on
    // the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Total allocations since process start (take deltas around a region).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Prints a TSV header plus rows; shared output format of the figure bins.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// Formats an error value in compact scientific notation.
pub fn fmt_err(e: f64) -> String {
    format!("{e:.3e}")
}

/// Formats a rate (items/s) with thousands grouping dropped for TSV use.
pub fn fmt_rate(r: f64) -> String {
    format!("{r:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default_small() {
        // Note: does not set the env var to avoid cross-test interference.
        assert_eq!(Scale::Small.network_bits(), 12);
        assert_eq!(Scale::Full.network_bits(), 16);
        assert!(Scale::Full.size_sweep().len() > Scale::Small.size_sweep().len());
    }

    #[test]
    fn workloads_generate() {
        let w = network_workload(Scale::Small);
        assert!(w.data.len() > 10_000);
        assert!(w.total > 0.0);
        let t = ticket_workload(Scale::Small);
        assert!(t.data.len() > 10_000);
    }

    #[test]
    fn builders_produce_requested_sizes() {
        let w = network_workload(Scale::Small);
        let aware = build_aware(&w.data, 500, 1);
        let obliv = build_obliv(&w.data, 500, 1);
        assert_eq!(aware.len(), 500);
        assert_eq!(obliv.len(), 500);
    }

    #[test]
    fn json_obj_renders_grepable_fields() {
        let mut nested = JsonObj::new();
        nested.num("rate", 12.3456);
        let mut obj = JsonObj::new();
        obj.str("bench", "core")
            .num("whole", 42.0)
            .int("count", 7)
            .num("bad", f64::NAN)
            .obj("inner", &nested);
        let s = obj.render();
        assert_eq!(
            s,
            "{\"bench\": \"core\", \"whole\": 42, \"count\": 7, \
             \"bad\": 0, \"inner\": {\"rate\": 12.346}}"
        );
        // The regression script's extraction pattern must match.
        assert!(s.contains("\"whole\": 42"));
    }

    #[test]
    fn env_usize_falls_back_to_default() {
        assert_eq!(env_usize("SAS_BENCH_NO_SUCH_KNOB", 77), 77);
    }

    #[test]
    fn avg_error_zero_for_exact() {
        // Every key at its own weight, in data order: the answers add the
        // same terms in the same order as the exact engine.
        let w = network_workload(Scale::Small);
        let entries = w
            .data
            .keys
            .iter()
            .map(|wk| sas_core::SampleEntry {
                key: wk.key,
                weight: wk.weight,
                adjusted_weight: wk.weight,
            })
            .collect();
        let everything =
            StoredSample::spatial(sas_core::Sample::from_entries(entries, 0.0), &w.data).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let side = 1u64 << w.bits;
        let queries = sas_data::uniform_area_queries(&mut rng, side, side, 5, 5, 0.2);
        let e = avg_abs_error(&everything, &w.exact, &queries, w.total);
        assert_eq!(e, 0.0);
    }
}

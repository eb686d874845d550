//! Library backing the `sas` command-line summarizer.
//!
//! Two summary representations are supported:
//!
//! * **binary frames** (`--out file.sas`) — the versioned `sas-codec` wire
//!   format, covering every registered [`SummaryKind`] (sample, varopt
//!   reservoir, q-digest, wavelet, count-sketch). Frames are durable: they
//!   can be merged (`sas merge`) and queried (`sas query`) by later
//!   processes, on other machines.
//! * **legacy TSV** (stdout) — sample summaries only: header line
//!   `#sas-summary tau=<τ> dims=<d>` followed by
//!   `key<TAB>weight<TAB>adjusted_weight[<TAB>x<TAB>y]` rows.
//!
//! Input data is plain TSV (`#`-comments ignored): `key<TAB>weight` (1-D /
//! order structure) or `x<TAB>y<TAB>weight` (2-D product structure; the key
//! is the row index). Either summary representation is self-contained:
//! queries are answered from the file alone.
//!
//! Every summary loads into [`LoadedSummary`] — a thin wrapper over
//! `Box<dyn Summary>` — so the query, merge, and info paths are free of
//! per-kind dispatch.

use std::collections::HashMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_core::estimate::{Sample, SampleEntry};
use sas_core::varopt::VarOptSampler;
use sas_core::WeightedKey;
use sas_sampling::product::SpatialData;
use sas_structures::product::Point;
use sas_summaries::countsketch::SketchSummary;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::{
    decode_summary, encode_summary, Estimate, Query, QueryBatch, SegmentSummary, StoredSample,
    Summary, SummaryKind,
};

/// Parsed input data: 1-D weighted keys or 2-D located keys.
#[derive(Debug, Clone)]
pub enum Dataset {
    /// `key weight` rows.
    OneDim(Vec<WeightedKey>),
    /// `x y weight` rows (keys are row indices).
    TwoDim(SpatialData),
}

/// Errors surfaced to the CLI user.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Parses input TSV into a [`Dataset`]; column count decides the shape.
pub fn parse_dataset(text: &str) -> Result<Dataset, CliError> {
    let mut one: Vec<WeightedKey> = Vec::new();
    let mut two: Vec<(u64, u64, f64)> = Vec::new();
    let mut cols: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match cols {
            None => cols = Some(fields.len()),
            Some(c) if c != fields.len() => {
                return err(format!(
                    "line {}: expected {} columns, found {}",
                    lineno + 1,
                    c,
                    fields.len()
                ))
            }
            _ => {}
        }
        let parse_u = |s: &str| -> Result<u64, CliError> {
            s.parse()
                .map_err(|_| CliError(format!("line {}: bad integer '{s}'", lineno + 1)))
        };
        let parse_f = |s: &str| -> Result<f64, CliError> {
            let v: f64 = s
                .parse()
                .map_err(|_| CliError(format!("line {}: bad number '{s}'", lineno + 1)))?;
            if !v.is_finite() || v < 0.0 {
                return err(format!("line {}: weight must be >= 0", lineno + 1));
            }
            Ok(v)
        };
        match fields.len() {
            2 => one.push(WeightedKey::new(parse_u(fields[0])?, parse_f(fields[1])?)),
            3 => two.push((
                parse_u(fields[0])?,
                parse_u(fields[1])?,
                parse_f(fields[2])?,
            )),
            n => {
                return err(format!(
                    "line {}: expected 2 or 3 columns, found {n}",
                    lineno + 1
                ))
            }
        }
    }
    match cols {
        None => err("input is empty"),
        Some(2) => Ok(Dataset::OneDim(one)),
        Some(3) => Ok(Dataset::TwoDim(SpatialData::from_xyw(&two))),
        Some(n) => err(format!("unsupported column count {n}")),
    }
}

/// Builds a structure-aware sample summary (serial, one thread).
pub fn summarize(data: &Dataset, size: usize, seed: u64) -> Result<(Sample, usize), CliError> {
    summarize_sharded(data, size, seed, 1)
}

/// Builds a structure-aware sample summary using `shards` parallel workers.
///
/// With `shards == 1` this is the serial path. For 1-D data the input is
/// split into contiguous key ranges, each shard is summarized by the
/// order-structure sampler on its own thread, and the per-shard samples are
/// merged bottom-up with the structure-aware threshold merge (see
/// `sas_sampling::sharded`). 2-D data does not support sharding yet.
pub fn summarize_sharded(
    data: &Dataset,
    size: usize,
    seed: u64,
    shards: usize,
) -> Result<(Sample, usize), CliError> {
    if size == 0 {
        return err("summary size must be positive");
    }
    if shards == 0 {
        return err("--shards must be positive");
    }
    match data {
        Dataset::OneDim(rows) => {
            if rows.is_empty() {
                return err("no data rows");
            }
            if shards == 1 {
                let mut rng = StdRng::seed_from_u64(seed);
                Ok((sas_sampling::order::sample(rows, size, &mut rng), 1))
            } else {
                let cfg = sas_sampling::sharded::ShardedConfig::key_range(shards, seed);
                Ok((
                    sas_sampling::sharded::summarize_sharded(rows, size, &cfg),
                    1,
                ))
            }
        }
        Dataset::TwoDim(spatial) => {
            if spatial.is_empty() {
                return err("no data rows");
            }
            if shards > 1 {
                return err("--shards currently supports 1-D (key weight) data only");
            }
            let mut rng = StdRng::seed_from_u64(seed);
            Ok((
                sas_sampling::two_pass::sample_product(spatial, size, 5, &mut rng),
                2,
            ))
        }
    }
}

/// Builds the per-shard samples without merging them — the distributed
/// workflow's first stage: each sample is persisted to its own file and
/// merged later by a separate `sas merge` process. 1-D data only.
pub fn summarize_per_shard(
    data: &Dataset,
    size: usize,
    seed: u64,
    shards: usize,
) -> Result<Vec<Sample>, CliError> {
    if size == 0 {
        return err("summary size must be positive");
    }
    if shards == 0 {
        return err("--shards must be positive");
    }
    match data {
        Dataset::OneDim(rows) => {
            if rows.is_empty() {
                return err("no data rows");
            }
            let cfg = sas_sampling::sharded::ShardedConfig::key_range(shards, seed);
            Ok(sas_sampling::sharded::per_shard_samples(rows, size, &cfg))
        }
        Dataset::TwoDim(_) => err("--per-shard currently supports 1-D (key weight) data only"),
    }
}

/// Wraps a sample over `data` as an erased [`Summary`] (attaching locations
/// for 2-D data).
fn stored_from(sample: Sample, data: &Dataset) -> Result<StoredSample, CliError> {
    match data {
        Dataset::OneDim(_) => Ok(StoredSample::one_dim(sample)),
        Dataset::TwoDim(spatial) => StoredSample::spatial(sample, spatial).map_err(CliError),
    }
}

/// Smallest `bits` with every coordinate of `spatial` below `2^bits`.
fn domain_bits(spatial: &SpatialData) -> u32 {
    spatial
        .points
        .iter()
        .flat_map(|p| [p.coord(0), p.coord(1)])
        .map(|c| 64 - c.leading_zeros())
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Builds a summary of the requested kind. This is the *construction*
/// dispatch — the one place the CLI names concrete summary types; query,
/// merge, and info all operate on the returned `Box<dyn Summary>`.
pub fn build_summary(
    data: &Dataset,
    size: usize,
    seed: u64,
    shards: usize,
    kind: SummaryKind,
) -> Result<Box<dyn Summary>, CliError> {
    if kind != SummaryKind::Sample && shards != 1 {
        return err(format!("--shards supports --kind sample only, not {kind}"));
    }
    match kind {
        SummaryKind::Sample => {
            let (sample, _) = summarize_sharded(data, size, seed, shards)?;
            Ok(Box::new(stored_from(sample, data)?))
        }
        SummaryKind::VarOptReservoir => match data {
            Dataset::OneDim(rows) => {
                if rows.is_empty() {
                    return err("no data rows");
                }
                if size == 0 {
                    return err("summary size must be positive");
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sampler = VarOptSampler::new(size);
                for wk in rows {
                    sampler.push(wk.key, wk.weight, &mut rng);
                }
                Ok(Box::new(sampler))
            }
            Dataset::TwoDim(_) => err("--kind varopt requires 1-D (key weight) data"),
        },
        SummaryKind::QDigest | SummaryKind::Wavelet | SummaryKind::CountSketch => {
            let Dataset::TwoDim(spatial) = data else {
                return err(format!("--kind {kind} requires 2-D (x y weight) data"));
            };
            if spatial.is_empty() {
                return err("no data rows");
            }
            if size == 0 {
                return err("summary size must be positive");
            }
            let bits = domain_bits(spatial);
            // The dyadic summaries shift by `bits`/`level`; coordinates at
            // or above 2^32 would need bits = 33..64, where the builds'
            // per-point (bits+1)² cost explodes and bits = 64 overflows the
            // shifts outright. Reject early with a clean message.
            if bits > 32 {
                return err(format!(
                    "--kind {kind} supports coordinates below 2^32 (data needs 2^{bits})"
                ));
            }
            match kind {
                SummaryKind::QDigest => Ok(Box::new(QDigestSummary::build(spatial, bits, size))),
                SummaryKind::Wavelet => {
                    Ok(Box::new(WaveletSummary::build(spatial, bits, bits, size)))
                }
                SummaryKind::CountSketch => {
                    if bits > 16 {
                        return err(format!(
                            "--kind sketch supports domains up to 2^16 per axis (data needs 2^{bits})"
                        ));
                    }
                    Ok(Box::new(SketchSummary::build(
                        spatial, bits, bits, size, seed,
                    )))
                }
                _ => unreachable!("outer match covers the deterministic kinds"),
            }
        }
    }
}

/// Serializes a sample summary as legacy TSV (with locations for 2-D data).
pub fn write_summary(sample: &Sample, data: &Dataset) -> String {
    let dims = match data {
        Dataset::OneDim(_) => 1,
        Dataset::TwoDim(_) => 2,
    };
    let mut out = String::new();
    let _ = writeln!(out, "#sas-summary tau={} dims={}", sample.tau(), dims);
    for e in sample.iter() {
        match data {
            Dataset::OneDim(_) => {
                let _ = writeln!(out, "{}\t{}\t{}", e.key, e.weight, e.adjusted_weight);
            }
            Dataset::TwoDim(spatial) => {
                let p = spatial.point_of(e.key).expect("sampled key has a location");
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}",
                    e.key,
                    e.weight,
                    e.adjusted_weight,
                    p.coord(0),
                    p.coord(1)
                );
            }
        }
    }
    out
}

/// A deserialized summary ready for querying: a thin wrapper over the
/// erased [`Summary`] object. All behaviour comes from the trait — the
/// wrapper adds only the loading logic (binary frame or legacy TSV).
#[derive(Debug)]
pub struct LoadedSummary(pub Box<dyn Summary>);

impl std::ops::Deref for LoadedSummary {
    type Target = dyn Summary;

    fn deref(&self) -> &Self::Target {
        self.0.as_ref()
    }
}

/// Loads a summary from raw file bytes, accepting every on-disk
/// representation: v1 binary frames and v2 segments are detected by magic,
/// anything else parses as TSV. Segments are hydrated into owned summaries
/// so the query and merge paths behave exactly as for frames.
pub fn load_summary(bytes: &[u8]) -> Result<LoadedSummary, CliError> {
    if sas_codec::is_frame(bytes) {
        return decode_summary(bytes)
            .map(LoadedSummary)
            .map_err(|e| CliError(e.to_string()));
    }
    if sas_codec::segment::is_segment(bytes) {
        return SegmentSummary::from_vec(bytes.to_vec())
            .map(|s| LoadedSummary(s.hydrate()))
            .map_err(|e| CliError(e.to_string()));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| CliError("summary is neither a binary frame nor UTF-8 TSV".into()))?;
    read_summary(text)
}

/// Parses a legacy TSV summary produced by [`write_summary`].
pub fn read_summary(text: &str) -> Result<LoadedSummary, CliError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(CliError("empty summary".into()))?;
    if !header.starts_with("#sas-summary") {
        return err("missing #sas-summary header");
    }
    let mut tau = None;
    let mut dims = None;
    for tok in header.split_whitespace().skip(1) {
        if let Some(v) = tok.strip_prefix("tau=") {
            tau = v.parse::<f64>().ok();
        } else if let Some(v) = tok.strip_prefix("dims=") {
            dims = v.parse::<usize>().ok();
        }
    }
    let tau = tau.ok_or(CliError("header missing tau".into()))?;
    let dims = dims.ok_or(CliError("header missing dims".into()))?;
    if dims != 1 && dims != 2 {
        return err(format!("unsupported dims {dims}"));
    }
    let mut entries = Vec::new();
    let mut points = HashMap::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let want = if dims == 1 { 3 } else { 5 };
        if f.len() != want {
            return err(format!("line {}: expected {want} fields", lineno + 2));
        }
        let key: u64 = f[0]
            .parse()
            .map_err(|_| CliError(format!("line {}: bad key", lineno + 2)))?;
        let weight: f64 = f[1]
            .parse()
            .map_err(|_| CliError(format!("line {}: bad weight", lineno + 2)))?;
        let adjusted: f64 = f[2]
            .parse()
            .map_err(|_| CliError(format!("line {}: bad adjusted weight", lineno + 2)))?;
        entries.push(SampleEntry {
            key,
            weight,
            adjusted_weight: adjusted,
        });
        if dims == 2 {
            let x: u64 = f[3]
                .parse()
                .map_err(|_| CliError(format!("line {}: bad x", lineno + 2)))?;
            let y: u64 = f[4]
                .parse()
                .map_err(|_| CliError(format!("line {}: bad y", lineno + 2)))?;
            points.insert(key, Point::xy(x, y));
        }
    }
    let sample = Sample::from_entries(entries, tau);
    let stored = if dims == 1 {
        StoredSample::one_dim(sample)
    } else {
        StoredSample::two_dim(sample, points).map_err(CliError)?
    };
    Ok(LoadedSummary(Box::new(stored)))
}

/// Parses one axis spec: `lo..hi` or `lo:hi`, either endpoint optional
/// (`..hi` / `:hi` clamps to 0, `lo..` / `lo:` clamps to the domain top,
/// `:` alone spans everything). Reversed bounds are a hard error — never a
/// silent 0-mass range.
fn parse_axis(p: &str) -> Result<(u64, u64), CliError> {
    let (lo, hi) = p
        .split_once("..")
        .or_else(|| p.split_once(':'))
        .ok_or(CliError(format!("bad range '{p}' (want lo..hi or lo:hi)")))?;
    let lo: u64 = if lo.is_empty() {
        0
    } else {
        lo.parse()
            .map_err(|_| CliError(format!("bad bound '{lo}'")))?
    };
    let hi: u64 = if hi.is_empty() {
        u64::MAX
    } else {
        hi.parse()
            .map_err(|_| CliError(format!("bad bound '{hi}'")))?
    };
    if lo > hi {
        return err(format!(
            "reversed range '{p}': lower bound {lo} exceeds upper bound {hi}"
        ));
    }
    Ok((lo, hi))
}

/// Parses a range spec: one axis spec per summary dimension, separated by
/// commas — `lo..hi` (1-D) or `x0..x1,y0..y1` (2-D), open-ended endpoints
/// allowed (`:100,50:` clamps to the domain).
pub fn parse_range(spec: &str, dims: usize) -> Result<Vec<(u64, u64)>, CliError> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != dims {
        return err(format!(
            "range must have {dims} axis spec(s), got {}",
            parts.len()
        ));
    }
    parts.iter().map(|p| parse_axis(p)).collect()
}

/// Parses one query spec (a `--queries` file line or a `--range` value):
///
/// * `total` — the total weight;
/// * `point C[,C]` — a single key / location;
/// * `node LEVEL/INDEX` — a dyadic hierarchy node on axis 0;
/// * a range spec (see [`parse_range`]), or several separated by `;` for a
///   disjoint multi-range sum.
pub fn parse_query(spec: &str, dims: usize) -> Result<Query, CliError> {
    let spec = spec.trim();
    if spec == "total" {
        return Ok(Query::Total);
    }
    if let Some(rest) = spec.strip_prefix("point ") {
        let coords = rest
            .trim()
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<u64>()
                    .map_err(|_| CliError(format!("bad coordinate '{c}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if coords.len() != dims {
            return err(format!(
                "point needs {dims} coordinate(s), got {}",
                coords.len()
            ));
        }
        return Ok(Query::Point(coords));
    }
    if let Some(rest) = spec.strip_prefix("node ") {
        let (level, index) = rest
            .trim()
            .split_once('/')
            .ok_or(CliError(format!("bad node '{rest}' (want LEVEL/INDEX)")))?;
        let level: u32 = level
            .parse()
            .map_err(|_| CliError(format!("bad node level '{level}'")))?;
        let index: u64 = index
            .parse()
            .map_err(|_| CliError(format!("bad node index '{index}'")))?;
        return Ok(Query::HierarchyNode { level, index });
    }
    let boxes = spec
        .split(';')
        .map(|r| parse_range(r.trim(), dims))
        .collect::<Result<Vec<_>, _>>()?;
    let query = if boxes.len() == 1 {
        Query::BoxRange(boxes.into_iter().next().expect("one box"))
    } else {
        Query::MultiRange(boxes)
    };
    // Surface structural problems (overlapping multi-range boxes) here,
    // with the CLI's error prefix, rather than at answer time.
    query.canonical().map_err(|e| CliError(e.to_string()))?;
    Ok(query)
}

/// Answers a batch of queries with error bounds — one pass over the
/// summary's items for sample-based kinds.
pub fn answer_queries(
    summary: &LoadedSummary,
    queries: &[Query],
    confidence: f64,
) -> Result<Vec<Estimate>, CliError> {
    let batch =
        QueryBatch::new(queries.to_vec(), confidence).map_err(|e| CliError(e.to_string()))?;
    batch
        .evaluate(&**summary)
        .map_err(|e| CliError(e.to_string()))
}

/// Output shape for query answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// One human-readable `value ±half [lower, upper] @confidence` line.
    Bounds,
    /// Tab-separated: `query value lower upper variance confidence`.
    Tsv,
    /// A JSON array of answer objects.
    Json,
}

impl OutputFormat {
    /// Parses a `--format` value (`tsv` or `json`).
    pub fn from_name(name: &str) -> Result<Self, CliError> {
        match name {
            "tsv" => Ok(OutputFormat::Tsv),
            "json" => Ok(OutputFormat::Json),
            other => err(format!("unknown --format '{other}' (want tsv or json)")),
        }
    }
}

/// Renders query answers in the requested format.
pub fn format_estimates(queries: &[Query], estimates: &[Estimate], format: OutputFormat) -> String {
    let mut out = String::new();
    match format {
        OutputFormat::Bounds => {
            for e in estimates {
                let _ = writeln!(
                    out,
                    "{} ±{} [{}, {}] @{}",
                    e.value,
                    e.half_width(),
                    e.lower,
                    e.upper,
                    e.confidence
                );
            }
        }
        OutputFormat::Tsv => {
            let _ = writeln!(out, "#query\tvalue\tlower\tupper\tvariance\tconfidence");
            for (q, e) in queries.iter().zip(estimates) {
                let _ = writeln!(
                    out,
                    "{q}\t{}\t{}\t{}\t{}\t{}",
                    e.value, e.lower, e.upper, e.variance, e.confidence
                );
            }
        }
        OutputFormat::Json => {
            let _ = writeln!(out, "[");
            for (i, (q, e)) in queries.iter().zip(estimates).enumerate() {
                let comma = if i + 1 == estimates.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "  {{\"query\": \"{q}\", \"value\": {}, \"lower\": {}, \"upper\": {}, \"variance\": {}, \"confidence\": {}}}{comma}",
                    e.value, e.lower, e.upper, e.variance, e.confidence
                );
            }
            let _ = writeln!(out, "]");
        }
    }
    out
}

/// Merges summaries (disjoint underlying data) through the erased merge —
/// no per-kind branching. `budget` bounds the merged size for kinds that
/// support re-subsampling; `seed` drives the randomized merges.
///
/// Delegates to [`sas_summaries::merge_tree`]: adjacent pairs merge
/// bottom-up in a binary tree (for budgeted samples each merge level adds
/// less than 2 to any interval's discrepancy, so merging `N` shard files
/// pays `O(log₂ N)` levels). The store's window compaction uses the same
/// function, which is what makes `sas merge` a faithful offline replay of
/// a compaction.
pub fn merge_summaries(
    summaries: Vec<LoadedSummary>,
    budget: Option<usize>,
    seed: u64,
) -> Result<LoadedSummary, CliError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let erased: Vec<Box<dyn Summary>> = summaries.into_iter().map(|s| s.0).collect();
    sas_summaries::merge_tree(erased, budget, &mut rng)
        .map(LoadedSummary)
        .map_err(|e| CliError(e.to_string()))
}

/// Renders the `sas info` report: build metadata from the erased summary
/// (kind, size on the paper's space axis, serialized bytes) plus the
/// on-disk size when the summary came from a file.
pub fn info_text(summary: &LoadedSummary, file_bytes: Option<u64>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "kind: {}", summary.kind());
    let _ = writeln!(out, "keys: {}", summary.item_count());
    let _ = writeln!(out, "dims: {}", summary.dims());
    if let Some(tau) = summary.tau() {
        let _ = writeln!(out, "tau: {tau}");
    }
    let _ = writeln!(out, "total estimate: {}", summary.total_estimate());
    let _ = writeln!(
        out,
        "serialized bytes: {}",
        encode_summary(&**summary).len()
    );
    if let Some(n) = file_bytes {
        let _ = writeln!(out, "file bytes: {n}");
    }
    out
}

/// Renders the `sas info` summary of a store directory from its decoded
/// manifest: one block per dataset with its lifecycle policy (`default`
/// when none is installed), the window count per series level, and the
/// oldest/newest window span. Datasets that only have a policy (no
/// windows yet, or all expired) still get a block — the policy is state
/// worth seeing.
pub fn store_info_text(manifest: &sas_store::manifest::Manifest) -> String {
    use std::collections::BTreeMap;
    /// Per-series rollup: (window count, oldest start, newest end).
    type SeriesSpans = BTreeMap<(String, String), (u64, u64, u64)>;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "store: {} window{}, manifest sequence {}",
        manifest.entries.len(),
        if manifest.entries.len() == 1 { "" } else { "s" },
        manifest.sequence
    );
    let mut datasets: BTreeMap<&str, SeriesSpans> = BTreeMap::new();
    for e in &manifest.entries {
        let series = (e.key.kind.to_string(), e.key.level.to_string());
        let slot = datasets
            .entry(e.key.dataset.as_str())
            .or_default()
            .entry(series)
            .or_insert((0, u64::MAX, 0));
        slot.0 += 1;
        slot.1 = slot.1.min(e.key.start);
        slot.2 = slot.2.max(e.key.end());
    }
    for dataset in manifest.policies.keys() {
        datasets.entry(dataset.as_str()).or_default();
    }
    for (dataset, series) in &datasets {
        let _ = writeln!(out, "dataset {dataset}");
        let policy = manifest
            .policies
            .get(*dataset)
            .map(|p| p.to_string())
            .unwrap_or_else(|| "default".into());
        let _ = writeln!(out, "  policy: {policy}");
        for ((kind, level), (count, oldest, newest)) in series {
            let _ = writeln!(
                out,
                "  {kind}@{level}: {count} window{}, span {oldest}..{newest}",
                if *count == 1 { "" } else { "s" }
            );
        }
    }
    out
}

/// Renders the `sas info` report for a v2 segment file: the parsed header
/// (format version, kind, CRC status, section table with ids, element
/// counts, and byte offsets) plus the summary metadata read through the
/// zero-copy view. A segment file *is* the queryable representation — it
/// is served in place, never re-encoded — so unlike [`info_text`] there is
/// no "serialized bytes" line.
pub fn segment_info_text(bytes: &[u8]) -> Result<String, CliError> {
    let view = sas_codec::segment::SegmentView::parse(bytes)
        .map_err(|e| CliError(format!("bad segment: {e}")))?;
    let summary = SegmentSummary::from_vec(bytes.to_vec())
        .map_err(|e| CliError(format!("bad segment: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "format: segment v{}",
        sas_codec::segment::SEGMENT_VERSION
    );
    let _ = writeln!(out, "kind: {}", summary.kind());
    let _ = writeln!(out, "keys: {}", summary.item_count());
    let _ = writeln!(out, "dims: {}", summary.dims());
    if let Some(tau) = summary.tau() {
        let _ = writeln!(out, "tau: {tau}");
    }
    let _ = writeln!(out, "total estimate: {}", summary.total_estimate());
    let _ = writeln!(out, "file bytes: {}", view.file_len());
    // SegmentView::parse checks the CRC-32 trailer before anything else;
    // reaching this line certifies it.
    let _ = writeln!(out, "crc: ok");
    let _ = writeln!(out, "sections: {}", view.sections().len());
    let _ = writeln!(out, "  id\telements\toffset\tbytes");
    for s in view.sections() {
        let _ = writeln!(out, "  {}\t{}\t{}\t{}", s.id, s.count, s.offset, s.len);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE_D: &str = "# key weight\n1\t5.0\n2\t3.0\n9\t1.5\n";

    /// The point estimate of a box query.
    fn box_value(s: &dyn Summary, range: &[(u64, u64)]) -> f64 {
        s.answer(&Query::BoxRange(range.to_vec()), 0.95)
            .unwrap()
            .value
    }
    const TWO_D: &str = "10\t20\t5.0\n30\t40\t2.0\n50\t60\t8.0\n";

    #[test]
    fn parse_one_dim() {
        let d = parse_dataset(ONE_D).unwrap();
        match d {
            Dataset::OneDim(rows) => {
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[0].key, 1);
                assert_eq!(rows[2].weight, 1.5);
            }
            _ => panic!("wrong shape"),
        }
    }

    #[test]
    fn parse_two_dim() {
        let d = parse_dataset(TWO_D).unwrap();
        match d {
            Dataset::TwoDim(s) => {
                assert_eq!(s.len(), 3);
                assert_eq!(s.total_weight(), 15.0);
            }
            _ => panic!("wrong shape"),
        }
    }

    #[test]
    fn parse_rejects_mixed_columns() {
        assert!(parse_dataset("1\t2\n1\t2\t3\n").is_err());
        assert!(parse_dataset("").is_err());
        assert!(parse_dataset("1\t-3\n").is_err());
        assert!(parse_dataset("1\tx\n").is_err());
    }

    #[test]
    fn summary_roundtrip_one_dim() {
        let d = parse_dataset(ONE_D).unwrap();
        let (sample, dims) = summarize(&d, 3, 7).unwrap();
        assert_eq!(dims, 1);
        assert_eq!(sample.len(), 3);
        let text = write_summary(&sample, &d);
        let loaded = read_summary(&text).unwrap();
        assert_eq!(loaded.dims(), 1);
        assert_eq!(loaded.item_count(), 3);
        assert_eq!(loaded.kind(), SummaryKind::Sample);
        // Full summary: estimates exact.
        let r = parse_range("0..100", 1).unwrap();
        assert!((box_value(&*loaded, &r) - 9.5).abs() < 1e-9);
    }

    #[test]
    fn summary_roundtrip_two_dim() {
        let d = parse_dataset(TWO_D).unwrap();
        let (sample, dims) = summarize(&d, 3, 7).unwrap();
        assert_eq!(dims, 2);
        let text = write_summary(&sample, &d);
        let loaded = read_summary(&text).unwrap();
        assert_eq!(loaded.dims(), 2);
        let r = parse_range("0..39,0..59", 2).unwrap();
        // Contains points (10,20) and (30,40): weight 7.
        assert!((box_value(&*loaded, &r) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn binary_roundtrip_matches_tsv_queries() {
        let d = parse_dataset(ONE_D).unwrap();
        let erased = build_summary(&d, 3, 7, 1, SummaryKind::Sample).unwrap();
        let bytes = encode_summary(erased.as_ref());
        let loaded = load_summary(&bytes).unwrap();
        assert_eq!(loaded.kind(), SummaryKind::Sample);
        let r = parse_range("0..100", 1).unwrap();
        assert_eq!(
            box_value(&*loaded, &r).to_bits(),
            box_value(erased.as_ref(), &r).to_bits()
        );
    }

    #[test]
    fn build_summary_covers_every_kind() {
        let d1 = parse_dataset(ONE_D).unwrap();
        let d2 = parse_dataset(TWO_D).unwrap();
        for kind in SummaryKind::all() {
            let data = match kind {
                SummaryKind::Sample | SummaryKind::VarOptReservoir => &d1,
                _ => &d2,
            };
            let s = build_summary(data, 3, 7, 1, kind).unwrap();
            assert_eq!(s.kind(), kind, "{kind}");
            // Total weight is 9.5 (1-D) / 15.0 (2-D); every kind's full-
            // domain estimate recovers it (sketch: within noise, but the
            // budget here far exceeds the data).
            let truth = if s.dims() == 1 { 9.5 } else { 15.0 };
            let full: Vec<(u64, u64)> = vec![(0, u64::MAX); s.dims()];
            let est = box_value(s.as_ref(), &full);
            assert!((est - truth).abs() < 1e-6, "{kind}: {est} vs {truth}");
            // And the binary round trip is queried identically.
            let loaded = load_summary(&encode_summary(s.as_ref())).unwrap();
            assert_eq!(
                box_value(&*loaded, &full).to_bits(),
                est.to_bits(),
                "{kind}"
            );
        }
    }

    #[test]
    fn build_summary_rejects_shape_mismatches() {
        let d1 = parse_dataset(ONE_D).unwrap();
        let d2 = parse_dataset(TWO_D).unwrap();
        assert!(build_summary(&d2, 3, 0, 1, SummaryKind::VarOptReservoir).is_err());
        for kind in [
            SummaryKind::QDigest,
            SummaryKind::Wavelet,
            SummaryKind::CountSketch,
        ] {
            assert!(build_summary(&d1, 3, 0, 1, kind).is_err(), "{kind}");
            assert!(build_summary(&d2, 3, 0, 2, kind).is_err(), "{kind} sharded");
        }
    }

    #[test]
    fn merge_summaries_concatenates_and_respects_budget() {
        let (a, b): (Vec<WeightedKey>, Vec<WeightedKey>) = (
            (0..40u64)
                .map(|k| WeightedKey::new(k, 1.0 + k as f64))
                .collect(),
            (40..80u64)
                .map(|k| WeightedKey::new(k, 1.0 + k as f64))
                .collect(),
        );
        let truth: f64 = (0..80u64).map(|k| 1.0 + k as f64).sum();
        let build = |rows: &Vec<WeightedKey>, seed| {
            build_summary(
                &Dataset::OneDim(rows.clone()),
                20,
                seed,
                1,
                SummaryKind::Sample,
            )
            .map(LoadedSummary)
            .unwrap()
        };
        // Unbudgeted: concatenation, 40 entries.
        let merged = merge_summaries(vec![build(&a, 1), build(&b, 2)], None, 3).unwrap();
        assert_eq!(merged.item_count(), 40);
        assert!((merged.total_estimate() - truth).abs() / truth < 1e-9);
        // Budgeted: re-subsampled down to 25, total still conserved.
        let merged = merge_summaries(vec![build(&a, 1), build(&b, 2)], Some(25), 3).unwrap();
        assert_eq!(merged.item_count(), 25);
        assert!((merged.total_estimate() - truth).abs() / truth < 1e-9);
    }

    #[test]
    fn merge_summaries_rejects_kind_mismatch() {
        let d1 = parse_dataset(ONE_D).unwrap();
        let a = LoadedSummary(build_summary(&d1, 3, 0, 1, SummaryKind::Sample).unwrap());
        let b = LoadedSummary(build_summary(&d1, 3, 0, 1, SummaryKind::VarOptReservoir).unwrap());
        assert!(merge_summaries(vec![a, b], None, 0).is_err());
        assert!(merge_summaries(vec![], None, 0).is_err());
    }

    #[test]
    fn info_reports_kind_and_sizes() {
        let d = parse_dataset(ONE_D).unwrap();
        let loaded = LoadedSummary(build_summary(&d, 3, 7, 1, SummaryKind::Sample).unwrap());
        let encoded = encode_summary(&*loaded).len();
        let info = info_text(&loaded, Some(999));
        assert!(info.contains("kind: sample"), "{info}");
        assert!(info.contains("keys: 3"), "{info}");
        assert!(
            info.contains(&format!("serialized bytes: {encoded}")),
            "{info}"
        );
        assert!(info.contains("file bytes: 999"), "{info}");
        // Without a file, the on-disk line is omitted.
        assert!(!info_text(&loaded, None).contains("file bytes"));
    }

    #[test]
    fn segment_info_reports_header_not_serialized_bytes() {
        let d = parse_dataset(ONE_D).unwrap();
        let s = build_summary(&d, 3, 7, 1, SummaryKind::Sample).unwrap();
        let seg = sas_summaries::encode_segment(s.as_ref()).unwrap();
        let info = segment_info_text(&seg).unwrap();
        assert!(info.contains("format: segment v2"), "{info}");
        assert!(info.contains("kind: sample"), "{info}");
        assert!(info.contains("keys: 3"), "{info}");
        assert!(info.contains("crc: ok"), "{info}");
        assert!(
            info.contains(&format!("file bytes: {}", seg.len())),
            "{info}"
        );
        // The section table lists every column with its offset.
        assert!(info.contains("sections: "), "{info}");
        assert!(info.contains("  id\telements\toffset\tbytes"), "{info}");
        // Segments are served in place; the v1 re-encode size is not shown.
        assert!(!info.contains("serialized bytes"), "{info}");
        // A flipped CRC byte is a clear error, not a panic.
        let mut bad = seg.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let msg = segment_info_text(&bad).unwrap_err().to_string();
        assert!(msg.contains("bad segment"), "{msg}");
        // A v1 frame is rejected by the segment path.
        assert!(segment_info_text(&encode_summary(s.as_ref())).is_err());
    }

    #[test]
    fn load_summary_hydrates_segments_for_query_and_merge() {
        let d = parse_dataset(ONE_D).unwrap();
        let s = build_summary(&d, 3, 7, 1, SummaryKind::Sample).unwrap();
        let seg = sas_summaries::encode_segment(s.as_ref()).unwrap();
        let loaded = load_summary(&seg).unwrap();
        let r = parse_range("0..100", 1).unwrap();
        assert_eq!(
            box_value(&*loaded, &r).to_bits(),
            box_value(s.as_ref(), &r).to_bits()
        );
        // Hydration is total: the loaded summary re-encodes to the exact v1
        // frame, and merging (which raw segments refuse) just works.
        assert_eq!(encode_summary(&*loaded), encode_summary(s.as_ref()));
        let other = LoadedSummary(build_summary(&d, 3, 9, 1, SummaryKind::Sample).unwrap());
        let merged = merge_summaries(vec![loaded, other], None, 1).unwrap();
        assert_eq!(merged.kind(), SummaryKind::Sample);
    }

    #[test]
    fn sharded_summarize_matches_budget_and_total() {
        use std::fmt::Write as _;
        let mut text = String::new();
        let mut truth = 0.0;
        for i in 0..4000u64 {
            let w = 0.25 + (i % 13) as f64;
            truth += w;
            let _ = writeln!(text, "{i}\t{w}");
        }
        let d = parse_dataset(&text).unwrap();
        let (sample, dims) = summarize_sharded(&d, 200, 5, 4).unwrap();
        assert_eq!(dims, 1);
        assert_eq!(sample.len(), 200);
        assert!((sample.total_estimate() - truth).abs() / truth < 1e-9);
        // Same seed + shards → identical summary.
        let (again, _) = summarize_sharded(&d, 200, 5, 4).unwrap();
        let a: Vec<_> = sample.keys().collect();
        let b: Vec<_> = again.keys().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn per_shard_samples_merge_back_to_sharded_result() {
        use std::fmt::Write as _;
        let mut text = String::new();
        for i in 0..3000u64 {
            let w = 0.5 + (i % 11) as f64;
            let _ = writeln!(text, "{i}\t{w}");
        }
        let d = parse_dataset(&text).unwrap();
        let shards = summarize_per_shard(&d, 100, 7, 4).unwrap();
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.len(), 100);
        }
        // 2-D data is rejected.
        let d2 = parse_dataset(TWO_D).unwrap();
        assert!(summarize_per_shard(&d2, 10, 7, 2).is_err());
    }

    #[test]
    fn sharded_rejects_bad_configs() {
        let d1 = parse_dataset(ONE_D).unwrap();
        assert!(summarize_sharded(&d1, 3, 0, 0).is_err());
        let d2 = parse_dataset(TWO_D).unwrap();
        assert!(summarize_sharded(&d2, 3, 0, 2).is_err());
        assert!(summarize_sharded(&d2, 3, 0, 1).is_ok());
    }

    #[test]
    fn range_parse_errors() {
        assert!(parse_range("5..3", 1).is_err());
        assert!(parse_range("1..2", 2).is_err());
        assert!(parse_range("a..b", 1).is_err());
        assert_eq!(parse_range("1..2,3..4", 2).unwrap(), vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn range_parse_open_endpoints_clamp_to_domain() {
        assert_eq!(parse_range("..100", 1).unwrap(), vec![(0, 100)]);
        assert_eq!(parse_range("50..", 1).unwrap(), vec![(50, u64::MAX)]);
        assert_eq!(
            parse_range(":100,50:", 2).unwrap(),
            vec![(0, 100), (50, u64::MAX)]
        );
        assert_eq!(parse_range(":", 1).unwrap(), vec![(0, u64::MAX)]);
        assert_eq!(parse_range("7:9", 1).unwrap(), vec![(7, 9)]);
        // Reversed bounds are a clear error, not a silent empty range.
        let msg = parse_range("9:3", 1).unwrap_err().to_string();
        assert!(msg.contains("reversed"), "{msg}");
        let msg = parse_range("5..3", 1).unwrap_err().to_string();
        assert!(msg.contains("reversed"), "{msg}");
    }

    #[test]
    fn query_specs_parse_every_kind() {
        assert_eq!(parse_query("total", 1).unwrap(), Query::Total);
        assert_eq!(parse_query("point 42", 1).unwrap(), Query::Point(vec![42]));
        assert_eq!(
            parse_query("point 3,7", 2).unwrap(),
            Query::Point(vec![3, 7])
        );
        assert_eq!(
            parse_query("node 4/3", 1).unwrap(),
            Query::HierarchyNode { level: 4, index: 3 }
        );
        assert_eq!(
            parse_query("10..19", 1).unwrap(),
            Query::BoxRange(vec![(10, 19)])
        );
        assert_eq!(
            parse_query("0..9;20..29", 1).unwrap(),
            Query::MultiRange(vec![vec![(0, 9)], vec![(20, 29)]])
        );
        // Errors: wrong arity, overlapping multi-range, bad node.
        assert!(parse_query("point 1,2", 1).is_err());
        assert!(parse_query("0..10;5..20", 1).is_err());
        assert!(parse_query("node 99", 1).is_err());
    }

    #[test]
    fn answers_carry_bounds_and_match_plain_query() {
        use std::fmt::Write as _;
        let mut text = String::new();
        for i in 0..2000u64 {
            let w = 0.5 + (i % 7) as f64;
            let _ = writeln!(text, "{i}\t{w}");
        }
        let d = parse_dataset(&text).unwrap();
        let loaded = LoadedSummary(build_summary(&d, 120, 3, 1, SummaryKind::Sample).unwrap());
        let queries = vec![
            parse_query("100..999", 1).unwrap(),
            parse_query("0..99;1500..1999", 1).unwrap(),
            parse_query("total", 1).unwrap(),
            parse_query("point 17", 1).unwrap(),
            parse_query("node 8/2", 1).unwrap(),
        ];
        let estimates = answer_queries(&loaded, &queries, 0.9).unwrap();
        assert_eq!(estimates.len(), queries.len());
        for (q, e) in queries.iter().zip(&estimates) {
            assert!(e.lower <= e.value && e.value <= e.upper, "{q}: {e:?}");
        }
        // The batched box answer's value is bit-identical to a single
        // answer at another confidence.
        let r = parse_range("100..999", 1).unwrap();
        assert_eq!(
            estimates[0].value.to_bits(),
            box_value(&*loaded, &r).to_bits()
        );
        // The exact total is inside the Total query's interval.
        let truth: f64 = (0..2000u64).map(|i| 0.5 + (i % 7) as f64).sum();
        assert!(
            estimates[2].lower <= truth && truth <= estimates[2].upper,
            "total {truth} outside [{}, {}]",
            estimates[2].lower,
            estimates[2].upper
        );
    }

    #[test]
    fn estimate_formats_render() {
        let queries = vec![Query::interval(0, 9), Query::Total];
        let estimates = vec![
            Estimate {
                value: 10.0,
                variance: 4.0,
                lower: 7.0,
                upper: 15.0,
                confidence: 0.9,
            },
            Estimate::exact(40.0),
        ];
        let bounds = format_estimates(&queries, &estimates, OutputFormat::Bounds);
        assert!(bounds.contains("10 ±4 [7, 15] @0.9"), "{bounds}");
        let tsv = format_estimates(&queries, &estimates, OutputFormat::Tsv);
        assert!(tsv.starts_with("#query\tvalue"), "{tsv}");
        assert!(tsv.contains("0..9\t10\t7\t15\t4\t0.9"), "{tsv}");
        assert!(tsv.contains("total\t40\t40\t40\t0\t1"), "{tsv}");
        let json = format_estimates(&queries, &estimates, OutputFormat::Json);
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(
            json.contains("\"query\": \"0..9\", \"value\": 10"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), 2, "{json}");
        assert!(OutputFormat::from_name("bogus").is_err());
        assert_eq!(OutputFormat::from_name("json").unwrap(), OutputFormat::Json);
    }

    #[test]
    fn read_summary_rejects_garbage() {
        assert!(read_summary("").is_err());
        assert!(read_summary("not a header\n1\t2\t3\n").is_err());
        assert!(read_summary("#sas-summary tau=1.0 dims=7\n").is_err());
        assert!(read_summary("#sas-summary tau=1.0 dims=1\n1\t2\n").is_err());
        // Corrupted binary is an error, not a panic.
        assert!(load_summary(b"SASF garbage").is_err());
        assert!(load_summary(&[0xFF, 0xFE, 0x00]).is_err());
    }

    #[test]
    fn large_roundtrip_estimates_track_truth() {
        use std::fmt::Write as _;
        let mut text = String::new();
        for i in 0..5000u64 {
            let w = 0.5 + (i % 17) as f64;
            let _ = writeln!(text, "{i}\t{w}");
        }
        let d = parse_dataset(&text).unwrap();
        let (sample, _) = summarize(&d, 300, 42).unwrap();
        let loaded = read_summary(&write_summary(&sample, &d)).unwrap();
        let r = parse_range("1000..3999", 1).unwrap();
        let est = box_value(&*loaded, &r);
        let truth: f64 = (1000..4000u64).map(|i| 0.5 + (i % 17) as f64).sum();
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est {est} vs truth {truth}"
        );
    }
}

//! Spans recorded in memory around calls into each layer's public
//! functions, and the in-process replay that produces them.
//!
//! The daemon is not instrumented: the traced run replays the timed
//! phase's request stream, single-threaded, against a `Store` opened on a
//! copy of the pre-built store directory, calling the same public
//! functions the daemon calls (`wire` codecs, `decode_summary`,
//! `Store::estimate`, `Store::ingest`, `Store::lifecycle_tick`).
//!
//! Some work happens inside a call the benchmark cannot enter: the
//! per-window answers and their union inside `Store::estimate`, the merge
//! and window encode inside `Store::ingest`. *Probe* spans measure that
//! work again by calling the same functions outside the request
//! (`Snapshot::matching`, `Summary::answer` on each window it returns,
//! `Estimate::merge_disjoint` for the union, `Summary::merge_in_place`,
//! `encode_summary`).
//! A probe is recorded as a child of the span whose work it re-measures,
//! so the self-time rollup moves that time from the parent's layer to the
//! probe's; probes are not part of the request's own duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_store::window::{window_seed, WindowKey};
use sas_store::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use sas_store::{hydrate_clone, LifecycleStats, Store, StoreConfig};
use sas_summaries::{decode_summary, encode_summary, Estimate, SummaryKind};

use crate::stats::{mean, percentile_of, Metrics};
use crate::workload::{Op, Workload, CONFIDENCE};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    /// Request id (`u64::MAX` for work outside any request).
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Re-measures work inside `parent` (see the module docs).
    pub probe: bool,
    /// A size attached to the span (rows, bytes, items).
    pub count: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Span recorder. When off, `begin`/`end` record nothing and read no
/// clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Returned by [`Tracer::begin`] when tracing is off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded (probes run only then).
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.open(layer, name, parent, req, false)
    }

    /// Opens a probe span re-measuring work inside `parent`.
    pub fn probe(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: usize,
        req: u64,
    ) -> usize {
        self.open(
            layer,
            name,
            (parent != NO_SPAN).then_some(parent),
            req,
            true,
        )
    }

    fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        probe: bool,
    ) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            req,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            probe,
            count: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.end_with(id, 0);
    }

    /// Closes a span, attaching a size to it.
    pub fn end_with(&mut self, id: usize, count: u64) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
    }

    /// Durations (µs) of every span with this layer and name.
    pub fn us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.named(layer, name).map(Span::us).collect()
    }

    pub fn named<'a>(
        &'a self,
        layer: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// children (probes included) cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as TSV, one per line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out =
            String::from("id\tparent\treq\tlayer\tname\tstart_ns\tend_ns\tprobe\tcount\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = if s.req == u64::MAX {
                "-".to_string()
            } else {
                s.req.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{req}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer, s.name, s.start_ns, s.end_ns, s.probe as u8, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What a replay measured beyond its spans.
pub struct Replay {
    /// Sum of the requests' own durations (probes excluded), seconds.
    pub request_s: f64,
    pub open_s: f64,
    pub ticks: Vec<LifecycleStats>,
    pub estimates: u64,
    pub hits: u64,
    /// `Store::estimate` durations (µs) of cache hits and misses; filled
    /// only when tracing.
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub windows_consulted: u64,
    pub ingests: u64,
    /// `wchar` bytes written during `Store::ingest` calls.
    pub ingest_wchar: u64,
    pub catalog_windows: u64,
    pub frame_bytes_per_window: f64,
}

/// Replays `ops` (with their intended send times, in seconds) against a
/// store opened on `dir`, ticking the lifecycle once per second of
/// schedule as the daemon's event loop does.
pub fn replay(
    w: &Workload,
    dir: &Path,
    ops: &[(f64, Op)],
    t: &mut Tracer,
) -> Result<Replay, String> {
    let open_started = Instant::now();
    let span = t.begin("store", "open", None, u64::MAX);
    let store =
        Store::open(dir, StoreConfig::default()).map_err(|e| format!("replay open: {e}"))?;
    t.end(span);
    let open_s = open_started.elapsed().as_secs_f64();
    for s in &w.series {
        if let Some(p) = &s.policy {
            store
                .set_policy(s.dataset, p.clone())
                .map_err(|e| format!("replay policy: {e}"))?;
        }
    }
    let mut out = Replay {
        request_s: 0.0,
        open_s,
        ticks: Vec::new(),
        estimates: 0,
        hits: 0,
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        windows_consulted: 0,
        ingests: 0,
        ingest_wchar: 0,
        catalog_windows: 0,
        frame_bytes_per_window: 0.0,
    };
    let mut next_tick = 1.0;
    for (i, (at, op)) in ops.iter().enumerate() {
        let req = i as u64;
        if *at >= next_tick {
            next_tick = at.floor() + 1.0;
            let span = t.begin("store", "lifecycle_tick", None, u64::MAX);
            let stats = store
                .lifecycle_tick()
                .map_err(|e| format!("replay tick: {e}"))?;
            t.end_with(span, (stats.rollups + stats.expired) as u64);
            out.ticks.push(stats);
        }
        // The merge the ingest will do, re-measured on a copy of the
        // window beforehand (the window is replaced by the ingest).
        let merge_probe = match op {
            Op::Ingest { series, batch, ts } if t.on() => {
                let s = &w.series[*series];
                let key = WindowKey::minute(s.dataset, s.kind, *ts);
                store.snapshot().windows.get(&key).map(|existing| {
                    (
                        key.clone(),
                        hydrate_clone(existing.summary.as_ref()),
                        existing.batches,
                        &s.batches[*batch].frame,
                    )
                })
            }
            _ => None,
        };

        let request = w.request(op);
        let tag = match op {
            Op::Estimate { .. } => "estimate",
            Op::Ingest { .. } => "ingest",
        };
        let started = Instant::now();
        let root = t.begin("replay", tag, None, req);
        let span = t.begin("wire", "encode_request", Some(root), req);
        let frame = encode_request(&request);
        t.end_with(span, frame.len() as u64);
        let span = t.begin("wire", "decode_request", Some(root), req);
        let decoded = decode_request(&frame).map_err(|e| format!("replay decode_request: {e}"))?;
        t.end(span);
        let (response, store_span, cached) = match decoded {
            Request::Estimate {
                dataset,
                kind,
                query,
                confidence,
                time,
            } => {
                let span = t.begin("store", "estimate", Some(root), req);
                let answer = store
                    .estimate(&dataset, kind, &query, confidence, time)
                    .map_err(|e| format!("replay estimate: {e}"))?;
                t.end_with(span, answer.windows);
                if span != NO_SPAN {
                    let us = t.spans[span].us();
                    if answer.cached {
                        out.hit_us.push(us);
                    } else {
                        out.miss_us.push(us);
                    }
                }
                out.estimates += 1;
                out.hits += answer.cached as u64;
                out.windows_consulted += answer.windows;
                (
                    Response::Estimate {
                        estimate: answer.estimate,
                        windows: answer.windows,
                        cached: answer.cached,
                    },
                    span,
                    answer.cached,
                )
            }
            Request::Ingest { dataset, ts, frame } => {
                let span = t.begin("codec", "decode_summary", Some(root), req);
                let batch = decode_summary(&frame).map_err(|e| format!("replay batch: {e}"))?;
                t.end_with(span, frame.len() as u64);
                let wchar = crate::sys::self_wchar();
                let span = t.begin("store", "ingest", Some(root), req);
                let window = store
                    .ingest(&dataset, ts, batch)
                    .map_err(|e| format!("replay ingest: {e}"))?;
                t.end(span);
                out.ingest_wchar += crate::sys::self_wchar().saturating_sub(wchar);
                out.ingests += 1;
                (
                    Response::Ingest {
                        level: window.key.level,
                        start: window.key.start,
                        items: window.summary.item_count() as u64,
                    },
                    span,
                    false,
                )
            }
            other => return Err(format!("replay: unexpected request {other:?}")),
        };
        let span = t.begin("wire", "encode_response", Some(root), req);
        let bytes = encode_response(&response);
        t.end_with(span, bytes.len() as u64);
        let span = t.begin("wire", "decode_response", Some(root), req);
        let request_tag = sas_codec::open_frame(&frame)
            .map_err(|e| e.to_string())?
            .kind;
        decode_response(&bytes, request_tag).map_err(|e| format!("replay decode_response: {e}"))?;
        t.end(span);
        t.end(root);
        out.request_s += started.elapsed().as_secs_f64();

        if let Some((key, mut merged, batches, frame)) = merge_probe {
            let batch = decode_summary(frame).map_err(|e| e.to_string())?;
            let mut rng =
                StdRng::seed_from_u64(window_seed(&key).wrapping_add(batches.wrapping_mul(GOLDEN)));
            let span = t.probe("summaries", "merge", store_span, req);
            merged
                .merge_in_place(batch, None, &mut rng)
                .map_err(|e| format!("merge probe: {e}"))?;
            t.end_with(span, merged.item_count() as u64);
            let span = t.probe("codec", "encode_window", store_span, req);
            let bytes = encode_summary(merged.as_ref());
            t.end_with(span, bytes.len() as u64);
        }
        if let (
            Op::Estimate {
                series,
                query,
                time,
            },
            false,
            true,
        ) = (op, cached, t.on())
        {
            // `Snapshot::estimate` in its parts: the window scan, one
            // answer per window, and the union (δ/k split and the sum of
            // the window estimates).
            let s = &w.series[*series];
            let snap = store.snapshot();
            let span = t.probe("store", "matching", store_span, req);
            let windows = snap.matching(s.dataset, s.kind, *time);
            t.end_with(span, windows.len() as u64);
            let name = if s.kind == SummaryKind::VarOptReservoir {
                "answer.varopt"
            } else {
                "answer.sample"
            };
            let per_window = 1.0 - (1.0 - CONFIDENCE) / windows.len().max(1) as f64;
            let mut answers = Vec::with_capacity(windows.len());
            for win in &windows {
                let span = t.probe("summaries", name, store_span, req);
                answers.push(
                    win.summary
                        .answer(query, per_window)
                        .map_err(|e| format!("answer probe: {e}"))?,
                );
                t.end_with(span, win.summary.item_count() as u64);
            }
            let span = t.probe("summaries", "union", store_span, req);
            let mut acc = Estimate::exact(0.0);
            for a in &answers {
                acc.merge_disjoint(a);
            }
            std::hint::black_box(acc);
            t.end_with(span, answers.len() as u64);
        }
    }
    let rows = store.list();
    out.catalog_windows = rows.len() as u64;
    out.frame_bytes_per_window = mean(
        &rows
            .iter()
            .map(|r| r.frame_bytes as f64)
            .collect::<Vec<_>>(),
    );
    Ok(out)
}

/// The multiplier spreading a window's batch counter into its merge seed
/// (the store's ingest-merge seeding, reproduced so the merge probe does
/// the same work the ingest did).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Per-layer metrics derived from a traced replay (and the set-up spans
/// recorded in the same tracer).
pub fn layer_metrics(t: &Tracer, r: &Replay, m: &mut Metrics) {
    let p50 = |v: Vec<f64>| percentile_of(&v, 50.0);
    let p99 = |v: Vec<f64>| percentile_of(&v, 99.0);

    let mut build_us = Vec::new();
    let mut keys = 0u64;
    for name in ["sample_product", "order_sample", "varopt_push"] {
        for s in t.named("sampling", name) {
            build_us.push(s.us());
            keys += s.count;
        }
    }
    m.put("sampling.build_us_per_batch", mean(&build_us), "us");
    let build_s: f64 = build_us.iter().sum::<f64>() / 1e6;
    m.put(
        "sampling.keys_per_s",
        keys as f64 / build_s.max(1e-12),
        "1/s",
    );

    // Window encodes on the ingest path when the workload ingests into
    // existing windows; otherwise the batch encodes of set-up.
    let mut encode = t.us("codec", "encode_window");
    if encode.is_empty() {
        encode = t.us("codec", "encode_summary");
    }
    m.put("codec.encode_us", p50(encode), "us");
    m.put(
        "codec.decode_us",
        p50(t.us("codec", "decode_summary")),
        "us",
    );
    let frames: Vec<f64> = t
        .named("codec", "encode_summary")
        .map(|s| s.count as f64)
        .collect();
    m.put("codec.frame_bytes", mean(&frames), "B");

    // Wire spans of each request tag (their parent is the request root).
    let by_tag = |name: &'static str, tag: &'static str| -> Vec<&Span> {
        t.named("wire", name)
            .filter(|s| s.parent.is_some_and(|p| t.spans[p].name == tag))
            .collect()
    };
    for tag in ["estimate", "ingest"] {
        let enc: Vec<f64> = by_tag("encode_request", tag)
            .iter()
            .map(|s| s.us())
            .collect();
        m.put(format!("wire.encode_request_us.{tag}"), p50(enc), "us");
    }
    for tag in ["estimate", "ingest"] {
        let dec: Vec<f64> = by_tag("decode_response", tag)
            .iter()
            .map(|s| s.us())
            .collect();
        m.put(format!("wire.decode_response_us.{tag}"), p50(dec), "us");
    }
    let req_bytes: Vec<f64> = by_tag("encode_request", "ingest")
        .iter()
        .map(|s| s.count as f64)
        .collect();
    m.put("wire.request_bytes.ingest", mean(&req_bytes), "B");
    let resp_bytes: Vec<f64> = by_tag("encode_response", "estimate")
        .iter()
        .map(|s| s.count as f64)
        .collect();
    m.put("wire.response_bytes.estimate", mean(&resp_bytes), "B");

    let ingest_us = t.us("store", "ingest");
    m.put("store.ingest_us_p50", p50(ingest_us.clone()), "us");
    m.put("store.ingest_us_p99", p99(ingest_us), "us");
    m.put(
        "store.write_bytes_per_ingest",
        r.ingest_wchar as f64 / (r.ingests.max(1)) as f64,
        "B",
    );
    let tick_ms: Vec<f64> = t
        .us("store", "lifecycle_tick")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    m.put("store.lifecycle_tick_ms_p50", p50(tick_ms.clone()), "ms");
    m.put(
        "store.lifecycle_tick_ms_max",
        percentile_of(&tick_ms, 100.0),
        "ms",
    );
    let ticks = r.ticks.len().max(1) as f64;
    m.put(
        "store.rollups_per_tick",
        r.ticks.iter().map(|s| s.rollups as f64).sum::<f64>() / ticks,
        "count",
    );
    m.put(
        "store.expired_per_tick",
        r.ticks.iter().map(|s| s.expired as f64).sum::<f64>() / ticks,
        "count",
    );
    m.put(
        "store.cache_hit_ratio",
        r.hits as f64 / r.estimates.max(1) as f64,
        "fraction",
    );
    m.put("store.estimate_hit_us_p50", p50(r.hit_us.clone()), "us");
    m.put("store.estimate_miss_us_p50", p50(r.miss_us.clone()), "us");
    m.put("store.estimate_miss_us_p99", p99(r.miss_us.clone()), "us");
    m.put(
        "store.windows_per_estimate",
        r.windows_consulted as f64 / r.estimates.max(1) as f64,
        "count",
    );
    m.put("store.catalog_windows", r.catalog_windows as f64, "count");
    m.put("store.open_s", r.open_s, "s");
    m.put(
        "store.frame_bytes_per_window",
        r.frame_bytes_per_window,
        "B",
    );

    for kind in ["sample", "varopt"] {
        let name = if kind == "sample" {
            "answer.sample"
        } else {
            "answer.varopt"
        };
        m.put(
            format!("summaries.answer_us_p50.{kind}"),
            p50(t.us("summaries", name)),
            "us",
        );
    }
    for kind in ["sample", "varopt"] {
        let name = if kind == "sample" {
            "answer.sample"
        } else {
            "answer.varopt"
        };
        m.put(
            format!("summaries.answer_us_p99.{kind}"),
            p99(t.us("summaries", name)),
            "us",
        );
    }
    let items: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.layer == "summaries" && s.name.starts_with("answer."))
        .map(|s| s.count as f64)
        .collect();
    m.put("summaries.items_per_answer", mean(&items), "count");
    // Per estimate: the window scan plus the union around the answers.
    let matching = t.us("store", "matching");
    let union: Vec<f64> = t
        .us("summaries", "union")
        .iter()
        .zip(&matching)
        .map(|(u, m)| u + m)
        .collect();
    m.put("summaries.union_us", p50(union), "us");
    m.put("summaries.merge_us", p50(t.us("summaries", "merge")), "us");
}

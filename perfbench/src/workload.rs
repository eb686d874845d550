//! The two workloads. Everything here is a pure function of the seed:
//! the rows, the batch summaries built from them by the repository's
//! structure-aware samplers, the catalog pre-loaded before the daemon
//! starts, the request stream, and the verification battery.
//!
//! * `dashboard` — ~95% estimates drawn Zipf-skewed from a pool of a few
//!   hundred box, multi-range and hierarchy-node queries over one 2-D
//!   network-flow dataset (the pool fits the daemon's 1 024-entry answer
//!   cache); ~5% ingests into a *different* dataset, whose snapshot-version
//!   bumps invalidate the cache.
//! * `analyst` — estimates only, every query distinct (1–16-range
//!   multi-range queries, wide time filters), over `sample` and `varopt`
//!   series of a catalog compacted into hour and day windows and converted
//!   to mapped v2 segments.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sas_codec::proto;
use sas_core::{VarOptSampler, WeightedKey};
use sas_data::dist::{bounded_pareto, Zipf};
use sas_data::NetworkConfig;
use sas_sampling::product::SpatialData;
use sas_store::policy::Policy;
use sas_store::wire::{encode_request, Request};
use sas_structures::Point;
use sas_summaries::{encode_summary, Query, StoredSample, Summary, SummaryKind};

use crate::trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["dashboard", "analyst"];

/// Confidence every estimate asks for (the `coverage_90` level).
pub const CONFIDENCE: f64 = 0.9;

/// Random probes in a verification battery. `rel_err` is their mean; with
/// 200–500 probes it moved by 15–25% between seeds.
const BATTERY: usize = 2_000;

/// Side of the 2-D address domain (`NetworkConfig::bits = 16`).
const SIDE_2D: u64 = 1 << 16;
/// Size of the 1-D key domain.
const SIDE_1D: u64 = 1 << 24;

/// One generated data row; `y = 0` for 1-D series.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub x: u64,
    pub y: u64,
    pub w: f64,
}

/// A batch: its rows and the encoded summary the sampler built from them.
pub struct Batch {
    pub rows: Vec<Row>,
    pub frame: Vec<u8>,
}

/// One `(dataset, kind)` series and its pool of batches.
pub struct Series {
    pub dataset: &'static str,
    pub kind: SummaryKind,
    pub dims: usize,
    pub batches: Vec<Batch>,
    /// Lifecycle policy installed over the wire during set-up.
    pub policy: Option<Policy>,
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub enum Op {
    Estimate {
        series: usize,
        query: Query,
        time: Option<(u64, u64)>,
    },
    Ingest {
        series: usize,
        batch: usize,
        ts: u64,
    },
}

/// A verification question (asked after the timed phase, at
/// [`CONFIDENCE`]).
#[derive(Debug, Clone)]
pub struct Probe {
    pub series: usize,
    pub query: Query,
    pub time: Option<(u64, u64)>,
}

/// A question's identity: series, canonical query bytes, time filter.
type QueryKey = (usize, Vec<u8>, Option<(u64, u64)>);

/// Per-workload request-stream state.
enum Gen {
    Dashboard {
        pool: Vec<Query>,
        zipf: Zipf,
        net: usize,
        feed: usize,
    },
    Analyst {
        seen: HashSet<QueryKey>,
        history: u64,
    },
}

/// A fully generated workload.
pub struct Workload {
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Requests in flight per connection in the capacity phase.
    pub depth: usize,
    pub series: Vec<Series>,
    /// `(series, batch, ts)` ingested in-process before the daemon starts.
    pub preload: Vec<(usize, usize, u64)>,
    /// Compact the pre-loaded catalog and convert it to mapped v2 segments.
    pub convert_v2: bool,
    /// Requests sent (closed-loop) after the daemon starts, before timing.
    pub warmup: Vec<Op>,
    pub battery: Vec<Probe>,
    /// Printed with the result.
    pub params: Vec<(&'static str, String)>,
    gen: Gen,
    rng: StdRng,
    /// Next ingest timestamp and batch per series.
    next_ts: Vec<u64>,
    next_batch: Vec<usize>,
    step: Vec<u64>,
}

/// Offered rates: 15–35% of each workload's capacity on a 2-vCPU host,
/// low enough that latency repeats between runs there (at half of capacity
/// it swung 2–3×). `BENCHMARK.json` quotes the same numbers.
const RATE_DASHBOARD: f64 = 800.0;
const RATE_ANALYST: f64 = 500.0;

impl Workload {
    /// Generates workload `name` from `seed`, recording the batch
    /// construction (sampling and encoding) in `tracer`.
    pub fn build(name: &str, seed: u64, tracer: &mut Tracer) -> Option<Workload> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0000);
        let mut w = match name {
            "dashboard" => dashboard(&mut rng, tracer),
            "analyst" => analyst(&mut rng, tracer),
            _ => return None,
        };
        w.rng = rng;
        w.warmup = match &w.gen {
            Gen::Dashboard { pool, net, .. } => pool
                .iter()
                .map(|q| Op::Estimate {
                    series: *net,
                    query: q.clone(),
                    time: None,
                })
                .collect(),
            _ => (0..100).map(|_| w.next_op()).collect(),
        };
        w.battery = w.make_battery();
        Some(w)
    }

    /// The next request of the stream.
    pub fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        match &mut self.gen {
            Gen::Dashboard {
                pool,
                zipf,
                net,
                feed,
            } => {
                if rng.gen::<f64>() < 0.05 {
                    let feed = *feed;
                    self.ingest_op(feed)
                } else {
                    Op::Estimate {
                        series: *net,
                        query: pool[zipf.sample(rng)].clone(),
                        time: None,
                    }
                }
            }
            Gen::Analyst { seen, history } => loop {
                let s = rng.gen_range(0..self.series.len());
                let k = rng.gen_range(1..=16usize);
                let query = multi_range_1d(rng, k);
                let t0 = rng.gen_range(0..*history / 2);
                let t1 = t0 + rng.gen_range(*history / 2..=*history);
                let time = Some((t0, t1));
                let key = (s, query.canonical_bytes().expect("valid query"), time);
                if seen.insert(key) {
                    return Op::Estimate {
                        series: s,
                        query,
                        time,
                    };
                }
            },
        }
    }

    fn ingest_op(&mut self, s: usize) -> Op {
        let op = Op::Ingest {
            series: s,
            batch: self.next_batch[s] % self.series[s].batches.len(),
            ts: self.next_ts[s],
        };
        self.next_ts[s] += self.step[s];
        self.next_batch[s] += 1;
        op
    }

    /// The wire request for an op.
    pub fn request(&self, op: &Op) -> Request {
        match op {
            Op::Estimate {
                series,
                query,
                time,
            } => Request::Estimate {
                dataset: self.series[*series].dataset.to_string(),
                kind: self.series[*series].kind,
                query: query.clone(),
                confidence: CONFIDENCE,
                time: *time,
            },
            Op::Ingest { series, batch, ts } => Request::Ingest {
                dataset: self.series[*series].dataset.to_string(),
                ts: *ts,
                frame: self.series[*series].batches[*batch].frame.clone(),
            },
        }
    }

    /// The encoded request frame and its tag.
    pub fn frame(&self, op: &Op) -> (Vec<u8>, u16) {
        let tag = match op {
            Op::Estimate { .. } => proto::REQ_ESTIMATE,
            Op::Ingest { .. } => proto::REQ_INGEST,
        };
        (encode_request(&self.request(op)), tag)
    }

    /// Raw rows of one ingested batch (the oracle's input).
    pub fn rows(&self, series: usize, batch: usize) -> &[Row] {
        &self.series[series].batches[batch].rows
    }

    fn make_battery(&mut self) -> Vec<Probe> {
        let mut rng = StdRng::seed_from_u64(self.rng.gen());
        let mut out = Vec::new();
        match &self.gen {
            Gen::Dashboard {
                pool, net, feed, ..
            } => {
                out.extend(pool.iter().map(|q| Probe {
                    series: *net,
                    query: q.clone(),
                    time: None,
                }));
                for _ in 0..BATTERY {
                    out.push(Probe {
                        series: *net,
                        query: random_box(&mut rng, &self.series[*net]),
                        time: None,
                    });
                }
                // The feed's small 1-D samples err far more than the net's:
                // a handful of feed probes would carry the mean alone.
                for _ in 0..BATTERY / 4 {
                    out.push(Probe {
                        series: *feed,
                        query: random_box(&mut rng, &self.series[*feed]),
                        time: None,
                    });
                }
            }
            Gen::Analyst { history, .. } => {
                for _ in 0..BATTERY {
                    let s = rng.gen_range(0..self.series.len());
                    let t0 = rng.gen_range(0..*history / 2);
                    let t1 = t0 + rng.gen_range(*history / 2..=*history);
                    let k = rng.gen_range(1..=16usize);
                    out.push(Probe {
                        series: s,
                        query: multi_range_1d(&mut rng, k),
                        time: Some((t0, t1)),
                    });
                }
            }
        }
        for s in 0..self.series.len() {
            out.push(Probe {
                series: s,
                query: Query::Total,
                time: None,
            });
        }
        out
    }
}

/// Unique 1-D keys with heavy-tailed weights.
fn rows_1d(rng: &mut StdRng, n: usize, used: &mut HashSet<u64>) -> Vec<Row> {
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let x = rng.gen_range(0..SIDE_1D);
        if used.insert(x) {
            rows.push(Row {
                x,
                y: 0,
                w: bounded_pareto(rng, 1.0, 1e4, 1.2),
            });
        }
    }
    rows
}

/// Builds a 1-D batch summary of `kind` with `s` entries.
fn batch_1d(
    rng: &mut StdRng,
    rows: Vec<Row>,
    kind: SummaryKind,
    s: usize,
    t: &mut Tracer,
) -> Batch {
    let data: Vec<WeightedKey> = rows.iter().map(|r| WeightedKey::new(r.x, r.w)).collect();
    let summary: Box<dyn Summary> = match kind {
        SummaryKind::VarOptReservoir => {
            let span = t.begin("sampling", "varopt_push", None, 0);
            let mut v = VarOptSampler::new(s);
            for k in &data {
                v.push(k.key, k.weight, rng);
            }
            t.end_with(span, data.len() as u64);
            Box::new(v)
        }
        _ => {
            let span = t.begin("sampling", "order_sample", None, 0);
            let sample = sas_sampling::order::sample(&data, s, rng);
            t.end_with(span, data.len() as u64);
            Box::new(StoredSample::one_dim(sample))
        }
    };
    let span = t.begin("codec", "encode_summary", None, 0);
    let frame = encode_summary(summary.as_ref());
    t.end_with(span, frame.len() as u64);
    Batch { rows, frame }
}

/// Builds a 2-D batch summary with `two_pass::sample_product`. Key ids are
/// globally unique (`first_key..`), so merged windows never alias keys.
fn batch_2d(rng: &mut StdRng, rows: Vec<Row>, first_key: u64, s: usize, t: &mut Tracer) -> Batch {
    let keys: Vec<WeightedKey> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| WeightedKey::new(first_key + i as u64, r.w))
        .collect();
    let points: Vec<Point> = rows.iter().map(|r| Point::xy(r.x, r.y)).collect();
    let data = SpatialData::new(keys, points);
    let span = t.begin("sampling", "sample_product", None, 0);
    let sample = sas_sampling::two_pass::sample_product(&data, s, 5, rng);
    t.end_with(span, rows.len() as u64);
    let locations: HashMap<u64, Point> = sample
        .iter()
        .map(|e| {
            let i = (e.key - first_key) as usize;
            (e.key, Point::xy(rows[i].x, rows[i].y))
        })
        .collect();
    let summary =
        StoredSample::two_dim(sample, locations).expect("every sampled key has a location");
    let span = t.begin("codec", "encode_summary", None, 0);
    let frame = encode_summary(&summary);
    t.end_with(span, frame.len() as u64);
    Batch { rows, frame }
}

/// Network-flow rows split into `parts` spatially mixed batches.
fn network_batches(rng: &mut StdRng, flows: usize, parts: usize) -> Vec<Vec<Row>> {
    // Flow sizes stay Pareto-tailed, but lighter than the default α = 1.1,
    // under which a seed's total weight (the denominator of `rel_err`)
    // moved by ±20% between seeds.
    let data = NetworkConfig {
        flows,
        alpha: 1.5,
        ..NetworkConfig::default()
    }
    .generate(rng);
    let mut out: Vec<Vec<Row>> = vec![Vec::new(); parts];
    for (k, p) in data.keys.iter().zip(&data.points) {
        out[rng.gen_range(0..parts)].push(Row {
            x: p.coord(0),
            y: p.coord(1),
            w: k.weight,
        });
    }
    out
}

/// A random box around a random row of the series' first batch.
fn random_box(rng: &mut StdRng, series: &Series) -> Query {
    let rows = &series.batches[rng.gen_range(0..series.batches.len())].rows;
    let r = rows[rng.gen_range(0..rows.len())];
    if series.dims == 2 {
        let wx = 1u64 << rng.gen_range(6..13u32);
        let wy = 1u64 << rng.gen_range(6..13u32);
        Query::BoxRange(vec![
            (r.x.saturating_sub(wx), (r.x + wx).min(SIDE_2D - 1)),
            (r.y.saturating_sub(wy), (r.y + wy).min(SIDE_2D - 1)),
        ])
    } else {
        let w = 1u64 << rng.gen_range(14..21u32);
        Query::BoxRange(vec![(r.x.saturating_sub(w), (r.x + w).min(SIDE_1D - 1))])
    }
}

/// `k` disjoint intervals around random centres (paper Fig. 2c); one
/// interval is a plain box.
fn multi_range_1d(rng: &mut StdRng, k: usize) -> Query {
    let mut centres: Vec<u64> = (0..k).map(|_| rng.gen_range(0..SIDE_1D)).collect();
    centres.sort_unstable();
    centres.dedup();
    let mut boxes = Vec::with_capacity(centres.len());
    for (j, &c) in centres.iter().enumerate() {
        let w = 1u64 << rng.gen_range(12..21u32);
        let lo_limit = if j == 0 {
            0
        } else {
            (centres[j - 1] + c) / 2 + 1
        };
        let hi_limit = centres.get(j + 1).map_or(SIDE_1D - 1, |&n| (c + n) / 2);
        boxes.push(vec![(
            c.saturating_sub(w).max(lo_limit),
            (c + w).min(hi_limit),
        )]);
    }
    if boxes.len() == 1 {
        Query::BoxRange(boxes.pop().expect("one box"))
    } else {
        Query::MultiRange(boxes)
    }
}

/// Dashboard pool: boxes, x-disjoint multi-ranges and hierarchy nodes
/// anchored at real rows, so answers are rarely empty.
fn dashboard_pool(rng: &mut StdRng, rows: &[Row], n: usize) -> Vec<Query> {
    let mut pool = Vec::with_capacity(n);
    let mut seen = HashSet::new();
    while pool.len() < n {
        let anchor = |rng: &mut StdRng| rows[rng.gen_range(0..rows.len())];
        let q = match rng.gen_range(0..10u32) {
            0..=3 => {
                let r = anchor(rng);
                let wx = 1u64 << rng.gen_range(7..14u32);
                let wy = 1u64 << rng.gen_range(7..14u32);
                Query::BoxRange(vec![
                    (r.x.saturating_sub(wx), (r.x + wx).min(SIDE_2D - 1)),
                    (r.y.saturating_sub(wy), (r.y + wy).min(SIDE_2D - 1)),
                ])
            }
            4..=6 => {
                let mut anchors: Vec<Row> = (0..rng.gen_range(2..=4usize))
                    .map(|_| anchor(rng))
                    .collect();
                anchors.sort_by_key(|r| r.x);
                anchors.dedup_by_key(|r| r.x);
                let mut boxes = Vec::new();
                for j in 0..anchors.len() {
                    let r = anchors[j];
                    let lo_limit = if j == 0 {
                        0
                    } else {
                        (anchors[j - 1].x + r.x) / 2 + 1
                    };
                    let hi_limit = anchors.get(j + 1).map_or(SIDE_2D - 1, |n| (r.x + n.x) / 2);
                    let w = 1u64 << rng.gen_range(7..12u32);
                    boxes.push(vec![
                        (r.x.saturating_sub(w).max(lo_limit), (r.x + w).min(hi_limit)),
                        (r.y.saturating_sub(4 * w), (r.y + 4 * w).min(SIDE_2D - 1)),
                    ]);
                }
                if boxes.len() == 1 {
                    Query::BoxRange(boxes.pop().expect("one box"))
                } else {
                    Query::MultiRange(boxes)
                }
            }
            _ => {
                let level = rng.gen_range(8..=13u32);
                Query::HierarchyNode {
                    level,
                    index: anchor(rng).x >> level,
                }
            }
        };
        if seen.insert(q.canonical_bytes().expect("valid query")) {
            pool.push(q);
        }
    }
    pool
}

fn feed_policy() -> Option<Policy> {
    Some(Policy {
        compact_after: Some(600),
        retention_ttl: Some(3_600),
        ..Policy::default()
    })
}

fn base(rate: f64, depth: usize, series: Vec<Series>, gen: Gen) -> Workload {
    let n = series.len();
    Workload {
        rate,
        depth,
        series,
        preload: Vec::new(),
        convert_v2: false,
        warmup: Vec::new(),
        battery: Vec::new(),
        params: Vec::new(),
        gen,
        rng: StdRng::seed_from_u64(0),
        next_ts: vec![0; n],
        next_batch: vec![0; n],
        step: vec![60; n],
    }
}

/// Pre-loads the first `count` batches of series `s`, `step` ticks apart,
/// and leaves the stream to continue after them.
fn preload_series(w: &mut Workload, s: usize, count: usize, start: u64, step: u64) {
    for b in 0..count {
        let ts = start + b as u64 * step;
        w.preload.push((s, b % w.series[s].batches.len(), ts));
    }
    w.next_ts[s] = start + count as u64 * step;
    w.next_batch[s] = count;
    w.step[s] = step;
}

fn dashboard(rng: &mut StdRng, t: &mut Tracer) -> Workload {
    const NET_BATCHES: usize = 48;
    const NET_SAMPLE: usize = 300;
    const POOL: usize = 300;
    let mut net_batches = Vec::with_capacity(NET_BATCHES);
    for (b, rows) in network_batches(rng, 120_000, NET_BATCHES)
        .into_iter()
        .enumerate()
    {
        net_batches.push(batch_2d(rng, rows, b as u64 * 1_000_000, NET_SAMPLE, t));
    }
    let all_rows: Vec<Row> = net_batches
        .iter()
        .flat_map(|b| b.rows.iter().copied())
        .collect();
    let pool = dashboard_pool(rng, &all_rows, POOL);
    let mut used = HashSet::new();
    let feed_batches = (0..32)
        .map(|_| {
            let rows = rows_1d(rng, 400, &mut used);
            batch_1d(rng, rows, SummaryKind::Sample, 64, t)
        })
        .collect();
    let series = vec![
        Series {
            dataset: "net",
            kind: SummaryKind::Sample,
            dims: 2,
            batches: net_batches,
            policy: None,
        },
        Series {
            dataset: "feed",
            kind: SummaryKind::Sample,
            dims: 1,
            batches: feed_batches,
            policy: feed_policy(),
        },
    ];
    let zipf = Zipf::new(POOL, 1.1);
    let mut w = base(
        RATE_DASHBOARD,
        8,
        series,
        Gen::Dashboard {
            pool,
            zipf,
            net: 0,
            feed: 1,
        },
    );
    // 48 net batches 150 ticks apart span two hours: the first is sealed
    // into an hour window at pre-load, the second stays in minutes.
    preload_series(&mut w, 0, NET_BATCHES, 0, 150);
    preload_series(&mut w, 1, 60, 0, 60);
    w.params = vec![
        ("net_flows", "120000".into()),
        ("net_pareto_alpha", "1.5".into()),
        ("net_batches", NET_BATCHES.to_string()),
        ("net_sample_size", NET_SAMPLE.to_string()),
        ("pool", POOL.to_string()),
        ("zipf_theta", "1.1".into()),
        ("ingest_share", "0.05".into()),
    ];
    w
}

fn analyst(rng: &mut StdRng, t: &mut Tracer) -> Workload {
    const DATASETS: [&str; 3] = ["an_a", "an_b", "an_c"];
    const BATCHES: usize = 56;
    const ROWS: usize = 2000;
    const SAMPLE: usize = 800;
    const STEP: u64 = 10_800; // 3 hours: 56 batches span 7 days
    let mut series = Vec::new();
    for dataset in DATASETS {
        let mut used = HashSet::new();
        let rows: Vec<Vec<Row>> = (0..BATCHES)
            .map(|_| rows_1d(rng, ROWS, &mut used))
            .collect();
        for kind in [SummaryKind::Sample, SummaryKind::VarOptReservoir] {
            let batches = rows
                .iter()
                .map(|r| batch_1d(rng, r.clone(), kind, SAMPLE, t))
                .collect();
            series.push(Series {
                dataset,
                kind,
                dims: 1,
                batches,
                policy: None,
            });
        }
    }
    let history = BATCHES as u64 * STEP;
    let n = series.len();
    let mut w = base(
        RATE_ANALYST,
        8,
        series,
        Gen::Analyst {
            seen: HashSet::new(),
            history,
        },
    );
    for s in 0..n {
        preload_series(&mut w, s, BATCHES, 1, STEP);
    }
    w.convert_v2 = true;
    w.params = vec![
        ("datasets", DATASETS.len().to_string()),
        ("kinds", "sample,varopt".into()),
        ("batches_per_series", BATCHES.to_string()),
        ("rows_per_batch", ROWS.to_string()),
        ("sample_size", SAMPLE.to_string()),
        ("history_ticks", history.to_string()),
        ("ranges_per_query", "1..=16".into()),
    ];
    w
}

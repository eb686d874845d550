//! The `sas serve` daemon: a non-blocking, epoll-driven event loop serving
//! the length-prefixed wire protocol — c10k-class concurrency with a fixed
//! thread count, no thread-per-connection anywhere.
//!
//! ## Architecture
//!
//! One **event-loop thread** owns every socket, a [`Poller`] (epoll on
//! Linux, portable `poll` elsewhere — see [`crate::poller`]), and all
//! per-connection state machines ([`crate::conn::Conn`]). It accepts,
//! reads, frames, and writes; decoded requests are dispatched to a small
//! **worker pool** that runs [`handle_request`] against the store (every
//! request that reads or changes it, `List`/`Stats`/`Metrics` included;
//! the blocking file I/O lives here) and sends the encoded response back
//! through a completion channel, waking the loop through a
//! [`crate::poller::WakeHandle`]. Only `Ping`, `Shutdown`, undecodable
//! frames and `BUSY` refusals (plus a watch over its per-connection cap)
//! are answered inline on the loop — a ping measures loop latency even
//! while every worker is busy — and so are the estimates below.
//!
//! ## Estimates on the loop
//!
//! A cached answer costs about a microsecond and a miss tens of
//! microseconds, the worker round trip (job hand-off, worker wake,
//! completion channel, loop wake) more than either. So the loop answers
//! some `REQ_ESTIMATE` and legacy `REQ_QUERY` requests itself, with the
//! bytes a worker would send (both frame through [`estimate_message`]).
//! It takes up an estimate only when every earlier request on the
//! connection has been answered, so it never overtakes an ingest
//! pipelined ahead of it. Such an estimate is looked up once, inside its
//! `parse` stage ([`Store::lookup`]: the snapshot pinned and the cache key
//! built). Then:
//!
//! * when the worker pool is idle (no request, watch evaluation or
//!   lifecycle job in flight) and the wakeup that delivered the request
//!   delivered nothing else (one readiness event, one complete frame,
//!   nothing parked or partial behind it), the loop finishes the lookup
//!   itself ([`Store::answer`]), hit or miss. Nothing else is waiting for
//!   the loop, and with no job in flight no worker holds the cache lock;
//! * otherwise it probes the cache ([`Store::cached_estimate`], which
//!   never waits for the lock) and answers a hit; a miss's lookup travels
//!   to a worker, which finishes it against the snapshot pinned at
//!   dispatch, without building the key again. A pipelined burst thus
//!   spreads over the pool instead of being answered serially here.
//!
//! Estimates behind an unanswered request, `REQ_ESTIMATE_COV` (its
//! coverage walks the series) and watches go to the pool whole.
//!
//! ## Pipelining & ordering
//!
//! Clients may write any number of requests before reading. Each parsed
//! request gets a per-connection sequence number; workers complete in any
//! order, and the connection's outbox releases responses strictly in
//! sequence order.
//!
//! ## One record per request
//!
//! Dispatch builds one record per request (`ReqTrace`: its sequence
//! number, tag, admission charge, slow-log metadata, and stage clock). The
//! record moves, never copied, with the request: to a worker and back in
//! the job and its completion, then into the connection's outbox beside
//! the response's bytes, where the flush that writes the last byte
//! finishes it into the per-tag stage histograms. Watch evaluations and
//! lifecycle passes answer no request and carry no record.
//!
//! ## Backpressure, shedding, admission
//!
//! * A connection whose unwritten responses exceed `write_budget` stops
//!   being read until the peer drains — server memory per connection is
//!   bounded no matter how the peer behaves.
//! * Above `max_conns` active connections, new arrivals receive an
//!   explicit `RESP_BUSY` frame and a clean close (never a silent drop).
//! * With `dataset_inflight > 0`, requests against a dataset that already
//!   has that many requests in flight get `RESP_BUSY` instead of queueing
//!   — one hot dataset cannot monopolize the worker pool. An estimate
//!   answered on the loop never occupies a worker, so it is never shed
//!   and never counts as in flight.
//!
//! ## Timeouts & shutdown
//!
//! A connection that starts a message but does not finish it within
//! `read_timeout` is closed (slow-loris defense: the deadline is from the
//! first byte of the message, so trickling bytes cannot extend it). An
//! optional `idle_timeout` reaps fully idle connections — except those
//! holding live watch subscriptions, which are legitimately quiet between
//! pushes. Shutdown (API or wire request) stops accepting, drops responses
//! not yet on the wire, but always completes a half-written frame — a
//! client never receives a torn response — then force-closes stragglers
//! after [`SHUTDOWN_GRACE`].
//!
//! ## Watches & lifecycle
//!
//! `REQ_WATCH` registers a canonical query on its connection (bounded per
//! connection by `max_watches_per_conn`); every completed ingest into the
//! watched series re-answers the query on a worker and pushes the result
//! as an unsolicited `RESP_PUSH` frame through the same outbox and
//! backpressure machinery as responses. At most one evaluation per watch
//! is in flight — ingests landing meanwhile coalesce into a single
//! re-evaluation. A subscriber whose outbox exceeds the write budget is
//! shed with `RESP_BUSY` and closed, exactly like an over-limit arrival.
//! With `lifecycle_every` set, the loop also schedules a single-inflight
//! lifecycle job (retention, then compaction) on that cadence, or sooner
//! once [`LIFECYCLE_INGESTS`] ingests have landed since the last one.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sas_codec::proto;
use sas_obs::{
    slog, Counter as ObsCounter, Histogram as ObsHistogram, Level as LogLevel, Registry,
};
use sas_summaries::decode_summary;

use sas_summaries::{Query, SummaryKind};

use crate::conn::{Conn, ConnConfig};
use crate::poller::{Event, Interest, InterestCache, Poller, WakeHandle, Waker};
use crate::wire::{decode_request, encode_push, encode_response, Request, Response, WatchUpdate};
use crate::{EstimateAnswer, Lookup, Store, StoreError};

/// Tuning knobs for [`Server::start_with`]. [`Default`] matches the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing store requests.
    pub threads: usize,
    /// Maximum simultaneously served connections; arrivals beyond it are
    /// answered `BUSY` and closed.
    pub max_conns: usize,
    /// How long a started message may remain incomplete before the
    /// connection is closed (slow-loris defense).
    pub read_timeout: Duration,
    /// Close connections idle this long (`None`: never — long-lived
    /// client connections are legitimate).
    pub idle_timeout: Option<Duration>,
    /// Per-connection cap on unwritten response bytes before reads pause.
    pub write_budget: usize,
    /// Per-connection cap on in-flight pipelined requests.
    pub max_pipeline: usize,
    /// Per-dataset cap on in-flight requests across all connections
    /// (`0`: unlimited). Excess requests are answered `BUSY`.
    pub dataset_inflight: usize,
    /// Log (at `warn`) any request whose end-to-end time — the sum of its
    /// stages, from parsing to the last byte flushed — reaches this
    /// threshold, with its per-stage breakdown, dataset, and canonical
    /// query bytes (`None`: disabled).
    pub slow_query: Option<Duration>,
    /// Per-connection cap on live watch subscriptions; registrations
    /// beyond it are answered with an error.
    pub max_watches_per_conn: usize,
    /// Drive one [`Store::lifecycle_tick`] (retention, then compaction)
    /// from the event loop on this cadence (`None`: no lifecycle work).
    pub lifecycle_every: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            max_conns: 1024,
            read_timeout: Duration::from_secs(10),
            idle_timeout: None,
            write_budget: 256 * 1024,
            max_pipeline: 128,
            dataset_inflight: 0,
            slow_query: None,
            max_watches_per_conn: 16,
            lifecycle_every: None,
        }
    }
}

/// The event loop's counters, readable at any time via
/// [`Server::metrics`]. All values are cumulative since start except
/// `active_conns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections answered `BUSY` at the connection limit.
    pub shed_conns: u64,
    /// Requests answered `BUSY` by per-dataset admission control.
    pub shed_requests: u64,
    /// Connections closed by the read (slow-loris) timeout.
    pub read_timeouts: u64,
    /// Connections closed by the idle timeout.
    pub idle_timeouts: u64,
    /// Connections dropped for fatal framing (oversized length).
    pub protocol_errors: u64,
    /// Requests dispatched to the worker pool. Estimates answered on the
    /// event loop are not among them: cache hits, and the misses counted
    /// in `loop_misses`.
    pub requests: u64,
    /// Estimate misses (malformed queries included) answered on the event
    /// loop because the worker pool was idle; every other miss is among
    /// `requests`.
    pub loop_misses: u64,
    /// High-water mark of any connection's unwritten response bytes.
    pub max_queued_bytes: u64,
    /// Currently served connections.
    pub active_conns: u64,
}

/// The loop's counters, backed by the store's metric registry so the same
/// cells serve both [`Server::metrics`] and the `REQ_METRICS` exposition.
/// `max_queued_bytes` doubles as the registry's high-water cell (via
/// `record_max`); `active_conns` is a gauge and stays out of the registry
/// (counters there are cumulative).
#[derive(Debug)]
struct MetricCells {
    accepted: Arc<ObsCounter>,
    shed_conns: Arc<ObsCounter>,
    shed_requests: Arc<ObsCounter>,
    read_timeouts: Arc<ObsCounter>,
    idle_timeouts: Arc<ObsCounter>,
    protocol_errors: Arc<ObsCounter>,
    requests: Arc<ObsCounter>,
    loop_misses: Arc<ObsCounter>,
    max_queued_bytes: Arc<ObsCounter>,
    active_conns: AtomicU64,
}

impl MetricCells {
    fn new(reg: &Registry) -> MetricCells {
        MetricCells {
            accepted: reg.counter("sas_conns_accepted_total"),
            shed_conns: reg.counter("sas_conns_shed_total"),
            shed_requests: reg.counter("sas_requests_shed_total"),
            read_timeouts: reg.counter("sas_conn_read_timeouts_total"),
            idle_timeouts: reg.counter("sas_conn_idle_timeouts_total"),
            protocol_errors: reg.counter("sas_protocol_errors_total"),
            requests: reg.counter("sas_requests_dispatched_total"),
            loop_misses: reg.counter("sas_loop_misses_answered_total"),
            max_queued_bytes: reg.counter("sas_conn_queued_bytes_highwater"),
            active_conns: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            accepted: self.accepted.get(),
            shed_conns: self.shed_conns.get(),
            shed_requests: self.shed_requests.get(),
            read_timeouts: self.read_timeouts.get(),
            idle_timeouts: self.idle_timeouts.get(),
            protocol_errors: self.protocol_errors.get(),
            requests: self.requests.get(),
            loop_misses: self.loop_misses.get(),
            max_queued_bytes: self.max_queued_bytes.get(),
            active_conns: self.active_conns.load(Ordering::Relaxed),
        }
    }

    fn bump_queued_high_water(&self, queued: usize) {
        self.max_queued_bytes.record_max(queued as u64);
    }
}

/// Stage names of the per-request clock, in pipeline order. Every request
/// is timed through all five; inline answers (ping, protocol errors) simply
/// record zero for `queue` and `work`, and an estimate answered on the loop
/// records zero `queue` and its answer (plus encoding) as `work`.
const STAGES: [&str; 5] = ["parse", "queue", "work", "queued", "flush"];
/// Decoding the frame, on the loop, and looking up an estimate the loop
/// may answer.
const PARSE: usize = 0;
/// Waiting in the job channel for a worker.
const QUEUE: usize = 1;
/// Answering on the worker (or the loop, for an estimate it answers).
const WORK: usize = 2;
/// In the outbox, until the response's first byte reaches the socket.
const QUEUED: usize = 3;
/// From the first byte written to the last.
const FLUSH: usize = 4;

/// Request tags used as metric labels. `invalid` is undecodable frames.
const TAGS: [&str; 13] = [
    "query",
    "estimate",
    "estimate_cov",
    "watch",
    "policy_set",
    "policy_show",
    "ingest",
    "list",
    "stats",
    "metrics",
    "ping",
    "shutdown",
    "invalid",
];

fn request_tag(req: &Request) -> &'static str {
    match req {
        Request::Query { .. } => "query",
        Request::Estimate { .. } => "estimate",
        Request::EstimateCov { .. } => "estimate_cov",
        Request::Watch { .. } => "watch",
        Request::PolicySet { .. } => "policy_set",
        Request::PolicyShow { .. } => "policy_show",
        Request::Ingest { .. } => "ingest",
        Request::List => "list",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
    }
}

/// Pre-resolved per-tag request metrics: one completion counter, one
/// end-to-end histogram, and one histogram per stage. Resolved once at
/// startup so the hot path never touches the registry lock.
struct TagCells {
    completed: Arc<ObsCounter>,
    total_ns: Arc<ObsHistogram>,
    stage_ns: [Arc<ObsHistogram>; STAGES.len()],
}

struct RequestObs {
    cells: HashMap<&'static str, TagCells>,
}

impl RequestObs {
    fn new(reg: &Registry) -> RequestObs {
        let cells = TAGS
            .iter()
            .map(|&tag| {
                let stage_ns = STAGES.map(|stage| {
                    reg.histogram(&format!("sas_stage_ns{{tag=\"{tag}\",stage=\"{stage}\"}}"))
                });
                (
                    tag,
                    TagCells {
                        completed: reg.counter(&format!("sas_requests_total{{tag=\"{tag}\"}}")),
                        total_ns: reg.histogram(&format!("sas_request_ns{{tag=\"{tag}\"}}")),
                        stage_ns,
                    },
                )
            })
            .collect();
        RequestObs { cells }
    }

    fn cells(&self, tag: &str) -> &TagCells {
        self.cells
            .get(tag)
            .unwrap_or_else(|| &self.cells["invalid"])
    }
}

/// What the slow-query log reports beyond timings. Captured (by a worker,
/// or by the loop for an estimate it answers) only when the log is enabled
/// (the canonical-query hex costs an allocation per request).
struct SlowMeta {
    dataset: String,
    /// Canonical query bytes, hex-encoded (`-` for requests with none).
    query: String,
    /// Summary windows the answer consulted.
    windows: u64,
}

impl SlowMeta {
    /// A request's coordinates, before it is answered: its dataset and
    /// canonical query bytes, if it has them.
    fn new(dataset: Option<&str>, query: Option<&[u8]>) -> SlowMeta {
        SlowMeta {
            dataset: dataset.unwrap_or("-").to_string(),
            query: match query {
                None => "-".into(),
                Some(b) => b.iter().map(|x| format!("{x:02x}")).collect(),
            },
            windows: 0,
        }
    }

    /// A request's coordinates, the query canonicalized anew.
    fn of(req: &Request) -> SlowMeta {
        let query = match req {
            Request::Query { range, .. } => Query::BoxRange(range.clone()).canonical_bytes().ok(),
            Request::Estimate { query, .. }
            | Request::EstimateCov { query, .. }
            | Request::Watch { query, .. } => query.canonical_bytes().ok(),
            _ => None,
        };
        SlowMeta::new(request_dataset(req), query.as_deref())
    }

    /// A looked-up estimate's coordinates, the canonical bytes read off
    /// its cache key.
    fn looked_up(lookup: &Lookup<'_>) -> SlowMeta {
        let key = lookup.key.as_ref().ok();
        SlowMeta::new(Some(&lookup.dataset), key.map(|k| k.query.as_slice()))
    }

    /// Records the windows `response` consulted (0 for a non-answer).
    fn answered(mut self, response: &Response) -> SlowMeta {
        self.windows = match response {
            Response::Query { windows, .. }
            | Response::Estimate { windows, .. }
            | Response::EstimateCov { windows, .. } => *windows,
            _ => 0,
        };
        self
    }
}

/// One request's record, from dispatch to the flush of its last byte (see
/// the module docs). The end-to-end time is **defined** as the sum of the
/// five stages — no `Instant` subtraction across threads.
struct ReqTrace {
    /// The connection-local sequence number the response answers.
    seq: u64,
    tag: &'static str,
    /// The dataset charged for admission control: `None` unless
    /// `dataset_inflight` is on and the request names a dataset.
    dataset: Option<String>,
    /// Stage times so far, in [`STAGES`] order (0 for a stage not run).
    stage_ns: [u64; STAGES.len()],
    /// When the running stage started.
    since: Instant,
    slow: Option<SlowMeta>,
}

impl ReqTrace {
    /// The record of request `seq`, whose `parse` stage starts now. The
    /// tag stays `invalid` until the frame decodes.
    fn start(seq: u64) -> ReqTrace {
        ReqTrace {
            seq,
            tag: "invalid",
            dataset: None,
            stage_ns: [0; STAGES.len()],
            since: Instant::now(),
            slow: None,
        }
    }

    /// Ends `stage` at `now`; the next stage starts.
    fn lap(&mut self, stage: usize, now: Instant) {
        let ns = now.saturating_duration_since(self.since).as_nanos();
        self.stage_ns[stage] = u64::try_from(ns).unwrap_or(u64::MAX);
        self.since = now;
    }
}

/// One watch subscription's immutable description: the canonical query a
/// worker re-answers on every matching ingest. Shared (`Arc`) between the
/// loop's registration state and in-flight evaluation jobs.
#[derive(Debug)]
struct WatchSpec {
    dataset: String,
    kind: SummaryKind,
    query: Query,
    confidence: f64,
    time: Option<(u64, u64)>,
}

/// What a worker is asked to do.
enum Work {
    /// Answer a client request (the classic path).
    Req(Request),
    /// Finish an estimate the loop looked up but did not answer.
    Estimate(Reply, Lookup<'static>),
    /// Validate a watch registration by answering its query once.
    WatchRegister { watch_id: u64, spec: Arc<WatchSpec> },
    /// Re-answer a registered watch after an ingest into its series.
    WatchEval { watch_id: u64, spec: Arc<WatchSpec> },
    /// One retention + compaction pass.
    Lifecycle,
}

/// What the event loop hands a worker.
struct Job {
    token: u64,
    work: Work,
    /// The record of the request the job answers, its `queue` stage
    /// running: `Some` for [`Work::Req`] and [`Work::WatchRegister`], `None`
    /// for the jobs that answer no request.
    trace: Option<ReqTrace>,
}

/// What a job produced, and how it reaches the peer.
enum Delivery {
    /// The response to the completion's request, through the connection's
    /// ordered outbox.
    Response(Vec<u8>),
    /// The response to a watch registration (same path), and the watch to
    /// install when it validated. Either way the registration stops
    /// counting as pending.
    WatchRegistered(Vec<u8>, Option<(u64, Arc<WatchSpec>)>),
    /// Unsolicited push for a watch, injected if it is still registered
    /// (`None`: the evaluation failed; nothing to send).
    Push {
        watch_id: u64,
        message: Option<Vec<u8>>,
    },
    /// No peer at all: a lifecycle pass finished.
    Lifecycle,
}

/// What a worker hands back.
struct Completion {
    token: u64,
    delivery: Delivery,
    /// The job's record, its `queue` and `work` stages stamped.
    trace: Option<ReqTrace>,
    /// A successful ingest sealed into this `(dataset, kind tag)` series —
    /// the loop re-evaluates matching watches.
    ingested: Option<(String, u16)>,
}

/// State shared between the public handle, the loop, and the workers.
#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: MetricCells,
    wake: WakeHandle,
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.wake.wake();
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] then [`Server::wait`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the daemon with default tuning plus the
    /// given worker-thread count (the tests' shorthand; the CLI passes a
    /// full [`ServerConfig`] to [`Server::start_with`]).
    pub fn start(
        store: Arc<Store>,
        addr: impl ToSocketAddrs,
        threads: usize,
    ) -> io::Result<Server> {
        Server::start_with(
            store,
            addr,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
    }

    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the event loop plus `config.threads` workers.
    pub fn start_with(
        store: Arc<Store>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let config = ServerConfig {
            threads: config.threads.max(1),
            max_conns: config.max_conns.max(1),
            ..config
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let waker = Waker::new()?;
        let registry = store.obs().clone();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            metrics: MetricCells::new(&registry),
            wake: waker.handle()?,
        });

        let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = channel();
        let (done_tx, done_rx): (Sender<Completion>, Receiver<Completion>) = channel();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let slow_enabled = config.slow_query.is_some();
        let workers = (0..config.threads)
            .map(|i| {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let store = store.clone();
                let wake = shared.wake.clone();
                std::thread::Builder::new()
                    .name(format!("sas-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Lock only to pop: the next idle worker takes the
                        // next job.
                        let job = job_rx.lock().expect("worker queue lock").recv();
                        let Ok(Job {
                            token,
                            work,
                            mut trace,
                        }) = job
                        else {
                            return; // loop gone, queue drained
                        };
                        if let Some(trace) = &mut trace {
                            trace.lap(QUEUE, Instant::now());
                        }
                        let mut ingested = None;
                        let delivery = match work {
                            Work::Req(req) => {
                                // Slow-log metadata is captured up front:
                                // whether the request turns out slow is only
                                // known after the flush, when `req` is gone.
                                let slow = slow_enabled.then(|| SlowMeta::of(&req));
                                let response = match req {
                                    Request::Ingest { dataset, ts, frame } => {
                                        let (response, series) =
                                            ingest_response(&store, &dataset, ts, &frame);
                                        ingested = series;
                                        response
                                    }
                                    req => handle_request(&store, req),
                                };
                                if let Some(trace) = &mut trace {
                                    trace.slow = slow.map(|meta| meta.answered(&response));
                                }
                                Delivery::Response(to_message(&encode_response(&response)))
                            }
                            Work::Estimate(reply, lookup) => {
                                let slow = slow_enabled.then(|| SlowMeta::looked_up(&lookup));
                                Delivery::Response(estimate_message(
                                    reply,
                                    store.answer(lookup),
                                    slow,
                                    trace.as_mut(),
                                ))
                            }
                            Work::WatchRegister { watch_id, spec } => {
                                // Validate by answering once: a query the
                                // store cannot answer (bad confidence for
                                // the kind, say) must fail loudly here, not
                                // register a watch that can never push. An
                                // empty dataset is fine — data may arrive —
                                // but an *invalid* name never can, since
                                // ingest would have refused it.
                                let (response, watch) =
                                    match crate::window::check_dataset(&spec.dataset)
                                        .map_err(crate::StoreError::BadRequest)
                                        .and_then(|()| {
                                            store.estimate_with_coverage(
                                                &spec.dataset,
                                                spec.kind,
                                                &spec.query,
                                                spec.confidence,
                                                spec.time,
                                            )
                                        }) {
                                        Err(e) => (Response::Err(e.to_string()), None),
                                        Ok(_) => {
                                            (Response::Watch { watch_id }, Some((watch_id, spec)))
                                        }
                                    };
                                Delivery::WatchRegistered(
                                    to_message(&encode_response(&response)),
                                    watch,
                                )
                            }
                            Work::WatchEval { watch_id, spec } => {
                                let message = match store.estimate_with_coverage(
                                    &spec.dataset,
                                    spec.kind,
                                    &spec.query,
                                    spec.confidence,
                                    spec.time,
                                ) {
                                    // An update that cannot be computed is
                                    // dropped, not fabricated; the next
                                    // ingest retriggers the evaluation.
                                    Err(_) => None,
                                    Ok((answer, coverage)) => {
                                        Some(to_message(&encode_push(&WatchUpdate {
                                            watch_id,
                                            version: answer.version,
                                            windows: answer.windows,
                                            estimate: answer.estimate,
                                            coverage,
                                        })))
                                    }
                                };
                                Delivery::Push { watch_id, message }
                            }
                            Work::Lifecycle => {
                                if let Err(e) = store.lifecycle_tick() {
                                    slog!(LogLevel::Warn, "lifecycle_tick_failed", err = e);
                                }
                                Delivery::Lifecycle
                            }
                        };
                        if let Some(trace) = &mut trace {
                            trace.lap(WORK, Instant::now());
                        }
                        if done_tx
                            .send(Completion {
                                token,
                                delivery,
                                trace,
                                ingested,
                            })
                            .is_err()
                        {
                            return;
                        }
                        wake.wake();
                    })
                    .expect("spawn worker")
            })
            .collect();

        let mut event_loop = EventLoop::new(
            listener,
            waker,
            shared.clone(),
            config,
            job_tx,
            done_rx,
            store,
        )?;
        let handle = std::thread::Builder::new()
            .name("sas-serve-loop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");

        Ok(Server {
            shared,
            event_loop: Some(handle),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The loop's counters, readable at any time.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics.snapshot()
    }

    /// Asks the daemon to stop: the loop stops accepting, flushes every
    /// connection to a frame boundary, and exits. Idempotent. Call
    /// [`Server::wait`] to join.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the event loop and every worker have exited.
    pub fn wait(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Prefixes a frame with its length — the complete wire message.
fn to_message(frame: &[u8]) -> Vec<u8> {
    let mut m = Vec::with_capacity(4 + frame.len());
    m.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    m.extend_from_slice(frame);
    m
}

/// Ingests after which a lifecycle pass runs even if the cadence is not
/// due. An ingest costs one log append, so at high ingest rates a fixed
/// cadence alone would let minute windows awaiting roll-up or retention
/// pile up in memory in proportion to the rate; this keeps the backlog
/// bounded by a count instead.
pub const LIFECYCLE_INGESTS: u64 = 64;

/// How long shutdown waits for half-written frames to reach a boundary
/// before force-closing.
pub const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Cap on bytes read from one connection per readiness event, so one
/// fire-hose peer cannot starve the rest of the loop (level-triggered
/// polling re-reports the remainder immediately).
const READ_QUANTUM: usize = 64 * 1024;

/// One registered watch on a connection, with its coalescing state: at
/// most one evaluation in flight, at most one pending behind it — however
/// many ingests land while a push is being computed, the subscriber gets
/// exactly one more re-evaluation, against whatever snapshot is current.
struct WatchState {
    id: u64,
    spec: Arc<WatchSpec>,
    /// An evaluation job for this watch is on a worker.
    inflight: bool,
    /// A matching ingest completed while `inflight`; re-evaluate once the
    /// current evaluation lands.
    dirty: bool,
}

/// One served connection inside the loop.
struct ConnEntry {
    stream: TcpStream,
    /// Each sequenced response travels with its request's record.
    conn: Conn<ReqTrace>,
    /// When the currently incomplete inbound message started (read
    /// timeout anchor).
    frame_started: Option<Instant>,
    /// Last moment anything happened (idle timeout anchor).
    last_activity: Instant,
    /// The peer half-closed its write side; no more requests will arrive.
    peer_done: bool,
    /// Live watch subscriptions. A non-empty list exempts the connection
    /// from the idle timeout. Bounded by `max_watches_per_conn`.
    watches: Vec<WatchState>,
    /// Watch registrations dispatched but not yet answered; counted
    /// against the cap so a pipelined burst cannot overshoot it.
    pending_watches: usize,
}

impl ConnEntry {
    fn new(stream: TcpStream, conn: Conn<ReqTrace>, peer_done: bool) -> ConnEntry {
        ConnEntry {
            stream,
            conn,
            frame_started: None,
            last_activity: Instant::now(),
            peer_done,
            watches: Vec::new(),
            pending_watches: 0,
        }
    }
}

/// Event-loop health counters, resolved once from the registry.
struct LoopObs {
    /// `poller.wait` returns.
    wakeups: Arc<ObsCounter>,
    /// Wait returns with no readiness events (timeout ticks).
    spurious: Arc<ObsCounter>,
    /// Interest re-registrations skipped because the cached interest
    /// already matched (syscalls saved by the interest cache).
    reregisters_elided: Arc<ObsCounter>,
    /// Transitions to `Interest::NONE` — connections parked by
    /// backpressure with nothing to write.
    parked: Arc<ObsCounter>,
    /// Readiness events left unread because the connection's write budget
    /// or pipeline cap paused reading.
    backpressure_stalls: Arc<ObsCounter>,
    /// Watch update frames injected into subscriber outboxes.
    watch_pushes: Arc<ObsCounter>,
    /// Subscribers shed (BUSY + close) for not draining their pushes.
    watch_shed: Arc<ObsCounter>,
    /// Lifecycle ticks the loop scheduled onto the worker pool.
    lifecycle_ticks: Arc<ObsCounter>,
}

impl LoopObs {
    fn new(reg: &Registry) -> LoopObs {
        LoopObs {
            wakeups: reg.counter("sas_loop_wakeups_total"),
            spurious: reg.counter("sas_loop_spurious_wakeups_total"),
            reregisters_elided: reg.counter("sas_loop_reregisters_elided_total"),
            parked: reg.counter("sas_conns_parked_total"),
            backpressure_stalls: reg.counter("sas_read_backpressure_stalls_total"),
            watch_pushes: reg.counter("sas_watch_pushes_total"),
            watch_shed: reg.counter("sas_watch_shed_total"),
            lifecycle_ticks: reg.counter("sas_lifecycle_ticks_total"),
        }
    }
}

struct EventLoop {
    listener: TcpListener,
    waker: Waker,
    shared: Arc<Shared>,
    config: ServerConfig,
    /// Used only to look up and answer estimates ([`Store::lookup`],
    /// [`Store::cached_estimate`], and [`Store::answer`] while the pool is
    /// idle): everything else that may wait on the store runs on a worker.
    store: Arc<Store>,
    job_tx: Sender<Job>,
    /// Jobs of every kind sent to the pool whose completion has not been
    /// drained yet. Zero means no worker touches the store.
    jobs_in_flight: usize,
    done_rx: Receiver<Completion>,
    poller: Poller,
    interest: InterestCache,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    /// In-flight requests per dataset (admission control).
    dataset_inflight: HashMap<String, usize>,
    /// Set once a shutdown request frame was answered or the API flag
    /// flipped; the loop drains and exits.
    shutting_down: bool,
    shutdown_deadline: Option<Instant>,
    read_scratch: Vec<u8>,
    /// Daemon-unique watch ids (echoed in every push frame).
    next_watch_id: u64,
    /// When the last lifecycle tick *completed* (cadence anchor).
    last_lifecycle: Instant,
    /// A lifecycle job is on the worker pool; never schedule a second.
    lifecycle_inflight: bool,
    /// Ingests completed since the last lifecycle job was scheduled.
    ingests_since_lifecycle: u64,
    lobs: LoopObs,
    robs: RequestObs,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        waker: Waker,
        shared: Arc<Shared>,
        config: ServerConfig,
        job_tx: Sender<Job>,
        done_rx: Receiver<Completion>,
        store: Arc<Store>,
    ) -> io::Result<EventLoop> {
        let registry = store.obs().clone();
        let mut poller = Poller::new()?;
        let mut interest = InterestCache::new();
        interest.register(
            &mut poller,
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READ,
        )?;
        interest.register(&mut poller, waker.read_fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            listener,
            waker,
            shared,
            config,
            store,
            job_tx,
            jobs_in_flight: 0,
            done_rx,
            poller,
            interest,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            dataset_inflight: HashMap::new(),
            shutting_down: false,
            shutdown_deadline: None,
            read_scratch: vec![0u8; READ_QUANTUM],
            next_watch_id: 1,
            last_lifecycle: Instant::now(),
            lifecycle_inflight: false,
            ingests_since_lifecycle: 0,
            lobs: LoopObs::new(&registry),
            robs: RequestObs::new(&registry),
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failed wait would spin; nothing sensible to do but
                // stop. (Never observed outside fd exhaustion.)
                break;
            }
            self.lobs.wakeups.inc();
            if events.is_empty() {
                self.lobs.spurious.inc();
            }

            let fired: Vec<Event> = std::mem::take(&mut events);
            // The wake pipe first, then the completion channel: a worker
            // sends its completion before it writes its wake byte, so every
            // byte drained here belongs to a completion the channel already
            // holds. The other way round, a completion sent between the two
            // drains would lose its wake and wait for an unrelated event or
            // the poll cap.
            if fired.iter().any(|ev| ev.token == WAKER_TOKEN) {
                self.waker.drain();
            }
            self.drain_completions();

            let solo = fired.len() == 1;
            for ev in fired {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {}
                    token => self.conn_ready(token, ev, solo),
                }
            }

            if self.shared.shutdown.load(Ordering::SeqCst) && !self.shutting_down {
                self.enter_shutdown();
            }
            self.maybe_schedule_lifecycle();
            self.sweep_timeouts();
            self.refresh_interest();

            if self.shutting_down {
                let expired = self
                    .shutdown_deadline
                    .map(|d| Instant::now() >= d)
                    .unwrap_or(false);
                if expired {
                    // Grace over: whoever did not drain loses the tail.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for t in tokens {
                        self.drop_conn(t);
                    }
                }
                if self.conns.is_empty() {
                    return;
                }
            }
        }
    }

    /// The poller timeout: the nearest deadline among read/idle timeouts,
    /// the lifecycle cadence, and the shutdown grace, clamped to keep the
    /// loop responsive.
    fn wait_timeout(&self) -> Duration {
        let mut next: Option<Instant> = self.shutdown_deadline;
        let now = Instant::now();
        if let (Some(every), false) = (self.config.lifecycle_every, self.lifecycle_inflight) {
            let deadline = self.last_lifecycle + every;
            next = Some(next.map_or(deadline, |n| n.min(deadline)));
        }
        for entry in self.conns.values() {
            if let Some(started) = entry.frame_started {
                let deadline = started + self.config.read_timeout;
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            } else if let Some(idle) = self.config.idle_timeout {
                // Watch subscribers are exempt from the idle reap and set
                // no idle deadline.
                if entry.watches.is_empty() {
                    let deadline = entry.last_activity + idle;
                    next = Some(next.map_or(deadline, |n| n.min(deadline)));
                }
            }
        }
        let cap = Duration::from_millis(500);
        match next {
            None => cap,
            Some(d) => d.saturating_duration_since(now).min(cap),
        }
    }

    /// Schedules one lifecycle pass onto the worker pool when the cadence
    /// is due, or [`LIFECYCLE_INGESTS`] ingests landed since the last one.
    /// Single-inflight: a slow pass never stacks a second behind it, and
    /// the cadence anchor resets when the pass *completes*.
    fn maybe_schedule_lifecycle(&mut self) {
        let Some(every) = self.config.lifecycle_every else {
            return;
        };
        if self.lifecycle_inflight || self.shutting_down {
            return;
        }
        if self.last_lifecycle.elapsed() < every && self.ingests_since_lifecycle < LIFECYCLE_INGESTS
        {
            return;
        }
        let job = Job {
            token: LISTENER_TOKEN, // no connection
            work: Work::Lifecycle,
            trace: None,
        };
        if self.send_job(job).is_ok() {
            self.lifecycle_inflight = true;
            self.ingests_since_lifecycle = 0;
            self.lobs.lifecycle_ticks.inc();
        }
    }

    // ---- accept path -------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (ECONNABORTED etc.); retry next tick
                Ok((stream, _peer)) => {
                    if self.shutting_down {
                        drop(stream); // no new work during drain
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.conns.len() >= self.config.max_conns {
                        self.shed(stream);
                        continue;
                    }
                    self.install(stream);
                }
            }
        }
    }

    /// Over the connection limit: answer one explicit BUSY frame, flush
    /// it, close. The connection occupies a token until the frame is out,
    /// but never dispatches work, and the stuck-drain timeout bounds how
    /// long a peer that refuses to read the BUSY can hold it.
    fn shed(&mut self, stream: TcpStream) {
        self.shared.metrics.shed_conns.inc();
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn::new(self.conn_config());
        conn.inject_unsolicited(to_message(&encode_response(&Response::Busy(
            "connection limit reached".into(),
        ))));
        conn.close_after_flush();
        if self
            .interest
            .register(&mut self.poller, stream.as_raw_fd(), token, Interest::WRITE)
            .is_err()
        {
            return; // fd gone already; nothing to shed
        }
        self.conns.insert(token, ConnEntry::new(stream, conn, true));
        self.flush_conn(token);
        self.maybe_close(token);
    }

    fn install(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .interest
            .register(&mut self.poller, stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            ConnEntry::new(stream, Conn::new(self.conn_config()), false),
        );
        self.shared.metrics.accepted.inc();
        self.shared
            .metrics
            .active_conns
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn conn_config(&self) -> ConnConfig {
        ConnConfig {
            write_budget: self.config.write_budget,
            max_frame: proto::MAX_MESSAGE_LEN,
            max_pipeline: self.config.max_pipeline,
        }
    }

    // ---- connection I/O ----------------------------------------------

    /// Serves one readiness event; `solo`: it is the only event of its
    /// wakeup.
    fn conn_ready(&mut self, token: u64, ev: Event, solo: bool) {
        if !self.conns.contains_key(&token) {
            return; // reaped earlier this tick
        }
        if ev.error {
            // Try a read to surface the precise error; either way the
            // connection is done. EPOLLHUP with pending data still reads.
            self.drop_conn(token);
            return;
        }
        if ev.readable {
            self.read_ready(token, solo);
        }
        if self.conns.contains_key(&token) && ev.writable {
            self.flush_conn(token);
            // A drained outbox may free the write budget: parked messages
            // release now, not on the next socket read.
            self.pump(token);
            self.flush_conn(token);
        }
        self.maybe_close(token);
    }

    /// Reads what the socket holds and dispatches the complete frames.
    /// `solo` (the read is its wakeup's only event) carries to a frame
    /// that is also all the read delivered: nothing parked or partial
    /// behind it.
    fn read_ready(&mut self, token: u64, solo: bool) {
        enum Fate {
            Keep,
            Drop,
            Protocol,
        }
        let mut frames = Vec::new();
        let mut solo = solo;
        // Scoped so the `conns` borrow ends before drop_conn/dispatch.
        let fate = {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            if entry.conn.closing() {
                return;
            }
            if !entry.conn.wants_read() {
                // Backpressure: leave the bytes in the kernel buffer; TCP
                // flow control pushes back on the peer.
                self.lobs.backpressure_stalls.inc();
                return;
            }
            let mut total = 0usize;
            let mut eof = false;
            let mut fate = Fate::Keep;
            loop {
                if total >= READ_QUANTUM {
                    break; // fairness: the rest surfaces next tick
                }
                let window = READ_QUANTUM - total;
                match entry.stream.read(&mut self.read_scratch[..window]) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fate = Fate::Drop;
                        break;
                    }
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        total += n;
                        match entry.conn.on_bytes(&self.read_scratch[..n]) {
                            Ok(mut got) => frames.append(&mut got),
                            Err(_fatal) => {
                                fate = Fate::Protocol;
                                break;
                            }
                        }
                        if !entry.conn.wants_read() {
                            // budget/pipeline limit hit mid-read
                            self.lobs.backpressure_stalls.inc();
                            break;
                        }
                    }
                }
            }
            if total > 0 {
                entry.last_activity = Instant::now();
            }
            // Read-timeout anchor: a partial message keeps its original
            // start (trickling bytes must not extend the deadline); a
            // clean boundary clears it.
            entry.frame_started = if entry.conn.has_partial_frame() {
                Some(entry.frame_started.unwrap_or_else(Instant::now))
            } else {
                None
            };
            // A read cut at the quantum may have left bytes in the kernel.
            solo = solo
                && frames.len() == 1
                && total < READ_QUANTUM
                && entry.conn.buffered_requests() == 0
                && !entry.conn.has_partial_frame();
            if matches!(fate, Fate::Keep) && eof {
                entry.peer_done = true;
                if entry.conn.has_partial_frame() {
                    // Mid-frame half-close: the message can never
                    // complete; drop without occupying a worker.
                    fate = Fate::Drop;
                } else if entry.conn.idle() && frames.is_empty() {
                    fate = Fate::Drop;
                } else {
                    // Half-close with requests pending: answer them,
                    // flush, then close (maybe_close once drained).
                    entry.conn.close_after_flush();
                }
            }
            fate
        };
        match fate {
            Fate::Protocol => {
                self.shared.metrics.protocol_errors.inc();
                self.drop_conn(token);
                return;
            }
            Fate::Drop => {
                self.drop_conn(token);
                return;
            }
            Fate::Keep => {}
        }
        for inbound in frames {
            self.dispatch(token, inbound.seq, &inbound.frame, solo);
        }
        self.pump(token);
        self.flush_conn(token);
    }

    /// Releases messages parked behind the flow-control caps: inline
    /// responses (pings, protocol errors) free pipeline slots as they are
    /// dispatched, so parsing and dispatch loop until the caps genuinely
    /// bind (worker slots full or outbox over budget) or the buffer is
    /// drained.
    fn pump(&mut self, token: u64) {
        loop {
            let ready = {
                let Some(entry) = self.conns.get_mut(&token) else {
                    return;
                };
                match entry.conn.take_ready() {
                    Ok(ready) => ready,
                    Err(_fatal) => {
                        self.shared.metrics.protocol_errors.inc();
                        self.drop_conn(token);
                        return;
                    }
                }
            };
            if ready.is_empty() {
                return;
            }
            for inbound in ready {
                self.dispatch(token, inbound.seq, &inbound.frame, false);
            }
        }
    }

    /// Routes one request: inline answers (estimates the loop may answer
    /// included) on the loop, store work to the pool, BUSY under admission
    /// control. `solo`: the request is all its wakeup delivered. The
    /// request's record starts here and travels with it to its flush.
    fn dispatch(&mut self, token: u64, seq: u64, frame: &[u8], solo: bool) {
        let mut trace = ReqTrace::start(seq);
        let req = match decode_request(frame) {
            Ok(req) => req,
            Err(e) => {
                trace.lap(PARSE, Instant::now());
                // Bad frame, sound framing: answer and keep the
                // connection (matches the blocking server's contract).
                let resp = Response::Err(format!("bad request: {e}"));
                return self.respond_inline(token, trace, &resp);
            }
        };
        trace.tag = request_tag(&req);
        // An estimate that nothing earlier on its connection still waits
        // for may be answered here: it is looked up once, inside `parse`.
        let work = match req {
            req @ (Request::Query { .. } | Request::Estimate { .. })
                if self
                    .conns
                    .get(&token)
                    .is_some_and(|e| e.conn.answered_before(seq)) =>
            {
                let (reply, lookup) = estimate_lookup(&self.store, req);
                Work::Estimate(reply, lookup)
            }
            req => Work::Req(req),
        };
        trace.lap(PARSE, Instant::now());
        let work = match work {
            Work::Req(Request::Ping) => return self.respond_inline(token, trace, &Response::Pong),
            Work::Req(Request::Shutdown) => {
                self.respond_inline(token, trace, &Response::Shutdown);
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.conn.close_after_flush();
                }
                return self.shared.begin_shutdown();
            }
            // Before admission control: an estimate answered here never
            // occupies a worker, so it is never shed.
            Work::Estimate(reply, lookup) if solo && self.jobs_in_flight == 0 => {
                let message = self.answer_on_loop(reply, lookup, &mut trace);
                return self.respond(token, message, trace);
            }
            Work::Estimate(reply, lookup) => match self.answer_cached(reply, &lookup, &mut trace) {
                Some(message) => return self.respond(token, message, trace),
                None => Work::Estimate(reply, lookup),
            },
            work => work,
        };
        let dataset = match &work {
            Work::Req(req) => request_dataset(req),
            Work::Estimate(_, lookup) => Some(&*lookup.dataset),
            _ => None,
        };
        let cap = self.config.dataset_inflight;
        if let (Some(ds), 1..) = (dataset, cap) {
            if self.dataset_inflight.get(ds).copied().unwrap_or(0) >= cap {
                self.shared.metrics.shed_requests.inc();
                let resp = Response::Busy(format!(
                    "dataset '{ds}' at its admission limit ({cap} in flight)"
                ));
                return self.respond_inline(token, trace, &resp);
            }
            trace.dataset = Some(ds.to_string());
        }
        // Watch registrations turn into connection state; the cap is
        // checked here, on the loop, counting registrations still in
        // flight so a pipelined burst cannot overshoot.
        let work = if let Work::Req(Request::Watch {
            dataset: ds,
            kind,
            query,
            confidence,
            time,
        }) = work
        {
            let cap = self.config.max_watches_per_conn;
            let over = self
                .conns
                .get(&token)
                .map(|e| e.watches.len() + e.pending_watches >= cap)
                .unwrap_or(true);
            if over {
                let resp = Response::Err(format!("watch limit reached ({cap} per connection)"));
                return self.respond_inline(token, trace, &resp);
            }
            let watch_id = self.next_watch_id;
            self.next_watch_id += 1;
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.pending_watches += 1;
            }
            Work::WatchRegister {
                watch_id,
                spec: Arc::new(WatchSpec {
                    dataset: ds,
                    kind,
                    query,
                    confidence,
                    time,
                }),
            }
        } else {
            work
        };
        if let Some(ds) = &trace.dataset {
            *self.dataset_inflight.entry(ds.clone()).or_insert(0) += 1;
        }
        self.shared.metrics.requests.inc();
        trace.since = Instant::now(); // the `queue` stage starts
        let job = Job {
            token,
            work,
            trace: Some(trace),
        };
        if let Err(unsent) = self.send_job(job) {
            if let SendError(Job {
                trace: Some(trace), ..
            }) = *unsent
            {
                // Workers gone (shutdown race): answer what we can.
                self.respond_inline(token, trace, &Response::Err("server stopping".into()));
            }
        }
    }

    /// Queues `message` as the response to the request `trace` records;
    /// its `queued` stage starts now.
    fn respond(&mut self, token: u64, message: Vec<u8>, mut trace: ReqTrace) {
        if let Some(entry) = self.conns.get_mut(&token) {
            trace.since = Instant::now();
            entry.conn.push_response(trace.seq, message, trace);
        }
    }

    /// Answers the request `trace` records right here on the loop: its
    /// `queue` and `work` stages stay zero.
    fn respond_inline(&mut self, token: u64, trace: ReqTrace, resp: &Response) {
        self.respond(token, to_message(&encode_response(resp)), trace);
    }

    /// Hands `job` to the pool, counting it in flight until its
    /// completion is drained.
    fn send_job(&mut self, job: Job) -> Result<(), Box<SendError<Job>>> {
        self.job_tx.send(job).map_err(Box::new)?;
        self.jobs_in_flight += 1;
        Ok(())
    }

    /// Finishes a looked-up `REQ_ESTIMATE` or `REQ_QUERY` right here on
    /// the loop, hit or miss, with the bytes a worker would send. Only for
    /// an estimate that arrived alone while the pool is idle (see the
    /// module docs): nothing else waits for the loop, and no worker holds
    /// the cache lock. Returns the response message, the answer timed as
    /// `trace`'s `work` stage.
    fn answer_on_loop(
        &self,
        reply: Reply,
        lookup: Lookup<'static>,
        trace: &mut ReqTrace,
    ) -> Vec<u8> {
        let slow = self
            .config
            .slow_query
            .is_some()
            .then(|| SlowMeta::looked_up(&lookup));
        let answer = self.store.answer(lookup);
        if !matches!(answer, Ok(EstimateAnswer { cached: true, .. })) {
            self.shared.metrics.loop_misses.inc();
        }
        let message = estimate_message(reply, answer, slow, Some(&mut *trace));
        trace.lap(WORK, Instant::now());
        message
    }

    /// Answers a looked-up `REQ_ESTIMATE` or `REQ_QUERY` whose answer is
    /// cached, right here on the loop, without waiting for the cache lock.
    /// Returns the response message, the probe timed as `trace`'s `work`
    /// stage; a miss returns `None` and leaves the lookup for the pool.
    fn answer_cached(
        &self,
        reply: Reply,
        lookup: &Lookup<'_>,
        trace: &mut ReqTrace,
    ) -> Option<Vec<u8>> {
        let hit = self.store.cached_estimate(lookup)?;
        let slow = self
            .config
            .slow_query
            .is_some()
            .then(|| SlowMeta::looked_up(lookup));
        let message = estimate_message(reply, Ok(hit), slow, Some(&mut *trace));
        trace.lap(WORK, Instant::now());
        Some(message)
    }

    fn drain_completions(&mut self) {
        loop {
            match self.done_rx.try_recv() {
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
                Ok(done) => {
                    self.jobs_in_flight -= 1;
                    if let Some(ds) = done.trace.as_ref().and_then(|t| t.dataset.as_deref()) {
                        if let Some(n) = self.dataset_inflight.get_mut(ds) {
                            *n -= 1;
                            if *n == 0 {
                                self.dataset_inflight.remove(ds);
                            }
                        }
                    }
                    match done.delivery {
                        Delivery::Lifecycle => {
                            // Cadence anchors on completion: a pass slower
                            // than the interval never stacks a backlog.
                            self.lifecycle_inflight = false;
                            self.last_lifecycle = Instant::now();
                        }
                        Delivery::Push { watch_id, message } => {
                            self.deliver_push(done.token, watch_id, message);
                        }
                        Delivery::Response(message) => {
                            self.deliver_response(done.token, message, done.trace);
                        }
                        Delivery::WatchRegistered(message, watch) => {
                            if let Some(entry) = self.conns.get_mut(&done.token) {
                                entry.pending_watches = entry.pending_watches.saturating_sub(1);
                                if let Some((id, spec)) = watch {
                                    entry.watches.push(WatchState {
                                        id,
                                        spec,
                                        inflight: false,
                                        dirty: false,
                                    });
                                }
                            }
                            self.deliver_response(done.token, message, done.trace);
                        }
                    }
                    // A sealed ingest re-evaluates every watch on its
                    // series (coalesced while one is already in flight).
                    if let Some((dataset, kind_tag)) = done.ingested {
                        self.ingests_since_lifecycle += 1;
                        self.notify_watchers(&dataset, kind_tag);
                    }
                }
            }
        }
    }

    /// Queues a worker's response with its request's record, then
    /// releases what the completion freed: a pipeline slot, and (once
    /// flushed) write budget, both of which let parked messages out.
    fn deliver_response(&mut self, token: u64, message: Vec<u8>, trace: Option<ReqTrace>) {
        if let Some(trace) = trace {
            self.respond(token, message, trace);
        }
        self.pump(token);
        self.flush_conn(token);
        self.pump(token);
        self.maybe_close(token);
    }

    /// Lands one watch evaluation: inject the push if the subscription
    /// still exists and the peer is keeping up, shed the subscriber if it
    /// is not, and re-evaluate immediately when ingests landed meanwhile.
    fn deliver_push(&mut self, token: u64, watch_id: u64, message: Option<Vec<u8>>) {
        let write_budget = self.config.write_budget;
        let Some(entry) = self.conns.get_mut(&token) else {
            return; // connection closed while the eval ran
        };
        let Some(watch) = entry.watches.iter_mut().find(|w| w.id == watch_id) else {
            return;
        };
        watch.inflight = false;
        let redo = std::mem::take(&mut watch.dirty);
        let spec = watch.spec.clone();
        if let Some(message) = message {
            if entry.conn.queued_bytes() > write_budget {
                // The subscriber is not draining its pushes; holding them
                // would grow the outbox without bound. Same exit as an
                // over-limit arrival: explicit BUSY, clean close.
                self.lobs.watch_shed.inc();
                entry.watches.clear();
                entry
                    .conn
                    .inject_unsolicited(to_message(&encode_response(&Response::Busy(
                        "watch subscriber too slow".into(),
                    ))));
                entry.conn.close_after_flush();
                self.flush_conn(token);
                self.maybe_close(token);
                return;
            }
            entry.conn.inject_unsolicited(message);
            entry.last_activity = Instant::now();
            self.lobs.watch_pushes.inc();
            self.flush_conn(token);
        }
        if redo {
            self.spawn_watch_eval(token, watch_id, spec);
        }
    }

    /// Queues one evaluation job for a registered watch and marks it in
    /// flight.
    fn spawn_watch_eval(&mut self, token: u64, watch_id: u64, spec: Arc<WatchSpec>) {
        let sent = self
            .send_job(Job {
                token,
                work: Work::WatchEval { watch_id, spec },
                trace: None, // no request, and no per-dataset admission
            })
            .is_ok();
        if sent {
            if let Some(watch) = self
                .conns
                .get_mut(&token)
                .and_then(|e| e.watches.iter_mut().find(|w| w.id == watch_id))
            {
                watch.inflight = true;
            }
        }
    }

    /// Fans one sealed ingest out to every live watch on its series.
    fn notify_watchers(&mut self, dataset: &str, kind_tag: u16) {
        let mut due: Vec<(u64, u64, Arc<WatchSpec>)> = Vec::new();
        for (&token, entry) in self.conns.iter_mut() {
            if entry.conn.closing() {
                continue;
            }
            for watch in entry.watches.iter_mut() {
                if watch.spec.dataset == dataset && watch.spec.kind.tag() == kind_tag {
                    if watch.inflight {
                        watch.dirty = true; // coalesce
                    } else {
                        due.push((token, watch.id, watch.spec.clone()));
                    }
                }
            }
        }
        for (token, watch_id, spec) in due {
            self.spawn_watch_eval(token, watch_id, spec);
        }
    }

    /// Writes as much of the outbox as the socket accepts. A response's
    /// first write ends its record's `queued` stage; the write of its last
    /// byte hands the record back to be finished.
    fn flush_conn(&mut self, token: u64) {
        let mut finished: Vec<ReqTrace> = Vec::new();
        let dead = {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            let mut dead = false;
            while let Some(chunk) = entry.conn.next_chunk() {
                let first_write = !entry.conn.mid_frame();
                match entry.stream.write(chunk) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                    Ok(0) => break,
                    Ok(n) => {
                        let now = Instant::now();
                        if let (true, Some(trace)) = (first_write, entry.conn.front_mut()) {
                            trace.lap(QUEUED, now);
                        }
                        finished.extend(entry.conn.advance(n));
                        entry.last_activity = now;
                    }
                }
            }
            self.shared
                .metrics
                .bump_queued_high_water(entry.conn.queued_bytes());
            dead
        };
        let flushed_at = Instant::now();
        for trace in finished {
            self.finish_trace(trace, flushed_at);
        }
        if dead {
            self.drop_conn(token);
        }
    }

    /// Ends a fully flushed request's `flush` stage at `flushed_at`,
    /// records it into the per-tag stage and total histograms, and emits
    /// the slow-query record when it qualifies.
    fn finish_trace(&self, mut trace: ReqTrace, flushed_at: Instant) {
        trace.lap(FLUSH, flushed_at);
        let total_ns: u64 = trace.stage_ns.iter().sum();
        let cells = self.robs.cells(trace.tag);
        cells.completed.inc();
        cells.total_ns.record(total_ns);
        for (hist, ns) in cells.stage_ns.iter().zip(trace.stage_ns) {
            hist.record(ns);
        }
        if let Some(threshold) = self.config.slow_query {
            if total_ns >= u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX) {
                let (dataset, query, windows) = match &trace.slow {
                    Some(m) => (m.dataset.as_str(), m.query.as_str(), m.windows),
                    None => ("-", "-", 0),
                };
                let [parse_ns, queue_ns, work_ns, queued_ns, flush_ns] = trace.stage_ns;
                slog!(
                    LogLevel::Warn,
                    "slow_query",
                    tag = trace.tag,
                    dataset = dataset,
                    query = query,
                    windows = windows,
                    total_us = total_ns / 1_000,
                    parse_us = parse_ns / 1_000,
                    queue_us = queue_ns / 1_000,
                    work_us = work_ns / 1_000,
                    queued_us = queued_ns / 1_000,
                    flush_us = flush_ns / 1_000
                );
            }
        }
    }

    fn maybe_close(&mut self, token: u64) {
        let closable = self
            .conns
            .get(&token)
            .map(|e| e.conn.closable())
            .unwrap_or(false);
        if closable {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self
                .interest
                .deregister(&mut self.poller, entry.stream.as_raw_fd());
            // entry.stream drops here, closing the fd after deregistration.
        }
        self.shared
            .metrics
            .active_conns
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    // ---- timers, interest, shutdown ----------------------------------

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        for (&token, entry) in &self.conns {
            // The slow-loris deadline only applies while we are actually
            // waiting on the peer: a read paused by our own backpressure
            // (outbox over budget, pipeline full) is not the peer's fault.
            if let (Some(started), true) = (entry.frame_started, entry.conn.wants_read()) {
                if now.saturating_duration_since(started) >= self.config.read_timeout {
                    doomed.push((token, true));
                    continue;
                }
            }
            // A closing connection that stopped making write progress (a
            // shed peer that never reads its BUSY, say) may not hold its
            // slot past the read timeout either.
            if entry.conn.closing()
                && !entry.conn.closable()
                && now.saturating_duration_since(entry.last_activity) >= self.config.read_timeout
            {
                doomed.push((token, true));
                continue;
            }
            // Live subscriptions are legitimately quiet between pushes;
            // only watch-free connections are reaped as idle.
            if let Some(idle) = self.config.idle_timeout {
                if entry.conn.idle()
                    && entry.watches.is_empty()
                    && now.saturating_duration_since(entry.last_activity) >= idle
                {
                    doomed.push((token, false));
                }
            }
        }
        for (token, was_read) in doomed {
            let cell = if was_read {
                &self.shared.metrics.read_timeouts
            } else {
                &self.shared.metrics.idle_timeouts
            };
            cell.inc();
            self.drop_conn(token);
        }
    }

    /// Aligns poller interest with each connection's current wishes.
    fn refresh_interest(&mut self) {
        for (&token, entry) in &self.conns {
            let wants_read = entry.conn.wants_read() && !entry.peer_done;
            let wants_write = entry.conn.wants_write();
            let interest = match (wants_read, wants_write) {
                (true, true) => Interest::BOTH,
                (true, false) => Interest::READ,
                (false, true) => Interest::WRITE,
                // Parked (pipeline full, nothing to write yet): only
                // error/hang-up wakes us — a level-triggered read backlog
                // we refuse to consume must not spin the loop. Progress
                // resumes when a worker completion arrives via the waker.
                (false, false) => Interest::NONE,
            };
            match self
                .interest
                .ensure(&mut self.poller, entry.stream.as_raw_fd(), token, interest)
            {
                Ok(false) => self.lobs.reregisters_elided.inc(),
                Ok(true) if interest == Interest::NONE => self.lobs.parked.inc(),
                _ => {}
            }
        }
    }

    fn enter_shutdown(&mut self) {
        self.shutting_down = true;
        self.shutdown_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
        let _ = self
            .interest
            .deregister(&mut self.poller, self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(entry) = self.conns.get_mut(&token) {
                if !entry.conn.closing() {
                    // Frame-boundary abort: finish a half-written frame,
                    // drop everything not yet started.
                    entry.conn.abort_at_boundary();
                }
            }
            self.flush_conn(token);
            self.maybe_close(token);
        }
    }
}

/// The dataset a request is charged against for admission control.
fn request_dataset(req: &Request) -> Option<&str> {
    match req {
        Request::Query { dataset, .. }
        | Request::Estimate { dataset, .. }
        | Request::EstimateCov { dataset, .. }
        | Request::Watch { dataset, .. }
        | Request::PolicySet { dataset, .. }
        | Request::Ingest { dataset, .. } => Some(dataset),
        Request::PolicyShow { .. }
        | Request::List
        | Request::Stats
        | Request::Metrics
        | Request::Ping
        | Request::Shutdown => None,
    }
}

/// Answers an ingest and additionally names the `(dataset, kind tag)`
/// series a successful batch sealed into — the loop re-evaluates watches
/// on that series. [`handle_request`] shares this and drops the series.
fn ingest_response(
    store: &Store,
    dataset: &str,
    ts: u64,
    frame: &[u8],
) -> (Response, Option<(String, u16)>) {
    match decode_summary(frame) {
        Err(e) => (Response::Err(format!("bad batch frame: {e}")), None),
        Ok(batch) => match store.ingest(dataset, ts, batch) {
            Err(e) => (Response::Err(e.to_string()), None),
            Ok(window) => {
                let series = (window.key.dataset.clone(), window.key.kind.tag());
                (
                    Response::Ingest {
                        level: window.key.level,
                        start: window.key.start,
                        items: window.summary.item_count() as u64,
                    },
                    Some(series),
                )
            }
        },
    }
}

/// How an estimate's answer is framed.
#[derive(Debug, Clone, Copy)]
enum Reply {
    /// The legacy value-only `REQ_QUERY`.
    Value,
    /// `REQ_ESTIMATE`: the estimate with its bounds.
    Estimate,
}

impl Reply {
    /// The response carrying `answer`.
    fn frame(self, answer: Result<EstimateAnswer, StoreError>) -> Response {
        match (self, answer) {
            (_, Err(e)) => Response::Err(e.to_string()),
            (Reply::Value, Ok(answer)) => Response::Query {
                value: answer.estimate.value,
                windows: answer.windows,
                cached: answer.cached,
            },
            (Reply::Estimate, Ok(answer)) => Response::Estimate {
                estimate: answer.estimate,
                windows: answer.windows,
                cached: answer.cached,
            },
        }
    }
}

/// Frames a looked-up estimate's answer as its response message, and
/// hands `trace` the lookup's slow-log metadata `slow` (when the log is
/// on), completed with the windows the answer consulted. The loop and the
/// workers both frame here, so an estimate answered on the loop is
/// byte-identical to a worker's answer.
fn estimate_message(
    reply: Reply,
    answer: Result<EstimateAnswer, StoreError>,
    slow: Option<SlowMeta>,
    trace: Option<&mut ReqTrace>,
) -> Vec<u8> {
    let response = reply.frame(answer);
    if let Some(trace) = trace {
        trace.slow = slow.map(|meta| meta.answered(&response));
    }
    to_message(&encode_response(&response))
}

/// Looks up a `REQ_QUERY` or `REQ_ESTIMATE` ([`Store::lookup`]), taking the
/// request apart so its query is never copied, and says how the answer is
/// framed. The legacy value-only tag is a box estimate at 0.95, the
/// confidence its values have always been computed at, so it shares cache
/// lines (and values, bit for bit) with `REQ_ESTIMATE` at 0.95.
fn estimate_lookup(store: &Store, req: Request) -> (Reply, Lookup<'static>) {
    match req {
        Request::Query {
            dataset,
            kind,
            range,
            time,
        } => (
            Reply::Value,
            store.lookup(
                dataset.into(),
                kind,
                Cow::Owned(Query::BoxRange(range)),
                0.95,
                time,
            ),
        ),
        Request::Estimate {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => (
            Reply::Estimate,
            store.lookup(dataset.into(), kind, Cow::Owned(query), confidence, time),
        ),
        other => unreachable!("{} is not an estimate request", request_tag(&other)),
    }
}

/// Dispatches one decoded request against the store. Pure: no I/O beyond
/// the store itself, so it is directly unit-testable without sockets.
pub fn handle_request(store: &Store, req: Request) -> Response {
    match req {
        // What `Store::estimate` does, without copying the query.
        req @ (Request::Query { .. } | Request::Estimate { .. }) => {
            let (reply, lookup) = estimate_lookup(store, req);
            reply.frame(store.answer(lookup))
        }
        Request::EstimateCov {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => match store.estimate_with_coverage(&dataset, kind, &query, confidence, time) {
            Err(e) => Response::Err(e.to_string()),
            Ok((answer, coverage)) => Response::EstimateCov {
                estimate: answer.estimate,
                windows: answer.windows,
                cached: answer.cached,
                coverage,
            },
        },
        // The daemon intercepts watches before they reach this dispatcher
        // (registration lives on the connection); anyone else calling in
        // has no connection to push to.
        Request::Watch { .. } => Response::Err("watch requires a daemon connection".into()),
        Request::PolicySet { dataset, policy } => match store.set_policy(&dataset, policy) {
            Err(e) => Response::Err(e.to_string()),
            Ok(()) => Response::PolicySet,
        },
        Request::PolicyShow { dataset } => Response::Policies(match dataset {
            None => store.policies(),
            Some(d) => store.policy(&d).map(|p| (d, p)).into_iter().collect(),
        }),
        Request::Ingest { dataset, ts, frame } => ingest_response(store, &dataset, ts, &frame).0,
        Request::List => Response::List(store.list()),
        Request::Stats => Response::Stats(store.stats()),
        Request::Metrics => Response::Metrics(store.obs().snapshot()),
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Shutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_response, encode_request};
    use crate::StoreConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sas_core::WeightedKey;
    use sas_summaries::{encode_summary, StoredSample, Summary};

    /// An exact 1-D sample batch of keys `lo..lo + n`.
    fn batch(lo: u64, n: u64) -> Box<dyn Summary> {
        let rows: Vec<WeightedKey> = (lo..lo + n)
            .map(|k| WeightedKey::new(k, 1.0 + (k % 7) as f64))
            .collect();
        let sample = sas_sampling::order::sample(&rows, rows.len(), &mut StdRng::seed_from_u64(1));
        Box::new(StoredSample::one_dim(sample))
    }

    fn send(stream: &mut TcpStream, req: &Request) {
        stream
            .write_all(&to_message(&encode_request(req)))
            .expect("send request");
    }

    fn recv(stream: &mut TcpStream, request_tag: u16) -> Response {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).expect("response length");
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        stream.read_exact(&mut frame).expect("response frame");
        decode_response(&frame, request_tag).expect("decodable response")
    }

    #[test]
    fn a_miss_while_an_ingest_is_in_flight_goes_to_the_pool() {
        let dir = std::env::temp_dir().join(format!(
            "sas-server-unit-{}-ingest-in-flight",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir, StoreConfig::default()).expect("open store"));
        store
            .ingest("web", 5, batch(0, 100))
            .expect("in-process ingest");
        let server = Server::start(store.clone(), "127.0.0.1:0", 2).expect("start daemon");
        let addr = server.local_addr();

        // Holding the writer lock parks the ingest on its worker: a job is
        // in flight until the lock is released.
        let writer = store.writer.lock().expect("writer lock");
        let mut ingesting = TcpStream::connect(addr).expect("connect");
        send(
            &mut ingesting,
            &Request::Ingest {
                dataset: "feed".into(),
                ts: 61,
                frame: encode_summary(batch(0, 10).as_ref()),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().requests == 0 {
            assert!(Instant::now() < deadline, "the ingest was never dispatched");
            std::thread::sleep(Duration::from_millis(5));
        }

        // A lone miss on another connection: the pool is busy, so the
        // other worker answers it.
        let mut asking = TcpStream::connect(addr).expect("connect");
        send(
            &mut asking,
            &Request::Estimate {
                dataset: "web".into(),
                kind: SummaryKind::Sample,
                query: Query::interval(0, 40),
                confidence: 0.95,
                time: None,
            },
        );
        assert!(matches!(
            recv(&mut asking, proto::REQ_ESTIMATE),
            Response::Estimate { cached: false, .. }
        ));
        let m = server.metrics();
        assert_eq!(
            (m.requests, m.loop_misses),
            (2, 0),
            "the miss went to the pool"
        );

        drop(writer);
        assert!(matches!(
            recv(&mut ingesting, proto::REQ_INGEST),
            Response::Ingest { .. }
        ));
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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
//! while every worker is busy.
//!
//! ## Pipelining & ordering
//!
//! Clients may write any number of requests before reading. Each parsed
//! request gets a per-connection sequence number; workers complete in any
//! order, and the connection's outbox releases responses strictly in
//! sequence order.
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
//!   — one hot dataset cannot monopolize the worker pool.
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

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
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
use crate::Store;

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
    /// Log (at `warn`) any request whose end-to-end time — first byte read
    /// to last byte flushed — reaches this threshold, with its per-stage
    /// breakdown, dataset, and canonical query bytes (`None`: disabled).
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
    /// Requests dispatched to the worker pool.
    pub requests: u64,
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
            max_queued_bytes: self.max_queued_bytes.get(),
            active_conns: self.active_conns.load(Ordering::Relaxed),
        }
    }

    fn bump_queued_high_water(&self, queued: usize) {
        self.max_queued_bytes.record_max(queued as u64);
    }
}

/// Stage names of the per-request clock, in pipeline order. Every request
/// is timed through all six; inline answers (ping, protocol errors) simply
/// record zero for `queue` and `work`.
const STAGES: [&str; 6] = ["read", "parse", "queue", "work", "queued", "flush"];

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

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-resolved per-tag request metrics: one completion counter, one
/// end-to-end histogram, and one histogram per stage. Resolved once at
/// startup so the hot path never touches the registry lock.
struct TagCells {
    completed: Arc<ObsCounter>,
    total_ns: Arc<ObsHistogram>,
    stage_ns: [Arc<ObsHistogram>; 6],
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

/// What the slow-query log reports beyond timings. Captured by workers
/// only when the log is enabled (the canonical-query hex costs an
/// allocation per request).
struct SlowMeta {
    dataset: String,
    /// Canonical query bytes, hex-encoded (`-` for requests with none).
    query: String,
    /// Summary windows the answer consulted.
    windows: u64,
}

/// One request's stage clock, parked in its connection until the response
/// is fully flushed. The end-to-end time is **defined** as the sum of the
/// six stages — no `Instant` subtraction across threads.
struct ReqTrace {
    tag: &'static str,
    read_ns: u64,
    parse_ns: u64,
    queue_ns: u64,
    work_ns: u64,
    /// When the response entered the outbox (starts the `queued` stage).
    t_queued: Instant,
    /// When its first byte reached the socket (starts the `flush` stage).
    t_first_write: Option<Instant>,
    slow: Option<SlowMeta>,
}

impl ReqTrace {
    fn inline(tag: &'static str, read_ns: u64, parse_ns: u64) -> ReqTrace {
        ReqTrace {
            tag,
            read_ns,
            parse_ns,
            queue_ns: 0,
            work_ns: 0,
            t_queued: Instant::now(),
            t_first_write: None,
            slow: None,
        }
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
    seq: u64,
    dataset: Option<String>,
    work: Work,
    tag: &'static str,
    read_ns: u64,
    parse_ns: u64,
    /// When the loop queued the job (starts the `queue` stage).
    t_dispatched: Instant,
}

/// How a completion's message (if any) reaches the peer.
enum Delivery {
    /// Sequenced response through the connection's ordered outbox.
    Response { seq: u64 },
    /// Unsolicited push for a watch, injected if it is still registered.
    Push { watch_id: u64 },
    /// No peer at all: a lifecycle pass finished.
    Lifecycle,
}

/// What a worker hands back.
struct Completion {
    token: u64,
    delivery: Delivery,
    dataset: Option<String>,
    /// `None`: nothing to write (lifecycle, or a watch eval that errored).
    message: Option<Vec<u8>>,
    tag: &'static str,
    read_ns: u64,
    parse_ns: u64,
    queue_ns: u64,
    work_ns: u64,
    slow: Option<SlowMeta>,
    /// A successful ingest sealed into this `(dataset, kind tag)` series —
    /// the loop re-evaluates matching watches.
    ingested: Option<(String, u16)>,
    /// A validated watch registration for the loop to install.
    register_watch: Option<(u64, Arc<WatchSpec>)>,
}

/// The canonical query bytes of a request, hex-encoded for the slow-query
/// log (`-` when the request has none or it cannot be canonicalized).
fn canonical_query_hex(req: &Request) -> String {
    let bytes = match req {
        Request::Query { range, .. } => Query::BoxRange(range.clone()).canonical_bytes().ok(),
        Request::Estimate { query, .. }
        | Request::EstimateCov { query, .. }
        | Request::Watch { query, .. } => query.canonical_bytes().ok(),
        _ => None,
    };
    match bytes {
        None => "-".into(),
        Some(b) => b.iter().map(|x| format!("{x:02x}")).collect(),
    }
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
                            seq,
                            dataset,
                            work,
                            tag,
                            read_ns,
                            parse_ns,
                            t_dispatched,
                        }) = job
                        else {
                            return; // loop gone, queue drained
                        };
                        let work_started = Instant::now();
                        let queue_ns = u64::try_from((work_started - t_dispatched).as_nanos())
                            .unwrap_or(u64::MAX);
                        let mut slow = None;
                        let mut ingested = None;
                        let mut register_watch = None;
                        let (delivery, message) = match work {
                            Work::Req(req) => {
                                // Slow-log metadata is captured up front:
                                // whether the request turns out slow is only
                                // known after the flush, when `req` is gone.
                                slow = slow_enabled.then(|| SlowMeta {
                                    dataset: dataset.clone().unwrap_or_else(|| "-".into()),
                                    query: canonical_query_hex(&req),
                                    windows: 0,
                                });
                                let response = match req {
                                    Request::Ingest { dataset, ts, frame } => {
                                        let (response, series) =
                                            ingest_response(&store, &dataset, ts, &frame);
                                        ingested = series;
                                        response
                                    }
                                    req => handle_request(&store, req),
                                };
                                if let Some(meta) = &mut slow {
                                    meta.windows = match &response {
                                        Response::Query { windows, .. }
                                        | Response::Estimate { windows, .. }
                                        | Response::EstimateCov { windows, .. } => *windows,
                                        _ => 0,
                                    };
                                }
                                (
                                    Delivery::Response { seq },
                                    Some(to_message(&encode_response(&response))),
                                )
                            }
                            Work::WatchRegister { watch_id, spec } => {
                                // Validate by answering once: a query the
                                // store cannot answer (bad confidence for
                                // the kind, say) must fail loudly here, not
                                // register a watch that can never push. An
                                // empty dataset is fine — data may arrive —
                                // but an *invalid* name never can, since
                                // ingest would have refused it.
                                let response = match crate::window::check_dataset(&spec.dataset)
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
                                    Err(e) => Response::Err(e.to_string()),
                                    Ok(_) => {
                                        register_watch = Some((watch_id, spec));
                                        Response::Watch { watch_id }
                                    }
                                };
                                (
                                    Delivery::Response { seq },
                                    Some(to_message(&encode_response(&response))),
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
                                (Delivery::Push { watch_id }, message)
                            }
                            Work::Lifecycle => {
                                if let Err(e) = store.lifecycle_tick() {
                                    slog!(LogLevel::Warn, "lifecycle_tick_failed", err = e);
                                }
                                (Delivery::Lifecycle, None)
                            }
                        };
                        let work_ns = elapsed_ns(work_started);
                        if done_tx
                            .send(Completion {
                                token,
                                delivery,
                                dataset,
                                message,
                                tag,
                                read_ns,
                                parse_ns,
                                queue_ns,
                                work_ns,
                                slow,
                                ingested,
                                register_watch,
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
            &registry,
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
    conn: Conn,
    /// When the currently incomplete inbound message started (read
    /// timeout anchor).
    frame_started: Option<Instant>,
    /// Last moment anything happened (idle timeout anchor).
    last_activity: Instant,
    /// The peer half-closed its write side; no more requests will arrive.
    peer_done: bool,
    /// Stage clocks of requests whose responses are not yet fully
    /// flushed, by sequence number. Bounded by `max_pipeline`.
    traces: HashMap<u64, ReqTrace>,
    /// Live watch subscriptions. A non-empty list exempts the connection
    /// from the idle timeout. Bounded by `max_watches_per_conn`.
    watches: Vec<WatchState>,
    /// Watch registrations dispatched but not yet answered; counted
    /// against the cap so a pipelined burst cannot overshoot it.
    pending_watches: usize,
}

impl ConnEntry {
    fn new(stream: TcpStream, conn: Conn, peer_done: bool) -> ConnEntry {
        ConnEntry {
            stream,
            conn,
            frame_started: None,
            last_activity: Instant::now(),
            peer_done,
            traces: HashMap::new(),
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
    job_tx: Sender<Job>,
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
        registry: &Registry,
    ) -> io::Result<EventLoop> {
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
            job_tx,
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
            lobs: LoopObs::new(registry),
            robs: RequestObs::new(registry),
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

            self.drain_completions();

            let fired: Vec<Event> = std::mem::take(&mut events);
            for ev in fired {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    token => self.conn_ready(token, ev),
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
            seq: 0,
            dataset: None,
            work: Work::Lifecycle,
            tag: "invalid", // never recorded: lifecycle has no trace
            read_ns: 0,
            parse_ns: 0,
            t_dispatched: Instant::now(),
        };
        if self.job_tx.send(job).is_ok() {
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

    fn conn_ready(&mut self, token: u64, ev: Event) {
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
            self.read_ready(token);
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

    fn read_ready(&mut self, token: u64) {
        enum Fate {
            Keep,
            Drop,
            Protocol,
        }
        let mut frames = Vec::new();
        // Scoped so the `conns` borrow ends before drop_conn/dispatch.
        let (fate, read_anchor) = {
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
            // Anchor for the `read` stage: if a partial message was
            // already pending, the first frame completed by this pass has
            // been arriving since then. Later frames rode the same burst.
            let read_anchor = entry.frame_started;
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
            (fate, read_anchor)
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
        let mut read_ns = read_anchor.map_or(0, elapsed_ns);
        for inbound in frames {
            self.dispatch(token, inbound.seq, &inbound.frame, read_ns);
            read_ns = 0;
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
                // Parked frames were fully buffered long ago; their read
                // time is indistinguishable from the park, charge zero.
                self.dispatch(token, inbound.seq, &inbound.frame, 0);
            }
        }
    }

    /// Routes one decoded request: inline answers on the loop, store work
    /// to the pool, BUSY under admission control. `read_ns` is the time
    /// the request's bytes spent arriving (zero when it rode a burst).
    fn dispatch(&mut self, token: u64, seq: u64, frame: &[u8], read_ns: u64) {
        let parse_started = Instant::now();
        let decoded = decode_request(frame);
        let parse_ns = elapsed_ns(parse_started);
        // Inline answers start their stage clock here: queue and work are
        // zero by definition (no worker involved).
        let respond_inline =
            |loop_: &mut Self, token: u64, seq: u64, tag: &'static str, resp: &Response| {
                if let Some(entry) = loop_.conns.get_mut(&token) {
                    entry
                        .conn
                        .push_response(seq, to_message(&encode_response(resp)));
                    entry
                        .traces
                        .insert(seq, ReqTrace::inline(tag, read_ns, parse_ns));
                }
            };
        match decoded {
            Err(e) => {
                // Bad frame, sound framing: answer and keep the
                // connection (matches the blocking server's contract).
                respond_inline(
                    self,
                    token,
                    seq,
                    "invalid",
                    &Response::Err(format!("bad request: {e}")),
                );
            }
            Ok(Request::Ping) => {
                respond_inline(self, token, seq, "ping", &Response::Pong);
            }
            Ok(Request::Shutdown) => {
                respond_inline(self, token, seq, "shutdown", &Response::Shutdown);
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.conn.close_after_flush();
                }
                self.shared.begin_shutdown();
            }
            Ok(req) => {
                let tag = request_tag(&req);
                let dataset = request_dataset(&req).map(str::to_string);
                if let (Some(ds), cap @ 1..) = (&dataset, self.config.dataset_inflight) {
                    let inflight = self.dataset_inflight.get(ds).copied().unwrap_or(0);
                    if inflight >= cap {
                        self.shared.metrics.shed_requests.inc();
                        respond_inline(
                            self,
                            token,
                            seq,
                            tag,
                            &Response::Busy(format!(
                                "dataset '{ds}' at its admission limit ({cap} in flight)"
                            )),
                        );
                        return;
                    }
                }
                // Watch registrations turn into connection state; the cap
                // is checked here, on the loop, counting registrations
                // still in flight so a pipelined burst cannot overshoot.
                let work = if let Request::Watch {
                    dataset: ds,
                    kind,
                    query,
                    confidence,
                    time,
                } = req
                {
                    let cap = self.config.max_watches_per_conn;
                    let over = self
                        .conns
                        .get(&token)
                        .map(|e| e.watches.len() + e.pending_watches >= cap)
                        .unwrap_or(true);
                    if over {
                        respond_inline(
                            self,
                            token,
                            seq,
                            tag,
                            &Response::Err(format!("watch limit reached ({cap} per connection)")),
                        );
                        return;
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
                    Work::Req(req)
                };
                if let Some(ds) = &dataset {
                    *self.dataset_inflight.entry(ds.clone()).or_insert(0) += 1;
                }
                self.shared.metrics.requests.inc();
                if self
                    .job_tx
                    .send(Job {
                        token,
                        seq,
                        dataset,
                        work,
                        tag,
                        read_ns,
                        parse_ns,
                        t_dispatched: Instant::now(),
                    })
                    .is_err()
                {
                    // Workers gone (shutdown race): answer what we can.
                    respond_inline(
                        self,
                        token,
                        seq,
                        tag,
                        &Response::Err("server stopping".into()),
                    );
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        loop {
            match self.done_rx.try_recv() {
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
                Ok(done) => {
                    if let Some(ds) = &done.dataset {
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
                        Delivery::Push { watch_id } => {
                            self.deliver_push(done.token, watch_id, done.message);
                        }
                        Delivery::Response { seq } => {
                            if let Some(entry) = self.conns.get_mut(&done.token) {
                                if done.tag == "watch" {
                                    entry.pending_watches = entry.pending_watches.saturating_sub(1);
                                }
                                if let Some((id, spec)) = done.register_watch {
                                    entry.watches.push(WatchState {
                                        id,
                                        spec,
                                        inflight: false,
                                        dirty: false,
                                    });
                                }
                                if let Some(message) = done.message {
                                    entry.conn.push_response(seq, message);
                                }
                                entry.traces.insert(
                                    seq,
                                    ReqTrace {
                                        tag: done.tag,
                                        read_ns: done.read_ns,
                                        parse_ns: done.parse_ns,
                                        queue_ns: done.queue_ns,
                                        work_ns: done.work_ns,
                                        t_queued: Instant::now(),
                                        t_first_write: None,
                                        slow: done.slow,
                                    },
                                );
                            }
                            // The completion freed a pipeline slot (and
                            // flushing may free budget): release parked
                            // messages.
                            self.pump(done.token);
                            self.flush_conn(done.token);
                            self.pump(done.token);
                            self.maybe_close(done.token);
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
            .job_tx
            .send(Job {
                token,
                seq: 0,
                dataset: None, // pushes bypass per-dataset admission
                work: Work::WatchEval { watch_id, spec },
                tag: "watch",
                read_ns: 0,
                parse_ns: 0,
                t_dispatched: Instant::now(),
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

    /// Writes as much of the outbox as the socket accepts. Completed
    /// messages close their request's stage clock (the `flushed` stamp).
    fn flush_conn(&mut self, token: u64) {
        let mut finished: Vec<ReqTrace> = Vec::new();
        let dead = {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            let mut dead = false;
            while let Some(chunk) = entry.conn.next_chunk() {
                let front = entry.conn.front_seq();
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
                        if let Some(trace) = front.and_then(|s| entry.traces.get_mut(&s)) {
                            trace.t_first_write.get_or_insert(now);
                        }
                        if let Some(seq) = entry.conn.advance(n) {
                            if let Some(trace) = entry.traces.remove(&seq) {
                                finished.push(trace);
                            }
                        }
                        entry.last_activity = Instant::now();
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

    /// Records a fully flushed request into the per-tag stage and total
    /// histograms, and emits the slow-query record when it qualifies.
    fn finish_trace(&self, trace: ReqTrace, flushed_at: Instant) {
        let first_write = trace.t_first_write.unwrap_or(flushed_at);
        let queued_ns =
            u64::try_from((first_write - trace.t_queued).as_nanos()).unwrap_or(u64::MAX);
        let flush_ns = u64::try_from((flushed_at - first_write).as_nanos()).unwrap_or(u64::MAX);
        let stages = [
            trace.read_ns,
            trace.parse_ns,
            trace.queue_ns,
            trace.work_ns,
            queued_ns,
            flush_ns,
        ];
        let total_ns: u64 = stages.iter().sum();
        let cells = self.robs.cells(trace.tag);
        cells.completed.inc();
        cells.total_ns.record(total_ns);
        for (hist, ns) in cells.stage_ns.iter().zip(stages) {
            hist.record(ns);
        }
        if let Some(threshold) = self.config.slow_query {
            if total_ns >= u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX) {
                let (dataset, query, windows) = match &trace.slow {
                    Some(m) => (m.dataset.as_str(), m.query.as_str(), m.windows),
                    None => ("-", "-", 0),
                };
                slog!(
                    LogLevel::Warn,
                    "slow_query",
                    tag = trace.tag,
                    dataset = dataset,
                    query = query,
                    windows = windows,
                    total_us = total_ns / 1_000,
                    read_us = trace.read_ns / 1_000,
                    parse_us = trace.parse_ns / 1_000,
                    queue_us = trace.queue_ns / 1_000,
                    work_us = trace.work_ns / 1_000,
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

/// Dispatches one decoded request against the store. Pure: no I/O beyond
/// the store itself, so it is directly unit-testable without sockets.
pub fn handle_request(store: &Store, req: Request) -> Response {
    match req {
        Request::Query {
            dataset,
            kind,
            range,
            time,
        } => {
            // The legacy value-only tag is a box estimate at 0.95, the
            // confidence its values have always been computed at, so it
            // shares cache lines (and values, bit for bit) with
            // `REQ_ESTIMATE` at 0.95.
            match store.estimate(&dataset, kind, &Query::BoxRange(range), 0.95, time) {
                Err(e) => Response::Err(e.to_string()),
                Ok(answer) => Response::Query {
                    value: answer.estimate.value,
                    windows: answer.windows,
                    cached: answer.cached,
                },
            }
        }
        Request::Estimate {
            dataset,
            kind,
            query,
            confidence,
            time,
        } => match store.estimate(&dataset, kind, &query, confidence, time) {
            Err(e) => Response::Err(e.to_string()),
            Ok(answer) => Response::Estimate {
                estimate: answer.estimate,
                windows: answer.windows,
                cached: answer.cached,
            },
        },
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

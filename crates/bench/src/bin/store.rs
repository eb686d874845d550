//! Store-layer throughput, in two phases.
//!
//! **Local**: windowed ingest (batches and rows per second, including the
//! per-batch frame + manifest persistence), one compaction pass, and
//! snapshot query throughput at 1/4/8 reader threads — cold (distinct
//! ranges, every query walks the summaries) and hot (repeated range,
//! served by the LRU cache).
//!
//! **Daemon (c10k)**: starts the non-blocking event-loop daemon and
//! drives it with an event-driven load generator built on the same
//! exported [`sas_store::poller`] — one client thread multiplexing
//! thousands of concurrent pipelined connections of mixed
//! ingest/estimate/ping traffic, measuring per-request latency
//! (p50/p95/p99/max) and aggregate throughput.
//!
//! Environment knobs: `SAS_STORE_BATCHES` (default 240), `SAS_STORE_ROWS`
//! (rows per batch, default 500), `SAS_STORE_QUERIES` (queries per thread
//! count, default 4000), `SAS_STORE_BUDGET` (window budget, default 4000),
//! `SAS_STORE_LOCAL` (`0` skips the local phase), `SAS_STORE_CONNS`
//! (daemon connections, default 1000; `0` skips the daemon phase),
//! `SAS_STORE_DEPTH` (pipeline depth per connection, default 8),
//! `SAS_STORE_CONN_REQS` (requests per connection, default 30),
//! `SAS_STORE_JSON` (path to also write the daemon results as JSON —
//! the committed `BENCH_store.json` baseline is produced this way).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_bench::{print_table, timed};
use sas_codec::proto;
use sas_core::WeightedKey;
use sas_store::poller::{Interest, InterestCache, Poller};
use sas_store::server::{Server, ServerConfig};
use sas_store::wire::{decode_response, encode_request, Request, Response};
use sas_store::{Store, StoreConfig};
use sas_summaries::{encode_summary, Query, StoredSample, Summary, SummaryKind};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// splitmix64: decorrelates the query index from the probed range (a
/// linear stride aliases modulo the key span and quietly turns the cold
/// runs into cache hits).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() {
    if env_usize("SAS_STORE_LOCAL", 1) != 0 {
        local_phase();
    }
    let conns = env_usize("SAS_STORE_CONNS", 1000);
    if conns > 0 {
        daemon_phase(conns);
    }
}

fn local_phase() {
    let batches = env_usize("SAS_STORE_BATCHES", 240);
    let rows = env_usize("SAS_STORE_ROWS", 500) as u64;
    let queries = env_usize("SAS_STORE_QUERIES", 4000);
    let budget = env_usize("SAS_STORE_BUDGET", 4000);

    let dir = std::env::temp_dir().join(format!("sas-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        Store::open(
            &dir,
            StoreConfig {
                budget: Some(budget),
                cache_capacity: 4096,
            },
        )
        .expect("open store"),
    );

    // Pre-build the batch summaries so ingest timing measures the store
    // (merge + frame write + manifest + snapshot swap), not the sampler.
    let built: Vec<(u64, Box<dyn Summary>)> = (0..batches as u64)
        .map(|i| {
            let data: Vec<WeightedKey> = (0..rows)
                .map(|r| WeightedKey::new(i * rows + r, 0.5 + ((i + r) % 13) as f64))
                .collect();
            let mut rng = StdRng::seed_from_u64(i);
            let sample = sas_sampling::order::sample(&data, (rows as usize).min(budget), &mut rng);
            // 45-tick spacing crosses minute windows and spans hours, so
            // the compaction pass below has real work.
            (
                i * 45,
                Box::new(StoredSample::one_dim(sample)) as Box<dyn Summary>,
            )
        })
        .collect();
    let total_rows = batches as u64 * rows;

    let mut table: Vec<Vec<String>> = Vec::new();
    let (_, secs) = timed(|| {
        for (ts, batch) in built {
            store.ingest("bench", ts, batch).expect("ingest");
        }
    });
    table.push(vec![
        "ingest".into(),
        "1".into(),
        format!("{:.0}", batches as f64 / secs),
        format!("{:.3e}", total_rows as f64 / secs),
    ]);

    let (rollups, secs) = timed(|| store.compact_once().expect("compact"));
    table.push(vec![
        format!("compact({rollups} rollups)"),
        "1".into(),
        format!("{:.0}", rollups as f64 / secs.max(1e-9)),
        "-".into(),
    ]);

    let key_span = total_rows;
    for threads in [1usize, 4, 8] {
        for (mode, hot) in [("query-cold", false), ("query-hot", true)] {
            let per_thread = queries / threads;
            let (_, secs) = timed(|| {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let store = store.clone();
                        scope.spawn(move || {
                            for i in 0..per_thread {
                                // Salt with the thread count so each run
                                // probes ranges no earlier run cached.
                                let lo = if hot {
                                    0
                                } else {
                                    mix((threads * 1_000_003 + t * per_thread + i) as u64)
                                        % key_span
                                };
                                let query = Query::interval(lo, lo + key_span / 4);
                                let ans = store
                                    .estimate("bench", SummaryKind::Sample, &query, 0.95, None)
                                    .expect("estimate");
                                assert!(ans.estimate.value >= 0.0);
                            }
                        });
                    }
                });
            });
            let done = (per_thread * threads) as f64;
            table.push(vec![
                mode.into(),
                threads.to_string(),
                format!("{:.0}", done / secs),
                "-".into(),
            ]);
        }
    }

    let stats = store.stats();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    eprintln!(
        "# windows={} frame_bytes={} cache_hits={} cache_misses={}",
        get("windows"),
        get("frame_bytes"),
        get("cache_hits"),
        get("cache_misses"),
    );
    print_table(
        "store throughput (ingest: batches/s + rows/s; query: ops/s)",
        &["op", "threads", "ops_per_sec", "rows_per_sec"],
        &table,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- daemon (c10k) phase ------------------------------------------------

/// Windows pre-ingested before the load starts, so queries have real work.
const SEED_WINDOWS: u64 = 24;
/// Rows per pre-ingested window.
const SEED_ROWS: u64 = 256;

/// One pipelined connection inside the load generator: its own outbound
/// byte queue, inbound parse buffer, and the FIFO of send timestamps the
/// in-order responses are matched against.
struct LoadConn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    sent: u64,
    recvd: u64,
    pending: VecDeque<(Instant, u16)>,
}

impl LoadConn {
    /// Desired interest: read while responses are owed, write while bytes
    /// are queued.
    fn interest(&self, total: u64) -> Interest {
        Interest {
            readable: self.recvd < total,
            writable: self.out_pos < self.out.len(),
        }
    }

    fn done(&self, total: u64) -> bool {
        self.recvd >= total
    }
}

/// The deterministic mixed workload: one ingest, five box estimates, one
/// total estimate and one ping per eight requests, varied by connection
/// and request index.
fn nth_request(conn: u64, i: u64, ingest_frame: &[u8]) -> (Request, u16) {
    let span = SEED_WINDOWS * SEED_ROWS;
    match (conn.wrapping_mul(7).wrapping_add(i)) % 8 {
        0 => (
            Request::Ingest {
                dataset: "load".into(),
                ts: 61 + ((conn * 13 + i) % 240) * 60,
                frame: ingest_frame.to_vec(),
            },
            proto::REQ_INGEST,
        ),
        6 => (
            Request::Estimate {
                dataset: "bench".into(),
                kind: SummaryKind::Sample,
                query: Query::Total,
                confidence: 0.95,
                time: None,
            },
            proto::REQ_ESTIMATE,
        ),
        7 => (Request::Ping, proto::REQ_PING),
        slot => {
            let lo = mix(conn * 1_000_003 + i * 8 + slot) % span;
            (
                Request::Estimate {
                    dataset: "bench".into(),
                    kind: SummaryKind::Sample,
                    query: Query::interval(lo, lo + span / 4),
                    confidence: 0.95,
                    time: None,
                },
                proto::REQ_ESTIMATE,
            )
        }
    }
}

/// Tops up a connection's pipeline to `depth` in-flight requests.
fn refill(c: &mut LoadConn, token: u64, total: u64, depth: usize, ingest_frame: &[u8]) {
    while c.sent < total && c.pending.len() < depth {
        let (req, tag) = nth_request(token, c.sent, ingest_frame);
        let frame = encode_request(&req);
        c.out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        c.out.extend_from_slice(&frame);
        c.pending.push_back((Instant::now(), tag));
        c.sent += 1;
    }
}

/// Results of one load run. Latencies live twice: the lock-free
/// histogram is what gets reported (the same math the daemon's metrics
/// use), the raw vector is kept as sort-based ground truth to cross-check
/// the histogram's percentiles against.
struct LoadReport {
    requests: u64,
    ok: u64,
    errs: u64,
    secs: f64,
    latencies_ms: Vec<f64>,
    hist: sas_obs::HistogramSnapshot,
}

/// Drives `conns` concurrent pipelined connections from a single thread —
/// the client side is the same poller the daemon runs on, so neither end
/// spends a thread per connection.
fn drive_load(addr: std::net::SocketAddr, conns: usize, depth: usize, per_conn: u64) -> LoadReport {
    let ingest_frame = {
        let rows: Vec<WeightedKey> = (0..16u64).map(|k| WeightedKey::new(k, 1.0)).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let sample = sas_sampling::order::sample(&rows, rows.len(), &mut rng);
        encode_summary(&StoredSample::one_dim(sample))
    };

    let mut poller = Poller::new().expect("client poller");
    let mut cache = InterestCache::new();
    let mut slots: Vec<Option<LoadConn>> = Vec::with_capacity(conns);
    for token in 0..conns as u64 {
        let stream = connect_retry(addr);
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut c = LoadConn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            sent: 0,
            recvd: 0,
            pending: VecDeque::new(),
        };
        refill(&mut c, token, per_conn, depth, &ingest_frame);
        use std::os::fd::AsRawFd;
        cache
            .register(
                &mut poller,
                c.stream.as_raw_fd(),
                token,
                c.interest(per_conn),
            )
            .expect("register");
        slots.push(Some(c));
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs(600);
    let hist = sas_obs::Histogram::new();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(conns * per_conn as usize);
    let mut ok = 0u64;
    let mut errs = 0u64;
    let mut open = conns;
    let mut events = Vec::new();
    while open > 0 {
        assert!(Instant::now() < deadline, "load run exceeded 600 s");
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("client wait");
        for ev in events.clone() {
            let token = ev.token;
            let Some(c) = slots[token as usize].as_mut() else {
                continue;
            };
            if ev.writable || ev.error {
                flush_out(c);
            }
            if ev.readable || ev.error {
                read_and_parse(
                    c,
                    token,
                    per_conn,
                    depth,
                    &ingest_frame,
                    &mut latencies_ms,
                    &hist,
                    &mut ok,
                    &mut errs,
                );
                flush_out(c); // refill may have queued more requests
            }
            use std::os::fd::AsRawFd;
            let fd = c.stream.as_raw_fd();
            if c.done(per_conn) {
                cache.deregister(&mut poller, fd).expect("deregister");
                slots[token as usize] = None;
                open -= 1;
            } else {
                cache
                    .ensure(&mut poller, fd, token, c.interest(per_conn))
                    .expect("reregister");
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    LoadReport {
        requests: conns as u64 * per_conn,
        ok,
        errs,
        secs,
        latencies_ms,
        hist: hist.snapshot(),
    }
}

/// Connects with a short retry loop: a kernel accept backlog overflowing
/// during mass connect is expected at this scale, not an error.
fn connect_retry(addr: std::net::SocketAddr) -> TcpStream {
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("could not connect to the daemon at {addr}");
}

/// Writes queued bytes until the socket would block.
fn flush_out(c: &mut LoadConn) {
    while c.out_pos < c.out.len() {
        match c.stream.write(&c.out[c.out_pos..]) {
            Ok(0) => break,
            Ok(n) => c.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("client write: {e}"),
        }
    }
    if c.out_pos == c.out.len() {
        c.out.clear();
        c.out_pos = 0;
    }
}

/// Reads until the socket would block, then parses every complete
/// response frame: match it to the oldest pending request, record the
/// latency, and top the pipeline back up.
#[allow(clippy::too_many_arguments)]
fn read_and_parse(
    c: &mut LoadConn,
    token: u64,
    per_conn: u64,
    depth: usize,
    ingest_frame: &[u8],
    latencies_ms: &mut Vec<f64>,
    hist: &sas_obs::Histogram,
    ok: &mut u64,
    errs: &mut u64,
) {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => panic!("daemon closed connection {token} early"),
            Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("client read: {e}"),
        }
    }
    let mut consumed = 0;
    loop {
        let rest = &c.inbuf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len {
            break;
        }
        let frame = &rest[4..4 + len];
        let (sent_at, tag) = c.pending.pop_front().expect("response without a request");
        let elapsed = sent_at.elapsed();
        latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        hist.record_duration(elapsed);
        match decode_response(frame, tag) {
            Ok(Response::Err(_)) | Ok(Response::Busy(_)) | Err(_) => *errs += 1,
            Ok(_) => *ok += 1,
        }
        c.recvd += 1;
        consumed += 4 + len;
    }
    c.inbuf.drain(..consumed);
    refill(c, token, per_conn, depth, ingest_frame);
}

fn daemon_phase(conns: usize) {
    let depth = env_usize("SAS_STORE_DEPTH", 8).max(1);
    let per_conn = env_usize("SAS_STORE_CONN_REQS", 30) as u64;

    let dir = std::env::temp_dir().join(format!("sas-store-c10k-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir, StoreConfig::default()).expect("open store"));
    for i in 0..SEED_WINDOWS {
        let rows: Vec<WeightedKey> = (i * SEED_ROWS..(i + 1) * SEED_ROWS)
            .map(|k| WeightedKey::new(k, 1.0 + (k % 5) as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(i);
        let sample = sas_sampling::order::sample(&rows, rows.len(), &mut rng);
        store
            .ingest(
                "bench",
                61 + i * 60,
                Box::new(StoredSample::one_dim(sample)),
            )
            .expect("seed ingest");
    }

    let server = Server::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            max_conns: conns + 64,
            ..ServerConfig::default()
        },
    )
    .expect("start daemon");

    let report = drive_load(server.local_addr(), conns, depth, per_conn);
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.ok + report.errs, report.requests);
    assert_eq!(
        report.errs, 0,
        "daemon answered {} requests with errors",
        report.errs
    );

    // Reported percentiles come from the histogram — the same math the
    // daemon's metrics endpoint uses. The sorted vector is the ground
    // truth it must agree with, rank-for-rank, to within one log bucket.
    let snap = &report.hist;
    sas_bench::assert_hist_matches_sorted(snap, &report.latencies_ms, "daemon load");
    let p50 = snap.percentile(50.0) as f64 / 1e6;
    let p95 = snap.percentile(95.0) as f64 / 1e6;
    let p99 = snap.percentile(99.0) as f64 / 1e6;
    let max = snap.max as f64 / 1e6;
    let rps = report.requests as f64 / report.secs;
    print_table(
        "daemon c10k (pipelined mixed ingest/estimate/ping)",
        &[
            "conns", "depth", "requests", "secs", "rps", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        ],
        &[vec![
            conns.to_string(),
            depth.to_string(),
            report.requests.to_string(),
            format!("{:.2}", report.secs),
            format!("{rps:.0}"),
            format!("{p50:.3}"),
            format!("{p95:.3}"),
            format!("{p99:.3}"),
            format!("{max:.3}"),
        ]],
    );

    if let Ok(path) = std::env::var("SAS_STORE_JSON") {
        if !path.is_empty() {
            let json = format!(
                "{{\n  \"bench\": \"store-daemon\",\n  \"conns\": {conns},\n  \"pipeline_depth\": {depth},\n  \"requests\": {},\n  \"duration_secs\": {:.3},\n  \"throughput_rps\": {:.0},\n  \"latency_ms\": {{ \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3} }},\n  \"responses\": {{ \"ok\": {}, \"err\": {} }}\n}}\n",
                report.requests, report.secs, rps, p50, p95, p99, max, report.ok, report.errs,
            );
            std::fs::write(&path, json).expect("write json");
            eprintln!("# wrote {path}");
        }
    }
}

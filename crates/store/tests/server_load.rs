//! Load shedding and backpressure: connections beyond `max_conns` get an
//! explicit BUSY (never a silent drop), per-dataset admission control
//! sheds excess in-flight requests, and a peer that refuses to read its
//! responses cannot grow the server's memory past the write budget. Under
//! hundreds of concurrent pipelined connections within the limits, every
//! request is answered, in order and bit-identically to the store.

mod util;

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_codec::proto;
use sas_core::WeightedKey;
use sas_store::client::{Client, ClientError};
use sas_store::server::ServerConfig;
use sas_store::wire::{Request, Response};
use sas_summaries::{Estimate, Query, StoredSample, SummaryKind};

use util::{batch_frame, message, recv_message, recv_response, start, wait_metrics, Recv};

#[test]
fn connections_beyond_the_limit_get_explicit_busy() {
    let (_dir, _store, server) = start(
        "shed-conns",
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // Third arrival: an explicit, parseable BUSY frame, then a clean close
    // — deterministically, not sometimes.
    for round in 0..3 {
        let mut shed = TcpStream::connect(addr).unwrap();
        match recv_message(&mut shed) {
            Recv::Message(frame) => {
                match sas_store::wire::decode_response(&frame, proto::REQ_PING) {
                    Ok(Response::Busy(msg)) => {
                        assert!(msg.contains("connection limit"), "round {round}: {msg}")
                    }
                    other => panic!("round {round}: expected Busy, got {other:?}"),
                }
            }
            other => panic!("round {round}: expected a BUSY frame, got {other:?}"),
        }
        // After the frame: EOF at a message boundary.
        assert!(matches!(recv_message(&mut shed), Recv::Eof));
    }
    wait_metrics(&server, "shed count", |m| m.shed_conns >= 3);

    // The blocking client maps the same refusal onto ClientError::Busy.
    let mut c = Client::connect(addr).unwrap();
    match c.ping() {
        Err(ClientError::Busy(msg)) => assert!(msg.contains("connection limit"), "{msg}"),
        other => panic!("expected ClientError::Busy, got {other:?}"),
    }

    // Releasing a slot readmits new arrivals.
    drop(a);
    wait_metrics(&server, "slot release", |m| m.active_conns <= 1);
    let mut d = Client::connect(addr).unwrap();
    d.ping().unwrap();
    b.ping().unwrap(); // survivor unaffected throughout
    server.shutdown();
    server.wait();
}

#[test]
fn dataset_admission_control_sheds_excess_in_flight_requests() {
    let (_dir, _store, server) = start(
        "shed-requests",
        ServerConfig {
            threads: 4,
            dataset_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Eight pipelined ingests against one dataset in a single write: the
    // loop dispatches them in one batch, so at most one is admitted before
    // the rest see the dataset at its limit.
    const N: usize = 8;
    let mut burst = Vec::new();
    for i in 0..N as u64 {
        burst.extend_from_slice(&message(&Request::Ingest {
            dataset: "hot".into(),
            ts: 61,
            frame: batch_frame(i * 50, 40, i),
        }));
    }
    stream.write_all(&burst).unwrap();
    let mut ok = 0;
    let mut busy = 0;
    for i in 0..N {
        match recv_response(&mut stream, proto::REQ_INGEST) {
            Response::Ingest { .. } => ok += 1,
            Response::Busy(msg) => {
                assert!(msg.contains("hot"), "response {i}: {msg}");
                busy += 1;
            }
            other => panic!("response {i}: {other:?}"),
        }
    }
    assert!(ok >= 1, "at least one ingest must be admitted");
    assert!(busy >= 1, "the burst must trip the admission limit");
    assert_eq!(ok + busy, N);
    let m = server.metrics();
    assert_eq!(m.shed_requests, busy as u64);

    // The limit is per-in-flight, not a ban: with the burst done, the
    // dataset accepts work again.
    stream
        .write_all(&message(&Request::Ingest {
            dataset: "hot".into(),
            ts: 121,
            frame: batch_frame(900, 40, 99),
        }))
        .unwrap();
    assert!(matches!(
        recv_response(&mut stream, proto::REQ_INGEST),
        Response::Ingest { .. }
    ));
    server.shutdown();
    server.wait();
}

#[test]
fn admission_control_is_per_dataset_not_global() {
    let (_dir, _store, server) = start(
        "shed-isolated",
        ServerConfig {
            threads: 4,
            dataset_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Alternating datasets, one in-flight allowed each: every dataset's
    // first request is admitted regardless of the other's backlog.
    let mut burst = Vec::new();
    for i in 0..4u64 {
        for ds in ["red", "blue"] {
            burst.extend_from_slice(&message(&Request::Ingest {
                dataset: ds.into(),
                ts: 61,
                frame: batch_frame(i * 50, 30, i),
            }));
        }
    }
    stream.write_all(&burst).unwrap();
    let mut ok = [0usize; 2];
    for _ in 0..8 {
        match recv_response(&mut stream, proto::REQ_INGEST) {
            Response::Ingest { .. } => ok[0] += 1,
            Response::Busy(_) => ok[1] += 1,
            other => panic!("{other:?}"),
        }
    }
    assert!(ok[0] >= 2, "each dataset must admit at least its first");
    server.shutdown();
    server.wait();
}

#[test]
fn non_draining_reader_cannot_grow_server_memory_past_the_budget() {
    const BUDGET: usize = 4096;
    const PIPELINE: usize = 4;
    let (_dir, store, server) = start(
        "backpressure",
        ServerConfig {
            threads: 2,
            write_budget: BUDGET,
            max_pipeline: PIPELINE,
            ..ServerConfig::default()
        },
    );
    // 64 windows make each List response a few KiB — the total response
    // volume (megabytes) dwarfs every kernel buffer on the path, so the
    // outbox must actually absorb backpressure, not just the sndbuf.
    for i in 0..64u64 {
        store
            .ingest("web", 61 + i * 60, util::batch(i * 64, 64, i))
            .unwrap();
    }
    // Measure one response's wire size for the slack computation below.
    let resp_len = {
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe.write_all(&message(&Request::List)).unwrap();
        match recv_message(&mut probe) {
            Recv::Message(m) => 4 + m.len(),
            other => panic!("probe list failed: {other:?}"),
        }
    };
    assert!(
        resp_len > BUDGET / 4,
        "responses must be sizeable: {resp_len}"
    );

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    const N: usize = 2000;
    let mut burst = Vec::new();
    for _ in 0..N {
        burst.extend_from_slice(&message(&Request::List));
    }
    stream.write_all(&burst).unwrap();
    // The server answers until the outbox passes the budget, then stops
    // reading; the rest of the backlog stays in kernel buffers, not
    // server memory.
    wait_metrics(&server, "backpressure engages", |m| {
        m.max_queued_bytes >= BUDGET as u64
    });
    std::thread::sleep(Duration::from_millis(300));
    let m = server.metrics();
    // Slack: the budget check happens between whole responses, and up to
    // max_pipeline worker responses can still land after reads pause.
    let cap = (BUDGET + 2 * PIPELINE * resp_len) as u64;
    assert!(
        m.max_queued_bytes <= cap,
        "outbox grew to {} > cap {cap} (unbounded would be megabytes)",
        m.max_queued_bytes
    );

    // Backpressure, not loss: draining now yields every single response.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for i in 0..N {
        match recv_response(&mut stream, proto::REQ_LIST) {
            Response::List(rows) => assert_eq!(rows.len(), 64, "response {i}"),
            other => panic!("response {i}: {other:?}"),
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn metrics_count_accepts_and_requests() {
    let (_dir, _store, server) = start("metrics", ServerConfig::default());
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.stats().unwrap();
    b.list().unwrap();
    a.ping().unwrap(); // inline: not a worker request
    wait_metrics(&server, "accept count", |m| m.accepted == 2);
    wait_metrics(&server, "request count", |m| m.requests == 2);
    wait_metrics(&server, "active count", |m| m.active_conns == 2);
    drop(a);
    drop(b);
    wait_metrics(&server, "disconnect count", |m| m.active_conns == 0);
    server.shutdown();
    server.wait();
}

#[test]
fn many_pipelined_connections_answer_every_request() {
    const CONNS: u64 = 256;
    const PER_CONN: u64 = 20;
    const DEPTH: usize = 8;
    const WINDOWS: u64 = 24;
    const ROWS: u64 = 256;
    const SPAN: u64 = WINDOWS * ROWS;
    let started = Instant::now();
    let (_dir, store, server) = start(
        "many-conns",
        ServerConfig {
            threads: 2,
            max_conns: 320,
            ..ServerConfig::default()
        },
    );
    // Sampled (not exact) windows, so estimates carry real intervals.
    for i in 0..WINDOWS {
        let rows: Vec<WeightedKey> = (i * ROWS..(i + 1) * ROWS)
            .map(|k| WeightedKey::new(k, 1.0 + (k % 5) as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(i);
        let sample = sas_sampling::order::sample(&rows, ROWS as usize / 4, &mut rng);
        store
            .ingest(
                "bench",
                61 + i * 60,
                Box::new(StoredSample::one_dim(sample)),
            )
            .unwrap();
    }
    let ingest_frame = util::batch_frame(0, 16, 42);

    // Per eight requests: one ingest into `load`, five 1-D box estimates
    // and one total estimate on `bench`, and one ping — varied by
    // connection and request index.
    let nth_request = |conn: u64, i: u64| -> Request {
        let estimate = |query| Request::Estimate {
            dataset: "bench".into(),
            kind: SummaryKind::Sample,
            query,
            confidence: 0.95,
            time: None,
        };
        match (conn * 7 + i) % 8 {
            0 => Request::Ingest {
                dataset: "load".into(),
                ts: 61 + ((conn * 13 + i) % 240) * 60,
                frame: ingest_frame.clone(),
            },
            6 => estimate(Query::Total),
            7 => Request::Ping,
            slot => {
                let lo = (conn * 7919 + i * 104_729 + slot * 31) % SPAN;
                estimate(Query::interval(lo, lo + SPAN / 4))
            }
        }
    };

    struct Conn {
        stream: TcpStream,
        sent: u64,
        pending: VecDeque<Request>,
    }
    let send = |c: &mut Conn, conn: u64| {
        let mut burst = Vec::new();
        while c.sent < PER_CONN && c.pending.len() < DEPTH {
            let req = nth_request(conn, c.sent);
            burst.extend_from_slice(&message(&req));
            c.pending.push_back(req);
            c.sent += 1;
        }
        c.stream.write_all(&burst).unwrap();
    };
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|conn| {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut c = Conn {
                stream,
                sent: 0,
                pending: VecDeque::new(),
            };
            send(&mut c, conn);
            c
        })
        .collect();

    // Round-robin over the connections, one response each per pass: every
    // connection keeps up to DEPTH requests in flight the whole time, and
    // each response must answer the oldest request still pending on it.
    let mut answered: Vec<(Query, Estimate)> = Vec::new();
    let mut open = CONNS;
    while open > 0 {
        for (conn, c) in conns.iter_mut().enumerate() {
            let Some(req) = c.pending.pop_front() else {
                continue;
            };
            let tag = match &req {
                Request::Ingest { .. } => proto::REQ_INGEST,
                Request::Estimate { .. } => proto::REQ_ESTIMATE,
                _ => proto::REQ_PING,
            };
            match (req, recv_response(&mut c.stream, tag)) {
                (Request::Ingest { .. }, Response::Ingest { .. }) => {}
                (Request::Ping, Response::Pong) => {}
                (Request::Estimate { query, .. }, Response::Estimate { estimate, .. }) => {
                    answered.push((query, estimate))
                }
                (req, resp) => panic!("connection {conn}: {req:?} answered by {resp:?}"),
            }
            send(c, conn as u64);
            if c.pending.is_empty() {
                open -= 1;
            }
        }
    }
    assert_eq!(answered.len() as u64, CONNS * PER_CONN * 6 / 8);
    assert!(
        answered.iter().all(|(_, e)| e.upper > e.lower),
        "sampled windows must give non-degenerate intervals"
    );

    // `bench` takes no ingest during the load, so the daemon's answers must
    // be exactly what the store answers in process.
    for (query, got) in &answered {
        let want = store
            .estimate("bench", SummaryKind::Sample, query, 0.95, None)
            .unwrap()
            .estimate;
        for (name, g, w) in [
            ("value", got.value, want.value),
            ("variance", got.variance, want.variance),
            ("lower", got.lower, want.lower),
            ("upper", got.upper, want.upper),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{query:?} {name}: {g} vs {w}");
        }
    }

    let m = server.metrics();
    assert_eq!(m.accepted, CONNS, "{m:?}");
    assert_eq!(
        (m.shed_conns, m.shed_requests, m.protocol_errors),
        (0, 0, 0),
        "{m:?}"
    );
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
    eprintln!("{CONNS} connections x {PER_CONN} requests (depth {DEPTH}) answered in {elapsed:?}");
    server.shutdown();
    server.wait();
}

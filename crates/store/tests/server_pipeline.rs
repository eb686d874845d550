//! Pipelining conformance: many requests written before any response is
//! read must come back exactly in request order, and byte-identical to the
//! same requests issued one at a time.

mod util;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sas_codec::proto;
use sas_store::server::ServerConfig;
use sas_store::wire::{decode_response, Request, Response};
use sas_summaries::{Estimate, Query, SummaryKind};

use util::{batch, batch_frame, message, recv_message, recv_response, start, Recv};

/// The mixed ingest/query/estimate/list/stats/ping workload both modes
/// run. Ingests use fixed seeds, so every response byte is deterministic.
fn workload() -> Vec<Request> {
    let mut reqs = Vec::new();
    for i in 0..4u64 {
        reqs.push(Request::Ingest {
            dataset: "web".into(),
            ts: 61 + i * 60,
            frame: batch_frame(i * 100, 50, i),
        });
        reqs.push(Request::Ping);
        reqs.push(Request::Query {
            dataset: "web".into(),
            kind: SummaryKind::Sample,
            range: vec![(0, u64::MAX)],
            time: None,
        });
        reqs.push(Request::Estimate {
            dataset: "web".into(),
            kind: SummaryKind::Sample,
            query: Query::Total,
            confidence: 0.95,
            time: None,
        });
    }
    reqs.push(Request::List);
    reqs.push(Request::Stats);
    reqs
}

/// One worker thread serializes execution in dispatch order, which is what
/// makes the two modes byte-comparable (counters, cache flags).
fn single_worker() -> ServerConfig {
    ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    }
}

fn recv_raw(stream: &mut TcpStream) -> Vec<u8> {
    match recv_message(stream) {
        Recv::Message(m) => m,
        other => panic!("expected a message, got {other:?}"),
    }
}

#[test]
fn pipelined_responses_match_sequential_byte_for_byte() {
    let reqs = workload();

    // Sequential: write one, read one.
    let (_dir_a, _store_a, seq_server) = start("pipeline-seq", single_worker());
    let mut seq_stream = TcpStream::connect(seq_server.local_addr()).unwrap();
    let mut sequential = Vec::new();
    for req in &reqs {
        seq_stream.write_all(&message(req)).unwrap();
        sequential.push(recv_raw(&mut seq_stream));
    }

    // Pipelined: write everything, then read everything.
    let (_dir_b, _store_b, pipe_server) = start("pipeline-burst", single_worker());
    let mut pipe_stream = TcpStream::connect(pipe_server.local_addr()).unwrap();
    let mut burst = Vec::new();
    for req in &reqs {
        burst.extend_from_slice(&message(req));
    }
    pipe_stream.write_all(&burst).unwrap();
    let pipelined: Vec<Vec<u8>> = reqs.iter().map(|_| recv_raw(&mut pipe_stream)).collect();

    assert_eq!(sequential.len(), pipelined.len());
    for (i, (s, p)) in sequential.iter().zip(&pipelined).enumerate() {
        assert_eq!(s, p, "response {i} ({:?}) differs between modes", reqs[i]);
    }

    seq_server.shutdown();
    seq_server.wait();
    pipe_server.shutdown();
    pipe_server.wait();
}

#[test]
fn responses_keep_request_order_across_worker_and_inline_paths() {
    // Four workers, and a workload alternating slow worker requests
    // (ingest) with instant inline ones (ping): an inline answer must
    // still wait its turn behind the ingest dispatched before it.
    let (_dir, _store, server) = start(
        "pipeline-order",
        ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut burst = Vec::new();
    let mut expect: Vec<&'static str> = Vec::new();
    for i in 0..16u64 {
        burst.extend_from_slice(&message(&Request::Ingest {
            dataset: "web".into(),
            ts: 61,
            frame: batch_frame(i * 50, 40, i),
        }));
        expect.push("ingest");
        burst.extend_from_slice(&message(&Request::Ping));
        expect.push("pong");
    }
    stream.write_all(&burst).unwrap();
    for (i, want) in expect.iter().enumerate() {
        // Ingest responses decode under REQ_INGEST; pongs under REQ_PING.
        let frame = recv_raw(&mut stream);
        let tag = if *want == "ingest" {
            proto::REQ_INGEST
        } else {
            proto::REQ_PING
        };
        match (decode_response(&frame, tag), *want) {
            (Ok(Response::Ingest { .. }), "ingest") => {}
            (Ok(Response::Pong), "pong") => {}
            (got, _) => panic!("response {i}: expected {want}, got {got:?}"),
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn pipeline_depth_limit_parks_reads_without_losing_requests() {
    // A tiny in-flight cap: the loop stops reading the connection when
    // full, resumes as workers drain, and every request still gets its
    // answer in order.
    let (_dir, _store, server) = start(
        "pipeline-depth",
        ServerConfig {
            threads: 2,
            max_pipeline: 4,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    const N: usize = 64;
    let mut burst = Vec::new();
    for _ in 0..N {
        burst.extend_from_slice(&message(&Request::Stats));
    }
    stream.write_all(&burst).unwrap();
    for i in 0..N {
        match recv_response(&mut stream, proto::REQ_STATS) {
            Response::Stats(pairs) => assert!(!pairs.is_empty(), "response {i}"),
            other => panic!("response {i}: {other:?}"),
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn interleaved_connections_do_not_cross_responses() {
    // Two pipelining connections against one daemon: each must see its own
    // responses, in its own order. Different ranges make any cross-wiring
    // visible in the values.
    let (_dir, _store, server) = start("pipeline-two-conns", single_worker());
    let addr = server.local_addr();
    let mut setup = TcpStream::connect(addr).unwrap();
    setup
        .write_all(&message(&Request::Ingest {
            dataset: "web".into(),
            ts: 61,
            frame: batch_frame(0, 100, 7),
        }))
        .unwrap();
    assert!(matches!(
        recv_response(&mut setup, proto::REQ_INGEST),
        Response::Ingest { .. }
    ));

    let queries: Vec<(u64, u64)> = vec![(0, 9), (10, 29), (30, 99), (0, u64::MAX)];
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut burst = Vec::new();
                for &(lo, hi) in &queries {
                    burst.extend_from_slice(&message(&Request::Query {
                        dataset: "web".into(),
                        kind: SummaryKind::Sample,
                        range: vec![(lo, hi)],
                        time: None,
                    }));
                }
                stream.write_all(&burst).unwrap();
                queries
                    .iter()
                    .map(|_| match recv_response(&mut stream, proto::REQ_QUERY) {
                        Response::Query { value, .. } => value,
                        other => panic!("{other:?}"),
                    })
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let answers: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Exact batch: per-range truths are exact sums.
    let truth = |lo: u64, hi: u64| -> f64 { (lo..=hi.min(99)).map(|k| 1.0 + (k % 7) as f64).sum() };
    for (c, got) in answers.iter().enumerate() {
        for (i, (&(lo, hi), &v)) in queries.iter().zip(got).enumerate() {
            assert_eq!(v, truth(lo, hi), "conn {c} query {i} ({lo}..{hi})");
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn burst_larger_than_one_read_quantum_survives() {
    // A single write far larger than the loop's 64 KiB per-event read
    // budget: fairness slicing must not drop or reorder anything.
    let (_dir, _store, server) = start("pipeline-quantum", single_worker());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Each ingest message carries a few KiB of frame, so ~200 of them far
    // exceed one quantum.
    const N: u64 = 200;
    let mut burst = Vec::new();
    for i in 0..N {
        burst.extend_from_slice(&message(&Request::Ingest {
            dataset: "web".into(),
            ts: 61 + (i % 5) * 60,
            frame: batch_frame(i * 64, 64, i),
        }));
    }
    assert!(burst.len() > 128 * 1024, "burst must exceed the quantum");
    // Write on one half, read on a clone: draining responses while the
    // burst is still going out avoids deadlocking on full buffers.
    let mut reader = stream.try_clone().unwrap();
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let writer = std::thread::spawn(move || stream.write_all(&burst).unwrap());
    let mut items_last = 0;
    for i in 0..N {
        match recv_response(&mut reader, proto::REQ_INGEST) {
            Response::Ingest { items, .. } => items_last = items.max(items_last),
            other => panic!("response {i}: {other:?}"),
        }
    }
    writer.join().unwrap();
    assert!(items_last > 0);
    server.shutdown();
    server.wait();
}

/// An estimate's bit patterns: "identical" below means all of them match.
fn bits(e: &Estimate) -> [u64; 5] {
    [e.value, e.variance, e.lower, e.upper, e.confidence].map(f64::to_bits)
}

/// What [`hit_ingest_hit`] observed: each estimate as `(bits, windows)`.
struct HitIngestHit {
    /// The in-process answer before the pipelined ingest.
    before: ([u64; 5], u64),
    /// The in-process answer after it.
    after: ([u64; 5], u64),
    /// Pipelined request 1 (its `cached` flag separately).
    first: ([u64; 5], u64),
    first_cached: bool,
    /// Pipelined request 3.
    third: ([u64; 5], u64),
    /// Worker dispatches the three pipelined requests caused.
    dispatched: u64,
    /// Misses the loop answered among them.
    loop_misses: u64,
}

/// Warms one estimate, then pipelines three requests on one connection
/// in a single write: the warm estimate, an ingest into its series, and
/// the same estimate again.
fn hit_ingest_hit(name: &str, threads: usize) -> HitIngestHit {
    let (_dir, store, server) = start(
        name,
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let ingest = |ts: u64, lo: u64, seed: u64| {
        message(&Request::Ingest {
            dataset: "web".into(),
            ts,
            frame: batch_frame(lo, 50, seed),
        })
    };
    let estimate = message(&Request::Estimate {
        dataset: "web".into(),
        kind: SummaryKind::Sample,
        query: Query::Total,
        confidence: 0.9,
        time: None,
    });
    let in_process = || {
        let a = store
            .estimate("web", SummaryKind::Sample, &Query::Total, 0.9, None)
            .unwrap();
        (bits(&a.estimate), a.windows)
    };
    let answer = |stream: &mut TcpStream| match recv_response(stream, proto::REQ_ESTIMATE) {
        Response::Estimate {
            estimate,
            windows,
            cached,
        } => ((bits(&estimate), windows), cached),
        other => panic!("expected an estimate, got {other:?}"),
    };
    let ingested = |stream: &mut TcpStream| {
        assert!(matches!(
            recv_response(stream, proto::REQ_INGEST),
            Response::Ingest { .. }
        ));
    };

    stream.write_all(&ingest(61, 0, 1)).unwrap();
    ingested(&mut stream);
    stream.write_all(&estimate).unwrap();
    let (warm, cached) = answer(&mut stream);
    assert!(!cached, "the warm-up computes its answer");
    let warmed = server.metrics();
    assert_eq!(warmed.loop_misses, 1, "alone at an idle pool, on the loop");
    let before = in_process();
    assert_eq!(warm, before, "the loop's answer is the store's");

    stream
        .write_all(&[estimate.clone(), ingest(121, 50, 2), estimate].concat())
        .unwrap();
    let (first, first_cached) = answer(&mut stream);
    ingested(&mut stream);
    let (third, _) = answer(&mut stream);
    let m = server.metrics();
    let dispatched = m.requests - warmed.requests;
    let loop_misses = m.loop_misses - warmed.loop_misses;
    let after = in_process();
    server.shutdown();
    server.wait();
    HitIngestHit {
        before,
        after,
        first,
        first_cached,
        third,
        dispatched,
        loop_misses,
    }
}

#[test]
fn loop_answered_hits_never_overtake_a_pipelined_ingest() {
    // One worker runs the pool's jobs in dispatch order, so request 3 is
    // answered after the ingest unless the loop answers it early from the
    // cache line request 1 hit.
    let run = hit_ingest_hit("pipeline-hit-order", 1);
    assert!(run.first_cached, "request 1 is a cache hit");
    assert_eq!(run.first, run.before, "request 1 is the store's answer");
    assert_eq!(run.third, run.after, "request 3 reflects the ingest");
    assert_ne!(run.after, run.before);
    // The batches are exact, so the total grows by exactly the second one.
    let second: f64 = (50..100u64).map(|k| 1.0 + (k % 7) as f64).sum();
    let value = |b: ([u64; 5], u64)| f64::from_bits(b.0[0]);
    assert_eq!(value(run.third), value(run.before) + second);
    assert_eq!(run.third.1, 2, "request 3 reads both windows");
    assert_eq!(run.dispatched, 2, "request 1 was answered on the loop");
    assert_eq!(run.loop_misses, 0, "as a hit");
}

#[test]
fn loop_answered_hits_wait_for_earlier_requests_with_four_workers() {
    // Four workers may run the ingest and request 3 concurrently, so
    // request 3 reads the store before or after the ingest. Either way it
    // is the store's answer, and it went to a worker: the loop did not
    // answer it from request 1's cache line while the ingest was pending.
    let run = hit_ingest_hit("pipeline-hit-four", 4);
    assert!(run.first_cached, "request 1 is a cache hit");
    assert_eq!(run.first, run.before, "request 1 is the store's answer");
    assert!(
        run.third == run.before || run.third == run.after,
        "request 3 is the store's answer before or after the ingest"
    );
    assert_eq!(
        run.dispatched, 2,
        "the ingest and request 3 went to workers"
    );
    assert_eq!(run.loop_misses, 0, "request 1 was a hit on the loop");
}

/// An estimate of `query` over `web`'s sample series at 0.95.
fn estimate(query: Query) -> Request {
    Request::Estimate {
        dataset: "web".into(),
        kind: SummaryKind::Sample,
        query,
        confidence: 0.95,
        time: None,
    }
}

/// One raw response message.
fn recv_frame(stream: &mut TcpStream) -> Vec<u8> {
    match recv_message(stream) {
        Recv::Message(frame) => frame,
        other => panic!("expected a response, got {other:?}"),
    }
}

#[test]
fn a_lone_miss_on_an_idle_daemon_is_answered_on_the_loop() {
    let (_dir, store, server) = start("lone-miss", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(&message(&estimate(Query::interval(10, 60))))
        .unwrap();
    let Response::Estimate {
        estimate: served,
        cached: false,
        ..
    } = recv_response(&mut stream, proto::REQ_ESTIMATE)
    else {
        panic!("expected a computed estimate");
    };
    let m = server.metrics();
    assert_eq!((m.loop_misses, m.requests), (1, 0), "no worker took it");
    // It was answered through the store's cache: the in-process repeat
    // hits the line the loop filled, bit for bit.
    let again = store
        .estimate(
            "web",
            SummaryKind::Sample,
            &Query::interval(10, 60),
            0.95,
            None,
        )
        .unwrap();
    assert!(again.cached);
    assert_eq!(bits(&again.estimate), bits(&served));
    server.shutdown();
    server.wait();
}

#[test]
fn a_pipelined_burst_of_misses_goes_to_the_pool_in_order() {
    // Two daemons over identical stores: eight distinct misses written in
    // one `write_all` to the first, the same eight one at a time to the
    // second. The burst is spread over the pool and comes back in request
    // order; the lone requests are answered on the loop; the bytes agree.
    const N: u64 = 8;
    let (_dir_a, store_a, burst) = start("burst-pool", ServerConfig::default());
    let (_dir_b, store_b, lone) = start("burst-loop", ServerConfig::default());
    for store in [&store_a, &store_b] {
        store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    }
    let queries: Vec<Request> = (0..N)
        .map(|i| estimate(Query::interval(0, 10 * i + 5)))
        .collect();

    let mut stream = TcpStream::connect(burst.local_addr()).unwrap();
    let all: Vec<u8> = queries.iter().flat_map(message).collect();
    stream.write_all(&all).unwrap();
    let pipelined: Vec<Vec<u8>> = (0..N).map(|_| recv_frame(&mut stream)).collect();
    let m = burst.metrics();
    assert_eq!((m.requests, m.loop_misses), (N, 0), "all went to the pool");

    let mut stream = TcpStream::connect(lone.local_addr()).unwrap();
    let one_at_a_time: Vec<Vec<u8>> = queries
        .iter()
        .map(|req| {
            stream.write_all(&message(req)).unwrap();
            recv_frame(&mut stream)
        })
        .collect();
    let m = lone.metrics();
    assert_eq!(
        (m.requests, m.loop_misses),
        (0, N),
        "all answered on the loop"
    );

    for (i, (a, b)) in pipelined.iter().zip(&one_at_a_time).enumerate() {
        assert!(
            matches!(
                decode_response(a, proto::REQ_ESTIMATE),
                Ok(Response::Estimate { cached: false, .. })
            ),
            "response {i} is a computed estimate"
        );
        assert_eq!(a, b, "response {i}: pool and loop bytes differ");
    }
    let distinct: std::collections::BTreeSet<&Vec<u8>> = pipelined.iter().collect();
    assert_eq!(
        distinct.len(),
        N as usize,
        "each response answers its own query"
    );
    for server in [burst, lone] {
        server.shutdown();
        server.wait();
    }
}

#[test]
fn completions_are_delivered_without_waiting_for_the_poll_cap() {
    // A worker sends its completion, then writes the loop's wake byte. A
    // loop that drained the completion channel before the wake pipe could
    // swallow the byte of a completion sent between the two, leaving its
    // response to wait for an unrelated event or the loop's 500 ms poll
    // cap. Each round, two connections pipeline a miss behind an ingest,
    // so four workers complete close together, while a third pipelines a
    // burst of cache hits the loop answers itself: its read is what widens
    // the gap between the two drains. Every round must finish far inside
    // the cap. The time the round's ingests spent appending and syncing
    // their log records is not counted: a slow disk is not a lost wakeup.
    const ROUNDS: u64 = 100;
    const HITS: usize = 64;
    let (_dir, store, server) = start(
        "lost-wakeup",
        ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        },
    );
    store.ingest("hot", 5, batch(0, 100, 1)).unwrap();
    let hit = message(&Request::Estimate {
        dataset: "hot".into(),
        kind: SummaryKind::Sample,
        query: Query::interval(0, 50),
        confidence: 0.95,
        time: None,
    });
    let mut hits = TcpStream::connect(server.local_addr()).unwrap();
    hits.write_all(&hit).unwrap();
    recv_response(&mut hits, proto::REQ_ESTIMATE);
    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    let log = store.obs().histogram("sas_store_ingest_ns{stage=\"log\"}");
    let mut slowest = Duration::ZERO;
    for round in 0..ROUNDS {
        let started = Instant::now();
        let logged = log.snapshot().sum;
        for (c, stream) in (0u64..).zip(&mut conns) {
            let ingest = message(&Request::Ingest {
                dataset: "web".into(),
                ts: 61 + 60 * round,
                frame: batch_frame(100 * c, 50, round),
            });
            let miss = message(&estimate(Query::interval(c, 2 * round + 50)));
            stream.write_all(&[ingest, miss].concat()).unwrap();
        }
        hits.write_all(&hit.repeat(HITS)).unwrap();
        for stream in &mut conns {
            assert!(matches!(
                recv_response(stream, proto::REQ_INGEST),
                Response::Ingest { .. }
            ));
            assert!(matches!(
                recv_response(stream, proto::REQ_ESTIMATE),
                Response::Estimate { .. }
            ));
        }
        for _ in 0..HITS {
            assert!(matches!(
                recv_response(&mut hits, proto::REQ_ESTIMATE),
                Response::Estimate { cached: true, .. }
            ));
        }
        let syncing = Duration::from_nanos(log.snapshot().sum - logged);
        slowest = slowest.max(started.elapsed().saturating_sub(syncing));
    }
    assert!(
        slowest < Duration::from_millis(250),
        "slowest round took {slowest:?}"
    );
    server.shutdown();
    server.wait();
}

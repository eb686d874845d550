//! The daemon's answer cache — the store's LRU, shared by every query
//! tag: repeated identical estimates must come back bit-identical, flip
//! to `cached = true` after the first answer, and revert to fresh answers
//! the moment an ingest changes the series they read — but not when an
//! ingest lands in another dataset. The legacy value-only
//! `REQ_QUERY` tag reads and fills the same lines as `REQ_ESTIMATE` at
//! confidence 0.95, and is validated the same way.

mod util;

use std::io::Write;
use std::net::TcpStream;

use sas_store::client::{Client, ClientError};
use sas_store::server::ServerConfig;
use sas_summaries::query::MAX_QUERY_AXES;
use sas_summaries::{Query, SummaryKind};

use sas_store::wire::{Request, Response};
use util::{batch, batch_frame, message, recv_response, start};

fn estimate_req() -> Request {
    Request::Estimate {
        dataset: "web".into(),
        kind: SummaryKind::Sample,
        query: Query::interval(0, 500),
        confidence: 0.95,
        time: None,
    }
}

#[test]
fn repeated_estimates_share_one_cached_message() {
    let (_dir, store, server) = start("estimate-cache", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // First answer computes; every repeat is a cache hit and the responses
    // are byte-identical to each other (one shared encode).
    stream.write_all(&message(&estimate_req())).unwrap();
    let first = recv_response(&mut stream, sas_codec::proto::REQ_ESTIMATE);
    let Response::Estimate { cached: false, .. } = &first else {
        panic!("expected a fresh estimate, got {first:?}");
    };
    let mut repeats = Vec::new();
    for _ in 0..3 {
        stream.write_all(&message(&estimate_req())).unwrap();
        repeats.push(recv_response(&mut stream, sas_codec::proto::REQ_ESTIMATE));
    }
    for r in &repeats {
        let Response::Estimate {
            estimate,
            windows,
            cached,
        } = r
        else {
            panic!("expected an estimate, got {r:?}");
        };
        assert!(*cached, "repeat answers come from the cache");
        assert_eq!(*windows, 1);
        let Response::Estimate {
            estimate: fresh, ..
        } = &first
        else {
            unreachable!()
        };
        assert_eq!(estimate.value.to_bits(), fresh.value.to_bits());
        assert_eq!(estimate.lower.to_bits(), fresh.lower.to_bits());
        assert_eq!(estimate.upper.to_bits(), fresh.upper.to_bits());
    }
    server.shutdown();
    server.wait();
}

#[test]
fn ingest_invalidates_the_cached_message() {
    let (_dir, store, server) = start("estimate-invalidate", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::interval(0, 500);
    let a = client
        .estimate("web", SummaryKind::Sample, &q, 0.95, None)
        .unwrap();
    assert!(!a.cached);
    let b = client
        .estimate("web", SummaryKind::Sample, &q, 0.95, None)
        .unwrap();
    assert!(b.cached);
    assert_eq!(b.estimate.value.to_bits(), a.estimate.value.to_bits());
    // New data in the same series re-stamps it, so the cached answer may
    // not be served again.
    client.ingest("web", 6, batch_frame(100, 50, 2)).unwrap();
    let c = client
        .estimate("web", SummaryKind::Sample, &q, 0.95, None)
        .unwrap();
    assert!(!c.cached, "a re-stamped series must invalidate");
    assert!(c.estimate.value > a.estimate.value);
    let d = client
        .estimate("web", SummaryKind::Sample, &q, 0.95, None)
        .unwrap();
    assert!(d.cached);
    assert_eq!(d.estimate.value.to_bits(), c.estimate.value.to_bits());
    server.shutdown();
    server.wait();
}

#[test]
fn ingest_into_another_dataset_keeps_the_cached_answer() {
    let (_dir, store, server) = start("estimate-isolation", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let ask = |client: &mut Client| {
        client
            .query("web", SummaryKind::Sample, &[(0, 500)], None)
            .unwrap()
    };
    let first = ask(&mut client);
    assert!(!first.cached);
    // An REQ_INGEST into `other` changes no window of `web`, so the
    // repeated REQ_QUERY is still a cache hit, with the same value.
    client.ingest("other", 6, batch_frame(0, 50, 2)).unwrap();
    let second = ask(&mut client);
    assert!(second.cached, "another dataset's ingest must not evict web");
    assert_eq!(second.value.to_bits(), first.value.to_bits());
    assert_eq!(second.windows, first.windows);
    // An ingest into `web` itself still retires the line.
    client.ingest("web", 6, batch_frame(100, 50, 3)).unwrap();
    let third = ask(&mut client);
    assert!(!third.cached);
    assert!(third.value > first.value);
    server.shutdown();
    server.wait();
}

#[test]
fn distinct_queries_do_not_collide_in_the_message_cache() {
    let (_dir, store, server) = start("estimate-distinct", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let narrow = Query::interval(0, 10);
    let wide = Query::interval(0, 500);
    // Warm both so both are served from the cache, then interleave.
    for q in [&narrow, &wide, &narrow, &wide] {
        client
            .estimate("web", SummaryKind::Sample, q, 0.95, None)
            .unwrap();
    }
    let n = client
        .estimate("web", SummaryKind::Sample, &narrow, 0.95, None)
        .unwrap();
    let w = client
        .estimate("web", SummaryKind::Sample, &wide, 0.95, None)
        .unwrap();
    assert!(n.cached && w.cached);
    assert!(
        n.estimate.value < w.estimate.value,
        "each query keeps its own cached message"
    );
    // Different confidence is a different cache entry too.
    let w99 = client
        .estimate("web", SummaryKind::Sample, &wide, 0.99, None)
        .unwrap();
    assert_eq!(w99.estimate.value.to_bits(), w.estimate.value.to_bits());
    server.shutdown();
    server.wait();
}

#[test]
fn legacy_query_and_estimate_share_one_cache_line() {
    let (_dir, store, server) = start("legacy-shared-line", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // REQ_ESTIMATE at 0.95 first: the legacy tag then hits its line.
    let est = client
        .estimate(
            "web",
            SummaryKind::Sample,
            &Query::interval(0, 40),
            0.95,
            None,
        )
        .unwrap();
    assert!(!est.cached);
    let old = client
        .query("web", SummaryKind::Sample, &[(0, 40)], None)
        .unwrap();
    assert!(old.cached, "REQ_QUERY reads the line REQ_ESTIMATE filled");
    assert_eq!(old.value.to_bits(), est.estimate.value.to_bits());
    assert_eq!(old.windows, est.windows);
    // The reverse order, on a box nobody has asked about yet.
    let old = client
        .query("web", SummaryKind::Sample, &[(50, 90)], None)
        .unwrap();
    assert!(!old.cached);
    let est = client
        .estimate(
            "web",
            SummaryKind::Sample,
            &Query::interval(50, 90),
            0.95,
            None,
        )
        .unwrap();
    assert!(est.cached, "REQ_ESTIMATE reads the line REQ_QUERY filled");
    assert_eq!(est.estimate.value.to_bits(), old.value.to_bits());
    assert_eq!(est.windows, old.windows);
    server.shutdown();
    server.wait();
}

#[test]
fn legacy_query_with_too_many_axes_is_an_error() {
    let (_dir, store, server) = start("legacy-axes", ServerConfig::default());
    store.ingest("web", 5, batch(0, 100, 1)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let two_axes = [(0u64, 40u64), (0, 10)];
    let too_wide = vec![(0u64, 40u64); MAX_QUERY_AXES + 1];
    for range in [&two_axes[..], &too_wide] {
        // The legacy tag rejects the box exactly as REQ_ESTIMATE does,
        // instead of dropping the axes the 1-D dataset lacks.
        match client.query("web", SummaryKind::Sample, range, None) {
            Err(ClientError::Server(_)) => {}
            other => panic!(
                "{} axes: expected a server error, got {other:?}",
                range.len()
            ),
        }
        let query = Query::BoxRange(range.to_vec());
        match client.estimate("web", SummaryKind::Sample, &query, 0.95, None) {
            Err(ClientError::Server(_)) => {}
            other => panic!(
                "{} axes: expected a server error, got {other:?}",
                range.len()
            ),
        }
    }
    // The connection keeps serving well-formed queries.
    assert!(client
        .query("web", SummaryKind::Sample, &[(0, 40)], None)
        .is_ok());
    server.shutdown();
    server.wait();
}

//! Live watch subscriptions and lifecycle over the daemon protocol:
//! registrations answered with ids, every sealed ingest pushing an update
//! that matches what polling would have returned, the idle reaper sparing
//! subscriber connections (and only them), the per-connection watch cap,
//! policies round-tripping over the wire, and the event-loop timer (or
//! enough ingests) driving retention without any client asking for it.

mod util;

use std::net::TcpStream;
use std::time::Duration;

use sas_store::client::{Client, ClientError};
use sas_store::policy::Policy;
use sas_store::server::ServerConfig;
use sas_summaries::{Query, SummaryKind};
use util::{batch_frame, start, wait_closed, wait_metrics};

fn sample_ttl(ticks: u64) -> Policy {
    Policy {
        retention_ttl: Some(ticks),
        ..Policy::default()
    }
}

#[test]
fn every_ingest_pushes_an_update_matching_the_polled_answer() {
    let (_dir, _store, server) = start("watch-push", ServerConfig::default());
    let mut watcher = Client::connect(server.local_addr()).unwrap();
    let mut feeder = Client::connect(server.local_addr()).unwrap();

    let watch_id = watcher
        .watch("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();

    let mut versions = Vec::new();
    let mut last = None;
    for i in 0..3u64 {
        feeder
            .ingest("web", i * 60, batch_frame(i * 100, 20, i))
            .unwrap();
        let update = watcher.next_update().unwrap();
        assert_eq!(update.watch_id, watch_id);
        versions.push(update.version);
        last = Some(update);
    }
    assert!(
        versions.windows(2).all(|w| w[0] < w[1]),
        "push versions not increasing: {versions:?}"
    );

    // The final push must be bit-identical to polling the same canonical
    // query: same estimate, same window count, same coverage.
    let last = last.unwrap();
    let polled = feeder
        .estimate_cov("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
    assert_eq!(last.estimate, polled.estimate);
    assert_eq!(last.windows, polled.windows);
    assert_eq!(last.coverage, polled.coverage);
}

#[test]
fn watching_an_empty_dataset_is_legal_and_wakes_on_first_ingest() {
    let (_dir, _store, server) = start("watch-empty", ServerConfig::default());
    let mut watcher = Client::connect(server.local_addr()).unwrap();
    watcher
        .watch("later", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    feeder.ingest("later", 0, batch_frame(0, 10, 7)).unwrap();
    let update = watcher.next_update().unwrap();
    assert!(update.estimate.value > 0.0);
}

#[test]
fn idle_reaper_spares_subscribers_but_still_reaps_plain_conns() {
    let (_dir, _store, server) = start(
        "watch-idle",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    );
    // A subscriber and a plain connection, both idle.
    let mut watcher = Client::connect(server.local_addr()).unwrap();
    watcher
        .watch("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
    let mut plain = TcpStream::connect(server.local_addr()).unwrap();

    // Regression: the watch exemption must not leak to ordinary idle
    // connections — the reaper still closes the plain one.
    wait_metrics(&server, "idle timeout", |m| m.idle_timeouts >= 1);
    wait_closed(&mut plain, "idle plain connection");

    // The subscriber outlived many idle periods and still gets its push.
    std::thread::sleep(Duration::from_millis(400));
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    feeder.ingest("web", 0, batch_frame(0, 10, 1)).unwrap();
    let update = watcher.next_update().expect("watch conn was reaped");
    assert!(update.windows >= 1);
}

#[test]
fn watch_cap_rejects_registrations_beyond_the_limit() {
    let (_dir, _store, server) = start(
        "watch-cap",
        ServerConfig {
            max_watches_per_conn: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = client
        .watch("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
    let b = client
        .watch(
            "web",
            SummaryKind::Sample,
            &Query::interval(0, 100),
            0.95,
            None,
        )
        .unwrap();
    assert_ne!(a, b, "watch ids must be distinct");
    match client.watch("web", SummaryKind::Sample, &Query::Total, 0.9, None) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("watch limit"), "unexpected message: {msg}")
        }
        other => panic!("third watch should hit the cap: {other:?}"),
    }
    // The cap is per connection, not global.
    let mut other = Client::connect(server.local_addr()).unwrap();
    other
        .watch("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
}

#[test]
fn watch_registration_validates_the_query() {
    let (_dir, _store, server) = start("watch-invalid", ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.watch("no/slashes", SummaryKind::Sample, &Query::Total, 0.95, None) {
        Err(ClientError::Server(_)) => {}
        other => panic!("invalid dataset should be refused: {other:?}"),
    }
    // The failed registration must not count against the cap or leave a
    // half-registered watch behind: a valid one still works.
    client
        .watch("web", SummaryKind::Sample, &Query::Total, 0.95, None)
        .unwrap();
}

#[test]
fn policies_round_trip_over_the_wire() {
    let (_dir, store, server) = start("watch-policy", ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let policy = Policy {
        compact_after: Some(60),
        retention_ttl: Some(7200),
        per_kind_budget: [(SummaryKind::Sample.tag(), 32)].into_iter().collect(),
    };
    client.set_policy("web", policy.clone()).unwrap();
    client.set_policy("app", sample_ttl(60)).unwrap();

    assert_eq!(
        client.policies(None).unwrap(),
        vec![
            ("app".into(), sample_ttl(60)),
            ("web".into(), policy.clone())
        ]
    );
    assert_eq!(
        client.policies(Some("web")).unwrap(),
        vec![("web".into(), policy.clone())]
    );
    assert_eq!(client.policies(Some("ghost")).unwrap(), vec![]);
    // The daemon persisted what it acknowledged.
    assert_eq!(store.policy("web"), Some(policy));

    // An empty policy clears the entry.
    client.set_policy("app", Policy::default()).unwrap();
    assert_eq!(client.policies(Some("app")).unwrap(), vec![]);
}

#[test]
fn lifecycle_timer_expires_windows_without_any_client_driving_it() {
    let (_dir, store, server) = start(
        "watch-lifecycle",
        ServerConfig {
            lifecycle_every: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_policy("web", sample_ttl(60)).unwrap();
    for i in 0..5u64 {
        client
            .ingest("web", i * 60, batch_frame(i * 10, 10, i))
            .unwrap();
    }
    // Watermark 300, TTL 60: minutes ending ≤240 expire. The timer alone
    // must get there — no retain/compact request exists in the protocol.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = store.stats();
        let get = |k: &str| stats.iter().find(|(n, _)| n == k).unwrap().1;
        if get("expired_windows") >= 4 && get("windows") == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "lifecycle timer never expired the windows: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}

#[test]
fn enough_ingests_run_a_lifecycle_pass_before_the_cadence_is_due() {
    let (_dir, store, server) = start(
        "watch-lifecycle-count",
        ServerConfig {
            lifecycle_every: Some(Duration::from_secs(3600)),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_policy("web", sample_ttl(60)).unwrap();
    let expired = |store: &sas_store::Store| {
        let stats = store.stats();
        stats
            .iter()
            .find(|(n, _)| n == "expired_windows")
            .unwrap()
            .1
    };
    let n = sas_store::server::LIFECYCLE_INGESTS;
    for i in 0..n - 1 {
        client
            .ingest("web", i * 60, batch_frame(i * 10, 10, i))
            .unwrap();
    }
    // The cadence is an hour away and the count not reached: no pass ran.
    assert_eq!(expired(&store), 0);
    client
        .ingest("web", (n - 1) * 60, batch_frame(n * 10, 10, n))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while expired(&store) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{n} ingests never triggered a lifecycle pass"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}

#[test]
fn coverage_estimates_answer_over_the_wire() {
    let (_dir, _store, server) = start("watch-cov", ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ingest("web", 0, batch_frame(0, 10, 1)).unwrap();
    client.ingest("web", 120, batch_frame(100, 10, 2)).unwrap();
    let ans = client
        .estimate_cov(
            "web",
            SummaryKind::Sample,
            &Query::Total,
            0.95,
            Some((0, 179)),
        )
        .unwrap();
    assert_eq!(ans.windows, 2);
    // The hole between the two minutes is a missing (not expired) gap.
    assert_eq!(ans.coverage.gaps.len(), 1);
    let gap = &ans.coverage.gaps[0];
    assert_eq!((gap.start, gap.end, gap.expired), (60, 119, false));
    // The plain estimate agrees with the coverage-aware one.
    let plain = client
        .estimate(
            "web",
            SummaryKind::Sample,
            &Query::Total,
            0.95,
            Some((0, 179)),
        )
        .unwrap();
    assert_eq!(plain.estimate, ans.estimate);
}

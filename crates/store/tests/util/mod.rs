//! Shared fixtures for the daemon integration suites: temp stores, exact
//! sample batches, raw-socket framing helpers, and metric polling.

#![allow(dead_code)] // each suite uses its own subset

use std::fs;
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sas_core::WeightedKey;
use sas_store::server::{Server, ServerConfig, ServerMetrics};
use sas_store::wire::{decode_response, encode_request, Request, Response};
use sas_store::{Store, StoreConfig};
use sas_summaries::{encode_summary, StoredSample, Summary};

/// A unique store directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sas-serve-test-{}-{id}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// An *exact* 1-D sample batch (budget ≥ rows) so range sums are exact and
/// responses are deterministic.
pub fn batch(lo: u64, n: u64, seed: u64) -> Box<dyn Summary> {
    let rows: Vec<WeightedKey> = (lo..lo + n)
        .map(|k| WeightedKey::new(k, 1.0 + (k % 7) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(StoredSample::one_dim(sas_sampling::order::sample(
        &rows,
        rows.len(),
        &mut rng,
    )))
}

/// The batch as the wire's ingest payload.
pub fn batch_frame(lo: u64, n: u64, seed: u64) -> Vec<u8> {
    encode_summary(batch(lo, n, seed).as_ref())
}

/// Opens a fresh store in a temp dir and starts a daemon on an ephemeral
/// port with the given tuning.
pub fn start(name: &str, config: ServerConfig) -> (TempDir, Arc<Store>, Server) {
    let dir = TempDir::new(name);
    let store = Arc::new(Store::open(dir.path(), StoreConfig::default()).unwrap());
    let server = Server::start_with(store.clone(), "127.0.0.1:0", config).unwrap();
    (dir, store, server)
}

/// Encodes a request as a complete wire message (length prefix + frame).
pub fn message(req: &Request) -> Vec<u8> {
    let frame = encode_request(req);
    let mut m = Vec::with_capacity(4 + frame.len());
    m.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    m.extend_from_slice(&frame);
    m
}

/// How reading one message off the socket can end.
#[derive(Debug)]
pub enum Recv {
    /// A complete message.
    Message(Vec<u8>),
    /// Clean close at a message boundary.
    Eof,
    /// Close in the middle of a message — a torn frame.
    Torn,
}

/// Reads exactly one length-prefixed message. `Torn` means the peer closed
/// (EOF or reset) with a message underway — the thing the daemon promises
/// never to do.
pub fn recv_message(stream: &mut TcpStream) -> Recv {
    let mut prefix = [0u8; 4];
    match read_full(stream, &mut prefix) {
        Full::Eof => return Recv::Eof,
        Full::Torn => return Recv::Torn,
        Full::Ok => {}
    }
    let len = u32::from_le_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    match read_full(stream, &mut body) {
        Full::Ok => Recv::Message(body),
        Full::Eof | Full::Torn => Recv::Torn,
    }
}

enum Full {
    Ok,
    /// EOF before the first byte.
    Eof,
    /// EOF or reset partway through.
    Torn,
}

fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> Full {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return if got == 0 { Full::Eof } else { Full::Torn },
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A reset with nothing read counts as a close; mid-message it
            // is torn.
            Err(_) => return if got == 0 { Full::Eof } else { Full::Torn },
        }
    }
    Full::Ok
}

/// Reads one message and decodes it under `request_tag`, panicking on
/// anything but a complete frame.
pub fn recv_response(stream: &mut TcpStream, request_tag: u16) -> Response {
    match recv_message(stream) {
        Recv::Message(frame) => decode_response(&frame, request_tag).expect("decodable response"),
        other => panic!("expected a response message, got {other:?}"),
    }
}

/// Polls `cond` on the server's metrics until it holds or `deadline`
/// passes (panics with the last snapshot).
pub fn wait_metrics(server: &Server, what: &str, cond: impl Fn(&ServerMetrics) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        if cond(&m) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Where the daemon answered an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnsweredOn {
    /// On the event loop: a cache hit, or a miss counted in
    /// `loop_misses`.
    Loop,
    /// On a worker: dispatched, and counted in `requests`.
    Pool,
}

/// Where the daemon answered the one estimate sent between the `before`
/// and `after` metric reads, whose response said `cached`. Panics unless
/// it was answered in exactly one place: dispatched once, or answered on
/// the loop (counted as a loop miss exactly when it missed).
pub fn answered_on(before: &ServerMetrics, after: &ServerMetrics, cached: bool) -> AnsweredOn {
    let dispatched = after.requests - before.requests;
    let loop_misses = after.loop_misses - before.loop_misses;
    match (dispatched, loop_misses, cached) {
        (1, 0, _) => AnsweredOn::Pool,
        (0, 0, true) | (0, 1, false) => AnsweredOn::Loop,
        other => panic!(
            "not answered in exactly one place: (dispatched, loop misses, cached) = {other:?}"
        ),
    }
}

/// Blocks until the peer closes the connection (EOF or reset), draining
/// anything it still sends; panics if it stays open past 10 s.
pub fn wait_closed(stream: &mut TcpStream, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {} // server still owed bytes (e.g. a BUSY frame)
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return, // reset counts as closed
        }
        assert!(
            Instant::now() < deadline,
            "connection not closed in time: {what}"
        );
    }
}

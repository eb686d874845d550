//! The per-connection state machine of the non-blocking daemon —
//! deliberately free of sockets, clocks, and threads so every transition is
//! unit-testable with byte slices.
//!
//! One [`Conn`] owns both directions of a connection:
//!
//! * **Inbound**: bytes arrive in arbitrary chunks ([`Conn::on_bytes`]);
//!   the machine reassembles length-prefixed protocol messages, assigns
//!   each a monotonically increasing sequence number, and hands complete
//!   frames to the caller — but only as fast as the flow-control caps
//!   allow. Messages beyond the caps stay *parked* in the buffer;
//!   [`Conn::take_ready`] releases them as responses complete and the
//!   outbox drains, which is what bounds the outbox by the write budget
//!   even when one socket read carries thousands of tiny requests. A
//!   declared length above the cap is *protocol-fatal* (the stream can
//!   never resynchronize) and poisons the connection.
//! * **Outbound**: responses are pushed by sequence number, in any order
//!   ([`Conn::push_response`]); the outbox releases them strictly in
//!   request order, so pipelining never reorders answers. Writes drain via
//!   [`Conn::next_chunk`] / [`Conn::advance`], which track a partial write
//!   of the front message — the loop always knows whether closing now
//!   would tear a frame.
//! * **Flow control**: [`Conn::wants_read`] goes false while the unwritten
//!   outbox exceeds the write budget (a peer that never drains cannot make
//!   the server buffer grow without bound) or while `max_pipeline`
//!   requests are in flight (a pipelining client cannot flood the worker
//!   pool).
//! * **Teardown**: [`Conn::close_after_flush`] finishes everything queued
//!   then closes (per-connection: BUSY rejections, shutdown responses);
//!   [`Conn::abort_at_boundary`] drops messages not yet started but always
//!   completes a half-written frame (server-wide shutdown) — the peer sees
//!   fewer responses, never a torn one.

use std::collections::{BTreeMap, VecDeque};

/// Flow-control and framing limits for one connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnConfig {
    /// Stop reading while more than this many unwritten response bytes are
    /// queued.
    pub write_budget: usize,
    /// Largest acceptable declared message length; larger is fatal.
    pub max_frame: u32,
    /// Stop reading while this many requests are in flight (parsed, but
    /// their responses not yet released in request order — an answer
    /// parked behind a slower predecessor still counts).
    pub max_pipeline: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            write_budget: 256 * 1024,
            max_frame: sas_codec::proto::MAX_MESSAGE_LEN,
            max_pipeline: 128,
        }
    }
}

/// Why the connection must be dropped immediately (no recovery, no
/// response — the framing itself is broken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnFatal {
    /// The peer declared a message longer than the cap.
    OversizedFrame {
        /// The declared length.
        declared: u32,
        /// The cap it exceeded.
        cap: u32,
    },
}

impl std::fmt::Display for ConnFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnFatal::OversizedFrame { declared, cap } => {
                write!(f, "declared message length {declared} exceeds cap {cap}")
            }
        }
    }
}

/// Lifecycle phase (see module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading and writing normally.
    Open,
    /// No more reads; flush the entire outbox, then close.
    Draining,
    /// No more reads; finish only the half-written front message, then
    /// close.
    Aborting,
    /// Framing broken; drop without writing another byte.
    Poisoned,
}

/// One complete inbound protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbound {
    /// The connection-local sequence number (0, 1, 2, …). Responses must
    /// come back under the same number.
    pub seq: u64,
    /// The frame bytes (without the length prefix).
    pub frame: Vec<u8>,
}

/// The per-connection state machine. See the module docs.
#[derive(Debug)]
pub struct Conn {
    config: ConnConfig,
    phase: Phase,

    // Inbound reassembly.
    read_buf: Vec<u8>,
    next_seq: u64,

    // Outbound ordering + drain state.
    in_flight: usize,
    next_flush: u64,
    parked: BTreeMap<u64, Vec<u8>>,
    /// In-order messages awaiting the socket, each tagged with the request
    /// sequence it answers (`None`: unsolicited, e.g. a shed BUSY) so the
    /// server can attribute flush completion back to the request.
    outbox: VecDeque<(Option<u64>, Vec<u8>)>,
    front_written: usize,
    queued_bytes: usize,
}

impl Conn {
    /// A fresh connection.
    pub fn new(config: ConnConfig) -> Conn {
        Conn {
            config,
            phase: Phase::Open,
            read_buf: Vec::new(),
            next_seq: 0,
            in_flight: 0,
            next_flush: 0,
            parked: BTreeMap::new(),
            outbox: VecDeque::new(),
            front_written: 0,
            queued_bytes: 0,
        }
    }

    // ---- inbound ----------------------------------------------------

    /// Feeds newly received bytes, returning the messages the flow-control
    /// caps admit right now (see [`Conn::take_ready`]). An oversized
    /// declared length poisons the connection.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<Vec<Inbound>, ConnFatal> {
        debug_assert!(
            self.phase == Phase::Open,
            "caller must stop reading once closing"
        );
        self.read_buf.extend_from_slice(bytes);
        self.take_ready()
    }

    /// Parses buffered messages while the caps allow: at most
    /// `max_pipeline` requests in flight, and no new parses while the
    /// outbox is over the write budget. Call again whenever a response
    /// completes or the outbox drains — parked messages release then.
    /// This is the cap that keeps one giant socket read full of tiny
    /// requests from flooding the outbox past the budget.
    pub fn take_ready(&mut self) -> Result<Vec<Inbound>, ConnFatal> {
        if matches!(self.phase, Phase::Aborting | Phase::Poisoned) {
            return Ok(Vec::new());
        }
        let mut complete = Vec::new();
        let mut consumed = 0;
        loop {
            if self.in_flight >= self.config.max_pipeline
                || self.queued_bytes > self.config.write_budget
            {
                break;
            }
            let rest = &self.read_buf[consumed..];
            if rest.len() < 4 {
                break;
            }
            let declared = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            if declared > self.config.max_frame {
                self.phase = Phase::Poisoned;
                self.read_buf.clear();
                return Err(ConnFatal::OversizedFrame {
                    declared,
                    cap: self.config.max_frame,
                });
            }
            let total = 4 + declared as usize;
            if rest.len() < total {
                break;
            }
            complete.push(Inbound {
                seq: self.next_seq,
                frame: rest[4..total].to_vec(),
            });
            self.next_seq += 1;
            self.in_flight += 1;
            consumed += total;
        }
        self.read_buf.drain(..consumed);
        Ok(complete)
    }

    /// Walks the buffer: complete-but-parked messages, then the incomplete
    /// tail (an unfinishable oversized declaration counts as tail).
    fn scan(&self) -> (usize, usize) {
        let mut off = 0;
        let mut parked = 0;
        loop {
            let rest = &self.read_buf[off..];
            if rest.len() < 4 {
                return (parked, rest.len());
            }
            let declared = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            if declared > self.config.max_frame {
                return (parked, rest.len());
            }
            let total = 4 + declared as usize;
            if rest.len() < total {
                return (parked, rest.len());
            }
            off += total;
            parked += 1;
        }
    }

    /// Whether a partially received message is sitting past the parked
    /// complete ones — the condition the read (slow-loris) timeout guards.
    pub fn has_partial_frame(&self) -> bool {
        self.scan().1 > 0
    }

    /// Bytes buffered for the partially received message.
    pub fn partial_bytes(&self) -> usize {
        self.scan().1
    }

    /// Complete messages parked in the buffer, waiting for the caps to
    /// free (they surface through [`Conn::take_ready`]).
    pub fn buffered_requests(&self) -> usize {
        self.scan().0
    }

    /// Requests parsed whose responses are not yet released in order
    /// (answered-but-parked ones included).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The number of requests parsed so far (also the next sequence
    /// number).
    pub fn requests_seen(&self) -> u64 {
        self.next_seq
    }

    // ---- outbound ---------------------------------------------------

    /// Queues the response for request `seq` (a complete length-prefixed
    /// wire message). Responses may arrive in any order; the outbox
    /// releases them in sequence order. Ignored after abort/poison — the
    /// peer is no longer owed anything.
    pub fn push_response(&mut self, seq: u64, message: Vec<u8>) {
        if matches!(self.phase, Phase::Aborting | Phase::Poisoned) {
            return;
        }
        debug_assert!(seq >= self.next_flush, "duplicate response for {seq}");
        self.parked.insert(seq, message);
        // A request leaves flight only when its response is released in
        // order: one parked behind a slower predecessor still holds its
        // pipeline slot, so parked bytes stay bounded by `max_pipeline`.
        while let Some(msg) = self.parked.remove(&self.next_flush) {
            self.in_flight = self.in_flight.saturating_sub(1);
            self.queued_bytes += msg.len();
            self.outbox.push_back((Some(self.next_flush), msg));
            self.next_flush += 1;
        }
    }

    /// Queues a message that answers no request: the BUSY greeting a shed
    /// connection receives before anything was parsed, or a watch-update
    /// push. Bypasses sequence ordering — an unsolicited frame goes out at
    /// its queueing position, between (never inside) ordered responses.
    pub fn inject_unsolicited(&mut self, message: Vec<u8>) {
        if matches!(self.phase, Phase::Aborting | Phase::Poisoned) {
            return;
        }
        self.queued_bytes += message.len();
        self.outbox.push_back((None, message));
    }

    /// The next unwritten slice, if any. Write some prefix of it to the
    /// socket, then call [`Conn::advance`] with the byte count.
    pub fn next_chunk(&self) -> Option<&[u8]> {
        self.outbox.front().map(|(_, m)| &m[self.front_written..])
    }

    /// The request sequence the front (currently draining) outbox message
    /// answers; `None` when the outbox is empty or the front message is
    /// unsolicited. The server's stage clock uses this to stamp when a
    /// response's first byte reaches the socket.
    pub fn front_seq(&self) -> Option<u64> {
        self.outbox.front().and_then(|(seq, _)| *seq)
    }

    /// Records `n` bytes of the front message as written. When that
    /// completes the front message, returns the sequence number of the
    /// request it answered (`None` if the message was unsolicited or more
    /// bytes remain) — the hook the server's stage clock uses to stamp
    /// "flushed".
    pub fn advance(&mut self, n: usize) -> Option<u64> {
        self.front_written += n;
        self.queued_bytes -= n;
        let done = self
            .outbox
            .front()
            .map(|(_, m)| self.front_written >= m.len())
            .unwrap_or(false);
        if done {
            let (seq, _) = self.outbox.pop_front().expect("done implies a front");
            self.front_written = 0;
            if self.phase == Phase::Aborting {
                // Frame boundary reached: everything else was already
                // dropped, so the outbox is now empty and the connection
                // is closable.
                debug_assert!(self.outbox.is_empty());
            }
            return seq;
        }
        None
    }

    /// Unwritten response bytes currently held (the backpressure gauge).
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Whether a message is partially written to the socket right now.
    pub fn mid_frame(&self) -> bool {
        self.front_written > 0
    }

    // ---- flow control & lifecycle -----------------------------------

    /// Whether the loop should keep reading from this connection.
    pub fn wants_read(&self) -> bool {
        self.phase == Phase::Open
            && self.queued_bytes <= self.config.write_budget
            && self.in_flight < self.config.max_pipeline
    }

    /// Whether the loop should watch for writability.
    pub fn wants_write(&self) -> bool {
        !self.outbox.is_empty() && self.phase != Phase::Poisoned
    }

    /// Stops reading; the outbox (plus any still-parked responses) drains
    /// completely, then [`Conn::closable`] turns true.
    pub fn close_after_flush(&mut self) {
        if self.phase == Phase::Open {
            self.phase = Phase::Draining;
        }
    }

    /// Server-shutdown teardown: drop every response not yet on the wire,
    /// but always finish a half-written message so the peer never receives
    /// a torn frame. Closable as soon as the boundary is reached.
    pub fn abort_at_boundary(&mut self) {
        match self.phase {
            Phase::Poisoned => return,
            Phase::Open | Phase::Draining | Phase::Aborting => {}
        }
        self.parked.clear();
        if self.front_written > 0 {
            // Keep only the half-written front message.
            let keep = self.outbox.pop_front().expect("mid-frame implies a front");
            self.queued_bytes = keep.1.len() - self.front_written;
            self.outbox.clear();
            self.outbox.push_back(keep);
        } else {
            self.outbox.clear();
            self.queued_bytes = 0;
        }
        self.phase = Phase::Aborting;
    }

    /// Marks the framing as broken; the connection reports closable and
    /// never writes again.
    pub fn poison(&mut self) {
        self.phase = Phase::Poisoned;
        self.parked.clear();
        self.outbox.clear();
        self.queued_bytes = 0;
        self.front_written = 0;
    }

    /// Whether the connection is past reading (draining, aborting, or
    /// poisoned).
    pub fn closing(&self) -> bool {
        self.phase != Phase::Open
    }

    /// Whether the socket can be closed *now* without tearing a frame or
    /// owing the peer queued responses.
    pub fn closable(&self) -> bool {
        match self.phase {
            Phase::Poisoned => true,
            Phase::Open => false,
            Phase::Draining => {
                self.outbox.is_empty()
                    && self.parked.is_empty()
                    && self.in_flight == 0
                    && self.buffered_requests() == 0
            }
            Phase::Aborting => self.outbox.is_empty(),
        }
    }

    /// True when nothing is buffered in either direction and no request is
    /// outstanding — the idle-timeout condition.
    pub fn idle(&self) -> bool {
        self.phase == Phase::Open
            && self.read_buf.is_empty()
            && self.in_flight == 0
            && self.outbox.is_empty()
            && self.parked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: &[u8]) -> Vec<u8> {
        let mut m = (payload.len() as u32).to_le_bytes().to_vec();
        m.extend_from_slice(payload);
        m
    }

    fn conn() -> Conn {
        Conn::new(ConnConfig::default())
    }

    #[test]
    fn parses_one_complete_message() {
        let mut c = conn();
        let got = c.on_bytes(&msg(b"hello")).unwrap();
        assert_eq!(
            got,
            vec![Inbound {
                seq: 0,
                frame: b"hello".to_vec()
            }]
        );
        assert!(!c.has_partial_frame());
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn parses_multiple_messages_in_one_chunk_with_sequential_seqs() {
        let mut c = conn();
        let mut wire = msg(b"a");
        wire.extend(msg(b"bb"));
        wire.extend(msg(b"ccc"));
        let got = c.on_bytes(&wire).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.iter().map(|i| i.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(got[2].frame, b"ccc");
        assert_eq!(c.in_flight(), 3);
    }

    #[test]
    fn reassembles_message_fed_one_byte_at_a_time() {
        // The slow-loris shape: framing must hold at every split point.
        let mut c = conn();
        let wire = msg(b"slowly");
        for &b in &wire[..wire.len() - 1] {
            assert!(c.on_bytes(&[b]).unwrap().is_empty());
            assert!(c.has_partial_frame());
        }
        let got = c.on_bytes(&wire[wire.len() - 1..]).unwrap();
        assert_eq!(
            got,
            vec![Inbound {
                seq: 0,
                frame: b"slowly".to_vec()
            }]
        );
        assert!(!c.has_partial_frame());
    }

    #[test]
    fn torn_length_prefix_is_held_not_parsed() {
        let mut c = conn();
        assert!(c.on_bytes(&[5, 0]).unwrap().is_empty());
        assert!(c.has_partial_frame());
        assert_eq!(c.partial_bytes(), 2);
        // Completing the prefix and the payload releases the message.
        assert!(c.on_bytes(&[0, 0]).unwrap().is_empty());
        let got = c.on_bytes(b"12345").unwrap();
        assert_eq!(got[0].frame, b"12345");
    }

    #[test]
    fn message_split_across_chunk_boundary() {
        let mut c = conn();
        let mut wire = msg(b"first");
        wire.extend(msg(b"second"));
        let (a, b) = wire.split_at(7); // mid-payload of the first
        assert!(c.on_bytes(a).unwrap().is_empty());
        let got = c.on_bytes(b).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].frame, b"first");
        assert_eq!(got[1].frame, b"second");
    }

    #[test]
    fn zero_length_message_is_a_valid_frame_of_no_bytes() {
        // The codec layer will reject it as a frame; the transport must
        // still deliver it rather than desynchronize.
        let mut c = conn();
        let got = c.on_bytes(&msg(b"")).unwrap();
        assert_eq!(
            got,
            vec![Inbound {
                seq: 0,
                frame: vec![]
            }]
        );
    }

    #[test]
    fn oversized_declared_length_poisons_the_connection() {
        let mut c = Conn::new(ConnConfig {
            max_frame: 1024,
            ..ConnConfig::default()
        });
        let err = c.on_bytes(&2048u32.to_le_bytes()).unwrap_err();
        assert_eq!(
            err,
            ConnFatal::OversizedFrame {
                declared: 2048,
                cap: 1024
            }
        );
        assert!(c.closing());
        assert!(c.closable());
        assert!(!c.wants_read());
        assert!(!c.wants_write());
    }

    #[test]
    fn oversized_length_after_valid_traffic_still_fatal() {
        let mut c = Conn::new(ConnConfig {
            max_frame: 64,
            ..ConnConfig::default()
        });
        assert_eq!(c.on_bytes(&msg(b"ok")).unwrap().len(), 1);
        let mut wire = msg(b"ok2");
        wire.extend(u32::MAX.to_le_bytes());
        assert!(c.on_bytes(&wire).is_err());
        assert!(c.closable());
    }

    #[test]
    fn responses_flush_in_sequence_order_despite_reverse_push() {
        let mut c = conn();
        c.on_bytes(&[msg(b"a"), msg(b"b"), msg(b"c")].concat())
            .unwrap();
        c.push_response(2, msg(b"RC"));
        c.push_response(1, msg(b"RB"));
        assert!(c.next_chunk().is_none(), "seq 0 missing: nothing may flush");
        c.push_response(0, msg(b"RA"));
        let mut out = Vec::new();
        while let Some(chunk) = c.next_chunk() {
            let n = chunk.len();
            out.extend_from_slice(chunk);
            c.advance(n);
        }
        assert_eq!(out, [msg(b"RA"), msg(b"RB"), msg(b"RC")].concat());
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn gap_blocks_later_responses_until_filled() {
        let mut c = conn();
        c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap();
        c.push_response(1, msg(b"second"));
        assert!(c.next_chunk().is_none());
        assert_eq!(c.queued_bytes(), 0, "parked responses are not queued yet");
        c.push_response(0, msg(b"first"));
        assert_eq!(c.queued_bytes(), msg(b"first").len() + msg(b"second").len());
    }

    #[test]
    fn partial_writes_tracked_across_advance_calls() {
        let mut c = conn();
        c.on_bytes(&msg(b"q")).unwrap();
        let resp = msg(b"a-long-response");
        c.push_response(0, resp.clone());
        assert_eq!(c.queued_bytes(), resp.len());
        let first = c.next_chunk().unwrap().to_vec();
        assert_eq!(first, resp);
        c.advance(3);
        assert!(c.mid_frame());
        assert_eq!(c.queued_bytes(), resp.len() - 3);
        assert_eq!(c.next_chunk().unwrap(), &resp[3..]);
        c.advance(resp.len() - 3);
        assert!(!c.mid_frame());
        assert!(c.next_chunk().is_none());
        assert_eq!(c.queued_bytes(), 0);
    }

    #[test]
    fn backpressure_pauses_reads_until_drained() {
        let mut c = Conn::new(ConnConfig {
            write_budget: 10,
            ..ConnConfig::default()
        });
        c.on_bytes(&msg(b"q")).unwrap();
        assert!(c.wants_read());
        c.push_response(0, msg(b"12345678901234567890"));
        assert!(!c.wants_read(), "over budget: reads pause");
        assert!(c.wants_write());
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert!(c.wants_read(), "drained: reads resume");
    }

    #[test]
    fn max_pipeline_pauses_reads_until_responses_complete() {
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 2,
            ..ConnConfig::default()
        });
        c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap();
        assert_eq!(c.in_flight(), 2);
        assert!(!c.wants_read(), "pipeline full");
        c.push_response(0, msg(b"ra"));
        assert_eq!(c.in_flight(), 1);
        assert!(c.wants_read(), "a completion frees a slot");
    }

    #[test]
    fn parked_responses_hold_their_pipeline_slots() {
        // Head-of-line stall: request 0 is never answered, every later one
        // is answered at once. Parked answers must keep counting against
        // `max_pipeline`, or the connection parses (and parks) without
        // bound, then releases it all into the outbox at once.
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 2,
            write_budget: 10,
            ..ConnConfig::default()
        });
        let wire: Vec<u8> = (0..50).flat_map(|_| msg(b"q")).collect();
        let mut ready = c.on_bytes(&wire).unwrap();
        while !ready.is_empty() {
            for inbound in ready.iter().filter(|i| i.seq != 0) {
                c.push_response(inbound.seq, msg(b"answer"));
            }
            ready = c.take_ready().unwrap();
        }
        assert_eq!(c.requests_seen(), 2, "parsing stops at the pipeline cap");
        assert_eq!(c.in_flight(), 2);
        assert!(!c.wants_read());
        assert_eq!(c.queued_bytes(), 0, "nothing is releasable yet");
        assert_eq!(c.buffered_requests(), 48);
        // The head completes: exactly the capped responses land.
        c.push_response(0, msg(b"answer"));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.queued_bytes(), 2 * msg(b"answer").len());
    }

    #[test]
    fn close_after_flush_waits_for_parked_and_queued() {
        let mut c = conn();
        c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap();
        c.push_response(1, msg(b"rb"));
        c.close_after_flush();
        assert!(c.closing());
        assert!(!c.closable(), "seq 0 still owed");
        c.push_response(0, msg(b"ra"));
        assert!(!c.closable(), "outbox not drained");
        while let Some(chunk) = c.next_chunk() {
            let n = chunk.len();
            c.advance(n);
        }
        assert!(c.closable());
    }

    #[test]
    fn abort_with_nothing_written_is_immediately_closable() {
        let mut c = conn();
        c.on_bytes(&msg(b"q")).unwrap();
        c.push_response(0, msg(b"never-sent"));
        c.abort_at_boundary();
        assert!(c.closable(), "no bytes on the wire: drop everything");
        assert_eq!(c.queued_bytes(), 0);
        assert!(!c.wants_write());
    }

    #[test]
    fn abort_mid_frame_finishes_exactly_that_frame() {
        let mut c = conn();
        c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap();
        let r0 = msg(b"response-zero");
        c.push_response(0, r0.clone());
        c.push_response(1, msg(b"response-one"));
        c.advance(5); // half of r0 is on the wire
        c.abort_at_boundary();
        assert!(!c.closable(), "must finish the torn frame first");
        assert!(c.wants_write());
        let rest = c.next_chunk().unwrap().to_vec();
        assert_eq!(rest, &r0[5..], "only the rest of r0, response-one dropped");
        c.advance(rest.len());
        assert!(c.closable());
        assert!(!c.wants_write());
    }

    #[test]
    fn abort_drops_parked_responses() {
        let mut c = conn();
        c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap();
        c.push_response(1, msg(b"parked"));
        c.abort_at_boundary();
        assert!(c.closable());
        // A straggler completion after abort is ignored, not queued.
        c.push_response(0, msg(b"late"));
        assert!(c.next_chunk().is_none());
        assert!(c.closable());
    }

    #[test]
    fn abort_during_drain_keeps_boundary_guarantee() {
        let mut c = conn();
        c.on_bytes(&msg(b"a")).unwrap();
        let r = msg(b"0123456789");
        c.push_response(0, r.clone());
        c.close_after_flush();
        c.advance(4);
        c.abort_at_boundary();
        assert!(!c.closable());
        assert_eq!(c.next_chunk().unwrap(), &r[4..]);
    }

    #[test]
    fn idle_reflects_all_buffers() {
        let mut c = conn();
        assert!(c.idle());
        c.on_bytes(&[1, 0]).unwrap();
        assert!(!c.idle(), "partial frame pending");
        c.on_bytes(&[0, 0, 9]).unwrap();
        assert!(!c.idle(), "request in flight");
        c.push_response(0, msg(b"r"));
        assert!(!c.idle(), "response queued");
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert!(c.idle());
    }

    #[test]
    fn requests_seen_counts_across_chunks() {
        let mut c = conn();
        c.on_bytes(&msg(b"a")).unwrap();
        c.on_bytes(&[msg(b"b"), msg(b"c")].concat()).unwrap();
        assert_eq!(c.requests_seen(), 3);
    }

    #[test]
    fn poison_discards_everything() {
        let mut c = conn();
        c.on_bytes(&msg(b"a")).unwrap();
        c.push_response(0, msg(b"r"));
        c.advance(2);
        c.poison();
        assert!(c.closable());
        assert!(!c.wants_write());
        assert_eq!(c.queued_bytes(), 0);
        c.push_response(0, msg(b"late"));
        assert!(c.next_chunk().is_none());
    }

    #[test]
    fn draining_conn_reports_not_idle() {
        let mut c = conn();
        c.close_after_flush();
        assert!(!c.idle(), "closing is not idle");
        assert!(c.closable());
    }

    #[test]
    fn wants_read_false_once_closing() {
        let mut c = conn();
        assert!(c.wants_read());
        c.close_after_flush();
        assert!(!c.wants_read());
    }

    #[test]
    fn draining_waits_for_in_flight_requests() {
        // A request still in a worker when the close begins must be
        // answered before the connection may close.
        let mut c = conn();
        c.on_bytes(&msg(b"q")).unwrap();
        c.close_after_flush();
        assert!(!c.closable(), "request still in flight");
        c.push_response(0, msg(b"r"));
        assert!(!c.closable(), "response not yet written");
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert!(c.closable());
    }

    #[test]
    fn unsolicited_message_flushes_then_closes() {
        // The shed path: BUSY without any parsed request.
        let mut c = conn();
        let busy = msg(b"BUSY");
        c.inject_unsolicited(busy.clone());
        c.close_after_flush();
        assert!(c.wants_write());
        assert!(!c.closable());
        let n = c.next_chunk().unwrap().len();
        assert_eq!(c.next_chunk().unwrap(), busy.as_slice());
        c.advance(n);
        assert!(c.closable());
    }

    #[test]
    fn parsing_parks_at_the_pipeline_cap_and_resumes() {
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 2,
            ..ConnConfig::default()
        });
        let wire = [msg(b"a"), msg(b"b"), msg(b"c"), msg(b"d"), msg(b"e")].concat();
        let got = c.on_bytes(&wire).unwrap();
        assert_eq!(got.len(), 2, "only the cap's worth is admitted");
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.buffered_requests(), 3);
        assert!(!c.has_partial_frame(), "parked messages are not a partial");
        // A completed response frees one slot; exactly one parks out.
        c.push_response(0, msg(b"ra"));
        let more = c.take_ready().unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seq, 2);
        assert_eq!(more[0].frame, b"c");
        assert_eq!(c.buffered_requests(), 2);
    }

    #[test]
    fn parsing_parks_while_over_the_write_budget() {
        let mut c = Conn::new(ConnConfig {
            write_budget: 10,
            ..ConnConfig::default()
        });
        c.on_bytes(&msg(b"q")).unwrap();
        c.push_response(0, msg(b"a-response-past-the-budget"));
        assert!(c.queued_bytes() > 10);
        // New arrivals park rather than inflate the outbox further.
        let got = c.on_bytes(&[msg(b"x"), msg(b"y")].concat()).unwrap();
        assert!(got.is_empty());
        assert_eq!(c.buffered_requests(), 2);
        // Draining the outbox releases them.
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert_eq!(c.take_ready().unwrap().len(), 2);
        assert_eq!(c.buffered_requests(), 0);
    }

    #[test]
    fn partial_tail_is_seen_through_parked_messages() {
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 1,
            ..ConnConfig::default()
        });
        let mut wire = [msg(b"a"), msg(b"b")].concat();
        wire.extend_from_slice(&[9, 0]); // torn prefix after two messages
        assert_eq!(c.on_bytes(&wire).unwrap().len(), 1);
        assert_eq!(c.buffered_requests(), 1);
        assert!(c.has_partial_frame());
        assert_eq!(c.partial_bytes(), 2);
    }

    #[test]
    fn draining_waits_for_parked_messages() {
        // A shutdown request with pipelined requests parked behind it:
        // they are owed answers before the connection may close.
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 1,
            ..ConnConfig::default()
        });
        assert_eq!(
            c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap().len(),
            1
        );
        c.close_after_flush();
        c.push_response(0, msg(b"ra"));
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert!(!c.closable(), "a parked request is still owed an answer");
        let rest = c.take_ready().unwrap();
        assert_eq!(rest.len(), 1);
        c.push_response(1, msg(b"rb"));
        let n = c.next_chunk().unwrap().len();
        c.advance(n);
        assert!(c.closable());
    }

    #[test]
    fn take_ready_yields_nothing_after_abort_or_poison() {
        let mut c = Conn::new(ConnConfig {
            max_pipeline: 1,
            ..ConnConfig::default()
        });
        assert_eq!(
            c.on_bytes(&[msg(b"a"), msg(b"b")].concat()).unwrap().len(),
            1
        );
        c.abort_at_boundary();
        assert!(c.take_ready().unwrap().is_empty());
        assert!(c.closable(), "parked messages are forfeit on abort");
    }

    #[test]
    fn exact_budget_boundary_still_reads() {
        // The budget is inclusive: pausing starts strictly above it.
        let mut c = Conn::new(ConnConfig {
            write_budget: 9,
            ..ConnConfig::default()
        });
        c.on_bytes(&msg(b"q")).unwrap();
        c.push_response(0, msg(b"12345")); // 4 + 5 = 9 bytes queued
        assert_eq!(c.queued_bytes(), 9);
        assert!(c.wants_read());
    }
}

//! The load generator: one thread drives every connection with
//! non-blocking sockets and `ppoll(2)`.
//!
//! Two plans share the loop. [`Plan::Open`] sends request *i* at its
//! intended time `start + at[i]` whatever the daemon is doing, and every
//! latency is measured from that intended time, so a stall is charged to
//! every request scheduled behind it (no coordinated omission, as in wrk2).
//! If a socket cannot take bytes, requests queue inside the generator and
//! the delay shows as *lateness*: the time between a request's intended
//! send and its last byte reaching the kernel. [`Plan::Saturate`] is the
//! closed-loop capacity probe: it keeps a fixed number of requests in
//! flight per connection until the deadline.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// Waits until one of `fds` is ready or `timeout` passes (nanosecond
/// resolution, unlike `poll`'s milliseconds: at a few hundred requests per
/// second a 1 ms timer would itself make the generator late).
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout structs, `ts` outlives the call, and a null signal
    // mask is documented as "leave the mask unchanged".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// One request's timeline, relative to the phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request's position in its plan.
    pub idx: usize,
    /// Request tag (decodes the response).
    pub tag: u16,
    /// When the request was due.
    pub intended: Duration,
    /// When its last byte was handed to the kernel.
    pub sent: Option<Duration>,
    /// When its response had fully arrived.
    pub done: Option<Duration>,
    /// The response frame (without its length prefix).
    pub response: Vec<u8>,
}

impl Record {
    /// Latency from the intended send time, if answered.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.intended))
    }

    /// How late the generator handed the request to the kernel.
    pub fn lateness(&self) -> Option<Duration> {
        self.sent.map(|s| s.saturating_sub(self.intended))
    }
}

/// What to send.
pub enum Plan<'a> {
    /// Request `i` is due at `start + at[i]` on connection `i % conns`.
    Open {
        at: &'a [Duration],
        frames: &'a [(Vec<u8>, u16)],
    },
    /// Keep `depth` requests in flight on every connection until the
    /// deadline; `next(i)` builds request `i`.
    Saturate {
        depth: usize,
        next: &'a mut dyn FnMut(usize) -> (Vec<u8>, u16),
    },
}

struct Lane<'s> {
    stream: &'s mut TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Cumulative bytes queued / written on this connection.
    queued: u64,
    written: u64,
    /// Requests not yet fully written: (record, cumulative end offset).
    unsent: VecDeque<(usize, u64)>,
    /// Requests awaiting a response, in send order.
    awaiting: VecDeque<usize>,
    inbuf: Vec<u8>,
    closed: bool,
}

impl Lane<'_> {
    fn enqueue(&mut self, rec: usize, frame: &[u8]) {
        self.out
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.out.extend_from_slice(frame);
        self.queued += 4 + frame.len() as u64;
        self.unsent.push_back((rec, self.queued));
        self.awaiting.push_back(rec);
    }

    fn flush(&mut self, records: &mut [Record], now: Duration) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.out_pos += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        while let Some(&(rec, end)) = self.unsent.front() {
            if end > self.written {
                break;
            }
            records[rec].sent = Some(now);
            self.unsent.pop_front();
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    fn receive(&mut self, records: &mut [Record], start: Instant) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let now = start.elapsed();
        let mut at = 0;
        while self.inbuf.len() - at >= 4 {
            let len = u32::from_le_bytes(self.inbuf[at..at + 4].try_into().expect("4 bytes"));
            let len = len as usize;
            if self.inbuf.len() - at - 4 < len {
                break;
            }
            let Some(rec) = self.awaiting.pop_front() else {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "response without an outstanding request",
                ));
            };
            records[rec].done = Some(now);
            records[rec].response = self.inbuf[at + 4..at + 4 + len].to_vec();
            at += 4 + len;
        }
        self.inbuf.drain(..at);
        Ok(())
    }
}

/// Runs one phase over `streams` (switched to non-blocking for the
/// phase). Requests are issued for `run_for` after `start`; responses are
/// awaited until `grace` after that. Requests still unanswered then are
/// returned with `done = None`. `on_tick` runs at the start and at every
/// multiple of `tick` within `run_for`.
pub fn drive(
    streams: &mut [TcpStream],
    mut plan: Plan<'_>,
    start: Instant,
    run_for: Duration,
    grace: Duration,
    tick: Duration,
    on_tick: &mut dyn FnMut(),
) -> io::Result<Vec<Record>> {
    for s in streams.iter_mut() {
        s.set_nonblocking(true)?;
    }
    let mut lanes: Vec<Lane<'_>> = streams
        .iter_mut()
        .map(|stream| Lane {
            stream,
            out: Vec::new(),
            out_pos: 0,
            queued: 0,
            written: 0,
            unsent: VecDeque::new(),
            awaiting: VecDeque::new(),
            inbuf: Vec::new(),
            closed: false,
        })
        .collect();
    let n_lanes = lanes.len();
    let mut records: Vec<Record> = Vec::new();
    let mut next = 0usize;
    let hard_end = run_for + grace;
    while Instant::now() < start {
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
    }
    let mut ticks = 0u32;
    loop {
        let now = start.elapsed();
        while tick * ticks <= now && tick * ticks < run_for {
            on_tick();
            ticks += 1;
        }
        let issuing = match &mut plan {
            Plan::Open { at, frames } => {
                while next < at.len() && at[next] <= now {
                    let (frame, tag) = &frames[next];
                    records.push(Record {
                        idx: next,
                        tag: *tag,
                        intended: at[next],
                        sent: None,
                        done: None,
                        response: Vec::new(),
                    });
                    lanes[next % n_lanes].enqueue(records.len() - 1, frame);
                    next += 1;
                }
                next < at.len()
            }
            Plan::Saturate { depth, next: build } => {
                if now < run_for {
                    for lane in lanes.iter_mut() {
                        while lane.awaiting.len() < *depth {
                            let (frame, tag) = build(next);
                            records.push(Record {
                                idx: next,
                                tag,
                                intended: now,
                                sent: None,
                                done: None,
                                response: Vec::new(),
                            });
                            lane.enqueue(records.len() - 1, &frame);
                            next += 1;
                        }
                    }
                }
                now < run_for
            }
        };
        for lane in lanes.iter_mut() {
            lane.flush(&mut records, now)?;
        }
        let outstanding = lanes.iter().any(|l| !l.awaiting.is_empty() && !l.closed);
        if (!issuing && !outstanding) || now >= hard_end {
            break;
        }
        let mut timeout = match &plan {
            Plan::Open { at, .. } if next < at.len() => at[next].saturating_sub(now),
            Plan::Saturate { .. } if now < run_for => run_for - now,
            _ => hard_end.saturating_sub(now),
        };
        // Wake for the next tick too, while ticks remain.
        if tick * ticks < run_for {
            timeout = timeout.min(
                (tick * ticks)
                    .saturating_sub(now)
                    .max(Duration::from_micros(1)),
            );
        }
        let mut fds: Vec<PollFd> = lanes
            .iter()
            .map(|l| PollFd {
                fd: l.stream.as_raw_fd(),
                events: if l.closed {
                    0
                } else {
                    POLLIN | if l.out_pos < l.out.len() { POLLOUT } else { 0 }
                },
                revents: 0,
            })
            .collect();
        wait(&mut fds, timeout)?;
        for (lane, fd) in lanes.iter_mut().zip(&fds) {
            if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                lane.receive(&mut records, start)?;
            }
            if fd.revents & POLLOUT != 0 {
                lane.flush(&mut records, start.elapsed())?;
            }
        }
    }
    for s in streams.iter_mut() {
        s.set_nonblocking(false)?;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A stub daemon that answers every frame with a fixed reply, except
    /// that it stops reading for `stall` once it has answered `stall_at`
    /// requests. Reports when the stall began and ended.
    fn stub(
        listener: TcpListener,
        stall_at: usize,
        stall: Duration,
        total: usize,
        report: mpsc::Sender<(Instant, Instant)>,
    ) {
        let (mut s, _) = listener.accept().expect("accept");
        let mut served = 0usize;
        let reply = [4u8, 0, 0, 0, 1, 2, 3, 4];
        let mut len = [0u8; 4];
        while served < total {
            if served == stall_at {
                let began = Instant::now();
                std::thread::sleep(stall);
                report.send((began, Instant::now())).expect("report");
            }
            s.read_exact(&mut len).expect("length");
            let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut frame).expect("frame");
            s.write_all(&reply).expect("reply");
            served += 1;
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_scheduled_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (total, stall_at) = (240usize, 60usize);
        let stall = Duration::from_millis(400);
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || stub(listener, stall_at, stall, total, tx));
        let mut streams = [TcpStream::connect(addr).expect("connect")];
        // 256 KiB requests at 200/s: the stall backs up more bytes than the
        // loopback socket buffers hold, so the generator itself runs late.
        let frames: Vec<(Vec<u8>, u16)> = (0..total).map(|_| (vec![7u8; 256 * 1024], 1)).collect();
        let at: Vec<Duration> = (0..total)
            .map(|i| Duration::from_millis(5 * i as u64))
            .collect();
        let start = Instant::now() + Duration::from_millis(20);
        let records = drive(
            &mut streams,
            Plan::Open {
                at: &at,
                frames: &frames,
            },
            start,
            Duration::from_millis(5 * total as u64),
            Duration::from_secs(10),
            Duration::from_secs(1),
            &mut || {},
        )
        .expect("drive");
        server.join().expect("stub");
        let (began, ended) = rx.recv().expect("stall report");
        assert_eq!(records.len(), total);
        let mut behind = 0;
        for r in &records {
            let latency = r.latency().expect("every request answered");
            let due = start + r.intended;
            if due >= began && due < ended {
                behind += 1;
                let owed = ended.duration_since(due);
                assert!(
                    latency >= owed,
                    "request {} due {:?} into the stall waited {:?}, owed {:?}",
                    r.idx,
                    due - began,
                    latency,
                    owed
                );
            }
        }
        assert!(behind >= 70, "only {behind} requests fell in the stall");
        let mut late: Vec<f64> = records
            .iter()
            .map(|r| r.lateness().expect("sent").as_secs_f64() * 1e3)
            .collect();
        late.sort_by(f64::total_cmp);
        let late_p99 = crate::stats::percentile(&late, 99.0);
        assert!(late_p99 >= 100.0, "late p99 {late_p99} ms hides the stall");
    }
}

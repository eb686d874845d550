//! Readiness polling for the non-blocking daemon: a thin, std-only
//! abstraction over `epoll` (Linux) with a portable `poll(2)` fallback.
//!
//! The daemon needs exactly three operations — register a socket with an
//! interest set, wait for readiness, change interest — so this module
//! exposes exactly those, plus a [`Waker`] other threads use to interrupt a
//! wait. Both backends are level-triggered: an event repeats every wait
//! until the condition is consumed, so a handler that reads or writes less
//! than everything available is re-driven on the next tick instead of
//! hanging.
//!
//! No external crates: the `epoll`/`poll` entry points are declared here
//! against the libc that `std` already links. On non-Linux Unix only the
//! `poll` backend compiles; [`Poller::new`] picks the best backend for the
//! platform and [`Poller::new_poll`] forces the portable one (exercised in
//! tests on every platform so the fallback cannot rot).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A readiness event: the registered token plus what the fd is ready for.
///
/// `error` covers both error and hang-up conditions; the owner should try
/// the I/O (which reports the precise error) and drop the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// Ready for reading (or a peer close is pending).
    pub readable: bool,
    /// Ready for writing.
    pub writable: bool,
    /// Error or hang-up condition.
    pub error: bool,
}

/// The interest set for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report readable events.
    pub readable: bool,
    /// Report writable events.
    pub writable: bool,
}

impl Interest {
    /// No interest: only error/hang-up conditions are reported. Used for
    /// parked connections (pipeline full) so a level-triggered backlog of
    /// unread bytes cannot spin the loop.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

enum Impl {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(pollfds::PollSet),
}

/// A readiness poller over non-blocking fds.
pub struct Poller {
    inner: Impl,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(_) => "Poller(epoll)",
            Impl::Poll(_) => "Poller(poll)",
        })
    }
}

impl Poller {
    /// Creates a poller on the platform's best backend.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                inner: Impl::Epoll(epoll::Epoll::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::new_poll()
        }
    }

    /// Creates a poller on the portable `poll(2)` backend.
    pub fn new_poll() -> io::Result<Poller> {
        Ok(Poller {
            inner: Impl::Poll(pollfds::PollSet::new()),
        })
    }

    /// Starts watching `fd` under `token`. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.register(fd, token, interest),
            Impl::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest set of a registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.reregister(fd, token, interest),
            Impl::Poll(p) => p.reregister(fd, token, interest),
        }
    }

    /// Stops watching a registered fd. Must be called **before** the fd is
    /// closed (both backends key bookkeeping by fd).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.deregister(fd),
            Impl::Poll(p) => p.deregister(fd),
        }
    }

    /// Waits for readiness, appending events to `events` (cleared first).
    /// `None` blocks until an event arrives; `Some(d)` returns (possibly
    /// empty) after at most roughly `d`. A wait interrupted by a signal
    /// returns empty rather than erroring.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.inner {
            #[cfg(target_os = "linux")]
            Impl::Epoll(e) => e.wait(events, timeout),
            Impl::Poll(p) => p.wait(events, timeout),
        }
    }
}

/// Rounds a timeout up to whole milliseconds for the C APIs (`None` → -1 =
/// block forever). Rounding *up* keeps sub-millisecond timeouts from
/// spinning at 0.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .try_into()
            .unwrap_or(i32::MAX),
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The Linux backend: one `epoll` instance, O(ready) waits.

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    // epoll_event carries a packed 12-byte layout on x86-64; on other
    // targets the natural C layout matches the kernel ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Capacity of the per-wait event buffer; more ready fds than this
    /// simply surface on the next (level-triggered) wait.
    const WAIT_CAPACITY: usize = 1024;

    pub(super) struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_CAPACITY],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = 0;
            if interest.readable {
                // EPOLLRDHUP distinguishes a peer half-close from silence,
                // so an abandoned connection surfaces without a read. It
                // rides the read interest: a parked connection (empty
                // mask) must not be woken by a condition it won't consume.
                m |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                m |= EPOLLOUT;
            }
            m
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent {
                    events: Self::mask(interest),
                    data: token,
                }),
            )
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent {
                    events: Self::mask(interest),
                    data: token,
                }),
            )
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    super::timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

mod pollfds {
    //! The portable backend: a maintained `pollfd` array, O(registered)
    //! waits. Fine for hundreds of fds; Linux gets epoll for thousands.

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    pub(super) struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
        index: std::collections::HashMap<RawFd, usize>,
    }

    impl PollSet {
        pub fn new() -> PollSet {
            PollSet {
                fds: Vec::new(),
                tokens: Vec::new(),
                index: std::collections::HashMap::new(),
            }
        }

        fn mask(interest: Interest) -> c_short {
            let mut m = 0;
            if interest.readable {
                m |= POLLIN;
            }
            if interest.writable {
                m |= POLLOUT;
            }
            m
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("fd {fd} already registered"),
                ));
            }
            self.index.insert(fd, self.fds.len());
            self.fds.push(PollFd {
                fd,
                events: Self::mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        fn slot(&self, fd: RawFd) -> io::Result<usize> {
            self.index.get(&fd).copied().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} not registered"))
            })
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let i = self.slot(fd)?;
            self.fds[i].events = Self::mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.slot(fd)?;
            self.index.remove(&fd);
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if i < self.fds.len() {
                self.index.insert(self.fds[i].fd, i);
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as NFds,
                    super::timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    error: bits & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// Wakes a [`Poller`] parked in [`Poller::wait`] from another thread.
///
/// A socketpair in disguise: the read end lives in the poller's interest
/// set under a caller-chosen token; [`Waker::wake`] makes it readable.
/// Cloneable and cheap — every worker thread holds one.
#[derive(Debug)]
pub struct Waker {
    write: UnixStream,
    read: UnixStream,
}

impl Waker {
    /// Creates the pair. The caller must register
    /// [`Waker::read_fd`] with read interest.
    pub fn new() -> io::Result<Waker> {
        let (write, read) = UnixStream::pair()?;
        write.set_nonblocking(true)?;
        read.set_nonblocking(true)?;
        Ok(Waker { write, read })
    }

    /// The fd to register with the poller (read interest).
    pub fn read_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Interrupts the poller. Coalesces: waking an already-woken poller is
    /// a no-op (the pipe simply stays readable).
    pub fn wake(&self) {
        // WouldBlock means a wake is already pending — exactly what we
        // want. Any other error means the poller is gone; nothing to do.
        let _ = (&self.write).write(&[1]);
    }

    /// Drains pending wake bytes. Call when the wake token fires.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.read).read(&mut buf) {
            if n == 0 {
                return;
            }
        }
    }

    /// A handle other threads use to wake this poller.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            write: self.write.try_clone()?,
        })
    }
}

/// A cloneable cross-thread wake handle (see [`Waker::handle`]).
#[derive(Debug)]
pub struct WakeHandle {
    write: UnixStream,
}

impl WakeHandle {
    /// Interrupts the poller (coalescing, never blocking).
    pub fn wake(&self) {
        let _ = (&self.write).write(&[1]);
    }
}

impl Clone for WakeHandle {
    fn clone(&self) -> Self {
        WakeHandle {
            write: self.write.try_clone().expect("clone wake handle"),
        }
    }
}

/// Tracks desired vs registered interest so the event loop only issues
/// `reregister` syscalls when the interest set actually changes.
#[derive(Debug)]
pub struct InterestCache {
    current: HashMap<RawFd, Interest>,
}

impl InterestCache {
    /// An empty cache.
    pub fn new() -> InterestCache {
        InterestCache {
            current: HashMap::new(),
        }
    }

    /// Registers `fd` and remembers its interest.
    pub fn register(
        &mut self,
        poller: &mut Poller,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        poller.register(fd, token, interest)?;
        self.current.insert(fd, interest);
        Ok(())
    }

    /// Reregisters only if `interest` differs from what the poller has.
    /// Returns whether a syscall was actually issued (`false`: elided —
    /// the metric the event loop uses to show the cache earns its keep).
    pub fn ensure(
        &mut self,
        poller: &mut Poller,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<bool> {
        if self.current.get(&fd) == Some(&interest) {
            return Ok(false);
        }
        poller.reregister(fd, token, interest)?;
        self.current.insert(fd, interest);
        Ok(true)
    }

    /// Deregisters and forgets `fd`.
    pub fn deregister(&mut self, poller: &mut Poller, fd: RawFd) -> io::Result<()> {
        self.current.remove(&fd);
        poller.deregister(fd)
    }
}

impl Default for InterestCache {
    fn default() -> Self {
        InterestCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn backends() -> Vec<Poller> {
        vec![Poller::new().unwrap(), Poller::new_poll().unwrap()]
    }

    #[test]
    fn readable_event_fires_on_both_backends() {
        for mut poller in backends() {
            let (mut tx, rx) = pair();
            poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} idle");
            tx.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn writable_event_fires_when_interest_added() {
        for mut poller in backends() {
            let (tx, _rx) = pair();
            poller.register(tx.as_raw_fd(), 3, Interest::READ).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} no write interest yet");
            poller
                .reregister(tx.as_raw_fd(), 4, Interest::BOTH)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert_eq!(events[0].token, 4, "token updated by reregister");
            assert!(events[0].writable);
        }
    }

    #[test]
    fn level_triggered_events_repeat_until_consumed() {
        for mut poller in backends() {
            let (mut tx, mut rx) = pair();
            poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
            tx.write_all(b"abc").unwrap();
            let mut events = Vec::new();
            for round in 0..3 {
                poller
                    .wait(&mut events, Some(Duration::from_millis(1000)))
                    .unwrap();
                assert_eq!(events.len(), 1, "{poller:?} round {round}");
            }
            let mut buf = [0u8; 8];
            let n = rx.read(&mut buf).unwrap();
            assert_eq!(n, 3);
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} consumed");
        }
    }

    #[test]
    fn deregistered_fd_reports_nothing() {
        for mut poller in backends() {
            let (mut tx, rx) = pair();
            poller.register(rx.as_raw_fd(), 9, Interest::READ).unwrap();
            tx.write_all(b"x").unwrap();
            poller.deregister(rx.as_raw_fd()).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?}");
        }
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        // EOF must wake the loop (it reads 0 and reaps the connection).
        for mut poller in backends() {
            let (tx, rx) = pair();
            poller.register(rx.as_raw_fd(), 2, Interest::READ).unwrap();
            drop(tx);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{poller:?}");
            assert!(events[0].readable, "{poller:?} close looks readable");
        }
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        for mut poller in backends() {
            let waker = Waker::new().unwrap();
            poller
                .register(waker.read_fd(), u64::MAX, Interest::READ)
                .unwrap();
            let handle = waker.handle().unwrap();
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                handle.wake();
            });
            let start = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .unwrap();
            assert!(start.elapsed() < Duration::from_secs(10), "{poller:?}");
            assert_eq!(events.len(), 1, "{poller:?}");
            assert_eq!(events[0].token, u64::MAX);
            waker.drain();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?} drained waker is quiet");
            t.join().unwrap();
        }
    }

    #[test]
    fn waker_wakes_coalesce() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake(); // must never block, even with no reader
        }
        waker.drain();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.read_fd(), 0, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timeout_expires_without_events() {
        for mut poller in backends() {
            let (_tx, rx) = pair();
            poller.register(rx.as_raw_fd(), 5, Interest::READ).unwrap();
            let start = Instant::now();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap();
            assert!(events.is_empty(), "{poller:?}");
            assert!(start.elapsed() >= Duration::from_millis(25), "{poller:?}");
        }
    }

    #[test]
    fn poll_backend_survives_swap_remove_aliasing() {
        // Deregistering from the middle swap-removes the last entry into
        // the hole; its index entry must follow it.
        let mut poller = Poller::new_poll().unwrap();
        let pairs: Vec<_> = (0..4).map(|_| pair()).collect();
        for (i, (_tx, rx)) in pairs.iter().enumerate() {
            poller
                .register(rx.as_raw_fd(), i as u64, Interest::READ)
                .unwrap();
        }
        poller.deregister(pairs[1].1.as_raw_fd()).unwrap();
        let mut tx3 = &pairs[3].0;
        tx3.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 3, "token followed the moved entry");
    }

    #[test]
    fn interest_cache_skips_redundant_reregisters() {
        let mut poller = Poller::new().unwrap();
        let mut cache = InterestCache::new();
        let (mut tx, rx) = pair();
        cache
            .register(&mut poller, rx.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        // ensure() with the same interest is an elided no-op (cannot error
        // even if the fd were gone); with a different set it takes effect
        // and reports that a syscall was issued.
        let reregistered = cache
            .ensure(&mut poller, rx.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        assert!(!reregistered, "unchanged interest must be elided");
        let reregistered = cache
            .ensure(&mut poller, rx.as_raw_fd(), 1, Interest::BOTH)
            .unwrap();
        assert!(reregistered, "changed interest must reach the poller");
        tx.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable && events[0].writable);
        cache.deregister(&mut poller, rx.as_raw_fd()).unwrap();
        assert!(cache
            .ensure(&mut poller, rx.as_raw_fd(), 1, Interest::READ)
            .is_err());
    }

    #[test]
    fn double_register_rejected_by_poll_backend() {
        let mut poller = Poller::new_poll().unwrap();
        let (_tx, rx) = pair();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(poller.register(rx.as_raw_fd(), 2, Interest::READ).is_err());
        assert!(poller.deregister(rx.as_raw_fd()).is_ok());
        assert!(poller.deregister(rx.as_raw_fd()).is_err());
    }

    #[test]
    fn timeout_ms_rounds_up_and_clamps() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(
            timeout_ms(Some(Duration::from_micros(1500))),
            2,
            "sub-millisecond remainder rounds up"
        );
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }
}

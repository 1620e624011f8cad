//! # ledgerdb-netpoll
//!
//! A std-only readiness-polling primitive for the event-driven server:
//! a thin, level-triggered epoll wrapper with no libc crate (raw
//! `syscall` instructions on x86_64, minimal FFI elsewhere — see
//! [`sys`]), in the same no-deps discipline as the rest of the workspace.
//!
//! Three types carry the whole API:
//!
//! * [`Poller`] — owns the epoll instance; sockets register by raw fd
//!   under a caller-chosen [`Token`] with an [`Interest`] set, and
//!   [`Poller::wait`] parks until readiness or a timeout;
//! * [`Token`] — an opaque `u64` the caller uses to map events back to
//!   its own connection table; the poller never interprets it;
//! * [`Waker`] — an eventfd registered like any other source, so
//!   another thread (a dispatch worker finishing a request, a shutdown
//!   path) can interrupt a blocked [`Poller::wait`].
//!
//! Level-triggered on purpose: the event loop's per-connection state
//! machines re-arm naturally ("still have buffered bytes to write" ⇒
//! keep `WRITABLE` interest), and a missed edge can never wedge a
//! connection — the next `wait` reports the level again.

mod sys;

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Caller-chosen identifier echoed back on every event for its source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness directions a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest(sys::EPOLLIN | sys::EPOLLRDHUP);
    /// Writable only.
    pub const WRITABLE: Interest = Interest(sys::EPOLLOUT);
    /// Both directions.
    pub const BOTH: Interest = Interest(sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT);
    /// Neither direction: stay registered but quiet. Error/hang-up
    /// conditions are still reported (the kernel never masks those) —
    /// the state an event loop wants while a request is in flight and
    /// reading more would break per-connection backpressure.
    pub const NONE: Interest = Interest(0);

    fn bits(self) -> u32 {
        self.0
    }
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: Token,
    bits: u32,
}

impl Event {
    /// Bytes (or an accepted connection, or an EOF) can be read without
    /// blocking. Error/hang-up conditions also report readable so the
    /// owner discovers them through an ordinary `read` returning 0/Err.
    pub fn readable(&self) -> bool {
        self.bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP) != 0
    }

    /// The socket's send buffer has room.
    pub fn writable(&self) -> bool {
        self.bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0
    }

    /// The peer closed its end (full close or write-half shutdown).
    pub fn peer_closed(&self) -> bool {
        self.bits & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
    }

    /// The kernel flagged a socket error (fetch it via a read/write).
    pub fn is_error(&self) -> bool {
        self.bits & sys::EPOLLERR != 0
    }
}

/// An owned epoll instance.
///
/// Registration is by raw fd: the caller keeps ownership of the socket
/// and must deregister (or close) before the fd is reused. Closing a
/// registered fd removes it from the interest set kernel-side, so
/// dropping a `TcpStream` is always a safe way out.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { epfd: sys::sys_epoll_create1()? })
    }

    /// Subscribe `fd` under `token`.
    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            interest.bits(),
            token.0,
        )
    }

    /// Change an existing registration's interest set (token may change
    /// too — the kernel stores whatever is passed here).
    pub fn modify(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            interest.bits(),
            token.0,
        )
    }

    /// Remove a registration. Harmless if the fd was already closed.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Block until at least one source is ready, the timeout elapses
    /// (`events` comes back empty), or a [`Waker`] fires. `None` blocks
    /// indefinitely. Interrupted waits (`EINTR`) retry internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline doesn't busy-spin at 0ms.
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32 + i32::from(d.subsec_nanos() % 1_000_000 != 0),
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            match sys::sys_epoll_wait(self.epfd, &mut buf, timeout_ms) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &buf[..n] {
            // `ev` may be packed on x86_64; copy fields out by value.
            let (bits, data) = (ev.events, ev.data);
            events.push(Event { token: Token(data), bits });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: an eventfd that
/// any number of threads can [`Waker::wake`] without coordination. The
/// owning loop registers it like a socket and calls [`Waker::drain`]
/// when its token reports readable.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        Ok(Waker { fd: sys::sys_eventfd_nonblocking()? })
    }

    /// Make the next (or current) `wait` return. Safe from any thread;
    /// coalesces — a thousand wakes before the drain cost one event.
    pub fn wake(&self) {
        // A full eventfd counter (EAGAIN) already guarantees a pending
        // readable event, so the failure needs no handling.
        let _ = sys::sys_write(self.fd, &1u64.to_ne_bytes());
    }

    /// Consume pending wakeups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = sys::sys_read(self.fd, &mut buf);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::sys_close(self.fd);
    }
}

// Wakers cross threads by design: the fd is just an integer handle and
// eventfd writes are atomic kernel-side.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(&listener, Token(7), Interest::READABLE).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "no connection yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable());
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn stream_readability_tracks_bytes_and_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(&served, Token(1), Interest::READABLE).unwrap();
        let mut events = Vec::new();

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(1) && e.readable()));
        let mut buf = [0u8; 16];
        let mut served_ref = &served;
        assert_eq!(served_ref.read(&mut buf).unwrap(), 4);

        // Level-triggered: with the bytes consumed, the level is gone.
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "drained socket reports no level");

        // Peer close raises readable again (EOF is a read event).
        drop(client);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(1) && e.readable()));
        assert!(events.iter().any(|e| e.peer_closed()), "RDHUP/HUP reported");
        assert_eq!(served_ref.read(&mut buf).unwrap(), 0, "clean EOF");
    }

    #[test]
    fn writable_interest_follows_modify() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Readable-only first: an idle writable socket must NOT wake us.
        poller.register(&served, Token(3), Interest::READABLE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty());

        // Flip to writable: an empty send buffer reports immediately.
        poller.modify(&served, Token(4), Interest::WRITABLE).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(4) && e.writable()));

        poller.deregister(&served).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "deregistered socket is silent");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.register(waker.as_ref(), Token(99), Interest::READABLE).unwrap();

        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
        });

        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "woke promptly");
        assert!(events.iter().any(|e| e.token == Token(99)));
        waker.drain();
        handle.join().unwrap();

        // Drained: the level is gone, the next wait times out quietly.
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn wakes_coalesce_and_drain_fully() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(&waker, Token(5), Interest::READABLE).unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1, "wakes coalesce into one event");
        waker.drain();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "one drain clears the counter");
    }

    #[test]
    fn timeout_is_honored() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_millis(60))).unwrap();
        let waited = start.elapsed();
        assert!(events.is_empty());
        assert!(waited >= Duration::from_millis(50), "waited {waited:?}");
        assert!(waited < Duration::from_secs(5), "returned promptly: {waited:?}");
    }
}

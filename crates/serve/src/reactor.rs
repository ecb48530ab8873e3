//! The readiness event loop: the one front-end that multiplexes every
//! connection — socket clients and the stdin/stdout bridge alike — onto
//! the warm worker [`Pool`].
//!
//! A single thread drives `poll(2)` (via a tiny `extern "C"` wrapper, no
//! external crates) over the listener, a cross-thread waker and every
//! live connection, all nonblocking:
//!
//! ```text
//!   stdin ─► pump ─► socketpair ─┐ (bridge)
//!            accept              ▼  readable               completions
//!   listener ──────────────► Connection ───────► FrameDecoder ──┐
//!                                ▲                               │ dispatch_line
//!      waker ◄── workers         │ writable                      ▼
//!        │                       │◄──────── wbuf ◄── pack ◄── worker Pool
//!        └── poll(2) ────────────┴── timers (idle/progress, drain, dribble)
//!   stdout ◄─ pump ◄─ socketpair ◄── (bridge)
//! ```
//!
//! Each [`Connection`] is a small state machine — reading frames,
//! waiting on queued/executing requests, writing buffered responses,
//! draining — with bounded read and write buffers, so a stalled client
//! costs one buffer, never a thread. Frames are reassembled across
//! arbitrary chunk boundaries by [`FrameDecoder`]; accepted lines go
//! through [`Pool::dispatch_line`] (admission control, deadlines,
//! pinning), and completions come back over a [`Reply`] channel whose
//! wake callback pokes a nonblocking socketpair so `poll` returns
//! immediately.
//!
//! stdin/stdout enters through [`bridge`]: a detached thread pumps the
//! input into one end of a socketpair, the loop serves the other end as
//! its only connection, and a scoped thread pumps responses out. The
//! process's own fd 0/1 are never switched to nonblocking mode (that
//! would change the open file description a parent shell shares), and
//! in-memory readers and writers work unchanged.
//!
//! Backpressure is per connection: past [`PIPELINE_MAX`] dispatched-
//! but-unanswered requests or a [`WBUF_HIGH`] write backlog the loop
//! simply stops polling that connection for readability — for stdio
//! that stops the input pump too, so a fast producer facing a slow
//! consumer never grows memory without bound. `--io-timeout` is
//! enforced here as an idle/progress timer on every connection;
//! `--max-connections` caps the live set (excess clients wait in the OS
//! accept backlog); a raised shutdown flag drains every connection
//! under the pool's drain watchdog. The connection-level chaos knobs
//! (`read_err`, `rst`, `dribble`, `halfopen`) are applied at
//! decode/pack/write/accept time respectively.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, TcpListener};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::pool::{Dispatch, Pool, Reply};
use crate::protocol::{Frame, FrameDecoder};

/// The poll tick: upper bound on how long flag changes (shutdown,
/// drain) and dribble pacing wait for the loop to notice them.
const TICK: Duration = Duration::from_millis(25);

/// Per-connection cap on dispatched-but-unanswered requests; past it
/// the connection is not polled for readability until answers flush.
const PIPELINE_MAX: usize = 128;

/// Per-connection write-backlog bound (bytes) past which reads pause:
/// a client that never drains responses stops being read.
const WBUF_HIGH: usize = 256 * 1024;

/// Per-connection, per-tick read budget (bytes), so one firehose
/// client cannot monopolise the loop.
const READ_BURST: usize = 256 * 1024;

/// Grace beyond the drain deadline before lingering connections are
/// force-closed on shutdown (covers the watchdog's own poll interval
/// and the final response flush).
const DRAIN_GRACE: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------
// poll(2) FFI — the only platform call this loop needs.

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Waits until a registered fd is ready or `timeout` passes. A signal
/// interrupting the wait reports zero ready fds so the caller re-checks
/// its flags — the loop's next tick re-polls anyway.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = timeout.as_millis().min(i32::MAX as u128) as std::ffi::c_int;
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------
// Listener / stream: TCP and Unix behind one nonblocking face.

/// The socket listener the loop accepts from.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    /// One nonblocking accept attempt: `None` when no client is
    /// waiting, the accepted stream already set nonblocking otherwise.
    fn accept(&self) -> io::Result<Option<Stream>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(Stream::Tcp(s)))
                }
                Err(e) if retriable_accept(&e) => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(Stream::Unix(s)))
                }
                Err(e) if retriable_accept(&e) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Where the loop's connections come from.
pub(crate) enum Ingress<'a> {
    /// Accept clients from a listener — at most the budget's worth
    /// (`None` = forever).
    Listen(&'a Listener, Option<u64>),
    /// Serve one already-connected stream (the stdio [`bridge`]) and
    /// report the I/O error it ended on, if any.
    Bridge(UnixStream),
}

/// Accept errors that mean "try again later", not "listener is broken"
/// (the client may have already reset the half-accepted connection).
fn retriable_accept(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    )
}

/// One accepted nonblocking socket.
enum Stream {
    Tcp(std::net::TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
}

// ---------------------------------------------------------------------
// Waker: workers poke the loop through a nonblocking socketpair.

/// Cross-thread wake-up: a completion callback writes one byte into
/// the pair's send half, which the loop polls for readability. A full
/// pipe means a wake is already pending — the write is dropped.
struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            tx: Arc::new(tx),
        })
    }

    /// The callback handed to every [`Reply`].
    fn wake_fn(&self) -> Arc<dyn Fn() + Send + Sync> {
        let tx = Arc::clone(&self.tx);
        Arc::new(move || {
            let _ = io::Write::write(&mut &*tx, &[1]);
        })
    }

    /// Swallows every pending wake byte.
    fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine.

/// One multiplexed connection. At any moment it is reading frames,
/// waiting on dispatched requests, writing buffered responses, or
/// draining (flushing what is owed, accepting nothing new) — never
/// holding a thread.
struct Connection {
    stream: Stream,
    conn: u64,
    /// Where this connection's completions come back.
    reply: Reply,
    /// Reassembles request frames across arbitrary read chunks.
    decoder: FrameDecoder,
    /// Arrival order of the next accepted request.
    next_seq: u64,
    /// Completions not yet packable in order, by sequence number.
    ready: BTreeMap<u64, String>,
    /// The sequence number the next packed response must carry.
    next_flush: u64,
    /// Requests dispatched (or rejected into `ready`) but not packed.
    outstanding: usize,
    /// Packed response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How far into `wbuf` the socket has accepted.
    wpos: usize,
    /// Total bytes ever written, for the `rst` chaos threshold.
    written: usize,
    /// Draining: no more reads; close once owed responses flush.
    draining: bool,
    /// The idle/progress timeout already fired once (counted); the
    /// second firing force-closes even with responses still owed.
    timed_out: bool,
    /// Last moment bytes moved in either direction.
    last_progress: Instant,
    /// Chaos: never read this connection.
    halfopen: bool,
    /// Chaos: write one byte per `dribble_ms` until the buffer drains.
    dribbling: bool,
    /// Earliest moment the next dribbled byte may go out.
    next_dribble: Instant,
    /// Chaos: hard-close once `written` reaches this.
    rst_at: Option<usize>,
    /// The I/O error (real or injected) the connection ends on.
    error: Option<io::Error>,
}

impl Connection {
    fn new(stream: Stream, conn: u64, reply: Reply, cap: usize, halfopen: bool) -> Self {
        Connection {
            stream,
            conn,
            reply,
            decoder: FrameDecoder::new(cap),
            next_seq: 0,
            ready: BTreeMap::new(),
            next_flush: 0,
            outstanding: 0,
            wbuf: Vec::new(),
            wpos: 0,
            written: 0,
            draining: false,
            timed_out: false,
            last_progress: Instant::now(),
            halfopen,
            dribbling: false,
            next_dribble: Instant::now(),
            rst_at: None,
            error: None,
        }
    }

    /// Records the error the connection ends on; returns `false` (close
    /// now) for the callers' convenience.
    fn fail(&mut self, e: io::Error) -> bool {
        self.error = Some(e);
        false
    }

    /// Bytes packed but not yet accepted by the socket.
    fn owed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Should the loop poll this connection for readability?
    fn wants_read(&self) -> bool {
        !self.halfopen
            && !self.draining
            && self.outstanding < PIPELINE_MAX
            && self.owed() <= WBUF_HIGH
    }

    /// Should the loop poll this connection for writability?
    fn wants_write(&self, now: Instant) -> bool {
        self.owed() > 0 && (!self.dribbling || now >= self.next_dribble)
    }

    /// Everything owed has been answered and flushed.
    fn flushed(&self) -> bool {
        self.outstanding == 0 && self.owed() == 0
    }

    /// Routes one decoded frame: request lines through the pool's
    /// shared dispatch (admission control, deadlines, pinning),
    /// oversized frames straight to a `request_too_large` answer.
    /// Returns `false` when the `read_err` chaos point refused the
    /// frame: nothing more is read, what was accepted is still answered
    /// and flushed, then the connection closes on the injected error.
    fn dispatch_frame(&mut self, frame: Frame, pool: &Pool) -> bool {
        if pool.chaos().fail_read() {
            self.draining = true;
            self.error = Some(io::Error::other("chaos: injected read error"));
            return false;
        }
        match frame {
            Frame::Line(line) => {
                match pool.dispatch_line(self.conn, self.next_seq, &line, &self.reply) {
                    Dispatch::Skipped => {}
                    Dispatch::Rejected(response) => {
                        self.ready.insert(self.next_seq, response);
                        self.next_seq += 1;
                        self.outstanding += 1;
                    }
                    Dispatch::Submitted => {
                        self.next_seq += 1;
                        self.outstanding += 1;
                    }
                }
            }
            Frame::Oversized => {
                let response = pool.reject_oversized();
                self.ready.insert(self.next_seq, response);
                self.next_seq += 1;
                self.outstanding += 1;
            }
        }
        true
    }

    /// Reads as much as backpressure and the per-tick budget allow,
    /// decoding and dispatching complete frames. Returns `false` when
    /// the connection must be closed immediately (I/O error).
    fn handle_read(&mut self, pool: &Pool, rbuf: &mut [u8], frames: &mut Vec<Frame>) -> bool {
        if self.halfopen {
            // Chaos-parked: bytes are consumed and discarded (nothing
            // is ever answered), but a vanished peer is still noticed
            // and reaped instead of leaking the connection.
            loop {
                match self.stream.read(rbuf) {
                    Ok(0) => return false,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return self.fail(e),
                }
            }
        }
        let mut budget = READ_BURST;
        loop {
            if !self.wants_read() || budget == 0 {
                return true;
            }
            match self.stream.read(rbuf) {
                Ok(0) => {
                    // EOF: the client is done sending. Flush a final
                    // unterminated frame, answer what is owed, close.
                    if let Some(frame) = self.decoder.finish() {
                        self.dispatch_frame(frame, pool);
                    }
                    self.draining = true;
                    return true;
                }
                Ok(n) => {
                    self.last_progress = Instant::now();
                    budget = budget.saturating_sub(n);
                    frames.clear();
                    self.decoder.feed_into(&rbuf[..n], frames);
                    for frame in frames.drain(..) {
                        if !self.dispatch_frame(frame, pool) {
                            return true;
                        }
                    }
                    if n < rbuf.len() {
                        return true; // socket very likely drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.fail(e),
            }
        }
    }

    /// Packs every response the order now allows into the write
    /// buffer, applying the response-side chaos points.
    fn pack_ready(&mut self, pool: &Pool) {
        while let Some(mut line) = self.ready.remove(&self.next_flush) {
            self.next_flush += 1;
            self.outstanding -= 1;
            pool.chaos().garble(&mut line);
            if pool.chaos().rst() {
                // Abrupt close halfway through this response's bytes.
                self.rst_at = Some(self.written + self.owed() + line.len() / 2);
            }
            if pool.chaos().dribble() {
                self.dribbling = true;
                self.next_dribble = Instant::now();
            }
            self.wbuf.extend_from_slice(line.as_bytes());
            self.wbuf.push(b'\n');
        }
    }

    /// Writes as much of the buffer as the socket (and the dribble
    /// pacing / rst threshold) accepts. Returns `false` when the
    /// connection must be closed immediately.
    fn handle_write(&mut self, dribble_ms: u64) -> bool {
        loop {
            if self.owed() == 0 {
                self.wbuf.clear();
                self.wpos = 0;
                self.dribbling = false;
                return true;
            }
            let now = Instant::now();
            let mut end = self.wbuf.len();
            if self.dribbling {
                if now < self.next_dribble {
                    return true; // pacing: the poll timeout re-arms us
                }
                end = end.min(self.wpos + 1);
            }
            if let Some(rst) = self.rst_at {
                if self.written >= rst {
                    return self.fail(io::Error::other("chaos: injected connection reset"));
                }
                end = end.min(self.wpos + (rst - self.written));
            }
            match self.stream.write(&self.wbuf[self.wpos..end]) {
                Ok(0) => return self.fail(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.written += n;
                    self.last_progress = now;
                    if self.dribbling {
                        self.next_dribble = now + Duration::from_millis(dribble_ms.max(1));
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.fail(e),
            }
        }
    }
}

/// Registers one new connection: a fresh id, its `active_connections`
/// charge, the reply route back into this loop, and the `halfopen`
/// chaos point.
fn open_conn(
    pool: &Pool,
    stream: Stream,
    tx: &mpsc::Sender<(u64, u64, String)>,
    wake: &Arc<dyn Fn() + Send + Sync>,
) -> Connection {
    let conn = pool.alloc_conn();
    pool.note_conn_open();
    let reply = Reply {
        conn,
        tx: tx.clone(),
        wake: Arc::clone(wake),
    };
    let halfopen = pool.chaos().halfopen();
    Connection::new(stream, conn, reply, pool.max_request_bytes(), halfopen)
}

// ---------------------------------------------------------------------
// The loop itself.

/// Runs the readiness event loop over `ingress` until no more
/// connections can arrive (accept budget exhausted, bridged stream
/// taken, or `shutdown` raised) and every connection has closed. The
/// accept budget preserves the socket transports' historical contract
/// (`None` = accept forever); the *concurrency* cap is the pool's
/// `max_connections`. On return every closed connection's incremental
/// sessions have been swept.
///
/// # Errors
///
/// Returns listener/poll-level I/O errors; per-connection failures
/// close that connection and never stop the loop. A bridged stream's
/// own I/O error (real or injected) is returned once it has closed.
pub(crate) fn run(pool: &Pool, ingress: Ingress, shutdown: Option<&AtomicBool>) -> io::Result<()> {
    let opts = pool.opts();
    let mut waker = Waker::new()?;
    let wake = waker.wake_fn();
    let (done_tx, done_rx) = mpsc::channel::<(u64, u64, String)>();
    let dribble_ms = pool.chaos().config().dribble_ms;

    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let (listener, accept_budget) = match ingress {
        Ingress::Listen(listener, budget) => (Some(listener), budget),
        Ingress::Bridge(stream) => {
            stream.set_nonblocking(true)?;
            let c = open_conn(pool, Stream::Unix(stream), &done_tx, &wake);
            conns.insert(c.conn, c);
            (None, None)
        }
    };
    let mut failure: Option<io::Error> = None;
    let mut accepted = 0u64;
    let mut drain_started = false;
    let mut force_close_at: Option<Instant> = None;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut frames: Vec<Frame> = Vec::new();

    let result = loop {
        let shutting_down = shutdown.is_some_and(|flag| flag.load(Ordering::SeqCst));
        if shutting_down && !drain_started {
            // Stop reading everywhere, give in-flight work the drain
            // deadline, flush what is owed, then leave.
            drain_started = true;
            for c in conns.values_mut() {
                c.draining = true;
            }
            pool.arm_drain_watchdog();
            force_close_at = Some(Instant::now() + opts.drain_deadline + DRAIN_GRACE);
        }
        let budget_left = listener.is_some() && accept_budget.is_none_or(|max| accepted < max);
        if conns.is_empty() && (shutting_down || !budget_left) {
            break Ok(());
        }
        let accepting = budget_left
            && !shutting_down
            && opts.max_connections.is_none_or(|cap| conns.len() < cap);
        let accept_from = listener.filter(|_| accepting);

        // Build the poll set: waker, listener (while accepting), every
        // connection (registered even when paused, so errors/hangups
        // on a backpressured connection are still seen).
        pollfds.clear();
        keys.clear();
        pollfds.push(PollFd {
            fd: waker.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        if let Some(listener) = accept_from {
            pollfds.push(PollFd {
                fd: listener.fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let base = pollfds.len();
        let now = Instant::now();
        let mut timeout = TICK;
        for (&key, c) in &conns {
            let mut events = 0;
            if c.wants_read() || c.halfopen {
                // Half-open connections are polled readable too — not
                // to serve them, but so a disconnecting peer is reaped.
                events |= POLLIN;
            }
            if c.wants_write(now) {
                events |= POLLOUT;
            } else if c.dribbling && c.owed() > 0 {
                // Wake when the next dribbled byte is due, not a full
                // tick later.
                timeout = timeout.min(c.next_dribble.saturating_duration_since(now));
            }
            pollfds.push(PollFd {
                fd: c.stream.fd(),
                events,
                revents: 0,
            });
            keys.push(key);
        }

        if let Err(e) = poll_fds(&mut pollfds, timeout) {
            break Err(e);
        }
        waker.drain();

        // Route completions into their connections, then pack every
        // response arrival order now allows.
        while let Ok((conn, seq, line)) = done_rx.try_recv() {
            if let Some(c) = conns.get_mut(&conn) {
                c.ready.insert(seq, line);
            }
        }
        for c in conns.values_mut() {
            c.pack_ready(pool);
        }

        // Accept burst: everything queued in the backlog, up to the
        // budget and the concurrency cap.
        if let Some(listener) = accept_from {
            if pollfds[1].revents != 0 {
                loop {
                    if accept_budget.is_some_and(|max| accepted >= max)
                        || opts.max_connections.is_some_and(|cap| conns.len() >= cap)
                    {
                        break;
                    }
                    match listener.accept() {
                        Ok(Some(stream)) => {
                            accepted += 1;
                            let c = open_conn(pool, stream, &done_tx, &wake);
                            conns.insert(c.conn, c);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            for (_, c) in conns.drain() {
                                pool.sweep_conn(c.conn, None);
                                pool.note_conn_closed();
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }

        // Per-connection I/O and timers.
        to_close.clear();
        let force_close = force_close_at.is_some_and(|at| Instant::now() >= at);
        for (i, &key) in keys.iter().enumerate() {
            let revents = pollfds[base + i].revents;
            let c = conns.get_mut(&key).expect("keys mirror conns");
            let mut alive = true;
            if revents & POLLIN != 0 {
                alive = c.handle_read(pool, &mut rbuf, &mut frames);
                c.pack_ready(pool);
            }
            if alive && (revents & POLLOUT != 0 || (c.dribbling && c.owed() > 0)) {
                alive = c.handle_write(dribble_ms);
            }
            if alive && revents & (POLLERR | POLLNVAL) != 0 {
                alive = false;
            }
            if alive && revents & POLLHUP != 0 && !c.wants_read() && c.owed() == 0 {
                // The peer hung up on a connection we are not reading
                // (half-open, backpressured or draining) and nothing is
                // owed: reap it now instead of waiting for a timeout.
                alive = false;
            }
            if alive {
                if let Some(limit) = opts.io_timeout {
                    let idle = Instant::now().duration_since(c.last_progress);
                    if idle >= limit {
                        if c.timed_out {
                            alive = false; // grace spent: force close
                        } else {
                            // First firing: count it once, stop
                            // reading, grant one more interval to
                            // flush whatever is still owed.
                            c.timed_out = true;
                            c.draining = true;
                            pool.note_conn_timeout();
                            c.last_progress = Instant::now();
                        }
                    }
                }
            }
            if alive && c.draining && c.flushed() {
                alive = false; // graceful close: everything owed went out
            }
            if alive && force_close {
                alive = false;
            }
            if !alive {
                to_close.push(key);
            }
        }
        for key in &to_close {
            if let Some(mut c) = conns.remove(key) {
                // Fire-and-forget session sweep: pinned lanes are FIFO,
                // so it lands after every request this connection
                // queued; its --max-sessions slots free right after.
                pool.sweep_conn(c.conn, None);
                pool.note_conn_closed();
                if let Some(e) = c.error.take() {
                    failure = Some(e);
                }
                drop(c); // closes the socket
            }
        }
    };
    for (_, c) in conns.drain() {
        pool.sweep_conn(c.conn, None);
        pool.note_conn_closed();
    }
    pool.await_sweeps();
    result?;
    match failure {
        Some(e) if listener.is_none() => Err(e),
        _ => Ok(()),
    }
}

/// Serves `input`/`output` as the event loop's only connection. A
/// detached thread pumps `input` into one end of a socketpair and
/// half-closes it at EOF; it stays detached because `input` may block
/// forever (an idle stdin), and a raised `shutdown` must still drain
/// and return. A scoped thread copies the same end into `output`,
/// flushing after every chunk. The loop serves the other end.
///
/// # Errors
///
/// Returns, in this order of precedence, a write error on `output`, a
/// read error on `input`, and the connection's own error (such as an
/// injected `read_err` fault). A read error ends the input like EOF:
/// what arrived before it is still answered.
pub(crate) fn bridge<R, W>(
    pool: &Pool,
    input: R,
    mut output: W,
    shutdown: Option<&AtomicBool>,
) -> io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    let (server, client) = UnixStream::pair()?;
    let mut pump = client.try_clone()?;
    let (read_err_tx, read_err_rx) = mpsc::channel();
    std::thread::spawn(move || {
        if let Err(e) = pump_input(input, &mut pump) {
            // Sent before the half-close, so it is queued by the time
            // the loop sees EOF and returns.
            let _ = read_err_tx.send(e);
        }
        let _ = pump.shutdown(Shutdown::Write);
    });
    let (served, written) = std::thread::scope(|scope| {
        let out = scope.spawn(|| pump_output(&client, &mut output));
        let served = run(pool, Ingress::Bridge(server), shutdown);
        (served, out.join().expect("output pump never panics"))
    });
    written?;
    if let Ok(e) = read_err_rx.try_recv() {
        return Err(e);
    }
    served
}

/// Copies `input` into the bridge socket until EOF or a read error. A
/// failed socket write means the loop already closed the connection:
/// nothing more can be delivered, which is not an input error.
fn pump_input<R: BufRead>(mut input: R, sock: &mut UnixStream) -> io::Result<()> {
    loop {
        let chunk = match input.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let n = chunk.len();
        if sock.write_all(chunk).is_err() {
            return Ok(());
        }
        input.consume(n);
    }
}

/// Copies responses from the bridge socket into `output`, flushing
/// after every chunk, until the loop closes its end. On a failed write
/// it shuts the socket down both ways, so the loop stops serving a
/// client that can no longer be answered.
fn pump_output<W: Write>(mut sock: &UnixStream, output: &mut W) -> io::Result<()> {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match sock.read(&mut buf) {
            // The loop closing its end with input still unread (drain,
            // read fault, timeout) reads as a reset once every response
            // it wrote has been consumed: the same end of stream.
            Ok(0) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Err(e) = output.write_all(&buf[..n]).and_then(|()| output.flush()) {
            let _ = sock.shutdown(Shutdown::Both);
            return Err(e);
        }
    }
}

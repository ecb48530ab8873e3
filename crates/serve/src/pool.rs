//! The persistent warm-pool request loop.
//!
//! A [`Pool`] owns a fixed set of worker threads — each holding one warm
//! [`Workspace`] (arena + pre-sized queues + open sessions) for its
//! whole lifetime — and any number of connections can feed it
//! concurrently through the `reactor` readiness event
//! loop: the socket transports ([`serve_tcp`](crate::serve_tcp)) run
//! one per accepted client, stdin/stdout ([`serve`](crate::serve)) runs
//! one bridged connection. Request failures (unreadable files, parse
//! errors, even panicking handlers) are isolated to their response
//! line; the pool keeps serving. Every workspace runs the wide-kernel
//! backend the CPU picks ([`KernelBackend::detect`]), which the `stats`
//! op reports.
//!
//! Two dispatch lanes feed the workers:
//!
//! * the **shared lane** — ordinary requests, claimed dynamically, so a
//!   slow analysis on one worker never idles the others;
//! * the **pinned lanes** — one FIFO per worker. Every request naming
//!   an incremental session (`session.open`/`edit`/`close`) is pinned
//!   to the worker `hash(connection, name)` selects, so a session's
//!   whole life executes in request order against one workspace's warm
//!   state — no cross-worker state handoff, no reordering of edits.
//!
//! Accepted lines enter through `Pool::dispatch_line`; each finished
//! job's response goes back over its `Reply` to the event loop, which
//! reorders completions into request order per connection.
//!
//! # Hardening
//!
//! Every request carries a [`CancelToken`] built at arrival: its
//! deadline is the request's `deadline_ms` (or the pool's default), and
//! it belongs to the pool-wide *drain group*, so one flag flip cancels
//! everything queued and in flight. The compute kernels poll the token
//! cooperatively and abort with structured progress, which the worker
//! renders as a `deadline_exceeded`/`cancelled` coded response.
//!
//! Admission control bounds the dispatch queues: past `max_pending`, a
//! request is answered `overloaded` (with the depth and a retry hint)
//! without ever reaching a worker. Request lines are read under a byte
//! cap — an oversized line is skipped in bounded chunks and answered
//! `request_too_large`.
//!
//! When a shutdown flag is raised, the event loop stops accepting, and
//! a detached watchdog gives in-flight work `drain_deadline` to finish
//! before cancelling the stragglers through the drain group.
//!
//! Workers run under supervision: a panic that escapes the per-request
//! isolation boundary (a chaos `kill`, a bug in the dispatch loop) is
//! caught, the in-flight request is answered with a structured
//! `worker_lost` error, the dead workspace's session slots are
//! released, and the worker respawns with a fresh [`Workspace`] — the
//! pool self-heals instead of shrinking.
//!
//! The [`chaos`](crate::chaos) fault points (worker panics and kills,
//! injected delays, garbled response lines, refused reads, connection
//! resets, dribbled writes) are threaded through this module and the
//! reactor so soak tests can prove all of the above under fire.

use std::collections::VecDeque;
#[cfg(unix)]
use std::io::{self, BufRead, Write};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsg_core::analysis::wide::KernelBackend;
use tsg_sim::{CancelKind, CancelToken};

use crate::chaos::{Chaos, ChaosConfig};
use crate::json::Json;
use crate::ops::{AnalyzeOptions, Objective, OpError, Workspace};
use crate::protocol::{self, Command, Request};

/// How often the drain watchdog re-checks for quiescence.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// Configuration of a serve session.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker threads (`None` = all cores), resolved by
    /// [`ServeOptions::worker_threads`].
    pub threads: Option<usize>,
    /// Pool-wide cap on concurrently open incremental sessions (`None`
    /// = unbounded). Each open session pins its graph, its analysis and
    /// a two-row lane window to a worker for its whole life, so a long-lived service should
    /// bound them: a `session.open` beyond the cap is answered with a
    /// structured `ok: false` error instead of growing worker memory,
    /// and the slot frees on `session.close` or disconnect.
    pub max_sessions: Option<u64>,
    /// Pool-wide cap on queued-but-unclaimed requests (`None` =
    /// unbounded). Past it, new requests are answered `overloaded`
    /// without reaching a worker (`--max-pending`).
    pub max_pending: Option<usize>,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default; `--default-deadline`).
    pub default_deadline: Option<Duration>,
    /// How long a graceful shutdown lets in-flight work finish before
    /// cancelling the stragglers (`--drain-deadline`).
    pub drain_deadline: Duration,
    /// Idle/progress timeout applied to every connection — sockets and
    /// stdio alike — so a stalled client cannot hold it forever (`None`
    /// = never time out; `--io-timeout`).
    pub io_timeout: Option<Duration>,
    /// Cap on one request line's byte length; longer lines are skipped
    /// and answered `request_too_large` (`--max-request-bytes`).
    pub max_request_bytes: usize,
    /// Cap on concurrently open multiplexed connections (`None` =
    /// unbounded). At the cap the event loop stops polling the
    /// listener, so further clients wait in the OS accept backlog until
    /// a slot frees (`--max-connections`).
    pub max_connections: Option<usize>,
    /// Fault-injection config, installed as given (`--chaos`).
    pub chaos: ChaosConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: None,
            max_sessions: None,
            max_pending: None,
            default_deadline: None,
            drain_deadline: Duration::from_secs(5),
            io_timeout: None,
            max_request_bytes: 1024 * 1024,
            max_connections: None,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeOptions {
    /// The largest `--threads N` [`parse_threads`](Self::parse_threads)
    /// accepts. The pool spawns every worker up front, so an unbounded
    /// count would ask the OS for that many threads at once.
    pub const MAX_THREADS: usize = 1024;

    /// The pool-sizing rule: an explicit `threads` (a `--threads N`
    /// flag) wins, otherwise the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is `Some(0)`.
    pub fn worker_threads(&self) -> usize {
        match self.threads {
            Some(n) => {
                assert!(n >= 1, "a serve pool needs at least one worker thread");
                n
            }
            None => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Parses the value of a `--threads N` flag.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the value is missing, not an
    /// integer, zero, or above [`MAX_THREADS`](Self::MAX_THREADS).
    pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
        let threads = value
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| "--threads needs a positive integer".to_owned())?;
        if threads > Self::MAX_THREADS {
            return Err(format!(
                "--threads takes at most {} worker threads",
                Self::MAX_THREADS
            ));
        }
        Ok(threads)
    }
}

/// Counters of a pool (or a finished serve run). Every request ends in
/// exactly one of `served` or `failed`; the more specific counters
/// break `failed` (and connection endings) down by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with `ok: true`.
    pub served: u64,
    /// Requests answered with `ok: false`.
    pub failed: u64,
    /// Workers the pool ran.
    pub threads: usize,
    /// Requests currently queued but not yet claimed by a worker.
    pub queue_depth: usize,
    /// Requests answered `overloaded` at admission.
    pub rejected_overloaded: u64,
    /// Requests whose deadline fired mid-compute.
    pub deadline_exceeded: u64,
    /// Requests cancelled explicitly (drain or client cancel).
    pub cancelled: u64,
    /// Connections ended by the idle/progress timeout (`--io-timeout`).
    pub timed_out_connections: u64,
    /// Requests still queued or in flight when a drain deadline
    /// cancelled them.
    pub drained_in_flight: u64,
    /// Requests answered `worker_lost` because the worker executing
    /// them died outside the per-request isolation boundary.
    pub worker_lost: u64,
    /// Workers respawned with a fresh workspace after a death.
    pub worker_respawns: u64,
    /// Connections (protocol sessions) open right now.
    pub active_connections: usize,
    /// Requests that carried a scenario sweep (corners, samples, or a
    /// `tau-p95` explore objective).
    pub scenario_requests: u64,
    /// Scenarios those requests asked for (one analysis each), summed.
    pub scenario_lanes: u64,
}

/// What a queued job carries.
enum JobPayload {
    /// One request line, already parsed by the dispatching session.
    Request {
        /// The protocol session (connection) the request arrived on.
        conn: u64,
        /// The parse outcome; errors become `ok: false` responses.
        /// Boxed: a parsed request dwarfs the housekeeping variant.
        parsed: Box<Result<Request, (Json, String)>>,
        /// The request's cancel token — deadline armed at arrival, in
        /// the pool's drain group.
        token: CancelToken,
    },
    /// Housekeeping broadcast: a connection ended, drop its sessions.
    CloseSessions {
        /// The ended connection.
        conn: u64,
    },
}

/// Where a finished job's response line goes back to: `(conn, seq,
/// line)` routed to the event loop's connection state machine, plus a
/// wake callback so the loop's `poll` returns and packs the response
/// immediately.
#[derive(Clone)]
pub(crate) struct Reply {
    pub(crate) conn: u64,
    pub(crate) tx: mpsc::Sender<(u64, u64, String)>,
    pub(crate) wake: Arc<dyn Fn() + Send + Sync>,
}

impl Reply {
    /// Delivers one response line; a dead receiver discards it.
    fn send(&self, seq: u64, line: String) {
        if self.tx.send((self.conn, seq, line)).is_ok() {
            (self.wake)();
        }
    }
}

/// What supervision needs to answer a request whose worker died
/// executing it: the request id and where the `worker_lost` response
/// goes.
struct LostJob {
    seq: u64,
    id: Json,
    reply: Option<Reply>,
}

/// Outcome of [`Pool::dispatch_line`].
pub(crate) enum Dispatch {
    /// Blank or comment line: no request, no sequence number consumed.
    Skipped,
    /// Answered at admission without reaching a worker; the response
    /// line is returned here, already counted into the stats.
    Rejected(String),
    /// Accepted and queued; the response will arrive on the reply.
    Submitted,
}

/// One queued unit of work, tagged with its per-connection arrival
/// order and where its response (if any) goes back.
struct Job {
    seq: u64,
    payload: JobPayload,
    reply: Option<Reply>,
}

/// The two dispatch lanes; see the module docs.
struct JobQueues {
    shared: VecDeque<Job>,
    pinned: Vec<VecDeque<Job>>,
    closed: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queues: Mutex<JobQueues>,
    available: Condvar,
    served: AtomicU64,
    failed: AtomicU64,
    threads: usize,
    next_conn: AtomicU64,
    /// Incremental sessions currently open across every worker.
    open_sessions: AtomicU64,
    /// Cap on `open_sessions` (`None` = unbounded).
    max_sessions: Option<u64>,
    /// Request jobs queued but not yet claimed by a worker.
    pending: AtomicU64,
    /// Request jobs a worker is executing right now.
    in_flight: AtomicU64,
    /// Cap on `pending` (`None` = unbounded).
    max_pending: Option<usize>,
    /// Deadline for requests without their own `deadline_ms`.
    default_deadline: Option<Duration>,
    /// Grace period a drain gives in-flight work.
    drain_deadline: Duration,
    /// Byte cap on one request line.
    max_request_bytes: usize,
    /// The drain group every request token joins: one flip cancels
    /// everything queued and in flight.
    drain: Arc<AtomicBool>,
    /// Fault-injection runtime.
    chaos: Chaos,
    /// Requests answered `overloaded` at admission.
    rejected_overloaded: AtomicU64,
    /// Requests whose deadline fired mid-compute.
    deadline_exceeded: AtomicU64,
    /// Requests cancelled explicitly.
    cancelled: AtomicU64,
    /// Connections ended by the idle/progress timeout.
    timed_out_connections: AtomicU64,
    /// Requests cancelled by a drain deadline.
    drained_in_flight: AtomicU64,
    /// Requests answered `worker_lost` because their worker died.
    worker_lost: AtomicU64,
    /// Workers respawned after a death.
    worker_respawns: AtomicU64,
    /// Connections (protocol sessions) open right now.
    active_connections: AtomicU64,
    /// Per-worker: the request executing right now, stashed so
    /// supervision can answer it if the worker dies mid-request.
    current_jobs: Vec<Mutex<Option<LostJob>>>,
    /// Per-worker gauge of open incremental sessions, so a dead
    /// worker's share can be released from `open_sessions`.
    worker_sessions: Vec<AtomicU64>,
    /// Requests that carried a scenario sweep.
    scenario_requests: AtomicU64,
    /// Scenarios those requests asked for (one analysis each), summed.
    scenario_lanes: AtomicU64,
}

impl PoolShared {
    /// Charges one scenario-sweeping request of `lanes` scenarios into the
    /// scenario counters (no-op for nominal-only requests).
    fn note_scenarios(&self, lanes: usize) {
        if lanes > 0 {
            self.scenario_requests.fetch_add(1, Ordering::SeqCst);
            self.scenario_lanes
                .fetch_add(lanes as u64, Ordering::SeqCst);
        }
    }
}

/// Scenarios an `analyze` request's options ask for (0 = nominal-only).
fn scenario_lanes_of(opts: &AnalyzeOptions) -> usize {
    if opts.corners.is_empty() {
        opts.samples
    } else {
        opts.corners.len()
    }
}

impl PoolShared {
    /// Cancels everything queued and in flight through the drain group.
    /// Idempotent: only the first call charges `drained_in_flight`.
    fn cancel_in_flight(&self) {
        if !self.drain.swap(true, Ordering::SeqCst) {
            let stragglers =
                self.in_flight.load(Ordering::SeqCst) + self.pending.load(Ordering::SeqCst);
            self.drained_in_flight
                .fetch_add(stragglers, Ordering::SeqCst);
        }
    }
}

/// Snapshot of a pool's counters.
fn stats_of(shared: &PoolShared) -> ServeStats {
    ServeStats {
        served: shared.served.load(Ordering::SeqCst),
        failed: shared.failed.load(Ordering::SeqCst),
        threads: shared.threads,
        queue_depth: shared.pending.load(Ordering::SeqCst) as usize,
        rejected_overloaded: shared.rejected_overloaded.load(Ordering::SeqCst),
        deadline_exceeded: shared.deadline_exceeded.load(Ordering::SeqCst),
        cancelled: shared.cancelled.load(Ordering::SeqCst),
        timed_out_connections: shared.timed_out_connections.load(Ordering::SeqCst),
        drained_in_flight: shared.drained_in_flight.load(Ordering::SeqCst),
        worker_lost: shared.worker_lost.load(Ordering::SeqCst),
        worker_respawns: shared.worker_respawns.load(Ordering::SeqCst),
        active_connections: shared.active_connections.load(Ordering::SeqCst) as usize,
        scenario_requests: shared.scenario_requests.load(Ordering::SeqCst),
        scenario_lanes: shared.scenario_lanes.load(Ordering::SeqCst),
    }
}

/// A persistent warm worker pool; see the module docs.
///
/// Dropping the pool closes the queues, drains what was accepted and
/// joins the workers.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// The options the pool was built from; the event loop reads its
    /// connection-level knobs (timeouts, caps, drain) from here.
    opts: ServeOptions,
}

impl Pool {
    /// Spawns a pool per `opts`: `opts.threads` workers (`None` = all
    /// cores, via [`ServeOptions::worker_threads`]), each owning one warm
    /// [`Workspace`], with open incremental sessions capped pool-wide by
    /// `opts.max_sessions`.
    pub fn new(opts: &ServeOptions) -> Self {
        let threads = opts.worker_threads();
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(JobQueues {
                shared: VecDeque::new(),
                pinned: (0..threads).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            available: Condvar::new(),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            threads,
            next_conn: AtomicU64::new(0),
            open_sessions: AtomicU64::new(0),
            max_sessions: opts.max_sessions,
            pending: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            max_pending: opts.max_pending,
            default_deadline: opts.default_deadline,
            drain_deadline: opts.drain_deadline,
            max_request_bytes: opts.max_request_bytes,
            drain: Arc::new(AtomicBool::new(false)),
            chaos: Chaos::new(opts.chaos),
            rejected_overloaded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out_connections: AtomicU64::new(0),
            drained_in_flight: AtomicU64::new(0),
            worker_lost: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            current_jobs: (0..threads).map(|_| Mutex::new(None)).collect(),
            worker_sessions: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            scenario_requests: AtomicU64::new(0),
            scenario_lanes: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || supervise(&shared, index))
            })
            .collect();
        Pool {
            shared,
            workers,
            opts: *opts,
        }
    }

    /// The options the pool was built from.
    pub(crate) fn opts(&self) -> &ServeOptions {
        &self.opts
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Pool-wide counters: requests completed so far across every
    /// protocol session this pool served.
    pub fn stats(&self) -> ServeStats {
        stats_of(&self.shared)
    }

    /// Cancels every queued and in-flight request through the drain
    /// group — what the drain watchdog fires when the drain deadline
    /// passes. Idempotent; the pool still serves new requests (their
    /// tokens fire immediately), so this is for shutdown paths.
    pub fn cancel_in_flight(&self) {
        self.shared.cancel_in_flight();
    }

    /// The worker every request naming session `name` on connection
    /// `conn` is pinned to (FNV-1a, stable within the process).
    fn pin_of(&self, conn: u64, name: &str) -> usize {
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ conn.wrapping_mul(FNV_PRIME);
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        (hash % self.shared.threads as u64) as usize
    }

    /// Enqueues a job on the shared lane or a worker's pinned lane.
    fn submit(&self, pin: Option<usize>, job: Job) {
        if matches!(job.payload, JobPayload::Request { .. }) {
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
        }
        let mut queues = self
            .shared
            .queues
            .lock()
            .expect("pool mutex never poisoned");
        match pin {
            Some(worker) => queues.pinned[worker].push_back(job),
            None => queues.shared.push_back(job),
        }
        drop(queues);
        match pin {
            // Only the pinned worker can take it, and the condvar cannot
            // target a thread: wake everyone, the wrong ones re-sleep.
            Some(_) => self.shared.available.notify_all(),
            None => self.shared.available.notify_one(),
        }
    }

    /// Parses and dispatches one raw request line arriving on
    /// connection `conn`: skips blanks and comments, answers
    /// `overloaded` at admission past the pending cap, otherwise arms
    /// the cancel token and queues the job — pinned to a worker when it
    /// names an incremental session.
    pub(crate) fn dispatch_line(&self, conn: u64, seq: u64, line: &str, reply: &Reply) -> Dispatch {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Dispatch::Skipped;
        }
        let shared = &self.shared;
        let parsed = protocol::parse_request(trimmed);
        // Admission control: past the pending cap, answer `overloaded`
        // here — the job never reaches a worker, so a flooded pool
        // stays responsive.
        if let Some(cap) = shared.max_pending {
            let depth = shared.pending.load(Ordering::SeqCst) as usize;
            if depth >= cap {
                let id = match &parsed {
                    Ok(request) => request.id.clone(),
                    Err((id, _)) => id.clone(),
                };
                shared.rejected_overloaded.fetch_add(1, Ordering::SeqCst);
                shared.failed.fetch_add(1, Ordering::SeqCst);
                let retry_ms = 50 * (depth as u64 / shared.threads.max(1) as u64 + 1);
                return Dispatch::Rejected(protocol::overloaded_response(&id, depth, retry_ms));
            }
        }
        // The cancel token arms at arrival, so queue wait counts
        // against the deadline, and joins the drain group, so a drain
        // flip reaches queued work too.
        let deadline = parsed
            .as_ref()
            .ok()
            .and_then(|request| request.deadline)
            .or(shared.default_deadline);
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        }
        .in_group(&shared.drain);
        let pin = parsed
            .as_ref()
            .ok()
            .and_then(|request| request.cmd.session_name())
            .map(|name| self.pin_of(conn, name));
        self.submit(
            pin,
            Job {
                seq,
                payload: JobPayload::Request {
                    conn,
                    parsed: Box::new(parsed),
                    token,
                },
                reply: Some(reply.clone()),
            },
        );
        Dispatch::Submitted
    }

    /// Allocates a fresh connection id.
    pub(crate) fn alloc_conn(&self) -> u64 {
        self.shared.next_conn.fetch_add(1, Ordering::SeqCst)
    }

    /// Charges one open connection into `active_connections`.
    pub(crate) fn note_conn_open(&self) {
        self.shared
            .active_connections
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Releases one open connection from `active_connections`.
    pub(crate) fn note_conn_closed(&self) {
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts one connection ended by an idle/progress timeout.
    pub(crate) fn note_conn_timeout(&self) {
        self.shared
            .timed_out_connections
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Counts and renders the response for one oversized request line.
    pub(crate) fn reject_oversized(&self) -> String {
        self.shared.failed.fetch_add(1, Ordering::SeqCst);
        protocol::too_large_response(self.shared.max_request_bytes)
    }

    /// Byte cap on one request line (`--max-request-bytes`).
    pub(crate) fn max_request_bytes(&self) -> usize {
        self.shared.max_request_bytes
    }

    /// The pool's fault-injection runtime.
    pub(crate) fn chaos(&self) -> &Chaos {
        &self.shared.chaos
    }

    /// Sweeps connection `conn`'s incremental sessions from every
    /// worker: the pinned lanes are FIFO, so the sweep runs after every
    /// request the connection queued. Each worker acknowledges on `ack`
    /// when given; `None` is fire-and-forget.
    pub(crate) fn sweep_conn(&self, conn: u64, ack: Option<&Reply>) {
        for worker in 0..self.shared.threads {
            self.submit(
                Some(worker),
                Job {
                    seq: 0,
                    payload: JobPayload::CloseSessions { conn },
                    reply: ack.cloned(),
                },
            );
        }
    }

    /// Arms the drain watchdog: in-flight work gets the pool's drain
    /// deadline to finish before the stragglers are cancelled.
    pub(crate) fn arm_drain_watchdog(&self) {
        arm_drain_watchdog(Arc::clone(&self.shared));
    }

    /// Blocks until every worker has run everything already queued on
    /// its pinned lane — in particular every session sweep submitted so
    /// far, so their `--max-sessions` slots are free when this returns.
    pub(crate) fn await_sweeps(&self) {
        let (tx, rx) = mpsc::channel();
        let ack = Reply {
            conn: 0,
            tx,
            wake: Arc::new(|| {}),
        };
        // A fresh connection id owns no sessions: each worker's sweep of
        // it is a no-op whose acknowledgement marks its lane's position.
        self.sweep_conn(self.alloc_conn(), Some(&ack));
        drop(ack);
        for _ack in rx {}
    }

    /// Runs one protocol session over this pool until `input` reaches
    /// EOF (or `shutdown` is raised), streaming one response line per
    /// request to `output` in request order — bridged into the same
    /// event loop the socket transports use; see [`serve`](crate::serve).
    /// When it returns, the session's incremental sessions are swept and
    /// their `--max-sessions` slots released.
    ///
    /// # Errors
    ///
    /// Returns I/O errors of the input or output stream (and injected
    /// chaos read errors). Request-level failures become `ok: false`
    /// response lines and count into the pool's `failed` counter.
    #[cfg(unix)]
    pub fn serve_stream<R, W>(
        &self,
        input: R,
        output: W,
        shutdown: Option<&AtomicBool>,
    ) -> io::Result<()>
    where
        R: BufRead + Send + 'static,
        W: Write + Send,
    {
        crate::reactor::bridge(self, input, output, shutdown)
    }
}

/// Gives in-flight work until the pool's drain deadline to finish, then
/// cancels the stragglers through the drain group. Detached: returns
/// early (without cancelling anything) once the pool is quiescent.
fn arm_drain_watchdog(shared: Arc<PoolShared>) {
    std::thread::spawn(move || {
        let deadline = Instant::now() + shared.drain_deadline;
        while Instant::now() < deadline {
            if shared.in_flight.load(Ordering::SeqCst) == 0
                && shared.pending.load(Ordering::SeqCst) == 0
            {
                return;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        shared.cancel_in_flight();
    });
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut queues = self
                .shared
                .queues
                .lock()
                .expect("pool mutex never poisoned");
            queues.closed = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker threads never panic");
        }
    }
}

/// Runs `worker_loop` under supervision: a panic that escapes the
/// per-request isolation boundary (a chaos `kill`, a bug in the
/// dispatch loop itself) is caught here, the in-flight request is
/// answered with a structured `worker_lost` error, the dead workspace's
/// open-session slots are released, and the loop re-enters with a fresh
/// [`Workspace`] — the pool self-heals instead of shrinking.
fn supervise(shared: &PoolShared, index: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, index))) {
            Ok(()) => return, // pool closed: clean exit
            Err(_) => {
                let lost = shared.current_jobs[index]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take();
                if let Some(job) = lost {
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    shared.failed.fetch_add(1, Ordering::SeqCst);
                    shared.worker_lost.fetch_add(1, Ordering::SeqCst);
                    if let Some(reply) = &job.reply {
                        reply.send(job.seq, protocol::worker_lost_response(&job.id));
                    }
                }
                // The dead workspace took its open sessions with it:
                // release their slots under the --max-sessions cap.
                let orphaned = shared.worker_sessions[index].swap(0, Ordering::SeqCst);
                shared.open_sessions.fetch_sub(orphaned, Ordering::SeqCst);
                shared.worker_respawns.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// One worker: claims jobs — own pinned lane first, then the shared
/// lane — against its lifelong warm workspace.
fn worker_loop(shared: &PoolShared, index: usize) {
    let mut workspace = Workspace::new();
    loop {
        let job = {
            let mut queues = shared.queues.lock().expect("pool mutex never poisoned");
            loop {
                if let Some(job) = queues.pinned[index].pop_front() {
                    break Some(job);
                }
                if let Some(job) = queues.shared.pop_front() {
                    break Some(job);
                }
                if queues.closed {
                    break None;
                }
                queues = shared
                    .available
                    .wait(queues)
                    .expect("pool mutex never poisoned");
            }
        };
        let Some(job) = job else {
            break; // pool closed and queues drained
        };
        match job.payload {
            JobPayload::CloseSessions { conn } => {
                let swept = workspace.close_conn_sessions(conn);
                shared
                    .open_sessions
                    .fetch_sub(swept as u64, Ordering::SeqCst);
                shared.worker_sessions[index]
                    .store(workspace.open_sessions() as u64, Ordering::SeqCst);
                if let Some(reply) = &job.reply {
                    // Acknowledge so `Pool::await_sweeps` can wait for
                    // the slots to be released.
                    reply.send(job.seq, String::new());
                }
            }
            JobPayload::Request {
                conn,
                parsed,
                token,
            } => {
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                // Stash what supervision needs to answer this request
                // should the worker die executing it.
                let id = match parsed.as_ref() {
                    Ok(request) => request.id.clone(),
                    Err((id, _)) => id.clone(),
                };
                *shared.current_jobs[index]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(LostJob {
                    seq: job.seq,
                    id,
                    reply: job.reply.clone(),
                });
                // The kill fault point fires here, *outside* `isolate`,
                // so it takes the whole worker down and supervision —
                // not the per-request catch — must answer the request.
                shared.chaos.kill_worker();
                let response = handle(conn, *parsed, &token, &mut workspace, shared);
                shared.worker_sessions[index]
                    .store(workspace.open_sessions() as u64, Ordering::SeqCst);
                *shared.current_jobs[index]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                if let Some(reply) = &job.reply {
                    // A closed connection just discards the response;
                    // the pool keeps serving the others.
                    reply.send(job.seq, response);
                }
            }
        }
    }
}

/// Executes one parsed request against a worker's warm workspace and
/// renders its response. Never panics: handler panics (including
/// injected chaos panics) are caught and reported as that request's
/// failure.
fn handle(
    conn: u64,
    parsed: Result<Request, (Json, String)>,
    token: &CancelToken,
    workspace: &mut Workspace,
    shared: &PoolShared,
) -> String {
    let Request { id, cmd, .. } = match parsed {
        Ok(req) => req,
        Err((id, msg)) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            return protocol::err_response(&id, &msg);
        }
    };
    let respond = |result: Result<String, OpError>| match result {
        Ok(output) => {
            shared.served.fetch_add(1, Ordering::SeqCst);
            protocol::ok_response(&id, &output)
        }
        Err(OpError::Msg(e)) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            protocol::err_response(&id, &e)
        }
        Err(OpError::Cancelled { kind, done, total }) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            let (code, counter) = match kind {
                CancelKind::Deadline => ("deadline_exceeded", &shared.deadline_exceeded),
                CancelKind::Explicit => ("cancelled", &shared.cancelled),
            };
            counter.fetch_add(1, Ordering::SeqCst);
            protocol::coded_err_response(
                &id,
                code,
                &format!("{kind} after {done} of {total} work unit(s)"),
                &[("done", Json::from(done)), ("total", Json::from(total))],
            )
        }
    };
    // The delay/panic fault points fire before the command dispatch,
    // inside the same isolation boundary as a real handler panic.
    if let Err(injected) = isolate(|| {
        shared.chaos.before_request();
        Ok(String::new())
    }) {
        return respond(Err(injected));
    }
    let cancel = Some(token);
    match cmd {
        Command::Stats => {
            // Snapshot first so the stats request does not count itself.
            let response =
                protocol::stats_response(&id, &stats_of(shared), KernelBackend::detect().name());
            shared.served.fetch_add(1, Ordering::SeqCst);
            response
        }
        Command::Analyze { source, opts } => {
            shared.note_scenarios(scenario_lanes_of(&opts));
            respond(isolate(|| workspace.analyze(&source, &opts, cancel)))
        }
        Command::Sim { source, opts } => {
            respond(isolate(|| workspace.simulate(&source, &opts, cancel)))
        }
        Command::SessionOpen {
            session,
            source,
            default_delay,
        } => {
            // Reserve a slot against the pool-wide cap before doing any
            // work; release it when the open does not go through.
            if let Err(e) = claim_session_slot(shared) {
                return respond(Err(OpError::Msg(e)));
            }
            let result =
                isolate(|| workspace.session_open(conn, &session, &source, default_delay, cancel));
            if result.is_err() {
                shared.open_sessions.fetch_sub(1, Ordering::SeqCst);
            }
            respond(result)
        }
        Command::SessionEdit { session, edits } => respond(isolate(|| {
            workspace.session_edit(conn, &session, &edits, cancel)
        })),
        Command::SessionExplore {
            session,
            moves,
            seed,
            objective,
            samples,
        } => {
            if objective == Objective::TauP95 {
                shared.note_scenarios(samples.max(1));
            }
            respond(isolate(|| {
                workspace.session_explore(conn, &session, moves, seed, objective, samples, cancel)
            }))
        }
        Command::SessionClose { session } => {
            let result = isolate(|| workspace.session_close(conn, &session));
            if result.is_ok() {
                shared.open_sessions.fetch_sub(1, Ordering::SeqCst);
            }
            respond(result)
        }
    }
}

/// Reserves one open-session slot against the pool-wide cap, or
/// explains why it cannot — the structured error a `session.open`
/// beyond `--max-sessions` is answered with. Lock-free: concurrent
/// opens race on a compare-exchange, so the cap is never oversubscribed.
fn claim_session_slot(shared: &PoolShared) -> Result<(), String> {
    loop {
        let open = shared.open_sessions.load(Ordering::SeqCst);
        if let Some(cap) = shared.max_sessions {
            if open >= cap {
                return Err(format!(
                    "session limit reached: {open} of {cap} session(s) open \
                     (each holds its graph, its last analysis and an O(b·n) two-row window); \
                     close one or raise --max-sessions"
                ));
            }
        }
        if shared
            .open_sessions
            .compare_exchange(open, open + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return Ok(());
        }
    }
}

/// Runs a request handler, converting a panic into a per-request error
/// so one poisoned input cannot take the worker (or the pool) down.
fn isolate<F>(f: F) -> Result<String, OpError>
where
    F: FnOnce() -> Result<String, OpError>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            Err(OpError::Msg(format!(
                "internal error: request handler panicked: {msg}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads(threads: Option<usize>) -> ServeOptions {
        ServeOptions {
            threads,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn sized_resolves_explicit_and_default() {
        assert_eq!(with_threads(Some(3)).worker_threads(), 3);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(with_threads(None).worker_threads(), cores);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        let _ = with_threads(Some(0)).worker_threads();
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(ServeOptions::parse_threads(Some("4")), Ok(4));
        assert!(ServeOptions::parse_threads(Some("0")).is_err());
        assert!(ServeOptions::parse_threads(Some("four")).is_err());
        assert!(ServeOptions::parse_threads(Some("-2")).is_err());
        assert!(ServeOptions::parse_threads(None).is_err());
        // The pool spawns every worker up front: the count is capped.
        let max = ServeOptions::MAX_THREADS;
        assert_eq!(ServeOptions::parse_threads(Some(&max.to_string())), Ok(max));
        for too_many in [max + 1, 1_000_000, usize::MAX] {
            let err = ServeOptions::parse_threads(Some(&too_many.to_string())).unwrap_err();
            assert_eq!(err, format!("--threads takes at most {max} worker threads"));
        }
    }
}

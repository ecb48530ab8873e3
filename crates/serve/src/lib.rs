//! # tsg-serve — the long-running warm-pool analysis service
//!
//! The paper's pitch is timing simulation as *the* workhorse for
//! performance analysis — which only pays off when many analyses can be
//! issued cheaply against the same warm engine (the way Simopt drives
//! repeated behavioural simulations from inside a CAD flow). This crate
//! turns the workspace from a one-shot batch tool into that engine:
//!
//! * [`protocol`] — newline-delimited JSON requests (`analyze`, `sim`,
//!   `stats`, `session.open`/`edit`/`explore`/`close`), each carrying its
//!   specification inline, with ids echoed into in-order responses;
//! * [`ops`] — the analysis operations themselves, shared with the
//!   one-shot CLI so a served response is byte-identical to the
//!   equivalent `tsg analyze` / `tsg sim` invocation, plus the warm
//!   per-worker [`Workspace`] (one [`AnalysisArena`], pre-sized event
//!   queues and the open [`AnalysisSession`]s — no per-request
//!   allocation on the hot path after warm-up);
//! * [`pool`] — the persistent worker [`Pool`]: dynamic claiming on the
//!   shared lane, per-worker pinned lanes that keep each incremental
//!   session's edits in request order on one workspace, per-request
//!   error isolation (including caught panics), ordered streaming
//!   responses, graceful EOF/SIGINT shutdown, and served/failed
//!   counters surfaced by the `stats` request;
//! * transports — stdin/stdout ([`serve`]), TCP ([`serve_tcp`]) and Unix
//!   sockets ([`serve_unix`]), all driven by the one `reactor`
//!   readiness event loop — one thread, `poll(2)`, nonblocking sockets,
//!   bounded per-connection buffers — so thousands of idle, half-open or
//!   dribbling clients cost buffers, not threads, and the worker pool
//!   stays available for well-behaved requests. stdin/stdout reaches the
//!   loop through a socketpair bridge, so it shares the sockets'
//!   framing, ordering, backpressure, drain and chaos code. The
//!   transports are Unix-only.
//!
//! [`AnalysisSession`]: tsg_core::analysis::session::AnalysisSession
//!
//! [`AnalysisArena`]: tsg_core::analysis::wide::AnalysisArena
//! [`Workspace`]: ops::Workspace
//!
//! ## Example
//!
//! ```
//! use std::io::Cursor;
//! use tsg_serve::{serve, ServeOptions};
//!
//! // In this raw string the `\n` sequences are JSON string escapes: the
//! // inline `.g` text travels on one protocol line.
//! let script = concat!(
//!     r#"{"id": 1, "cmd": "sim", "name": "t.g", "periods": 1,"#,
//!     r#" "text": ".model t\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n.end\n"}"#,
//!     "\n",
//!     r#"{"id": 2, "cmd": "stats"}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! let opts = ServeOptions {
//!     threads: Some(1),
//!     ..ServeOptions::default()
//! };
//! let stats = serve(Cursor::new(script), &mut out, &opts, None).unwrap();
//! assert_eq!(stats.served, 2);
//! let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
//! assert!(lines[0].starts_with(r#"{"id":1,"ok":true"#));
//! assert!(lines[1].contains(r#""served":1"#));
//! ```

use std::io::{self, BufRead, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod chaos;
pub mod json;
pub mod ops;
pub mod pool;
pub mod protocol;
#[cfg(unix)]
mod reactor;

pub use chaos::ChaosConfig;
pub use pool::{Pool, ServeOptions, ServeStats};

/// Runs a single protocol session over a freshly spawned pool — the
/// stdin/stdout serve mode, and the entry point in-memory tests drive.
///
/// `input` is pumped into one end of a socketpair by a detached thread
/// (so a raised `shutdown` flag drains and returns even while `input`
/// blocks forever), the event loop serves the other end as its only
/// connection, and a scoped thread copies responses to `output`,
/// flushing after every chunk. Blank lines and `#` comment lines are
/// skipped, so request scripts can be annotated.
///
/// # Errors
///
/// Returns I/O errors of the input or output stream; request-level
/// failures become `ok: false` response lines and count into
/// [`ServeStats::failed`].
#[cfg(unix)]
pub fn serve<R, W>(
    input: R,
    output: W,
    opts: &ServeOptions,
    shutdown: Option<&AtomicBool>,
) -> io::Result<ServeStats>
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    let pool = Pool::new(opts);
    pool.serve_stream(input, output, shutdown)?;
    Ok(pool.stats())
}

/// Serves protocol sessions over TCP: all connections share **one**
/// warm worker [`Pool`] (returned stats are the pool's aggregate
/// counters), multiplexed by the readiness event loop — thousands of
/// concurrent clients on one thread, bounded buffers per connection,
/// `opts.max_connections` capping the live set.
///
/// The loop exits when `shutdown` is raised or, if `accept_budget` is
/// set, after accepting that many connections — without a budget and
/// with no shutdown flag it serves forever. Open connections are
/// drained before the call returns. Per-connection I/O failures (a
/// client vanishing mid-response) close that connection and do not
/// stop the listener or the pool.
///
/// # Errors
///
/// Returns listener-level I/O errors (binding problems surface in the
/// caller; accept errors other than would-block are fatal).
#[cfg(unix)]
pub fn serve_tcp(
    listener: TcpListener,
    opts: &ServeOptions,
    shutdown: Option<&AtomicBool>,
    accept_budget: Option<u64>,
) -> io::Result<ServeStats> {
    listener.set_nonblocking(true)?;
    let pool = Pool::new(opts);
    let listener = reactor::Listener::Tcp(listener);
    reactor::run(
        &pool,
        reactor::Ingress::Listen(&listener, accept_budget),
        shutdown,
    )?;
    Ok(pool.stats())
}

/// Serves protocol sessions over a Unix socket — same multiplexed
/// shared-pool loop as [`serve_tcp`].
///
/// # Errors
///
/// Returns listener-level I/O errors.
#[cfg(unix)]
pub fn serve_unix(
    listener: UnixListener,
    opts: &ServeOptions,
    shutdown: Option<&AtomicBool>,
    accept_budget: Option<u64>,
) -> io::Result<ServeStats> {
    listener.set_nonblocking(true)?;
    let pool = Pool::new(opts);
    let listener = reactor::Listener::Unix(listener);
    reactor::run(
        &pool,
        reactor::Ingress::Listen(&listener, accept_budget),
        shutdown,
    )?;
    Ok(pool.stats())
}

/// Installs a SIGINT handler that raises (and returns) a global
/// shutdown flag instead of killing the process: in-flight requests
/// finish and responses flush before the serve loop exits. A second
/// Ctrl-C restores the default disposition, so it kills as usual.
///
/// On non-Unix platforms this returns a flag nothing ever raises.
pub fn install_sigint_flag() -> &'static AtomicBool {
    static TRIGGERED: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIG_DFL: usize = 0;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_sigint(_: i32) {
            TRIGGERED.store(true, Ordering::SeqCst);
            // Graceful once: a second Ctrl-C gets the default (kill)
            // behaviour back. `signal` is async-signal-safe.
            unsafe { signal(SIGINT, SIG_DFL) };
        }
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
    }
    &TRIGGERED
}

// Integration-style pool tests live in `tests/`; unit tests for json,
// protocol and ops sit in their modules.

//! Fault injection for the serve tier.
//!
//! The pool carries a [`Chaos`] runtime built from the [`ChaosConfig`]
//! of its `ServeOptions`, installed as given: `tsg serve --chaos SPEC`
//! arms it, and nothing in the environment does. Each fault point fires deterministically on
//! every Nth crossing of its site, so soak tests can predict exactly
//! how many faults a request sequence injects:
//!
//! * `panic=N`  — the worker panics on every Nth request *before*
//!   executing it (exercises the `isolate` catch-unwind path);
//! * `delay=N:MS` — every Nth request sleeps `MS` milliseconds before
//!   executing (exercises deadlines, admission control and drain);
//! * `garble=N` — every Nth response line is truncated and corrupted
//!   before the writer sends it (exercises client-side framing);
//! * `read_err=N` — every Nth request line decoded from a connection is
//!   refused with an I/O error: reading stops, the answers already owed
//!   are flushed, then the connection closes (exercises the reader
//!   error path; over stdio, `serve` returns the error);
//! * `kill=N` — every Nth request takes its whole worker down *outside*
//!   the per-request isolation boundary (exercises worker supervision:
//!   the request is answered `worker_lost` and the worker respawns with
//!   a fresh workspace);
//! * `rst=N` — every Nth response's connection is closed abruptly
//!   halfway through the response bytes (exercises client reconnect);
//! * `dribble=N:MS` — every Nth response is written one byte per `MS`
//!   milliseconds (exercises slow-client isolation: the dribbled
//!   connection must cost a buffer, never a worker or the event loop);
//! * `halfopen=N` — every Nth accepted connection is ignored: its
//!   bytes are discarded and nothing is ever answered (exercises
//!   parked-connection reaping).
//!
//! All counters are per-pool, shared across workers and connections.
//! `N = 0` (the default) disables a point. Parsing is forgiving:
//! malformed `--chaos` clauses warn on stderr and fall back to the
//! builder value rather than refusing to start.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which faults to inject, and how often. All zero (the default) means
/// no injection; the chaos runtime is then a handful of never-taken
/// branches on cold paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Panic inside the worker on every Nth request (0 = never).
    pub panic_every: u32,
    /// Sleep before executing every Nth request (0 = never).
    pub delay_every: u32,
    /// How long the injected delay sleeps, in milliseconds.
    pub delay_ms: u64,
    /// Truncate-and-corrupt every Nth response line (0 = never).
    pub garble_every: u32,
    /// Refuse every Nth decoded request line with an I/O error that
    /// ends its connection (0 = never).
    pub read_err_every: u32,
    /// Kill the whole worker on every Nth request, outside the
    /// per-request isolation boundary (0 = never).
    pub kill_every: u32,
    /// Abruptly close the connection halfway through every Nth
    /// response (0 = never).
    pub rst_every: u32,
    /// Write every Nth response one byte at a time (0 = never).
    pub dribble_every: u32,
    /// Pacing between dribbled bytes, in milliseconds.
    pub dribble_ms: u64,
    /// Never read every Nth accepted connection (0 = never).
    pub halfopen_every: u32,
}

impl ChaosConfig {
    /// True when at least one fault point is armed.
    pub fn is_active(&self) -> bool {
        self.panic_every > 0
            || self.delay_every > 0
            || self.garble_every > 0
            || self.read_err_every > 0
            || self.kill_every > 0
            || self.rst_every > 0
            || self.dribble_every > 0
            || self.halfopen_every > 0
    }

    /// Applies `--chaos` clauses (`panic=20,delay=7:15,garble=11,
    /// read_err=31`) over `self`. Unknown or malformed clauses leave
    /// the builder value in place and warn on stderr.
    pub fn with_spec(mut self, spec: &str) -> Self {
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let Some((key, value)) = clause.split_once('=') else {
                eprintln!("tsg serve: ignoring malformed --chaos clause {clause:?}");
                continue;
            };
            let parsed = match key.trim() {
                "panic" => value.trim().parse().map(|n| self.panic_every = n),
                "garble" => value.trim().parse().map(|n| self.garble_every = n),
                "read_err" => value.trim().parse().map(|n| self.read_err_every = n),
                "kill" => value.trim().parse().map(|n| self.kill_every = n),
                "rst" => value.trim().parse().map(|n| self.rst_every = n),
                "halfopen" => value.trim().parse().map(|n| self.halfopen_every = n),
                "delay" => {
                    let (every, ms) = value.split_once(':').unwrap_or((value, "0"));
                    every.trim().parse().and_then(|n: u32| {
                        ms.trim().parse().map(|ms| {
                            self.delay_every = n;
                            self.delay_ms = ms;
                        })
                    })
                }
                "dribble" => {
                    let (every, ms) = value.split_once(':').unwrap_or((value, "1"));
                    every.trim().parse().and_then(|n: u32| {
                        ms.trim().parse().map(|ms| {
                            self.dribble_every = n;
                            self.dribble_ms = ms;
                        })
                    })
                }
                _ => {
                    eprintln!("tsg serve: ignoring unknown --chaos clause {clause:?}");
                    continue;
                }
            };
            if parsed.is_err() {
                eprintln!("tsg serve: ignoring malformed --chaos clause {clause:?}");
            }
        }
        self
    }
}

/// The shared chaos runtime: the armed config plus one crossing counter
/// per fault point.
#[derive(Debug, Default)]
pub struct Chaos {
    config: ChaosConfig,
    requests: AtomicU64,
    delays: AtomicU64,
    responses: AtomicU64,
    reads: AtomicU64,
    kills: AtomicU64,
    rsts: AtomicU64,
    dribbles: AtomicU64,
    accepts: AtomicU64,
}

/// True on every `every`th crossing (1-indexed: crossings `every`,
/// `2*every`, ...); never when `every` is 0.
fn fires(counter: &AtomicU64, every: u32) -> bool {
    if every == 0 {
        return false;
    }
    let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
    n.is_multiple_of(u64::from(every))
}

impl Chaos {
    /// A runtime for `config` with all crossing counters at zero.
    pub fn new(config: ChaosConfig) -> Self {
        Chaos {
            config,
            ..Self::default()
        }
    }

    /// The armed configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Call at the top of request execution, inside the panic isolation
    /// boundary: sleeps on every `delay_every`th request and panics on
    /// every `panic_every`th.
    ///
    /// # Panics
    ///
    /// Panics deliberately when the panic fault point fires.
    pub fn before_request(&self) {
        if fires(&self.delays, self.config.delay_every) {
            std::thread::sleep(Duration::from_millis(self.config.delay_ms));
        }
        if fires(&self.requests, self.config.panic_every) {
            panic!("chaos: injected worker panic");
        }
    }

    /// Truncates and corrupts `line` on every `garble_every`th response;
    /// returns whether it fired. The result is deliberately unparseable
    /// (half a JSON document with a flipped byte) so clients must treat
    /// it as a framing error, never as data.
    pub fn garble(&self, line: &mut String) -> bool {
        if !fires(&self.responses, self.config.garble_every) {
            return false;
        }
        let mut cut = line.len() / 2;
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line.truncate(cut);
        line.push('\u{1b}');
        true
    }

    /// True on every `read_err_every`th decoded request line: the
    /// connection refuses it with an injected I/O error and closes once
    /// its owed answers are flushed.
    pub fn fail_read(&self) -> bool {
        fires(&self.reads, self.config.read_err_every)
    }

    /// Call once per request *outside* the per-request isolation
    /// boundary: panics on every `kill_every`th request, taking the
    /// whole worker thread down so supervision must respawn it.
    ///
    /// # Panics
    ///
    /// Panics deliberately when the kill fault point fires.
    pub fn kill_worker(&self) {
        if fires(&self.kills, self.config.kill_every) {
            panic!("chaos: injected worker kill");
        }
    }

    /// True on every `rst_every`th response: the connection is closed
    /// abruptly halfway through the response bytes.
    pub fn rst(&self) -> bool {
        fires(&self.rsts, self.config.rst_every)
    }

    /// True on every `dribble_every`th response: the response is
    /// written one byte per [`ChaosConfig::dribble_ms`] milliseconds.
    pub fn dribble(&self) -> bool {
        fires(&self.dribbles, self.config.dribble_every)
    }

    /// True on every `halfopen_every`th accepted connection: the
    /// server discards its bytes and never answers it.
    pub fn halfopen(&self) -> bool {
        fires(&self.accepts, self.config.halfopen_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let chaos = Chaos::new(ChaosConfig::default());
        assert!(!chaos.config().is_active());
        for _ in 0..100 {
            chaos.before_request();
            assert!(!chaos.fail_read());
            let mut line = String::from("{\"ok\":true}");
            assert!(!chaos.garble(&mut line));
            assert_eq!(line, "{\"ok\":true}");
        }
    }

    #[test]
    fn fault_points_fire_on_every_nth_crossing() {
        let chaos = Chaos::new(ChaosConfig {
            read_err_every: 3,
            garble_every: 2,
            ..ChaosConfig::default()
        });
        let reads: Vec<bool> = (0..6).map(|_| chaos.fail_read()).collect();
        assert_eq!(reads, [false, false, true, false, false, true]);
        let mut line = String::from("{\"id\":1,\"ok\":true}");
        assert!(!chaos.garble(&mut line));
        assert!(chaos.garble(&mut line));
        assert_ne!(line, "{\"id\":1,\"ok\":true}");
        assert!(line.len() < "{\"id\":1,\"ok\":true}".len());
    }

    #[test]
    fn injected_panic_is_catchable() {
        let chaos = Chaos::new(ChaosConfig {
            panic_every: 1,
            ..ChaosConfig::default()
        });
        let caught = std::panic::catch_unwind(|| chaos.before_request());
        assert!(caught.is_err());
    }

    #[test]
    fn spec_overrides_builder_values() {
        let base = ChaosConfig {
            panic_every: 5,
            ..ChaosConfig::default()
        };
        let cfg = base.with_spec(
            "panic=20,delay=7:15,garble=11,read_err=31,kill=13,rst=4,dribble=5:2,halfopen=6",
        );
        assert_eq!(
            cfg,
            ChaosConfig {
                panic_every: 20,
                delay_every: 7,
                delay_ms: 15,
                garble_every: 11,
                read_err_every: 31,
                kill_every: 13,
                rst_every: 4,
                dribble_every: 5,
                dribble_ms: 2,
                halfopen_every: 6,
            }
        );
        assert!(cfg.is_active());
    }

    #[test]
    fn connection_fault_points_fire_on_every_nth_crossing() {
        let chaos = Chaos::new(ChaosConfig {
            rst_every: 2,
            dribble_every: 3,
            dribble_ms: 1,
            halfopen_every: 2,
            ..ChaosConfig::default()
        });
        let rsts: Vec<bool> = (0..4).map(|_| chaos.rst()).collect();
        assert_eq!(rsts, [false, true, false, true]);
        let dribbles: Vec<bool> = (0..6).map(|_| chaos.dribble()).collect();
        assert_eq!(dribbles, [false, false, true, false, false, true]);
        let accepts: Vec<bool> = (0..4).map(|_| chaos.halfopen()).collect();
        assert_eq!(accepts, [false, true, false, true]);
    }

    #[test]
    fn injected_kill_is_catchable_outside_isolation() {
        let chaos = Chaos::new(ChaosConfig {
            kill_every: 2,
            ..ChaosConfig::default()
        });
        chaos.kill_worker();
        let caught = std::panic::catch_unwind(|| chaos.kill_worker());
        assert!(caught.is_err());
    }

    #[test]
    fn dribble_without_pacing_defaults_to_one_ms() {
        let cfg = ChaosConfig::default().with_spec("dribble=9");
        assert_eq!(cfg.dribble_every, 9);
        assert_eq!(cfg.dribble_ms, 1);
    }

    #[test]
    fn malformed_clauses_keep_builder_values() {
        let base = ChaosConfig {
            panic_every: 5,
            delay_every: 2,
            delay_ms: 9,
            ..ChaosConfig::default()
        };
        let cfg = base.with_spec("panic=lots,delay=x:y,nonsense,unknown=3,,garble=4");
        assert_eq!(cfg.panic_every, 5);
        assert_eq!(cfg.delay_every, 2);
        assert_eq!(cfg.delay_ms, 9);
        assert_eq!(cfg.garble_every, 4);
    }
}

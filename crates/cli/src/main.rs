//! `tsg` — command-line performance analyzer for Timed Signal Graphs.
//!
//! ```text
//! tsg analyze FILE [--diagram] [--dot] [--baselines] [--default-delay X]
//! tsg serve [--threads N] [--listen tcp:ADDR|unix:PATH]
//! tsg demo {oscillator|muller5|stack66}
//! ```
//!
//! `.g` files are parsed as Signal Transition Graphs (marked-graph
//! subclass, with the `.delay` timing extension); `.ckt` files are parsed
//! as gate-level netlists, checked for semimodularity, and run through the
//! TRASPEC-style extraction first. The analysis/simulation helpers live
//! in `tsg_serve::ops`, shared with the long-running `tsg serve` mode so
//! served responses are byte-identical to one-shot invocations.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tsg_core::analysis::session::AnalysisSession;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::Corner;
use tsg_core::SignalGraph;
use tsg_serve::json::Json;
use tsg_serve::ops::{self, AnalyzeOptions, EditOp, EditSpec, SimOptions, Source, Workspace};
use tsg_serve::ServeOptions;

const USAGE: &str = "\
tsg — performance analysis based on timing simulation (DAC'94)

USAGE:
    tsg analyze FILE [--diagram] [--dot] [--baselines] [--slack] [--default-delay X]
                     [--corners min,typ,max] [--derate PCT] [--samples K] [--seed S]
    tsg sim FILE.g... [--periods N] [--vcd PATH] [--default-delay X]
    tsg sim FILE.ckt... [--horizon X] [--vcd PATH]
    tsg explore FILE [--edit SRC->DST=DELAY]... [--default-delay X]
                     [--report {text|json}]
                     [--optimize [--moves N] [--seed S] [--samples K]
                                 [--objective {tau|tau-p95}]]
    tsg serve [--threads N] [--max-sessions N] [--max-pending N]
              [--default-deadline MS] [--drain-deadline MS]
              [--io-timeout MS] [--max-request-bytes N]
              [--max-connections N] [--chaos SPEC]
              [--listen tcp:HOST:PORT | --listen unix:PATH]
    tsg ping {tcp:HOST:PORT|unix:PATH} [--count N] [--deadline-ms MS]
             [--retries N] [--max-backoff-ms MS]
    tsg convert FILE --to {g|dot}
    tsg demo {oscillator|muller5|stack66}

FILE formats (by extension):
    .g     Signal Transition Graph (astg dialect, `.delay` extension)
    .ckt   gate-level netlist (extracted via the TRASPEC-style flow;
           `sim` runs the netlist directly through the event-driven
           transport-delay simulator)

`sim` simulates a `.g` graph period by period (a `.ckt` netlist on the
tsg-sim event queue) and prints the transition stream; `--vcd PATH`
additionally dumps a waveform any VCD viewer opens. A `.g` run keeps
one time per event and period and is refused past 2^26 of them.
Several files run one after another, in input order.

`analyze` runs the b border simulations of each analysis — the
nominal one and every scenario's of a --corners or --samples sweep — in
one lockstep pass of the SIMD-friendly wide kernel on one thread. The
CPU picks the wide-kernel backend (AVX-512 where available, else AVX2,
else the portable loop; the `TSG_KERNEL` environment variable forces
one of `portable|avx2|avx512`); all backends are bit-identical.
`--baselines` checks τ against the two exact, polynomial comparators:
Howard's policy iteration and Karp's algorithm.

`analyze --corners min,typ,max` sweeps delay corners, one analysis of
the reweighted graph per corner — every arc derated by `--derate` PCT
(default 10) for `min`, inflated for `max` — and reports τ per corner,
the τ distribution, and per-arc criticality (the fraction of
scenarios in which the arc lies on the critical cycle). `--samples K
--seed S` sweeps K seeded Monte-Carlo delay scenarios instead (each
arc's delay drawn uniformly within ±PCT); sample j of K is
bit-identical regardless of K. Corners win when both are given.

`explore` opens an analysis session on FILE and applies each --edit
(delay reassignment of the arc SRC->DST) in order, re-running the
analysis per edit and reporting the cycle time after each step — the
paper's bottleneck-hunting loop. With
--optimize the session then runs the speculative design-exploration
loop: --moves N candidate edits (delay nudges, arc rewires,
pipeline-stage insertions; default 16) are proposed by a --seed-driven
deterministic generator, each scored by re-analysis against a
snapshot, committed only when it strictly lowers the
--objective, and rolled back otherwise, so the accepted trajectory is
monotone. `--objective tau` (the default) minimises the nominal cycle
time; `--objective tau-p95` enables `--samples K` (default 16) seeded
delay scenarios on the session and minimises the 95th-percentile τ
over them — robust optimization under delay variation.
`--report json` renders the whole trajectory as one JSON object per
line (per-edit/per-move tau, critical cycle, rows simulated) for
downstream tooling. In every mode the final state is verified
bit-identical to a from-scratch analysis.

`serve` runs the long-running analysis service: newline-delimited JSON
requests (analyze/sim/stats/session.open/session.edit/session.explore/
session.close) on stdin — or a TCP/Unix socket with --listen — answered
in request order by a persistent warm worker pool (`--threads N`,
default: all cores, at most 1024). A request carries its specification
as inline `text`; the server reads no files. One readiness event
loop serves every transport: stdin/stdout is bridged into it as a
single connection, and socket clients are multiplexed onto the one
shared pool (thousands of idle or slow clients cost buffers, not
threads; `--max-connections N` caps the live set, excess clients wait
in the OS accept backlog). Unix only. Workers are supervised: one
dying mid-request answers that request `worker_lost` and respawns with
a fresh workspace. Responses are byte-identical to the one-shot
commands; EOF or Ctrl-C shuts down gracefully. Each open
session pins its graph, its analysis and a two-row lane window to a
worker for its whole life, so long-lived deployments should cap them: `--max-sessions N`
answers any session.open beyond N open sessions with a structured
error until one closes (default: unbounded).

Serve hardening knobs: every request may carry `deadline_ms`
(`--default-deadline MS` applies one to requests that do not); a fired
deadline answers a structured `deadline_exceeded` error with the
partial progress. `--max-pending N` bounds the dispatch queue —
past it requests are answered `overloaded` with a retry-after hint.
`--drain-deadline MS` (default 5000) bounds graceful shutdown: after
Ctrl-C, in-flight work gets that long before being cancelled.
`--io-timeout MS` closes any connection, stdin/stdout included, that
makes no progress for MS milliseconds, so stalled clients cannot hold
it forever; `--max-request-bytes N` (default 1048576) bounds one
request line. `--chaos SPEC` arms fault injection for testing
(`panic=N,delay=N:MS,garble=N,...`; see the README's Operations
section); nothing in the environment does.

`ping` is the matching load probe: it sends `--count N` stats requests
(default 1), redials after a cut connection (the cut probe counts as
failed, the redial sleeps a jittered backoff), honours `overloaded` retry-after
hints with decorrelated-jitter backoff — each sleep is drawn uniformly
between the server's `retry_after_ms` hint (the floor) and 3x the
previous sleep, capped by `--max-backoff-ms MS` (default 5000), so a
fleet of synchronized clients spreads out instead of thundering back
at a recovering server in lockstep (`--retries N`, default 3) — and
reports ok/failed counts and latency; `--deadline-ms` attaches a
deadline to each probe.
";

/// Why a command failed. Only a bad command line reprints [`USAGE`].
enum Failure {
    /// An unknown command or flag, or a missing or malformed value.
    Usage(String),
    /// A well-formed command whose work failed (a file, an analysis, a
    /// socket).
    Run(String),
    /// A command that failed after producing output worth keeping (the
    /// transcript of several `sim` files, some of which failed): `main`
    /// prints the transcript, then the message.
    Partial {
        /// The stdout transcript.
        out: String,
        /// The one-line error.
        msg: String,
    },
}

/// Argument checks spell their message as a literal: `ok_or("…")?`.
impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_owned())
    }
}

fn unknown_flag(flag: &str) -> Failure {
    Failure::Usage(format!("unknown flag {flag:?}"))
}

/// Writes `out` to stdout through one lock. A reader that closed the
/// pipe early (`tsg demo stack66 | head -1`) ends the output quietly:
/// only another write error is reported, as a one-line error.
fn emit(out: &str) -> Result<(), Failure> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(Failure::Run(format!("writing to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let written = match run(&args) {
        Ok(out) => emit(&out),
        Err(Failure::Partial { out, msg }) => emit(&out).and(Err(Failure::Run(msg))),
        Err(failure) => Err(failure),
    };
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg) | Failure::Partial { msg, .. }) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `analyze` / `demo` report on a fresh arena.
fn analyze_report(sg: &SignalGraph, opts: &AnalyzeOptions) -> Result<String, Failure> {
    ops::report_in(sg, opts, &mut AnalysisArena::new()).map_err(|e| Failure::Run(e.to_string()))
}

/// Parses a millisecond duration argument for `flag`.
fn parse_ms(args: &[String], i: usize, flag: &str) -> Result<Duration, Failure> {
    args.get(i)
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms >= 1)
        .map(Duration::from_millis)
        .ok_or_else(|| Failure::Usage(format!("{flag} needs a positive number of milliseconds")))
}

/// Reads the FILE argument of a command; the error names the file.
fn read_file(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))
}

/// Reads and loads the `.g` / `.ckt` FILE of a command.
fn load_file(file: &str, default_delay: f64) -> Result<SignalGraph, Failure> {
    let text = read_file(file).map_err(Failure::Run)?;
    ops::load(file, &text, default_delay).map_err(Failure::Run)
}

fn run(args: &[String]) -> Result<String, Failure> {
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let file = args.get(1).ok_or("analyze needs a FILE argument")?;
            let mut opts = AnalyzeOptions::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--diagram" => opts.diagram = true,
                    "--dot" => opts.dot = true,
                    "--baselines" => opts.baselines = true,
                    "--slack" => opts.slack = true,
                    "--default-delay" => {
                        i += 1;
                        opts.default_delay = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--default-delay needs a number")?;
                    }
                    "--corners" => {
                        i += 1;
                        let list = args
                            .get(i)
                            .ok_or("--corners needs a comma-separated list (min,typ,max)")?;
                        opts.corners = list
                            .split(',')
                            .map(|c| c.trim().parse::<Corner>())
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|e| Failure::Usage(e.to_string()))?;
                        if opts.corners.is_empty() {
                            return Err("--corners needs at least one corner name".into());
                        }
                    }
                    "--derate" => {
                        i += 1;
                        opts.derate = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|d: &f64| d.is_finite() && *d >= 0.0 && *d < 100.0)
                            .ok_or("--derate needs a percentage in [0, 100)")?;
                    }
                    "--samples" => {
                        i += 1;
                        opts.samples = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&k: &usize| (1..=4096).contains(&k))
                            .ok_or("--samples needs an integer in 1..=4096")?;
                    }
                    "--seed" => {
                        i += 1;
                        opts.seed = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--seed needs a non-negative integer")?;
                    }
                    other => return Err(unknown_flag(other)),
                }
                i += 1;
            }
            let sg = load_file(file, opts.default_delay)?;
            analyze_report(&sg, &opts)
        }
        Some("sim") => {
            let mut files: Vec<String> = Vec::new();
            let mut i = 1;
            while i < args.len() && !args[i].starts_with("--") {
                files.push(args[i].clone());
                i += 1;
            }
            if files.is_empty() {
                return Err("sim needs a FILE argument".into());
            }
            let mut opts = SimOptions::default();
            while i < args.len() {
                match args[i].as_str() {
                    "--periods" => {
                        i += 1;
                        opts.periods = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|&p| p >= 1)
                                .ok_or("--periods needs a positive integer")?,
                        );
                    }
                    "--horizon" => {
                        i += 1;
                        opts.horizon = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|h: &f64| h.is_finite() && *h > 0.0)
                                .ok_or("--horizon needs a positive number")?,
                        );
                    }
                    "--vcd" => {
                        i += 1;
                        opts.vcd = Some(args.get(i).cloned().ok_or("--vcd needs an output PATH")?);
                    }
                    "--default-delay" => {
                        i += 1;
                        opts.default_delay = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .ok_or("--default-delay needs a number")?,
                        );
                    }
                    other => return Err(unknown_flag(other)),
                }
                i += 1;
            }
            if files.len() > 1 && opts.vcd.is_some() {
                return Err(
                    "--vcd writes one waveform; simulate one FILE at a time with it".into(),
                );
            }
            // Files run in input order on one workspace. Per-file
            // failures don't discard the other files' transcripts: every
            // section is printed, failed ones inline, and the command
            // still exits nonzero if anything failed.
            let mut ws = Workspace::new();
            let outputs: Vec<Result<String, String>> = files
                .iter()
                .map(|file| {
                    let source = Source::Inline {
                        name: file.clone(),
                        text: read_file(file)?,
                    };
                    ws.simulate(&source, &opts, None).map_err(|e| e.to_string())
                })
                .collect();
            let single = files.len() == 1;
            if single {
                // Single-file errors already name the file where it
                // matters (read/parse failures); no prefix.
                let output = outputs.into_iter().next().expect("one file, one result");
                return output.map_err(Failure::Run);
            }
            let mut out = String::new();
            let mut failed: Vec<&String> = Vec::new();
            for (file, result) in files.iter().zip(outputs) {
                out.push_str(&format!("== {file} ==\n"));
                match result {
                    Ok(section) => out.push_str(&section),
                    Err(e) => {
                        out.push_str(&format!("error: {e}\n"));
                        failed.push(file);
                    }
                }
            }
            if failed.is_empty() {
                Ok(out)
            } else {
                let msg = format!(
                    "{} of {} file(s) failed: {}",
                    failed.len(),
                    files.len(),
                    failed
                        .iter()
                        .map(|f| f.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                Err(Failure::Partial { out, msg })
            }
        }
        Some("explore") => {
            let file = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("explore needs a FILE argument")?;
            let mut edits: Vec<EditSpec> = Vec::new();
            let mut default_delay = 1.0;
            let mut optimize = false;
            let mut moves: usize = 16;
            let mut seed: u64 = 0;
            let mut objective = ops::Objective::Tau;
            let mut samples: usize = 16;
            let mut optimizer_flag: Option<&str> = None;
            let mut report_json = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--edit" => {
                        i += 1;
                        let spec = args.get(i).ok_or("--edit needs SRC->DST=DELAY")?;
                        edits.push(EditSpec::parse(spec).map_err(Failure::Usage)?);
                    }
                    "--default-delay" => {
                        i += 1;
                        default_delay = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--default-delay needs a number")?;
                    }
                    "--optimize" => optimize = true,
                    "--moves" => {
                        i += 1;
                        moves = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&n: &usize| n >= 1)
                            .ok_or("--moves needs a positive integer")?;
                        optimizer_flag.get_or_insert("--moves");
                    }
                    "--seed" => {
                        i += 1;
                        seed = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--seed needs a non-negative integer")?;
                        optimizer_flag.get_or_insert("--seed");
                    }
                    "--objective" => {
                        i += 1;
                        objective = ops::Objective::parse(
                            args.get(i)
                                .ok_or("--objective needs a name (tau, tau-p95)")?,
                        )
                        .map_err(Failure::Usage)?;
                        optimizer_flag.get_or_insert("--objective");
                    }
                    "--samples" => {
                        i += 1;
                        samples = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&k: &usize| (1..=4096).contains(&k))
                            .ok_or("--samples needs an integer in 1..=4096")?;
                        optimizer_flag.get_or_insert("--samples");
                    }
                    "--report" => {
                        i += 1;
                        report_json = match args.get(i).map(String::as_str) {
                            Some("text") => false,
                            Some("json") => true,
                            _ => return Err("--report takes text or json".into()),
                        };
                    }
                    other => return Err(unknown_flag(other)),
                }
                i += 1;
            }
            if let (Some(flag), false) = (optimizer_flag, optimize) {
                return Err(Failure::Usage(format!("{flag} requires --optimize")));
            }
            let sg = load_file(file, default_delay)?;
            let mut session = AnalysisSession::open(sg).map_err(|e| Failure::Run(e.to_string()))?;
            let critical_of = |session: &AnalysisSession| {
                session
                    .graph()
                    .display_path(session.analysis().critical_cycle())
                    .to_string()
            };
            let mut out = String::new();
            if report_json {
                let critical = critical_of(&session);
                let line = Json::Obj(vec![
                    ("opened".to_owned(), Json::from(file.as_str())),
                    (
                        "events".to_owned(),
                        Json::from(session.graph().event_count() as u64),
                    ),
                    (
                        "arcs".to_owned(),
                        Json::from(session.graph().arc_count() as u64),
                    ),
                    (
                        "borders".to_owned(),
                        Json::from(session.analysis().border_events().len() as u64),
                    ),
                    (
                        "tau".to_owned(),
                        Json::Num(session.analysis().cycle_time().as_f64()),
                    ),
                    ("critical".to_owned(), Json::from(critical.as_str())),
                ]);
                let _ = writeln!(out, "{}", line.dump());
            } else {
                let _ = writeln!(
                    out,
                    "opened session on {file}: {} events, {} arcs, {} border event(s)",
                    session.graph().event_count(),
                    session.graph().arc_count(),
                    session.analysis().border_events().len()
                );
                out.push_str(&ops::session_summary(&session));
            }
            for spec in &edits {
                let delta = ops::apply_struct_edits(&mut session, &[EditOp::Delay(spec.clone())])
                    .map_err(Failure::Run)?;
                if report_json {
                    let edit = format!("{}->{}={}", spec.src, spec.dst, spec.delay);
                    let critical = critical_of(&session);
                    let line = Json::Obj(vec![
                        ("edit".to_owned(), Json::from(edit.as_str())),
                        ("tau".to_owned(), Json::Num(delta.after.as_f64())),
                        ("critical".to_owned(), Json::from(critical.as_str())),
                        ("dirty".to_owned(), Json::from(delta.dirty as u64)),
                        ("borders".to_owned(), Json::from(delta.borders as u64)),
                        ("rows".to_owned(), Json::from(delta.rows as u64)),
                        ("rows_total".to_owned(), Json::from(delta.rows_total as u64)),
                    ]);
                    let _ = writeln!(out, "{}", line.dump());
                } else {
                    let _ = writeln!(
                        out,
                        "edit {}->{}={}: re-simulated {} of {} border simulation(s) ({} of {} \
                         rows)",
                        spec.src,
                        spec.dst,
                        spec.delay,
                        delta.dirty,
                        delta.borders,
                        delta.rows,
                        delta.rows_total
                    );
                    out.push_str(&ops::session_summary(&session));
                }
            }
            let outcome = if optimize {
                let (outcome, text) =
                    ops::explore_session(&mut session, moves, seed, objective, samples, None)
                        .map_err(Failure::Run)?;
                if !report_json {
                    out.push_str(&text);
                }
                for m in outcome.trajectory.iter().filter(|_| report_json) {
                    let line = Json::Obj(vec![
                        ("move".to_owned(), Json::from(m.index as u64)),
                        ("action".to_owned(), Json::from(m.action.as_str())),
                        ("tau_before".to_owned(), Json::Num(m.tau_before)),
                        ("tau_after".to_owned(), Json::Num(m.tau_after)),
                        ("critical".to_owned(), Json::from(m.critical.as_str())),
                        ("accepted".to_owned(), Json::Bool(m.accepted)),
                        ("rows".to_owned(), Json::from(m.rows as u64)),
                        ("rows_total".to_owned(), Json::from(m.rows_total as u64)),
                    ]);
                    let _ = writeln!(out, "{}", line.dump());
                }
                Some(outcome)
            } else {
                None
            };
            // Trust, but verify: the final incremental state must be
            // bit-identical to a from-scratch analysis of the edited
            // graph.
            ops::verify_session(&session).map_err(Failure::Run)?;
            if report_json {
                let mut fields = vec![
                    ("verified".to_owned(), Json::Bool(true)),
                    ("edits".to_owned(), Json::from(session.edits_applied())),
                ];
                if let Some(outcome) = &outcome {
                    fields.extend([
                        ("objective".to_owned(), Json::from(objective.name())),
                        ("initial".to_owned(), Json::Num(outcome.initial)),
                        ("final".to_owned(), Json::Num(outcome.final_tau)),
                        ("accepted".to_owned(), Json::from(outcome.accepted as u64)),
                        (
                            "proposed".to_owned(),
                            Json::from(outcome.trajectory.len() as u64),
                        ),
                    ]);
                }
                let _ = writeln!(out, "{}", Json::Obj(fields).dump());
            } else {
                let _ = writeln!(
                    out,
                    "verified: bit-identical to a from-scratch analysis after {} edit(s)",
                    session.edits_applied()
                );
            }
            Ok(out)
        }
        Some("serve") => {
            let mut opts = ServeOptions::default();
            let mut listen: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--threads" => {
                        i += 1;
                        opts.threads = Some(
                            ServeOptions::parse_threads(args.get(i).map(String::as_str))
                                .map_err(Failure::Usage)?,
                        );
                    }
                    "--max-sessions" => {
                        i += 1;
                        opts.max_sessions = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|&n: &u64| n >= 1)
                                .ok_or("--max-sessions needs a positive integer")?,
                        );
                    }
                    "--max-pending" => {
                        i += 1;
                        opts.max_pending = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|&n: &usize| n >= 1)
                                .ok_or("--max-pending needs a positive integer")?,
                        );
                    }
                    "--default-deadline" => {
                        i += 1;
                        opts.default_deadline = Some(parse_ms(args, i, "--default-deadline")?);
                    }
                    "--drain-deadline" => {
                        i += 1;
                        opts.drain_deadline = parse_ms(args, i, "--drain-deadline")?;
                    }
                    "--io-timeout" => {
                        i += 1;
                        opts.io_timeout = Some(parse_ms(args, i, "--io-timeout")?);
                    }
                    "--max-request-bytes" => {
                        i += 1;
                        opts.max_request_bytes = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&n: &usize| n >= 1)
                            .ok_or("--max-request-bytes needs a positive integer")?;
                    }
                    "--max-connections" => {
                        i += 1;
                        opts.max_connections = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|&n: &usize| n >= 1)
                                .ok_or("--max-connections needs a positive integer")?,
                        );
                    }
                    "--chaos" => {
                        i += 1;
                        let spec = args.get(i).ok_or("--chaos needs a fault spec")?;
                        opts.chaos = opts.chaos.with_spec(spec);
                    }
                    "--listen" => {
                        i += 1;
                        listen = Some(
                            args.get(i)
                                .cloned()
                                .ok_or("--listen needs tcp:HOST:PORT or unix:PATH")?,
                        );
                    }
                    other => return Err(unknown_flag(other)),
                }
                i += 1;
            }
            serve(&opts, listen.as_deref())
        }
        Some("ping") => {
            let target = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("ping needs tcp:HOST:PORT or unix:PATH")?;
            let mut count = 1u32;
            let mut deadline_ms: Option<u64> = None;
            let mut retries = 3u32;
            let mut max_backoff_ms = 5000u64;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--count" => {
                        i += 1;
                        count = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&n: &u32| n >= 1)
                            .ok_or("--count needs a positive integer")?;
                    }
                    "--deadline-ms" => {
                        i += 1;
                        deadline_ms = Some(
                            args.get(i)
                                .and_then(|v| v.parse().ok())
                                .filter(|&ms: &u64| ms >= 1)
                                .ok_or("--deadline-ms needs a positive number of milliseconds")?,
                        );
                    }
                    "--retries" => {
                        i += 1;
                        retries = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--retries needs an integer")?;
                    }
                    "--max-backoff-ms" => {
                        i += 1;
                        max_backoff_ms = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .filter(|&ms: &u64| ms >= 1)
                            .ok_or("--max-backoff-ms needs a positive number of milliseconds")?;
                    }
                    other => return Err(unknown_flag(other)),
                }
                i += 1;
            }
            ping(target, count, deadline_ms, retries, max_backoff_ms)
        }
        Some("convert") => {
            let file = args.get(1).ok_or("convert needs a FILE argument")?;
            let to = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("--to"), Some(t)) => t.as_str(),
                _ => return Err("convert needs `--to {g|dot}`".into()),
            };
            let sg = load_file(file, 1.0)?;
            match to {
                "g" => {
                    tsg_stg::write_stg(&sg, "converted").map_err(|e| Failure::Run(e.to_string()))
                }
                "dot" => Ok(tsg_core::dot::to_dot(&sg, "converted")),
                other => Err(Failure::Usage(format!("unknown target format {other:?}"))),
            }
        }
        Some("demo") => {
            let which = args.get(1).map(String::as_str).unwrap_or("oscillator");
            let opts = AnalyzeOptions {
                diagram: true,
                baselines: true,
                ..AnalyzeOptions::default()
            };
            let sg = match which {
                "oscillator" => tsg_circuit::library::c_element_oscillator_tsg(),
                "muller5" => tsg_extract::extract(
                    &tsg_circuit::library::muller_ring(5, 1.0),
                    tsg_extract::ExtractOptions::default(),
                )
                .map_err(|e| Failure::Run(e.to_string()))?,
                "stack66" => tsg_gen::stack66(),
                other => return Err(Failure::Usage(format!("unknown demo {other:?}"))),
            };
            analyze_report(&sg, &opts)
        }
        Some("--help") | Some("-h") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(Failure::Usage(format!("unknown command {other:?}"))),
    }
}

/// The serve transports run on the `poll(2)` event loop, which is
/// Unix-only; elsewhere `tsg serve` refuses to run.
#[cfg(not(unix))]
fn serve(_: &ServeOptions, _: Option<&str>) -> Result<String, Failure> {
    Err(Failure::Run(
        "serve needs a Unix platform (its event loop runs on poll(2))".to_owned(),
    ))
}

/// The `tsg serve` front-end: picks the transport, installs the SIGINT
/// flag, runs the warm-pool request loop, and reports the session
/// counters on stderr (stdout stays pure protocol).
#[cfg(unix)]
fn serve(opts: &ServeOptions, listen: Option<&str>) -> Result<String, Failure> {
    let shutdown = tsg_serve::install_sigint_flag();
    let pool = opts.worker_threads();
    let stats = match listen {
        None => {
            eprintln!("tsg serve: reading requests from stdin ({pool} worker thread(s))");
            tsg_serve::serve(
                std::io::BufReader::new(std::io::stdin()),
                std::io::stdout(),
                opts,
                Some(shutdown),
            )
        }
        Some(spec) => match spec.split_once(':') {
            Some(("tcp", addr)) => {
                let listener = std::net::TcpListener::bind(addr)
                    .map_err(|e| Failure::Run(format!("binding tcp {addr}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| Failure::Run(e.to_string()))?;
                eprintln!("tsg serve: listening on tcp {local} ({pool} worker thread(s))");
                tsg_serve::serve_tcp(listener, opts, Some(shutdown), None)
            }
            Some(("unix", path)) => {
                // A previous non-graceful exit (kill -9, double Ctrl-C)
                // leaves the socket file behind; unbound stale files must
                // not block restarts on the same path.
                if std::fs::metadata(path).is_ok()
                    && std::os::unix::net::UnixStream::connect(path).is_err()
                {
                    let _ = std::fs::remove_file(path);
                }
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| Failure::Run(format!("binding unix {path}: {e}")))?;
                eprintln!("tsg serve: listening on unix {path} ({pool} worker thread(s))");
                let result = tsg_serve::serve_unix(listener, opts, Some(shutdown), None);
                let _ = std::fs::remove_file(path);
                result
            }
            _ => return Err("--listen takes tcp:HOST:PORT or unix:PATH".into()),
        },
    }
    .map_err(|e| Failure::Run(format!("serve: {e}")))?;
    eprintln!(
        "tsg serve: shut down after {} ok / {} failed request(s) on {} worker thread(s)",
        stats.served, stats.failed, stats.threads
    );
    if stats.rejected_overloaded
        + stats.deadline_exceeded
        + stats.cancelled
        + stats.timed_out_connections
        + stats.drained_in_flight
        > 0
    {
        eprintln!(
            "tsg serve: {} overloaded, {} deadline-exceeded, {} cancelled, \
             {} timed-out connection(s), {} drained in flight",
            stats.rejected_overloaded,
            stats.deadline_exceeded,
            stats.cancelled,
            stats.timed_out_connections,
            stats.drained_in_flight
        );
    }
    if stats.worker_lost + stats.worker_respawns > 0 {
        eprintln!(
            "tsg serve: {} request(s) lost to dead workers, {} worker respawn(s)",
            stats.worker_lost, stats.worker_respawns
        );
    }
    Ok(String::new())
}

/// One decorrelated-jitter backoff step: uniform between the server's
/// `retry_after_ms` hint (the floor — the server knows its queue) and
/// three times the previous sleep, capped at `cap`. Unlike plain
/// exponential backoff, every client draws a different sleep, so a
/// fleet rejected together does not thunder back together; the floor
/// still wins over the cap when the server asks for a longer wait.
fn backoff_ms(prev: u64, hint: u64, cap: u64, rng: &mut ops::SplitMix64) -> u64 {
    let floor = hint.max(1);
    let ceiling = prev.saturating_mul(3).clamp(floor, cap.max(floor));
    floor + rng.below(ceiling - floor + 1)
}

/// The `tsg ping` load probe: sends `count` stats requests, honouring
/// `overloaded` retry-after hints with decorrelated-jitter backoff under
/// `max_backoff` (see [`backoff_ms`]), and reports ok/failed counts and
/// latency. A connection cut mid-probe fails that probe; the next probe
/// redials after a jittered backoff sleep (floor 1 ms), so every probe
/// is counted as ok or failed and a server that recovers is measured
/// again.
fn ping(
    target: &str,
    count: u32,
    deadline_ms: Option<u64>,
    retries: u32,
    max_backoff: u64,
) -> Result<String, Failure> {
    use std::io::{BufRead, BufReader, Write};
    type Conn = (Box<dyn BufRead>, Box<dyn Write>);
    let dial = || -> Result<Conn, Failure> {
        match target.split_once(':') {
            Some(("tcp", addr)) => {
                let stream = std::net::TcpStream::connect(addr)
                    .map_err(|e| Failure::Run(format!("connecting tcp {addr}: {e}")))?;
                let clone = stream
                    .try_clone()
                    .map_err(|e| Failure::Run(e.to_string()))?;
                Ok((Box::new(BufReader::new(clone)), Box::new(stream)))
            }
            #[cfg(unix)]
            Some(("unix", path)) => {
                let stream = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| Failure::Run(format!("connecting unix {path}: {e}")))?;
                let clone = stream
                    .try_clone()
                    .map_err(|e| Failure::Run(e.to_string()))?;
                Ok((Box::new(BufReader::new(clone)), Box::new(stream)))
            }
            _ => Err("ping takes tcp:HOST:PORT or unix:PATH".into()),
        }
    };
    let mut conn = Some(dial()?);
    let mut ok = 0u32;
    let mut failed = 0u32;
    let mut retried = 0u32;
    let mut redials = 0u32;
    let mut redial_sleep = 0u64;
    let mut latencies: Vec<Duration> = Vec::with_capacity(count as usize);
    let mut last = String::new();
    // Seeded per process so concurrent probes decorrelate from each
    // other — the whole point of jittered backoff.
    let mut rng = ops::SplitMix64(u64::from(std::process::id()) ^ 0xD6E8_FEB8_6659_FD93);
    for k in 0..count {
        let request = match deadline_ms {
            Some(ms) => format!("{{\"id\":{k},\"cmd\":\"stats\",\"deadline_ms\":{ms}}}\n"),
            None => format!("{{\"id\":{k},\"cmd\":\"stats\"}}\n"),
        };
        let mut attempt = 0u32;
        let mut prev_sleep = 0u64;
        loop {
            let (reader, writer) = match conn.as_mut() {
                Some(c) => c,
                None => {
                    redial_sleep = backoff_ms(redial_sleep, 1, max_backoff, &mut rng);
                    std::thread::sleep(Duration::from_millis(redial_sleep));
                    redials += 1;
                    match dial() {
                        Ok(c) => conn.insert(c),
                        Err(_) => {
                            failed += 1;
                            break;
                        }
                    }
                }
            };
            let start = Instant::now();
            let mut line = String::new();
            let answered = writer
                .write_all(request.as_bytes())
                .and_then(|()| writer.flush())
                .and_then(|()| reader.read_line(&mut line))
                .is_ok_and(|n| n > 0 && line.ends_with('\n'));
            if !answered {
                // The connection was cut: this probe failed, the next
                // one redials.
                conn = None;
                failed += 1;
                break;
            }
            let elapsed = start.elapsed();
            redial_sleep = 0;
            let doc = Json::parse(line.trim()).ok();
            let code = doc
                .as_ref()
                .and_then(|d| d.get("code"))
                .and_then(Json::as_str)
                .map(str::to_owned);
            if code.as_deref() == Some("overloaded") && attempt < retries {
                let hint = doc
                    .as_ref()
                    .and_then(|d| d.get("retry_after_ms"))
                    .and_then(Json::as_f64)
                    .unwrap_or(50.0);
                attempt += 1;
                retried += 1;
                prev_sleep = backoff_ms(prev_sleep, hint as u64, max_backoff, &mut rng);
                std::thread::sleep(Duration::from_millis(prev_sleep));
                continue;
            }
            let succeeded = doc
                .as_ref()
                .and_then(|d| d.get("ok"))
                .is_some_and(|v| *v == Json::Bool(true));
            if succeeded {
                ok += 1;
            } else {
                failed += 1;
            }
            latencies.push(elapsed);
            last = line.trim().to_owned();
            break;
        }
    }
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let min = latencies.iter().min().map(ms).unwrap_or(0.0);
    let max = latencies.iter().max().map(ms).unwrap_or(0.0);
    let mean = latencies.iter().map(ms).sum::<f64>() / latencies.len().max(1) as f64;
    let mut out = format!(
        "pinged {target}: {ok} ok, {failed} failed of {count} probe(s) \
         ({retried} retried, {redials} redial(s))\n"
    );
    let _ = writeln!(
        out,
        "latency: min {min:.2} ms / mean {mean:.2} ms / max {max:.2} ms"
    );
    let _ = writeln!(out, "last response: {last}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`super::run`] with any failure as its message.
    fn run(args: &[String]) -> Result<String, String> {
        super::run(args)
            .map_err(|(Failure::Usage(msg) | Failure::Run(msg) | Failure::Partial { msg, .. })| msg)
    }

    #[test]
    fn backoff_stays_between_hint_floor_and_cap() {
        let mut rng = ops::SplitMix64(42);
        let mut prev = 0u64;
        for _ in 0..200 {
            prev = backoff_ms(prev, 50, 5000, &mut rng);
            assert!((50..=5000).contains(&prev), "{prev}");
        }
        // The server's hint is a floor even when it exceeds the cap:
        // "wait 9 s" must not be shortened by a 5 s client-side cap.
        let sleep = backoff_ms(prev, 9000, 5000, &mut rng);
        assert!(sleep >= 9000, "{sleep}");
        // A zero hint still sleeps at least a millisecond.
        assert!(backoff_ms(0, 0, 5000, &mut rng) >= 1);
    }

    #[test]
    fn backoff_is_jittered_not_lockstep() {
        // Two clients with different seeds must draw different schedules
        // once the window opens up — that is the decorrelation property.
        let (mut a, mut b) = (ops::SplitMix64(1), ops::SplitMix64(2));
        let (mut pa, mut pb) = (0u64, 0u64);
        let mut diverged = false;
        for _ in 0..20 {
            pa = backoff_ms(pa, 50, 5000, &mut a);
            pb = backoff_ms(pb, 50, 5000, &mut b);
            diverged |= pa != pb;
        }
        assert!(diverged);
    }

    /// A server that answers one probe per connection and then closes
    /// it: every cut fails one probe and the next probe redials, so the
    /// client reports every probe and exits cleanly.
    #[cfg(unix)]
    #[test]
    fn ping_redials_a_cut_connection() {
        use std::io::{BufRead, BufReader, Write};
        let path =
            std::env::temp_dir().join(format!("tsg-ping-redial-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let mut line = String::new();
                BufReader::new(&stream).read_line(&mut line).unwrap();
                stream.write_all(b"{\"id\":0,\"ok\":true}\n").unwrap();
            }
        });
        let target = format!("unix:{}", path.display());
        let args = ["ping", &target, "--count", "4", "--max-backoff-ms", "5"];
        let out = run(&args.map(String::from)).unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let counts: Vec<u32> = out
            .split(": ")
            .nth(1)
            .unwrap()
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .take(3)
            .collect();
        let [ok, failed, total] = counts[..] else {
            panic!("{out}");
        };
        assert_eq!(total, 4, "{out}");
        assert_eq!(ok + failed, total, "{out}");
        // Probes 0 and 2 land on fresh connections, 1 and 3 hit a cut;
        // only probe 2 needed a redial.
        assert_eq!((ok, failed), (2, 2), "{out}");
        assert!(out.contains("1 redial(s)"), "{out}");
    }

    #[test]
    fn help_is_printed() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        let out = run(&["--help".into()]).unwrap();
        assert!(out.contains("analyze"));
    }

    #[test]
    fn demo_oscillator_reports_tau_10() {
        let out = run(&["demo".into(), "oscillator".into()]).unwrap();
        assert!(out.contains("cycle time: 10"), "{out}");
        assert!(out.contains("critical cycle: a+ -3-> c+ -2-> a- -3-> c- -2*-> a+"));
        assert!(out.contains("howard"));
    }

    #[test]
    fn demo_muller5_reports_20_3() {
        let out = run(&["demo".into(), "muller5".into()]).unwrap();
        assert!(out.contains("cycle time: 20/3"), "{out}");
    }

    #[test]
    fn demo_stack66_runs() {
        let out = run(&["demo".into(), "stack66".into()]).unwrap();
        assert!(out.contains("66 events, 112 arcs"), "{out}");
    }

    #[test]
    fn unknown_flags_error() {
        assert!(run(&["analyze".into(), "x.g".into(), "--wat".into()]).is_err());
        assert!(run(&["frob".into()]).is_err());
        assert!(run(&["demo".into(), "nope".into()]).is_err());
    }

    #[test]
    fn serve_max_sessions_flag_validation() {
        for bad in ["0", "-1", "many", ""] {
            let err = run(&["serve".into(), "--max-sessions".into(), bad.into()]).unwrap_err();
            assert!(err.contains("--max-sessions"), "{bad}: {err}");
        }
        let err = run(&["serve".into(), "--max-sessions".into()]).unwrap_err();
        assert!(err.contains("--max-sessions"), "{err}");
    }

    #[test]
    fn analyze_stg_file() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("osc.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let out = run(&[
            "analyze".into(),
            path.to_string_lossy().into_owned(),
            "--baselines".into(),
        ])
        .unwrap();
        assert!(out.contains("cycle time: 10"), "{out}");
        // Only the two exact, polynomial comparators run.
        assert!(
            out.ends_with("baselines:\n  howard        : 10\n  karp          : 10\n"),
            "{out}"
        );
        assert!(!out.contains("lawler"), "{out}");
    }

    #[test]
    fn convert_stg_to_dot() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_RING5).unwrap();
        let out = run(&[
            "convert".into(),
            path.to_string_lossy().into_owned(),
            "--to".into(),
            "dot".into(),
        ])
        .unwrap();
        assert!(out.starts_with("digraph"));
        let out = run(&[
            "convert".into(),
            path.to_string_lossy().into_owned(),
            "--to".into(),
            "g".into(),
        ])
        .unwrap();
        assert!(out.contains(".marking"));
        assert!(run(&[
            "convert".into(),
            path.to_string_lossy().into_owned(),
            "--to".into(),
            "pdf".into(),
        ])
        .is_err());
    }

    /// The CPU picks the kernel backend, so `--kernel` is an unknown
    /// flag of `analyze`, `explore` and `serve`.
    #[test]
    fn analyze_kernel_flag_matches_auto_and_validates() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kernel-osc.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let once = run(&["analyze".into(), p.clone()]).unwrap();
        let again = run(&["analyze".into(), p.clone()]).unwrap();
        assert_eq!(once, again);
        let out = run(&[
            "explore".into(),
            p.clone(),
            "--edit".into(),
            "a+->c+=3".into(),
        ])
        .unwrap();
        assert!(out.contains("verified: bit-identical"), "{out}");
        for argv in [
            vec!["analyze", &p, "--kernel", "portable"],
            vec!["analyze", &p, "--kernel"],
            vec!["explore", &p, "--kernel", "portable", "--edit", "a+->c+=3"],
            vec!["serve", "--kernel", "portable"],
        ] {
            let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
            let err = run(&argv).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn analyze_with_slack() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("osc2.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let out = run(&[
            "analyze".into(),
            path.to_string_lossy().into_owned(),
            "--slack".into(),
        ])
        .unwrap();
        assert!(out.contains("CRITICAL"), "{out}");
        assert!(out.contains("timing-critical"), "{out}");
    }

    /// There is one event queue, so `tsg sim --queue` is an unknown flag.
    #[test]
    fn sim_queue_backend_selection_is_observable_and_identical() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue-osc.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let once = run(&["sim".into(), p.clone()]).unwrap();
        let again = run(&["sim".into(), p.clone()]).unwrap();
        assert_eq!(once, again, "sim transcripts are deterministic");
        for name in ["heap", "calendar", "splay"] {
            let err = run(&["sim".into(), p.clone(), "--queue".into(), name.into()]).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{name}: {err}");
        }
    }

    #[test]
    fn sim_stg_file_prints_occurrences() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim-osc.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let out = run(&[
            "sim".into(),
            path.to_string_lossy().into_owned(),
            "--periods".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(out.contains("over 2 period(s)"), "{out}");
        assert!(out.contains("t(a+_0)"), "{out}");
    }

    #[test]
    fn sim_stg_file_writes_vcd() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim-vcd.g");
        let vcd = dir.join("sim-vcd.vcd");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let out = run(&[
            "sim".into(),
            path.to_string_lossy().into_owned(),
            "--vcd".into(),
            vcd.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("VCD waveform written"), "{out}");
        let dump = std::fs::read_to_string(&vcd).unwrap();
        assert!(dump.contains("$timescale 1ps $end"), "{dump}");
        assert!(dump.contains("$var wire 1"), "{dump}");
    }

    #[test]
    fn sim_ckt_file_reports_steady_period_and_vcd() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim-osc.ckt");
        let vcd = dir.join("sim-osc.vcd");
        let nl = tsg_circuit::library::c_element_oscillator();
        std::fs::write(&path, tsg_circuit::parse::write_ckt(&nl)).unwrap();
        let out = run(&[
            "sim".into(),
            path.to_string_lossy().into_owned(),
            "--horizon".into(),
            "400".into(),
            "--vcd".into(),
            vcd.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("steady period 10"), "{out}");
        assert!(out.contains("VCD waveform written"), "{out}");
        assert!(std::fs::read_to_string(&vcd).unwrap().contains("$dumpvars"));
    }

    #[test]
    fn sim_many_files_fan_out_in_order() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let osc = dir.join("fan-osc.g");
        let ring = dir.join("fan-ring.g");
        std::fs::write(&osc, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        std::fs::write(&ring, tsg_stg::EXAMPLE_RING5).unwrap();
        let out = run(&[
            "sim".into(),
            osc.to_string_lossy().into_owned(),
            ring.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let osc_pos = out.find("fan-osc.g").unwrap();
        let ring_pos = out.find("fan-ring.g").unwrap();
        assert!(osc_pos < ring_pos, "input order preserved: {out}");
        assert_eq!(out.matches("==").count(), 4, "one banner per file: {out}");
        // The files run in order on one thread: `--threads` is an unknown
        // flag, a usage error.
        let argv = [
            "sim".into(),
            osc.to_string_lossy().into_owned(),
            "--threads".into(),
            "2".into(),
        ];
        assert!(matches!(
            super::run(&argv),
            Err(Failure::Usage(msg)) if msg == "unknown flag \"--threads\""
        ));
        // --vcd with several files would clobber one waveform.
        assert!(run(&[
            "sim".into(),
            osc.to_string_lossy().into_owned(),
            ring.to_string_lossy().into_owned(),
            "--vcd".into(),
            dir.join("x.vcd").to_string_lossy().into_owned(),
        ])
        .is_err());
        // One bad file fails the command but names the culprit instead
        // of discarding the batch.
        let bad = dir.join("fan-bad.g");
        std::fs::write(&bad, "this is not an stg file").unwrap();
        let argv = [
            "sim".into(),
            osc.to_string_lossy().into_owned(),
            bad.to_string_lossy().into_owned(),
        ];
        let Err(Failure::Partial { out, msg }) = super::run(&argv) else {
            panic!("a failing file among several keeps the transcript");
        };
        assert!(msg.contains("1 of 2 file(s) failed"), "{msg}");
        assert!(msg.contains("fan-bad.g"), "{msg}");
        // The transcript keeps the good file's section and reports the
        // bad one inline, in input order.
        let osc_banner = format!("== {} ==\n", osc.display());
        let bad_section = format!(
            "== {} ==\nerror: line 1: arc outside .graph section\n",
            bad.display()
        );
        assert!(out.starts_with(&osc_banner), "{out}");
        assert!(out.ends_with(&bad_section), "{out}");
    }

    #[test]
    fn sim_and_analyze_report_overflowing_delays() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow-big.g");
        std::fs::write(
            &path,
            ".model big\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n\
             .delay x+ x- 1e308\n.delay x- x+ 1e308\n.end\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let sim = run(&["sim".into(), p.clone(), "--periods".into(), "3".into()]).unwrap_err();
        assert_eq!(
            sim,
            "simulation failed: firing x-_0: cannot schedule event at non-finite time inf"
        );
        let analyze = run(&["analyze".into(), p]).unwrap_err();
        assert!(analyze.contains("non-finite total delay"), "{analyze}");
        assert!(!analyze.contains('\n'), "one-line message: {analyze}");
    }

    #[test]
    fn sim_reports_overflowing_pin_delays() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow-big.ckt");
        std::fs::write(&path, "gate a inv(b:1e308) = 1\ngate b inv(a:1e308) = 1\n").unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&["sim".into(), p, "--horizon".into(), "1.7e308".into()]).unwrap_err();
        assert_eq!(
            err,
            "simulation failed: signal b changing at time 1e308: \
             cannot schedule event at non-finite time inf"
        );
    }

    /// An analysis runs on one thread, so `tsg analyze --threads` is an
    /// unknown flag.
    #[test]
    fn analyze_threads_flag_matches_sequential() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("threads-osc.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&["analyze".into(), p, "--threads".into(), "2".into()]).unwrap_err();
        assert_eq!(err, "unknown flag \"--threads\"");
    }

    #[test]
    fn sim_flag_validation() {
        assert!(run(&["sim".into()]).is_err());
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flags.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        assert!(run(&["sim".into(), p.clone(), "--periods".into(), "0".into()]).is_err());
        assert!(run(&["sim".into(), p.clone(), "--horizon".into(), "nan".into()]).is_err());
        assert!(run(&["sim".into(), p.clone(), "--vcd".into()]).is_err());
        assert!(run(&["sim".into(), p.clone(), "--wat".into()]).is_err());
        // Flags that do not apply to the input kind are rejected, not
        // silently ignored.
        let err = run(&["sim".into(), p, "--horizon".into(), "50".into()]).unwrap_err();
        assert!(err.contains("--periods"), "{err}");
        let ckt = dir.join("flags.ckt");
        let nl = tsg_circuit::library::c_element_oscillator();
        std::fs::write(&ckt, tsg_circuit::parse::write_ckt(&nl)).unwrap();
        let c = ckt.to_string_lossy().into_owned();
        let err = run(&["sim".into(), c.clone(), "--periods".into(), "3".into()]).unwrap_err();
        assert!(err.contains("--horizon"), "{err}");
        let err = run(&["sim".into(), c, "--default-delay".into(), "5".into()]).unwrap_err();
        assert!(err.contains("--default-delay"), "{err}");
    }

    #[test]
    fn explore_applies_edits_incrementally() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explore.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&[
            "explore".into(),
            p.clone(),
            "--edit".into(),
            "a+->c+=8".into(),
            "--edit".into(),
            "a+->c+=3".into(),
        ])
        .unwrap();
        assert!(out.contains("opened session"), "{out}");
        assert!(out.contains("cycle time: 15"), "{out}");
        assert!(out.contains("re-simulated"), "{out}");
        assert!(out.contains("verified: bit-identical"), "{out}");
        assert!(
            out.matches("cycle time: 10").count() == 2,
            "first and final state are the original graph: {out}"
        );
        // Flag validation.
        assert!(run(&["explore".into()]).is_err());
        assert!(run(&["explore".into(), p.clone(), "--edit".into()]).is_err());
        let err = run(&[
            "explore".into(),
            p.clone(),
            "--edit".into(),
            "nonsense".into(),
        ])
        .unwrap_err();
        assert!(err.contains("SRC->DST=DELAY"), "{err}");
        let err = run(&["explore".into(), p, "--edit".into(), "zz->a+=1".into()]).unwrap_err();
        assert!(err.contains("no event labelled"), "{err}");
    }

    #[test]
    fn explore_optimize_runs_a_monotone_verified_loop() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("optimize.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let argv: Vec<String> = [
            "explore",
            &p,
            "--optimize",
            "--moves",
            "16",
            "--seed",
            "42",
            "--objective",
            "tau",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&argv).unwrap();
        assert_eq!(out.matches("move ").count(), 16, "{out}");
        assert!(out.contains("optimized: tau 10 -> "), "{out}");
        assert!(out.contains("verified: bit-identical"), "{out}");
        // The committed τ never climbs: accepted moves strictly improve
        // it, rejected moves leave it where it was.
        let mut committed = 10.0_f64;
        for line in out.lines().filter(|l| l.starts_with("move ")) {
            let rest = line.split("tau ").nth(1).expect("move line shape");
            let (before, rest) = rest.split_once(" -> ").expect("move line shape");
            let before: f64 = before.parse().unwrap();
            let after: f64 = rest.split(' ').next().unwrap().parse().unwrap();
            assert_eq!(before, committed, "{line}");
            if line.contains("(accepted") {
                assert!(after < before, "{line}");
            } else {
                assert_eq!(after, before, "{line}");
            }
            committed = after;
        }
        assert!(committed <= 10.0, "final tau is never worse: {out}");
        // Same seed, same run: the whole trajectory is reproducible.
        assert_eq!(run(&argv).unwrap(), out);
        // Optimizer flags demand --optimize; bad operands are refused.
        for bad in [
            vec!["explore", &p, "--moves", "8"],
            vec!["explore", &p, "--seed", "1"],
            vec!["explore", &p, "--objective", "tau"],
            vec!["explore", &p, "--optimize", "--moves", "0"],
            vec!["explore", &p, "--optimize", "--objective", "area"],
            vec!["explore", &p, "--report", "xml"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(run(&argv).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn analyze_corners_and_samples_report_scenarios() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corners.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&[
            "analyze".into(),
            p.clone(),
            "--corners".into(),
            "min,typ,max".into(),
            "--derate".into(),
            "10".into(),
        ])
        .unwrap();
        assert!(out.contains("scenarios: 3 corner(s), derate 10%"), "{out}");
        assert!(out.contains("tau distribution:"), "{out}");
        assert!(out.contains("arc criticality:"), "{out}");
        // typ is the nominal graph: its corner tau equals the headline tau.
        assert!(out.contains("min"), "{out}");
        // Sampled scenarios instead; sample j is seed-deterministic.
        let sampled = run(&[
            "analyze".into(),
            p.clone(),
            "--samples".into(),
            "4".into(),
            "--seed".into(),
            "7".into(),
        ])
        .unwrap();
        assert!(
            sampled.contains("scenarios: 4 sample(s), jitter 10%, seed 7"),
            "{sampled}"
        );
        assert_eq!(
            sampled,
            run(&[
                "analyze".into(),
                p.clone(),
                "--samples".into(),
                "4".into(),
                "--seed".into(),
                "7".into(),
            ])
            .unwrap(),
            "same seed, same report"
        );
        // Flag validation: bad corner names, derate and samples bounds.
        for bad in [
            vec!["analyze", &p, "--corners", "min,worst"],
            vec!["analyze", &p, "--corners", ""],
            vec!["analyze", &p, "--derate", "100"],
            vec!["analyze", &p, "--derate", "-1"],
            vec!["analyze", &p, "--samples", "0"],
            vec!["analyze", &p, "--samples", "4097"],
            vec!["analyze", &p, "--seed", "x"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(run(&argv).is_err(), "{bad:?}");
        }
        let err = run(&["analyze".into(), p, "--corners".into(), "min,worst".into()]).unwrap_err();
        assert!(err.contains("unknown corner"), "{err}");
    }

    #[test]
    fn explore_optimize_tau_p95_is_monotone_over_scenarios() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("optimize-p95.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let argv: Vec<String> = [
            "explore",
            &p,
            "--optimize",
            "--moves",
            "12",
            "--seed",
            "42",
            "--objective",
            "tau-p95",
            "--samples",
            "8",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&argv).unwrap();
        assert!(
            out.contains("objective: tau-p95 over 8 scenario(s)"),
            "{out}"
        );
        assert!(out.contains("tau distribution:"), "{out}");
        assert!(out.contains("verified: bit-identical"), "{out}");
        // The committed objective value (p95 over the scenarios)
        // never climbs, exactly like the nominal-tau loop.
        let mut committed: Option<f64> = None;
        for line in out.lines().filter(|l| l.starts_with("move ")) {
            let rest = line.split("tau ").nth(1).expect("move line shape");
            let (before, rest) = rest.split_once(" -> ").expect("move line shape");
            let before: f64 = before.parse().unwrap();
            let after: f64 = rest.split(' ').next().unwrap().parse().unwrap();
            if let Some(c) = committed {
                assert_eq!(before, c, "{line}");
            }
            if line.contains("(accepted") {
                assert!(after < before, "{line}");
            } else {
                assert_eq!(after, before, "{line}");
            }
            committed = Some(after);
        }
        // Same seed, same run: trajectory and distribution reproduce.
        assert_eq!(run(&argv).unwrap(), out);
        // --samples demands --optimize, like the other optimizer flags.
        let err = run(&["explore".into(), p, "--samples".into(), "8".into()]).unwrap_err();
        assert!(err.contains("--samples requires --optimize"), "{err}");
    }

    #[test]
    fn explore_report_json_emits_trajectory_lines() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.g");
        std::fs::write(&path, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&[
            "explore".into(),
            p.clone(),
            "--edit".into(),
            "a+->c+=8".into(),
            "--report".into(),
            "json".into(),
        ])
        .unwrap();
        let lines: Vec<Json> = out
            .lines()
            .map(|l| Json::parse(l).expect("every line is one JSON object"))
            .collect();
        assert_eq!(lines.len(), 3, "opened + one edit + verified: {out}");
        assert_eq!(lines[0].get("tau"), Some(&Json::Num(10.0)));
        assert_eq!(lines[1].get("edit"), Some(&Json::from("a+->c+=8")));
        assert_eq!(lines[1].get("tau"), Some(&Json::Num(15.0)));
        assert!(lines[1].get("critical").is_some(), "{out}");
        assert!(lines[1].get("rows").is_some(), "{out}");
        assert_eq!(lines[2].get("verified"), Some(&Json::Bool(true)));
        assert_eq!(lines[2].get("edits"), Some(&Json::Num(1.0)));
        // The optimizer trajectory renders as JSON too, one move a line.
        let out = run(&[
            "explore".into(),
            p,
            "--optimize".into(),
            "--moves".into(),
            "8".into(),
            "--seed".into(),
            "7".into(),
            "--report".into(),
            "json".into(),
        ])
        .unwrap();
        let lines: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 10, "opened + 8 moves + summary: {out}");
        for (i, m) in lines[1..9].iter().enumerate() {
            assert_eq!(m.get("move"), Some(&Json::Num(i as f64)), "{out}");
            assert!(m.get("action").is_some(), "{out}");
            assert!(m.get("tau_after").is_some(), "{out}");
            assert!(matches!(m.get("accepted"), Some(Json::Bool(_))), "{out}");
        }
        let summary = &lines[9];
        assert_eq!(summary.get("verified"), Some(&Json::Bool(true)));
        assert_eq!(summary.get("initial"), Some(&Json::Num(10.0)));
        assert_eq!(summary.get("proposed"), Some(&Json::Num(8.0)));
        let final_tau = summary.get("final").and_then(Json::as_f64).unwrap();
        assert!(final_tau <= 10.0, "{out}");
    }

    #[test]
    fn analyze_ckt_file() {
        let dir = std::env::temp_dir().join("tsg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("osc.ckt");
        let nl = tsg_circuit::library::c_element_oscillator();
        std::fs::write(&path, tsg_circuit::parse::write_ckt(&nl)).unwrap();
        let out = run(&[
            "analyze".into(),
            path.to_string_lossy().into_owned(),
            "--diagram".into(),
        ])
        .unwrap();
        assert!(out.contains("cycle time: 10"), "{out}");
        assert!(out.contains("timing diagram"));
    }
}

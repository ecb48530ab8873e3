//! The analysis operations behind both the one-shot CLI and the serve
//! worker loop.
//!
//! `tsg analyze` / `tsg sim` and the `tsg serve` request router execute
//! the *same* functions from this module, so a served response is
//! byte-identical to the one-shot command on the same input. Each
//! operation has one entry point: [`report_in`] renders an analysis on
//! a caller's [`AnalysisArena`], [`apply_struct_edits`] applies a
//! session edit batch. The only difference between the front-ends is
//! the arena's life:
//!
//! * the one-shot CLI builds one [`AnalysisArena`] per command;
//! * a serve worker drives a persistent [`Workspace`] — one warm
//!   [`AnalysisArena`] (the two-row window and origin strip of the `b`
//!   lockstep border simulations plus the scalar finish arena) and a
//!   pre-sized netlist event queue — through [`Workspace::analyze`] /
//!   [`Workspace::simulate`]. `.g` simulations need no warm state:
//!   [`TimingSimulation::run`] builds its evaluation structure and
//!   period rows per request.
//!
//! Either way an analysis runs its `b` lanes in one lockstep pass on
//! the calling thread; serve scales across requests, not within one.
//!
//! Both arenas run the kernel backend [`KernelBackend::detect`] picks;
//! no flag or request field selects another.
//!
//! [`KernelBackend::detect`]: tsg_core::analysis::KernelBackend::detect

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use tsg_core::analysis::diagram::{self, DiagramOptions};
use tsg_core::analysis::session::{AnalysisSession, CycleTimeDelta, EditError, GraphEdit};
use tsg_core::analysis::sim::{SimError, TimingSimulation};
use tsg_core::analysis::slack::SlackAnalysis;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::{
    AnalysisError, Corner, CycleTime, CycleTimeAnalysis, ScenarioAnalysis, ScenarioSet,
};
use tsg_core::{decimal, ArcId, EventId, SignalGraph};
use tsg_sim::{CancelKind, CancelToken, TraceRecorder};

/// Error of a workspace operation: either a plain user-facing message
/// (rendered exactly as before this type existed) or a structured
/// cooperative cancellation the serve tier maps to a coded response.
#[derive(Clone, Debug, PartialEq)]
pub enum OpError {
    /// Plain failure text.
    Msg(String),
    /// The operation observed its cancel token mid-compute.
    Cancelled {
        /// Why the token fired.
        kind: CancelKind,
        /// Work units done at the abort: lockstep matrix rows for
        /// analyses, period rows for `.g` simulations.
        done: u64,
        /// Units a complete run performs.
        total: u64,
    },
}

impl From<String> for OpError {
    fn from(msg: String) -> Self {
        OpError::Msg(msg)
    }
}

impl From<AnalysisError> for OpError {
    fn from(e: AnalysisError) -> Self {
        match e {
            AnalysisError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => OpError::Cancelled {
                kind,
                done: rows_done as u64,
                total: rows_total as u64,
            },
            other => OpError::Msg(other.to_string()),
        }
    }
}

impl From<EditError> for OpError {
    fn from(e: EditError) -> Self {
        match e {
            EditError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => OpError::Cancelled {
                kind,
                done: rows_done as u64,
                total: rows_total as u64,
            },
            other => OpError::Msg(other.to_string()),
        }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Msg(m) => f.write_str(m),
            OpError::Cancelled { kind, done, total } => {
                write!(f, "{kind} after {done} of {total} work unit(s)")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// A request's specification: text the caller already holds. The
/// server reads no files; the CLI reads its FILE arguments itself.
#[derive(Clone, Debug)]
pub enum Source {
    /// The text and the name whose extension selects the parser (`.g`
    /// vs `.ckt`).
    Inline {
        /// Name used for format detection and error messages.
        name: String,
        /// The specification text itself.
        text: String,
    },
}

/// One label-addressed delay edit of a `session.edit` request or a
/// `tsg explore --edit` flag: set the delay of the arc `src -> dst`.
#[derive(Clone, Debug, PartialEq)]
pub struct EditSpec {
    /// Label of the arc's source event (e.g. `"a+"`).
    pub src: String,
    /// Label of the arc's destination event.
    pub dst: String,
    /// The new delay.
    pub delay: f64,
}

impl EditSpec {
    /// Parses the CLI form `SRC->DST=DELAY` (e.g. `a+->c+=3.5`).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for malformed specs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let err = || format!("--edit takes SRC->DST=DELAY, got {spec:?}");
        let (arc, delay) = spec.rsplit_once('=').ok_or_else(err)?;
        let (src, dst) = arc.split_once("->").ok_or_else(err)?;
        if src.is_empty() || dst.is_empty() {
            return Err(err());
        }
        Ok(EditSpec {
            src: src.to_owned(),
            dst: dst.to_owned(),
            delay: delay.parse().map_err(|_| err())?,
        })
    }
}

/// One label-addressed operation of a `session.edit` batch: a delay
/// assignment (the untyped legacy `{src, dst, delay}` form) or a
/// structural mutation (`{"op": ...}` objects). Labels of events a
/// preceding [`AddEvent`](EditOp::AddEvent) in the *same* batch
/// introduces resolve too, so one batch can splice a pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub enum EditOp {
    /// Set the delay of the arc `src -> dst`.
    Delay(EditSpec),
    /// Add an arc between the named events.
    AddArc {
        /// Source event label.
        src: String,
        /// Destination event label.
        dst: String,
        /// The new arc's delay.
        delay: f64,
        /// Whether the arc carries an initial token.
        marked: bool,
    },
    /// Remove the (first) arc between the named events.
    RemoveArc {
        /// Source event label.
        src: String,
        /// Destination event label.
        dst: String,
    },
    /// Add a repetitive event with the given label.
    AddEvent {
        /// The new event's label.
        label: String,
    },
    /// Remove the named event (it must have no live arcs left).
    RemoveEvent {
        /// The event's label.
        label: String,
    },
}

/// Resolves a batch of label-addressed [`EditOp`]s against `session`'s
/// graph — labels introduced by earlier `AddEvent` ops in the batch
/// resolve to their yet-to-exist ids, which [`SignalGraph::add_event`]
/// assigns densely — and applies them through
/// [`AnalysisSession::edit_structure`] as one transaction (an all-delay
/// batch takes the session's delay path there).
///
/// # Errors
///
/// Returns unresolvable labels and rejected batches as
/// [`OpError::Msg`] (the session is unchanged), or
/// [`OpError::Cancelled`] when `cancel` fires mid-rerun (batch applied,
/// analysis stale until the next uncancelled edit heals it).
fn apply_ops(
    session: &mut AnalysisSession,
    ops: &[EditOp],
    cancel: Option<&CancelToken>,
) -> Result<CycleTimeDelta, OpError> {
    // Events an AddEvent earlier in the batch introduces get the next
    // dense ids, so later ops can address them by label already.
    let mut pending: HashMap<&str, EventId> = HashMap::new();
    let mut next_id = session.graph().event_count() as u32;
    let mut edits: Vec<GraphEdit> = Vec::with_capacity(ops.len());
    for op in ops {
        let lookup = |label: &str| {
            session
                .graph()
                .event_by_label(label)
                .or_else(|| pending.get(label).copied())
                .ok_or_else(|| EditError::NoSuchEvent(label.to_owned()).to_string())
        };
        match op {
            EditOp::Delay(spec) => {
                let arc = session
                    .resolve_arc(&spec.src, &spec.dst)
                    .map_err(|e| e.to_string())?;
                edits.push(GraphEdit::Delay {
                    arc,
                    delay: spec.delay,
                });
            }
            EditOp::AddArc {
                src,
                dst,
                delay,
                marked,
            } => {
                let (s, d) = (lookup(src)?, lookup(dst)?);
                edits.push(GraphEdit::AddArc {
                    src: s,
                    dst: d,
                    delay: *delay,
                    marked: *marked,
                });
            }
            EditOp::RemoveArc { src, dst } => {
                let arc = session.resolve_arc(src, dst).map_err(|e| e.to_string())?;
                edits.push(GraphEdit::RemoveArc { arc });
            }
            EditOp::AddEvent { label } => {
                pending.insert(label, EventId(next_id));
                next_id += 1;
                edits.push(GraphEdit::AddEvent {
                    label: label.clone(),
                });
            }
            EditOp::RemoveEvent { label } => {
                let event = lookup(label)?;
                edits.push(GraphEdit::RemoveEvent { event });
            }
        }
    }
    Ok(session.edit_structure(&edits, cancel)?)
}

/// Applies one label-addressed edit batch to `session` (see
/// [`EditOp`]), errors rendered as plain messages — what `tsg explore
/// --edit` calls; `session.edit` requests take the same path with the
/// request's cancel token.
///
/// # Errors
///
/// Returns unresolvable labels and rejected batches as user-facing
/// messages; the session is unchanged then.
pub fn apply_struct_edits(
    session: &mut AnalysisSession,
    ops: &[EditOp],
) -> Result<CycleTimeDelta, String> {
    apply_ops(session, ops, None).map_err(|e| e.to_string())
}

/// Checks that `session`'s analysis is bit-identical to a
/// from-scratch run on its current graph — the self-verification both
/// `tsg explore` and `session.explore` end with.
///
/// # Errors
///
/// Returns a user-facing divergence message (an internal-error class
/// that must never happen).
pub fn verify_session(session: &AnalysisSession) -> Result<(), String> {
    let scratch = CycleTimeAnalysis::run(session.graph()).map_err(|e| e.to_string())?;
    let incremental = session.analysis();
    if incremental.cycle_time().as_f64().to_bits() != scratch.cycle_time().as_f64().to_bits()
        || incremental.critical_cycle() != scratch.critical_cycle()
    {
        return Err(format!(
            "internal error: incremental analysis diverged from scratch ({} vs {})",
            incremental.cycle_time(),
            scratch.cycle_time()
        ));
    }
    // When scenarios are enabled, every scenario's analysis must match
    // a scratch sweep too.
    if let (Some(set), Some(sa)) = (session.scenario_set(), session.scenario_analysis()) {
        let scratch = CycleTimeAnalysis::run_scenarios_in(
            session.graph(),
            set,
            &mut AnalysisArena::new(),
            None,
        )
        .map_err(|e| e.to_string())?;
        for j in 0..sa.len() {
            let (inc, ref_) = (sa.analysis(j), scratch.analysis(j));
            if inc.cycle_time().as_f64().to_bits() != ref_.cycle_time().as_f64().to_bits()
                || inc.critical_cycle() != ref_.critical_cycle()
            {
                return Err(format!(
                    "internal error: scenario {} diverged from scratch ({} vs {})",
                    sa.label(j),
                    inc.cycle_time(),
                    ref_.cycle_time()
                ));
            }
        }
    }
    Ok(())
}

/// What the [`explore_session`] loop's accept/reject decisions minimise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Objective {
    /// The nominal cycle time τ.
    #[default]
    Tau,
    /// The 95th-percentile τ over the session's sampled delay
    /// scenarios — robust optimization: a move only counts if it helps
    /// under delay variation, not just at nominal.
    TauP95,
}

impl Objective {
    /// The flag/wire name (`tau`, `tau-p95`).
    pub fn name(self) -> &'static str {
        match self {
            Objective::Tau => "tau",
            Objective::TauP95 => "tau-p95",
        }
    }

    /// Parses the flag form.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the supported objectives.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tau" => Ok(Objective::Tau),
            "tau-p95" => Ok(Objective::TauP95),
            other => Err(format!(
                "unknown objective {other:?} (expected \"tau\", the cycle time, or \
                 \"tau-p95\", the 95th-percentile cycle time over sampled scenarios)"
            )),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The scalar a session state scores as under `objective`. `TauP95`
/// falls back to the nominal τ when no scenarios are enabled, so the
/// objective is total either way.
fn objective_value(session: &AnalysisSession, objective: Objective) -> f64 {
    match objective {
        Objective::Tau => session.analysis().cycle_time().as_f64(),
        Objective::TauP95 => session.scenario_analysis().map_or_else(
            || session.analysis().cycle_time().as_f64(),
            |sa| sa.tau_quantile(0.95),
        ),
    }
}

/// Flags of an `analyze` invocation (CLI flags or request fields).
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Render a 3-period timing diagram.
    pub diagram: bool,
    /// Append the graph in DOT form.
    pub dot: bool,
    /// Cross-check τ with the two exact, polynomial baselines (Howard's
    /// policy iteration and Karp's algorithm).
    pub baselines: bool,
    /// Run the per-arc slack analysis.
    pub slack: bool,
    /// Delay assigned to arcs without a `.delay` annotation.
    pub default_delay: f64,
    /// Delay corners to sweep, one analysis per corner, alongside the
    /// nominal analysis (`--corners min,typ,max`). Empty = no corner sweep.
    /// Takes precedence over `samples` when both are given.
    pub corners: Vec<Corner>,
    /// Derate percentage of the min/max corners — and the jitter
    /// percentage of sampled scenarios (`--derate`).
    pub derate: f64,
    /// Number of seeded Monte-Carlo delay scenarios to sweep
    /// (`--samples`; `0` = off).
    pub samples: usize,
    /// Seed of the sampled scenarios' per-scenario RNG streams (`--seed`).
    pub seed: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            diagram: false,
            dot: false,
            baselines: false,
            slack: false,
            default_delay: 1.0,
            corners: Vec::new(),
            derate: 10.0,
            samples: 0,
            seed: 0,
        }
    }
}

/// The scenario set an `analyze` invocation's flags ask for: corners
/// win over samples, neither means `None` (nominal-only analysis).
///
/// # Errors
///
/// Returns invalid specifications (derate outside `[0, 100)`) as
/// user-facing messages.
pub fn scenario_set_for(opts: &AnalyzeOptions) -> Result<Option<ScenarioSet>, String> {
    if !opts.corners.is_empty() {
        ScenarioSet::corners(opts.derate, &opts.corners)
            .map(Some)
            .map_err(|e| e.to_string())
    } else if opts.samples > 0 {
        ScenarioSet::samples(opts.samples, opts.seed, opts.derate)
            .map(Some)
            .map_err(|e| e.to_string())
    } else {
        Ok(None)
    }
}

/// Flags of a `sim` invocation, shared by every input file.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Periods to simulate (`.g` inputs only).
    pub periods: Option<u32>,
    /// Simulation horizon (`.ckt` inputs only).
    pub horizon: Option<f64>,
    /// Dump a VCD waveform to this path (one-shot CLI only; the serve
    /// protocol has no `vcd` field).
    pub vcd: Option<String>,
    /// Delay for unannotated arcs (`.g` inputs only).
    pub default_delay: Option<f64>,
}

/// Parses `text` as the format `file`'s extension names and returns the
/// Signal Graph (netlists go through semimodularity checking and the
/// TRASPEC-style extraction first).
///
/// # Errors
///
/// Returns parse/extraction failures as user-facing messages.
pub fn load(file: &str, text: &str, default_delay: f64) -> Result<SignalGraph, String> {
    if file.ends_with(".ckt") {
        let nl = tsg_circuit::parse::parse_ckt(text).map_err(|e| e.to_string())?;
        if nl.signal_count() <= 24 {
            let rep = tsg_extract::explore(&nl, 2_000_000);
            if !rep.is_semimodular() {
                return Err(format!(
                    "circuit is not semimodular ({} violation(s)); not speed-independent",
                    rep.violations.len()
                ));
            }
        }
        tsg_extract::extract(&nl, tsg_extract::ExtractOptions::default()).map_err(|e| e.to_string())
    } else {
        tsg_stg::parse_stg(text, tsg_stg::StgOptions { default_delay }).map_err(|e| e.to_string())
    }
}

/// The analysis failures that abort a report instead of rendering
/// inline: a fired cancel token, a cycle length that overflows, an
/// overflowing scenario delay, and an analysis over the cell budget.
fn report_abort(err: &AnalysisError) -> Option<OpError> {
    match err {
        AnalysisError::Cancelled { .. } => Some(err.clone().into()),
        AnalysisError::NonFiniteCycleLength { .. }
        | AnalysisError::ScenarioDelay { .. }
        | AnalysisError::TooLarge { .. } => Some(OpError::Msg(format!("analysis failed: {err}"))),
        _ => None,
    }
}

/// The `tsg analyze` report on `arena`: the nominal analysis and, when
/// `opts` asks for a corner or sample sweep, one analysis per scenario,
/// all run on it.
///
/// # Errors
///
/// Returns an overflowing cycle length or scenario delay as
/// [`OpError::Msg`]; other analysis failures ("no cyclic behavior")
/// render inline.
pub fn report_in(
    sg: &SignalGraph,
    opts: &AnalyzeOptions,
    arena: &mut AnalysisArena,
) -> Result<String, OpError> {
    report_on(sg, opts, arena, None)
}

/// [`report_in`] under a cooperative cancel token: returns
/// [`OpError::Cancelled`] when `cancel` fires mid-analysis, mid-sweep,
/// mid-baseline or mid-slack.
fn report_on(
    sg: &SignalGraph,
    opts: &AnalyzeOptions,
    arena: &mut AnalysisArena,
    cancel: Option<&CancelToken>,
) -> Result<String, OpError> {
    let analysis = CycleTimeAnalysis::run_in_with_cancel(sg, None, arena, cancel);
    if let Some(abort) = analysis.as_ref().err().and_then(report_abort) {
        return Err(abort);
    }
    // The scenario sweep reuses the same warm arena the nominal
    // analysis just ran on; only a fired token and an overflowing delay
    // abort the report, everything else renders inline like the
    // nominal block (an overflowing scenario cycle and a sweep over the
    // cell budget included).
    let scenarios = match scenario_set_for(opts) {
        Ok(Some(set)) => match CycleTimeAnalysis::run_scenarios_in(sg, &set, arena, cancel) {
            Ok(sa) => Ok(Some(sa)),
            Err(e @ (AnalysisError::Cancelled { .. } | AnalysisError::ScenarioDelay { .. })) => {
                return Err(report_abort(&e).expect("both abort a report"))
            }
            Err(e) => Err(e.to_string()),
        },
        Ok(None) => Ok(None),
        Err(e) => Err(e),
    };
    let baselines = if opts.baselines {
        Some([
            tsg_baselines::howard_cycle_time_with_cancel(sg, cancel)?,
            tsg_baselines::karp_cycle_time_with_cancel(sg, cancel)?,
        ])
    } else {
        None
    };
    // Slack renders its other failures inline too.
    let slack = match opts.slack.then(|| SlackAnalysis::run(sg, cancel)) {
        Some(Err(e @ AnalysisError::Cancelled { .. })) => return Err(e.into()),
        slack => slack,
    };
    render_report(sg, opts, analysis, scenarios, baselines, slack).map_err(OpError::Msg)
}

/// Renders a report; fails only when the timing diagram cannot be drawn.
fn render_report(
    sg: &SignalGraph,
    opts: &AnalyzeOptions,
    analysis: Result<CycleTimeAnalysis, AnalysisError>,
    scenarios: Result<Option<ScenarioAnalysis>, String>,
    baselines: Option<[Option<CycleTime>; 2]>,
    slack: Option<Result<SlackAnalysis, AnalysisError>>,
) -> Result<String, String> {
    let mut out = String::new();
    // A successful analysis already holds the border set; only a failed
    // one needs it recomputed.
    let borders = match &analysis {
        Ok(a) => a.border_events().len(),
        Err(_) => sg.border_events().len(),
    };
    let _ = writeln!(
        out,
        "graph: {} events, {} arcs, {borders} border event(s)",
        sg.event_count(),
        sg.arc_count(),
    );
    match analysis {
        Ok(a) => {
            let _ = writeln!(out, "cycle time: {}", a.cycle_time());
            out.push_str("critical cycle: ");
            out.push_str(&sg.display_path(a.critical_cycle()));
            out.push('\n');
            out.push_str("critical border event(s): ");
            for (k, &e) in a.critical_borders().iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}", sg.label(e));
            }
            out.push('\n');
            for rec in a.records() {
                // The label left-aligned in 6 chars, as `{:<6}` pads a
                // string, without allocating one per record.
                out.push_str("  ");
                let start = out.len();
                let _ = write!(out, "{}", sg.label(rec.event));
                let width = out[start..].chars().count();
                out.extend(std::iter::repeat_n(' ', 6usize.saturating_sub(width) + 1));
                // `δ({i})={t}/{i}={d:.4}` per cell, without `core::fmt`
                // on the common path: b² cells make this the report's
                // bulk.
                out.reserve(rec.distances.len() * 28);
                for (k, &(i, t, d)) in rec.distances.iter().enumerate() {
                    out.push_str(if k == 0 { "δ(" } else { "  δ(" });
                    let i = f64::from(i);
                    decimal::push_display(&mut out, i);
                    out.push_str(")=");
                    decimal::push_display(&mut out, t);
                    out.push('/');
                    decimal::push_display(&mut out, i);
                    out.push('=');
                    decimal::push_fixed4(&mut out, d);
                }
                out.push('\n');
            }
        }
        Err(e) => {
            let _ = writeln!(out, "cycle time: undefined ({e})");
        }
    }
    match scenarios {
        Ok(None) => {}
        Ok(Some(sa)) => {
            if opts.corners.is_empty() {
                let _ = writeln!(
                    out,
                    "scenarios: {} sample(s), jitter {}%, seed {}",
                    sa.len(),
                    opts.derate,
                    opts.seed
                );
            } else {
                let _ = writeln!(
                    out,
                    "scenarios: {} corner(s), derate {}%",
                    sa.len(),
                    opts.derate
                );
            }
            write_tau_distribution(&mut out, &sa);
            if !opts.corners.is_empty() {
                for j in 0..sa.len() {
                    let _ = writeln!(
                        out,
                        "  {:<6} tau {}",
                        sa.label(j),
                        sa.analysis(j).cycle_time()
                    );
                }
            }
            let _ = writeln!(out, "arc criticality:");
            for (a, p) in sa.criticality() {
                let arc = sg.arc(a);
                let _ = writeln!(
                    out,
                    "  {} -> {} : {:.2}",
                    sg.label(arc.src()),
                    sg.label(arc.dst()),
                    p
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "scenarios: unavailable ({e})");
        }
    }
    if let Some([howard, karp]) = baselines {
        let _ = writeln!(out, "baselines:");
        if let Some(t) = howard {
            let _ = writeln!(out, "  howard        : {}", t.as_f64());
        }
        if let Some(t) = karp {
            let _ = writeln!(out, "  karp          : {}", t.as_f64());
        }
    }
    if let Some(slack) = slack {
        match slack {
            Ok(sa) => {
                let critical = sa.critical_arcs(1e-9);
                let _ = writeln!(
                    out,
                    "slack: {} of {} cyclic arcs are timing-critical",
                    critical.len(),
                    sg.arc_ids().filter(|&a| sa.slack(a).is_some()).count()
                );
                for a in sg.arc_ids() {
                    if let Some(s) = sa.slack(a) {
                        let arc = sg.arc(a);
                        let _ = writeln!(
                            out,
                            "  {} -> {} : {}",
                            sg.label(arc.src()),
                            sg.label(arc.dst()),
                            if s <= 1e-9 {
                                "CRITICAL".to_owned()
                            } else {
                                format!("slack {s}")
                            }
                        );
                    }
                }
            }
            Err(e) => {
                let _ = writeln!(out, "slack: unavailable ({e})");
            }
        }
    }
    if opts.diagram && sg.repetitive_count() > 0 {
        let sim = TimingSimulation::run(sg, 3, None)
            .map_err(|e| format!("timing diagram failed: {e}"))?;
        let text =
            diagram::render(sg, &sim, DiagramOptions::default()).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "timing diagram (3 periods):");
        out.push_str(&text);
    }
    if opts.dot {
        out.push_str(&tsg_core::dot::to_dot(sg, "tsg"));
    }
    Ok(out)
}

/// Workspace key of connection `conn`'s session `name`.
fn session_key(conn: u64, name: &str) -> String {
    format!("{conn}/{name}")
}

/// The cycle-time summary lines every session response carries — also
/// what `tsg explore` prints per step, so both front-ends describe a
/// session state identically.
pub fn session_summary(session: &AnalysisSession) -> String {
    let analysis = session.analysis();
    let mut out = String::new();
    let _ = writeln!(out, "cycle time: {}", analysis.cycle_time());
    let _ = writeln!(
        out,
        "critical cycle: {}",
        session.graph().display_path(analysis.critical_cycle())
    );
    out
}

/// One proposed move of [`explore_session`]'s trajectory — what the
/// explorer tried, what it did to the objective, and how much
/// re-simulation scoring it cost.
#[derive(Clone, Debug)]
pub struct MoveRecord {
    /// Move number, 0-based.
    pub index: usize,
    /// Human-readable description of the proposed edit batch.
    pub action: String,
    /// Objective (cycle time) before the move.
    pub tau_before: f64,
    /// Objective after the move — equals `tau_before` when rejected
    /// (the session was rolled back).
    pub tau_after: f64,
    /// The critical cycle after the move, rendered as a path.
    pub critical: String,
    /// Whether the move improved the objective and was kept.
    pub accepted: bool,
    /// Lane rows the scoring re-analysis computed (0 when the proposal
    /// was rejected before any scoring finished).
    pub rows: usize,
    /// Rows of a full analysis of the edited graph (0 when rejected).
    pub rows_total: usize,
}

/// Result of [`explore_session`]'s loop: the accepted-move trajectory and the
/// objective's endpoints.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Cycle time when the loop started.
    pub initial: f64,
    /// Cycle time of the committed final state (≤ `initial`: only
    /// strict improvements are kept).
    pub final_tau: f64,
    /// Moves that improved the objective and were committed.
    pub accepted: usize,
    /// Every proposed move, in order.
    pub trajectory: Vec<MoveRecord>,
}

/// SplitMix64 — the deterministic inline generator seeding the move
/// proposals, so `--seed` reproduces a whole optimization run exactly.
/// Public because the CLI reuses it for decorrelated retry jitter:
/// one tiny, dependency-free generator for every non-cryptographic use.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next raw 64-bit draw (an RNG, not an iterator — there is no
    /// sensible `Iterator` impl for an infinite entropy stream here).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw uniform in `0..n` (`n = 0` is treated as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The live arcs of the cyclic part — the only arcs whose mutation can
/// move the cycle time, hence the move generator's candidate pool.
fn cyclic_arcs(sg: &SignalGraph) -> Vec<ArcId> {
    sg.arc_ids()
        .filter(|&a| {
            let arc = sg.arc(a);
            sg.is_live_arc(a)
                && !arc.is_disengageable()
                && sg.is_repetitive(arc.src())
                && sg.is_repetitive(arc.dst())
        })
        .collect()
}

/// Proposes one speculative edit batch: a delay nudge, an arc rewire,
/// or a pipeline-stage insertion. Proposals may be structurally invalid
/// (rewires especially) — the optimizer scores through the session's
/// transactional edit API, so a rejected batch just counts as a
/// rejected move.
fn propose_move(
    session: &AnalysisSession,
    rng: &mut SplitMix64,
    fresh: &mut u64,
) -> (String, Vec<GraphEdit>) {
    let sg = session.graph();
    let arcs = cyclic_arcs(sg);
    let a = arcs[rng.below(arcs.len() as u64) as usize];
    let arc = sg.arc(a);
    let (src, dst) = (arc.src(), arc.dst());
    let name = |e: EventId| sg.label(e).to_string();
    match rng.below(3) {
        0 => {
            // Delay nudge: speed the arc up by a quarter.
            let delay = arc.delay().get() * 0.75;
            (
                format!("nudge {}->{} to {delay}", name(src), name(dst)),
                vec![GraphEdit::Delay { arc: a, delay }],
            )
        }
        1 => {
            // Pipeline-stage insertion: split the arc through a fresh
            // event and mark the second half — one more token on the
            // cycle, the classical throughput move.
            let label = loop {
                *fresh += 1;
                let candidate = format!("p{fresh}");
                if sg.event_by_label(&candidate).is_none() {
                    break candidate;
                }
            };
            let mid = EventId(sg.event_count() as u32);
            let half = arc.delay().get() / 2.0;
            (
                format!("split {}->{} through {label}", name(src), name(dst)),
                vec![
                    GraphEdit::RemoveArc { arc: a },
                    GraphEdit::AddEvent {
                        label: label.clone(),
                    },
                    GraphEdit::AddArc {
                        src,
                        dst: mid,
                        delay: half,
                        marked: arc.is_marked(),
                    },
                    GraphEdit::AddArc {
                        src: mid,
                        dst,
                        delay: half,
                        marked: true,
                    },
                ],
            )
        }
        _ => {
            // Arc rewire: retarget the arc at another repetitive event.
            // Often invalid (liveness/connectivity) — rejection-tolerant
            // by design.
            let events: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
            let new_dst = events[rng.below(events.len() as u64) as usize];
            (
                format!(
                    "rewire {}->{} to {}->{}",
                    name(src),
                    name(dst),
                    name(src),
                    name(new_dst)
                ),
                vec![
                    GraphEdit::RemoveArc { arc: a },
                    GraphEdit::AddArc {
                        src,
                        dst: new_dst,
                        delay: arc.delay().get(),
                        marked: arc.is_marked(),
                    },
                ],
            )
        }
    }
}

/// The speculative design-exploration loop of [`explore_session`]: propose `moves` random candidate
/// edits (delay nudges, arc rewires, pipeline-stage insertions), score
/// each by re-analysing the session against a snapshot, commit the ones
/// that strictly lower the `objective` and roll the rest back. The
/// accepted-objective trajectory is monotone non-increasing by
/// construction, so `final_tau <= initial` always holds — with
/// [`Objective::TauP95`] the scored value is the 95th-percentile τ over
/// the session's enabled scenarios (nominal τ if none are).
///
/// `cancel` is polled between moves: a fired token stops proposing and
/// returns the trajectory so far — the session is never left mid-move,
/// so no healing is needed.
fn optimize_session(
    session: &mut AnalysisSession,
    moves: usize,
    seed: u64,
    objective: Objective,
    cancel: Option<&CancelToken>,
) -> OptimizeOutcome {
    let mut rng = SplitMix64(seed ^ 0xD6E8_FEB8_6659_FD93);
    let initial = objective_value(session, objective);
    let mut trajectory = Vec::with_capacity(moves);
    let mut accepted = 0usize;
    let mut fresh = 0u64;
    for index in 0..moves {
        if cancel.is_some_and(|t| t.check().is_some()) {
            break;
        }
        let tau_before = objective_value(session, objective);
        let (action, batch) = propose_move(session, &mut rng, &mut fresh);
        let snap = session.snapshot();
        // A rejected batch rolls itself back; a scored one that does
        // not improve is rolled back to the snapshot. Only strict
        // improvements survive, so the committed objective never
        // climbs. Scoring a move re-runs the scenario sweep too (the
        // session repeats it per edit batch), so TauP95 sees the
        // move's effect across the whole delay distribution.
        let scored = session.edit_structure(&batch, None).ok();
        let improved = scored.is_some() && objective_value(session, objective) < tau_before;
        let (rows, rows_total) = scored.map_or((0, 0), |d| (d.rows, d.rows_total));
        if improved {
            accepted += 1;
        } else if scored.is_some() {
            session.restore(snap);
        }
        trajectory.push(MoveRecord {
            index,
            action,
            tau_before,
            tau_after: objective_value(session, objective),
            critical: session
                .graph()
                .display_path(session.analysis().critical_cycle())
                .to_string(),
            accepted: improved,
            rows,
            rows_total,
        });
    }
    OptimizeOutcome {
        initial,
        final_tau: objective_value(session, objective),
        accepted,
        trajectory,
    }
}

/// The exploration operation behind `tsg explore --optimize` and
/// `session.explore`: with [`Objective::TauP95`] and no scenarios yet,
/// enables `samples` seeded delay scenarios (kept enabled afterwards,
/// so the distribution summary reflects the final state); runs the
/// speculative move loop; and renders its text report — the objective
/// line (when scenarios are on), one line per move, the
/// outcome, the session summary and the τ distribution.
///
/// # Errors
///
/// Returns a scenario-enablement failure for `tau-p95` as a message.
pub fn explore_session(
    session: &mut AnalysisSession,
    moves: usize,
    seed: u64,
    objective: Objective,
    samples: usize,
    cancel: Option<&CancelToken>,
) -> Result<(OptimizeOutcome, String), String> {
    if objective == Objective::TauP95 && session.scenario_analysis().is_none() {
        let set = ScenarioSet::samples(samples.max(1), seed, 10.0).map_err(|e| e.to_string())?;
        session
            .enable_scenarios(&set, None)
            .map_err(|e| e.to_string())?;
    }
    let mut out = String::new();
    if let Some(sa) = session.scenario_analysis() {
        let scenarios = sa.len();
        let _ = writeln!(out, "objective: {objective} over {scenarios} scenario(s)");
    }
    let outcome = optimize_session(session, moves, seed, objective, cancel);
    for m in &outcome.trajectory {
        let _ = writeln!(
            out,
            "move {}: {}: tau {} -> {} ({}, {} of {} rows)",
            m.index,
            m.action,
            m.tau_before,
            m.tau_after,
            if m.accepted { "accepted" } else { "rejected" },
            m.rows,
            m.rows_total
        );
    }
    let _ = writeln!(
        out,
        "optimized: tau {} -> {} after {} accepted of {} proposed move(s)",
        outcome.initial,
        outcome.final_tau,
        outcome.accepted,
        outcome.trajectory.len()
    );
    out.push_str(&session_summary(session));
    if let Some(sa) = session.scenario_analysis() {
        write_tau_distribution(&mut out, sa);
    }
    Ok((outcome, out))
}

/// The `tau distribution:` line of a scenario analysis.
fn write_tau_distribution(out: &mut String, sa: &ScenarioAnalysis) {
    let _ = writeln!(
        out,
        "tau distribution: mean {:.4}  p50 {:.4}  p95 {:.4}  max {:.4}",
        sa.tau_mean(),
        sa.tau_quantile(0.5),
        sa.tau_quantile(0.95),
        sa.tau_quantile(1.0)
    );
}

/// A serve worker's persistent scratch state: the warm arena and the
/// netlist event queue every request executes on.
///
/// After the first request of each shape ("warm-up"), replaying a
/// request of the same or smaller shape performs no arena or queue
/// allocation — the capacity accessors exist so tests can assert exactly
/// that.
#[derive(Debug, Default)]
pub struct Workspace {
    arena: AnalysisArena,
    netlist: Option<tsg_circuit::SimQueue>,
    /// Open incremental sessions, keyed `"{conn}/{name}"` — the
    /// dispatcher pins every request naming one session to one worker,
    /// so a session's whole life happens inside a single workspace.
    sessions: HashMap<String, AnalysisSession>,
}

impl Workspace {
    /// An empty workspace; the first request of each kind warms it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the analysis arena's buffers: `(wide lane-major time
    /// cells, scalar time cells, scalar parent cells)`.
    pub fn arena_capacity(&self) -> (usize, usize, usize) {
        self.arena.capacity()
    }

    /// Capacity of the warm netlist simulation queue (`None` until a
    /// `.ckt` sim request warmed it).
    pub fn netlist_queue_capacity(&self) -> Option<usize> {
        self.netlist.as_ref().map(tsg_circuit::SimQueue::capacity)
    }

    /// `tsg analyze` on the warm arena. Byte-identical to the one-shot
    /// [`report_in`] on the same source and options.
    ///
    /// # Errors
    ///
    /// Returns parse failures as [`OpError::Msg`], or
    /// [`OpError::Cancelled`] when `cancel` fires mid-analysis.
    pub fn analyze(
        &mut self,
        source: &Source,
        opts: &AnalyzeOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let Source::Inline { name, text } = source;
        let sg = load(name, text, opts.default_delay)?;
        report_on(&sg, opts, &mut self.arena, cancel)
    }

    /// `tsg sim` (netlists on the warm queue) — what the CLI runs per
    /// input file, in order on one workspace.
    ///
    /// Netlist (`.ckt`) simulations are not cancellable: their own
    /// 2 000 000-step cap already bounds them, so `cancel` only guards
    /// the signal-graph path.
    ///
    /// # Errors
    ///
    /// Returns parse/flag-validation failures as [`OpError::Msg`],
    /// or [`OpError::Cancelled`] when `cancel` fires mid-simulation.
    pub fn simulate(
        &mut self,
        source: &Source,
        opts: &SimOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let Source::Inline { name, text } = source;
        if name.ends_with(".ckt") {
            if opts.periods.is_some() {
                return Err(OpError::Msg(
                    "--periods applies to .g signal graphs; netlist simulations take --horizon"
                        .to_owned(),
                ));
            }
            if opts.default_delay.is_some() {
                return Err(OpError::Msg(
                    "--default-delay applies to .g signal graphs; netlists carry their own pin \
                     delays"
                        .to_owned(),
                ));
            }
            let nl = tsg_circuit::parse::parse_ckt(text).map_err(|e| e.to_string())?;
            self.simulate_netlist(&nl, opts).map_err(OpError::Msg)
        } else {
            if opts.horizon.is_some() {
                return Err(OpError::Msg(
                    "--horizon applies to .ckt netlists; signal-graph simulations take --periods"
                        .to_owned(),
                ));
            }
            let sg = tsg_stg::parse_stg(
                text,
                tsg_stg::StgOptions {
                    default_delay: opts.default_delay.unwrap_or(1.0),
                },
            )
            .map_err(|e| e.to_string())?;
            Self::simulate_graph(&sg, opts, cancel)
        }
    }

    /// Number of sessions currently open in this workspace.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// `session.open`: one full analysis, kept with its graph under
    /// `"{conn}/{name}"` for the edit batches to come.
    ///
    /// # Errors
    ///
    /// Returns parse/analysis failures — or a name collision — as
    /// [`OpError::Msg`], or [`OpError::Cancelled`] when `cancel` fires
    /// during the opening analysis (no session is kept in that case).
    pub fn session_open(
        &mut self,
        conn: u64,
        name: &str,
        source: &Source,
        default_delay: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let key = session_key(conn, name);
        if self.sessions.contains_key(&key) {
            return Err(OpError::Msg(format!("session {name:?} is already open")));
        }
        let Source::Inline { name: file, text } = source;
        let sg = load(file, text, default_delay)?;
        let session = AnalysisSession::open_in(sg, AnalysisArena::new(), cancel)?;
        let mut out = format!(
            "opened session {name:?}: {} events, {} arcs, {} border event(s)\n",
            session.graph().event_count(),
            session.graph().arc_count(),
            session.analysis().border_events().len()
        );
        out.push_str(&session_summary(&session));
        self.sessions.insert(key, session);
        Ok(out)
    }

    /// `session.edit`: applies one batch of label-addressed delay and
    /// structural edits as one transaction and re-runs the session's
    /// analysis on the edited graph. The `re-simulated` line counts that
    /// work: every border simulation and every lane row.
    ///
    /// # Errors
    ///
    /// Returns unknown-session, unresolvable-label and rejected-batch
    /// failures as [`OpError::Msg`] (the session survives them
    /// unchanged), or [`OpError::Cancelled`] when `cancel` fires
    /// mid-rerun — the edits *are* applied then, the session stays open
    /// with a stale analysis, and the next uncancelled edit (even an
    /// empty batch) heals it bit-identically.
    pub fn session_edit(
        &mut self,
        conn: u64,
        name: &str,
        edits: &[EditOp],
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let session = self
            .sessions
            .get_mut(&session_key(conn, name))
            .ok_or_else(|| format!("no open session {name:?}"))?;
        let delta = apply_ops(session, edits, cancel)?;
        let mut out = session_summary(session);
        let _ = writeln!(
            out,
            "re-simulated {} of {} border simulation(s) ({} of {} rows)",
            delta.dirty, delta.borders, delta.rows, delta.rows_total
        );
        Ok(out)
    }

    /// `session.explore`: runs [`explore_session`] on an open session
    /// and self-verifies the final state against a from-scratch
    /// analysis (every enabled scenario included).
    ///
    /// # Errors
    ///
    /// Returns an unknown-session message, or a scenario-enablement
    /// failure for `tau-p95`. A fired `cancel` merely stops proposing
    /// further moves — the moves already committed stay, the session is
    /// consistent, and the response reports the partial trajectory.
    #[allow(clippy::too_many_arguments)] // one knob per protocol field of session.explore
    pub fn session_explore(
        &mut self,
        conn: u64,
        name: &str,
        moves: usize,
        seed: u64,
        objective: Objective,
        samples: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let session = self
            .sessions
            .get_mut(&session_key(conn, name))
            .ok_or_else(|| format!("no open session {name:?}"))?;
        let (_, mut out) = explore_session(session, moves, seed, objective, samples, cancel)?;
        verify_session(session)?;
        let _ = writeln!(out, "verified: bit-identical to a from-scratch analysis");
        Ok(out)
    }

    /// `session.close`: discards the session.
    ///
    /// # Errors
    ///
    /// Returns an unknown-session message.
    pub fn session_close(&mut self, conn: u64, name: &str) -> Result<String, OpError> {
        let session = self
            .sessions
            .remove(&session_key(conn, name))
            .ok_or_else(|| OpError::Msg(format!("no open session {name:?}")))?;
        Ok(format!(
            "closed session {name:?} after {} edit(s)\n",
            session.edits_applied()
        ))
    }

    /// Drops every session a disconnected client left open — the pool
    /// broadcasts this to all workers when a connection ends — and
    /// returns how many were swept (the pool settles its session cap
    /// with the count).
    pub fn close_conn_sessions(&mut self, conn: u64) -> usize {
        let prefix = session_key(conn, "");
        let before = self.sessions.len();
        self.sessions.retain(|key, _| !key.starts_with(&prefix));
        before - self.sessions.len()
    }

    /// Gate-level event-driven simulation on the warm queue.
    fn simulate_netlist(
        &mut self,
        nl: &tsg_circuit::Netlist,
        opts: &SimOptions,
    ) -> Result<String, String> {
        let horizon = opts.horizon.unwrap_or(100.0);
        let queue = self.netlist.take().unwrap_or_default();
        let mut sim = tsg_circuit::EventDrivenSim::with_reused_queue(nl, queue);
        if opts.vcd.is_some() {
            sim.enable_trace();
        }
        let run = sim.run(horizon, 2_000_000);
        let recorder = sim.take_trace();
        // Reclaim the queue before any early return: error isolation must
        // not leak the warm allocation.
        self.netlist = Some(sim.into_queue());
        let trace = run.map_err(|e| format!("simulation failed: {e}"))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulated {} transition(s) on {} signal(s) to horizon {horizon}",
            trace.len(),
            nl.signal_count()
        );
        for s in nl.signals() {
            if let Some(period) = tsg_circuit::EventDrivenSim::steady_period(&trace, s, true) {
                let _ = writeln!(out, "  {:<8} steady period {period}", nl.name(s));
            }
        }
        if let Some(path) = &opts.vcd {
            recorder
                .expect("trace was enabled")
                .dump_vcd(path)
                .map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "VCD waveform written to {path}");
        }
        Ok(out)
    }

    /// Signal-graph timing simulation, `cancel` polled once per period.
    fn simulate_graph(
        sg: &SignalGraph,
        opts: &SimOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<String, OpError> {
        let periods = opts.periods.unwrap_or(4);
        let sim = TimingSimulation::run(sg, periods, cancel).map_err(|e| match e {
            SimError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => OpError::Cancelled {
                kind,
                done: rows_done as u64,
                total: rows_total as u64,
            },
            e => OpError::Msg(format!("simulation failed: {e}")),
        })?;
        let chron = sim.chronological(sg);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulated {} occurrence(s) of {} event(s) over {periods} period(s)",
            chron.len(),
            sg.event_count()
        );
        for (e, i, t) in &chron {
            let _ = writeln!(out, "  t({}_{i}) = {t}", sg.label(*e));
        }
        if let Some(path) = &opts.vcd {
            let mut recorder = TraceRecorder::new("tsg");
            sim.record_trace(sg, &mut recorder);
            recorder
                .dump_vcd(path)
                .map_err(|e| format!("writing {path}: {e}"))?;
            let _ = writeln!(out, "VCD waveform written to {path}");
        }
        Ok(out)
    }
}

//! Trigger-tracking Signal Graph extraction.
//!
//! The extraction runs a round-synchronous simulation of the netlist (all
//! excited gates fire together — a valid execution of any semimodular
//! circuit). When a gate becomes excited, the *critical* input signals are
//! recorded: those whose current value is individually necessary for the
//! excitation. AND-causality means every contributing pin is critical; an
//! excitation with an **empty** critical set is OR-caused and violates
//! distributivity, so it is rejected — the same contract as TRASPEC
//! (Section VIII.B).
//!
//! Each transition instance then knows its trigger instances, and the
//! periodic pattern folds directly into a Timed Signal Graph:
//!
//! * trigger in the same period → plain arc,
//! * trigger in the previous period → initially **marked** arc,
//! * support by an initial value (no transition yet) → marked arc from the
//!   event that re-establishes that value each period,
//! * trigger from a signal that stops transitioning → **disengageable**
//!   arc from the corresponding prefix event,
//!
//! with every arc carrying the pin's propagation delay.

use std::collections::HashMap;
use std::fmt;

use tsg_circuit::{Netlist, SignalId};
use tsg_core::{SignalGraph, ValidationError};

/// Options for [`extract`].
#[derive(Clone, Copy, Debug)]
pub struct ExtractOptions {
    /// Simulation rounds; 0 selects `8 * (signals + 2)` automatically.
    pub max_rounds: usize,
    /// Minimum instances per repetitive event required to trust the fold
    /// (>= 3).
    pub min_instances: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            max_rounds: 0,
            min_instances: 4,
        }
    }
}

/// Extraction failures.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExtractError {
    /// An excitation had no individually critical pin: OR-causality, the
    /// behaviour is not distributive and has no Signal Graph.
    OrCausality {
        /// The output signal of the offending gate.
        signal: String,
    },
    /// The trigger pattern did not stabilise into a periodic shape.
    NotPeriodic {
        /// The signal whose pattern kept changing.
        signal: String,
    },
    /// A trigger reached back more than one period: the behaviour is not
    /// initially-safe as a Signal Graph.
    NotSafe {
        /// The signal with the long-range dependency.
        signal: String,
    },
    /// A finite (prefix) transition was triggered by a repetitive one —
    /// the well-formedness restriction of Section III.A.
    NotWellFormed {
        /// The prefix signal.
        signal: String,
    },
    /// A repetitive signal produced too few instances within the round
    /// budget.
    InsufficientActivity {
        /// The slow signal.
        signal: String,
    },
    /// The folded graph failed Signal Graph validation (indicates a bug or
    /// an exotic circuit outside the supported class).
    Structural(ValidationError),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::OrCausality { signal } => {
                write!(
                    f,
                    "OR-caused excitation of {signal:?}: circuit is not distributive"
                )
            }
            ExtractError::NotPeriodic { signal } => {
                write!(f, "trigger pattern of {signal:?} is not periodic")
            }
            ExtractError::NotSafe { signal } => {
                write!(f, "dependency of {signal:?} spans more than one period")
            }
            ExtractError::NotWellFormed { signal } => {
                write!(f, "finite signal {signal:?} is caused by a repetitive one")
            }
            ExtractError::InsufficientActivity { signal } => {
                write!(f, "signal {signal:?} transitioned too few times to fold")
            }
            ExtractError::Structural(e) => write!(f, "folded graph invalid: {e}"),
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Structural(e) => Some(e),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Trigger {
    pin_signal: SignalId,
    delay: f64,
    /// Record index of the causing transition; `None` = initial value.
    source: Option<usize>,
}

#[derive(Clone, Debug)]
struct Rec {
    signal: SignalId,
    value: bool,
    triggers: Vec<Trigger>,
}

/// Extracts the Timed Signal Graph of `netlist` (see module docs).
///
/// # Errors
///
/// Returns an [`ExtractError`] when the behaviour is not distributive, not
/// periodic, not initially-safe or not well-formed. Semimodularity is *not*
/// checked here (the canonical run cannot observe disabling); use
/// [`explore`](crate::explore::explore) for that guarantee first.
///
/// # Examples
///
/// ```
/// use tsg_circuit::library;
/// use tsg_core::analysis::CycleTimeAnalysis;
/// use tsg_extract::{extract, ExtractOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sg = extract(&library::c_element_oscillator(), ExtractOptions::default())?;
/// assert_eq!(sg.event_count(), 8);
/// assert_eq!(sg.arc_count(), 11);
/// assert_eq!(CycleTimeAnalysis::run(&sg)?.cycle_time().as_f64(), 10.0);
/// # Ok(())
/// # }
/// ```
pub fn extract(netlist: &Netlist, options: ExtractOptions) -> Result<SignalGraph, ExtractError> {
    let nsig = netlist.signal_count();
    let max_rounds = if options.max_rounds == 0 {
        8 * (nsig + 2)
    } else {
        options.max_rounds
    };
    let min_instances = options.min_instances.max(3);

    let mut state: Vec<bool> = netlist.initial_state().to_vec();
    let mut last_tr: Vec<Option<usize>> = vec![None; nsig];
    let mut recs: Vec<Rec> = Vec::new();
    let mut last_fire_round: Vec<Option<usize>> = vec![None; nsig];

    // Critical signals of an excited gate: inputs whose individual flip
    // removes the excitation.
    let critical = |gate: &tsg_circuit::Gate, state: &[bool]| -> Vec<SignalId> {
        let current = state[gate.output.index()];
        let mut out: Vec<SignalId> = Vec::new();
        let mut seen: Vec<SignalId> = Vec::new();
        for &pin in &gate.inputs {
            if seen.contains(&pin) {
                continue;
            }
            seen.push(pin);
            let mut probe: Vec<bool> = gate.inputs.iter().map(|s| state[s.index()]).collect();
            for (i, &s) in gate.inputs.iter().enumerate() {
                if s == pin {
                    probe[i] = !probe[i];
                }
            }
            if gate.kind.eval(&probe, current) == current {
                out.push(pin);
            }
        }
        out
    };

    let excitation = |gate: &tsg_circuit::Gate,
                      state: &[bool],
                      last_tr: &[Option<usize>]|
     -> Result<Option<Vec<Trigger>>, ExtractError> {
        let ins: Vec<bool> = gate.inputs.iter().map(|s| state[s.index()]).collect();
        let current = state[gate.output.index()];
        if gate.kind.eval(&ins, current) == current {
            return Ok(None);
        }
        let crit = critical(gate, state);
        if crit.is_empty() {
            return Err(ExtractError::OrCausality {
                signal: netlist.name(gate.output).to_owned(),
            });
        }
        let mut triggers = Vec::new();
        for (i, &pin) in gate.inputs.iter().enumerate() {
            if crit.contains(&pin) {
                triggers.push(Trigger {
                    pin_signal: pin,
                    delay: gate.pin_delays[i],
                    source: last_tr[pin.index()],
                });
            }
        }
        Ok(Some(triggers))
    };

    // exc[g]: triggers captured when gate g became excited.
    let mut exc: Vec<Option<Vec<Trigger>>> = Vec::with_capacity(netlist.gate_count());
    for g in netlist.gates() {
        exc.push(excitation(g, &state, &last_tr)?);
    }

    for round in 0..max_rounds {
        let mut fires: Vec<(SignalId, Vec<Trigger>)> = Vec::new();
        if round == 0 {
            for &e in netlist.env_flips() {
                fires.push((e, Vec::new()));
            }
        }
        for (slot, gate) in exc.iter_mut().zip(netlist.gates()) {
            if let Some(trigs) = slot.take() {
                fires.push((gate.output, trigs));
            }
        }
        if fires.is_empty() {
            break; // quiescent circuit
        }
        for (sig, triggers) in fires {
            state[sig.index()] = !state[sig.index()];
            let idx = recs.len();
            recs.push(Rec {
                signal: sig,
                value: state[sig.index()],
                triggers,
            });
            last_tr[sig.index()] = Some(idx);
            last_fire_round[sig.index()] = Some(round);
        }
        for (g, gate) in netlist.gates().iter().enumerate() {
            exc[g] = excitation(gate, &state, &last_tr)?;
        }
    }

    fold(
        netlist,
        &recs,
        &last_fire_round,
        max_rounds,
        nsig,
        min_instances,
    )
}

/// Folds the recorded unfolding into a Signal Graph.
fn fold(
    netlist: &Netlist,
    recs: &[Rec],
    last_fire_round: &[Option<usize>],
    max_rounds: usize,
    nsig: usize,
    min_instances: usize,
) -> Result<SignalGraph, ExtractError> {
    // Classify signals: repetitive = still firing near the end.
    let window = nsig + 2;
    let repetitive: Vec<bool> = (0..nsig)
        .map(|s| last_fire_round[s].is_some_and(|r| r + window >= max_rounds))
        .collect();

    // Per-record instance numbers (per signal+value).
    let mut inst_no = vec![0u32; recs.len()];
    let mut counters: HashMap<(SignalId, bool), u32> = HashMap::new();
    for (i, r) in recs.iter().enumerate() {
        let c = counters.entry((r.signal, r.value)).or_insert(0);
        inst_no[i] = *c;
        *c += 1;
    }
    // Instances per (signal, value): record indices in order.
    let mut instances: HashMap<(SignalId, bool), Vec<usize>> = HashMap::new();
    for (i, r) in recs.iter().enumerate() {
        instances.entry((r.signal, r.value)).or_default().push(i);
    }

    let pol = |v: bool| if v { "+" } else { "-" };
    let mut b = SignalGraph::builder();
    let mut event_ids: HashMap<(SignalId, bool), tsg_core::EventId> = HashMap::new();
    // The same events in creation order (signal order, `+` before `-`):
    // arcs are added in this order, so arc ids do not depend on hashing.
    let mut repetitive_events: Vec<((SignalId, bool), tsg_core::EventId)> = Vec::new();
    let mut prefix_ids: HashMap<usize, tsg_core::EventId> = HashMap::new();

    // Prefix events first (their record order is causal order).
    for (i, r) in recs.iter().enumerate() {
        if repetitive[r.signal.index()] {
            continue;
        }
        let base = format!("{}{}", netlist.name(r.signal), pol(r.value));
        let label = if inst_no[i] == 0 {
            base
        } else {
            format!("{}_{}{}", netlist.name(r.signal), inst_no[i], pol(r.value))
        };
        let id = if r.triggers.is_empty() {
            b.initial_event(&label)
        } else {
            b.finite_event(&label)
        };
        prefix_ids.insert(i, id);
    }
    // Repetitive events.
    for s in netlist.signals() {
        if !repetitive[s.index()] {
            continue;
        }
        for v in [true, false] {
            let n_inst = instances.get(&(s, v)).map_or(0, Vec::len);
            if n_inst == 0 {
                continue; // a repetitive signal always alternates, so both exist
            }
            if n_inst < min_instances {
                return Err(ExtractError::InsufficientActivity {
                    signal: netlist.name(s).to_owned(),
                });
            }
            let label = format!("{}{}", netlist.name(s), pol(v));
            let id = b.event(&label);
            event_ids.insert((s, v), id);
            repetitive_events.push(((s, v), id));
        }
    }

    // Arcs for prefix records.
    for (i, r) in recs.iter().enumerate() {
        if repetitive[r.signal.index()] {
            continue;
        }
        let dst = prefix_ids[&i];
        for t in &r.triggers {
            match t.source {
                None => {} // permanent initial support: no constraint
                Some(j) => {
                    if repetitive[recs[j].signal.index()] {
                        return Err(ExtractError::NotWellFormed {
                            signal: netlist.name(r.signal).to_owned(),
                        });
                    }
                    b.arc(prefix_ids[&j], dst, t.delay);
                }
            }
        }
    }

    // Arcs for repetitive events, from the steady pattern of the last
    // instance (verified equal to the one before it).
    for &((s, v), dst) in &repetitive_events {
        let insts = &instances[&(s, v)];
        let steady = steady_pattern(netlist, recs, &inst_no, &repetitive, insts, s)?;
        let prev = steady_pattern(
            netlist,
            recs,
            &inst_no,
            &repetitive,
            &insts[..insts.len() - 1],
            s,
        )?;
        if steady != prev {
            return Err(ExtractError::NotPeriodic {
                signal: netlist.name(s).to_owned(),
            });
        }
        for item in &steady {
            let src = event_ids[&(item.src_signal, item.src_value)];
            if item.offset == 1 {
                b.marked_arc(src, dst, item.delay);
            } else {
                b.arc(src, dst, item.delay);
            }
        }
        // Instance 0: disengageable arcs from prefix triggers and
        // consistency of initial supports with the steady marked arcs.
        let first = &recs[insts[0]];
        for t in &first.triggers {
            match t.source {
                Some(j) if !repetitive[recs[j].signal.index()] => {
                    b.disengageable_arc(prefix_ids[&j], dst, t.delay);
                }
                Some(j) => {
                    // must match a steady same-period or cross-period arc
                    let r = &recs[j];
                    let matches = steady
                        .iter()
                        .any(|it| it.src_signal == r.signal && it.src_value == r.value);
                    if !matches {
                        return Err(ExtractError::NotPeriodic {
                            signal: netlist.name(s).to_owned(),
                        });
                    }
                }
                None => {
                    // initial support: the steady pattern must carry the
                    // corresponding marked arc
                    let val = netlist.initial_state()[t.pin_signal.index()];
                    if repetitive[t.pin_signal.index()] {
                        let matches = steady.iter().any(|it| {
                            it.src_signal == t.pin_signal && it.src_value == val && it.offset == 1
                        });
                        if !matches {
                            return Err(ExtractError::NotPeriodic {
                                signal: netlist.name(s).to_owned(),
                            });
                        }
                    }
                }
            }
        }
    }

    b.build().map_err(ExtractError::Structural)
}

#[derive(Clone, Debug, PartialEq, PartialOrd)]
struct PatternItem {
    src_signal: SignalId,
    src_value: bool,
    offset: u32,
    delay: f64,
}

/// The steady trigger pattern of the last instance in `insts`: arcs from
/// repetitive sources with their period offsets; prefix-source and
/// permanent-initial supports are static and excluded.
fn steady_pattern(
    netlist: &Netlist,
    recs: &[Rec],
    inst_no: &[u32],
    repetitive: &[bool],
    insts: &[usize],
    signal: SignalId,
) -> Result<Vec<PatternItem>, ExtractError> {
    let last = *insts.last().expect("instance list is non-empty");
    let own_inst = inst_no[last];
    debug_assert!(own_inst >= 1, "steady pattern needs instance >= 1");
    let mut items = Vec::new();
    for t in &recs[last].triggers {
        match t.source {
            None => {
                if repetitive[t.pin_signal.index()] {
                    // a repetitive support still at its initial value after
                    // a full period: more than one token on the arc
                    return Err(ExtractError::NotSafe {
                        signal: netlist.name(signal).to_owned(),
                    });
                }
                // constant prefix signal: permanent support, no arc
            }
            Some(j) => {
                let src = &recs[j];
                if !repetitive[src.signal.index()] {
                    continue; // static prefix support: handled at instance 0
                }
                let offset = own_inst - inst_no[j];
                if offset > 1 {
                    return Err(ExtractError::NotSafe {
                        signal: netlist.name(signal).to_owned(),
                    });
                }
                items.push(PatternItem {
                    src_signal: src.signal,
                    src_value: src.value,
                    offset,
                    delay: t.delay,
                });
            }
        }
    }
    items.sort_by(|a, b| {
        (a.src_signal, a.src_value, a.offset)
            .cmp(&(b.src_signal, b.src_value, b.offset))
            .then(a.delay.total_cmp(&b.delay))
    });
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_circuit::library;
    use tsg_core::analysis::CycleTimeAnalysis;

    /// The arcs of `sg` in `ArcId` order, as `src->dst:delay` plus `*`
    /// (marked) and `x` (disengageable).
    fn arc_list(sg: &SignalGraph) -> Vec<String> {
        sg.arc_ids()
            .map(|a| {
                let arc = sg.arc(a);
                format!(
                    "{}->{}:{}{}{}",
                    sg.label(arc.src()),
                    sg.label(arc.dst()),
                    arc.delay(),
                    if arc.is_marked() { "*" } else { "" },
                    if arc.is_disengageable() { "x" } else { "" },
                )
            })
            .collect()
    }

    #[test]
    fn figure1_extraction_matches_figure2c() {
        let sg = extract(&library::c_element_oscillator(), ExtractOptions::default()).unwrap();
        assert_eq!(sg.event_count(), 8);
        assert_eq!(sg.arc_count(), 11);
        // border events are a+ and b+ (Example 7)
        let mut borders: Vec<String> = sg
            .border_events()
            .iter()
            .map(|&e| sg.label(e).to_string())
            .collect();
        borders.sort();
        assert_eq!(borders, vec!["a+", "b+"]);
        // exact arc inventory
        let mut arcs = arc_list(&sg);
        arcs.sort();
        assert_eq!(
            arcs,
            vec![
                "a+->c+:3",
                "a-->c-:3",
                "b+->c+:2",
                "b-->c-:2",
                "c+->a-:2",
                "c+->b-:1",
                "c-->a+:2*",
                "c-->b+:1*",
                "e-->a+:2x",
                "e-->f-:3",
                "f-->b+:1x",
            ]
        );
    }

    #[test]
    fn extraction_numbers_arcs_the_same_way_every_time() {
        // Figure 1a as the `.ckt` module docs spell it. Every extraction
        // builds fresh hash maps with fresh random seeds, so arc ids that
        // followed a map's iteration order would differ between runs.
        let netlist = tsg_circuit::parse::parse_ckt(
            "input e = 1 flip\n\
             gate a nor(e:2, c:2) = 0\n\
             gate b nor(f:1, c:1) = 0\n\
             gate c c(a:3, b:2) = 0\n\
             gate f buf(e:3) = 1\n",
        )
        .unwrap();
        let first = arc_list(&extract(&netlist, ExtractOptions::default()).unwrap());
        for _ in 1..16 {
            let again = extract(&netlist, ExtractOptions::default()).unwrap();
            assert_eq!(arc_list(&again), first);
        }
    }

    #[test]
    fn figure1_extraction_cycle_time_is_10() {
        let sg = extract(&library::c_element_oscillator(), ExtractOptions::default()).unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 10.0);
    }

    #[test]
    fn muller_ring5_extraction_matches_section8d() {
        let sg = extract(&library::muller_ring(5, 1.0), ExtractOptions::default()).unwrap();
        // 10 signals, all repetitive: 20 events.
        assert_eq!(sg.event_count(), 20);
        // Four border events, as the paper states: s0+, s1+, s2+, s4-
        // (named a+, b+, c+, e- in the paper's lettering).
        let mut borders: Vec<String> = sg
            .border_events()
            .iter()
            .map(|&e| sg.label(e).to_string())
            .collect();
        borders.sort();
        assert_eq!(borders, vec!["s0+", "s1+", "s2+", "s4-"]);
        // τ = 20/3.
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().exact().unwrap(), tsg_core::Ratio::new(20, 3));
    }

    #[test]
    fn muller_ring5_initiated_times_match_the_paper_table() {
        use tsg_core::analysis::initiated::SimArena;
        let sg = extract(&library::muller_ring(5, 1.0), ExtractOptions::default()).unwrap();
        let s0p = sg.event_by_label("s0+").unwrap();
        let mut sim = SimArena::new();
        sim.run(&sg, s0p, 10, false).unwrap();
        let want = [6.0, 13.0, 20.0, 26.0, 33.0, 40.0, 46.0, 53.0, 60.0, 66.0];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(
                sim.time(s0p, i as u32 + 1),
                Some(w),
                "t_{{a+0}}(a+_{})",
                i + 1
            );
        }
    }

    #[test]
    fn inverter_ring_extracts() {
        let sg = extract(&library::inverter_ring(5, 1.0), ExtractOptions::default()).unwrap();
        assert_eq!(sg.event_count(), 10);
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 10.0); // period 2n
    }

    #[test]
    fn or_causal_circuit_is_rejected() {
        use tsg_circuit::{GateKind, Netlist};
        // y = NAND(x1, x2) falling with both inputs rising concurrently is
        // AND-causal, but an OR gate fed by two concurrently-rising inputs
        // is OR-causal on the rise.
        let mut b = Netlist::builder();
        b.input_with_flip("x1", false);
        b.input_with_flip("x2", false);
        b.gate("y", GateKind::Or, &[("x1", 1.0), ("x2", 1.0)], false)
            .unwrap();
        // close the loop so y also falls (not needed: finite is fine)
        let nl = b.build().unwrap();
        let err = extract(&nl, ExtractOptions::default()).unwrap_err();
        assert!(matches!(err, ExtractError::OrCausality { .. }));
    }

    #[test]
    fn quiescent_circuit_extracts_prefix_only() {
        use tsg_circuit::{GateKind, Netlist};
        let mut b = Netlist::builder();
        b.input_with_flip("x", true);
        b.gate("y", GateKind::Buffer, &[("x", 2.0)], true).unwrap();
        b.gate("z", GateKind::Inverter, &[("y", 1.0)], false)
            .unwrap();
        let nl = b.build().unwrap();
        let sg = extract(&nl, ExtractOptions::default()).unwrap();
        // x-, y-, z+ : all prefix, no repetitive events.
        assert_eq!(sg.event_count(), 3);
        assert_eq!(sg.repetitive_count(), 0);
    }

    #[test]
    fn extraction_agrees_with_hand_built_tsg() {
        use tsg_core::analysis::sim::TimingSimulation;
        let extracted =
            extract(&library::c_element_oscillator(), ExtractOptions::default()).unwrap();
        let hand = library::c_element_oscillator_tsg();
        let se = TimingSimulation::run(&extracted, 4, None).unwrap();
        let sh = TimingSimulation::run(&hand, 4, None).unwrap();
        for label in ["a+", "b+", "c+", "a-", "b-", "c-"] {
            let ee = extracted.event_by_label(label).unwrap();
            let eh = hand.event_by_label(label).unwrap();
            for p in 0..4 {
                assert_eq!(se.time(ee, p), sh.time(eh, p), "{label} period {p}");
            }
        }
    }
}

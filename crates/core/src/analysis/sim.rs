//! Timing simulation `t(·)` of an unfolded Timed Signal Graph (Section IV.A).
//!
//! ```text
//! t(f) = 0                                if f ∈ I_u
//! t(f) = max { t(e) + δ | e →δ f }        otherwise
//! ```
//!
//! where `I_u` — the initial events of the unfolding — are the events of `I`
//! plus the repetitive events whose in-arcs are all initially marked.
//!
//! The simulation never materialises the (conceptually infinite) unfolding:
//! it evaluates period-synchronously in a topological order of the
//! unmarked-arc sub-DAG, feeding marked arcs from period `p` into period
//! `p+1`. For acyclic graphs this degenerates to classical PERT analysis.
//! This one recurrence backs `tsg sim` on `.g` files, the timing
//! diagrams and the long-run estimator.

use tsg_graph::topo;
use tsg_sim::{CancelKind, CancelToken, TraceRecorder};

use crate::arc::ArcId;
use crate::event::{EventId, Polarity};
use crate::graph::SignalGraph;

/// The most time cells (events × periods) one [`TimingSimulation`]
/// keeps: 512 MiB of `f64`. A larger run is refused before anything
/// is allocated ([`SimError::TooLarge`]).
pub const MAX_CELLS: usize = 1 << 26;

/// Why a [`TimingSimulation`] run stopped short of its horizon.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The cancel token fired between two period rows.
    Cancelled {
        /// Whether a deadline or an explicit cancel stopped the run.
        kind: CancelKind,
        /// Period rows fully computed at the abort.
        rows_done: usize,
        /// Rows a complete run computes (the period count).
        rows_total: usize,
    },
    /// An occurrence time overflowed `f64`: the firing `{event}_{instance}`
    /// feeds an arc whose `t + δ` is infinite (delays near `f64::MAX`).
    Overflow {
        /// Label of the event whose firing overflowed.
        event: String,
        /// Instance (period) of that firing.
        instance: u32,
    },
    /// The run would keep more than [`MAX_CELLS`] time cells.
    TooLarge {
        /// Events of the simulated graph.
        events: usize,
        /// Requested periods.
        periods: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => write!(f, "{kind} after {rows_done} of {rows_total} period(s)"),
            SimError::Overflow { event, instance } => write!(
                f,
                "firing {event}_{instance}: cannot schedule event at non-finite time inf"
            ),
            SimError::TooLarge { events, periods } => write!(
                f,
                "{events} event(s) over {periods} period(s) need more than {MAX_CELLS} time cells"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a timing simulation over a fixed number of periods.
///
/// # Examples
///
/// Example 3 of the paper (first occurrence times of the Figure 2c graph)
/// is reproduced in the crate's tests; a minimal use:
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::sim::TimingSimulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let sim = TimingSimulation::run(&sg, 3, None)?;
/// assert_eq!(sim.time(xp, 0), Some(0.0));
/// assert_eq!(sim.time(xm, 0), Some(3.0));
/// assert_eq!(sim.time(xp, 1), Some(5.0));
/// assert_eq!(sim.time(xm, 2), Some(13.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TimingSimulation {
    /// `times[p][e]` is `t(e_p)`; `f64::NAN` marks the slots a prefix
    /// event does not have (it only occurs at instance 0).
    times: Vec<Vec<f64>>,
    periods: u32,
}

impl TimingSimulation {
    /// Runs the timing simulation of `sg` over `periods` periods
    /// (`periods >= 1`), polling `cancel` once before each period row.
    ///
    /// # Errors
    ///
    /// [`SimError::TooLarge`] when events × periods exceeds
    /// [`MAX_CELLS`], [`SimError::Cancelled`] when `cancel` fires, and
    /// [`SimError::Overflow`] when an occurrence time overflows to
    /// infinity. The overflow names the earliest firing whose
    /// in-horizon out-arc overflows; among firings at the same time, the
    /// one [`chronological`](Self::chronological) lists first (lowest
    /// event id, then lowest instance).
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn run(
        sg: &SignalGraph,
        periods: u32,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, SimError> {
        assert!(periods >= 1, "simulation needs at least one period");
        let events = sg.event_count();
        if events.saturating_mul(periods as usize) > MAX_CELLS {
            return Err(SimError::TooLarge { events, periods });
        }
        // Within a period every unmarked arc is a same-period dependency
        // (prefix arcs only exist in period 0); validation makes that
        // subgraph acyclic.
        let order =
            topo::topological_order_masked(sg.digraph(), |e| !sg.arc(ArcId(e.0)).is_marked())
                .expect("validated unmarked subgraph is acyclic");
        // Times only grow along arcs from finite roots, so a non-finite
        // cell is always +∞: one flag per run detects every overflow.
        let mut overflow = false;
        let mut times = vec![vec![f64::NAN; events]; periods as usize];
        for p in 0..periods as usize {
            if let Some(kind) = cancel.and_then(CancelToken::check) {
                return Err(SimError::Cancelled {
                    kind,
                    rows_done: p,
                    rows_total: periods as usize,
                });
            }
            for ev in order.iter().map(|node| EventId(node.0)) {
                if p > 0 && !sg.is_repetitive(ev) {
                    continue; // prefix events only occur at instance 0
                }
                // Validation makes the repetitive subgraph strongly
                // connected, so every event has a repetitive in-arc and
                // `t` never stays at −∞ past period 0.
                let mut t: f64 = if p == 0 { 0.0 } else { f64::NEG_INFINITY };
                for a in sg.in_arcs(ev) {
                    let arc = sg.arc(a);
                    let src = arc.src();
                    let src_t = if arc.is_marked() {
                        if p == 0 {
                            continue; // the initial token enables for free
                        }
                        times[p - 1][src.index()]
                    } else if p > 0 && !sg.is_repetitive(src) {
                        continue; // disengaged after period 0
                    } else {
                        times[p][src.index()]
                    };
                    t = t.max(src_t + arc.delay().get());
                }
                overflow |= t == f64::INFINITY;
                times[p][ev.index()] = t;
            }
        }

        let sim = TimingSimulation { times, periods };
        if overflow {
            return Err(sim.overflow(sg));
        }
        Ok(sim)
    }

    /// The [`SimError::Overflow`] of a run with an infinite cell: the
    /// first firing in [`chronological`](Self::chronological) order with
    /// an in-horizon out-arc whose `t + δ` is infinite. One always exists
    /// — an infinite cell has an in-arc whose source is either such a
    /// firing or infinite itself, and the roots are finite.
    fn overflow(&self, sg: &SignalGraph) -> SimError {
        // A firing feeds instance `p` of its targets, or `p + 1` over a
        // marked arc (prefix firings only exist at p = 0).
        let (e, instance, _) = self
            .chronological(sg)
            .into_iter()
            .find(|&(e, p, t)| {
                sg.out_arcs(e).any(|a| {
                    let arc = sg.arc(a);
                    p + u32::from(arc.is_marked()) < self.periods
                        && (t + arc.delay().get()).is_infinite()
                })
            })
            .expect("an infinite time has a finite overflowing cause");
        SimError::Overflow {
            event: sg.label(e).to_string(),
            instance,
        }
    }

    /// Number of simulated periods.
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// Occurrence time `t(e_i)`.
    ///
    /// Prefix events only have instance 0. Returns `None` for instances
    /// outside the simulated horizon.
    pub fn time(&self, e: EventId, instance: u32) -> Option<f64> {
        self.times
            .get(instance as usize)
            .map(|row| row[e.index()])
            .filter(|t| t.is_finite())
    }

    /// Average occurrence distance `δ(e_i) = t(e_i) / (i + 1)`
    /// (Section IV.C).
    pub fn average_distance(&self, e: EventId, instance: u32) -> Option<f64> {
        self.time(e, instance).map(|t| t / (instance + 1) as f64)
    }

    /// Occurrence distance `t(e_j) − t(e_i)` between two instantiations of
    /// the same event.
    pub fn occurrence_distance(&self, e: EventId, i: u32, j: u32) -> Option<f64> {
        Some(self.time(e, j)? - self.time(e, i)?)
    }

    /// The latest occurrence time in the simulation (for diagram scaling).
    pub fn horizon(&self) -> f64 {
        self.times
            .iter()
            .flatten()
            .copied()
            .filter(|t| t.is_finite())
            .fold(0.0f64, f64::max)
    }

    /// All `(event, instance, time)` triples, sorted by time then event id —
    /// the order a timing diagram or trace table lists them in.
    pub fn chronological(&self, sg: &SignalGraph) -> Vec<(EventId, u32, f64)> {
        let mut out = Vec::new();
        for e in sg.events() {
            for p in 0..self.periods {
                if let Some(t) = self.time(e, p) {
                    out.push((e, p, t));
                }
            }
        }
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        out
    }

    /// Replays the simulation into a [`TraceRecorder`] for VCD dumping.
    ///
    /// Events labelled with signal polarities (`a+` / `a-`) drive a wire
    /// named after the signal; bare labels drive a wire per event that
    /// toggles on each occurrence.
    pub fn record_trace(&self, sg: &SignalGraph, recorder: &mut TraceRecorder) {
        let mut wires = std::collections::HashMap::new();
        let ids: Vec<_> = sg
            .events()
            .map(|e| {
                let name = sg.label(e).signal().to_string();
                *wires
                    .entry(name.clone())
                    .or_insert_with(|| recorder.declare(name))
            })
            .collect();
        let mut levels: Vec<bool> = sg.events().map(|_| false).collect();
        for (e, _, t) in self.chronological(sg) {
            let value = match sg.label(e).polarity() {
                Some(Polarity::Rise) => true,
                Some(Polarity::Fall) => false,
                None => {
                    levels[e.index()] = !levels[e.index()];
                    levels[e.index()]
                }
            };
            recorder.record(t, ids[e.index()], value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

    /// The paper's Figure 2c graph (delays recovered from its own tables).
    fn figure2() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let e = b.initial_event("e-");
        let f = b.finite_event("f-");
        let ap = b.event("a+");
        let bp = b.event("b+");
        let cp = b.event("c+");
        let am = b.event("a-");
        let bm = b.event("b-");
        let cm = b.event("c-");
        b.arc(e, f, 3.0);
        b.disengageable_arc(e, ap, 2.0);
        b.disengageable_arc(f, bp, 1.0);
        b.arc(ap, cp, 3.0);
        b.arc(bp, cp, 2.0);
        b.arc(cp, am, 2.0);
        b.arc(cp, bm, 1.0);
        b.arc(am, cm, 3.0);
        b.arc(bm, cm, 2.0);
        b.marked_arc(cm, ap, 2.0);
        b.marked_arc(cm, bp, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn example3_occurrence_times() {
        // Paper Example 3: t(e-0 f-0 a+0 b+0 c+0 a-0 b-0 c-0 a+1 b+1 c+1)
        //                 = 0   3   2   4   6   8   7   11  13  12  16
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let t = |label: &str, i: u32| sim.time(sg.event_by_label(label).unwrap(), i).unwrap();
        assert_eq!(t("e-", 0), 0.0);
        assert_eq!(t("f-", 0), 3.0);
        assert_eq!(t("a+", 0), 2.0);
        assert_eq!(t("b+", 0), 4.0);
        assert_eq!(t("c+", 0), 6.0);
        assert_eq!(t("a-", 0), 8.0);
        assert_eq!(t("b-", 0), 7.0);
        assert_eq!(t("c-", 0), 11.0);
        assert_eq!(t("a+", 1), 13.0);
        assert_eq!(t("b+", 1), 12.0);
        assert_eq!(t("c+", 1), 16.0);
    }

    #[test]
    fn example3_times_in_chronological_order() {
        // Example 3's times as the event-ordered listing gives them: both
        // periods, sorted by time then event id.
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let listed: Vec<(String, f64)> = sim
            .chronological(&sg)
            .into_iter()
            .map(|(e, i, t)| (format!("{}_{}", sg.label(e), i), t))
            .collect();
        let want = [
            ("e-_0", 0.0),
            ("a+_0", 2.0),
            ("f-_0", 3.0),
            ("b+_0", 4.0),
            ("c+_0", 6.0),
            ("b-_0", 7.0),
            ("a-_0", 8.0),
            ("c-_0", 11.0),
            ("b+_1", 12.0),
            ("a+_1", 13.0),
            ("c+_1", 16.0),
            ("b-_1", 17.0),
            ("a-_1", 18.0),
            ("c-_1", 21.0),
        ];
        let want: Vec<(String, f64)> = want.iter().map(|&(l, t)| (l.to_string(), t)).collect();
        assert_eq!(listed, want);
    }

    #[test]
    fn section2_average_distance_sequence() {
        // Section II: averages for a+ are 2, 13/2, 23/3, 33/4, 43/5, 53/6...
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 6, None).unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        let expect = [
            2.0,
            13.0 / 2.0,
            23.0 / 3.0,
            33.0 / 4.0,
            43.0 / 5.0,
            53.0 / 6.0,
        ];
        for (i, &want) in expect.iter().enumerate() {
            let got = sim.average_distance(ap, i as u32).unwrap();
            assert!((got - want).abs() < 1e-12, "i={i}: {got} != {want}");
        }
    }

    #[test]
    fn occurrence_distance_first_pair_is_11() {
        // Section II: distance between a+0 and a+1 is 11.
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        assert_eq!(sim.occurrence_distance(ap, 0, 1), Some(11.0));
    }

    #[test]
    fn steady_state_distance_is_cycle_time() {
        // After the initial period the oscillation stabilises at 10.
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 8, None).unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        for i in 1..7 {
            assert_eq!(sim.occurrence_distance(ap, i, i + 1), Some(10.0));
        }
    }

    #[test]
    fn prefix_events_have_single_instance() {
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let e = sg.event_by_label("e-").unwrap();
        assert_eq!(sim.time(e, 0), Some(0.0));
        assert_eq!(sim.time(e, 1), None);
    }

    #[test]
    fn prefix_events_are_listed_once() {
        // Over three periods the prefix events e- and f- appear once, at
        // instance 0; each of the six repetitive events appears three times.
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 3, None).unwrap();
        let listed = sim.chronological(&sg);
        for e in sg.events() {
            let instances: Vec<u32> = listed
                .iter()
                .filter(|&&(f, _, _)| f == e)
                .map(|&(_, i, _)| i)
                .collect();
            let want: Vec<u32> = if sg.is_repetitive(e) {
                vec![0, 1, 2]
            } else {
                vec![0]
            };
            assert_eq!(instances, want, "{}", sg.label(e));
        }
        assert_eq!(listed.len(), 2 + 6 * 3);
    }

    #[test]
    fn out_of_horizon_is_none() {
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        assert_eq!(sim.time(ap, 2), None);
    }

    #[test]
    fn horizon_is_max_time() {
        // The last event of the second period is c-_1 = 21 (Example 3's
        // table stops earlier, at c+_1 = 16).
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        assert_eq!(sim.horizon(), 21.0);
    }

    #[test]
    fn chronological_order() {
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 1, None).unwrap();
        let order: Vec<String> = sim
            .chronological(&sg)
            .into_iter()
            .map(|(e, i, _)| format!("{}_{}", sg.label(e), i))
            .collect();
        assert_eq!(
            order,
            vec!["e-_0", "a+_0", "f-_0", "b+_0", "c+_0", "b-_0", "a-_0", "c-_0"]
        );
    }

    #[test]
    fn pure_prefix_graph_is_pert() {
        let mut b = SignalGraph::builder();
        let s = b.initial_event("start");
        let m1 = b.finite_event("mid1");
        let m2 = b.finite_event("mid2");
        let end = b.finite_event("end");
        b.arc(s, m1, 3.0);
        b.arc(s, m2, 5.0);
        b.arc(m1, end, 4.0);
        b.arc(m2, end, 1.0);
        let sg = b.build().unwrap();
        let sim = TimingSimulation::run(&sg, 1, None).unwrap();
        assert_eq!(sim.time(end, 0), Some(7.0)); // max(3+4, 5+1)
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_periods_panics() {
        let _ = TimingSimulation::run(&figure2(), 0, None);
    }

    #[test]
    fn trace_produces_signal_wires() {
        let sg = figure2();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let mut rec = TraceRecorder::new("tsg");
        sim.record_trace(&sg, &mut rec);
        // Five signals: a, b, c, e, f — one wire each, not one per event.
        assert_eq!(rec.signal_count(), 5);
        let vcd = rec.to_vcd_string();
        assert!(vcd.contains("$var wire 1"));
        assert!(!rec.is_empty());
    }

    #[test]
    fn cancelled_drain_reports_progress_and_a_rerun_succeeds() {
        let sg = figure2();
        let token = CancelToken::cancel_after_checks(0);
        let err = TimingSimulation::run(&sg, 4, Some(&token)).unwrap_err();
        let SimError::Cancelled {
            kind,
            rows_done,
            rows_total,
        } = err
        else {
            panic!("expected a cancellation, got {err}");
        };
        assert_eq!(kind, CancelKind::Explicit);
        assert_eq!(rows_done, 0);
        assert_eq!(rows_total, 4, "progress counts period rows");
        assert_eq!(err.to_string(), "cancelled after 0 of 4 period(s)");
        // A later cancel stops mid-run with the rows done so far.
        let token = CancelToken::cancel_after_checks(2);
        let err = TimingSimulation::run(&sg, 4, Some(&token)).unwrap_err();
        assert!(
            matches!(err, SimError::Cancelled { rows_done: 2, .. }),
            "{err}"
        );
        // An uncancelled rerun is unaffected.
        let token = CancelToken::new();
        let rerun = TimingSimulation::run(&sg, 4, Some(&token)).unwrap();
        let plain = TimingSimulation::run(&sg, 4, None).unwrap();
        for e in sg.events() {
            for p in 0..4 {
                assert_eq!(
                    plain.time(e, p).map(f64::to_bits),
                    rerun.time(e, p).map(f64::to_bits),
                    "{}_{p}",
                    sg.label(e)
                );
            }
        }
    }

    /// An oversized horizon is refused from the shape alone: every
    /// request here would need gigabytes, and none allocates.
    #[test]
    fn oversized_runs_are_refused_before_allocating() {
        let sg = figure2();
        let events = sg.event_count();
        let just_over = (MAX_CELLS / events + 1) as u32;
        for periods in [just_over, 4_000_000_000, u32::MAX] {
            let err = TimingSimulation::run(&sg, periods, None).unwrap_err();
            assert_eq!(err, SimError::TooLarge { events, periods });
            assert_eq!(
                err.to_string(),
                format!(
                    "{events} event(s) over {periods} period(s) need more than 67108864 time cells"
                )
            );
        }
    }

    #[test]
    fn overflowing_delays_report_the_firing_instead_of_panicking() {
        // x+ → x- → x+ at 1e308 each: the first firing of x- lands at
        // 1e308, and its token back to x+ would arrive at infinity.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1e308);
        b.marked_arc(xm, xp, 1e308);
        let sg = b.build().unwrap();
        let err = TimingSimulation::run(&sg, 3, None).unwrap_err();
        assert_eq!(
            err,
            SimError::Overflow {
                event: "x-".to_owned(),
                instance: 0,
            }
        );
        assert_eq!(
            err.to_string(),
            "firing x-_0: cannot schedule event at non-finite time inf"
        );
        // One period keeps the overflowing token beyond the horizon.
        let one = TimingSimulation::run(&sg, 1, None).unwrap();
        assert_eq!(one.time(xm, 0), Some(1e308));
    }

    #[test]
    fn overflow_ties_name_the_lowest_event_id() {
        // Two rings overflow at the same time, 1e308: y-_0 and x-_0 both
        // send a token to infinity. The rule is chronological order —
        // lowest event id first — so y-_0 (declared first) is named.
        let mut b = SignalGraph::builder();
        let yp = b.event("y+");
        let ym = b.event("y-");
        let xp = b.event("x+");
        let xm = b.event("x-");
        for (rise, fall) in [(yp, ym), (xp, xm)] {
            b.arc(rise, fall, 1e308);
            b.marked_arc(fall, rise, 1e308);
        }
        b.marked_arc(xm, yp, 0.0);
        b.marked_arc(ym, xp, 0.0);
        let sg = b.build().unwrap();
        let err = TimingSimulation::run(&sg, 2, None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "firing y-_0: cannot schedule event at non-finite time inf"
        );
    }

    #[test]
    fn overflow_names_the_earliest_firing_not_the_first_row() {
        // Ring a overflows in period 0 from a firing at 1.5e308; ring c
        // only in period 1, but from c+_1 at 0.6·MAX ≈ 1.08e308 —
        // earlier in time, so c+_1 is named.
        let mut b = SignalGraph::builder();
        let ap = b.event("a+");
        let am = b.event("a-");
        let a2 = b.event("a2+");
        let cp = b.event("c+");
        let cm = b.event("c-");
        b.arc(ap, am, 1.5e308);
        b.arc(am, a2, 1.5e308);
        b.marked_arc(a2, ap, 0.0);
        b.arc(cp, cm, 0.6 * f64::MAX);
        b.marked_arc(cm, cp, 0.0);
        b.marked_arc(ap, cp, 0.0);
        b.marked_arc(cm, ap, 0.0);
        let sg = b.build().unwrap();
        let err = TimingSimulation::run(&sg, 2, None).unwrap_err();
        assert_eq!(
            err,
            SimError::Overflow {
                event: "c+".to_owned(),
                instance: 1,
            }
        );
    }

    #[test]
    fn overflowing_disengageable_arc_names_the_prefix_firing() {
        // f- fires at 1e308 in the prefix; its disengageable arc into
        // b+ adds another 1e308.
        let mut b = SignalGraph::builder();
        let e = b.initial_event("e-");
        let f = b.finite_event("f-");
        let ap = b.event("a+");
        let am = b.event("a-");
        b.arc(e, f, 1e308);
        b.disengageable_arc(f, ap, 1e308);
        b.arc(ap, am, 1.0);
        b.marked_arc(am, ap, 1.0);
        let sg = b.build().unwrap();
        let err = TimingSimulation::run(&sg, 2, None).unwrap_err();
        assert_eq!(
            err,
            SimError::Overflow {
                event: "f-".to_owned(),
                instance: 0,
            }
        );
        assert_eq!(
            err.to_string(),
            "firing f-_0: cannot schedule event at non-finite time inf"
        );
    }
}

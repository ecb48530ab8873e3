//! Finite unfolding of a Signal Graph (Section III.B).
//!
//! The unfolding is an acyclic occurrence graph whose nodes are
//! *instantiations* `e_i` of the events of the Signal Graph. Period 0
//! contains the prefix events and the first instantiation of every
//! repetitive event; period `i > 0` contains the `i`-th instantiations of
//! the repetitive events. Arcs follow the marking structure:
//!
//! * a plain arc `u → v` yields `u_i → v_i` in every period,
//! * a marked arc `u →• v` crosses the period border: `u_{i} → v_{i+1}`,
//! * a disengageable arc `u ⇥ v` yields the single arc `u_0 → v_0`,
//! * prefix arcs appear once, in period 0.
//!
//! Precedence (`⇒`) and concurrency (`‖`) between instantiations are
//! reachability questions on this DAG (Section III.A).

use std::collections::HashMap;
use std::fmt;

use tsg_core::{ArcId, EventId, Polarity, SignalGraph};
use tsg_graph::{DiGraph, NodeId};

use crate::reach;

/// Identifier of an instantiation inside an [`Unfolding`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstId(pub u32);

impl InstId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An instantiation `e_i`: the `index`-th occurrence of `event`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Instance {
    /// The Signal Graph event being instantiated.
    pub event: EventId,
    /// The occurrence index `i` (0-based).
    pub index: u32,
}

/// A finite unfolding covering a fixed number of periods.
#[derive(Clone, Debug)]
pub struct Unfolding {
    instances: Vec<Instance>,
    graph: DiGraph,
    origin_arc: Vec<ArcId>,
    lookup: HashMap<(EventId, u32), InstId>,
    periods: u32,
}

impl Unfolding {
    /// Builds the unfolding of `sg` over `periods` periods (`periods >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn build(sg: &SignalGraph, periods: u32) -> Self {
        assert!(periods >= 1, "unfolding needs at least one period");
        let mut instances = Vec::new();
        let mut lookup = HashMap::new();
        let mut edges = Vec::new();
        let mut origin_arc = Vec::new();

        let mut add = |event: EventId, index: u32| {
            let id = InstId(instances.len() as u32);
            instances.push(Instance { event, index });
            lookup.insert((event, index), id);
        };
        for e in sg.prefix_events() {
            add(e, 0);
        }
        for p in 0..periods {
            for e in sg.repetitive_events() {
                add(e, p);
            }
        }

        let mut link = |u: EventId, p: u32, v: EventId, q: u32, a: ArcId| {
            let (s, d) = (lookup[&(u, p)], lookup[&(v, q)]);
            edges.push((NodeId(s.0), NodeId(d.0)));
            origin_arc.push(a);
        };
        for a in sg.arc_ids() {
            let arc = sg.arc(a);
            if !arc.is_alive() {
                continue;
            }
            let (u, v) = (arc.src(), arc.dst());
            if arc.is_disengageable() || (!sg.is_repetitive(u) && !sg.is_repetitive(v)) {
                // one arc, in period 0
                link(u, 0, v, 0, a);
            } else if arc.is_marked() {
                for p in 0..periods.saturating_sub(1) {
                    link(u, p, v, p + 1, a);
                }
            } else {
                for p in 0..periods {
                    link(u, p, v, p, a);
                }
            }
        }
        let graph = DiGraph::from_edges(instances.len(), edges);

        Unfolding {
            instances,
            graph,
            origin_arc,
            lookup,
            periods,
        }
    }

    /// Number of periods this unfolding covers.
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// Number of instantiations.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The instantiation `e_i`, if present in this unfolding.
    pub fn instance(&self, event: EventId, index: u32) -> Option<InstId> {
        self.lookup.get(&(event, index)).copied()
    }

    /// The event/index pair of an instantiation.
    pub fn info(&self, id: InstId) -> Instance {
        self.instances[id.index()]
    }

    /// The Signal Graph arc an unfolding edge was instantiated from.
    pub fn edge_origin(&self, edge: usize) -> ArcId {
        self.origin_arc[edge]
    }

    /// The underlying DAG (node `i` = instantiation `i`).
    pub fn digraph(&self) -> &DiGraph {
        &self.graph
    }

    /// Precedence `a ⇒ b`: `a` occurs before `b` in every feasible
    /// sequence containing `b`. Reflexive (`a ⇒ a`) per path reachability.
    pub fn precedes(&self, a: InstId, b: InstId) -> bool {
        reach::descendants(&self.graph, NodeId(a.0))[b.index()]
    }

    /// Concurrency `a ‖ b`: neither precedes the other, and the
    /// instantiations are distinct.
    pub fn concurrent(&self, a: InstId, b: InstId) -> bool {
        let node = NodeId(a.0);
        a != b
            && !reach::descendants(&self.graph, node)[b.index()]
            && !reach::ancestors(&self.graph, node)[b.index()]
    }

    /// Iterator over all instantiation ids.
    pub fn instance_ids(&self) -> impl ExactSizeIterator<Item = InstId> + '_ {
        (0..self.instances.len() as u32).map(InstId)
    }

    /// Renders an instantiation as `a+_3`.
    pub fn display(&self, sg: &SignalGraph, id: InstId) -> String {
        let inst = self.info(id);
        format!("{}_{}", sg.label(inst.event), inst.index)
    }

    /// Renders the unfolding in Graphviz DOT syntax, grouping each period
    /// into a cluster (the layout of the paper's Figure 2b).
    pub fn to_dot(&self, sg: &SignalGraph, name: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        let _ = writeln!(s, "  rankdir=TB;");
        for p in 0..self.periods {
            let _ = writeln!(s, "  subgraph cluster_p{p} {{");
            let _ = writeln!(s, "    label=\"period {p}\";");
            for id in self.instance_ids() {
                if self.info(id).index == p {
                    let _ = writeln!(s, "    \"{}\";", self.display(sg, id));
                }
            }
            let _ = writeln!(s, "  }}");
        }
        for e in self.graph.edge_ids() {
            let (u, v) = self.graph.endpoints(e);
            let arc = sg.arc(self.origin_arc[e.index()]);
            let _ = writeln!(
                s,
                "  \"{}\" -> \"{}\" [label=\"{}\"];",
                self.display(sg, InstId(u.0)),
                self.display(sg, InstId(v.0)),
                arc.delay()
            );
        }
        s.push_str("}\n");
        s
    }
}

/// A violation of the signal-level implementability conditions of Section
/// VIII.A: switch-over correctness (rises and falls of a signal must
/// alternate) or auto-concurrency (no two concurrent transitions of the
/// same signal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignalConsistencyError {
    /// A rise and a fall of the same signal are concurrent.
    AutoConcurrency {
        /// The signal whose transitions are concurrent.
        signal: String,
    },
    /// Rises and falls of the signal do not alternate in the unfolding.
    SwitchOverViolation {
        /// The offending signal.
        signal: String,
    },
}

impl fmt::Display for SignalConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalConsistencyError::AutoConcurrency { signal } => {
                write!(f, "concurrent transitions of signal {signal:?}")
            }
            SignalConsistencyError::SwitchOverViolation { signal } => {
                write!(f, "transitions of signal {signal:?} do not alternate")
            }
        }
    }
}

impl std::error::Error for SignalConsistencyError {}

/// Checks switch-over correctness and absence of auto-concurrency for every
/// signal that has exactly one rise and one fall event (the common case for
/// circuit-derived graphs; signals with multiple events per transition are
/// skipped, as the paper treats those as independently named events).
///
/// # Errors
///
/// Returns the first [`SignalConsistencyError`] found.
pub fn check_signal_consistency(sg: &SignalGraph) -> Result<(), SignalConsistencyError> {
    let unfolding = Unfolding::build(sg, 2);
    let mut by_signal: HashMap<&str, (Vec<EventId>, Vec<EventId>)> = HashMap::new();
    for e in sg.events() {
        let label = sg.label(e);
        match label.polarity() {
            Some(Polarity::Rise) => by_signal.entry(label.signal()).or_default().0.push(e),
            Some(Polarity::Fall) => by_signal.entry(label.signal()).or_default().1.push(e),
            None => {}
        }
    }
    for (signal, (rises, falls)) in by_signal {
        if rises.len() != 1 || falls.len() != 1 {
            continue;
        }
        if !sg.is_repetitive(rises[0]) || !sg.is_repetitive(falls[0]) {
            continue;
        }
        let r0 = unfolding.instance(rises[0], 0).expect("period 0 exists");
        let f0 = unfolding.instance(falls[0], 0).expect("period 0 exists");
        let r1 = unfolding.instance(rises[0], 1).expect("period 1 exists");
        let f1 = unfolding.instance(falls[0], 1).expect("period 1 exists");
        if unfolding.concurrent(r0, f0) {
            return Err(SignalConsistencyError::AutoConcurrency {
                signal: signal.to_owned(),
            });
        }
        // Alternation: whichever of r0/f0 comes first, the other must fit
        // between it and its next instantiation.
        let ok = if unfolding.precedes(r0, f0) {
            unfolding.precedes(f0, r1)
        } else {
            unfolding.precedes(r0, f1)
        };
        if !ok {
            return Err(SignalConsistencyError::SwitchOverViolation {
                signal: signal.to_owned(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_event_loop_orders_its_periods() {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();

        let u = Unfolding::build(&sg, 3);
        let xp0 = u.instance(xp, 0).unwrap();
        let xm2 = u.instance(xm, 2).unwrap();
        assert!(u.precedes(xp0, xm2));
        assert!(!u.concurrent(xp0, xm2));
    }

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
    fn instance_counts() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        // 2 prefix + 6 repetitive * 2 periods
        assert_eq!(u.instance_count(), 14);
        assert_eq!(u.periods(), 2);
    }

    #[test]
    fn removed_arcs_and_events_are_not_instantiated() {
        let mut sg = figure2();
        let plain = Unfolding::build(&sg, 2);
        let ap = sg.event_by_label("a+").unwrap();
        let bp = sg.event_by_label("b+").unwrap();
        let cp = sg.event_by_label("c+").unwrap();
        let d = sg.add_event("d+").unwrap();
        let ad = sg.add_arc(ap, d, 1.0, false).unwrap();
        let dc = sg.add_arc(d, cp, 1.0, false).unwrap();
        let ab = sg.add_arc(ap, bp, 1.0, false).unwrap();
        sg.validate().unwrap();
        sg.remove_arc(ad).unwrap();
        sg.remove_arc(dc).unwrap();
        sg.remove_arc(ab).unwrap();
        sg.remove_event(d).unwrap();
        sg.validate().unwrap();
        let u = Unfolding::build(&sg, 2);
        assert_eq!(u.digraph().edge_count(), plain.digraph().edge_count());
        assert_eq!(u.instance(d, 0), None);
        let (ap0, bp0) = (u.instance(ap, 0).unwrap(), u.instance(bp, 0).unwrap());
        assert!(u.concurrent(ap0, bp0));
    }

    #[test]
    fn period_structure_of_marked_arcs() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        let cm = sg.event_by_label("c-").unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        let cm0 = u.instance(cm, 0).unwrap();
        let ap0 = u.instance(ap, 0).unwrap();
        let ap1 = u.instance(ap, 1).unwrap();
        assert!(u.precedes(cm0, ap1));
        assert!(!u.precedes(cm0, ap0));
    }

    #[test]
    fn example4_reachability_sets() {
        // Example 4: events not preceded by b+_0 are {f-_0, e-_0, a+_0}.
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        let bp0 = u.instance(sg.event_by_label("b+").unwrap(), 0).unwrap();
        let unreached: Vec<String> = u
            .instance_ids()
            .filter(|&i| i != bp0 && !u.precedes(bp0, i))
            .map(|i| u.display(&sg, i))
            .collect();
        assert_eq!(unreached, vec!["e-_0", "f-_0", "a+_0"]);
    }

    #[test]
    fn concurrency_of_parallel_branches() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        let ap0 = u.instance(sg.event_by_label("a+").unwrap(), 0).unwrap();
        let bp0 = u.instance(sg.event_by_label("b+").unwrap(), 0).unwrap();
        assert!(u.concurrent(ap0, bp0));
        assert!(!u.concurrent(ap0, ap0));
    }

    #[test]
    fn precedence_is_reflexively_true_on_paths() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 3);
        let e0 = u.instance(sg.event_by_label("e-").unwrap(), 0).unwrap();
        let cp2 = u.instance(sg.event_by_label("c+").unwrap(), 2).unwrap();
        assert!(u.precedes(e0, cp2));
        assert!(!u.precedes(cp2, e0));
    }

    #[test]
    fn unfolding_is_acyclic() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 4);
        assert!(tsg_graph::topo::topological_order(u.digraph()).is_ok());
    }

    #[test]
    fn signal_consistency_of_figure2() {
        let sg = figure2();
        assert_eq!(check_signal_consistency(&sg), Ok(()));
    }

    #[test]
    fn auto_concurrency_detected() {
        // x+ and x- on two independent branches of a fork: concurrent.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        let y = b.event("y");
        b.arc(y, xp, 1.0);
        b.arc(y, xm, 1.0);
        b.marked_arc(xp, y, 1.0);
        b.marked_arc(xm, y, 1.0);
        let sg = b.build().unwrap();
        assert!(matches!(
            check_signal_consistency(&sg),
            Err(SignalConsistencyError::AutoConcurrency { .. })
        ));
    }

    #[test]
    fn display_formats_instance() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        let cp1 = u.instance(sg.event_by_label("c+").unwrap(), 1).unwrap();
        assert_eq!(u.display(&sg, cp1), "c+_1");
    }

    #[test]
    fn unfolding_dot_export() {
        let sg = figure2();
        let u = Unfolding::build(&sg, 2);
        let dot = u.to_dot(&sg, "fig2b");
        assert!(dot.starts_with("digraph fig2b"));
        assert!(dot.contains("cluster_p0"));
        assert!(dot.contains("cluster_p1"));
        assert!(dot.contains("\"c-_0\" -> \"a+_1\""));
        assert_eq!(dot.matches(" -> ").count(), u.digraph().edge_count());
    }
}

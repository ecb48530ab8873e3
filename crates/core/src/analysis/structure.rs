//! Precomputed evaluation structure shared by the timing simulations.
//!
//! The timing simulation `t(·)`, the event-initiated simulations
//! `t_g(·)` and the cycle-time algorithm's `b` lockstep lanes all run
//! the same recurrence over the same graph; rebuilding the topological
//! order and chasing `Arc` objects per run dominates the constant
//! factor. [`EvalStructure`] flattens the whole live graph once — every
//! live event in one topological order of its unmarked arcs, with a CSR
//! table of every live in-arc — and every simulation then runs over
//! plain arrays.
//!
//! The prefix events come first, in their own topological order, and
//! the repetitive events follow in the order the graph keeps from its
//! last validation. No arc leads from a repetitive event back into the
//! prefix, so this is a topological order of the whole unmarked
//! subgraph. A run seeded at a repetitive event never reaches a prefix
//! cell, so the prefix's arcs fold `NEG_INFINITY` and change nothing.

use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;

/// One live in-arc of an event, flattened.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InArc {
    /// Source event id.
    pub src: u32,
    /// Arc delay.
    pub delay: f64,
    /// Initially marked (crosses the period border).
    pub marked: bool,
    /// The original arc (for backtracking).
    pub arc: ArcId,
}

/// Flattened live part of a Signal Graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct EvalStructure {
    /// Live events: the prefix, then the repetitive events, each in a
    /// topological order of its unmarked arcs.
    pub order: Vec<EventId>,
    /// CSR offsets: in-arcs of event `e` are `entries[offsets[e]..offsets[e+1]]`.
    pub offsets: Vec<u32>,
    /// Flattened live in-arcs of every event.
    pub entries: Vec<InArc>,
}

impl EvalStructure {
    /// Builds the structure; `O(n + m)`.
    pub fn new(sg: &SignalGraph) -> Self {
        let mut s = EvalStructure::default();
        s.rebuild(sg);
        s
    }

    /// Rebuilds the structure for `sg` in place, reusing every buffer —
    /// the allocation-free form warm arenas call once per analysis of a
    /// graph without prefix events. The repetitive order is the one
    /// [`SignalGraph::validate`] computed and kept on the graph
    /// (recomputed the same way only for a graph edited since). Each
    /// event's entries keep the `ArcId` order the graph lists its
    /// in-arcs in, which fixes the simulations' arg-max comparison
    /// sequence.
    pub fn rebuild(&mut self, sg: &SignalGraph) {
        self.order.clear();
        self.order
            .extend(crate::validate::prefix_order(sg).expect("validated prefix is acyclic"));
        match &sg.order {
            Some(order) => self.order.extend_from_slice(order),
            None => self.order.extend(
                crate::validate::unmarked_order(sg)
                    .expect("validated unmarked subgraph is acyclic"),
            ),
        }

        // One allocation per buffer in a cold arena: growing `entries` by
        // doubling left a heap layout that slowed the lane passes ~5%.
        self.offsets.clear();
        self.offsets.reserve(sg.event_count() + 1);
        self.entries.clear();
        self.entries.reserve(sg.arc_count());
        for e in sg.events() {
            self.offsets.push(self.entries.len() as u32);
            self.entries.extend(sg.in_arcs(e).map(|a| {
                let arc = sg.arc(a);
                InArc {
                    src: arc.src().0,
                    delay: arc.delay().get(),
                    marked: arc.is_marked(),
                    arc: a,
                }
            }));
        }
        self.offsets.push(self.entries.len() as u32);
    }

    /// In-arcs of event `e`.
    #[inline]
    pub fn in_arcs(&self, e: EventId) -> &[InArc] {
        &self.entries[self.offsets[e.index()] as usize..self.offsets[e.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

    #[test]
    fn csr_matches_graph() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("go");
        let x = b.event("x+");
        let y = b.event("y+");
        b.disengageable_arc(i, x, 1.0);
        b.arc(x, y, 2.0);
        b.marked_arc(y, x, 3.0);
        let sg = b.build().unwrap();
        let s = EvalStructure::new(&sg);
        // The prefix event comes first, then the repetitive order.
        assert_eq!(s.order, [i, x, y]);
        assert!(s.in_arcs(i).is_empty());
        // x lists both live in-arcs in `ArcId` order: the disengageable
        // one from the prefix, then the marked one from y.
        let ins = s.in_arcs(x);
        assert_eq!(ins.len(), 2);
        assert_eq!((ins[0].src, ins[0].marked, ins[0].delay), (i.0, false, 1.0));
        assert_eq!((ins[1].src, ins[1].marked, ins[1].delay), (y.0, true, 3.0));
        let ins_y = s.in_arcs(y);
        assert_eq!(ins_y.len(), 1);
        assert!(!ins_y[0].marked);
    }

    #[test]
    fn entries_keep_arc_id_order_after_edits() {
        let mut b = SignalGraph::builder();
        let x = b.event("x+");
        let y = b.event("y+");
        let z = b.event("z+");
        b.arc(x, z, 1.0);
        b.arc(y, z, 2.0);
        b.marked_arc(z, x, 3.0);
        b.marked_arc(z, y, 4.0);
        let mut sg = b.build().unwrap();
        let first = sg.in_arcs(z).next().unwrap();
        let added = sg.add_arc(x, z, 5.0, false).unwrap();
        sg.remove_arc(first).unwrap();
        sg.validate().unwrap();
        let s = EvalStructure::new(&sg);
        let arcs: Vec<(ArcId, f64)> = s.in_arcs(z).iter().map(|ia| (ia.arc, ia.delay)).collect();
        assert_eq!(arcs, [(ArcId(1), 2.0), (added, 5.0)]);
    }

    #[test]
    fn order_respects_unmarked_arcs() {
        let sg = {
            let mut b = SignalGraph::builder();
            let a = b.event("a");
            let c = b.event("b");
            let d = b.event("c");
            b.arc(a, c, 1.0);
            b.arc(c, d, 1.0);
            b.marked_arc(d, a, 1.0);
            b.build().unwrap()
        };
        let s = EvalStructure::new(&sg);
        let pos = |label: &str| {
            let e = sg.event_by_label(label).unwrap();
            s.order.iter().position(|&x| x == e).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }
}

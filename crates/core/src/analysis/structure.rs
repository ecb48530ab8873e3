//! Precomputed evaluation structure shared by the timing simulations.
//!
//! The cycle-time algorithm runs `b` event-initiated simulations over the
//! same graph; rebuilding the topological order and chasing `Arc` objects
//! per simulation dominates the constant factor. [`CyclicStructure`]
//! flattens the cyclic part once — repetitive events in unmarked-arc
//! topological order, with a CSR table of in-arcs — and every simulation
//! then runs over plain arrays.

use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;

/// One in-arc of a repetitive event, flattened.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InArc {
    /// Source event id (repetitive).
    pub src: u32,
    /// Arc delay.
    pub delay: f64,
    /// Initially marked (crosses the period border).
    pub marked: bool,
    /// The original arc (for backtracking).
    pub arc: ArcId,
}

/// Flattened cyclic part of a Signal Graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct CyclicStructure {
    /// Repetitive events in topological order of the unmarked subgraph.
    pub order: Vec<EventId>,
    /// CSR offsets: in-arcs of event `e` are `entries[offsets[e]..offsets[e+1]]`.
    pub offsets: Vec<u32>,
    /// Flattened in-arcs (repetitive→repetitive, non-disengageable only).
    pub entries: Vec<InArc>,
}

impl CyclicStructure {
    /// Builds the structure; `O(n + m)`.
    pub fn new(sg: &SignalGraph) -> Self {
        let mut s = CyclicStructure::default();
        s.rebuild(sg);
        s
    }

    /// Rebuilds the structure for `sg` in place, reusing every buffer —
    /// the allocation-free form warm arenas call once per analysis.
    /// The event order is the one [`SignalGraph::validate`] computed
    /// and kept on the graph (recomputed the same way only for a graph
    /// edited since). Each event's entries keep the `ArcId` order the
    /// graph lists its in-arcs in, which fixes the simulations' arg-max
    /// comparison sequence.
    pub fn rebuild(&mut self, sg: &SignalGraph) {
        self.order.clear();
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
            if !sg.is_repetitive(e) {
                continue;
            }
            for a in sg.in_arcs(e) {
                let arc = sg.arc(a);
                if sg.is_repetitive(arc.src()) && !arc.is_disengageable() {
                    self.entries.push(InArc {
                        src: arc.src().0,
                        delay: arc.delay().get(),
                        marked: arc.is_marked(),
                        arc: a,
                    });
                }
            }
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
        let s = CyclicStructure::new(&sg);
        assert_eq!(s.order.len(), 2);
        // x has one cyclic in-arc (marked, from y); the disengageable one
        // is excluded.
        let ins = s.in_arcs(x);
        assert_eq!(ins.len(), 1);
        assert!(ins[0].marked);
        assert_eq!(ins[0].delay, 3.0);
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
        let s = CyclicStructure::new(&sg);
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
        let s = CyclicStructure::new(&sg);
        let pos = |label: &str| {
            let e = sg.event_by_label(label).unwrap();
            s.order.iter().position(|&x| x == e).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }
}

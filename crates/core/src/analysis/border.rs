//! Border sets (Section VI.A).
//!
//! A *cut set* is a set of events containing at least one event from every
//! cycle of the Signal Graph. The *border set* — repetitive events with an
//! initially marked in-arc — is a cut set of every live Signal Graph: all
//! cycles carry a token, and the head of each marked arc is a border event.
//! Its size `b` bounds the occurrence period of any simple cycle, which in
//! turn bounds the simulation length the cycle-time algorithm needs. The
//! cut-set search and the exact occurrence-period oracle the tests check
//! that bound with live in the dev-only `tsg-oracles` crate.

use crate::event::EventId;
use crate::graph::SignalGraph;

/// The border set of `sg` (equivalent to
/// [`SignalGraph::border_events`]).
pub fn border_set(sg: &SignalGraph) -> Vec<EventId> {
    sg.border_events()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

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
    fn example7_border_set() {
        // Example 7: {a+, b+} is the border set.
        let sg = figure2();
        let border: Vec<String> = border_set(&sg)
            .into_iter()
            .map(|e| sg.label(e).to_string())
            .collect();
        assert_eq!(border, vec!["a+", "b+"]);
    }
}

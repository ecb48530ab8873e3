//! The token game: untimed execution semantics of Signal Graphs.
//!
//! An event is *enabled* when all its active in-arcs carry a token; firing
//! it consumes one token from each active in-arc and produces one token on
//! each out-arc (Section III.A). Disengageable arcs become permanently
//! inactive after their single token is consumed; prefix events fire at most
//! once.

use std::fmt;

use tsg_core::{ArcId, EventId, SignalGraph};

/// A marking of a [`SignalGraph`]: token counts per arc plus the one-shot
/// state of disengageable arcs and prefix events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Marking {
    tokens: Vec<u32>,
    spent: Vec<bool>,
    fired_prefix: Vec<bool>,
}

/// Error returned by [`Marking::fire`] when the event is not enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotEnabled(pub EventId);

impl fmt::Display for NotEnabled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {} is not enabled", self.0)
    }
}

impl std::error::Error for NotEnabled {}

impl Marking {
    /// The initial marking: one token on each marked arc, disengageable
    /// arcs armed, no prefix event fired.
    pub fn initial(sg: &SignalGraph) -> Self {
        Marking {
            tokens: sg.arcs().iter().map(|a| u32::from(a.is_marked())).collect(),
            spent: vec![false; sg.arc_count()],
            fired_prefix: vec![false; sg.event_count()],
        }
    }

    /// Tokens currently on `arc`.
    pub fn tokens(&self, arc: ArcId) -> u32 {
        self.tokens[arc.index()]
    }

    /// `true` when the disengageable `arc` has already been consumed.
    pub fn is_spent(&self, arc: ArcId) -> bool {
        self.spent[arc.index()]
    }

    /// `true` when the prefix event `e` has already fired.
    pub fn has_fired(&self, e: EventId) -> bool {
        self.fired_prefix[e.index()]
    }

    fn arc_active(&self, sg: &SignalGraph, a: ArcId) -> bool {
        !(sg.arc(a).is_disengageable() && self.spent[a.index()])
    }

    /// `true` when `e` may fire in this marking.
    pub fn is_enabled(&self, sg: &SignalGraph, e: EventId) -> bool {
        if sg.kind(e).is_prefix() && self.fired_prefix[e.index()] {
            return false;
        }
        sg.in_arcs(e)
            .all(|a| !self.arc_active(sg, a) || self.tokens[a.index()] > 0)
    }

    /// All live events enabled in this marking, in id order. (A removed
    /// event has no live in-arcs and would otherwise look vacuously
    /// enabled.)
    pub fn enabled_events(&self, sg: &SignalGraph) -> Vec<EventId> {
        sg.events()
            .filter(|&e| sg.is_live_event(e) && self.is_enabled(sg, e))
            .collect()
    }

    /// Fires `e`: consumes a token from each active in-arc (spending
    /// disengageable arcs) and produces a token on each out-arc.
    ///
    /// # Errors
    ///
    /// Returns [`NotEnabled`] when `e` cannot fire, leaving the marking
    /// unchanged.
    pub fn fire(&mut self, sg: &SignalGraph, e: EventId) -> Result<(), NotEnabled> {
        if !self.is_enabled(sg, e) {
            return Err(NotEnabled(e));
        }
        let in_arcs: Vec<ArcId> = sg.in_arcs(e).collect();
        for a in in_arcs {
            if self.arc_active(sg, a) {
                self.tokens[a.index()] -= 1;
                if sg.arc(a).is_disengageable() {
                    self.spent[a.index()] = true;
                }
            }
        }
        let out_arcs: Vec<ArcId> = sg.out_arcs(e).collect();
        for a in out_arcs {
            self.tokens[a.index()] += 1;
        }
        if sg.kind(e).is_prefix() {
            self.fired_prefix[e.index()] = true;
        }
        Ok(())
    }

    /// Fires every prefix event and then one full period (each repetitive
    /// event exactly once), always choosing the lowest-id enabled event
    /// that still has occurrences due.
    ///
    /// After a full period of a (prefix-free) marked graph the marking
    /// returns to its starting value — the classical Marked Graph
    /// invariant, exercised by the property tests.
    ///
    /// # Errors
    ///
    /// Returns [`NotEnabled`] if the execution deadlocks before every due
    /// event has fired (cannot happen on a validated live graph).
    pub fn fire_period(&mut self, sg: &SignalGraph) -> Result<(), NotEnabled> {
        let mut due: Vec<u32> = sg
            .events()
            .map(|e| {
                if sg.kind(e).is_prefix() {
                    u32::from(!self.fired_prefix[e.index()])
                } else {
                    1
                }
            })
            .collect();
        let total: u32 = due.iter().sum();
        for _ in 0..total {
            let next = sg
                .events()
                .find(|&e| due[e.index()] > 0 && self.is_enabled(sg, e));
            match next {
                Some(e) => {
                    self.fire(sg, e)?;
                    due[e.index()] -= 1;
                }
                None => {
                    let stuck = sg
                        .events()
                        .find(|&e| due[e.index()] > 0)
                        .expect("total > 0 implies a due event exists");
                    return Err(NotEnabled(stuck));
                }
            }
        }
        Ok(())
    }

    /// Token counts restricted to non-disengageable arcs — the part of the
    /// marking that is meaningful across periods.
    pub fn cyclic_tokens(&self, sg: &SignalGraph) -> Vec<u32> {
        sg.arc_ids()
            .filter(|&a| !sg.arc(a).is_disengageable())
            .map(|a| self.tokens[a.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_passes_the_token_along() {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();

        let mut m = Marking::initial(&sg);
        assert!(m.is_enabled(&sg, xp));
        assert!(!m.is_enabled(&sg, xm));
        m.fire(&sg, xp).unwrap();
        assert!(m.is_enabled(&sg, xm));
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
    fn initial_marking_matches_arcs() {
        let sg = figure2();
        let m = Marking::initial(&sg);
        let marked: u32 = sg.arc_ids().map(|a| m.tokens(a)).sum();
        assert_eq!(marked, 2);
    }

    #[test]
    fn initial_event_fires_once() {
        let sg = figure2();
        let e = sg.event_by_label("e-").unwrap();
        let mut m = Marking::initial(&sg);
        assert!(m.is_enabled(&sg, e));
        m.fire(&sg, e).unwrap();
        assert!(!m.is_enabled(&sg, e));
        assert!(m.has_fired(e));
        assert_eq!(m.fire(&sg, e), Err(NotEnabled(e)));
    }

    #[test]
    fn causal_chain_fires_in_order() {
        let sg = figure2();
        let e = sg.event_by_label("e-").unwrap();
        let f = sg.event_by_label("f-").unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        let bp = sg.event_by_label("b+").unwrap();
        let cp = sg.event_by_label("c+").unwrap();
        let mut m = Marking::initial(&sg);
        assert!(!m.is_enabled(&sg, cp));
        assert!(!m.is_enabled(&sg, bp)); // waits on f-
        m.fire(&sg, e).unwrap();
        m.fire(&sg, f).unwrap();
        m.fire(&sg, ap).unwrap();
        m.fire(&sg, bp).unwrap();
        assert!(m.is_enabled(&sg, cp));
    }

    #[test]
    fn disengageable_arcs_spend() {
        let sg = figure2();
        let e = sg.event_by_label("e-").unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        let dis = sg
            .arc_ids()
            .find(|&a| sg.arc(a).is_disengageable() && sg.arc(a).dst() == ap)
            .unwrap();
        let mut m = Marking::initial(&sg);
        m.fire(&sg, e).unwrap();
        assert!(!m.is_spent(dis));
        m.fire(&sg, ap).unwrap();
        assert!(m.is_spent(dis));
    }

    #[test]
    fn full_period_restores_cyclic_marking() {
        let sg = figure2();
        let mut m = Marking::initial(&sg);
        let before = m.cyclic_tokens(&sg);
        m.fire_period(&sg).unwrap();
        // After the prefix + one full period, tokens on the cyclic arcs
        // must equal the initial cyclic marking (Marked Graph invariant);
        // the e->f prefix arc keeps its produced token.
        let after = m.cyclic_tokens(&sg);
        let dis_free: Vec<usize> = sg
            .arc_ids()
            .filter(|&a| !sg.arc(a).is_disengageable())
            .enumerate()
            .filter(|(_, a)| {
                sg.is_repetitive(sg.arc(*a).src()) && sg.is_repetitive(sg.arc(*a).dst())
            })
            .map(|(i, _)| i)
            .collect();
        for i in dis_free {
            assert_eq!(before[i], after[i], "cyclic arc token mismatch");
        }
    }

    #[test]
    fn second_period_fires_without_prefix() {
        let sg = figure2();
        let mut m = Marking::initial(&sg);
        m.fire_period(&sg).unwrap();
        m.fire_period(&sg).unwrap(); // repetitive events keep cycling
    }

    #[test]
    fn enabled_events_initially() {
        let sg = figure2();
        let m = Marking::initial(&sg);
        let enabled = m.enabled_events(&sg);
        let e = sg.event_by_label("e-").unwrap();
        assert_eq!(enabled, vec![e]);
    }
}

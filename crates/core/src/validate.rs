//! Structural validation of Signal Graphs.
//!
//! The paper (Section III.A) restricts its analysis to Signal Graphs that
//! are connected, bounded, initially safe, live and well-formed. These
//! properties translate into the purely structural rules below, each checked
//! when [`SignalGraphBuilder::build`](crate::builder::SignalGraphBuilder::build)
//! is called:
//!
//! 1. delays are finite and non-negative (enforced by [`Delay`]);
//! 2. labels are unique;
//! 3. initial events have no in-arcs;
//! 4. finite events have at least one in-arc (otherwise declare them
//!    initial);
//! 5. no arc leads from a repetitive event to a prefix event;
//! 6. marked arcs connect repetitive events only;
//! 7. disengageable arcs lead from prefix events to repetitive events and
//!    are unmarked ("no repetitive events before disengageable arcs" —
//!    well-formedness);
//! 8. every prefix→repetitive arc is disengageable (a plain arc there would
//!    deadlock the second occurrence of its destination);
//! 9. the unmarked repetitive subgraph is acyclic (every cycle carries a
//!    token ⇒ liveness of the cyclic part);
//! 10. the repetitive subgraph is strongly connected and, when it consists
//!     of a single event, that event carries a self-arc;
//! 11. the prefix subgraph is acyclic (prefix events occur once).
//!
//! [`Delay`]: crate::time::Delay

use std::fmt;

use tsg_graph::topo;

use crate::arc::ArcId;
use crate::event::{EventId, EventKind};
use crate::graph::SignalGraph;
use crate::time::InvalidDelay;

/// A structural rule violation detected while building a [`SignalGraph`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// Two events share the same display label.
    DuplicateLabel(String),
    /// An arc was given a negative, infinite or NaN delay.
    InvalidDelay {
        /// Source event of the offending arc.
        src: EventId,
        /// Destination event of the offending arc.
        dst: EventId,
        /// The underlying delay error.
        source: InvalidDelay,
    },
    /// An initial event has an in-arc.
    InitialEventWithCause(EventId),
    /// A finite event has no in-arc.
    FiniteEventWithoutCause(EventId),
    /// An arc leads from a repetitive event to a prefix event.
    RepetitiveBeforePrefix { src: EventId, dst: EventId },
    /// A marked arc touches a non-repetitive event.
    MarkedArcOutsideCycle { src: EventId, dst: EventId },
    /// A disengageable arc violates well-formedness (repetitive source,
    /// prefix destination, or carries a token).
    MalformedDisengageableArc { src: EventId, dst: EventId },
    /// A prefix→repetitive arc is not disengageable.
    PrefixArcNotDisengageable { src: EventId, dst: EventId },
    /// The unmarked repetitive subgraph has a cycle: the graph is not live
    /// (a token-free cycle can never fire).
    TokenFreeCycle {
        /// Events on or downstream of the token-free cycle.
        events: Vec<EventId>,
    },
    /// The repetitive subgraph is not strongly connected.
    NotStronglyConnected,
    /// The prefix subgraph has a cycle.
    CyclicPrefix,
    /// A structural mutation addressed an out-of-range or removed
    /// event.
    UnknownEvent(EventId),
    /// A structural mutation addressed an out-of-range or removed arc.
    UnknownArc(crate::arc::ArcId),
    /// [`SignalGraph::remove_event`](crate::SignalGraph::remove_event)
    /// was asked to remove an event that still has live arcs.
    EventHasArcs(EventId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateLabel(l) => write!(f, "duplicate event label {l:?}"),
            ValidationError::InvalidDelay { src, dst, source } => {
                write!(f, "arc {src}->{dst}: {source}")
            }
            ValidationError::InitialEventWithCause(e) => {
                write!(f, "initial event {e} must not have in-arcs")
            }
            ValidationError::FiniteEventWithoutCause(e) => {
                write!(f, "finite event {e} has no cause; declare it initial")
            }
            ValidationError::RepetitiveBeforePrefix { src, dst } => {
                write!(
                    f,
                    "arc {src}->{dst} leads from a repetitive event to a prefix event"
                )
            }
            ValidationError::MarkedArcOutsideCycle { src, dst } => {
                write!(f, "marked arc {src}->{dst} must connect repetitive events")
            }
            ValidationError::MalformedDisengageableArc { src, dst } => {
                write!(
                    f,
                    "disengageable arc {src}->{dst} must lead from a prefix event to a repetitive event and carry no token"
                )
            }
            ValidationError::PrefixArcNotDisengageable { src, dst } => {
                write!(
                    f,
                    "prefix->repetitive arc {src}->{dst} must be disengageable"
                )
            }
            ValidationError::TokenFreeCycle { events } => {
                write!(
                    f,
                    "cycle without initial token through {} event(s): graph is not live",
                    events.len()
                )
            }
            ValidationError::NotStronglyConnected => {
                write!(f, "repetitive subgraph is not strongly connected")
            }
            ValidationError::CyclicPrefix => write!(f, "prefix subgraph contains a cycle"),
            ValidationError::UnknownEvent(e) => write!(f, "no live event {e}"),
            ValidationError::UnknownArc(a) => write!(f, "no live arc {a}"),
            ValidationError::EventHasArcs(e) => {
                write!(f, "event {e} still has live arcs; remove them first")
            }
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidationError::InvalidDelay { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Checks all structural rules; called by the builder and
/// [`SignalGraph::validate`]. Returns the topological order of the
/// unmarked repetitive subgraph that the liveness check computes.
pub(crate) fn validate(sg: &SignalGraph) -> Result<Vec<EventId>, ValidationError> {
    check_event_rules(sg)?;
    check_arc_rules(sg)?;
    let order = unmarked_order(sg)?;
    check_connectivity(sg)?;
    prefix_order(sg)?;
    Ok(order)
}

fn check_event_rules(sg: &SignalGraph) -> Result<(), ValidationError> {
    for e in sg.events() {
        if !sg.is_live_event(e) {
            continue;
        }
        match sg.kind(e) {
            EventKind::Initial => {
                if sg.in_arcs(e).next().is_some() {
                    return Err(ValidationError::InitialEventWithCause(e));
                }
            }
            EventKind::Finite => {
                if sg.in_arcs(e).next().is_none() {
                    return Err(ValidationError::FiniteEventWithoutCause(e));
                }
            }
            EventKind::Repetitive => {}
        }
    }
    Ok(())
}

fn check_arc_rules(sg: &SignalGraph) -> Result<(), ValidationError> {
    for id in sg.arc_ids() {
        let arc = sg.arc(id);
        if !arc.is_alive() {
            continue;
        }
        let (src, dst) = (arc.src(), arc.dst());
        let src_rep = sg.is_repetitive(src);
        let dst_rep = sg.is_repetitive(dst);
        if src_rep && !dst_rep {
            return Err(ValidationError::RepetitiveBeforePrefix { src, dst });
        }
        if arc.is_marked() && !(src_rep && dst_rep) {
            return Err(ValidationError::MarkedArcOutsideCycle { src, dst });
        }
        if arc.is_disengageable() && (src_rep || !dst_rep || arc.is_marked()) {
            return Err(ValidationError::MalformedDisengageableArc { src, dst });
        }
        if !src_rep && dst_rep && !arc.is_disengageable() {
            return Err(ValidationError::PrefixArcNotDisengageable { src, dst });
        }
    }
    Ok(())
}

/// The repetitive events in a topological order of the unmarked
/// repetitive subgraph. The subgraph must be acyclic (liveness): a
/// token-free cycle is reported with the events on or downstream of it.
pub(crate) fn unmarked_order(sg: &SignalGraph) -> Result<Vec<EventId>, ValidationError> {
    let res = topo::topological_order_masked(sg.digraph(), |e| {
        let arc = sg.arc(ArcId(e.0));
        sg.is_repetitive(arc.src()) && sg.is_repetitive(arc.dst()) && !arc.is_marked()
    });
    match res {
        Ok(order) => Ok(order
            .into_iter()
            .map(|n| EventId(n.0))
            .filter(|&e| sg.is_repetitive(e))
            .collect()),
        Err(cyc) => Err(ValidationError::TokenFreeCycle {
            events: cyc.remaining.into_iter().map(|n| EventId(n.0)).collect(),
        }),
    }
}

/// The repetitive subgraph must be strongly connected: a forward and a
/// backward search from one repetitive event reach every other. A lone
/// repetitive event needs a self-arc.
fn check_connectivity(sg: &SignalGraph) -> Result<(), ValidationError> {
    let Some(root) = sg.repetitive_events().next() else {
        return Ok(()); // purely acyclic (PERT-style) graph is allowed
    };
    let total = sg.repetitive_count();
    let connected = if total == 1 {
        sg.out_arcs(root).any(|a| sg.arc(a).dst() == root)
    } else {
        let mut seen = vec![false; sg.event_count()];
        let mut stack = Vec::with_capacity(sg.event_count());
        let mut reaches_all = |forward: bool| {
            seen.fill(false);
            seen[root.index()] = true;
            stack.push(root);
            let mut reached = 1;
            while let Some(v) = stack.pop() {
                let mut visit = |w: EventId| {
                    if sg.is_repetitive(w) && !seen[w.index()] {
                        seen[w.index()] = true;
                        reached += 1;
                        stack.push(w);
                    }
                };
                if forward {
                    sg.out_arcs(v).for_each(|a| visit(sg.arc(a).dst()));
                } else {
                    sg.in_arcs(v).for_each(|a| visit(sg.arc(a).src()));
                }
            }
            reached == total
        };
        reaches_all(true) && reaches_all(false)
    };
    if connected {
        Ok(())
    } else {
        Err(ValidationError::NotStronglyConnected)
    }
}

/// The live prefix events in a topological order of the prefix
/// subgraph, which must be acyclic (prefix events occur once).
pub(crate) fn prefix_order(sg: &SignalGraph) -> Result<Vec<EventId>, ValidationError> {
    if sg.prefix_events().next().is_none() {
        return Ok(Vec::new());
    }
    let res = topo::topological_order_masked(sg.digraph(), |e| {
        let arc = sg.arc(ArcId(e.0));
        !sg.is_repetitive(arc.src()) && !sg.is_repetitive(arc.dst())
    });
    let order = res.map_err(|_| ValidationError::CyclicPrefix)?;
    Ok(order
        .into_iter()
        .map(|n| EventId(n.0))
        .filter(|&e| sg.is_live_event(e) && !sg.is_repetitive(e))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

    #[test]
    fn initial_event_with_cause_rejected() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("e-");
        let j = b.initial_event("g-");
        let r = b.event("a+");
        b.arc(j, i, 1.0); // arc into an initial event
        b.disengageable_arc(i, r, 1.0);
        b.marked_arc(r, r, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::InitialEventWithCause(_))
        ));
    }

    #[test]
    fn finite_event_needs_cause() {
        let mut b = SignalGraph::builder();
        let f = b.finite_event("f-");
        let r = b.event("a+");
        b.disengageable_arc(f, r, 1.0);
        b.marked_arc(r, r, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::FiniteEventWithoutCause(_))
        ));
    }

    #[test]
    fn repetitive_to_prefix_rejected() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("e-");
        let f = b.finite_event("f-");
        let r = b.event("a+");
        b.arc(i, f, 1.0);
        b.disengageable_arc(i, r, 1.0);
        b.marked_arc(r, r, 1.0);
        b.arc(r, f, 1.0); // repetitive -> prefix
        assert!(matches!(
            b.build(),
            Err(ValidationError::RepetitiveBeforePrefix { .. })
        ));
    }

    #[test]
    fn marked_arc_from_prefix_rejected() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("e-");
        let r = b.event("a+");
        b.marked_arc(i, r, 1.0);
        b.marked_arc(r, r, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::MarkedArcOutsideCycle { .. })
        ));
    }

    #[test]
    fn plain_prefix_to_repetitive_rejected() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("e-");
        let r = b.event("a+");
        b.arc(i, r, 1.0); // must be disengageable
        b.marked_arc(r, r, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::PrefixArcNotDisengageable { .. })
        ));
    }

    #[test]
    fn disengageable_between_repetitive_rejected() {
        let mut b = SignalGraph::builder();
        let a = b.event("a+");
        let c = b.event("c+");
        b.disengageable_arc(a, c, 1.0);
        b.marked_arc(c, a, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::MalformedDisengageableArc { .. })
        ));
    }

    #[test]
    fn token_free_cycle_rejected() {
        let mut b = SignalGraph::builder();
        let a = b.event("a+");
        let c = b.event("c+");
        b.arc(a, c, 1.0);
        b.arc(c, a, 1.0); // no token anywhere
        assert!(matches!(
            b.build(),
            Err(ValidationError::TokenFreeCycle { .. })
        ));
    }

    #[test]
    fn disconnected_repetitive_subgraph_rejected() {
        let mut b = SignalGraph::builder();
        let a = b.event("a+");
        let c = b.event("c+");
        // two independent self-loops: live but not strongly connected
        b.marked_arc(a, a, 1.0);
        b.marked_arc(c, c, 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::NotStronglyConnected
        );
    }

    #[test]
    fn single_event_needs_self_arc() {
        let mut b = SignalGraph::builder();
        b.event("a+");
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::NotStronglyConnected
        );

        let mut b = SignalGraph::builder();
        let a = b.event("a+");
        b.marked_arc(a, a, 4.0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn cyclic_prefix_rejected() {
        let mut b = SignalGraph::builder();
        let f1 = b.finite_event("f");
        let f2 = b.finite_event("g");
        b.arc(f1, f2, 1.0);
        b.arc(f2, f1, 1.0);
        let r = b.event("a+");
        b.disengageable_arc(f1, r, 1.0);
        b.marked_arc(r, r, 1.0);
        assert_eq!(b.build().unwrap_err(), ValidationError::CyclicPrefix);
    }

    #[test]
    fn prefix_only_graph_is_valid() {
        // A PERT-style acyclic computation with no repetitive events.
        let mut b = SignalGraph::builder();
        let i = b.initial_event("start");
        let f = b.finite_event("end");
        b.arc(i, f, 7.0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn figure2_shape_is_valid() {
        // The paper's Figure 2c graph passes validation.
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
        let sg = b.build().unwrap();
        assert_eq!(sg.border_events().len(), 2);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ValidationError::NotStronglyConnected;
        assert!(e.to_string().contains("strongly connected"));
        let e = ValidationError::DuplicateLabel("a+".into());
        assert!(e.to_string().contains("a+"));
    }
}

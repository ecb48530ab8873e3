//! Incremental construction of validated [`SignalGraph`]s.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tsg_graph::{DiGraph, NodeId};

use crate::arc::{Arc, ArcId};
use crate::event::{EventId, EventKind, EventLabel};
use crate::graph::{EventNode, SignalGraph};
use crate::time::Delay;
use crate::validate::{self, ValidationError};

/// Builder for [`SignalGraph`]; created by [`SignalGraph::builder`].
///
/// Events are added with [`event`](Self::event) (repetitive),
/// [`initial_event`](Self::initial_event) and
/// [`finite_event`](Self::finite_event); arcs with [`arc`](Self::arc)
/// (plain), [`marked_arc`](Self::marked_arc) (carrying an initial token) and
/// [`disengageable_arc`](Self::disengageable_arc) (active once, for
/// prefix→repetitive constraints). [`build`](Self::build) validates the
/// paper's structural restrictions and returns the finished graph.
///
/// Labels passed as strings are parsed leniently: `"a+"`/`"a-"` become
/// signal transitions, anything else a bare label.
///
/// # Examples
///
/// The Figure 1b graph is built in `tsg-circuit`'s library; a minimal ring:
///
/// ```
/// use tsg_core::SignalGraph;
///
/// let mut b = SignalGraph::builder();
/// let up = b.event("clk+");
/// let down = b.event("clk-");
/// b.arc(up, down, 5.0);
/// b.marked_arc(down, up, 5.0);
/// let sg = b.build()?;
/// assert_eq!(sg.arc_count(), 2);
/// # Ok::<(), tsg_core::validate::ValidationError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SignalGraphBuilder {
    events: Vec<EventNode>,
    arcs: Vec<Arc>,
    by_label: HashMap<String, EventId>,
    errors: Vec<ValidationError>,
}

impl SignalGraphBuilder {
    /// Creates an empty builder. Equivalent to [`SignalGraph::builder`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `events` events and `arcs` arcs,
    /// for callers that know the graph's size up front (the `.g`
    /// reader).
    pub fn with_capacity(events: usize, arcs: usize) -> Self {
        SignalGraphBuilder {
            events: Vec::with_capacity(events),
            arcs: Vec::with_capacity(arcs),
            by_label: HashMap::with_capacity(events),
            errors: Vec::new(),
        }
    }

    /// Adds an event under `key`, which must equal `label.to_string()`.
    fn add_keyed_event(&mut self, key: String, label: EventLabel, kind: EventKind) -> EventId {
        let id = EventId(self.events.len() as u32);
        match self.by_label.entry(key) {
            Entry::Occupied(mut slot) => {
                slot.insert(id);
                let key = slot.key().clone();
                self.errors.push(ValidationError::DuplicateLabel(key));
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
        self.events.push(EventNode {
            label,
            kind,
            alive: true,
        });
        id
    }

    /// Adds an event labelled by the lenient parse of `label`. The
    /// label's display form is `label` itself in both the transition and
    /// the bare case, so `label` keys the lookup map as given.
    fn add_parsed_event(&mut self, label: &str, kind: EventKind) -> EventId {
        let parsed = label
            .parse()
            .unwrap_or_else(|_| EventLabel::bare(label.to_owned()));
        self.add_keyed_event(label.to_owned(), parsed, kind)
    }

    /// Adds a repetitive event (`∈ A_r`) and returns its id.
    pub fn event(&mut self, label: &str) -> EventId {
        self.add_parsed_event(label, EventKind::Repetitive)
    }

    /// Adds an initial event (`∈ I`): occurs once, at time 0, uncaused.
    pub fn initial_event(&mut self, label: &str) -> EventId {
        self.add_parsed_event(label, EventKind::Initial)
    }

    /// Adds a finite event: occurs once, caused by other prefix events
    /// (like `f-` in Figure 1).
    pub fn finite_event(&mut self, label: &str) -> EventId {
        self.add_parsed_event(label, EventKind::Finite)
    }

    /// Adds an event with an explicit [`EventLabel`] and [`EventKind`].
    pub fn event_with(&mut self, label: EventLabel, kind: EventKind) -> EventId {
        self.add_keyed_event(label.to_string(), label, kind)
    }

    fn push_arc(
        &mut self,
        src: EventId,
        dst: EventId,
        delay: f64,
        marked: bool,
        dis: bool,
    ) -> ArcId {
        let delay = match Delay::new(delay) {
            Ok(d) => d,
            Err(e) => {
                self.errors.push(ValidationError::InvalidDelay {
                    src,
                    dst,
                    source: e,
                });
                Delay::ZERO
            }
        };
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(Arc::new(src, dst, delay, marked, dis));
        id
    }

    /// Adds a plain (unmarked) arc `src → dst` with the given delay.
    pub fn arc(&mut self, src: EventId, dst: EventId, delay: f64) -> ArcId {
        self.push_arc(src, dst, delay, false, false)
    }

    /// Adds an initially marked arc `src →• dst` (one token).
    pub fn marked_arc(&mut self, src: EventId, dst: EventId, delay: f64) -> ArcId {
        self.push_arc(src, dst, delay, true, false)
    }

    /// Adds a disengageable arc `src ⇥ dst`: it constrains only the first
    /// occurrence of `dst` and then disappears. `src` must be a prefix
    /// event (validated at [`build`](Self::build)).
    pub fn disengageable_arc(&mut self, src: EventId, dst: EventId, delay: f64) -> ArcId {
        self.push_arc(src, dst, delay, false, true)
    }

    /// Number of events added so far.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of arcs added so far.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] violated by the construction;
    /// see [`crate::validate`] for the full list of structural rules.
    pub fn build(self) -> Result<SignalGraph, ValidationError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let mut graph = DiGraph::with_capacity(self.events.len(), self.arcs.len());
        for _ in 0..self.events.len() {
            graph.add_node();
        }
        for arc in &self.arcs {
            graph.add_edge(NodeId(arc.src().0), NodeId(arc.dst().0));
        }
        let sg = SignalGraph {
            events: self.events,
            arcs: self.arcs,
            graph,
            by_label: self.by_label,
        };
        validate::validate(&sg)?;
        Ok(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_minimal_ring() {
        let mut b = SignalGraphBuilder::new();
        let a = b.event("a");
        let c = b.event("b");
        b.arc(a, c, 1.0);
        b.marked_arc(c, a, 1.0);
        assert_eq!(b.event_count(), 2);
        assert_eq!(b.arc_count(), 2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut b = SignalGraphBuilder::new();
        let a1 = b.event("a+");
        let a2 = b.event("a+");
        b.arc(a1, a2, 1.0);
        b.marked_arc(a2, a1, 1.0);
        assert!(matches!(b.build(), Err(ValidationError::DuplicateLabel(_))));
    }

    #[test]
    fn invalid_delay_rejected() {
        let mut b = SignalGraphBuilder::new();
        let a = b.event("a");
        let c = b.event("b");
        b.arc(a, c, -2.0);
        b.marked_arc(c, a, 1.0);
        assert!(matches!(
            b.build(),
            Err(ValidationError::InvalidDelay { .. })
        ));
    }

    #[test]
    fn bare_and_transition_labels_coexist() {
        let mut b = SignalGraphBuilder::new();
        let a = b.event("req+");
        let c = b.event("go");
        b.arc(a, c, 0.0);
        b.marked_arc(c, a, 0.0);
        let sg = b.build().unwrap();
        assert!(sg.label(a).polarity().is_some());
        assert!(sg.label(c).polarity().is_none());
    }
}

//! The Timed Signal Graph: events, arcs, and structural queries.

use tsg_graph::{DiGraph, EdgeId, NodeId};

use crate::arc::{Arc, ArcId};
use crate::builder::SignalGraphBuilder;
use crate::decimal;
use crate::event::{EventId, EventKind, Label, Polarity};
use crate::label::Labels;
use crate::validate::ValidationError;

/// A Timed Signal Graph (Sections III.A and III.C of the paper).
///
/// A Signal Graph is the tuple `⟨A, I, →, M, O⟩`: events `A` (split here
/// into repetitive, initial and finite [`EventKind`]s), initial events `I`,
/// the precedence relation `→` with its initial marking `M` and the set of
/// disengageable arcs `O`. A *Timed* Signal Graph additionally labels every
/// arc with a delay `δ ∈ [0, ∞)`.
///
/// Instances are created through [`SignalGraph::builder`], which validates
/// the structural restrictions the paper imposes (initial safety, liveness
/// of the cyclic part, well-formedness of the prefix). A successfully built
/// graph therefore always satisfies:
///
/// * the unmarked repetitive subgraph is acyclic (every cycle carries an
///   initial token — liveness),
/// * the repetitive subgraph is strongly connected,
/// * disengageable arcs lead from prefix events to repetitive events and
///   every prefix→repetitive arc is disengageable (well-formedness),
/// * marked arcs connect repetitive events only,
/// * initial events have no causes.
///
/// The graph is stored flat. Every label's text lives in one string
/// arena with one hash index over it; arcs are one array; in- and
/// out-arcs are the compressed-sparse-row arrays of a [`DiGraph`]. A
/// graph of any size is a dozen allocations, so cloning and dropping it
/// cost a few copies and frees. Structural edits
/// ([`add_arc`](Self::add_arc), [`remove_arc`](Self::remove_arc),
/// [`add_event`](Self::add_event), [`remove_event`](Self::remove_event))
/// cost `O(1)` amortised: an arc edit drops the adjacency, and the next
/// adjacency query — at the latest [`validate`](Self::validate) —
/// rebuilds it in `O(n + m)`. A batch of `k` edits then costs
/// `O(n + m + k)`.
///
/// # Examples
///
/// Build the two-event oscillator `x+ ⇄ x-` with unit delays:
///
/// ```
/// use tsg_core::SignalGraph;
///
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 1.0);
/// b.marked_arc(xm, xp, 1.0);
/// let sg = b.build()?;
/// assert_eq!(sg.event_count(), 2);
/// assert_eq!(sg.border_events(), vec![xp]);
/// # Ok::<(), tsg_core::validate::ValidationError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SignalGraph {
    pub(crate) events: Vec<EventNode>,
    pub(crate) arcs: Vec<Arc>,
    pub(crate) graph: DiGraph,
    pub(crate) labels: Labels,
    /// The repetitive events in a topological order of the unmarked
    /// repetitive subgraph, as the last [`validate`](Self::validate)
    /// found it; `None` after a structural edit until the next one.
    pub(crate) order: Option<Vec<EventId>>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct EventNode {
    pub(crate) kind: EventKind,
    /// `false` once removed; the slot stays so [`EventId`]s never shift.
    pub(crate) alive: bool,
}

/// Alias emphasising that delays are part of the model, matching the
/// paper's terminology.
pub type TimedSignalGraph = SignalGraph;

/// The repetitive (cyclic) subgraph of a [`SignalGraph`] with local dense
/// ids, produced by [`SignalGraph::repetitive_view`].
///
/// Local node `i` corresponds to `events[i]`; local edge `j` corresponds to
/// `arcs[j]` of the original graph.
#[derive(Clone, Debug)]
pub struct RepetitiveView {
    /// The induced subgraph (nodes/edges use local ids).
    pub graph: DiGraph,
    /// Local node index → original event.
    pub events: Vec<EventId>,
    /// Local edge index → original arc.
    pub arcs: Vec<ArcId>,
    to_local: Vec<usize>,
}

impl RepetitiveView {
    /// The local node id of `e`, if `e` is repetitive.
    pub fn local(&self, e: EventId) -> Option<NodeId> {
        match self.to_local.get(e.index()).copied() {
            Some(usize::MAX) | None => None,
            Some(i) => Some(NodeId(i as u32)),
        }
    }
}

impl SignalGraph {
    /// Starts building a graph.
    pub fn builder() -> SignalGraphBuilder {
        SignalGraphBuilder::new()
    }

    /// Number of events (`|A|`).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of arcs (`m` in the complexity analysis).
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Number of repetitive events (`|A_r|`); removed events do not
    /// count.
    pub fn repetitive_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.alive && e.kind == EventKind::Repetitive)
            .count()
    }

    /// Number of live (non-removed) arcs. [`arc_count`](Self::arc_count)
    /// stays the raw id bound, which removal never
    /// shrinks.
    pub fn live_arc_count(&self) -> usize {
        self.arcs.iter().filter(|a| a.is_alive()).count()
    }

    /// `true` when `e` is an event of this graph and has not been
    /// removed.
    pub fn is_live_event(&self, e: EventId) -> bool {
        self.events.get(e.index()).is_some_and(|n| n.alive)
    }

    /// `true` when `a` is an arc of this graph and has not been
    /// removed.
    pub fn is_live_arc(&self, a: ArcId) -> bool {
        self.arcs.get(a.index()).is_some_and(|x| x.is_alive())
    }

    /// The label of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an event of this graph.
    pub fn label(&self, e: EventId) -> Label<'_> {
        self.labels.get(e.index())
    }

    /// The kind of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an event of this graph.
    pub fn kind(&self, e: EventId) -> EventKind {
        self.events[e.index()].kind
    }

    /// `true` when `e` is repetitive (`e ∈ A_r`). Removed events are
    /// never repetitive, so every border filter built on this predicate
    /// skips tombstones automatically.
    pub fn is_repetitive(&self, e: EventId) -> bool {
        let node = &self.events[e.index()];
        node.alive && node.kind == EventKind::Repetitive
    }

    /// Looks up an event by its display label (e.g. `"a+"`).
    pub fn event_by_label(&self, label: &str) -> Option<EventId> {
        self.labels.find(label)
    }

    /// Iterator over all event ids in insertion order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = EventId> + '_ {
        (0..self.events.len() as u32).map(EventId)
    }

    /// Iterator over the repetitive events.
    pub fn repetitive_events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events().filter(|&e| self.is_repetitive(e))
    }

    /// Iterator over the live prefix (initial + finite) events.
    pub fn prefix_events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events().filter(|&e| {
            let node = &self.events[e.index()];
            node.alive && node.kind.is_prefix()
        })
    }

    /// Iterator over all arc ids in insertion order.
    pub fn arc_ids(&self) -> impl ExactSizeIterator<Item = ArcId> + '_ {
        (0..self.arcs.len() as u32).map(ArcId)
    }

    /// The arc with id `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an arc of this graph.
    pub fn arc(&self, a: ArcId) -> &Arc {
        &self.arcs[a.index()]
    }

    /// All arcs, indexed by [`ArcId`].
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Replaces the delay of arc `a` — the mutation behind
    /// [`AnalysisSession`](crate::analysis::session::AnalysisSession)
    /// delta queries and the `design_space` sweep.
    ///
    /// Only the delay label changes; the structure the builder validated
    /// (topology, marking, disengageability) is untouched, so every
    /// structural invariant of a built graph keeps holding.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDelay`](crate::time::InvalidDelay) for negative,
    /// infinite or NaN delays.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an arc of this graph.
    pub fn set_delay(&mut self, a: ArcId, delay: f64) -> Result<(), crate::time::InvalidDelay> {
        let delay = crate::time::Delay::new(delay)?;
        self.arcs[a.index()].set_delay(delay);
        Ok(())
    }

    /// Adds a repetitive event with a fresh dense [`EventId`]
    /// (`event_count()` before the call). Labels are parsed leniently
    /// like the builder's: `"a+"`/`"a-"` become signal transitions,
    /// anything else a bare label.
    ///
    /// Structural mutations check per-operation rules only; batch-level
    /// invariants (liveness, strong connectivity of the cyclic part)
    /// are re-checked by [`validate`](Self::validate), which
    /// [`AnalysisSession::edit_structure`](crate::analysis::session::AnalysisSession::edit_structure)
    /// runs after applying a whole edit batch.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::DuplicateLabel`] when a live event
    /// already carries the label (labels of removed events are
    /// reusable).
    pub fn add_event(&mut self, label: &str) -> Result<EventId, ValidationError> {
        let (id, fresh) = self.labels.intern(label);
        if !fresh {
            return Err(ValidationError::DuplicateLabel(label.to_owned()));
        }
        self.events.push(EventNode {
            kind: EventKind::Repetitive,
            alive: true,
        });
        self.graph.add_node();
        self.order = None;
        Ok(id)
    }

    /// Removes event `e`: its id slot becomes a tombstone (no other
    /// [`EventId`] shifts) and its label is free for reuse. The event
    /// must have no remaining live arcs — remove those first.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::UnknownEvent`] for an out-of-range or
    /// already-removed id, [`ValidationError::EventHasArcs`] when live
    /// arcs still touch `e`.
    pub fn remove_event(&mut self, e: EventId) -> Result<(), ValidationError> {
        if !self.is_live_event(e) {
            return Err(ValidationError::UnknownEvent(e));
        }
        if self.graph.degree(NodeId(e.0)) > 0 {
            return Err(ValidationError::EventHasArcs(e));
        }
        self.events[e.index()].alive = false;
        self.labels.unindex(e);
        self.order = None;
        Ok(())
    }

    /// Adds an arc `src → dst` with the given delay, optionally
    /// carrying an initial token, and returns its fresh dense [`ArcId`]
    /// (`arc_count()` before the call).
    ///
    /// Per-operation rules mirror the builder's arc rules: both
    /// endpoints must be live, marked arcs must connect repetitive
    /// events, and prefix↔repetitive arcs are rejected (a plain
    /// prefix→repetitive arc would deadlock the destination's second
    /// occurrence; repetitive→prefix is forbidden outright). Batch
    /// invariants — every cycle still carries a token, the cyclic part
    /// stays strongly connected — are [`validate`](Self::validate)'s
    /// job after the whole batch.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::UnknownEvent`] for a dead or
    /// out-of-range endpoint, [`ValidationError::InvalidDelay`],
    /// [`ValidationError::MarkedArcOutsideCycle`],
    /// [`ValidationError::RepetitiveBeforePrefix`] or
    /// [`ValidationError::PrefixArcNotDisengageable`].
    pub fn add_arc(
        &mut self,
        src: EventId,
        dst: EventId,
        delay: f64,
        marked: bool,
    ) -> Result<ArcId, ValidationError> {
        if !self.is_live_event(src) {
            return Err(ValidationError::UnknownEvent(src));
        }
        if !self.is_live_event(dst) {
            return Err(ValidationError::UnknownEvent(dst));
        }
        let delay = crate::time::Delay::new(delay)
            .map_err(|source| ValidationError::InvalidDelay { src, dst, source })?;
        let (src_rep, dst_rep) = (self.is_repetitive(src), self.is_repetitive(dst));
        if src_rep && !dst_rep {
            return Err(ValidationError::RepetitiveBeforePrefix { src, dst });
        }
        if marked && !(src_rep && dst_rep) {
            return Err(ValidationError::MarkedArcOutsideCycle { src, dst });
        }
        if !src_rep && dst_rep {
            return Err(ValidationError::PrefixArcNotDisengageable { src, dst });
        }
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(Arc::new(src, dst, delay, marked, false));
        self.graph.add_edge(NodeId(src.0), NodeId(dst.0));
        self.order = None;
        Ok(id)
    }

    /// Removes arc `a`: its id slot becomes a tombstone reading as
    /// unmarked and non-disengageable (no other [`ArcId`] shifts), it
    /// disappears from [`in_arcs`](Self::in_arcs)/[`out_arcs`](Self::out_arcs)/
    /// [`arc_between`](Self::arc_between), and its
    /// endpoint record survives for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::UnknownArc`] for an out-of-range or
    /// already-removed id.
    pub fn remove_arc(&mut self, a: ArcId) -> Result<(), ValidationError> {
        if !self.is_live_arc(a) {
            return Err(ValidationError::UnknownArc(a));
        }
        self.graph.remove_edge(EdgeId(a.0));
        self.arcs[a.index()].kill();
        self.order = None;
        Ok(())
    }

    /// Re-checks every structural rule the builder enforced, skipping
    /// tombstones — the batch-level gate after a sequence of
    /// [`add_arc`](Self::add_arc)/[`remove_arc`](Self::remove_arc)/
    /// [`add_event`](Self::add_event)/[`remove_event`](Self::remove_event)
    /// mutations. A graph that passes keeps the topological order of
    /// its unmarked repetitive subgraph that the liveness check computed,
    /// and every analysis of it reuses that order.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule; see [`crate::validate`].
    pub fn validate(&mut self) -> Result<(), ValidationError> {
        self.order = Some(crate::validate::validate(self)?);
        Ok(())
    }

    /// The repetitive events in a topological order of the unmarked
    /// repetitive subgraph, as the builder or the last
    /// [`validate`](Self::validate) computed it; every analysis of the
    /// graph evaluates events in this order. `None` after a structural
    /// edit, until the next [`validate`](Self::validate).
    pub fn topological_order(&self) -> Option<&[EventId]> {
        self.order.as_deref()
    }

    /// The first live arc (in insertion order) leading from `src` to
    /// `dst`, if any — how label-addressed edits (`tsg explore --edit
    /// "a+->b+=3"`, the serve tier's structural ops) resolve to an
    /// [`ArcId`]. `O(out-degree of src)`: a scan of
    /// [`out_arcs`](Self::out_arcs), which keeps insertion order and
    /// from which [`remove_arc`](Self::remove_arc) detaches tombstones.
    pub fn arc_between(&self, src: EventId, dst: EventId) -> Option<ArcId> {
        self.out_arcs(src)
            .find(|&a| self.arcs[a.index()].dst() == dst)
    }

    /// Live arcs entering `e`, in `ArcId` order.
    pub fn in_arcs(&self, e: EventId) -> impl Iterator<Item = ArcId> + '_ {
        self.graph
            .in_edges(NodeId(e.0))
            .iter()
            .map(|&EdgeId(i)| ArcId(i))
    }

    /// Arcs leaving `e`.
    pub fn out_arcs(&self, e: EventId) -> impl Iterator<Item = ArcId> + '_ {
        self.graph
            .out_edges(NodeId(e.0))
            .iter()
            .map(|&EdgeId(i)| ArcId(i))
    }

    /// The *border events*: repetitive events with at least one initially
    /// marked in-arc (Section VI.A).
    ///
    /// The border set is a cut set of all cycles of a live Signal Graph —
    /// every cycle carries a token, and the head of each marked arc is a
    /// border event — so the cycle-time algorithm only initiates timing
    /// simulations from these events.
    pub fn border_events(&self) -> Vec<EventId> {
        self.events()
            .filter(|&e| self.is_repetitive(e) && self.in_arcs(e).any(|a| self.arc(a).is_marked()))
            .collect()
    }

    /// The underlying [`DiGraph`]: node `i` is event `i`, edge `j` is arc
    /// `j`. Exposed so graph algorithms can run directly on the structure.
    pub fn digraph(&self) -> &DiGraph {
        &self.graph
    }

    /// Sum of the delays of `arcs`.
    pub fn path_length(&self, arcs: &[ArcId]) -> f64 {
        arcs.iter().map(|&a| self.arc(a).delay().get()).sum()
    }

    /// Number of marked arcs among `arcs` — for a cycle this is its
    /// *occurrence period* `ε` (Section V.A).
    pub fn occurrence_period(&self, arcs: &[ArcId]) -> u32 {
        arcs.iter().filter(|&&a| self.arc(a).is_marked()).count() as u32
    }

    /// Projects out the cyclic part: the subgraph induced by the repetitive
    /// events. All cycles of the Signal Graph live in this view, so the
    /// maximum-cycle-ratio baselines operate on it directly.
    pub fn repetitive_view(&self) -> RepetitiveView {
        let events: Vec<EventId> = self.repetitive_events().collect();
        let mut to_local = vec![usize::MAX; self.event_count()];
        for (i, &e) in events.iter().enumerate() {
            to_local[e.index()] = i;
        }
        let mut edges = Vec::new();
        let mut arcs = Vec::new();
        for a in self.arc_ids() {
            let arc = self.arc(a);
            if !arc.is_alive() {
                continue;
            }
            let (s, d) = (to_local[arc.src().index()], to_local[arc.dst().index()]);
            if s != usize::MAX && d != usize::MAX {
                edges.push((NodeId(s as u32), NodeId(d as u32)));
                arcs.push(a);
            }
        }
        let graph = DiGraph::from_edges(events.len(), edges);
        RepetitiveView {
            graph,
            events,
            arcs,
            to_local,
        }
    }

    /// Renders a path or cycle as `a+ -3-> c+ -2-> a-`.
    pub fn display_path(&self, arcs: &[ArcId]) -> String {
        let mut s = String::new();
        for (i, &a) in arcs.iter().enumerate() {
            let arc = self.arc(a);
            if i == 0 {
                push_label(&mut s, self.label(arc.src()));
            }
            s.push_str(" -");
            decimal::push_display(&mut s, arc.delay().get());
            s.push_str(if arc.is_marked() { "*-> " } else { "-> " });
            push_label(&mut s, self.label(arc.dst()));
        }
        s
    }
}

/// Appends `label` as its `Display` would.
fn push_label(out: &mut String, label: Label<'_>) {
    out.push_str(label.signal());
    match label.polarity() {
        Some(Polarity::Rise) => out.push('+'),
        Some(Polarity::Fall) => out.push('-'),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let sg = two_phase();
        assert_eq!(sg.event_count(), 2);
        assert_eq!(sg.arc_count(), 2);
        assert_eq!(sg.repetitive_count(), 2);
        let xp = sg.event_by_label("x+").unwrap();
        assert_eq!(sg.label(xp).to_string(), "x+");
        assert!(sg.is_repetitive(xp));
        assert!(sg.event_by_label("y+").is_none());
    }

    #[test]
    fn border_set_is_marked_heads() {
        let sg = two_phase();
        let xp = sg.event_by_label("x+").unwrap();
        assert_eq!(sg.border_events(), vec![xp]);
    }

    #[test]
    fn arc_iteration() {
        let sg = two_phase();
        let xm = sg.event_by_label("x-").unwrap();
        let ins: Vec<_> = sg.in_arcs(xm).collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(sg.arc(ins[0]).src(), sg.event_by_label("x+").unwrap());
        let outs: Vec<_> = sg.out_arcs(xm).collect();
        assert_eq!(outs.len(), 1);
        assert!(sg.arc(outs[0]).is_marked());
    }

    #[test]
    fn path_metrics() {
        let sg = two_phase();
        let all: Vec<_> = sg.arc_ids().collect();
        assert_eq!(sg.path_length(&all), 3.0);
        assert_eq!(sg.occurrence_period(&all), 1);
    }

    #[test]
    fn display_path_format() {
        let sg = two_phase();
        let all: Vec<_> = sg.arc_ids().collect();
        assert_eq!(sg.display_path(&all), "x+ -1-> x- -2*-> x+");
    }

    #[test]
    fn arc_between_uses_first_live_parallel_arc() {
        let mut b = SignalGraph::builder();
        let a = b.event("a");
        let c = b.event("b");
        let first = b.arc(a, c, 1.0);
        let second = b.arc(a, c, 2.0);
        b.marked_arc(c, a, 1.0);
        let mut sg = b.build().unwrap();
        assert_eq!(sg.arc_between(a, c), Some(first));
        sg.remove_arc(first).unwrap();
        assert_eq!(sg.arc_between(a, c), Some(second));
        sg.remove_arc(second).unwrap();
        assert_eq!(sg.arc_between(a, c), None);
    }

    #[test]
    fn add_and_remove_arc_keep_ids_stable() {
        let mut sg = two_phase();
        let xp = sg.event_by_label("x+").unwrap();
        let xm = sg.event_by_label("x-").unwrap();
        let extra = sg.add_arc(xp, xm, 4.0, false).unwrap();
        assert_eq!(extra, ArcId(2), "dense id continues after the builder");
        assert_eq!(sg.arc_count(), 3);
        assert_eq!(sg.live_arc_count(), 3);
        sg.remove_arc(extra).unwrap();
        assert_eq!(sg.arc_count(), 3, "tombstone keeps the slot");
        assert_eq!(sg.live_arc_count(), 2);
        assert!(!sg.is_live_arc(extra));
        assert!(sg.in_arcs(xm).all(|a| a != extra));
        assert_eq!(
            sg.remove_arc(extra).unwrap_err(),
            crate::validate::ValidationError::UnknownArc(extra)
        );
        // The original arcs and the validation invariants are intact.
        assert!(sg.validate().is_ok());
    }

    #[test]
    fn add_event_rules_and_label_reuse() {
        let mut sg = two_phase();
        assert!(matches!(
            sg.add_event("x+"),
            Err(crate::validate::ValidationError::DuplicateLabel(_))
        ));
        let y = sg.add_event("y").unwrap();
        assert_eq!(y, EventId(2));
        assert!(sg.is_repetitive(y));
        // A bare new event has no arcs: removable, and its label frees up.
        sg.remove_event(y).unwrap();
        assert!(!sg.is_live_event(y));
        assert!(sg.event_by_label("y").is_none());
        assert_eq!(sg.add_event("y").unwrap(), EventId(3));
    }

    #[test]
    fn remove_event_refuses_while_arcs_remain() {
        let mut sg = two_phase();
        let xp = sg.event_by_label("x+").unwrap();
        assert_eq!(
            sg.remove_event(xp).unwrap_err(),
            crate::validate::ValidationError::EventHasArcs(xp)
        );
        assert!(sg.is_live_event(xp));
    }

    #[test]
    fn add_arc_rejects_rule_violations() {
        use crate::validate::ValidationError;
        let mut b = SignalGraph::builder();
        let i = b.initial_event("go");
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.disengageable_arc(i, xp, 1.0);
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let mut sg = b.build().unwrap();
        assert!(matches!(
            sg.add_arc(xp, i, 1.0, false),
            Err(ValidationError::RepetitiveBeforePrefix { .. })
        ));
        assert!(matches!(
            sg.add_arc(i, xp, 1.0, false),
            Err(ValidationError::PrefixArcNotDisengageable { .. })
        ));
        assert!(matches!(
            sg.add_arc(i, xp, 1.0, true),
            Err(ValidationError::MarkedArcOutsideCycle { .. })
        ));
        assert!(matches!(
            sg.add_arc(xp, xm, -1.0, false),
            Err(ValidationError::InvalidDelay { .. })
        ));
        assert!(matches!(
            sg.add_arc(EventId(99), xm, 1.0, false),
            Err(ValidationError::UnknownEvent(_))
        ));
    }

    #[test]
    fn structural_queries_skip_tombstones() {
        let mut sg = two_phase();
        let xp = sg.event_by_label("x+").unwrap();
        let xm = sg.event_by_label("x-").unwrap();
        // Insert a pipeline stage: x+ -> s -> x- replaces x+ -> x-.
        let s = sg.add_event("s").unwrap();
        let old = sg.arc_between(xp, xm).unwrap();
        sg.remove_arc(old).unwrap();
        sg.add_arc(xp, s, 0.5, false).unwrap();
        sg.add_arc(s, xm, 0.5, true).unwrap();
        assert!(sg.validate().is_ok());
        assert_eq!(sg.repetitive_count(), 3);
        // The border now includes s (head of the new marked arc).
        assert_eq!(sg.border_events(), vec![xp, xm]);
        let view = sg.repetitive_view();
        assert_eq!(view.arcs.len(), 3, "dead arc excluded from the view");
    }
}

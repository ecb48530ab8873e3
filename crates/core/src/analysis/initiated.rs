//! Event-initiated timing simulation `t_g(·)` (Section IV.B).
//!
//! ```text
//! t_g(f) = 0                                         if f = g or g ⇏ f
//! t_g(f) = max { t_g(e) + δ | (e = g ∨ g ⇒ e) ∧ e →δ f }   otherwise
//! ```
//!
//! The `g`-initiated simulation discards all history concurrent with or
//! preceding `g₀`: by Proposition 1 it computes exactly the longest delay
//! path from `g₀` to each instantiation in the unfolding. Average occurrence
//! distances of the initiating event, `δ_{g0}(g_i) = t_{g0}(g_i) / i`, are
//! the quantities the cycle-time algorithm maximises (Proposition 4/7).
//!
//! The time and parent matrices of a simulation live in a [`SimArena`]:
//! one pair of flat, row-major buffers that successive runs reuse. The
//! cycle-time algorithm runs `b` simulations per analysis and the batch
//! APIs run thousands of analyses per sweep; without the arena every one
//! of them would allocate (and fault in) its own `Vec<Vec<f64>>`.
//!
//! The `SimArena` here is the **scalar kernel**, the one scalar form of
//! the recurrence: one simulation, row-major `times[p][e]` over every
//! row, with optional parent tracking for backtracking. Its row loop
//! takes a seed — the origin alone for `t_g(·)`, every event for the
//! timing simulation `t(·)` of [`sim`](crate::analysis::sim), which runs
//! on it too. Its production twin for the analyses is the
//! [`wide`](crate::analysis::wide) kernel, which runs all `b`
//! simulations of an analysis in lockstep over one structure pass in a
//! two-row window, storing times **lane-major** (`times[p % 2][e][lane]`)
//! so each in-arc feeds `b` contiguous lanes with a branchless
//! SIMD-friendly `max(best, src + δ)`. Both kernels perform per lane
//! the exact same comparison sequence, so their results are
//! bit-identical by construction (see the
//! [`wide`](crate::analysis::wide) module docs for the argument and its
//! cell-level tests, and `tests/wide.rs` for the property tests); the
//! scalar kernel remains the oracle the wide one is verified against,
//! and the engine for parent-tracked re-runs of the winning border.

use tsg_sim::CancelToken;

use crate::analysis::structure::EvalStructure;
use crate::analysis::wide::Cancelled;
use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;

/// Sentinel for "no parent arc" in the flat parent matrix.
const NO_PARENT: u32 = u32::MAX;

/// Error returned by [`SimArena::run`] when the initiating event is not
/// repetitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotRepetitive(pub EventId);

impl std::fmt::Display for NotRepetitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "initiating event {} is not repetitive", self.0)
    }
}

impl std::error::Error for NotRepetitive {}

/// Reusable backing store — and result view — of event-initiated
/// simulations.
///
/// An arena owns two flat, row-major matrices:
///
/// * `times[p * n + e] = t_{g0}(e_p)` (`NEG_INFINITY` when `g₀ ⇏ e_p`),
/// * `parent[p * n + e]` = arg-max in-arc of `e_p`, for backtracking.
///
/// [`SimArena::run`] sizes them with `resize` — a no-op after the first
/// simulation of equal or larger shape — and leaves the results in place,
/// so the arena doubles as the accessor for the last run. Workers of a
/// many-graph sweep hold one arena each for the whole sweep.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::initiated::SimArena;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let mut arena = SimArena::new();
/// arena.run(&sg, xp, 2, false)?;
/// assert_eq!(arena.time(xp, 1), Some(5.0));
/// arena.run(&sg, xm, 2, false)?; // reuses both buffers
/// assert_eq!(arena.time(xm, 1), Some(5.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SimArena {
    /// Flat `p_total × n` occurrence-time matrix of the last run.
    times: Vec<f64>,
    /// Flat `p_total × n` arg-max in-arc matrix (`NO_PARENT` = none);
    /// empty when the last run did not track parents.
    parent: Vec<u32>,
    /// Events per row of the last run.
    n: usize,
    /// Rows of the last run (`periods + 1` for `t_g(·)`).
    p_total: usize,
    /// Initiating event of the last run.
    origin: EventId,
}

impl Default for SimArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SimArena {
    /// An empty arena; the first [`SimArena::run`] sizes it.
    pub fn new() -> Self {
        SimArena {
            times: Vec::new(),
            parent: Vec::new(),
            n: 0,
            p_total: 0,
            origin: EventId(0),
        }
    }

    /// Runs the `origin₀`-initiated simulation over `periods` periods,
    /// reusing this arena's buffers, and leaves the result readable
    /// through the arena's accessors.
    ///
    /// # Errors
    ///
    /// Returns [`NotRepetitive`] when `origin` is a prefix event.
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    ///
    /// # Examples
    ///
    /// Example 4 of the paper (the `b+₀`-initiated simulation of Figure 2c)
    /// is reproduced in the tests; a minimal use:
    ///
    /// ```
    /// use tsg_core::SignalGraph;
    /// use tsg_core::analysis::initiated::SimArena;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = SignalGraph::builder();
    /// let xp = b.event("x+");
    /// let xm = b.event("x-");
    /// b.arc(xp, xm, 3.0);
    /// b.marked_arc(xm, xp, 2.0);
    /// let sg = b.build()?;
    ///
    /// let mut sim = SimArena::new();
    /// sim.run(&sg, xp, 2, false)?;
    /// assert_eq!(sim.time(xp, 0), Some(0.0));
    /// assert_eq!(sim.time(xm, 0), Some(3.0));
    /// assert_eq!(sim.time(xp, 1), Some(5.0));
    /// assert_eq!(sim.average_distance(1), Some(5.0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(
        &mut self,
        sg: &SignalGraph,
        origin: EventId,
        periods: u32,
        track_parents: bool,
    ) -> Result<(), NotRepetitive> {
        let structure = EvalStructure::new(sg);
        self.run_with(sg, &structure, origin, periods, track_parents)
    }

    /// Shared-structure variant: the cycle-time algorithm builds one
    /// [`EvalStructure`] and runs all `b` border simulations over it.
    pub(crate) fn run_with(
        &mut self,
        sg: &SignalGraph,
        structure: &EvalStructure,
        origin: EventId,
        periods: u32,
        track_parents: bool,
    ) -> Result<(), NotRepetitive> {
        assert!(periods >= 1, "simulation needs at least one period");
        if !sg.is_repetitive(origin) {
            return Err(NotRepetitive(origin));
        }
        // Instance indices 0..=periods.
        let rows = periods as usize + 1;
        self.run_rows(sg, structure, Some(origin), rows, track_parents, None)
            .expect("no cancel token to fire");
        Ok(())
    }

    /// The one scalar recurrence: `rows` rows of
    /// `t(f) = max { t(e) + δ | e →δ f }` over `structure`, polling
    /// `cancel` once before each row. Row 0 is seeded at 0 — every event
    /// for `t(·)` (`seed` is `None`), the origin alone for `t_g(·)` — and
    /// skips marked arcs, whose token enables for free; an event with no
    /// reached in-arc stays `NEG_INFINITY`. Events outside the structure
    /// (removed ones) are never written.
    pub(crate) fn run_rows(
        &mut self,
        sg: &SignalGraph,
        structure: &EvalStructure,
        seed: Option<EventId>,
        rows: usize,
        track_parents: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        let n = sg.event_count();
        let cells = rows * n;
        self.n = n;
        self.p_total = rows;
        self.origin = seed.unwrap_or(EventId(0));

        // `resize` + `fill` touch existing capacity only: after the first
        // run of this shape, no allocator traffic.
        self.times.resize(cells, f64::NEG_INFINITY);
        self.times.fill(f64::NEG_INFINITY);
        if track_parents {
            self.parent.resize(cells, NO_PARENT);
            self.parent.fill(NO_PARENT);
        } else {
            self.parent.clear();
        }

        for p in 0..rows {
            if let Some(kind) = cancel.and_then(CancelToken::check) {
                return Err(Cancelled {
                    kind,
                    rows_done: p,
                    rows_total: rows,
                });
            }
            let (before, current) = self.times.split_at_mut(p * n);
            let prev: Option<&[f64]> = (p > 0).then(|| &before[(p - 1) * n..]);
            let row = &mut current[..n];
            let parent_row = if track_parents {
                &mut self.parent[p * n..(p + 1) * n]
            } else {
                &mut []
            };
            for &ev in &structure.order {
                // The origin's in-arcs all come from events before it in
                // topological order, which `t_g` never reaches in row 0.
                let seeded = p == 0 && seed.is_none_or(|g| g == ev);
                let mut best = if seeded { 0.0 } else { f64::NEG_INFINITY };
                let mut best_arc = NO_PARENT;
                for ia in structure.in_arcs(ev) {
                    let src_t = if ia.marked {
                        match prev {
                            Some(prev_row) => prev_row[ia.src as usize],
                            None => continue, // p == 0: token enables for free
                        }
                    } else {
                        row[ia.src as usize]
                    };
                    if src_t == f64::NEG_INFINITY {
                        continue;
                    }
                    let cand = src_t + ia.delay;
                    if cand > best {
                        best = cand;
                        best_arc = ia.arc.0;
                    }
                }
                row[ev.index()] = best;
                if track_parents {
                    parent_row[ev.index()] = best_arc;
                }
            }
        }
        Ok(())
    }

    /// Rows of the last run.
    pub(crate) fn row_count(&self) -> u32 {
        self.p_total as u32
    }

    /// The latest time the last run reached, or 0 when none is later.
    pub(crate) fn horizon(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// Allocated capacity of the `(times, parent)` buffers, in cells.
    ///
    /// A warm-pool worker asserts this stays constant across requests of
    /// the same shape: `run` only `resize`s within existing capacity, so
    /// after the first (largest) run the arena never touches the
    /// allocator again.
    pub fn capacity(&self) -> (usize, usize) {
        (self.times.capacity(), self.parent.capacity())
    }

    /// The initiating event `g` of the last run.
    pub fn origin(&self) -> EventId {
        self.origin
    }

    /// Periods of the last run (instances `0..=periods` are available).
    pub fn periods(&self) -> u32 {
        self.p_total.saturating_sub(1) as u32
    }

    /// `t_{g0}(e_p)` of the last run, or `None` when `g₀ ⇏ e_p` (the
    /// paper reports such entries as 0; see
    /// [`time_or_zero`](Self::time_or_zero)).
    pub fn time(&self, e: EventId, instance: u32) -> Option<f64> {
        let p = instance as usize;
        if p >= self.p_total {
            return None;
        }
        let t = self.times[p * self.n + e.index()];
        (t > f64::NEG_INFINITY).then_some(t)
    }

    /// `t_{g0}(e_p)` with the paper's convention: events not reached from
    /// `g₀` are assigned occurrence time 0.
    pub fn time_or_zero(&self, e: EventId, instance: u32) -> f64 {
        self.time(e, instance).unwrap_or(0.0)
    }

    /// Average occurrence distance of the initiating event,
    /// `δ_{g0}(g_i) = t_{g0}(g_i) / i` for `i > 0`.
    ///
    /// Returns `None` when `g_i` is not reachable from `g₀` (possible when
    /// every cycle through `g` spans several periods) or `i` is out of
    /// range.
    pub fn average_distance(&self, i: u32) -> Option<f64> {
        if i == 0 {
            return None;
        }
        self.time(self.origin, i).map(|t| t / i as f64)
    }

    /// All defined `δ_{g0}(g_i)` for `0 < i <= periods`, as `(i, t, δ)`.
    pub fn distance_series(&self) -> Vec<(u32, f64, f64)> {
        (1..=self.periods())
            .filter_map(|i| self.time(self.origin, i).map(|t| (i, t, t / i as f64)))
            .collect()
    }

    /// Backtracks the longest path from `g₀` to `e_p` through the arg-max
    /// parent arcs (Proposition 1), returning the Signal Graph arcs of the
    /// path in forward order.
    ///
    /// Returns `None` when `e_p` is not reachable from `g₀` (or when the
    /// last run did not track parents).
    pub fn backtrack_in(&self, sg: &SignalGraph, e: EventId, instance: u32) -> Option<Vec<ArcId>> {
        if self.parent.is_empty() {
            return None;
        }
        self.time(e, instance)?;
        let mut arcs = Vec::new();
        let mut ev = e;
        let mut p = instance as usize;
        loop {
            let slot = self.parent[p * self.n + ev.index()];
            if slot == NO_PARENT {
                break;
            }
            let a = ArcId(slot);
            arcs.push(a);
            let arc = sg.arc(a);
            if arc.is_marked() {
                p -= 1;
            }
            ev = arc.src();
        }
        debug_assert!(
            ev == self.origin && p == 0,
            "backtrack must terminate at the origin instance"
        );
        arcs.reverse();
        Some(arcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

    /// A fresh parent-tracked `g`-initiated simulation.
    fn simulate(sg: &SignalGraph, g: EventId, periods: u32) -> Result<SimArena, NotRepetitive> {
        let mut sim = SimArena::new();
        sim.run(sg, g, periods, true)?;
        Ok(sim)
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
    fn example4_b_initiated() {
        // Paper Example 4: t_{b+0}: b+0 c+0 a-0 b-0 c-0 a+1 b+1 c+1
        //                         =  0   2   4   3   7   9   8   12
        let sg = figure2();
        let bp = sg.event_by_label("b+").unwrap();
        let sim = simulate(&sg, bp, 2).unwrap();
        let t = |l: &str, i: u32| sim.time_or_zero(sg.event_by_label(l).unwrap(), i);
        assert_eq!(t("b+", 0), 0.0);
        assert_eq!(t("c+", 0), 2.0);
        assert_eq!(t("a-", 0), 4.0);
        assert_eq!(t("b-", 0), 3.0);
        assert_eq!(t("c-", 0), 7.0);
        assert_eq!(t("a+", 1), 9.0);
        assert_eq!(t("b+", 1), 8.0);
        assert_eq!(t("c+", 1), 12.0);
        // events concurrent with or preceding b+0 read as zero
        assert_eq!(t("e-", 0), 0.0);
        assert_eq!(t("f-", 0), 0.0);
        assert_eq!(t("a+", 0), 0.0);
        assert_eq!(sim.time(sg.event_by_label("a+").unwrap(), 0), None);
    }

    #[test]
    fn section8c_a_initiated_table() {
        // Section VIII.C: t_{a+0}: a+0 b+0 c+0 a-0 b-0 c-0 a+1 b+1 .. c-1 a+2 b+2
        //                        =  0   0   3   5   4   8   10  9  .. 18  20  19
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        let sim = simulate(&sg, ap, 2).unwrap();
        let t = |l: &str, i: u32| sim.time_or_zero(sg.event_by_label(l).unwrap(), i);
        assert_eq!(t("a+", 0), 0.0);
        assert_eq!(t("b+", 0), 0.0);
        assert_eq!(t("c+", 0), 3.0);
        assert_eq!(t("a-", 0), 5.0);
        assert_eq!(t("b-", 0), 4.0);
        assert_eq!(t("c-", 0), 8.0);
        assert_eq!(t("a+", 1), 10.0);
        assert_eq!(t("b+", 1), 9.0);
        assert_eq!(t("c-", 1), 18.0);
        assert_eq!(t("a+", 2), 20.0);
        assert_eq!(t("b+", 2), 19.0);
        // δ_{a+0}(a+1) = 10, δ_{a+0}(a+2) = 10
        assert_eq!(sim.average_distance(1), Some(10.0));
        assert_eq!(sim.average_distance(2), Some(10.0));
    }

    #[test]
    fn section8c_b_initiated_distances() {
        // Section VIII.C: δ_{b+0}(b+1) = 8, δ_{b+0}(b+2) = 9.
        let sg = figure2();
        let bp = sg.event_by_label("b+").unwrap();
        let sim = simulate(&sg, bp, 2).unwrap();
        assert_eq!(sim.average_distance(1), Some(8.0));
        assert_eq!(sim.average_distance(2), Some(9.0));
    }

    #[test]
    fn infinite_b_initiated_approaches_cycle_time_from_below() {
        // Section VIII.C: max{8, 9, 9⅓, 9½, 9⅗, ...} → 10, never reaching it.
        let sg = figure2();
        let bp = sg.event_by_label("b+").unwrap();
        let sim = simulate(&sg, bp, 40).unwrap();
        let expect = [8.0, 9.0, 9.0 + 1.0 / 3.0, 9.5, 9.6];
        for (i, want) in expect.iter().enumerate() {
            let got = sim.average_distance(i as u32 + 1).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "i={} {} != {}",
                i + 1,
                got,
                want
            );
        }
        for i in 1..=40 {
            assert!(
                sim.average_distance(i).unwrap() < 10.0,
                "Prop 8: strictly below"
            );
        }
        assert!(sim.average_distance(40).unwrap() > 9.9);
    }

    #[test]
    fn backtrack_recovers_critical_walk() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        let sim = simulate(&sg, ap, 2).unwrap();
        let path = sim.backtrack_in(&sg, ap, 1).unwrap();
        assert_eq!(sg.path_length(&path), 10.0);
        assert_eq!(sg.occurrence_period(&path), 1);
        // The walk is a+ -> c+ -> a- -> c- -> a+ (the true critical cycle).
        assert_eq!(
            sg.display_path(&path),
            "a+ -3-> c+ -2-> a- -3-> c- -2*-> a+"
        );
    }

    #[test]
    fn distance_series_shape() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        let sim = simulate(&sg, ap, 2).unwrap();
        let series = sim.distance_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (1, 10.0, 10.0));
        assert_eq!(series[1], (2, 20.0, 10.0));
    }

    #[test]
    fn prefix_origin_rejected() {
        let sg = figure2();
        let e = sg.event_by_label("e-").unwrap();
        assert_eq!(simulate(&sg, e, 2).unwrap_err(), NotRepetitive(e));
    }

    #[test]
    fn arena_reuse_across_runs_matches_fresh_runs() {
        // One arena cycled through different origins, period counts and
        // tracking modes gives bit-identical times to fresh simulations —
        // no stale state survives the buffer reuse.
        let sg = figure2();
        let mut arena = SimArena::new();
        let runs = [
            ("a+", 3, true),
            ("b+", 1, false),
            ("a+", 2, false),
            ("b+", 4, true),
        ];
        for (label, periods, track) in runs {
            let g = sg.event_by_label(label).unwrap();
            arena.run(&sg, g, periods, track).unwrap();
            let fresh = simulate(&sg, g, periods).unwrap();
            for e in sg.events() {
                for p in 0..=periods {
                    assert_eq!(
                        arena.time(e, p),
                        fresh.time(e, p),
                        "{label} periods={periods} e={} p={p}",
                        sg.label(e)
                    );
                }
            }
            assert_eq!(arena.distance_series(), fresh.distance_series());
            if track {
                assert_eq!(
                    arena.backtrack_in(&sg, g, periods),
                    fresh.backtrack_in(&sg, g, periods)
                );
            } else {
                assert_eq!(arena.backtrack_in(&sg, g, periods), None);
            }
        }
    }

    #[test]
    fn arena_shrinking_graph_leaves_no_ghosts() {
        // A big graph followed by a small one: the small run must not see
        // the big run's cells.
        let big = {
            let mut b = SignalGraph::builder();
            let evs: Vec<_> = (0..12).map(|i| b.event(&format!("e{i}"))).collect();
            for w in evs.windows(2) {
                b.arc(w[0], w[1], 1.0);
            }
            b.marked_arc(evs[11], evs[0], 1.0);
            b.build().unwrap()
        };
        let small = figure2();
        let mut arena = SimArena::new();
        arena
            .run(&big, big.event_by_label("e0").unwrap(), 8, true)
            .unwrap();
        let bp = small.event_by_label("b+").unwrap();
        arena.run(&small, bp, 2, true).unwrap();
        let fresh = simulate(&small, bp, 2).unwrap();
        for e in small.events() {
            for p in 0..=2 {
                assert_eq!(arena.time(e, p), fresh.time(e, p));
            }
        }
    }
}

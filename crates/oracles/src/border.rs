//! Cut sets and occurrence-period bounds (Section VI.A).
//!
//! A *cut set* is a set of events containing at least one event from every
//! cycle of the Signal Graph. The border set (`tsg_core`'s
//! `analysis::border::border_set`) is a cut set of every live Signal
//! Graph. A *minimum* cut set is what the paper's Proposition 6 uses to
//! bound the occurrence period of a simple cycle; the erratum on
//! [`max_occurrence_period_bound`] explains why the border-set size is
//! the sound bound instead.

use tsg_core::{ArcId, EventId, SignalGraph};
use tsg_graph::{topo, DiGraph, NodeId};

/// Checks whether `events` is a cut set: removing them must break every
/// cycle of the repetitive subgraph.
pub fn is_cut_set(sg: &SignalGraph, events: &[EventId]) -> bool {
    let removed: Vec<bool> = {
        let mut v = vec![false; sg.event_count()];
        for &e in events {
            v[e.index()] = true;
        }
        v
    };
    topo::topological_order_masked(sg.digraph(), |edge| {
        let arc = sg.arc(ArcId(edge.0));
        sg.is_repetitive(arc.src())
            && sg.is_repetitive(arc.dst())
            && !removed[arc.src().index()]
            && !removed[arc.dst().index()]
    })
    .is_ok()
}

/// Computes an exact minimum cut set (minimum feedback vertex set of the
/// repetitive subgraph) by branch and bound.
///
/// The problem is NP-hard; this routine is intended for the small graphs of
/// tests and reports. `node_limit` caps the size of the repetitive subgraph
/// the search will attempt; `None` is returned beyond it.
pub fn minimum_cut_set(sg: &SignalGraph, node_limit: usize) -> Option<Vec<EventId>> {
    let rep: Vec<EventId> = sg.repetitive_events().collect();
    if rep.len() > node_limit {
        return None;
    }
    if rep.is_empty() {
        return Some(Vec::new());
    }
    // Build the repetitive subgraph with local ids.
    let mut map = vec![usize::MAX; sg.event_count()];
    for (i, &e) in rep.iter().enumerate() {
        map[e.index()] = i;
    }
    let edges = sg
        .arcs()
        .iter()
        .filter(|arc| arc.is_alive())
        .map(|arc| (map[arc.src().index()], map[arc.dst().index()]))
        .filter(|&(s, d)| s != usize::MAX && d != usize::MAX)
        .map(|(s, d)| (NodeId(s as u32), NodeId(d as u32)))
        .collect();
    let sub = DiGraph::from_edges(rep.len(), edges);
    // Upper bound: the border set is always a cut set.
    let border = sg.border_events();
    let mut best: Vec<usize> = border.iter().map(|e| map[e.index()]).collect();
    let mut removed = vec![false; rep.len()];
    let mut current = Vec::new();
    branch(&sub, &mut removed, &mut current, &mut best);
    best.sort_unstable();
    Some(best.into_iter().map(|i| rep[i]).collect())
}

/// Finds any directed cycle in `g` avoiding `removed` nodes, as a node list.
fn find_cycle(g: &DiGraph, removed: &[bool]) -> Option<Vec<usize>> {
    // Iterative DFS with colour marking; returns the nodes of a back-edge cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = g.node_count();
    let mut colour = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if removed[root] || colour[root] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = GRAY;
        while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
            let out = g.out_edges(NodeId(v as u32));
            if *pos < out.len() {
                let w = g.dst(out[*pos]).index();
                *pos += 1;
                if removed[w] {
                    continue;
                }
                match colour[w] {
                    WHITE => {
                        colour[w] = GRAY;
                        parent[w] = v;
                        stack.push((w, 0));
                    }
                    GRAY => {
                        // cycle: w -> ... -> v -> w
                        let mut cyc = vec![v];
                        let mut x = v;
                        while x != w {
                            x = parent[x];
                            cyc.push(x);
                        }
                        cyc.reverse();
                        return Some(cyc);
                    }
                    _ => {}
                }
            } else {
                colour[v] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

fn branch(g: &DiGraph, removed: &mut [bool], current: &mut Vec<usize>, best: &mut Vec<usize>) {
    if current.len() >= best.len() {
        return; // only strictly smaller cut sets are interesting
    }
    match find_cycle(g, removed) {
        None => *best = current.clone(),
        Some(cycle) => {
            // Every cut set must contain a node of this cycle: branch on each.
            for &v in &cycle {
                removed[v] = true;
                current.push(v);
                branch(g, removed, current, best);
                current.pop();
                removed[v] = false;
            }
        }
    }
}

/// Sound upper bound on the occurrence period `ε` of any simple cycle:
/// the border-set size `b`.
///
/// Every period boundary a simple unfolded cycle crosses corresponds to a
/// marked arc on the cycle, whose head is a border event; a simple cycle
/// visits each event at most once, so `ε <= b`.
///
/// **Erratum.** The paper's Proposition 6 states the bound as the size of
/// a *minimum cut set*, which is not sound in general: a 4-event ring with
/// two tokens has a (unique) simple cycle with `ε = 2`, yet any single
/// event of the ring is a cut set. The algorithm itself simulates `b`
/// periods (Section VII), which the border-set bound justifies; the
/// regression test `prop6_erratum_min_cut_is_not_a_period_bound` pins
/// the counterexample.
pub fn max_occurrence_period_bound(sg: &SignalGraph) -> usize {
    sg.border_events().len().max(1)
}

/// The exact maximum occurrence period over all simple cycles, by bounded
/// cycle enumeration (`None` when the graph has more than `cycle_limit`
/// simple cycles or no cycle at all).
///
/// Useful as the tight simulation-length bound: simulating
/// `exact_max_occurrence_period` periods instead of `b` is always
/// sufficient, and often much cheaper (the oscillator of Section VIII.C
/// needs a single period, as the paper remarks).
pub fn exact_max_occurrence_period(sg: &SignalGraph, cycle_limit: usize) -> Option<u32> {
    let view = sg.repetitive_view();
    let cycles = tsg_graph::cycles::simple_cycles_bounded(&view.graph, cycle_limit).ok()?;
    cycles
        .iter()
        .map(|c| {
            c.iter()
                .filter(|e| {
                    let arc = sg.arc(view.arcs[e.index()]);
                    arc.is_marked()
                })
                .count() as u32
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::border::border_set;

    #[test]
    fn border_of_a_two_event_loop_is_a_cut_set() {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();
        assert!(is_cut_set(&sg, &border_set(&sg)));
        assert!(!is_cut_set(&sg, &[]));
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
    fn example7_other_cut_sets() {
        // Example 7: {c+}, {c-} and {a-, b-} are cut sets too.
        let sg = figure2();
        let by = |l: &str| sg.event_by_label(l).unwrap();
        assert!(is_cut_set(&sg, &[by("c+")]));
        assert!(is_cut_set(&sg, &[by("c-")]));
        assert!(is_cut_set(&sg, &[by("a-"), by("b-")]));
        assert!(is_cut_set(&sg, &border_set(&sg)));
        // {a+} alone is not: the cycle b+ -> c+ -> b- -> c- survives.
        assert!(!is_cut_set(&sg, &[by("a+")]));
        assert!(!is_cut_set(&sg, &[]));
    }

    #[test]
    fn example7_minimum_cut_set_is_singleton() {
        // Example 7: {c+} and {c-} are minimum cut sets.
        let sg = figure2();
        let min = minimum_cut_set(&sg, 64).unwrap();
        assert_eq!(min.len(), 1);
        let label = sg.label(min[0]).to_string();
        assert!(label == "c+" || label == "c-", "got {label}");
    }

    #[test]
    fn occurrence_period_bounds_for_oscillator() {
        // Section VIII.C: every cycle of the oscillator spans one period,
        // so one simulation period suffices; the sound a-priori bound is
        // the border size 2.
        let sg = figure2();
        assert_eq!(exact_max_occurrence_period(&sg, 1000), Some(1));
        assert_eq!(max_occurrence_period_bound(&sg), 2);
    }

    #[test]
    fn node_limit_falls_back() {
        let sg = figure2();
        assert_eq!(minimum_cut_set(&sg, 2), None);
    }

    #[test]
    fn prop6_erratum_min_cut_is_not_a_period_bound() {
        // A 4-ring with two tokens: its unique simple cycle spans TWO
        // periods, yet {v0} alone is a cut set — the paper's Proposition 6
        // (bound = minimum cut size) does not hold; the border-set bound
        // does.
        let mut b = SignalGraph::builder();
        let n: Vec<_> = (0..4).map(|i| b.event(&format!("v{i}"))).collect();
        b.marked_arc(n[0], n[1], 1.0);
        b.arc(n[1], n[2], 1.0);
        b.marked_arc(n[2], n[3], 1.0);
        b.arc(n[3], n[0], 1.0);
        let sg = b.build().unwrap();
        let min_cut = minimum_cut_set(&sg, 16).unwrap();
        assert_eq!(min_cut.len(), 1);
        assert_eq!(exact_max_occurrence_period(&sg, 100), Some(2));
        assert!(exact_max_occurrence_period(&sg, 100).unwrap() as usize > min_cut.len());
        assert_eq!(max_occurrence_period_bound(&sg), 2); // = b, sound
    }

    #[test]
    fn minimum_cut_set_of_two_independent_loops() {
        // Two 2-cycles sharing one event x: {x} cuts only its own cycles;
        // graph: x+ <-> x-, x+ <-> y with appropriate tokens.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        let y = b.event("y");
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        b.arc(xp, y, 1.0);
        b.marked_arc(y, xp, 1.0);
        let sg = b.build().unwrap();
        let min = minimum_cut_set(&sg, 64).unwrap();
        assert_eq!(min.len(), 1);
        assert_eq!(sg.label(min[0]).to_string(), "x+");
    }
}

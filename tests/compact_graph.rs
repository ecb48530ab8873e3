//! The compact `SignalGraph` — label arena, CSR adjacency, cached
//! topological order — against naive models of the same graph.
//!
//! Over every generator family, parallel arcs included:
//!
//! * `parse_stg(write_stg(sg))` gives back every label, the arcs in the
//!   writer's order, their delay bits and their markings;
//! * `in_arcs`/`out_arcs` of every event equal a scan of `arcs()` in id
//!   order, and `event_by_label` agrees with a `HashMap` of the live
//!   labels — before and after a random script of `add_event`,
//!   `add_arc`, `remove_arc` and `remove_event` that reuses labels after
//!   their events are removed;
//! * after every validated batch, the graph's cached topological order
//!   equals a fresh `topological_order_masked` of its unmarked
//!   repetitive subgraph.

use std::collections::HashMap;
use std::time::Instant;

use proptest::prelude::*;
use tsg::core::{ArcId, EventId, SignalGraph};
use tsg::gen::{handshake_pipeline, random_live_tsg, ring, stack66, torus};
use tsg::gen::{PipelineConfig, RandomTsgConfig};
use tsg::graph::topo::topological_order_masked;
use tsg::serve::ops::SplitMix64;
use tsg::stg::{parse_stg, write_stg, StgOptions, WriteStgError};

/// A graph of generator family `family` drawn from `rng`.
fn generated(family: u64, rng: &mut SplitMix64) -> SignalGraph {
    let small = |rng: &mut SplitMix64, lo: u64, n: u64| (lo + rng.below(n)) as usize;
    match family {
        0 => {
            let n = small(rng, 2, 12);
            ring(
                n,
                1 + rng.below(n as u64) as usize,
                1.0 + rng.below(5) as f64,
            )
        }
        1 => torus(small(rng, 2, 3), small(rng, 2, 3), 1.5, 2.0),
        2 => handshake_pipeline(small(rng, 1, 6), PipelineConfig::default()),
        3 => stack66(),
        _ => {
            let events = small(rng, 2, 40);
            random_live_tsg(
                rng.next(),
                RandomTsgConfig {
                    events,
                    tokens: 1 + rng.below(events as u64) as usize,
                    chords: small(rng, 0, 12),
                    max_delay: 9,
                    with_prefix: family == 5,
                },
            )
        }
    }
}

/// The live part of `sg` with every label turned into a `.g`
/// transition (some in the indexed `x/1` form) and fractional delays,
/// keeping parallel arcs.
fn transitions(sg: &SignalGraph) -> SignalGraph {
    let mut b = SignalGraph::builder();
    let ids: Vec<Option<EventId>> = sg
        .events()
        .map(|e| {
            let i = e.index();
            let pol = if i % 2 == 0 { '+' } else { '-' };
            let label = if i % 3 == 0 {
                format!("t{}#1{pol}", i / 2)
            } else {
                format!("t{}{pol}", i / 2)
            };
            let label = tsg::core::Label::lenient(&label);
            sg.is_live_event(e).then(|| b.event_with(label, sg.kind(e)))
        })
        .collect();
    for (i, arc) in sg.arcs().iter().enumerate().filter(|(_, a)| a.is_alive()) {
        let id = |e: EventId| ids[e.index()].expect("live arcs join live events");
        let (s, d) = (id(arc.src()), id(arc.dst()));
        let delay = arc.delay().get() + i as f64 / 7.0;
        if arc.is_marked() {
            b.marked_arc(s, d, delay);
        } else if arc.is_disengageable() {
            b.disengageable_arc(s, d, delay);
        } else {
            b.arc(s, d, delay);
        }
    }
    b.build()
        .expect("relabelling keeps the generator's invariants")
}

/// An arc as its labels, delay bits and marking.
fn described(sg: &SignalGraph, a: ArcId) -> (String, String, u64, bool) {
    let arc = sg.arc(a);
    (
        sg.label(arc.src()).to_string(),
        sg.label(arc.dst()).to_string(),
        arc.delay().get().to_bits(),
        arc.is_marked(),
    )
}

/// The writer declares each event's out-arcs in event order, and the
/// reader numbers arcs in declaration order.
fn assert_roundtrip(sg: &SignalGraph, ctx: &str) {
    let text = match write_stg(sg, "g") {
        Ok(text) => text,
        Err(WriteStgError::HasPrefix | WriteStgError::MarkedAfterUnmarked { .. }) => return,
        Err(e) => panic!("{ctx}: {e}"),
    };
    let back = parse_stg(&text, StgOptions::default()).unwrap();
    let want: Vec<_> = sg
        .events()
        .flat_map(|e| sg.out_arcs(e))
        .map(|a| described(sg, a))
        .collect();
    let got: Vec<_> = back.arc_ids().map(|a| described(&back, a)).collect();
    assert_eq!(got, want, "{ctx}");
    for e in sg.events() {
        let found = back.event_by_label(&sg.label(e).to_string());
        let found = found.unwrap_or_else(|| panic!("{ctx}: {} lost", sg.label(e)));
        assert_eq!(back.label(found), sg.label(e), "{ctx}");
    }
}

/// Adjacency and label lookups against scans of the raw arrays.
fn assert_matches_naive(sg: &SignalGraph, ctx: &str) {
    for e in sg.events() {
        let live = |a: &ArcId| sg.is_live_arc(*a);
        let ins: Vec<ArcId> = sg
            .arc_ids()
            .filter(live)
            .filter(|&a| sg.arc(a).dst() == e)
            .collect();
        let outs: Vec<ArcId> = sg
            .arc_ids()
            .filter(live)
            .filter(|&a| sg.arc(a).src() == e)
            .collect();
        assert_eq!(
            sg.in_arcs(e).collect::<Vec<_>>(),
            ins,
            "{ctx}: in-arcs of {e}"
        );
        assert_eq!(
            sg.out_arcs(e).collect::<Vec<_>>(),
            outs,
            "{ctx}: out-arcs of {e}"
        );
    }
    let mut labels = HashMap::new();
    for e in sg.events().filter(|&e| sg.is_live_event(e)) {
        labels.entry(sg.label(e).to_string()).or_insert(e);
    }
    for e in sg.events() {
        let text = sg.label(e).to_string();
        assert_eq!(
            sg.event_by_label(&text),
            labels.get(&text).copied(),
            "{ctx}: {text}"
        );
    }
    assert_eq!(sg.event_by_label("no such label"), None, "{ctx}");
}

/// The cached order against Kahn's algorithm over the whole graph.
fn assert_cached_order(sg: &SignalGraph, ctx: &str) {
    let fresh: Vec<EventId> = topological_order_masked(sg.digraph(), |edge| {
        let arc = sg.arc(ArcId(edge.0));
        !arc.is_marked() && sg.is_repetitive(arc.src()) && sg.is_repetitive(arc.dst())
    })
    .expect("a validated graph is live")
    .into_iter()
    .map(|n| EventId(n.0))
    .filter(|&e| sg.is_repetitive(e))
    .collect();
    assert_eq!(sg.topological_order(), Some(&fresh[..]), "{ctx}");
}

/// One random structural edit; rule violations are fine, they must
/// only leave the graph as it was.
fn random_edit(sg: &mut SignalGraph, rng: &mut SplitMix64, pool: &[String]) {
    let live: Vec<EventId> = sg.events().filter(|&e| sg.is_live_event(e)).collect();
    let pick = |rng: &mut SplitMix64| live[rng.below(live.len() as u64) as usize];
    match rng.below(6) {
        // Splits a live arc `s -> d` by a stage `s -> x -> d`.
        4 => {
            let arcs: Vec<ArcId> = sg.arc_ids().filter(|&a| sg.is_live_arc(a)).collect();
            let a = arcs[rng.below(arcs.len() as u64) as usize];
            let arc = *sg.arc(a);
            let label = &pool[rng.below(pool.len() as u64) as usize];
            if arc.is_disengageable() || sg.remove_arc(a).is_err() {
                return;
            }
            match sg.add_event(label) {
                Ok(x) => {
                    sg.add_arc(arc.src(), x, 1.0, arc.is_marked()).unwrap();
                    sg.add_arc(x, arc.dst(), arc.delay().get(), false).unwrap();
                }
                Err(_) => {
                    sg.add_arc(arc.src(), arc.dst(), 1.0, arc.is_marked())
                        .unwrap();
                }
            }
        }
        // Merges a stage `s -> x -> d` back into `s -> d` and removes
        // `x`, freeing its label.
        5 => {
            let x = pick(rng);
            let (ins, outs): (Vec<_>, Vec<_>) = (sg.in_arcs(x).collect(), sg.out_arcs(x).collect());
            if let ([i], [o]) = (&ins[..], &outs[..]) {
                let (i, o) = (*sg.arc(*i), *sg.arc(*o));
                if i.src() == x || o.is_disengageable() || i.is_disengageable() {
                    return;
                }
                for a in [ins[0], outs[0]] {
                    sg.remove_arc(a).unwrap();
                }
                sg.remove_event(x).unwrap();
                let marked = i.is_marked() || o.is_marked();
                sg.add_arc(i.src(), o.dst(), 2.0, marked).unwrap();
            }
        }
        0 => {
            let label = &pool[rng.below(pool.len() as u64) as usize];
            let _ = sg.add_event(label);
        }
        1 => {
            let (s, d) = (pick(rng), pick(rng));
            let _ = sg.add_arc(s, d, rng.below(9) as f64, rng.below(2) == 0);
        }
        2 => {
            let arcs: Vec<ArcId> = sg.arc_ids().filter(|&a| sg.is_live_arc(a)).collect();
            if !arcs.is_empty() {
                let _ = sg.remove_arc(arcs[rng.below(arcs.len() as u64) as usize]);
            }
        }
        _ => {
            let e = pick(rng);
            if sg.remove_event(e).is_ok() {
                assert!(!sg.is_live_event(e));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compact_graph_matches_naive_models(family in 0u64..6, seed in any::<u64>()) {
        let mut rng = SplitMix64(seed);
        let sg = generated(family, &mut rng);
        let ctx = format!("family {family}, seed {seed}");
        assert_matches_naive(&sg, &ctx);
        assert_cached_order(&sg, &ctx);
        let relabelled = transitions(&sg);
        assert_roundtrip(&relabelled, &ctx);

        // Labels already in the graph, fresh ones, and bare names.
        let mut pool: Vec<String> = sg.events().take(4).map(|e| sg.label(e).to_string()).collect();
        pool.extend(["n+", "n-", "m", "n+"].map(String::from));
        let mut sg = sg;
        for batch in 0..6 {
            let backup = sg.clone();
            for _ in 0..1 + rng.below(4) {
                random_edit(&mut sg, &mut rng, &pool);
                assert_matches_naive(&sg, &format!("{ctx}, batch {batch}"));
            }
            match sg.validate() {
                Ok(()) => assert_cached_order(&sg, &format!("{ctx}, batch {batch}")),
                Err(_) => sg = backup,
            }
            prop_assert!(sg.topological_order().is_some());
        }
        assert_roundtrip(&transitions(&sg), &format!("{ctx}, edited"));
    }
}

/// A structural batch costs `O(n + m + k)`, not `O(k · (n + m))`: on a
/// 40,000-event ring, 40,000 edits (an arc added and an isolated event
/// added and removed per step, then half the arcs removed) followed by
/// one `validate` take no longer than a few fresh builds of the ring.
/// Rebuilding the adjacency per edit would cost thousands of builds.
#[test]
fn structural_batch_stays_linear() {
    let n = 40_000;
    let build = || {
        let start = Instant::now();
        let sg = ring(n, 1, 1.0);
        (start.elapsed(), sg)
    };
    let reference = (0..3).map(|_| build().0).min().unwrap();
    let (_, mut sg) = build();
    let unmarked: Vec<ArcId> = sg.arc_ids().filter(|&a| !sg.arc(a).is_marked()).collect();

    let start = Instant::now();
    let mut added = Vec::with_capacity(n);
    for (i, &a) in unmarked.iter().cycle().take(n).enumerate() {
        let (src, dst) = (sg.arc(a).src(), sg.arc(a).dst());
        added.push(sg.add_arc(src, dst, 2.0, false).unwrap());
        let x = sg.add_event(&format!("x{i}")).unwrap();
        sg.remove_event(x).unwrap();
    }
    for &a in added.iter().step_by(2) {
        sg.remove_arc(a).unwrap();
    }
    sg.validate().unwrap();
    let batch = start.elapsed();

    assert_eq!(sg.live_arc_count(), n + n / 2);
    let out_total: usize = sg.events().map(|e| sg.out_arcs(e).count()).sum();
    assert_eq!(out_total, n + n / 2);
    assert!(
        batch < reference * 20,
        "batch of {n} edits took {batch:?}, a fresh build {reference:?}"
    );
}

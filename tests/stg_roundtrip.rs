//! STG file format: round-trip properties across generated graphs.

use proptest::prelude::*;

use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::stg::{parse_stg, write_stg, StgOptions, WriteStgError};

/// Builds a polarity-labelled ring of `n` signals (each contributing a
/// rise and a fall event) with `tokens` marked arcs — expressible in `.g`.
fn transition_ring(n: usize, tokens: usize, delay: f64) -> SignalGraph {
    let mut b = SignalGraph::builder();
    let mut events = Vec::new();
    for i in 0..n {
        events.push(b.event(&format!("s{i}+")));
        events.push(b.event(&format!("s{i}-")));
    }
    let total = events.len();
    for i in 0..total {
        let next = (i + 1) % total;
        let marked = (i + 1) * tokens / total != i * tokens / total;
        if marked {
            b.marked_arc(events[i], events[next], delay);
        } else {
            b.arc(events[i], events[next], delay);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_preserves_structure_and_tau(
        n in 1usize..10,
        tokens in 1usize..4,
        delay in 1u32..9,
    ) {
        let sg = transition_ring(n, tokens.min(2 * n), f64::from(delay));
        let text = write_stg(&sg, "ring").unwrap();
        let back = parse_stg(&text, StgOptions::default()).unwrap();
        prop_assert_eq!(back.event_count(), sg.event_count());
        prop_assert_eq!(back.arc_count(), sg.arc_count());
        let t1 = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&back).unwrap().cycle_time().as_f64();
        prop_assert_eq!(t1, t2);
        // writing again is a fixed point
        prop_assert_eq!(write_stg(&back, "ring").unwrap(), text);
    }

    #[test]
    fn handshake_pipelines_roundtrip(stages in 1usize..8) {
        // Pipeline labels (r0+, a0+, …) carry polarities except the
        // environment pair; rename those for expressibility.
        let sg = tsg::gen::handshake_pipeline(stages, tsg::gen::PipelineConfig::default());
        let mut b = SignalGraph::builder();
        let ids: Vec<_> = sg
            .events()
            .map(|e| {
                let l = sg.label(e).to_string();
                let fixed = match l.as_str() {
                    "out" => "env+".to_owned(),
                    "in" => "env-".to_owned(),
                    other => other.to_owned(),
                };
                b.event(&fixed)
            })
            .collect();
        for a in sg.arc_ids() {
            let arc = sg.arc(a);
            let (s, d) = (ids[arc.src().index()], ids[arc.dst().index()]);
            if arc.is_marked() {
                b.marked_arc(s, d, arc.delay().get());
            } else {
                b.arc(s, d, arc.delay().get());
            }
        }
        let renamed = b.build().unwrap();
        let text = write_stg(&renamed, "pipeline").unwrap();
        let back = parse_stg(&text, StgOptions::default()).unwrap();
        let t1 = CycleTimeAnalysis::run(&renamed).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&back).unwrap().cycle_time().as_f64();
        prop_assert_eq!(t1, t2);
    }
}

/// A `random_live_tsg` graph relabelled into `.g`-expressible transitions
/// (every third one in the indexed `s7+/1` form), with fractional delays.
/// Without `parallel`, a second arc between the same ordered pair is
/// dropped, which keeps the graph live and strongly connected.
fn relabelled_random(seed: u64, events: usize, parallel: bool) -> SignalGraph {
    let config = tsg::gen::RandomTsgConfig {
        events,
        tokens: (events / 28).max(2),
        chords: events / 16 + 4,
        max_delay: 9,
        with_prefix: false,
    };
    let sg = tsg::gen::random_live_tsg(seed, config);
    let mut b = SignalGraph::builder();
    let ids: Vec<_> = sg
        .events()
        .map(|e| {
            let i = e.index();
            let pol = if i % 2 == 0 { '+' } else { '-' };
            if i % 3 == 0 {
                b.event(&format!("s{}#1{pol}", i / 2))
            } else {
                b.event(&format!("s{}{pol}", i / 2))
            }
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        if !seen.insert((arc.src(), arc.dst())) && !parallel {
            continue;
        }
        let (s, d) = (ids[arc.src().index()], ids[arc.dst().index()]);
        let delay = arc.delay().get() + (seed as f64 + a.index() as f64) / 7.0;
        if arc.is_marked() {
            b.marked_arc(s, d, delay);
        } else {
            b.arc(s, d, delay);
        }
    }
    b.build().unwrap()
}

/// `write_stg` then `parse_stg` gives back `sg` arc for arc. The reader
/// numbers events in first-seen order and arcs in declaration order,
/// and the writer declares each event's out-arcs on one `.graph` line,
/// in event order — so that is the order expected back: labels,
/// endpoints, delay bits and markings.
fn assert_roundtrips_arc_for_arc(sg: &SignalGraph, text: &str, ctx: &str) {
    let mut order = Vec::new();
    let mut position = vec![usize::MAX; sg.event_count()];
    let mut see = |e: tsg::core::EventId, order: &mut Vec<_>| {
        if position[e.index()] == usize::MAX {
            position[e.index()] = order.len();
            order.push(e);
        }
    };
    let mut arcs = Vec::new();
    for e in sg.events() {
        if sg.out_arcs(e).next().is_some() {
            see(e, &mut order);
        }
        for a in sg.out_arcs(e) {
            see(sg.arc(a).dst(), &mut order);
            arcs.push(a);
        }
    }

    let back = parse_stg(text, StgOptions::default()).unwrap();
    assert_eq!(back.event_count(), order.len(), "{ctx}");
    for (i, (got, &want)) in back.events().zip(&order).enumerate() {
        assert_eq!(back.label(got), sg.label(want), "{ctx}: event {i}");
    }
    assert_eq!(back.arc_count(), arcs.len(), "{ctx}");
    for (got, &want) in back.arcs().iter().zip(&arcs) {
        let want = sg.arc(want);
        assert_eq!(got.src().index(), position[want.src().index()], "{ctx}");
        assert_eq!(got.dst().index(), position[want.dst().index()], "{ctx}");
        let bits = |a: &tsg::core::Arc| a.delay().get().to_bits();
        assert_eq!(bits(got), bits(want), "{ctx}");
        assert_eq!(got.is_marked(), want.is_marked(), "{ctx}");
    }
}

/// At 12, 1024 and 4096 events.
#[test]
fn large_random_graphs_roundtrip_arc_for_arc() {
    for (seed, events) in [(3, 12), (11, 1024), (29, 4096)] {
        let sg = relabelled_random(seed, events, false);
        let text = write_stg(&sg, "random").unwrap();
        assert_roundtrips_arc_for_arc(&sg, &text, &format!("{events} events"));
    }
}

/// Graphs with parallel arcs keep every arc's delay and marking: the
/// k-th `.delay` line and `.marking` entry of a pair bind to its k-th
/// arc. A graph whose pair declares a marked arc after an unmarked one
/// is refused by the writer instead of written lossily.
#[test]
fn random_graphs_with_parallel_arcs_roundtrip_arc_for_arc() {
    let (mut parallel, mut refused) = (0, 0);
    for seed in 0..60 {
        let sg = relabelled_random(seed, [12, 24, 96][seed as usize % 3], true);
        let mut pairs: Vec<_> = sg.arcs().iter().map(|a| (a.src(), a.dst())).collect();
        pairs.sort_unstable();
        let has_parallel = pairs.windows(2).any(|w| w[0] == w[1]);
        match write_stg(&sg, "random") {
            Ok(text) => {
                assert_roundtrips_arc_for_arc(&sg, &text, &format!("seed {seed}"));
                parallel += usize::from(has_parallel);
            }
            Err(WriteStgError::MarkedAfterUnmarked { .. }) => refused += 1,
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(
        parallel >= 10,
        "{parallel} graphs with parallel arcs round-tripped"
    );
    assert!(refused < 60, "every graph refused");
}

//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro                 # run all experiments
//! repro --experiment ex3
//! repro --threads 4     # pool size for the batch experiment
//! repro --list
//! ```
//!
//! Experiment ids follow DESIGN.md: `fig1b fig1c fig1d ex3 ex4 ex56 tab8c
//! tab8d fig4 perf8b complexity`, plus the post-paper `batch` sweep that
//! exercises the tsg-sim kernel's parallel scenario execution.

use std::fmt::Write as _;
use std::time::Instant;

use tsg_baselines::CycleInventory;
use tsg_core::analysis::asymptotic::delta_series;
use tsg_core::analysis::diagram::{self, DiagramOptions};
use tsg_core::analysis::initiated::SimArena;
use tsg_core::analysis::sim::TimingSimulation;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::SignalGraph;

/// Pool size for the batch experiment, set once from `--threads N`.
/// `None` defers to [`tsg_sim::BatchRunner::sized`]'s default (all
/// cores) — the same resolution rule every other tool uses.
static THREADS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        match tsg_sim::BatchRunner::parse_threads(args.get(pos + 1).map(String::as_str)) {
            Ok(n) => THREADS.set(Some(n)).expect("set once"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        args.drain(pos..(pos + 2).min(args.len()));
    }
    let all = experiments();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for (id, _) in &all {
                println!("{id}");
            }
        }
        Some("--experiment") => {
            let want = args.get(1).map(String::as_str).unwrap_or("");
            match all.iter().find(|(id, _)| *id == want) {
                Some((id, f)) => print!("{}", banner(id, f())),
                None => {
                    eprintln!("unknown experiment {want:?}; try --list");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            for (id, f) in &all {
                print!("{}", banner(id, f()));
            }
        }
    }
}

fn banner(id: &str, body: String) -> String {
    format!("\n===== {id} =====\n{body}")
}

type Experiment = (&'static str, fn() -> String);

fn experiments() -> Vec<Experiment> {
    vec![
        ("fig1b", fig1b),
        ("fig1c", fig1c),
        ("fig1d", fig1d),
        ("ex3", ex3),
        ("ex4", ex4),
        ("ex56", ex56),
        ("tab8c", tab8c),
        ("tab8d", tab8d),
        ("fig4", fig4),
        ("perf8b", perf8b),
        ("complexity", complexity),
        ("batch", batch),
    ]
}

fn oscillator() -> SignalGraph {
    tsg_circuit::library::c_element_oscillator_tsg()
}

fn muller5() -> SignalGraph {
    tsg_extract::extract(
        &tsg_circuit::library::muller_ring(5, 1.0),
        tsg_extract::ExtractOptions::default(),
    )
    .expect("the Muller ring is distributive")
}

/// Figure 1b: the Timed Signal Graph of the C-element oscillator, extracted
/// from the gate-level netlist.
fn fig1b() -> String {
    let mut out = String::new();
    let nl = tsg_circuit::library::c_element_oscillator();
    let report = tsg_extract::explore(&nl, 100_000);
    let _ = writeln!(
        out,
        "netlist: {} signals, {} gates; reachable states {}, semimodular: {}",
        nl.signal_count(),
        nl.gate_count(),
        report.states,
        report.is_semimodular()
    );
    let sg = tsg_extract::extract(&nl, tsg_extract::ExtractOptions::default())
        .expect("oscillator is distributive");
    let _ = writeln!(
        out,
        "extracted TSG: {} events, {} arcs (paper: 8 events, 11 arcs)",
        sg.event_count(),
        sg.arc_count()
    );
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        let _ = writeln!(
            out,
            "  {} -{}{}{}-> {}",
            sg.label(arc.src()),
            arc.delay(),
            if arc.is_marked() { " *token*" } else { "" },
            if arc.is_disengageable() { " once" } else { "" },
            sg.label(arc.dst()),
        );
    }
    out
}

/// Figure 1c: the timing diagram of the full simulation.
fn fig1c() -> String {
    let sg = oscillator();
    let sim = TimingSimulation::run(&sg, 3, None).expect("the oscillator simulates");
    diagram::render(&sg, &sim, DiagramOptions::default()).expect("Figure 1c fits")
}

/// Figure 1d: the a+-initiated timing diagram — occurrence distances
/// 10, 10, 10, … immediately.
fn fig1d() -> String {
    let sg = oscillator();
    let ap = sg.event_by_label("a+").expect("a+ exists");
    let mut sim = SimArena::new();
    sim.run(&sg, ap, 3, false).expect("a+ is repetitive");
    let mut out =
        diagram::render_initiated(&sg, &sim, DiagramOptions::default()).expect("Figure 1d fits");
    let distances: Vec<String> = sim
        .distance_series()
        .iter()
        .map(|(i, _, d)| format!("δ(a+_{i})={d}"))
        .collect();
    let _ = writeln!(out, "{}", distances.join("  "));
    out
}

/// Example 3: the occurrence-time table of the first eleven events.
fn ex3() -> String {
    let sg = oscillator();
    let sim = TimingSimulation::run(&sg, 2, None).expect("the oscillator simulates");
    let mut out = String::from("event   ");
    let cols = [
        ("e-", 0),
        ("f-", 0),
        ("a+", 0),
        ("b+", 0),
        ("c+", 0),
        ("a-", 0),
        ("b-", 0),
        ("c-", 0),
        ("a+", 1),
        ("b+", 1),
        ("c+", 1),
    ];
    for (l, i) in cols {
        let _ = write!(out, "{l}{i:<4}");
    }
    let _ = writeln!(out);
    let _ = write!(out, "t(event)");
    for (l, i) in cols {
        let t = sim
            .time(sg.event_by_label(l).expect("event"), i)
            .expect("simulated");
        let _ = write!(out, "{t:<6}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "paper:  0  3  2  4  6  8  7  11  13  12  16");
    out
}

/// Example 4: the b+0-initiated simulation table.
fn ex4() -> String {
    let sg = oscillator();
    let bp = sg.event_by_label("b+").expect("b+ exists");
    let mut sim = SimArena::new();
    sim.run(&sg, bp, 2, false).expect("repetitive");
    let cols = [
        ("b+", 0),
        ("c+", 0),
        ("a-", 0),
        ("b-", 0),
        ("c-", 0),
        ("a+", 1),
        ("b+", 1),
        ("c+", 1),
    ];
    let mut out = String::from("event        ");
    for (l, i) in cols {
        let _ = write!(out, "{l}{i:<4}");
    }
    let _ = writeln!(out);
    let _ = write!(out, "t_b+0(event) ");
    for (l, i) in cols {
        let t = sim.time_or_zero(sg.event_by_label(l).expect("event"), i);
        let _ = write!(out, "{t:<6}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "paper:       0  2  4  3  7  9  8  12");
    out
}

/// Examples 5 and 6: the four simple cycles and τ = max{10,8,8,6} = 10.
fn ex56() -> String {
    let sg = oscillator();
    let inv = CycleInventory::build(&sg, 1000).expect("small graph");
    let mut out = String::new();
    let _ = writeln!(out, "{} simple cycles (paper: 4):", inv.len());
    let mut rows: Vec<String> = inv
        .cycles
        .iter()
        .map(|(arcs, len, eps)| {
            format!(
                "  C = {}  length {len}, ε = {eps}, C/ε = {}",
                sg.display_path(arcs),
                len / *eps as f64
            )
        })
        .collect();
    rows.sort();
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    let (arcs, len, eps) = inv.critical().expect("has cycles");
    let _ = writeln!(
        out,
        "τ = max{{C/ε}} = {} (paper: 10); critical cycle {}",
        len / *eps as f64,
        sg.display_path(arcs)
    );
    out
}

/// Section VIII.C: the two border-event-initiated simulations and the
/// resulting cycle time.
fn tab8c() -> String {
    let sg = oscillator();
    let mut out = String::new();
    let events = [
        ("a+", 0),
        ("b+", 0),
        ("c+", 0),
        ("a-", 0),
        ("b-", 0),
        ("c-", 0),
        ("a+", 1),
        ("b+", 1),
        ("c+", 1),
        ("a-", 1),
        ("b-", 1),
        ("c-", 1),
        ("a+", 2),
        ("b+", 2),
    ];
    let mut header = String::from("event        ");
    for (l, i) in events {
        let _ = write!(header, "{l}{i:<3}");
    }
    let _ = writeln!(out, "{header}");
    let mut sim = SimArena::new();
    for origin in ["a+", "b+"] {
        let g = sg.event_by_label(origin).expect("border event");
        sim.run(&sg, g, 2, false).expect("repetitive");
        let _ = write!(out, "t_{origin}0(event)");
        for (l, i) in events {
            let t = sim.time_or_zero(sg.event_by_label(l).expect("event"), i);
            let _ = write!(out, "{t:<6}");
        }
        let _ = writeln!(out);
        for (i, t, d) in sim.distance_series() {
            let _ = write!(out, "  δ_{origin}0({origin}{i}) = {t}/{i} = {d}  ");
        }
        let _ = writeln!(out);
    }
    let a = CycleTimeAnalysis::run(&sg).expect("cyclic");
    let _ = writeln!(
        out,
        "τ = max{{10, 10, 8, 9}} = {} (paper: 10)",
        a.cycle_time()
    );
    let _ = writeln!(
        out,
        "critical cycle: {}",
        sg.display_path(a.critical_cycle())
    );
    let _ = writeln!(
        out,
        "note: the paper's VIII.C text prints the critical cycle as a+->c+->b-->c-->a+ \
         (length 8), contradicting its own Example 5/6 where C1 (length 10) is critical; \
         we report C1. See EXPERIMENTS.md."
    );
    out
}

/// Section VIII.D: the Muller ring table over ten periods.
fn tab8d() -> String {
    let sg = muller5();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "extracted Muller ring (5 C-elements): {} events, {} arcs",
        sg.event_count(),
        sg.arc_count()
    );
    let borders: Vec<String> = sg
        .border_events()
        .iter()
        .map(|&e| sg.label(e).to_string())
        .collect();
    let _ = writeln!(
        out,
        "border events: {} (paper: a+, b+, c+, e- in its lettering)",
        borders.join(", ")
    );
    let s0 = sg.event_by_label("s0+").expect("s0+ exists");
    let mut sim = SimArena::new();
    sim.run(&sg, s0, 10, false).expect("repetitive");
    let _ = writeln!(
        out,
        "i            1    2    3    4    5    6    7    8    9    10"
    );
    let mut t_row = String::from("t_a+0(a+_i) ");
    let mut d_row = String::from("δ per step  ");
    let mut avg_row = String::from("δ_a+0(a+_i) ");
    let mut prev = 0.0;
    for i in 1..=10u32 {
        let t = sim.time(s0, i).expect("reached");
        let _ = write!(t_row, "{t:<5}");
        let _ = write!(d_row, "{:<5}", t - prev);
        let _ = write!(avg_row, "{:<5.2}", t / i as f64);
        prev = t;
    }
    let _ = writeln!(out, "{t_row}");
    let _ = writeln!(out, "{d_row}");
    let _ = writeln!(out, "{avg_row}");
    let _ = writeln!(out, "paper row 1: 6 13 20 26 33 40 46 53 60 66");
    let _ = writeln!(out, "paper row 2: 6 7 7 6 7 7 6 7 7 6");
    let a = CycleTimeAnalysis::run(&sg).expect("cyclic");
    let _ = writeln!(
        out,
        "τ = {} (paper: 20/3 ≈ 6.67), critical cycle spans {} periods",
        a.cycle_time(),
        a.cycle_time().periods()
    );
    out
}

/// Figure 4: asymptotic behaviour of δ_{e0}(e_i) for an event on the
/// critical cycle (a+) and one off it (b+).
fn fig4() -> String {
    let sg = oscillator();
    let mut out = String::new();
    for (label, claim) in [
        ("a+", "on a critical cycle"),
        ("b+", "off the critical cycle"),
    ] {
        let e = sg.event_by_label(label).expect("event");
        let series = delta_series(&sg, e, 40).expect("repetitive");
        let _ = writeln!(out, "{label} ({claim}):");
        let shown: Vec<String> = series
            .iter()
            .take(8)
            .map(|p| format!("{:.4}", p.delta))
            .collect();
        let _ = writeln!(
            out,
            "  δ series: {} ... -> {:.4} at i=40",
            shown.join(", "),
            series.last().expect("non-empty").delta
        );
        let attains = series.iter().any(|p| p.delta == 10.0);
        let _ = writeln!(out, "  attains τ=10: {attains}");
    }
    out
}

/// Section VIII.B: runtime on the 66-event / 112-arc stack-class graph.
fn perf8b() -> String {
    let sg = tsg_gen::stack66();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: {} events, {} arcs, {} border events (paper: 66 events, 112 arcs)",
        sg.event_count(),
        sg.arc_count(),
        sg.border_events().len()
    );
    // Warm up, then time many runs.
    let a = CycleTimeAnalysis::run(&sg).expect("cyclic");
    let runs = 1000;
    let start = Instant::now();
    for _ in 0..runs {
        let _ = CycleTimeAnalysis::run(&sg).expect("cyclic");
    }
    let per_run = start.elapsed().as_secs_f64() / runs as f64;
    let _ = writeln!(out, "cycle time: {}", a.cycle_time());
    let _ = writeln!(
        out,
        "analysis time: {:.3} ms/run over {runs} runs (paper: 74 ms on a DEC 5000)",
        per_run * 1e3
    );
    out
}

/// Parallel scenario sweep on the tsg-sim kernel: the long-run estimator
/// over a mixed batch of generated workloads, sequential vs. batched,
/// cross-checked against the exact analysis.
fn batch() -> String {
    use tsg_sim::BatchRunner;

    let mut scenarios: Vec<(String, SignalGraph)> = Vec::new();
    for n in [64usize, 256] {
        scenarios.push((format!("ring n={n} b=2"), tsg_gen::ring(n, 2, 1.0)));
    }
    for side in [4usize, 6] {
        scenarios.push((
            format!("torus {side}x{side}"),
            tsg_gen::torus(side, side, 2.0, 3.0),
        ));
    }
    for stages in [4usize, 8] {
        scenarios.push((
            format!("pipeline stages={stages}"),
            tsg_gen::handshake_pipeline(stages, tsg_gen::PipelineConfig::default()),
        ));
    }
    for seed in 0..6u64 {
        scenarios.push((
            format!("random seed={seed}"),
            tsg_gen::random_live_tsg(seed, tsg_gen::RandomTsgConfig::default()),
        ));
    }
    let graphs: Vec<SignalGraph> = scenarios.iter().map(|(_, sg)| sg.clone()).collect();
    let periods = 192;

    let t_seq = Instant::now();
    let sequential: Vec<Option<f64>> = graphs
        .iter()
        .map(|sg| tsg_baselines::longrun_estimate(sg, periods))
        .collect();
    let t_seq = t_seq.elapsed();

    // One explicit runner — sized by `--threads N` or the machine — so
    // the reported thread count is the one that actually executed it.
    let runner = BatchRunner::sized(THREADS.get().copied().flatten());
    let t_par = Instant::now();
    let batched: Vec<Option<f64>> =
        runner.run(&graphs, |sg| tsg_baselines::longrun_estimate(sg, periods));
    let t_par = t_par.elapsed();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} scenarios × {periods} periods on {} thread(s)",
        graphs.len(),
        runner.threads()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>8}",
        "scenario", "longrun", "exact τ", "agree"
    );
    for (i, (name, sg)) in scenarios.iter().enumerate() {
        let est = batched[i].expect("all scenarios are live");
        let exact = CycleTimeAnalysis::run(sg)
            .expect("cyclic")
            .cycle_time()
            .as_f64();
        let agree = (est - exact).abs() <= exact * 0.05 + 1e-9;
        let _ = writeln!(out, "{name:<24} {est:>12.4} {exact:>12.4} {agree:>8}");
    }
    assert_eq!(batched, sequential, "batch must equal the sequential loop");
    let _ = writeln!(
        out,
        "sequential {:.1} ms, batched {:.1} ms ({:.2}x)",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
    );

    // The same sweep through the exact analysis: `analyze_batch` fans
    // whole cycle-time analyses (each itself b border simulations) over
    // per-worker arenas, bit-identical to the sequential loop.
    let t_seq = Instant::now();
    let seq_exact: Vec<f64> = graphs
        .iter()
        .map(|sg| {
            CycleTimeAnalysis::run(sg)
                .expect("cyclic")
                .cycle_time()
                .as_f64()
        })
        .collect();
    let t_seq = t_seq.elapsed();
    let t_par = Instant::now();
    let par_exact: Vec<f64> = tsg_bench::analyze_batch(&graphs, &runner)
        .into_iter()
        .map(|a| a.expect("cyclic").cycle_time().as_f64())
        .collect();
    let t_par = t_par.elapsed();
    assert!(
        seq_exact
            .iter()
            .zip(&par_exact)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "analyze_batch must be bit-identical to sequential analyses"
    );
    let _ = writeln!(
        out,
        "analyze_batch: sequential {:.1} ms, batched {:.1} ms ({:.2}x) — bit-identical",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
    );
    out
}

/// Section VII: the O(b²m) scaling claim, against the baselines.
fn complexity() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "workload", "events", "arcs", "b", "paper(µs)", "howard(µs)", "karp(µs)", "lawler(µs)"
    );
    let mut bench = |name: String, sg: &SignalGraph| {
        let time_us = |f: &dyn Fn() -> f64| {
            let start = Instant::now();
            let mut sink = 0.0;
            let mut n = 0;
            while start.elapsed().as_millis() < 30 {
                sink += f();
                n += 1;
            }
            let _ = sink;
            start.elapsed().as_secs_f64() * 1e6 / n as f64
        };
        let paper = time_us(&|| {
            CycleTimeAnalysis::run(sg)
                .expect("cyclic")
                .cycle_time()
                .as_f64()
        });
        let howard = time_us(&|| {
            tsg_baselines::howard_cycle_time(sg)
                .expect("cyclic")
                .as_f64()
        });
        let karp = time_us(&|| tsg_baselines::karp_cycle_time(sg).expect("cyclic").as_f64());
        let lawler = time_us(&|| {
            tsg_baselines::lawler_cycle_time(sg, 60)
                .expect("cyclic")
                .as_f64()
        });
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            sg.event_count(),
            sg.arc_count(),
            sg.border_events().len(),
            paper,
            howard,
            karp,
            lawler
        );
    };
    for n in [64usize, 256, 1024, 4096] {
        let sg = tsg_gen::ring(n, 2, 1.0);
        bench(format!("ring n={n} b=2"), &sg);
    }
    for stages in [4usize, 16, 64, 256] {
        let sg = tsg_gen::handshake_pipeline(stages, tsg_gen::PipelineConfig::default());
        bench(format!("pipeline stages={stages}"), &sg);
    }
    for tokens in [1usize, 4, 16, 64] {
        let sg = tsg_gen::ring(1024, tokens, 1.0);
        bench(format!("ring n=1024 b={tokens}"), &sg);
    }
    let _ = writeln!(
        out,
        "expected shape: paper column linear in arcs at fixed b; quadratic-ish in b at fixed n."
    );
    out
}

//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro                 # run all experiments
//! repro --experiment ex3
//! repro --list
//! ```
//!
//! Experiment ids follow the paper: `fig1b fig1c fig1d ex3 ex4 ex56
//! tab8c tab8d fig4` print the same bytes on every run; `perf8b`
//! (Section VIII.B's 66-event stack) and `complexity` (Section VII's
//! O(b²m) scaling) print timings. Any other argument is a usage error,
//! reported before an experiment runs.

use std::fmt::Write as _;
use std::time::Instant;

use tsg_baselines::CycleInventory;
use tsg_core::analysis::asymptotic::delta_series;
use tsg_core::analysis::diagram::{self, DiagramOptions};
use tsg_core::analysis::initiated::SimArena;
use tsg_core::analysis::sim::TimingSimulation;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::SignalGraph;

const USAGE: &str = "usage: repro [--list | --experiment ID]";

/// What the command line asks for.
enum Command {
    All,
    List,
    Experiment(String),
}

/// Accepts nothing, `--list` or `--experiment ID`; anything else is an
/// error naming the first argument that does not fit.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let unexpected = match args {
        [] => return Ok(Command::All),
        [a] if a == "--list" => return Ok(Command::List),
        [a, id] if a == "--experiment" => return Ok(Command::Experiment(id.clone())),
        [a] if a == "--experiment" => return Err("--experiment needs an ID".to_owned()),
        [a, rest @ ..] if a == "--list" => &rest[0],
        [a, _, rest @ ..] if a == "--experiment" => &rest[0],
        [a, ..] => a,
    };
    Err(format!("unknown argument {unexpected:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e} ({USAGE})");
        std::process::exit(1);
    });
    let all = experiments();
    match command {
        Command::List => {
            for (id, _) in &all {
                println!("{id}");
            }
        }
        Command::Experiment(want) => match all.iter().find(|(id, _)| *id == want) {
            Some((id, f)) => print!("{}", banner(id, f())),
            None => {
                eprintln!("unknown experiment {want:?}; try --list");
                std::process::exit(1);
            }
        },
        Command::All => {
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

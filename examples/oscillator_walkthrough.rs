//! The paper's running example end to end: the Figure 1a circuit, from
//! gate-level netlist to cycle time, reproducing every intermediate
//! artefact (Figures 1b–1d, Examples 3–7, Section VIII.C).
//!
//! ```sh
//! cargo run --example oscillator_walkthrough
//! ```

use tsg::circuit::library;
use tsg::circuit::EventDrivenSim;
use tsg::core::analysis::diagram::{self, DiagramOptions};
use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::extract::{explore, extract, ExtractOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The gate-level circuit (Figure 1a).
    let netlist = library::c_element_oscillator();
    println!(
        "circuit: {} signals, {} gates",
        netlist.signal_count(),
        netlist.gate_count()
    );

    // 2. Speed-independence check (the contract TRASPEC enforces).
    let report = explore(&netlist, 100_000);
    println!(
        "reachable states: {}, semimodular: {}",
        report.states,
        report.is_semimodular()
    );

    // 3. Extract the Timed Signal Graph (Figure 1b / 2c).
    let sg = extract(&netlist, ExtractOptions::default())?;
    println!(
        "\nextracted TSG: {} events, {} arcs",
        sg.event_count(),
        sg.arc_count()
    );

    // 4. Timing simulation (Example 3) and the Figure 1c diagram.
    let sim = TimingSimulation::run(&sg, 3, None)?;
    println!("\ntiming diagram (Figure 1c):");
    print!("{}", diagram::render(&sg, &sim, DiagramOptions::default())?);

    // 5. The a+-initiated simulation (Figure 1d): δ = 10 immediately.
    let ap = sg.event_by_label("a+").expect("a+ exists");
    let mut initiated = SimArena::new();
    initiated.run(&sg, ap, 3, false)?;
    println!("\na+-initiated diagram (Figure 1d):");
    print!(
        "{}",
        diagram::render_initiated(&sg, &initiated, DiagramOptions::default())?
    );
    for (i, t, d) in initiated.distance_series() {
        println!("δ_a+0(a+_{i}) = {t}/{i} = {d}");
    }

    // 6. The cycle-time algorithm (Section VIII.C).
    let analysis = CycleTimeAnalysis::run(&sg)?;
    println!("\ncycle time τ = {}", analysis.cycle_time());
    println!(
        "critical cycle: {}",
        sg.display_path(analysis.critical_cycle())
    );

    // 7. Cross-validation: the event-driven gate-level simulator observes
    //    the same steady-state period.
    let mut des = EventDrivenSim::new(&netlist);
    let trace = des.run(500.0, 100_000)?;
    let a = netlist.signal("a").expect("signal a");
    let observed = EventDrivenSim::steady_period(&trace, a, true).expect("oscillates");
    println!("\nevent-driven simulation steady period of a+: {observed}");
    assert_eq!(observed, analysis.cycle_time().as_f64());
    Ok(())
}

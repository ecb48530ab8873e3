//! Section VIII.D: Muller rings of parametric size.
//!
//! Reproduces the paper's 5-stage table and then sweeps the ring size,
//! showing how the cycle time of a one-token ring grows with its length —
//! the classic "token needs three gate delays per stage, bubbles limit
//! throughput" effect.
//!
//! ```sh
//! cargo run --example muller_ring
//! ```

use tsg::circuit::library;
use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::extract::{extract, ExtractOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's instance: 5 stages, unit delays.
    let sg = extract(&library::muller_ring(5, 1.0), ExtractOptions::default())?;
    let borders: Vec<String> = sg
        .border_events()
        .iter()
        .map(|&e| sg.label(e).to_string())
        .collect();
    println!("ring of 5: border events {}", borders.join(", "));

    let s0 = sg.event_by_label("s0+").expect("s0+ exists");
    let mut sim = SimArena::new();
    sim.run(&sg, s0, 10, false)?;
    println!("i           : 1    2    3    4    5    6    7    8    9    10");
    print!("t_a0(a_i)   :");
    for i in 1..=10 {
        print!(" {:<4}", sim.time(s0, i).expect("reached"));
    }
    println!();
    print!("δ_a0(a_i)   :");
    for i in 1..=10 {
        print!(" {:<4.2}", sim.time(s0, i).expect("reached") / f64::from(i));
    }
    println!();
    let analysis = CycleTimeAnalysis::run(&sg)?;
    println!(
        "τ = {} over {} period(s) — paper: 20/3",
        analysis.cycle_time(),
        analysis.cycle_time().periods()
    );

    // Size sweep: cycle time of a one-token ring of n stages.
    println!("\nring size sweep (unit delays, one data token):");
    println!("{:>4} {:>10} {:>8} {:>8}", "n", "tau", "borders", "periods");
    for n in [3usize, 4, 5, 6, 8, 10, 12, 16] {
        let sg = extract(&library::muller_ring(n, 1.0), ExtractOptions::default())?;
        let a = CycleTimeAnalysis::run(&sg)?;
        println!(
            "{:>4} {:>10} {:>8} {:>8}",
            n,
            a.cycle_time().to_string(),
            sg.border_events().len(),
            a.cycle_time().periods()
        );
    }
    Ok(())
}

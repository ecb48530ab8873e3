//! Scenario sweeps: score a whole family of candidate designs — here,
//! rings with different token budgets and a seed study of random live
//! graphs — with one independent analysis per scenario, then dump the
//! most interesting scenario as a VCD waveform.
//!
//! ```sh
//! cargo run --example batch_sweep
//! ```

use tsg::baselines;
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, ring, RandomTsgConfig};
use tsg::sim::TraceRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A design sweep: how does a 48-event ring's throughput respond to
    //    its token budget?
    println!("token sweep of ring(48, k, 2.0):");
    for k in 1..=12 {
        let tau = CycleTimeAnalysis::run(&ring(48, k, 2.0))
            .expect("rings are live")
            .cycle_time()
            .as_f64();
        println!("  k={k:<3} τ = {tau}");
    }

    // 2. A seed study: long-run estimates over random live graphs.
    let scenarios: Vec<SignalGraph> = (0..16)
        .map(|seed| random_live_tsg(seed, RandomTsgConfig::default()))
        .collect();
    let estimates: Vec<Option<f64>> = scenarios
        .iter()
        .map(|sg| baselines::longrun_estimate(sg, 128))
        .collect();
    let exact: Vec<f64> = scenarios
        .iter()
        .map(|sg| CycleTimeAnalysis::run(sg).unwrap().cycle_time().as_f64())
        .collect();
    let agreeing = estimates
        .iter()
        .zip(&exact)
        .filter(|(est, tau)| est.is_some_and(|e| (e - **tau).abs() < **tau * 0.05 + 1e-9))
        .count();
    println!(
        "seed study: {agreeing}/{} long-run estimates within 5% of exact τ",
        scenarios.len()
    );

    // 3. Waveform of the slowest random scenario, via the trace recorder.
    let (worst, _) = exact
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    let sim = TimingSimulation::run(&scenarios[worst], 4, None)?;
    let mut recorder = TraceRecorder::new("worst_case");
    sim.record_trace(&scenarios[worst], &mut recorder);
    let path = std::env::temp_dir().join("tsg-batch-sweep.vcd");
    recorder.dump_vcd(&path)?;
    println!(
        "slowest scenario (seed {worst}) waveform: {}",
        path.display()
    );
    Ok(())
}

//! The naive long-run estimate of the cycle time.
//!
//! Runs the plain timing simulation for many periods and estimates `τ` from
//! the late-time slope of an event's occurrence times. This is the approach
//! Section II and Figure 4 caution against: it converges asymptotically but
//! gives no exactness guarantee at any finite horizon — which is precisely
//! what the benchmarks demonstrate by comparing it with the exact
//! algorithms.
//!
//! The simulation itself is the period-synchronous
//! [`TimingSimulation`], the one `t(·)` recurrence behind `tsg sim` and
//! the timing diagrams; [`longrun_estimate_batch`] fans whole scenario
//! sweeps out across threads with [`BatchRunner`].
//!
//! # Lane-batched Monte-Carlo estimation
//!
//! [`longrun_estimate_mc`] perturbs every arc delay by an independent
//! multiplicative jitter drawn from a seeded stream and re-runs the
//! estimator — the usual way to probe how sensitive a long-run estimate
//! is to delay uncertainty. [`longrun_estimate_mc_lanes`] runs K such
//! seeds at once as lanes of a single lockstep event-advance pass over
//! the unfolding: the unfolding's token-counting rules are mirrored
//! structurally (one schedule for all lanes), and only the per-lane
//! delays differ. Because firing times are maxima over the same
//! contribution set, the lockstep pass is bit-identical to running the
//! timing simulation once per seed — lane `k` reproduces
//! `longrun_estimate_mc(sg, periods, jitter, seeds[k])` exactly, and at
//! `jitter == 0` every lane reproduces [`longrun_estimate`] itself.
//! Each lane carries its own convergence verdict (tail slope vs the
//! reported second-half slope).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tsg_core::analysis::sim::TimingSimulation;
use tsg_core::SignalGraph;
use tsg_sim::BatchRunner;

/// Estimates the cycle time from a `periods`-long timing simulation as the
/// average occurrence distance of a border event over the second half of
/// the horizon.
///
/// Returns `None` for graphs without repetitive events, for
/// `periods < 2`, and when an occurrence time overflows `f64`.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let est = tsg_baselines::longrun_estimate(&sg, 64).unwrap();
/// assert!((est - 15.0).abs() < 1e-9);
/// ```
pub fn longrun_estimate(sg: &SignalGraph, periods: u32) -> Option<f64> {
    if periods < 2 {
        return None;
    }
    let probe = *sg.border_events().first()?;
    let sim = TimingSimulation::run(sg, periods, None).ok()?;
    let mid = periods / 2;
    let t_mid = sim.time(probe, mid)?;
    let t_end = sim.time(probe, periods - 1)?;
    Some((t_end - t_mid) / (periods - 1 - mid) as f64)
}

/// Runs [`longrun_estimate`] over many independent scenarios in parallel.
///
/// Scenario simulations share nothing, so they scale across threads on
/// the kernel's [`BatchRunner`]; results come back in input order, making
/// the batch observably identical to a sequential loop over
/// [`longrun_estimate`].
///
/// Sizes its pool with [`BatchRunner::sized`], the workspace's one
/// pool-sizing rule; pass an explicit runner through
/// [`longrun_estimate_batch_on`] to share a pool or honour a
/// `--threads` flag.
///
/// # Examples
///
/// ```
/// let scenarios: Vec<_> = (2..10).map(|k| tsg_gen::ring(12, k, 3.0)).collect();
/// let estimates = tsg_baselines::longrun_estimate_batch(&scenarios, 64);
/// assert_eq!(estimates.len(), 8);
/// assert!(estimates.iter().all(|e| e.is_some()));
/// ```
pub fn longrun_estimate_batch(scenarios: &[SignalGraph], periods: u32) -> Vec<Option<f64>> {
    longrun_estimate_batch_on(&BatchRunner::sized(None), scenarios, periods)
}

/// [`longrun_estimate_batch`] on a caller-provided runner — the variant
/// CLI `--threads` flags and shared pools use.
pub fn longrun_estimate_batch_on(
    runner: &BatchRunner,
    scenarios: &[SignalGraph],
    periods: u32,
) -> Vec<Option<f64>> {
    runner.run(scenarios, |sg| longrun_estimate(sg, periods))
}

/// One lane of a [`longrun_estimate_mc_lanes`] batch: the seed it ran
/// with, its slope estimate, and whether the tail of the horizon agrees
/// with the reported slope (a per-lane convergence check).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LongrunLane {
    /// The RNG seed this lane's jitter stream was drawn from.
    pub seed: u64,
    /// The second-half slope estimate, as in [`longrun_estimate`].
    pub estimate: Option<f64>,
    /// Whether the last-quarter slope matches the estimate to 1e-9
    /// relative — a cheap signal that the transient has died out.
    pub converged: bool,
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the stream. Both
/// estimator paths draw once per arc in `ArcId` order, so sequential
/// and lane-batched runs consume bit-identical streams per seed.
fn unit_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Multiplicative delay perturbation in `[1 - jitter, 1 + jitter)`.
/// At `jitter == 0` this is exactly `1.0`, so scaled delays are
/// bitwise-unchanged and the Monte-Carlo paths reproduce the plain
/// estimator exactly.
fn jitter_factor(rng: &mut SmallRng, jitter: f64) -> f64 {
    1.0 + jitter * (2.0 * unit_f64(rng) - 1.0)
}

/// [`longrun_estimate`] under one Monte-Carlo delay perturbation: every
/// arc delay is scaled by an independent factor in
/// `[1 - jitter, 1 + jitter)` drawn from a stream seeded with `seed`,
/// and the perturbed graph is simulated.
///
/// This is the sequential reference for [`longrun_estimate_mc_lanes`];
/// lane `k` of the batch reproduces this function bit-for-bit.
///
/// # Panics
///
/// Panics if `jitter` is outside `[0, 1)` (factors must stay positive
/// so delays remain valid).
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let plain = tsg_baselines::longrun_estimate(&sg, 64).unwrap();
/// let mc = tsg_baselines::longrun_estimate_mc(&sg, 64, 0.0, 1).unwrap();
/// assert_eq!(plain.to_bits(), mc.to_bits());
/// ```
pub fn longrun_estimate_mc(sg: &SignalGraph, periods: u32, jitter: f64, seed: u64) -> Option<f64> {
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut jittered = sg.clone();
    for a in sg.arc_ids() {
        let scaled = sg.arc(a).delay().get() * jitter_factor(&mut rng, jitter);
        jittered
            .set_delay(a, scaled)
            .expect("jitter < 1 keeps delays finite and non-negative");
    }
    longrun_estimate(&jittered, periods)
}

/// Runs K Monte-Carlo seeds as lanes of one lockstep event-advance pass.
///
/// The unfolding's token-counting rules are mirrored once,
/// structurally: each `(event, instance)` slot fires at the maximum
/// over its expected token arrivals, instances are swept in order, and
/// within an instance events follow a topological order of the
/// same-instance dependency arcs (every arc except marked
/// repetitive→repetitive ones, which cross instances; validated live
/// graphs make that subgraph acyclic). Because a maximum is
/// order-invariant over a fixed contribution set, each lane
/// is bit-identical to [`longrun_estimate_mc`] on its seed — only the
/// per-lane jittered delays differ between lanes, and they are stored
/// lane-contiguously so the inner loop advances all K simulations in
/// lockstep.
///
/// Unfired slots are `NaN` and sticky: a missing token keeps every
/// downstream slot unfired.
///
/// # Panics
///
/// Panics if `jitter` is outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let lanes = tsg_baselines::longrun_estimate_mc_lanes(&sg, 64, 0.1, &[1, 2, 3]);
/// for lane in &lanes {
///     let seq = tsg_baselines::longrun_estimate_mc(&sg, 64, 0.1, lane.seed);
///     assert_eq!(lane.estimate.map(f64::to_bits), seq.map(f64::to_bits));
/// }
/// ```
pub fn longrun_estimate_mc_lanes(
    sg: &SignalGraph,
    periods: u32,
    jitter: f64,
    seeds: &[u64],
) -> Vec<LongrunLane> {
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    let lanes = seeds.len();
    if lanes == 0 {
        return Vec::new();
    }
    let dead = |seed| LongrunLane {
        seed,
        estimate: None,
        converged: false,
    };
    if periods < 2 {
        return seeds.iter().map(|&s| dead(s)).collect();
    }
    let Some(&probe) = sg.border_events().first() else {
        return seeds.iter().map(|&s| dead(s)).collect();
    };

    let n = sg.event_count();
    let p_max = periods as usize;
    let m = sg.arc_count();

    // Per-lane jittered delays, arc-major with lanes contiguous:
    // jd[pos * lanes + k]. Each lane draws in ArcId order, exactly the
    // stream `longrun_estimate_mc(.., seeds[k])` consumes.
    let mut jd = vec![0.0f64; m * lanes];
    for (k, &seed) in seeds.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed);
        for (pos, a) in sg.arc_ids().enumerate() {
            jd[pos * lanes + k] = sg.arc(a).delay().get() * jitter_factor(&mut rng, jitter);
        }
    }

    // Expected-token counts per (instance, event) slot and per-event
    // contribution lists.
    // Classes: 0 = prefix source (instance 0 only), 1 = unmarked
    // repetitive (same instance), 2 = marked repetitive (previous
    // instance; the initial token enables instance 0 for free).
    let rep: Vec<bool> = sg.events().map(|e| sg.is_repetitive(e)).collect();
    let mut expected = vec![0u32; p_max * n];
    let mut inputs: Vec<Vec<(usize, usize, u8)>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (pos, a) in sg.arc_ids().enumerate() {
        let arc = sg.arc(a);
        let (src, dst) = (arc.src().index(), arc.dst().index());
        if !rep[src] {
            expected[dst] += 1;
            inputs[dst].push((pos, src, 0));
        } else if arc.is_marked() {
            debug_assert!(
                rep[dst],
                "validated graphs have no repetitive → prefix arcs"
            );
            for p in 1..p_max {
                expected[p * n + dst] += 1;
            }
            inputs[dst].push((pos, src, 2));
        } else {
            debug_assert!(
                rep[dst],
                "validated graphs have no repetitive → prefix arcs"
            );
            for p in 0..p_max {
                expected[p * n + dst] += 1;
            }
            inputs[dst].push((pos, src, 1));
        }
        // Same-instance dependency edges for the evaluation order:
        // everything except marked repetitive→repetitive arcs.
        if !rep[src] || !arc.is_marked() {
            indeg[dst] += 1;
            succ[src].push(dst);
        }
    }

    // Kahn order over the same-instance subgraph; one order serves
    // every instance because cross-instance inputs come from already
    // completed rows.
    let mut order: Vec<usize> = (0..n).filter(|&e| indeg[e] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let e = order[head];
        head += 1;
        for &d in &succ[e] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                order.push(d);
            }
        }
    }
    debug_assert_eq!(
        order.len(),
        n,
        "unmarked subgraph of a validated graph is acyclic"
    );

    // The lockstep sweep. times is lane-major: [(q * n + e) * lanes + k],
    // NaN = slot never fires.
    let mut times = vec![f64::NAN; p_max * n * lanes];
    let mut acc = vec![0.0f64; lanes];
    for q in 0..p_max {
        for &e in &order {
            if q > 0 && !rep[e] {
                continue; // prefix events only occur at instance 0
            }
            let slot = (q * n + e) * lanes;
            if expected[q * n + e] == 0 {
                times[slot..slot + lanes].fill(0.0);
                continue;
            }
            acc.fill(f64::NEG_INFINITY);
            for &(pos, src, class) in &inputs[e] {
                let src_q = match (class, q) {
                    (0, 0) => 0,
                    (1, _) => q,
                    (2, _) if q > 0 => q - 1,
                    _ => continue, // no token from this arc at this instance
                };
                let src_slot = (src_q * n + src) * lanes;
                for k in 0..lanes {
                    // NaN (an unfired source) is sticky: a missing token
                    // keeps this slot unfired too.
                    let cand = times[src_slot + k] + jd[pos * lanes + k];
                    let best = acc[k];
                    acc[k] = if cand.is_nan() || best.is_nan() {
                        f64::NAN
                    } else if cand > best {
                        cand
                    } else {
                        best
                    };
                }
            }
            times[slot..slot + lanes].copy_from_slice(&acc);
        }
    }

    let mid = (periods / 2) as usize;
    let end = p_max - 1;
    let probe_row = |q: usize, k: usize| times[(q * n + probe.index()) * lanes + k];
    seeds
        .iter()
        .enumerate()
        .map(|(k, &seed)| {
            let (t_mid, t_end) = (probe_row(mid, k), probe_row(end, k));
            let estimate = (t_mid.is_finite() && t_end.is_finite())
                .then(|| (t_end - t_mid) / (end - mid) as f64);
            // Convergence: the last-quarter slope agrees with the
            // reported second-half slope.
            let late = (mid + end).div_ceil(2);
            let converged = match estimate {
                Some(est) if late > mid && late < end => {
                    let t_late = probe_row(late, k);
                    t_late.is_finite() && {
                        let tail = (t_end - t_late) / (end - late) as f64;
                        (tail - est).abs() <= 1e-9 * est.abs().max(1.0)
                    }
                }
                _ => false,
            };
            LongrunLane {
                seed,
                estimate,
                converged,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn converges_on_rings() {
        let sg = tsg_gen::ring(9, 3, 2.0);
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 128).unwrap();
        assert!((est - want).abs() < 1e-9);
    }

    #[test]
    fn short_horizons_can_be_wrong() {
        // The estimator needs the transient to die out; at 2 periods it can
        // differ from τ (that is the point of the paper's event-initiated
        // construction). We only assert it is not *guaranteed* exact:
        // for the stack it still approximates τ within 50%.
        let sg = tsg_gen::stack66();
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 4).unwrap();
        assert!(est > 0.0);
        assert!((est - want).abs() / want < 0.5);
    }

    #[test]
    fn long_horizon_matches_on_stack() {
        let sg = tsg_gen::stack66();
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 256).unwrap();
        assert!((est - want).abs() < 1e-6, "{est} != {want}");
    }

    #[test]
    fn degenerate_inputs() {
        let sg = tsg_gen::ring(4, 1, 1.0);
        assert!(longrun_estimate(&sg, 1).is_none());
    }

    fn families() -> Vec<SignalGraph> {
        vec![
            tsg_gen::ring(9, 3, 2.0),
            tsg_gen::stack66(),
            tsg_gen::random_live_tsg(5, tsg_gen::RandomTsgConfig::default()),
            tsg_gen::random_live_tsg(11, tsg_gen::RandomTsgConfig::default()),
        ]
    }

    #[test]
    fn zero_jitter_mc_is_bitwise_the_plain_estimator() {
        for (i, sg) in families().iter().enumerate() {
            let plain = longrun_estimate(sg, 64);
            for seed in [0, 7, 42] {
                let mc = longrun_estimate_mc(sg, 64, 0.0, seed);
                assert_eq!(plain.map(f64::to_bits), mc.map(f64::to_bits), "family {i}");
            }
        }
    }

    #[test]
    fn lanes_reproduce_sequential_streams_bitwise() {
        let seeds: Vec<u64> = (1..=9).collect(); // odd lane count
        for (i, sg) in families().iter().enumerate() {
            let lanes = longrun_estimate_mc_lanes(sg, 48, 0.05, &seeds);
            assert_eq!(lanes.len(), seeds.len());
            for lane in &lanes {
                let seq = longrun_estimate_mc(sg, 48, 0.05, lane.seed);
                assert_eq!(
                    seq.map(f64::to_bits),
                    lane.estimate.map(f64::to_bits),
                    "family {i} seed {}",
                    lane.seed
                );
            }
        }
    }

    #[test]
    fn lane_batch_distribution_equals_sequential_distribution() {
        let seeds: Vec<u64> = (100..116).collect();
        let sg = tsg_gen::ring(12, 4, 3.0);
        let mut batch: Vec<u64> = longrun_estimate_mc_lanes(&sg, 64, 0.2, &seeds)
            .iter()
            .map(|l| l.estimate.unwrap().to_bits())
            .collect();
        let mut seq: Vec<u64> = seeds
            .iter()
            .map(|&s| longrun_estimate_mc(&sg, 64, 0.2, s).unwrap().to_bits())
            .collect();
        batch.sort_unstable();
        seq.sort_unstable();
        assert_eq!(batch, seq);
        // Jitter produces genuinely distinct samples.
        batch.dedup();
        assert!(batch.len() > 1);
    }

    #[test]
    fn zero_jitter_lanes_converge_on_rings() {
        let sg = tsg_gen::ring(9, 3, 2.0);
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        for lane in longrun_estimate_mc_lanes(&sg, 128, 0.0, &[1, 2, 3]) {
            let est = lane.estimate.unwrap();
            assert!((est - want).abs() < 1e-9);
            assert!(lane.converged);
        }
    }

    #[test]
    fn degenerate_mc_inputs() {
        let sg = tsg_gen::ring(4, 1, 1.0);
        assert!(longrun_estimate_mc(&sg, 1, 0.1, 3).is_none());
        let lanes = longrun_estimate_mc_lanes(&sg, 1, 0.1, &[3, 4]);
        assert!(lanes.iter().all(|l| l.estimate.is_none() && !l.converged));
        assert!(longrun_estimate_mc_lanes(&sg, 64, 0.1, &[]).is_empty());
    }

    #[test]
    fn batch_matches_sequential() {
        let scenarios: Vec<SignalGraph> = (0..9)
            .map(|seed| tsg_gen::random_live_tsg(seed, tsg_gen::RandomTsgConfig::default()))
            .collect();
        let batch = longrun_estimate_batch(&scenarios, 64);
        let sequential: Vec<Option<f64>> = scenarios
            .iter()
            .map(|sg| longrun_estimate(sg, 64))
            .collect();
        assert_eq!(batch, sequential);
        // Explicit runners give the same answers at any thread count.
        for threads in [1, 3] {
            let on = longrun_estimate_batch_on(&BatchRunner::with_threads(threads), &scenarios, 64);
            assert_eq!(on, sequential);
        }
    }
}

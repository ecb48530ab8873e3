//! Property tests for the kernel event queue.
//!
//! The queue's contract is that its pop stream is the `(time, seq)`-sorted
//! order of the pushed events. These properties drive it through random
//! interleaved push/pop schedules — including sub-picosecond times —
//! and compare it against a sort oracle.
//!
//! Why a plain sort is a valid oracle even under interleaving: the
//! queue's monotonicity invariant (a push never precedes the last popped
//! time) means every already-popped event sorts at-or-before every
//! later-pushed one, so the concatenated pop stream of a legal schedule
//! is exactly the global sorted order.

use proptest::prelude::*;
use tsg::sim::EventQueue;

/// A tiny deterministic generator (SplitMix64) so schedules derive from
/// one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish f64 in `[0, hi)`.
    fn delay(&mut self, hi: f64) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * hi
    }
}

/// A sequence of `(time, payload)` pairs, pushed or popped.
type Stream = Vec<(f64, u32)>;

/// Drives `q` through the schedule derived from `seed` and returns its
/// push and full pop streams. Every push lands a delay in `[0, spread)`
/// after the clock, quantized to `step` so exact ties occur even at
/// sub-picosecond resolution.
fn drive(
    q: &mut EventQueue<u32>,
    seed: u64,
    ops: usize,
    spread: f64,
    step: f64,
) -> (Stream, Stream) {
    let mut rng = Mix(seed);
    let mut pushed = Vec::new();
    let mut popped = Vec::new();
    let mut id: u32 = 0;
    for _ in 0..ops {
        if !rng.next().is_multiple_of(3) {
            let delay = (rng.delay(spread) / step).round() * step;
            let time = q.now() + delay;
            q.schedule(time, id);
            pushed.push((time, id));
            id += 1;
        } else if let Some(ev) = q.pop() {
            popped.push((ev.time, ev.payload));
        }
    }
    while let Some(ev) = q.pop() {
        popped.push((ev.time, ev.payload));
    }
    (pushed, popped)
}

/// The oracle: a stable sort by time (push order is id order, which is
/// seq order, so a stable sort encodes the tie-break).
fn sorted(pushed: &Stream) -> Stream {
    let mut oracle = pushed.clone();
    oracle.sort_by(|a, b| a.0.total_cmp(&b.0));
    oracle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The queue equals the stable-sort oracle on random interleaved
    /// schedules.
    #[test]
    fn pop_order_matches_sort_oracle(
        seed in 0u64..1_000_000,
        ops in 1usize..500,
        spread in 1usize..40,
    ) {
        let (pushed, popped) = drive(&mut EventQueue::new(), seed, ops, spread as f64 * 0.25, 0.25);
        prop_assert_eq!(popped, sorted(&pushed), "seed {}", seed);
    }

    /// Sub-picosecond schedules match the sort oracle.
    #[test]
    fn subpicosecond_times_match_sort_oracle(
        seed in 0u64..1_000_000,
        ops in 1usize..400,
        step_exp in 0usize..5,
    ) {
        // Tie quantization goes down to 1e-4 units (a tenth of a
        // picosecond at the VCD writer's 1000-stamps-per-unit scale).
        let step = 10f64.powi(-(step_exp as i32));
        let (pushed, popped) = drive(&mut EventQueue::new(), seed, ops, 6.0, step);
        prop_assert_eq!(popped, sorted(&pushed), "seed {}", seed);
    }

    /// `clear` + reuse behaves like a fresh queue.
    #[test]
    fn cleared_queue_replays_like_fresh(seed in 0u64..100_000, ops in 1usize..150) {
        let mut q = EventQueue::<u32>::with_capacity(64);
        // Warm with one schedule, then clear.
        let _ = drive(&mut q, seed ^ 0xABCD, ops, 3.0, 0.25);
        q.clear();
        // A cleared queue must replay exactly like a fresh one.
        let fresh = drive(&mut EventQueue::new(), seed, ops, 3.0, 0.25);
        prop_assert_eq!(drive(&mut q, seed, ops, 3.0, 0.25), fresh);
    }
}

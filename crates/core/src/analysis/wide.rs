//! Lane-batched event-initiated simulations: all `b` border simulations
//! of one analysis in lockstep over a single structure pass.
//!
//! # Why lanes
//!
//! The cycle-time algorithm runs `b` event-initiated simulations that
//! each replay the *same* longest-path recurrence over the *same*
//! flattened in-arc table — only the initiating event differs. Run one
//! after another (or one per thread), every simulation re-streams the
//! whole in-arc table through cache to feed a single scalar
//! `max(best, src + δ)`. The wide kernel instead stores its rows
//! **lane-major**:
//!
//! ```text
//! times[(s · n + e) · w + k]  =  t_{gk,0}(e_p)      (lane k = border event g_k, slot s = p % 2)
//!
//!           ┌ lane 0 ┬ lane 1 ┬ … ┬ lane b-1 ┬ padding ┐   ← w contiguous f64s per (p, e)
//! row p:    │  e = 0 cell                              │  e = 1 cell │ …
//! ```
//!
//! so one traversal of the in-arc table feeds `b` contiguous lanes: per
//! in-arc the kernel loads `(src, δ, marked)` once and performs `b`
//! branchless `max(best, src + δ)` updates on adjacent memory. Arc-table
//! traffic drops by a factor of `b` and the arithmetic widens to the
//! machine's vector width.
//!
//! # The lane stride
//!
//! A cell is `w = b.next_multiple_of(4)` lanes wide, so every lane
//! operation works on whole 4-lane blocks and no backend has a
//! remainder to mask. The `w − b` padding lanes run the recurrence like
//! any lane whose origin is never pinned: they start `NEG_INFINITY` and
//! stay so, and neither the strip nor the records read them. Whole
//! blocks matter beyond the saved mask: each event reads the cell its
//! ring predecessor has just written, and a masked store does not
//! forward to the load that follows it, so a masked tail stalls every
//! event of the row.
//!
//! # Two rows kept
//!
//! Row `p` reads only row `p − 1` (marked arcs) and itself (unmarked
//! arcs, in topological order), and the cycle-time records read only
//! each lane's origin cell `t_{gk,0}(g_{k,p})`. So the kernel keeps two
//! row slots — row `p` in slot `p % 2` — plus a `b × (periods + 1)`
//! strip of origin cells, filled after every row. On a 1024-event graph
//! with `b = 37` (`w = 40`) that is 0.66 MB of rows where the full
//! `(b + 1)`-row matrix would be 11.5 MB. Every analysis — one-shot runs, each
//! scenario of a sweep and session edits alike — runs in this window,
//! which lives in an [`AnalysisArena`]; the kernel itself is
//! crate-private. This module's tests check both resident rows of every
//! period count, cell by cell, against the scalar kernel's full matrix.
//!
//! # Explicit SIMD and runtime dispatch
//!
//! The portable lane loop is autovectorizer-friendly, but the x86-64
//! baseline only guarantees 128-bit SSE2 — a portable build leaves most
//! of an AVX2 or AVX-512 machine's vector width on the table.
//! [`KernelBackend`] closes that gap with explicit `core::arch::x86_64`
//! paths over the contiguous lane dimension:
//!
//! | backend    | per 4-lane block                                   | CPU check |
//! |------------|----------------------------------------------------|-----------|
//! | `Avx512`   | one `zmm` per pair (`_mm512_add_pd` / `_mm512_max_pd`), one `ymm` for an odd last block | `avx512f` |
//! | `Avx2`     | one `ymm` (`_mm256_add_pd` / `_mm256_max_pd`)      | `avx2`    |
//! | `Portable` | one `[f64; 4]` loop, autovectorized                | none      |
//!
//! Every backend runs one row function; they differ only in the two
//! per-arc lane operations (`first`, `fold`).
//!
//! Selection is **runtime** dispatch: [`KernelBackend::detect`] picks
//! the widest feature `is_x86_feature_detected!` reports (overridable
//! through the `TSG_KERNEL` environment variable), and each `unsafe`
//! dispatch branch carries its *own* `is_x86_feature_detected!` guard,
//! so no intrinsic block can execute without the CPU check that makes
//! it sound. The portable loop is the guaranteed fallback on every
//! architecture.
//!
//! The SIMD paths are bit-identical to the portable loop (and hence to
//! the scalar oracle): `src + δ` maps to a vector `add`, and the scalar
//! `if cand > best { best = cand }` maps to `max_pd(cand, best)` — x86
//! `MAXPD` returns its *second* operand on ties, at every vector width,
//! so ties keep `best` exactly like the strict `>`. No lane is ever NaN (delays are finite
//! and `NEG_INFINITY + δ` stays `NEG_INFINITY`), so `MAXPD`'s NaN corner
//! is unreachable. Lane storage lives on a 64-byte-aligned allocation,
//! so rows start on cache-line boundaries: vector loads never split a
//! line more often than the lane offset forces.
//!
//! # Why the results are bit-identical to the scalar kernel
//!
//! Per lane, the wide kernel performs *the exact comparison sequence* of
//! the scalar kernel ([`SimArena`]):
//!
//! * in-arcs are visited in the same order, so the arg-max tie-breaking
//!   (first strict improvement wins) is unchanged;
//! * `NEG_INFINITY` ("not reached") propagates correctly through the
//!   branchless form: delays are finite, so `NEG_INFINITY + δ` is
//!   `NEG_INFINITY`, and it loses every strict `>` comparison — exactly
//!   the scalar kernel's explicit skip;
//! * row 0 is special-cased before the lockstep rows begin: marked arcs
//!   have no previous row (the scalar kernel skips them) and lane `k`'s
//!   origin cell is pinned to `t_{gk}(g_k) = 0` after the row's
//!   recurrence, in topological order, so later same-row reads see the
//!   pinned value just as the scalar kernel's pre-seeded cell.
//!
//! Identical candidate values in identical comparison order give
//! identical IEEE-754 results bit for bit — asserted cell by cell on
//! every backend in this module's tests, record by record across
//! generator families in `tests/wide.rs`, and re-asserted by the
//! `bench` binary before any speedup is reported.
//!
//! The one thing the wide kernel does not track is parents: the
//! cycle-time algorithm needs backtracking only for the single winning
//! border event, which [`CycleTimeAnalysis::finish`] re-runs scalar with
//! `track_parents` — `O(b·m)` against the `O(b²·m)` main phase.
//!
//! [`CycleTimeAnalysis::finish`]: crate::analysis::CycleTimeAnalysis

use std::fmt;
use std::sync::OnceLock;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::initiated::SimArena;
use crate::analysis::structure::CyclicStructure;
use crate::event::EventId;
use crate::graph::SignalGraph;

/// The wide kernel's execution backend.
///
/// The CPU picks it: [`KernelBackend::detect`] returns the widest path
/// the machine supports, and every production arena runs on that.
/// `Portable` is the autovectorized fallback loop, `Avx2` and `Avx512`
/// the explicit-SIMD paths. All backends are bit-identical, so the
/// choice only moves the time. The serve `stats` op reports the detected
/// backend, and the `TSG_KERNEL` environment variable forces one (the
/// CI rerun on the fallback loop uses it).
///
/// # Examples
///
/// ```
/// use tsg_core::analysis::wide::{AnalysisArena, KernelBackend};
///
/// let detected = KernelBackend::detect();
/// assert!(detected.available());
/// assert_eq!(AnalysisArena::new().kernel(), detected);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The autovectorized portable lane loop — available everywhere.
    Portable,
    /// Explicit 4-wide `_mm256_add_pd`/`_mm256_max_pd` over the lanes.
    Avx2,
    /// Explicit 8-wide `_mm512_add_pd`/`_mm512_max_pd` over pairs of
    /// 4-lane blocks, one 4-wide block for an odd trailing one.
    Avx512,
}

impl KernelBackend {
    /// Every backend, narrowest first.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Portable,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    /// The lowercase name (`portable`, `avx2`, `avx512`) — what
    /// `TSG_KERNEL` takes and the serve `stats` op reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Portable => "portable",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// The backend `name` names, ignoring ASCII case.
    fn named(name: &str) -> Option<KernelBackend> {
        Self::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Whether this backend can execute on the current CPU.
    pub fn available(self) -> bool {
        match self {
            KernelBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2 | KernelBackend::Avx512 => false,
        }
    }

    /// The backend this machine runs: the `TSG_KERNEL` override when it
    /// names an available backend, else the widest the CPU supports.
    ///
    /// `TSG_KERNEL` is read once per process and ignored when unset,
    /// unknown or naming an unavailable feature — a deployment/CI
    /// forcing knob (`TSG_KERNEL=portable` runs the whole suite on the
    /// fallback loop), not a validated user input.
    pub fn detect() -> KernelBackend {
        static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            std::env::var("TSG_KERNEL")
                .ok()
                .and_then(|name| Self::named(&name))
                .filter(|b| b.available())
                .unwrap_or_else(|| {
                    Self::ALL
                        .into_iter()
                        .rfind(|b| b.available())
                        .unwrap_or(KernelBackend::Portable)
                })
        })
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A wide run stopped by its [`CancelToken`] before computing every row.
///
/// Rows `0..rows_done` were computed; the window and the strip hold
/// stale or partially overwritten cells until the next run overwrites
/// them from row 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cancelled {
    pub kind: CancelKind,
    pub rows_done: usize,
    pub rows_total: usize,
}

/// One cache line of lane storage — the alignment carrier of
/// [`AlignedF64Vec`]. `repr(C, align(64))` with eight f64s makes size
/// equal alignment, so a `Vec` of these tiles gap-free.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
struct CacheLine([f64; 8]);

/// A growable `f64` buffer on a 64-byte-aligned allocation with
/// `Vec::resize` fill semantics — the lane window's backing store, so
/// every row starts on a cache-line boundary and aligned vector loads
/// of the buffer head are valid.
#[derive(Clone, Debug, Default)]
struct AlignedF64Vec {
    chunks: Vec<CacheLine>,
    len: usize,
}

impl AlignedF64Vec {
    fn new() -> Self {
        Self::default()
    }

    /// Allocated capacity in f64 cells.
    fn capacity(&self) -> usize {
        self.chunks.capacity() * 8
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: `chunks` stores at least `len.div_ceil(8)` cache lines
        // of initialised f64s; `CacheLine` is `repr(C)` with size equal
        // to its alignment (64), so the lines tile contiguously and the
        // first `len` f64s are one valid slice. `&mut self` gives
        // exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f64>(), self.len) }
    }

    #[cfg(test)]
    fn as_slice(&self) -> &[f64] {
        // SAFETY: as in `as_mut_slice`, shared.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f64>(), self.len) }
    }

    /// `Vec::resize` semantics: growth fills exactly `old_len..new_len`
    /// with `value` (cells below `old_len` keep their contents), shrink
    /// just drops length — so callers' stale-cell reasoning carries over
    /// from the plain `Vec` unchanged.
    ///
    /// Growth reserves exactly the lines `new_len` needs, so the
    /// capacity is the largest length asked for, rounded up to a line —
    /// never more than the cell budget counted for it.
    fn resize(&mut self, new_len: usize, value: f64) {
        let old = self.len;
        let lines = new_len.div_ceil(8);
        self.chunks
            .reserve_exact(lines.saturating_sub(self.chunks.len()));
        self.chunks.resize(lines, CacheLine([value; 8]));
        self.len = new_len;
        if new_len > old {
            self.as_mut_slice()[old..].fill(value);
        }
    }
}

/// Reusable buffers of one analysis' lockstep event-initiated
/// simulations, one lane per initiating event: the two-row window and
/// the origin strip.
#[derive(Clone, Debug)]
pub(crate) struct WideArena {
    /// Two lane-major rows on a 64-byte-aligned allocation:
    /// `times[(s * n + e) * w + k]` holds row `p` in slot `s = p % 2`,
    /// with the lane stride `w` of [`lane_stride`].
    times: AlignedF64Vec,
    /// Each lane's origin cell per row, lane-major:
    /// `strip[k * p_total + p] = t_{gk,0}(g_{k,p})` — everything the
    /// distance records read.
    strip: Vec<f64>,
    /// Rows of the last run (`periods + 1`).
    p_total: usize,
    /// The execution backend.
    backend: KernelBackend,
}

impl WideArena {
    /// An empty arena on `kernel`; a backend the CPU lacks runs the
    /// portable loop instead. The first run sizes it.
    pub(crate) fn with_kernel(kernel: KernelBackend) -> Self {
        WideArena {
            times: AlignedF64Vec::new(),
            strip: Vec::new(),
            p_total: 0,
            backend: if kernel.available() {
                kernel
            } else {
                KernelBackend::Portable
            },
        }
    }

    /// Runs one `g₀`-initiated simulation per origin, all lanes in
    /// lockstep over `periods` periods on the shared `structure`,
    /// reusing this arena's buffers. `cancel` is polled once per row; on
    /// cancellation the window is left partially written.
    ///
    /// Callers pass border events — non-empty, repetitive — and
    /// `periods ≥ 1`, which the analysis entry points guarantee.
    ///
    /// This is the runtime dispatch point of [`KernelBackend`]: the
    /// AVX-512 row runs only when `avx512` is set and the AVX2 row only
    /// when `avx2` is, and each is set only by its own
    /// `is_x86_feature_detected!` check, so no `unsafe` call can execute
    /// without the CPU check that makes it sound. Anything that fails
    /// its check — and every non-x86 build — runs the portable row.
    pub(crate) fn run_with(
        &mut self,
        sg: &SignalGraph,
        structure: &CyclicStructure,
        origins: &[EventId],
        periods: u32,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        debug_assert!(periods >= 1 && !origins.is_empty());
        debug_assert!(origins.iter().all(|&g| sg.is_repetitive(g)));
        let (n, lanes) = (sg.event_count(), origins.len());
        let w = lane_stride(lanes);
        let p_total = periods as usize + 1;
        self.p_total = p_total;

        // `resize` touches existing capacity only: after the first run
        // of this shape, no allocator traffic. No global fill: the
        // recurrence overwrites every repetitive event's cell in every
        // row, padding lanes included, so only the cells of events
        // *outside* the cyclic structure (prefix/finite events — usually
        // none) need their NEG_INFINITY reset, in both slots, against
        // stale cells of a previous run. The strip needs none: every
        // computed row overwrites its cells.
        self.times.resize(2 * n * w, f64::NEG_INFINITY);
        self.strip.resize(lanes * p_total, f64::NEG_INFINITY);
        let times = self.times.as_mut_slice();
        for e in sg.events().filter(|&e| !sg.is_repetitive(e)) {
            for slot in 0..2 {
                let base = (slot * n + e.index()) * w;
                times[base..base + w].fill(f64::NEG_INFINITY);
            }
        }

        #[cfg(target_arch = "x86_64")]
        let (avx512, avx2) = (
            self.backend == KernelBackend::Avx512 && std::arch::is_x86_feature_detected!("avx512f"),
            self.backend == KernelBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2"),
        );
        let kernel = RowKernel {
            origins,
            structure,
            stride: w,
        };
        for p in 0..p_total {
            // One poll per row: a row is `O(m · lanes)` work, so the
            // check cost vanishes while aborts still land within one
            // row of the signal.
            if let Some(kind) = cancel.and_then(CancelToken::check) {
                return Err(Cancelled {
                    kind,
                    rows_done: p,
                    rows_total: p_total,
                });
            }
            let (prev, row) = row_pair(times, p, n * w);
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                // SAFETY: `avx512` is set only when the CPU reports
                // AVX-512F.
                unsafe { row_avx512(&kernel, prev, row) };
            } else if avx2 {
                // SAFETY: `avx2` is set only when the CPU reports AVX2.
                unsafe { row_avx2(&kernel, prev, row) };
            } else {
                row_portable(&kernel, prev, row);
            }
            #[cfg(not(target_arch = "x86_64"))]
            row_portable(&kernel, prev, row);
            for (lane, g) in origins.iter().enumerate() {
                self.strip[lane * p_total + p] = row[g.index() * w + lane];
            }
        }
        Ok(())
    }

    /// Allocated capacity of the window, in cells: `2 · n · w`, rounded
    /// up to a cache line, for the largest shape run so far.
    fn capacity(&self) -> usize {
        self.times.capacity()
    }

    /// All defined `δ_{gk,0}(g_{k,i})` of lane `k` of the last run, as
    /// `(i, t, δ)`, read from the origin strip.
    pub(crate) fn distance_series(&self, k: usize) -> Vec<(u32, f64, f64)> {
        let cells = &self.strip[k * self.p_total..][..self.p_total];
        (1..self.p_total)
            .filter_map(|i| {
                let t = cells[i];
                (t > f64::NEG_INFINITY).then(|| (i as u32, t, t / i as f64))
            })
            .collect()
    }
}

/// The lane stride of a cell over `lanes` lanes: whole 4-lane blocks.
/// The `w - lanes` padding lanes run the recurrence like any unpinned
/// lane, so they stay `NEG_INFINITY`, and nothing reads them.
pub(crate) fn lane_stride(lanes: usize) -> usize {
    lanes.next_multiple_of(4)
}

/// Splits row `p`'s cells (mutable) and row `p - 1`'s (shared; empty
/// for row 0) out of the two-slot window, where row `p` lives in slot
/// `p % 2`.
fn row_pair(times: &mut [f64], p: usize, row_cells: usize) -> (&[f64], &mut [f64]) {
    let (slot0, slot1) = times.split_at_mut(row_cells);
    match p {
        0 => (&[], slot0),
        _ if p.is_multiple_of(2) => (slot1, slot0),
        _ => (slot0, slot1),
    }
}

/// What the row function reads besides the row pair: the lanes' origins
/// (one lane each), the structure and the lane stride of a cell.
struct RowKernel<'a> {
    origins: &'a [EventId],
    structure: &'a CyclicStructure,
    stride: usize,
}

/// The per-backend lane arithmetic of the row function: the two
/// operations [`row_body`] needs per in-arc.
///
/// Both take cells of the run's lane stride, a whole number of 4-lane
/// blocks, so no implementation has a remainder to mask. They must keep
/// `dst` on ties in `fold` (the strict `>` of the scalar kernel).
trait LaneOps {
    /// `dst[k] = src[k] + delay` — the event's first usable in-arc.
    ///
    /// Storing directly instead of folding into a freshly filled
    /// `NEG_INFINITY` accumulator is bit-identical, because
    /// `max(NEG_INFINITY, cand)` is `cand` whether `cand` is finite or
    /// `NEG_INFINITY` itself — and it saves one pass over the lanes per
    /// event.
    ///
    /// # Safety
    ///
    /// The CPU must support the implementing backend's feature (the
    /// dispatch's `is_x86_feature_detected!` guard).
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64);

    /// `dst[k] = max(dst[k], src[k] + delay)`, keeping `dst` on ties.
    ///
    /// # Safety
    ///
    /// As [`LaneOps::first`].
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64);
}

/// The portable lane loop: `max(best, src + δ)` over whole `[f64; 4]`
/// blocks. The cells are taken as blocks and flattened back, so the
/// compiler knows the length is a multiple of 4 and the autovectorizer
/// emits one block per iteration with no remainder loop; the select
/// form (not a conditional store) is what lets it use vector `max`.
struct Portable;

impl LaneOps for Portable {
    #[inline(always)]
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64) {
        let dst = dst.as_chunks_mut::<4>().0.as_flattened_mut();
        let src = src.as_chunks::<4>().0.as_flattened();
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s + delay;
        }
    }

    #[inline(always)]
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64) {
        let dst = dst.as_chunks_mut::<4>().0.as_flattened_mut();
        let src = src.as_chunks::<4>().0.as_flattened();
        for (d, &s) in dst.iter_mut().zip(src) {
            let cand = s + delay;
            *d = if cand > *d { cand } else { *d };
        }
    }
}

/// One row of the recurrence: the one row function every backend runs.
/// `prev` is empty for row 0. `#[inline(always)]` so each backend's
/// wrapper compiles the whole body — intrinsics included — with its
/// feature set.
///
/// Per event the row is split around the destination cell
/// (`split_at_mut`), so the lane accumulator IS the destination — no
/// scratch buffer, no copy-back pass. Unmarked in-arcs always read a
/// *different* event's cell (the unmarked subgraph is acyclic, so
/// `src ≠ ev`), which lands in the left or right remnant of the split;
/// marked in-arcs read the previous row. In row 0 each lane's origin
/// cell is pinned to 0 once its event's recurrence is done, in
/// topological order, so later same-row reads see it exactly as the
/// scalar kernel's pre-seeded cell. The padding lanes are never pinned,
/// so they stay `NEG_INFINITY` in every row.
///
/// # Safety
///
/// The CPU must support the feature `K`'s operations require.
#[inline(always)]
unsafe fn row_body<K: LaneOps>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    let w = kernel.stride;
    let structure = kernel.structure;
    let first_row = prev.is_empty();
    for &ev in &structure.order {
        let base = ev.index() * w;
        let (left, rest) = row.split_at_mut(base);
        let (dst, right) = rest.split_at_mut(w);
        let mut first = true;
        for ia in structure.in_arcs(ev) {
            let sb = ia.src as usize * w;
            let src = if ia.marked {
                if first_row {
                    continue; // no previous row: token enables for free
                }
                &prev[sb..sb + w]
            } else if sb < base {
                &left[sb..sb + w]
            } else {
                &right[sb - base - w..][..w]
            };
            if first {
                K::first(dst, src, ia.delay);
            } else {
                K::fold(dst, src, ia.delay);
            }
            first = false;
        }
        if first {
            dst.fill(f64::NEG_INFINITY); // no usable in-arc
        }
        if first_row {
            for (lane, &g) in kernel.origins.iter().enumerate() {
                if g == ev {
                    dst[lane] = 0.0; // t_g(g) = 0 by definition
                }
            }
        }
    }
}

/// The portable row.
fn row_portable(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    // SAFETY: the portable operations use no CPU feature.
    unsafe { row_body::<Portable>(kernel, prev, row) }
}

/// AVX2 lane arithmetic: one `ymm` per 4-lane block. It stays because
/// it beats the portable loop where the served benchmark runs: `run_in`
/// on its skeleton shapes (random live rings with chords, 1024 events
/// at b = 37 and 512 events at b = 20), timed in eight interleaved runs
/// on a shared 2-vCPU x86-64 host, read a median 1.45x of the portable
/// loop at b = 37 (per-run 1.44–1.52) and 1.29x at b = 20 (1.20–1.37).
/// It is also what an AVX2 host without AVX-512F runs.
#[cfg(target_arch = "x86_64")]
struct Avx2Ops;

#[cfg(target_arch = "x86_64")]
impl LaneOps for Avx2Ops {
    #[inline(always)]
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert!(dst.len() == src.len() && dst.len().is_multiple_of(4));
        let d = _mm256_set1_pd(delay);
        let mut i = 0usize;
        while i < dst.len() {
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(s, d));
            i += 4;
        }
    }

    #[inline(always)]
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert!(dst.len() == src.len() && dst.len().is_multiple_of(4));
        let d = _mm256_set1_pd(delay);
        let mut i = 0usize;
        while i < dst.len() {
            let cand = _mm256_add_pd(_mm256_loadu_pd(src.as_ptr().add(i)), d);
            let best = _mm256_loadu_pd(dst.as_ptr().add(i));
            // MAXPD returns its second operand on ties: `(cand, best)`
            // keeps `best` unless `cand` is strictly greater — exactly
            // the portable `if cand > *d { *d = cand }`. No NaN can
            // reach here (finite delays; NEG_INFINITY + δ = NEG_INFINITY).
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_max_pd(cand, best));
            i += 4;
        }
    }
}

/// AVX2 instantiation of the row recurrence.
///
/// # Safety
///
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_avx2(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    row_body::<Avx2Ops>(kernel, prev, row)
}

/// AVX-512 lane arithmetic: one `zmm` per pair of 4-lane blocks, and
/// one `ymm` for an odd trailing block. `VMAXPD` keeps its second
/// operand on ties at every width, as in [`Avx2Ops`]. In the runs
/// quoted there it read a median 1.61x of the portable loop at b = 37
/// (1.58–1.69) and 1.41x at b = 20 (1.29–1.45), 1.11x and 1.08x of
/// AVX2.
#[cfg(target_arch = "x86_64")]
struct Avx512Ops;

#[cfg(target_arch = "x86_64")]
impl LaneOps for Avx512Ops {
    #[inline(always)]
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert!(dst.len() == src.len() && dst.len().is_multiple_of(4));
        let n = dst.len();
        let d = _mm512_set1_pd(delay);
        let mut i = 0usize;
        while i + 8 <= n {
            let s = _mm512_loadu_pd(src.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_add_pd(s, d));
            i += 8;
        }
        if i < n {
            let d = _mm256_set1_pd(delay);
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(s, d));
        }
    }

    #[inline(always)]
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert!(dst.len() == src.len() && dst.len().is_multiple_of(4));
        let n = dst.len();
        let d = _mm512_set1_pd(delay);
        let mut i = 0usize;
        while i + 8 <= n {
            let cand = _mm512_add_pd(_mm512_loadu_pd(src.as_ptr().add(i)), d);
            let best = _mm512_loadu_pd(dst.as_ptr().add(i));
            _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_max_pd(cand, best));
            i += 8;
        }
        if i < n {
            let d = _mm256_set1_pd(delay);
            let cand = _mm256_add_pd(_mm256_loadu_pd(src.as_ptr().add(i)), d);
            let best = _mm256_loadu_pd(dst.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_max_pd(cand, best));
        }
    }
}

/// AVX-512 instantiation of the row recurrence.
///
/// # Safety
///
/// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn row_avx512(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    row_body::<Avx512Ops>(kernel, prev, row)
}

/// The reusable state of one full cycle-time analysis: the wide arena
/// holding the two-row window and origin strip of the `b` lockstep
/// border simulations, the scalar [`SimArena`] the parent-tracked
/// winner re-run uses, and the evaluation structure both read.
///
/// [`CycleTimeAnalysis::run_in`](crate::analysis::CycleTimeAnalysis::run_in)
/// reuses one of these per request or worker thread the way the scalar
/// engine reuses a [`SimArena`]: after the first analysis of the
/// largest shape, repeated analyses never touch the allocator.
#[derive(Clone, Debug)]
pub struct AnalysisArena {
    pub(crate) wide: WideArena,
    pub(crate) finish: SimArena,
    /// The evaluation structure, rebuilt in place per analysed graph
    /// (buffer-reusing; see [`CyclicStructure::rebuild`]).
    pub(crate) structure: CyclicStructure,
}

impl Default for AnalysisArena {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisArena {
    /// An empty arena on the detected kernel backend; the first
    /// analysis sizes it.
    pub fn new() -> Self {
        Self::with_kernel(KernelBackend::detect())
    }

    /// An empty arena on `kernel`, for comparing the backends; a
    /// backend the CPU lacks runs the portable loop instead.
    pub fn with_kernel(kernel: KernelBackend) -> Self {
        AnalysisArena {
            wide: WideArena::with_kernel(kernel),
            finish: SimArena::default(),
            structure: CyclicStructure::default(),
        }
    }

    /// The kernel backend the wide phase runs on.
    pub fn kernel(&self) -> KernelBackend {
        self.wide.backend
    }

    /// Allocated capacities `(wide time cells, scalar time cells,
    /// scalar parent cells)` — the warm-pool zero-allocation assertions
    /// check all three stay constant across same-shape requests. The
    /// wide cells are the two-row window: `2 · n · w` for the lane
    /// stride `w = lanes.next_multiple_of(4)`, rounded up to a cache
    /// line, for the largest shape analysed.
    pub fn capacity(&self) -> (usize, usize, usize) {
        let (t, p) = self.finish.capacity();
        (self.wide.capacity(), t, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

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

    /// A ring of `n` events with `tokens` marked arcs spread around it
    /// and one marked chord into the first of their targets: `tokens`
    /// border events, one lane each.
    fn ring(n: usize, tokens: usize) -> SignalGraph {
        let mut b = SignalGraph::builder();
        let evs: Vec<_> = (0..n).map(|i| b.event(&format!("r{i}"))).collect();
        for i in 0..n {
            let (src, dst) = (evs[i], evs[(i + 1) % n]);
            let delay = 1.0 + (i % 4) as f64 * 0.25;
            if (i + 1) % (n / tokens) == 0 && (i + 1) / (n / tokens) <= tokens {
                b.marked_arc(src, dst, delay);
            } else {
                b.arc(src, dst, delay);
            }
        }
        b.marked_arc(evs[n / 2], evs[(n / tokens) % n], 0.5);
        b.build().unwrap()
    }

    /// Parallel arcs: two unmarked `a → b`, two marked `c → a`, and a
    /// marked `c → b` beside the unmarked `a → b` pair.
    fn parallel_arcs() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let a = b.event("a");
        let x = b.event("b");
        let c = b.event("c");
        b.arc(a, x, 1.0);
        b.arc(a, x, 2.5);
        b.arc(x, c, 1.0);
        b.marked_arc(c, a, 1.0);
        b.marked_arc(c, a, 0.5);
        b.marked_arc(c, x, 4.0);
        b.build().unwrap()
    }

    /// The graphs of the cell-level sweeps: a prefix and a finite event
    /// (figure 2), odd lane counts (rings with 1, 3, 5 and 7 tokens,
    /// which also leave padding lanes) and parallel arcs, in an order
    /// that makes one reused arena grow and shrink.
    fn corpus() -> Vec<(String, SignalGraph)> {
        let mut out = vec![("figure 2".to_string(), figure2())];
        for tokens in [7usize, 1, 5, 3] {
            let sg = ring(14, tokens);
            assert_eq!(sg.border_events().len(), tokens);
            out.push((format!("ring 14/{tokens}"), sg));
        }
        out.push(("parallel arcs".into(), parallel_arcs()));
        out
    }

    /// The backends the running machine executes — always at least
    /// `Portable`, plus each SIMD path the CPU supports.
    fn available_backends() -> Vec<KernelBackend> {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    fn run(wide: &mut WideArena, sg: &SignalGraph, origins: &[EventId], periods: u32) {
        wide.run_with(sg, &CyclicStructure::new(sg), origins, periods, None)
            .unwrap();
    }

    /// Every bit the last run left: the window, padding lanes included,
    /// and the origin strip.
    fn bits(wide: &WideArena) -> (Vec<u64>, Vec<u64>) {
        let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect();
        (bits(wide.times.as_slice()), bits(&wide.strip))
    }

    /// Both resident rows of a `periods`-period run over `origins` —
    /// rows `periods - 1` and `periods` — must equal the scalar
    /// simulation of each lane's origin cell for cell, bit for bit, and
    /// so must each lane's record. Every padding lane of both rows must
    /// be `NEG_INFINITY`.
    fn assert_window_matches_scalar(
        wide: &WideArena,
        sg: &SignalGraph,
        origins: &[EventId],
        periods: u32,
        ctx: &str,
    ) {
        let (n, lanes) = (sg.event_count(), origins.len());
        let w = lane_stride(lanes);
        let window = wide.times.as_slice();
        assert_eq!(window.len(), 2 * n * w, "{ctx}: window length");
        for (cell, lanes_of) in window.chunks_exact(w).enumerate() {
            assert!(
                lanes_of[lanes..].iter().all(|&t| t == f64::NEG_INFINITY),
                "{ctx}: padding of cell {cell} is {:?}",
                &lanes_of[lanes..]
            );
        }
        let record = |s: Vec<(u32, f64, f64)>| {
            s.into_iter()
                .map(|(i, t, d)| (i, t.to_bits(), d.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut scalar = SimArena::new();
        for (k, &g) in origins.iter().enumerate() {
            scalar.run(sg, g, periods, false).unwrap();
            for p in periods - 1..=periods {
                let slot = p as usize % 2;
                for e in sg.events() {
                    let t = window[(slot * n + e.index()) * w + k];
                    assert_eq!(
                        (t > f64::NEG_INFINITY).then_some(t.to_bits()),
                        scalar.time(e, p).map(f64::to_bits),
                        "{ctx}: lane {k} ({}) e={} p={p}",
                        sg.label(g),
                        sg.label(e)
                    );
                }
            }
            assert_eq!(
                record(wide.distance_series(k)),
                record(scalar.distance_series()),
                "{ctx}: lane {k} record"
            );
        }
    }

    /// The window against the scalar kernel's full matrix: for every
    /// period count `p` in `1..=b + 1` (so row `p` lands in either
    /// slot), both resident rows equal the scalar rows `p - 1` and `p`
    /// cell by cell, on every backend, with one arena reused across the
    /// whole corpus so a stale cell of an earlier shape would show.
    #[test]
    fn window_run_equals_the_full_matrix() {
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for (name, sg) in corpus() {
                let borders = sg.border_events();
                let b = borders.len() as u32;
                for periods in 1..=b + 1 {
                    run(&mut wide, &sg, &borders, periods);
                    let ctx = format!("{name} on {backend}, periods={periods}");
                    assert_window_matches_scalar(&wide, &sg, &borders, periods, &ctx);
                }
            }
        }
        // A fresh arena's window holds exactly two rows of whole 4-lane
        // blocks.
        let sg = ring(14, 7);
        let borders = sg.border_events();
        let mut wide = WideArena::with_kernel(KernelBackend::detect());
        run(&mut wide, &sg, &borders, 8);
        let two_rows = 2 * sg.event_count() * lane_stride(borders.len());
        assert_eq!(wide.capacity(), two_rows.next_multiple_of(8));
    }

    #[test]
    fn lockstep_lanes_equal_scalar_simulations() {
        let sg = figure2();
        let borders = sg.border_events();
        assert_eq!(borders.len(), 2);
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for periods in [1u32, 2, 3, 7] {
                run(&mut wide, &sg, &borders, periods);
                let ctx = format!("{backend} periods={periods}");
                assert_window_matches_scalar(&wide, &sg, &borders, periods, &ctx);
            }
        }
    }

    #[test]
    fn single_lane_is_the_scalar_kernel() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            run(&mut wide, &sg, &[ap], 2);
            assert_window_matches_scalar(
                &wide,
                &sg,
                &[ap],
                2,
                &format!("single lane on {backend}"),
            );
            assert_eq!(wide.distance_series(0)[0], (1, 10.0, 10.0));
        }
    }

    #[test]
    fn arena_reuse_across_shapes_leaves_no_ghosts() {
        let big = ring(14, 7);
        let small = figure2();
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for (sg, periods) in [(&big, 8u32), (&small, 2), (&big, 5)] {
                let borders = sg.border_events();
                run(&mut wide, sg, &borders, periods);
                let ctx = format!("{} events on {backend}", sg.event_count());
                assert_window_matches_scalar(&wide, sg, &borders, periods, &ctx);
            }
        }
    }

    #[test]
    fn cancelled_rerun_heals_bit_identically_on_the_next_pass() {
        // Abort a run at every possible row, then run again without a
        // token: the half-written window and strip must heal to the
        // exact bits of a fresh arena's run on every backend.
        let sg = figure2();
        let borders = sg.border_events();
        let structure = CyclicStructure::new(&sg);
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for budget in 0..6u64 {
                let token = CancelToken::cancel_after_checks(budget);
                let c = wide
                    .run_with(&sg, &structure, &borders, 5, Some(&token))
                    .unwrap_err();
                assert_eq!(c.kind, CancelKind::Explicit, "{backend}");
                assert_eq!(c.rows_done, budget as usize, "{backend}");
                assert_eq!(c.rows_total, 6, "{backend}");
            }
            run(&mut wide, &sg, &borders, 5);
            let mut fresh = WideArena::with_kernel(backend);
            run(&mut fresh, &sg, &borders, 5);
            assert_eq!(
                bits(&wide),
                bits(&fresh),
                "{backend}: healed window must equal from-scratch"
            );
        }
    }

    #[test]
    fn kernel_backend_parses_and_displays_round_trip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::named(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(KernelBackend::named("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::named("AVX512"), Some(KernelBackend::Avx512));
        // `TSG_KERNEL` takes only the backend names: no aliases.
        for other in ["auto", "sse2", "wide", ""] {
            assert_eq!(KernelBackend::named(other), None, "{other}");
        }
    }

    #[test]
    fn resolution_never_yields_auto_and_portable_always_resolves() {
        // Detection yields a backend this CPU executes, and every arena
        // built without an explicit backend runs it.
        assert!(KernelBackend::detect().available());
        assert!(KernelBackend::Portable.available());
        assert_eq!(AnalysisArena::new().kernel(), KernelBackend::detect());
        // An explicit backend is kept wherever the CPU runs it, and
        // detection picks the widest one unless `TSG_KERNEL` forces one.
        for b in available_backends() {
            assert_eq!(AnalysisArena::with_kernel(b).kernel(), b);
        }
        if std::env::var_os("TSG_KERNEL").is_none() {
            assert_eq!(Some(&KernelBackend::detect()), available_backends().last());
        }
    }

    #[test]
    fn lane_storage_is_cache_line_aligned() {
        let sg = figure2();
        let mut wide = WideArena::with_kernel(KernelBackend::detect());
        run(&mut wide, &sg, &sg.border_events(), 3);
        assert_eq!(
            wide.times.as_slice().as_ptr() as usize % 64,
            0,
            "lane window must start on a cache-line boundary"
        );
    }

    #[test]
    fn aligned_vec_matches_vec_resize_semantics() {
        let mut aligned = AlignedF64Vec::new();
        let mut reference: Vec<f64> = Vec::new();
        for (len, value) in [(5usize, 1.0f64), (19, 2.0), (7, 3.0), (23, 4.0), (23, 5.0)] {
            aligned.resize(len, value);
            reference.resize(len, value);
            assert_eq!(aligned.as_slice(), &reference[..], "len {len}");
        }
        // Mutations through the slice persist across a growth.
        aligned.as_mut_slice()[0] = 9.5;
        reference[0] = 9.5;
        aligned.resize(40, 0.25);
        reference.resize(40, 0.25);
        assert_eq!(aligned.as_slice(), &reference[..]);
        assert!(aligned.capacity() >= 40);
    }

    /// Every backend against the portable loop and the scalar kernel,
    /// cell for cell, at every lane count from 1 to 41: every padding
    /// width (0..=3 lanes) of one to eleven 4-lane blocks, so AVX-512
    /// runs both with and without an odd trailing block.
    #[test]
    fn simd_backends_match_portable_at_every_remainder_width() {
        let sg = ring(48, 8);
        let repetitive: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
        for lanes in 1..=41 {
            let origins = &repetitive[..lanes];
            let mut portable = WideArena::with_kernel(KernelBackend::Portable);
            run(&mut portable, &sg, origins, 4);
            assert_window_matches_scalar(&portable, &sg, origins, 4, &format!("{lanes} lanes"));
            for backend in available_backends() {
                let mut simd = WideArena::with_kernel(backend);
                run(&mut simd, &sg, origins, 4);
                let ctx = format!("{backend} with {lanes} lanes");
                assert_window_matches_scalar(&simd, &sg, origins, 4, &ctx);
                assert_eq!(bits(&simd), bits(&portable), "{ctx}");
            }
        }
    }

    /// A narrow run after a wide one on the same arena: the 5-lane run
    /// reuses cells the 37-lane run filled at another stride, and must
    /// leave exactly the bits of a fresh arena's run, padding included.
    #[test]
    fn narrow_run_after_a_wide_one_leaves_no_ghosts() {
        let sg = ring(48, 8);
        let repetitive: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            run(&mut wide, &sg, &repetitive[..37], 6);
            assert_window_matches_scalar(&wide, &sg, &repetitive[..37], 6, "37 lanes");
            let narrow = &repetitive[11..16];
            run(&mut wide, &sg, narrow, 3);
            let ctx = format!("5 lanes after 37 on {backend}");
            assert_window_matches_scalar(&wide, &sg, narrow, 3, &ctx);
            let mut fresh = WideArena::with_kernel(backend);
            run(&mut fresh, &sg, narrow, 3);
            assert_eq!(bits(&wide), bits(&fresh), "{ctx}");
        }
    }
}

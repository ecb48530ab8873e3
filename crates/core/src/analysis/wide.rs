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
//! times[(s · n + e) · lanes + k]  =  t_{gk,0}(e_p)      (lane k = border event g_k, slot s = p % 2)
//!
//!           ┌ lane 0 ┬ lane 1 ┬ … ┬ lane b-1 ┐   ← contiguous f64s per (p, e)
//! row p:    │  e = 0 cell      │  e = 1 cell │ …
//! ```
//!
//! so one traversal of the in-arc table feeds `b` contiguous lanes: per
//! in-arc the kernel loads `(src, δ, marked)` once and performs `b`
//! branchless `max(best, src + δ)` updates on adjacent memory. Arc-table
//! traffic drops by a factor of `b` and the arithmetic widens to the
//! machine's vector width.
//!
//! # Two rows kept
//!
//! Row `p` reads only row `p − 1` (marked arcs) and itself (unmarked
//! arcs, in topological order), and the cycle-time records read only
//! each lane's origin cell `t_{gk,0}(g_{k,p})`. So the kernel keeps two
//! row slots — row `p` in slot `p % 2` — plus a `lanes × (periods + 1)`
//! strip of origin cells, filled after every row. On a 1024-event graph
//! with `b = 37` that is 0.6 MB of rows where the full `(b + 1)`-row
//! matrix would be 11.5 MB. Every analysis — one-shot runs, each
//! scenario of a sweep and session edits alike — runs in this window,
//! which lives in an [`AnalysisArena`]; the kernel itself is
//! crate-private. This module's tests check both resident rows of every
//! period count, cell by cell, against the scalar kernel's full matrix.
//!
//! # Explicit SIMD and runtime dispatch
//!
//! The portable lane loop is autovectorizer-friendly, but the x86-64
//! baseline only guarantees 128-bit SSE2 — a portable build leaves half
//! of an AVX2 machine's vector width on the table. [`KernelBackend`]
//! closes that gap with an explicit `core::arch::x86_64` path over the
//! contiguous lane dimension:
//!
//! | backend    | lane step | instructions                         | remainder lanes          |
//! |------------|-----------|--------------------------------------|--------------------------|
//! | `Avx2`     | 4 × f64   | `_mm256_add_pd` / `_mm256_max_pd`    | `_mm256_maskload_pd` / `_mm256_maskstore_pd` |
//! | `Portable` | compiler  | autovectorized scalar loop           | n/a                      |
//!
//! Both backends run one row function; they differ only in the two
//! per-arc lane operations (`first`, `fold`). The portable loop is
//! instantiated at constant lane counts 4, 8, 16 and 32, so its lane
//! loops compile with a constant trip count; other lane counts run a
//! dynamic-width instantiation.
//!
//! Selection is **runtime** dispatch: [`KernelBackend::detect`] picks
//! the widest feature `is_x86_feature_detected!` reports (overridable
//! through the `TSG_KERNEL` environment variable), and the `unsafe`
//! dispatch branch carries its *own* `is_x86_feature_detected!` guard,
//! so no intrinsic block can execute without the CPU check that makes
//! it sound. The portable loop is the guaranteed fallback on every
//! architecture.
//!
//! The SIMD paths are bit-identical to the portable loop (and hence to
//! the scalar oracle): `src + δ` maps to a vector `add`, and the scalar
//! `if cand > best { best = cand }` maps to `max_pd(cand, best)` — x86
//! `MAXPD` returns its *second* operand on ties, so ties keep `best`
//! exactly like the strict `>`. No lane is ever NaN (delays are finite
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
/// `Portable` is the autovectorized fallback loop, `Avx2` the
/// explicit-SIMD path. All backends are bit-identical, so the choice
/// only moves the time. The serve `stats` op reports the detected
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
}

impl KernelBackend {
    /// The lowercase name (`portable`, `avx2`) — what `TSG_KERNEL`
    /// takes and the serve `stats` op reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Portable => "portable",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// The backend `name` names, ignoring ASCII case.
    fn named(name: &str) -> Option<KernelBackend> {
        [KernelBackend::Portable, KernelBackend::Avx2]
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Whether this backend can execute on the current CPU.
    pub fn available(self) -> bool {
        match self {
            KernelBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Avx2 => false,
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
                .unwrap_or(if KernelBackend::Avx2.available() {
                    KernelBackend::Avx2
                } else {
                    KernelBackend::Portable
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
    fn resize(&mut self, new_len: usize, value: f64) {
        let old = self.len;
        self.chunks
            .resize(new_len.div_ceil(8), CacheLine([value; 8]));
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
    /// `times[(s * n + e) * lanes + k]` holds row `p` in slot
    /// `s = p % 2`.
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
    /// This is the runtime dispatch point of [`KernelBackend`]: the AVX2
    /// row runs only when `avx2` is set, and `avx2` is set only by its
    /// own `is_x86_feature_detected!` check, so the `unsafe` call can
    /// never execute without the CPU check that makes it sound.
    /// Anything that fails the check — and every non-x86 build — runs
    /// the portable row.
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
        let p_total = periods as usize + 1;
        self.p_total = p_total;

        // `resize` touches existing capacity only: after the first run
        // of this shape, no allocator traffic. No global fill: the
        // recurrence overwrites every repetitive event's cell in every
        // row, so only the columns of events *outside* the cyclic
        // structure (prefix/finite events — usually none) need their
        // NEG_INFINITY reset, in both slots, against stale cells of a
        // previous run. The strip needs none: every computed row
        // overwrites its cells.
        self.times.resize(2 * n * lanes, f64::NEG_INFINITY);
        self.strip.resize(lanes * p_total, f64::NEG_INFINITY);
        let times = self.times.as_mut_slice();
        for e in sg.events().filter(|&e| !sg.is_repetitive(e)) {
            for slot in 0..2 {
                let base = (slot * n + e.index()) * lanes;
                times[base..base + lanes].fill(f64::NEG_INFINITY);
            }
        }

        #[cfg(target_arch = "x86_64")]
        let avx2 =
            self.backend == KernelBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2");
        let kernel = RowKernel { origins, structure };
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
            let (prev, row) = row_pair(times, p, n * lanes);
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` is set only when the CPU reports AVX2.
                unsafe { row_avx2(&kernel, prev, row) };
            } else {
                row_portable(&kernel, prev, row);
            }
            #[cfg(not(target_arch = "x86_64"))]
            row_portable(&kernel, prev, row);
            for (lane, g) in origins.iter().enumerate() {
                self.strip[lane * p_total + p] = row[g.index() * lanes + lane];
            }
        }
        Ok(())
    }

    /// Allocated capacity of the window, in cells: `2 · n · lanes`,
    /// rounded up to a cache line, for the largest shape run so far.
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
/// (one lane each) and the structure.
struct RowKernel<'a> {
    origins: &'a [EventId],
    structure: &'a CyclicStructure,
}

/// The per-backend lane arithmetic of the row function: the two
/// operations [`row_body`] needs per in-arc, and the lane count it runs
/// at.
///
/// Implementations must keep `dst` on ties in `fold` (the strict `>` of
/// the scalar kernel).
trait LaneOps {
    /// The lane count of a row over `lanes` lanes: a constant-width
    /// instantiation returns its constant, so the lane loops compile
    /// with a constant trip count.
    #[inline(always)]
    fn width(lanes: usize) -> usize {
        lanes
    }

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

/// The portable lane loop at lane count `L` (`L == 0`: the lanes of the
/// run) — branchless `max(best, src + δ)` over contiguous lanes, which
/// the autovectorizer turns into SIMD `add`/`max`.
struct Portable<const L: usize>;

impl<const L: usize> LaneOps for Portable<L> {
    #[inline(always)]
    fn width(lanes: usize) -> usize {
        if L == 0 {
            lanes
        } else {
            L
        }
    }

    #[inline(always)]
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s + delay;
        }
    }

    #[inline(always)]
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64) {
        for (d, &s) in dst.iter_mut().zip(src) {
            let cand = s + delay;
            if cand > *d {
                *d = cand;
            }
        }
    }
}

/// One row of the recurrence: the one row function every backend runs.
/// `prev` is empty for row 0. `#[inline(always)]` so each backend's
/// wrapper compiles the whole body — intrinsics included — with its
/// feature set and lane count.
///
/// Per event the row is split around the destination cell
/// (`split_at_mut`), so the lane accumulator IS the destination — no
/// scratch buffer, no copy-back pass. Unmarked in-arcs always read a
/// *different* event's cell (the unmarked subgraph is acyclic, so
/// `src ≠ ev`), which lands in the left or right remnant of the split;
/// marked in-arcs read the previous row. In row 0 each lane's origin
/// cell is pinned to 0 once its event's recurrence is done, in
/// topological order, so later same-row reads see it exactly as the
/// scalar kernel's pre-seeded cell.
///
/// # Safety
///
/// The CPU must support the feature `K`'s operations require.
#[inline(always)]
unsafe fn row_body<K: LaneOps>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    let lanes = K::width(kernel.origins.len());
    let structure = kernel.structure;
    let first_row = prev.is_empty();
    for &ev in &structure.order {
        let base = ev.index() * lanes;
        let (left, rest) = row.split_at_mut(base);
        let (dst, right) = rest.split_at_mut(lanes);
        let mut first = true;
        for ia in structure.in_arcs(ev) {
            let sb = ia.src as usize * lanes;
            let src = if ia.marked {
                if first_row {
                    continue; // no previous row: token enables for free
                }
                &prev[sb..sb + lanes]
            } else if sb < base {
                &left[sb..sb + lanes]
            } else {
                &right[sb - base - lanes..][..lanes]
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

/// The portable row at a constant lane count for the common SIMD
/// widths, the dynamic-width instantiation otherwise.
fn row_portable(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    match kernel.origins.len() {
        4 => row_portable_at::<4>(kernel, prev, row),
        8 => row_portable_at::<8>(kernel, prev, row),
        16 => row_portable_at::<16>(kernel, prev, row),
        32 => row_portable_at::<32>(kernel, prev, row),
        _ => row_portable_at::<0>(kernel, prev, row),
    }
}

/// The portable row at lane count `L` (`L == 0`: dynamic width).
fn row_portable_at<const L: usize>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    // SAFETY: the portable operations use no CPU feature.
    unsafe { row_body::<Portable<L>>(kernel, prev, row) }
}

/// A 4-lane mask with the first `rem` (1..=3) 64-bit lanes enabled,
/// built by sliding a load window over a constant sign pattern.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tail_mask(rem: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::_mm256_loadu_si256;
    debug_assert!((1..=3).contains(&rem));
    const PATTERN: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
    _mm256_loadu_si256(PATTERN.as_ptr().add(4 - rem).cast())
}

/// 4-wide AVX2 lane arithmetic; remainder lanes go through
/// `maskload`/`maskstore`, which architecturally never touch the
/// masked-out lanes (no out-of-bounds access, no fault). It stays
/// because it beats the portable loop where the served benchmark
/// runs: `run_in` on its skeleton shapes (random live rings with
/// chords, 512 events at b = 20 and 1024 events at b = 37), timed in
/// ten alternating runs on a shared 2-vCPU x86-64 host, read a median
/// 1.33x of the portable loop at both (per-run ratios 1.22–1.75 and
/// 1.22–1.53). Neither lane count has a constant-width portable
/// instantiation.
#[cfg(target_arch = "x86_64")]
struct Avx2Ops;

#[cfg(target_arch = "x86_64")]
impl LaneOps for Avx2Ops {
    #[inline(always)]
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let d = _mm256_set1_pd(delay);
        let mut i = 0usize;
        while i + 4 <= n {
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(s, d));
            i += 4;
        }
        if i < n {
            let mask = tail_mask(n - i);
            let s = _mm256_maskload_pd(src.as_ptr().add(i), mask);
            _mm256_maskstore_pd(dst.as_mut_ptr().add(i), mask, _mm256_add_pd(s, d));
        }
    }

    #[inline(always)]
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64) {
        use std::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let d = _mm256_set1_pd(delay);
        let mut i = 0usize;
        while i + 4 <= n {
            let cand = _mm256_add_pd(_mm256_loadu_pd(src.as_ptr().add(i)), d);
            let best = _mm256_loadu_pd(dst.as_ptr().add(i));
            // MAXPD returns its second operand on ties: `(cand, best)`
            // keeps `best` unless `cand` is strictly greater — exactly
            // the portable `if cand > *d { *d = cand }`. No NaN can
            // reach here (finite delays; NEG_INFINITY + δ = NEG_INFINITY).
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_max_pd(cand, best));
            i += 4;
        }
        if i < n {
            let mask = tail_mask(n - i);
            let cand = _mm256_add_pd(_mm256_maskload_pd(src.as_ptr().add(i), mask), d);
            let best = _mm256_maskload_pd(dst.as_ptr().add(i), mask);
            _mm256_maskstore_pd(dst.as_mut_ptr().add(i), mask, _mm256_max_pd(cand, best));
        }
    }
}

/// AVX2 instantiation of the row recurrence.
///
/// # Safety
///
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[target_feature(enable = "avx2")]
unsafe fn row_avx2(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    row_body::<Avx2Ops>(kernel, prev, row)
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
    /// wide cells are the two-row window: at most `2 · n · lanes`,
    /// rounded up to a cache line, for the largest shape analysed.
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
    /// which also leave AVX2 remainder lanes) and parallel arcs, in an
    /// order that makes one reused arena grow and shrink.
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
        [KernelBackend::Portable, KernelBackend::Avx2]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    fn run(wide: &mut WideArena, sg: &SignalGraph, origins: &[EventId], periods: u32) {
        wide.run_with(sg, &CyclicStructure::new(sg), origins, periods, None)
            .unwrap();
    }

    /// Every bit the last run left: the window and the origin strip.
    fn bits(wide: &WideArena) -> (Vec<u64>, Vec<u64>) {
        let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect();
        (bits(wide.times.as_slice()), bits(&wide.strip))
    }

    /// Both resident rows of a `periods`-period run over `origins` —
    /// rows `periods - 1` and `periods` — must equal the scalar
    /// simulation of each lane's origin cell for cell, bit for bit, and
    /// so must each lane's record.
    fn assert_window_matches_scalar(
        wide: &WideArena,
        sg: &SignalGraph,
        origins: &[EventId],
        periods: u32,
        ctx: &str,
    ) {
        let (n, lanes) = (sg.event_count(), origins.len());
        let window = wide.times.as_slice();
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
                    let t = window[(slot * n + e.index()) * lanes + k];
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
        // A fresh arena's window holds exactly two rows.
        let sg = ring(14, 7);
        let borders = sg.border_events();
        let mut wide = WideArena::with_kernel(KernelBackend::detect());
        run(&mut wide, &sg, &borders, 8);
        let two_rows = 2 * sg.event_count() * borders.len();
        assert!(wide.capacity() <= two_rows.next_multiple_of(8));
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
        for b in [KernelBackend::Portable, KernelBackend::Avx2] {
            assert_eq!(KernelBackend::named(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(KernelBackend::named("AVX2"), Some(KernelBackend::Avx2));
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
        // An explicit backend is kept wherever the CPU runs it.
        for b in available_backends() {
            assert_eq!(AnalysisArena::with_kernel(b).kernel(), b);
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

    /// The explicit-SIMD backends against the portable loop, cell for
    /// cell, at lane counts that exercise full vectors, masked AVX2
    /// tails (1..=3 remainder lanes), the portable loop's constant-width
    /// instantiations and its dynamic-width fallback.
    #[test]
    fn simd_backends_match_portable_at_every_remainder_width() {
        let sg = ring(40, 8);
        let repetitive: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
        for lanes in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33] {
            let origins = &repetitive[..lanes];
            let mut portable = WideArena::with_kernel(KernelBackend::Portable);
            run(&mut portable, &sg, origins, 4);
            assert_window_matches_scalar(&portable, &sg, origins, 4, &format!("{lanes} lanes"));
            for backend in available_backends() {
                let mut simd = WideArena::with_kernel(backend);
                run(&mut simd, &sg, origins, 4);
                assert_eq!(bits(&simd), bits(&portable), "{backend} with {lanes} lanes");
            }
        }
    }
}

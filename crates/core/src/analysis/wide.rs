//! Lane-batched event-initiated simulations: all `b` border simulations
//! of one analysis — across all `s` delay scenarios — in lockstep over a
//! single structure pass.
//!
//! # Why lanes
//!
//! The cycle-time algorithm runs `b` event-initiated simulations that
//! each replay the *same* longest-path recurrence over the *same*
//! flattened in-arc table — only the initiating event differs. Run one
//! after another (or one per thread), every simulation re-streams the
//! whole in-arc table through cache to feed a single scalar
//! `max(best, src + δ)`. A [`WideArena`] instead stores the matrices
//! **lane-major**:
//!
//! ```text
//! times[(p · n + e) · lanes + k]  =  t_{gk,0}(e_p)      (lane k = border event g_k)
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
//! # Rows kept: the full matrix or a two-row window
//!
//! Row `p` reads only row `p − 1` (marked arcs) and itself (unmarked
//! arcs, in topological order), and the cycle-time records read only
//! each lane's origin cell `t_{gk,0}(g_{k,p})`. So a one-shot analysis
//! (`Rows::Window`) keeps two row slots — row `p` in slot `p % 2` —
//! plus a `lanes × (periods + 1)` strip of origin cells, filled after
//! every row. On a 1024-event graph with `b = 37` that is 0.6 MB of
//! rows where the full matrix would be 11.5 MB. Every analysis —
//! one-shot runs, scenario sweeps and session edits alike — runs in
//! the window. Only the public [`WideArena::run`] (`Rows::All`) keeps
//! every row, because its [`WideArena::time`] exposes every cell and
//! the backend tests compare whole matrices. Both layouts go through
//! one row-pair helper, so each backend has a single row kernel.
//!
//! # Scenario lanes: `lanes = b × s`
//!
//! The same amortisation applies across *delay scenarios* — min/typ/max
//! corners or sampled per-arc variation assignments: only the δ of each
//! in-arc changes, never the traversal. The scenario run behind
//! [`CycleTimeAnalysis::run_scenarios_in`] generalises the lane
//! dimension to every (border, scenario) pair, scenario-major:
//!
//! ```text
//! times[(p · n + e) · (b · s) + lane]     lane = j · b + k
//!                                         (scenario j, border event g_k)
//!
//!           ┌── scenario 0 ──┬── scenario 1 ──┬ … ┬── scenario s-1 ──┐
//! (p, e):   │ k=0 … k=b-1    │ k=0 … k=b-1    │ … │ k=0 … k=b-1      │
//! ```
//!
//! Per-arc delays become per-lane δ *vectors*: one flat table
//! `deltas[slot · (b·s) + lane]` parallel to the in-arc entries, with
//! scenario `j`'s delay replicated over its `b` border lanes. The SIMD
//! kernels load the δ vector with the same width as the time lanes
//! (`first_v`/`fold_v`), so one lockstep pass sweeps all `b·s`
//! simulations; with an empty delta table the nominal scalar-δ path is
//! unchanged. Per lane the result is bit-identical to a scalar run on
//! the correspondingly reweighted graph: the candidates are the same
//! f64 products, folded in the same comparison order.
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
//! line more often than the lane offset forces, and a multi-worker
//! arena's per-worker windows cannot false-share a line with a neighbour.
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
//! * row 0 is special-cased scalar before the lockstep rows begin:
//!   marked arcs have no previous row (the scalar kernel skips them) and
//!   lane `k`'s origin cell is pinned to `t_{gk}(g_k) = 0` after the
//!   row's recurrence, in topological order, so later same-row reads see
//!   the pinned value just as the scalar kernel's pre-seeded cell.
//!
//! Identical candidate values in identical comparison order give
//! identical IEEE-754 results bit for bit — asserted across generator
//! families *and backends* in `tests/wide.rs` and re-asserted by the
//! `bench` binary before any speedup is reported.
//!
//! The one thing the wide kernel does not track is parents: the
//! cycle-time algorithm needs backtracking only for the single winning
//! border event, which [`CycleTimeAnalysis::finish`] re-runs scalar with
//! `track_parents` — `O(b·m)` against the `O(b²·m)` main phase.
//!
//! [`CycleTimeAnalysis::finish`]: crate::analysis::CycleTimeAnalysis
//! [`CycleTimeAnalysis::run_scenarios_in`]: crate::analysis::CycleTimeAnalysis::run_scenarios_in

use std::fmt;
use std::sync::OnceLock;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::initiated::{NotRepetitive, SimArena};
use crate::analysis::structure::CyclicStructure;
use crate::arc::ArcId;
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

/// A wide run stopped by its [`CancelToken`] before filling every row.
///
/// Rows `0..rows_done` were computed; later rows are stale or partially
/// overwritten until the next run overwrites every row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cancelled {
    pub kind: CancelKind,
    pub rows_done: usize,
    pub rows_total: usize,
}

/// Why [`WideArena::run_with`] returned before filling the matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Halt {
    NotRepetitive(NotRepetitive),
    Cancelled(Cancelled),
    /// The batch shape is degenerate: zero lanes or zero periods.
    Degenerate {
        lanes: usize,
        periods: u32,
    },
}

/// Which rows of the lane matrix a run keeps resident — fixed by the
/// entry point, never a setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Every row `0..=periods`: what the public cell view
    /// ([`WideArena::time`]) needs. [`WideArena::run`] only.
    All,
    /// Two row slots, row `p` in slot `p % 2`: the recurrence reads only
    /// rows `p - 1` (marked arcs) and `p` (unmarked arcs), and the
    /// records read only the origin strip. Every analysis.
    Window,
}

/// Why a [`WideArena::run`] call failed.
///
/// A malformed batch — no lanes, no scenarios, zero periods — is a
/// structured error, never a panic, so a served request can never abort
/// a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WideRunError {
    /// An initiating event is not repetitive.
    NotRepetitive(NotRepetitive),
    /// The requested batch shape has nothing to simulate.
    Degenerate {
        /// Requested lane count (`origins × scenarios`).
        lanes: usize,
        /// Requested simulation periods.
        periods: u32,
    },
}

impl fmt::Display for WideRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WideRunError::NotRepetitive(e) => e.fmt(f),
            WideRunError::Degenerate { lanes, periods } => write!(
                f,
                "degenerate simulation batch: {lanes} lane(s) over {periods} period(s)"
            ),
        }
    }
}

impl std::error::Error for WideRunError {}

/// One cache line of lane storage — the alignment carrier of
/// [`AlignedF64Vec`]. `repr(C, align(64))` with eight f64s makes size
/// equal alignment, so a `Vec` of these tiles gap-free.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
struct CacheLine([f64; 8]);

/// A growable `f64` buffer on a 64-byte-aligned allocation with
/// `Vec::resize` fill semantics — the lane matrix's backing store, so
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

    fn as_slice(&self) -> &[f64] {
        // SAFETY: `chunks` stores at least `len.div_ceil(8)` cache lines
        // of initialised f64s; `CacheLine` is `repr(C)` with size equal
        // to its alignment (64), so the lines tile contiguously and the
        // first `len` f64s are one valid slice.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f64>(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`, plus `&mut self` gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f64>(), self.len) }
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

/// Reusable backing store — and result view — of a batch of lockstep
/// event-initiated simulations, one lane per initiating event.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::wide::WideArena;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let mut wide = WideArena::new();
/// wide.run(&sg, &[xp, xm], 2)?; // two lanes, one shared traversal
/// assert_eq!(wide.time(0, xp, 1), Some(5.0));
/// assert_eq!(wide.time(1, xm, 1), Some(5.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WideArena {
    /// Flat lane-major time rows: `times[(s * n + e) * lanes + k]` holds
    /// row `p` in slot `s = p % slots`, on a 64-byte-aligned
    /// allocation. A full-matrix run keeps every row (`slots =
    /// p_total`); a one-shot window run keeps only rows `p - 1` and `p`
    /// (`slots = 2`), all the recurrence reads.
    times: AlignedF64Vec,
    /// Row slots resident in `times` (see [`Rows`]).
    slots: usize,
    /// Each lane's origin cell per row, lane-major:
    /// `strip[k * p_total + p] = t_{gk,0}(g_{k,p})` — everything the
    /// distance records read, kept whichever rows `times` holds.
    strip: Vec<f64>,
    /// Initiating event of each *border* lane; lane `j·b + k` of a
    /// scenario run shares `origins[k]`.
    origins: Vec<EventId>,
    /// Delay scenarios of the last run (1 in nominal mode); the total
    /// lane count is `origins.len() * scenarios`.
    scenarios: usize,
    /// Per-lane δ table of a scenario run, parallel to the structure's
    /// in-arc entries: `deltas[slot * lanes + lane]`, scenario `j`'s
    /// delay replicated over its `b` border lanes. Empty in nominal
    /// mode, where the kernels fold the structure's scalar δ instead.
    deltas: Vec<f64>,
    /// Events per row of the last run.
    n: usize,
    /// Rows of the last run (`periods + 1`).
    p_total: usize,
    /// Periods of the last run.
    periods: u32,
    /// The execution backend.
    backend: KernelBackend,
}

impl Default for WideArena {
    fn default() -> Self {
        Self::new()
    }
}

impl WideArena {
    /// An empty arena on the detected kernel backend
    /// ([`KernelBackend::detect`]); the first [`WideArena::run`] sizes
    /// it.
    pub fn new() -> Self {
        Self::with_kernel(KernelBackend::detect())
    }

    /// An empty arena on `kernel`, for comparing the backends; a
    /// backend the CPU lacks runs the portable loop instead.
    pub fn with_kernel(kernel: KernelBackend) -> Self {
        WideArena {
            times: AlignedF64Vec::new(),
            slots: 0,
            strip: Vec::new(),
            origins: Vec::new(),
            scenarios: 1,
            deltas: Vec::new(),
            n: 0,
            p_total: 0,
            periods: 0,
            backend: if kernel.available() {
                kernel
            } else {
                KernelBackend::Portable
            },
        }
    }

    /// The execution backend of this arena.
    pub fn kernel(&self) -> KernelBackend {
        self.backend
    }

    /// Runs one `g₀`-initiated simulation per origin, all lanes in
    /// lockstep over `periods` periods, reusing this arena's buffers.
    ///
    /// # Errors
    ///
    /// Returns [`WideRunError::NotRepetitive`] for the first
    /// non-repetitive origin, and [`WideRunError::Degenerate`] when
    /// `origins` is empty or `periods == 0` — a structured error, never
    /// a panic, so a malformed serve request can't abort a worker.
    pub fn run(
        &mut self,
        sg: &SignalGraph,
        origins: &[EventId],
        periods: u32,
    ) -> Result<(), WideRunError> {
        let structure = CyclicStructure::new(sg);
        match self.run_with(sg, &structure, origins, periods, Rows::All, None) {
            Ok(()) => Ok(()),
            Err(Halt::NotRepetitive(e)) => Err(WideRunError::NotRepetitive(e)),
            Err(Halt::Degenerate { lanes, periods }) => {
                Err(WideRunError::Degenerate { lanes, periods })
            }
            Err(Halt::Cancelled(_)) => unreachable!("no cancel token was supplied"),
        }
    }

    /// Shared-structure variant — the cycle-time algorithm builds one
    /// [`CyclicStructure`] and batches every border event over it,
    /// keeping the rows `rows` says. A [`CancelToken`] is polled once
    /// per matrix row; on cancellation the matrix is left partially
    /// written (see [`Cancelled`]).
    pub(crate) fn run_with(
        &mut self,
        sg: &SignalGraph,
        structure: &CyclicStructure,
        origins: &[EventId],
        periods: u32,
        rows: Rows,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Halt> {
        Self::validate(sg, origins, 1, periods)?;
        self.scenarios = 1;
        self.deltas.clear();
        self.seed_and_compute(sg, structure, origins, periods, rows, cancel)
    }

    /// Scenario-lane variant: packs `origins.len() × scenarios` lanes —
    /// lane `j·b + k` simulates border `g_k` under delay scenario `j` —
    /// and sweeps them all in one lockstep pass over the *nominal*
    /// structure. `delay_of(arc, j)` supplies scenario `j`'s delay for
    /// `arc`; the values are packed into the per-lane δ table the
    /// kernels fold instead of the structure's scalar delay. Per lane
    /// the result is bit-identical to a scalar run on the
    /// correspondingly reweighted graph.
    #[allow(clippy::too_many_arguments)] // matrix + dims + per-lane delays + cancel: kernel-entry plumbing
    pub(crate) fn run_scenarios_with<F: FnMut(ArcId, usize) -> f64>(
        &mut self,
        sg: &SignalGraph,
        structure: &CyclicStructure,
        origins: &[EventId],
        scenarios: usize,
        delay_of: F,
        periods: u32,
        rows: Rows,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Halt> {
        Self::validate(sg, origins, scenarios, periods)?;
        self.scenarios = scenarios;
        self.origins.clear();
        self.origins.extend_from_slice(origins);
        self.build_scenario_deltas(structure, delay_of);
        self.seed_and_compute(sg, structure, origins, periods, rows, cancel)
    }

    /// Builds the δ table for the current batch shape against
    /// `structure`'s in-arc slots.
    fn build_scenario_deltas<F: FnMut(ArcId, usize) -> f64>(
        &mut self,
        structure: &CyclicStructure,
        mut delay_of: F,
    ) {
        let b = self.origins.len();
        let lanes = b * self.scenarios;
        self.deltas.clear();
        self.deltas.resize(structure.entries.len() * lanes, 0.0);
        for (slot, entry) in structure.entries.iter().enumerate() {
            for j in 0..self.scenarios {
                let base = slot * lanes + j * b;
                self.deltas[base..base + b].fill(delay_of(entry.arc, j));
            }
        }
    }

    /// The shape/precondition gate of every run entry point: degenerate
    /// batches and non-repetitive origins are structured [`Halt`]s.
    fn validate(
        sg: &SignalGraph,
        origins: &[EventId],
        scenarios: usize,
        periods: u32,
    ) -> Result<(), Halt> {
        if periods == 0 || origins.is_empty() || scenarios == 0 {
            return Err(Halt::Degenerate {
                lanes: origins.len() * scenarios,
                periods,
            });
        }
        for &g in origins {
            if !sg.is_repetitive(g) {
                return Err(Halt::NotRepetitive(NotRepetitive(g)));
            }
        }
        Ok(())
    }

    /// Installs the batch shape, resets stale cells and computes every
    /// row — the shared tail of the validated run entry points.
    fn seed_and_compute(
        &mut self,
        sg: &SignalGraph,
        structure: &CyclicStructure,
        origins: &[EventId],
        periods: u32,
        rows: Rows,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Halt> {
        let n = sg.event_count();
        let lanes = origins.len() * self.scenarios;
        let p_total = periods as usize + 1;
        self.n = n;
        self.p_total = p_total;
        self.periods = periods;
        self.slots = match rows {
            Rows::All => p_total,
            Rows::Window => p_total.min(2),
        };
        self.origins.clear();
        self.origins.extend_from_slice(origins);

        // `resize` touches existing capacity only: after the first run
        // of this shape, no allocator traffic. No global fill: the
        // recurrence overwrites every repetitive event's cell in every
        // row, so only the columns of events *outside* the cyclic
        // structure (prefix/finite events — usually none) need their
        // NEG_INFINITY reset, in every slot, against stale cells of a
        // previous run. The strip needs none: every computed row
        // overwrites its cells.
        self.times.resize(self.slots * n * lanes, f64::NEG_INFINITY);
        self.strip.resize(lanes * p_total, f64::NEG_INFINITY);
        let times = self.times.as_mut_slice();
        for e in sg.events() {
            if !sg.is_repetitive(e) {
                for slot in 0..self.slots {
                    let base = (slot * n + e.index()) * lanes;
                    times[base..base + lanes].fill(f64::NEG_INFINITY);
                }
            }
        }

        self.compute_rows(structure, cancel)
            .map_err(Halt::Cancelled)
    }

    /// The lockstep longest-path recurrence over rows `0..p_total`: the
    /// runtime dispatch point of [`KernelBackend`].
    ///
    /// Per row it polls `cancel`, takes the `(prev, current)` row pair
    /// from [`row_pair`] — the one place that knows whether the arena
    /// holds the full matrix or the two-slot window — runs one backend's
    /// row kernel on it, and copies each lane's origin cell into the
    /// strip.
    ///
    /// The AVX2 kernel runs only when `avx2` is set, and `avx2` is set
    /// only by its own `is_x86_feature_detected!` check, so the `unsafe`
    /// call can never execute without the CPU check that makes it sound.
    /// Anything that fails the check — and every non-x86 build — runs
    /// the portable kernel, instantiated per common SIMD lane count so
    /// the per-arc lane loops compile with a constant trip count.
    fn compute_rows(
        &mut self,
        structure: &CyclicStructure,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        let (n, p_total, slots) = (self.n, self.p_total, self.slots);
        let lanes = self.lanes();
        #[cfg(target_arch = "x86_64")]
        let avx2 =
            self.backend == KernelBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2");
        let WideArena {
            times,
            strip,
            origins,
            deltas,
            ..
        } = self;
        let times = times.as_mut_slice();
        for p in 0..p_total {
            // One poll per matrix row: a row is `O(m · lanes)` work, so
            // the check cost vanishes while aborts still land within one
            // row of the signal.
            if let Some(kind) = cancel.and_then(CancelToken::check) {
                return Err(Cancelled {
                    kind,
                    rows_done: p,
                    rows_total: p_total,
                });
            }
            let (prev, row) = row_pair(times, p, n * lanes, slots);
            let kernel = RowKernel {
                origins,
                lanes,
                deltas,
                structure,
            };
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` is set only when the CPU reports AVX2.
                unsafe { row_avx2(&kernel, prev, row) };
            } else {
                row_portable_dispatch(&kernel, prev, row);
            }
            #[cfg(not(target_arch = "x86_64"))]
            row_portable_dispatch(&kernel, prev, row);
            // Lane j·b + k's origin is border k's event.
            for (lane, g) in origins.iter().cycle().take(lanes).enumerate() {
                strip[lane * p_total + p] = row[g.index() * lanes + lane];
            }
        }
        Ok(())
    }

    /// Allocated capacity of the lane-major time buffer, in cells: at
    /// least `(periods + 1) · n · lanes` after a full-matrix run, and
    /// `2 · n · lanes` (rounded up to a cache line) for an arena only
    /// one-shot analyses ran in.
    ///
    /// A warm-pool worker asserts this stays constant across requests of
    /// the same shape, exactly like [`SimArena::capacity`].
    pub fn capacity(&self) -> usize {
        self.times.capacity()
    }

    /// Number of lanes of the last run (`borders × scenarios`).
    pub fn lanes(&self) -> usize {
        self.origins.len() * self.scenarios
    }

    /// Number of border lanes (initiating events) of the last run.
    pub fn borders(&self) -> usize {
        self.origins.len()
    }

    /// Number of delay scenarios of the last run (1 in nominal mode).
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// The initiating event of lane `k` (`origins[k mod b]` — lanes of
    /// the same border across scenarios share their origin).
    ///
    /// # Panics
    ///
    /// Panics when the arena has never run.
    pub fn origin(&self, k: usize) -> EventId {
        self.origins[k % self.origins.len()]
    }

    /// The delay-scenario index of lane `k` (`k / b`).
    pub fn scenario_of(&self, k: usize) -> usize {
        k / self.origins.len()
    }

    /// Periods of the last run (instances `0..=periods` are available).
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// `t_{gk,0}(e_p)` of lane `k`, or `None` when `g_{k,0} ⇏ e_p` —
    /// the lane-indexed twin of [`SimArena::time`]. Every row of a
    /// [`WideArena::run`] is available; an arena a one-shot analysis
    /// ran in holds only its last two rows and answers `None` below.
    pub fn time(&self, k: usize, e: EventId, instance: u32) -> Option<f64> {
        let p = instance as usize;
        let lanes = self.lanes();
        if p >= self.p_total || k >= lanes || p + self.slots < self.p_total {
            return None;
        }
        let slot = p % self.slots;
        let t = self.times.as_slice()[(slot * self.n + e.index()) * lanes + k];
        (t > f64::NEG_INFINITY).then_some(t)
    }

    /// All defined `δ_{gk,0}(g_{k,i})` of lane `k`, as `(i, t, δ)`.
    pub fn distance_series(&self, k: usize) -> Vec<(u32, f64, f64)> {
        let mut out = Vec::new();
        self.distance_series_into(k, &mut out);
        out
    }

    /// Allocation-reusing form of [`distance_series`](Self::distance_series):
    /// clears `out` and fills it in place, so a caller can keep one
    /// buffer per lane alive across re-runs. Reads the origin strip, so
    /// it works whichever rows the arena kept.
    pub fn distance_series_into(&self, k: usize, out: &mut Vec<(u32, f64, f64)>) {
        out.clear();
        let cells = &self.strip[k * self.p_total..][..self.p_total];
        out.extend((1..=self.periods).filter_map(|i| {
            let t = cells[i as usize];
            (t > f64::NEG_INFINITY).then(|| (i, t, t / i as f64))
        }));
    }
}

/// Splits row `p`'s cells (mutable) and row `p - 1`'s (shared; empty
/// for row 0) out of `times`, where row `p` lives in slot `p % slots`:
/// `slots = p_total` is the full matrix, `slots = 2` the one-shot
/// window. The one place either layout is known — the row kernels see
/// only the pair.
fn row_pair(times: &mut [f64], p: usize, row_cells: usize, slots: usize) -> (&[f64], &mut [f64]) {
    let cur = p % slots;
    if p == 0 {
        return (&[], &mut times[cur * row_cells..][..row_cells]);
    }
    let prev = (p - 1) % slots;
    if prev < cur {
        let (before, current) = times.split_at_mut(cur * row_cells);
        (
            &before[prev * row_cells..][..row_cells],
            &mut current[..row_cells],
        )
    } else {
        // Window wrap-around: row p in slot 0, row p - 1 in slot 1.
        let (before, after) = times.split_at_mut(prev * row_cells);
        (
            &after[..row_cells],
            &mut before[cur * row_cells..][..row_cells],
        )
    }
}

/// What every row kernel reads besides the row pair: the batch shape,
/// the per-lane δ table (empty in nominal mode) and the structure.
struct RowKernel<'a> {
    origins: &'a [EventId],
    lanes: usize,
    deltas: &'a [f64],
    structure: &'a CyclicStructure,
}

impl RowKernel<'_> {
    /// Row 0: pins each lane's origin cell to 0 once event `ev`'s
    /// recurrence is done, in topological order, so later same-row
    /// reads see it exactly as the scalar kernel's pre-seeded cell.
    /// Border k owns lanes k, k+b, … — one per scenario (lane j·b + k is
    /// scenario j, border k).
    #[inline(always)]
    fn pin_origins(&self, ev: EventId, dst: &mut [f64]) {
        let b = self.origins.len();
        for (k, &g) in self.origins.iter().enumerate() {
            if g == ev {
                for lane in (k..self.lanes).step_by(b) {
                    dst[lane] = 0.0; // t_g(g) = 0 by definition
                }
            }
        }
    }
}

/// The portable row kernel at a constant lane count for the common
/// SIMD widths, the dynamic-width instantiation otherwise.
fn row_portable_dispatch(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    match kernel.lanes {
        4 => row_portable::<4>(kernel, prev, row),
        8 => row_portable::<8>(kernel, prev, row),
        16 => row_portable::<16>(kernel, prev, row),
        32 => row_portable::<32>(kernel, prev, row),
        _ => row_portable::<0>(kernel, prev, row),
    }
}

/// One row of the recurrence on the portable loop, at lane count `L`
/// (`L == 0` is the dynamic-width fallback). `prev` is empty for row 0.
///
/// Per event the row is split around the destination cell
/// (`split_at_mut`), so the `lanes` accumulator IS the destination —
/// no scratch buffer, no copy-back pass. Unmarked in-arcs always read a
/// *different* event's cell (the unmarked subgraph is acyclic, so
/// `src ≠ ev`), which lands in the left or right remnant of the split;
/// marked in-arcs read the previous row.
fn row_portable<const L: usize>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    let lanes = if L == 0 { kernel.lanes } else { L };
    let (structure, deltas) = (kernel.structure, kernel.deltas);
    let first_row = prev.is_empty();
    for &ev in &structure.order {
        let base = ev.index() * lanes;
        let (left, rest) = row.split_at_mut(base);
        let (dst, right) = rest.split_at_mut(lanes);
        let slot0 = structure.offsets[ev.index()] as usize;
        let mut first = true;
        for (off, ia) in structure.in_arcs(ev).iter().enumerate() {
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
            if deltas.is_empty() {
                accumulate(dst, src, ia.delay, first);
            } else {
                let dbase = (slot0 + off) * lanes;
                accumulate_v(dst, src, &deltas[dbase..dbase + lanes], first);
            }
            first = false;
        }
        if first {
            dst.fill(f64::NEG_INFINITY); // no usable in-arc
        }
        if first_row {
            kernel.pin_origins(ev, dst);
        }
    }
}

/// The widened recurrence step: `dst[k] = max(dst[k], src[k] + δ)` for
/// every lane, branchless — the portable loop the autovectorizer turns
/// into SIMD `add`/`max` over contiguous lanes.
///
/// The event's `first` in-arc stores its candidates directly instead of
/// comparing against a freshly filled `NEG_INFINITY` accumulator — bit-
/// identical, because `max(NEG_INFINITY, cand)` is `cand` whether `cand`
/// is finite or `NEG_INFINITY` itself — which saves one full pass over
/// the lanes per event.
#[inline(always)]
fn accumulate(dst: &mut [f64], src: &[f64], delay: f64, first: bool) {
    if first {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s + delay;
        }
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        let cand = s + delay;
        if cand > *d {
            *d = cand;
        }
    }
}

/// The scenario-lane form of [`accumulate`]: the delay is a per-lane δ
/// vector instead of a broadcast scalar — same branchless shape, so the
/// autovectorizer emits the same `add`/`max` with a vector load of the
/// δs in place of the splat.
#[inline(always)]
fn accumulate_v(dst: &mut [f64], src: &[f64], deltas: &[f64], first: bool) {
    if first {
        for ((d, &s), &dl) in dst.iter_mut().zip(src).zip(deltas) {
            *d = s + dl;
        }
        return;
    }
    for ((d, &s), &dl) in dst.iter_mut().zip(src).zip(deltas) {
        let cand = s + dl;
        if cand > *d {
            *d = cand;
        }
    }
}

/// The per-backend lane arithmetic of the explicit-SIMD row loop: the
/// two operations [`row_body`] needs per in-arc.
///
/// Implementations must keep `dst` on ties in `fold` (the portable
/// loop's strict `>`), which `max_pd(cand, best)` does for free: x86
/// `MAXPD` returns its second operand on ties.
#[cfg(target_arch = "x86_64")]
trait LaneOps {
    /// `dst[k] = src[k] + delay` — the event's first usable in-arc.
    ///
    /// # Safety
    ///
    /// The CPU must support the implementing backend's feature (the
    /// dispatch arm's `is_x86_feature_detected!` guard).
    unsafe fn first(dst: &mut [f64], src: &[f64], delay: f64);

    /// `dst[k] = max(dst[k], src[k] + delay)`, keeping `dst` on ties.
    ///
    /// # Safety
    ///
    /// As [`LaneOps::first`].
    unsafe fn fold(dst: &mut [f64], src: &[f64], delay: f64);

    /// `dst[k] = src[k] + deltas[k]` — [`LaneOps::first`] with a
    /// per-lane δ vector (the scenario-lane delay table) in place of
    /// the broadcast scalar.
    ///
    /// # Safety
    ///
    /// As [`LaneOps::first`].
    unsafe fn first_v(dst: &mut [f64], src: &[f64], deltas: &[f64]);

    /// `dst[k] = max(dst[k], src[k] + deltas[k])`, keeping `dst` on
    /// ties — [`LaneOps::fold`] with a per-lane δ vector.
    ///
    /// # Safety
    ///
    /// As [`LaneOps::first`].
    unsafe fn fold_v(dst: &mut [f64], src: &[f64], deltas: &[f64]);
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
/// because it measured about 1.2–2x the portable loop at b=32.
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

    #[inline(always)]
    unsafe fn first_v(dst: &mut [f64], src: &[f64], deltas: &[f64]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len(), deltas.len());
        let n = dst.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            let d = _mm256_loadu_pd(deltas.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_add_pd(s, d));
            i += 4;
        }
        if i < n {
            let mask = tail_mask(n - i);
            let s = _mm256_maskload_pd(src.as_ptr().add(i), mask);
            let d = _mm256_maskload_pd(deltas.as_ptr().add(i), mask);
            _mm256_maskstore_pd(dst.as_mut_ptr().add(i), mask, _mm256_add_pd(s, d));
        }
    }

    #[inline(always)]
    unsafe fn fold_v(dst: &mut [f64], src: &[f64], deltas: &[f64]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len(), deltas.len());
        let n = dst.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(deltas.as_ptr().add(i));
            let cand = _mm256_add_pd(_mm256_loadu_pd(src.as_ptr().add(i)), d);
            let best = _mm256_loadu_pd(dst.as_ptr().add(i));
            // Same tie/NaN argument as `fold`: MAXPD keeps its second
            // operand on ties.
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_max_pd(cand, best));
            i += 4;
        }
        if i < n {
            let mask = tail_mask(n - i);
            let d = _mm256_maskload_pd(deltas.as_ptr().add(i), mask);
            let cand = _mm256_add_pd(_mm256_maskload_pd(src.as_ptr().add(i), mask), d);
            let best = _mm256_maskload_pd(dst.as_ptr().add(i), mask);
            _mm256_maskstore_pd(dst.as_mut_ptr().add(i), mask, _mm256_max_pd(cand, best));
        }
    }
}

/// One row of the recurrence for the explicit-SIMD backends: the exact
/// control flow of [`row_portable`], with the per-arc lane arithmetic
/// delegated to `K`. `#[inline(always)]` so each `#[target_feature]`
/// wrapper compiles the whole body — intrinsics included — with its
/// feature set enabled.
///
/// # Safety
///
/// The CPU must support the feature `K`'s intrinsics require.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn row_body<K: LaneOps>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    let (lanes, structure, deltas) = (kernel.lanes, kernel.structure, kernel.deltas);
    let first_row = prev.is_empty();
    for &ev in &structure.order {
        let base = ev.index() * lanes;
        let slot0 = structure.offsets[ev.index()] as usize;
        let (left, rest) = row.split_at_mut(base);
        let (dst, right) = rest.split_at_mut(lanes);
        let mut first = true;
        for (off, ia) in structure.in_arcs(ev).iter().enumerate() {
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
            if deltas.is_empty() {
                if first {
                    K::first(dst, src, ia.delay);
                } else {
                    K::fold(dst, src, ia.delay);
                }
            } else {
                let dv = &deltas[(slot0 + off) * lanes..][..lanes];
                if first {
                    K::first_v(dst, src, dv);
                } else {
                    K::fold_v(dst, src, dv);
                }
            }
            first = false;
        }
        if first {
            dst.fill(f64::NEG_INFINITY); // no usable in-arc
        }
        if first_row {
            kernel.pin_origins(ev, dst);
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

/// The reusable state of one full cycle-time analysis: one wide arena
/// per worker — each holding the two-row window and origin strip of its
/// chunk of the `b` lockstep border simulations (a one-shot analysis
/// never materialises the full lane matrix) — plus the scalar
/// [`SimArena`] the parent-tracked winner re-run uses.
///
/// [`CycleTimeAnalysis::run_in`](crate::analysis::CycleTimeAnalysis::run_in)
/// reuses one of these per worker/request the way the scalar engine
/// reuses a [`SimArena`]: after the first analysis of the largest shape,
/// repeated analyses never touch the allocator.
#[derive(Clone, Debug)]
pub struct AnalysisArena {
    /// One wide arena per worker (at least one), all on one backend;
    /// lane chunk `w` of an analysis runs on `wides[w]`.
    pub(crate) wides: Vec<WideArena>,
    pub(crate) finish: SimArena,
    /// The shared evaluation structure, rebuilt in place per analysed
    /// graph (buffer-reusing; see [`CyclicStructure::rebuild`]).
    pub(crate) structure: CyclicStructure,
}

impl Default for AnalysisArena {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisArena {
    /// An empty one-worker arena on the detected kernel backend; the
    /// first analysis sizes it.
    pub fn new() -> Self {
        Self::with_kernel(KernelBackend::detect())
    }

    /// An empty one-worker arena on `kernel`, for comparing the
    /// backends (see [`WideArena::with_kernel`]).
    pub fn with_kernel(kernel: KernelBackend) -> Self {
        AnalysisArena {
            wides: vec![WideArena::with_kernel(kernel)],
            finish: SimArena::default(),
            structure: CyclicStructure::default(),
        }
    }

    /// The arena with `workers` wide arenas on its backend (at least
    /// one): every analysis then splits its lanes into up to `workers`
    /// contiguous chunks, one lockstep pass per chunk on its own thread
    /// (the first on the caller's). One worker — the default — runs
    /// everything on the calling thread. Results are bit-identical at
    /// every worker count; the count only moves the time.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let kernel = self.kernel();
        self.wides
            .resize_with(workers.max(1), || WideArena::with_kernel(kernel));
        self
    }

    /// The number of workers an analysis splits its lanes over.
    pub fn workers(&self) -> usize {
        self.wides.len()
    }

    /// The kernel backend the wide phase runs on.
    pub fn kernel(&self) -> KernelBackend {
        self.wides[0].kernel()
    }

    /// Allocated capacities `(wide time cells, scalar time cells,
    /// scalar parent cells)` — the warm-pool zero-allocation assertions
    /// check all three stay constant across same-shape requests. The
    /// wide cells, summed over the workers, are the two-row windows: at
    /// most `2 · n · lanes`, rounded up to a cache line per worker, for
    /// the largest shape analysed.
    pub fn capacity(&self) -> (usize, usize, usize) {
        let (t, p) = self.finish.capacity();
        (self.wides.iter().map(WideArena::capacity).sum(), t, p)
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

    /// Every lane of a wide run must equal the scalar simulation of the
    /// same origin, cell for cell, bit for bit.
    fn assert_lanes_match_scalar(sg: &SignalGraph, wide: &WideArena, ctx: &str) {
        let mut scalar = SimArena::new();
        for k in 0..wide.lanes() {
            let g = wide.origin(k);
            scalar.run(sg, g, wide.periods(), false).unwrap();
            for e in sg.events() {
                for p in 0..=wide.periods() {
                    assert_eq!(
                        wide.time(k, e, p).map(f64::to_bits),
                        scalar.time(e, p).map(f64::to_bits),
                        "{ctx}: lane {k} ({}) e={} p={p}",
                        sg.label(g),
                        sg.label(e)
                    );
                }
            }
            assert_eq!(wide.distance_series(k), scalar.distance_series(), "{ctx}");
        }
    }

    /// The backends the running machine executes — always at least
    /// `Portable`, plus each SIMD path the CPU supports.
    fn available_backends() -> Vec<KernelBackend> {
        [KernelBackend::Portable, KernelBackend::Avx2]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    #[test]
    fn lockstep_lanes_equal_scalar_simulations() {
        let sg = figure2();
        let borders = sg.border_events();
        assert_eq!(borders.len(), 2);
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for periods in [1u32, 2, 3, 7] {
                wide.run(&sg, &borders, periods).unwrap();
                assert_lanes_match_scalar(&sg, &wide, &format!("{backend} periods={periods}"));
            }
        }
    }

    #[test]
    fn single_lane_is_the_scalar_kernel() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            wide.run(&sg, &[ap], 2).unwrap();
            assert_lanes_match_scalar(&sg, &wide, &format!("single lane on {backend}"));
            assert_eq!(wide.time(0, ap, 1), Some(10.0));
        }
    }

    #[test]
    fn arena_reuse_across_shapes_leaves_no_ghosts() {
        let big = {
            let mut b = SignalGraph::builder();
            let evs: Vec<_> = (0..12).map(|i| b.event(&format!("e{i}"))).collect();
            for w in evs.windows(2) {
                b.arc(w[0], w[1], 1.0);
            }
            b.marked_arc(evs[11], evs[0], 1.0);
            b.marked_arc(evs[5], evs[6], 0.5);
            b.build().unwrap()
        };
        let small = figure2();
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            wide.run(&big, &big.border_events(), 8).unwrap();
            assert_lanes_match_scalar(&big, &wide, &format!("big on {backend}"));
            wide.run(&small, &small.border_events(), 2).unwrap();
            assert_lanes_match_scalar(&small, &wide, &format!("small after big on {backend}"));
        }
    }

    /// A window run keeps two row slots, yet its records and its last
    /// two rows equal a full-matrix run's bit for bit, on every backend
    /// and at every period count (odd and even, so row `periods` lands
    /// in either slot); rows below the window read as absent. One arena
    /// reused big → small → big leaves no stale slot or strip cell —
    /// figure 2's prefix/finite columns included.
    #[test]
    fn window_run_equals_the_full_matrix() {
        let big = {
            let mut b = SignalGraph::builder();
            let evs: Vec<_> = (0..12).map(|i| b.event(&format!("e{i}"))).collect();
            for w in evs.windows(2) {
                b.arc(w[0], w[1], 1.0 + (w[0].index() % 4) as f64 * 0.25);
            }
            b.marked_arc(evs[11], evs[0], 1.0);
            b.marked_arc(evs[5], evs[6], 0.5);
            b.build().unwrap()
        };
        let small = figure2();
        for backend in available_backends() {
            let mut window = WideArena::with_kernel(backend);
            for (sg, periods) in [
                (&big, 7u32),
                (&small, 2),
                (&small, 1),
                (&big, 8),
                (&small, 5),
            ] {
                let borders = sg.border_events();
                let structure = CyclicStructure::new(sg);
                window
                    .run_with(sg, &structure, &borders, periods, Rows::Window, None)
                    .unwrap();
                let mut full = WideArena::with_kernel(backend);
                full.run(sg, &borders, periods).unwrap();
                let ctx = format!("{backend} n={} periods={periods}", sg.event_count());
                for k in 0..borders.len() {
                    assert_eq!(window.distance_series(k), full.distance_series(k), "{ctx}");
                    for e in sg.events() {
                        for p in 0..=periods {
                            let want = if p + 2 > periods {
                                full.time(k, e, p).map(f64::to_bits)
                            } else {
                                None
                            };
                            assert_eq!(
                                window.time(k, e, p).map(f64::to_bits),
                                want,
                                "{ctx}: lane {k} e={} p={p}",
                                sg.label(e)
                            );
                        }
                    }
                }
            }
        }
        // A fresh arena's window holds exactly two rows.
        let mut window = WideArena::new();
        let borders = big.border_events();
        let structure = CyclicStructure::new(&big);
        window
            .run_with(&big, &structure, &borders, 8, Rows::Window, None)
            .unwrap();
        let two_rows = 2 * big.event_count() * borders.len();
        assert!(window.capacity() <= two_rows.next_multiple_of(8));
    }

    #[test]
    fn cancelled_rerun_heals_bit_identically_on_the_next_pass() {
        // Abort a full-matrix run at every possible row, then run again
        // without a token: the half-written matrix must heal to the
        // exact bits of a fresh arena's run on every backend.
        let sg = figure2();
        let borders = sg.border_events();
        let structure = CyclicStructure::new(&sg);
        let bits = |wide: &WideArena| {
            wide.times
                .as_slice()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<_>>()
        };
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for budget in 0..6u64 {
                let token = CancelToken::cancel_after_checks(budget);
                let err = wide
                    .run_with(&sg, &structure, &borders, 5, Rows::All, Some(&token))
                    .unwrap_err();
                let Halt::Cancelled(c) = err else {
                    panic!("{backend}: expected a cancel, got {err:?}");
                };
                assert_eq!(c.kind, CancelKind::Explicit, "{backend}");
                assert_eq!(c.rows_done, budget as usize, "{backend}");
                assert_eq!(c.rows_total, 6, "{backend}");
            }
            wide.run(&sg, &borders, 5).unwrap();
            let mut fresh = WideArena::with_kernel(backend);
            fresh.run(&sg, &borders, 5).unwrap();
            assert_eq!(
                bits(&wide),
                bits(&fresh),
                "{backend}: healed matrix must equal from-scratch"
            );
        }
    }

    #[test]
    fn non_repetitive_origin_rejected() {
        let sg = figure2();
        let e = sg.event_by_label("e-").unwrap();
        let ap = sg.event_by_label("a+").unwrap();
        let mut wide = WideArena::new();
        assert_eq!(
            wide.run(&sg, &[ap, e], 2).unwrap_err(),
            WideRunError::NotRepetitive(NotRepetitive(e))
        );
    }

    #[test]
    fn degenerate_batches_are_structured_errors_not_panics() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        let mut wide = WideArena::new();
        assert_eq!(
            wide.run(&sg, &[], 2).unwrap_err(),
            WideRunError::Degenerate {
                lanes: 0,
                periods: 2
            }
        );
        assert_eq!(
            wide.run(&sg, &[ap], 0).unwrap_err(),
            WideRunError::Degenerate {
                lanes: 1,
                periods: 0
            }
        );
        let structure = CyclicStructure::new(&sg);
        assert_eq!(
            wide.run_scenarios_with(&sg, &structure, &[ap], 0, |_, _| 1.0, 2, Rows::All, None)
                .unwrap_err(),
            Halt::Degenerate {
                lanes: 0,
                periods: 2
            }
        );
    }

    /// Every scenario lane must equal, bit for bit, a nominal wide run
    /// on the correspondingly reweighted graph — the kernel-level
    /// contract everything above (`run_scenarios_in`, sessions, bench
    /// assertions) builds on.
    #[test]
    fn scenario_lanes_equal_reweighted_reruns() {
        let sg = figure2();
        let borders = sg.border_events();
        let factors = [0.85f64, 1.0, 1.15];
        let structure = CyclicStructure::new(&sg);
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            wide.run_scenarios_with(
                &sg,
                &structure,
                &borders,
                factors.len(),
                |arc, j| sg.arc(arc).delay().get() * factors[j],
                4,
                Rows::All,
                None,
            )
            .unwrap();
            assert_eq!(wide.lanes(), borders.len() * factors.len());
            for (j, &f) in factors.iter().enumerate() {
                let mut re = sg.clone();
                let arcs: Vec<_> = re.arc_ids().collect();
                for a in arcs {
                    let d = re.arc(a).delay().get() * f;
                    re.set_delay(a, d).unwrap();
                }
                let mut nominal = WideArena::with_kernel(backend);
                nominal.run(&re, &borders, 4).unwrap();
                for k in 0..borders.len() {
                    let lane = j * borders.len() + k;
                    assert_eq!(wide.origin(lane), borders[k]);
                    assert_eq!(wide.scenario_of(lane), j);
                    for e in sg.events() {
                        for p in 0..=4 {
                            assert_eq!(
                                wide.time(lane, e, p).map(f64::to_bits),
                                nominal.time(k, e, p).map(f64::to_bits),
                                "{backend} scenario {j} lane {k} e={} p={p}",
                                sg.label(e)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distance_series_into_reuses_the_buffer() {
        let sg = figure2();
        let borders = sg.border_events();
        let mut wide = WideArena::new();
        wide.run(&sg, &borders, 2).unwrap();
        let mut buf = Vec::with_capacity(8);
        let cap = buf.capacity();
        for k in 0..wide.lanes() {
            wide.distance_series_into(k, &mut buf);
            assert_eq!(buf, wide.distance_series(k));
            assert_eq!(buf.capacity(), cap, "no reallocation within capacity");
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
        assert_eq!(WideArena::new().kernel(), KernelBackend::detect());
        assert_eq!(AnalysisArena::new().kernel(), KernelBackend::detect());
        // An explicit backend is kept wherever the CPU runs it.
        for b in available_backends() {
            assert_eq!(WideArena::with_kernel(b).kernel(), b);
        }
    }

    #[test]
    fn lane_storage_is_cache_line_aligned() {
        let sg = figure2();
        let mut wide = WideArena::new();
        wide.run(&sg, &sg.border_events(), 3).unwrap();
        assert_eq!(
            wide.times.as_slice().as_ptr() as usize % 64,
            0,
            "lane matrix must start on a cache-line boundary"
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
    /// tails (1..=3 remainder lanes) and the portable fallback.
    #[test]
    fn simd_backends_match_portable_at_every_remainder_width() {
        let sg = {
            let mut b = SignalGraph::builder();
            let evs: Vec<_> = (0..9).map(|i| b.event(&format!("n{i}"))).collect();
            for w in evs.windows(2) {
                b.arc(w[0], w[1], 1.0 + (w[0].index() % 3) as f64 * 0.5);
            }
            b.marked_arc(evs[8], evs[0], 2.0);
            b.marked_arc(evs[3], evs[4], 0.75);
            b.build().unwrap()
        };
        let repetitive: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
        for lanes in [1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            let origins = &repetitive[..lanes.min(repetitive.len())];
            let mut portable = WideArena::with_kernel(KernelBackend::Portable);
            portable.run(&sg, origins, 4).unwrap();
            for backend in available_backends() {
                let mut simd = WideArena::with_kernel(backend);
                simd.run(&sg, origins, 4).unwrap();
                assert_eq!(
                    simd.times
                        .as_slice()
                        .iter()
                        .map(|t| t.to_bits())
                        .collect::<Vec<_>>(),
                    portable
                        .times
                        .as_slice()
                        .iter()
                        .map(|t| t.to_bits())
                        .collect::<Vec<_>>(),
                    "{backend} with {lanes} lanes"
                );
            }
        }
    }
}

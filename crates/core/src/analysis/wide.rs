//! Lane-batched event-initiated simulations: all `b` border simulations
//! of one analysis in lockstep over a single structure pass.
//!
//! # Why lanes
//!
//! The cycle-time algorithm runs `b` event-initiated simulations that
//! each replay the *same* longest-path recurrence over the *same*
//! flattened in-arc table — only the initiating event differs. Run one
//! after another, every simulation re-streams the whole in-arc table to
//! feed a single scalar `max(best, src + δ)`. The wide kernel instead
//! stores its cells **lane-major**:
//!
//! ```text
//! times[(h · S + s) · w + k]  =  t_{gk,0}(e_p)   (lane k = border event g_k, half h = p % 2, e's slot s)
//!
//!           ┌ lane 0 ┬ lane 1 ┬ … ┬ lane b-1 ┬ padding ┐   ← w contiguous f64s per (p, slot)
//! row p:    │  slot 0 cell                             │  slot 1 cell │ …
//! ```
//!
//! so per in-arc the kernel loads `(src, δ, marked)` once and performs
//! `b` branchless `max(best, src + δ)` updates on adjacent memory, at
//! the machine's vector width. A cell is `w = b.next_multiple_of(4)`
//! lanes wide, so every lane operation works on whole 4-lane blocks and
//! no backend has a remainder to mask. The `w − b` padding lanes start
//! `NEG_INFINITY`, are never pinned, and stay so; nothing reads them.
//!
//! # Fused runs and slots
//!
//! Most events have one unmarked in-arc, from the event just before them
//! in the structure's topological order (a ring segment, a pipeline
//! stage). The row program cuts that order into **runs**: a *head* — an
//! event with any other in-arc shape, or an origin — folds its in-arcs
//! from the window, and each *chain* event after it adds its one delay
//! to the same accumulators, held in registers. The lanes go through the
//! row in groups of at most `GROUP_BLOCKS` 4-lane blocks (what the
//! backend keeps in registers), each at a const width.
//!
//! Row `p` reads only row `p − 1` (marked arcs) and itself (unmarked
//! arcs), and the records read only each lane's origin cell. So a cell
//! is stored only for the source of a marked arc, the source of an arc
//! into a head, or an origin: those events get the row's **slots**, in
//! topological order, and every slot is written in every row. The kernel
//! keeps two rows of slots — row `p` in half `p % 2` — plus a
//! `b × (periods + 1)` strip of origin cells, filled after every row. On
//! the served benchmark's 1024-event skeleton with `b = 37` (`w = 40`),
//! 160 events have a slot: 0.10 MB of rows, where two rows of every event
//! took 0.66 MB and the full `(b + 1)`-row matrix 11.5 MB. Every analysis
//! runs in this window, which lives in an [`AnalysisArena`]. The program
//! (slots, head in-arcs' source slots, chain events' `structure.entries`
//! indices, row-0 pins) is resolved per run in `O(n + m)` into reused
//! buffers; delays are read from `structure.entries`, so a scenario
//! sweep's in-place rewrite of them is all a new scenario needs.
//!
//! # Explicit SIMD and runtime dispatch
//!
//! The x86-64 baseline only guarantees 128-bit SSE2, so
//! [`KernelBackend`] adds explicit `core::arch::x86_64` paths:
//!
//! | backend    | a group's registers                                  | CPU check |
//! |------------|------------------------------------------------------|-----------|
//! | `Avx512`   | one `zmm` per pair of blocks, one `ymm` for an odd last block | `avx512f` |
//! | `Avx2`     | one `ymm` per block                                  | `avx2`    |
//! | `Portable` | one `[f64; 4]` per block, autovectorized             | none      |
//!
//! Every backend runs one row function; they differ only in the group
//! operations of `LaneOps` (load, store, add a delay, max).
//! [`KernelBackend::detect`] picks the widest feature
//! `is_x86_feature_detected!` reports (overridable through the
//! `TSG_KERNEL` environment variable), and each `unsafe` dispatch branch
//! carries its *own* `is_x86_feature_detected!` guard, so no intrinsic
//! block can execute without the CPU check that makes it sound. Lane
//! storage lives on a 64-byte-aligned allocation.
//!
//! # Why the results are bit-identical to the scalar kernel
//!
//! Per lane, the wide kernel performs *the exact comparison sequence* of
//! the scalar kernel ([`SimArena`]):
//!
//! * in-arcs are visited in the same order, so the arg-max tie-breaking
//!   (first strict improvement wins) is unchanged. `src + δ` is a vector
//!   `add`, and `if cand > best { best = cand }` is `max_pd(cand, best)`:
//!   x86 `MAXPD` returns its *second* operand on ties at every width;
//! * `NEG_INFINITY` ("not reached") loses every strict `>`, and delays
//!   are finite, so `NEG_INFINITY + δ` stays `NEG_INFINITY` and no lane
//!   is ever NaN. Folding the first in-arc into a `NEG_INFINITY`
//!   accumulator is the scalar kernel's first candidate, and a chain
//!   event's `acc + δ` is its one candidate;
//! * in row 0 marked arcs have no previous row (the scalar kernel skips
//!   them), and lane `k`'s origin cell is pinned to `t_{gk}(g_k) = 0`
//!   after its head's fold, in topological order, so later same-row
//!   reads see the pinned value just as the scalar kernel's seeded cell.
//!
//! This is asserted cell by cell on every backend in this module's
//! tests, record by record across generator families in
//! `tests/wide.rs`, and by the `bench` binary before any speedup is
//! reported. The wide kernel tracks no parents: only the winning border
//! needs backtracking, which [`CycleTimeAnalysis::finish`] re-runs scalar
//! with `track_parents` — `O(b·m)` against the `O(b²·m)` main phase.
//!
//! [`CycleTimeAnalysis::finish`]: crate::analysis::CycleTimeAnalysis

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::fmt;
use std::sync::OnceLock;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::initiated::SimArena;
use crate::analysis::structure::{EvalStructure, InArc};
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
/// simulations, one lane per initiating event: the row program, the
/// two-row window of slots and the origin strip.
#[derive(Clone, Debug)]
pub(crate) struct WideArena {
    /// Two lane-major rows of slots on a 64-byte-aligned allocation:
    /// `times[(h * slots + s) * w + k]` holds slot `s` of row `p` in
    /// half `h = p % 2`, with the lane stride `w` of [`lane_stride`].
    times: AlignedF64Vec,
    /// Each lane's origin cell per row, lane-major:
    /// `strip[k * p_total + p] = t_{gk,0}(g_{k,p})` — everything the
    /// distance records read.
    strip: Vec<f64>,
    /// Rows of the last run (`periods + 1`).
    p_total: usize,
    /// The runs and slots of the last run.
    program: Program,
    /// The execution backend.
    backend: KernelBackend,
}

/// The slot of an event no later read needs: its cell is never stored.
const NO_SLOT: u32 = u32::MAX;

/// A head event, with in-arcs `structure.entries[first..end]` and a
/// slot (or [`NO_SLOT`]), and the chain events after it: the links of
/// `Program::chain` from where the run before ends up to `chain_end`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: u32,
    end: u32,
    slot: u32,
    chain_end: u32,
}

/// A chain event: its one in-arc's `structure.entries` index, and its slot.
#[derive(Clone, Copy, Debug)]
struct Link {
    entry: u32,
    slot: u32,
}

/// The row program of one run, resolved from the structure and the
/// origins: the runs in topological order and where each cell lives.
#[derive(Clone, Debug, Default)]
struct Program {
    /// Each event's slot, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// The source slot of each head in-arc, by `structure.entries` index.
    src_slot: Vec<u32>,
    runs: Vec<Run>,
    chain: Vec<Link>,
    /// `(slot, lane)` of each origin, sorted: the row-0 pins, in the
    /// order their heads come, and the strip's reads.
    pins: Vec<(u32, u32)>,
    slots: usize,
}

impl Program {
    /// Resolves the program of `structure` over `origins` in place:
    /// `O(n + m)`, plus sorting the `b` pins.
    fn resolve(&mut self, structure: &EvalStructure, origins: &[EventId], events: usize) {
        // Marks of the first pass, before the slots are numbered.
        const ORIGIN: u32 = NO_SLOT - 1;
        const READ: u32 = NO_SLOT - 2;
        let (entries, slot_of) = (&structure.entries, &mut self.slot_of);
        slot_of.clear();
        slot_of.resize(events, NO_SLOT);
        origins.iter().for_each(|g| slot_of[g.index()] = ORIGIN);
        self.runs.clear();
        self.chain.clear();
        let mut before = None;
        for &e in &structure.order {
            let [first, end] = [e.index(), e.index() + 1].map(|i| structure.offsets[i]);
            match &entries[first as usize..end as usize] {
                [ia] if !ia.marked && before == Some(ia.src) && slot_of[e.index()] != ORIGIN => {
                    let (entry, slot) = (first, e.0);
                    self.chain.push(Link { entry, slot });
                }
                ins => {
                    for ia in ins {
                        if slot_of[ia.src as usize] == NO_SLOT {
                            slot_of[ia.src as usize] = READ;
                        }
                    }
                    let (slot, chain_end) = (e.0, 0);
                    self.runs.push(Run {
                        first,
                        end,
                        slot,
                        chain_end,
                    });
                }
            }
            if let Some(run) = self.runs.last_mut() {
                run.chain_end = self.chain.len() as u32;
            }
            before = Some(e.0);
        }
        let mut next = 0;
        for &e in &structure.order {
            if slot_of[e.index()] != NO_SLOT {
                slot_of[e.index()] = next;
                next += 1;
            }
        }
        self.slots = next as usize;
        self.src_slot.resize(entries.len(), NO_SLOT); // chain entries unread
        for run in &mut self.runs {
            for j in run.first as usize..run.end as usize {
                self.src_slot[j] = slot_of[entries[j].src as usize];
            }
            run.slot = slot_of[run.slot as usize];
        }
        self.chain
            .iter_mut()
            .for_each(|l| l.slot = slot_of[l.slot as usize]);
        self.pins.clear();
        for (k, g) in origins.iter().enumerate() {
            self.pins.push((slot_of[g.index()], k as u32));
        }
        self.pins.sort_unstable();
    }
}

impl WideArena {
    /// An empty arena on `kernel`; a backend the CPU lacks runs the
    /// portable loop instead. The first run sizes it.
    pub(crate) fn with_kernel(kernel: KernelBackend) -> Self {
        WideArena {
            times: AlignedF64Vec::new(),
            strip: Vec::new(),
            p_total: 0,
            program: Program::default(),
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
        structure: &EvalStructure,
        origins: &[EventId],
        periods: u32,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        debug_assert!(periods >= 1 && !origins.is_empty());
        debug_assert!(origins.iter().all(|&g| sg.is_repetitive(g)));
        let lanes = origins.len();
        let w = lane_stride(lanes);
        let p_total = periods as usize + 1;
        self.p_total = p_total;
        self.program.resolve(structure, origins, sg.event_count());
        let row_cells = self.program.slots * w;

        // `resize` touches existing capacity only: after the first run of
        // this shape, no allocator traffic. No fill: every row writes every
        // slot, padding lanes included, and its strip cells.
        self.times.resize(2 * row_cells, f64::NEG_INFINITY);
        self.strip.resize(lanes * p_total, f64::NEG_INFINITY);
        let times = self.times.as_mut_slice();

        #[cfg(target_arch = "x86_64")]
        let (avx512, avx2) = (
            self.backend == KernelBackend::Avx512 && std::arch::is_x86_feature_detected!("avx512f"),
            self.backend == KernelBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2"),
        );
        let kernel = RowKernel {
            program: &self.program,
            entries: &structure.entries,
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
            let (prev, row) = row_pair(times, p, row_cells);
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
            for &(slot, lane) in &self.program.pins {
                self.strip[lane as usize * p_total + p] = row[slot as usize * w + lane as usize];
            }
        }
        Ok(())
    }

    /// Allocated capacity of the window, in cells: `2 · slots · w`,
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

/// The lane stride of a cell over `lanes` lanes: whole 4-lane blocks.
/// The `w - lanes` padding lanes run the recurrence like any unpinned
/// lane, so they stay `NEG_INFINITY`, and nothing reads them.
pub(crate) fn lane_stride(lanes: usize) -> usize {
    lanes.next_multiple_of(4)
}

/// Splits row `p`'s cells (mutable) and row `p - 1`'s (shared; empty
/// for row 0) out of the two-half window, where row `p` lives in half
/// `p % 2`.
fn row_pair(times: &mut [f64], p: usize, row_cells: usize) -> (&[f64], &mut [f64]) {
    let (half0, half1) = times.split_at_mut(row_cells);
    match p {
        0 => (&[], half0),
        _ if p.is_multiple_of(2) => (half1, half0),
        _ => (half0, half1),
    }
}

/// What the row function reads besides the row pair: the program, the
/// structure's in-arcs (for their delays) and the lane stride of a cell.
struct RowKernel<'a> {
    program: &'a Program,
    entries: &'a [InArc],
    stride: usize,
}

/// The widest group any backend keeps in registers, in 4-lane blocks.
const MAX_GROUP_BLOCKS: usize = 12;

/// The per-backend lane arithmetic of the row function, on the first `B`
/// (at most `GROUP_BLOCKS`) 4-lane blocks of a group held in registers.
/// Each operation needs the CPU to have the backend's feature (the
/// dispatch's guard), and a pointer to address `4 · B` valid lanes.
trait LaneOps {
    /// The registers of a group of up to [`MAX_GROUP_BLOCKS`] blocks.
    type Group: Copy;
    const GROUP_BLOCKS: usize;
    unsafe fn splat<const B: usize>(x: f64) -> Self::Group;
    unsafe fn load<const B: usize>(src: *const f64) -> Self::Group;
    unsafe fn store<const B: usize>(group: Self::Group, dst: *mut f64);
    unsafe fn add<const B: usize>(group: Self::Group, delay: f64) -> Self::Group;
    /// `if cand > best { cand } else { best }` per lane: `best` on ties.
    unsafe fn max<const B: usize>(cand: Self::Group, best: Self::Group) -> Self::Group;
}

/// The portable lane loop over whole `[f64; 4]` blocks, which the
/// autovectorizer turns into vector `add` and (from the select form)
/// `max`. Eight blocks fill SSE2's sixteen registers; twelve read slower.
struct Portable;

impl LaneOps for Portable {
    type Group = [[f64; 4]; MAX_GROUP_BLOCKS];
    const GROUP_BLOCKS: usize = 8;

    #[inline(always)]
    unsafe fn splat<const B: usize>(x: f64) -> Self::Group {
        [[x; 4]; MAX_GROUP_BLOCKS]
    }

    #[inline(always)]
    unsafe fn load<const B: usize>(src: *const f64) -> Self::Group {
        let mut group = [[0.0; 4]; MAX_GROUP_BLOCKS];
        for (i, block) in group.iter_mut().enumerate().take(B) {
            *block = src.add(4 * i).cast::<[f64; 4]>().read_unaligned();
        }
        group
    }

    #[inline(always)]
    unsafe fn store<const B: usize>(group: Self::Group, dst: *mut f64) {
        for (i, block) in group.iter().enumerate().take(B) {
            dst.add(4 * i).cast::<[f64; 4]>().write_unaligned(*block);
        }
    }

    #[inline(always)]
    unsafe fn add<const B: usize>(mut group: Self::Group, delay: f64) -> Self::Group {
        for block in group.iter_mut().take(B) {
            for lane in block {
                *lane += delay;
            }
        }
        group
    }

    #[inline(always)]
    unsafe fn max<const B: usize>(mut cand: Self::Group, best: Self::Group) -> Self::Group {
        for (c, b) in cand.iter_mut().zip(&best).take(B) {
            for (c, &b) in c.iter_mut().zip(b) {
                *c = if *c > b { *c } else { b };
            }
        }
        cand
    }
}

/// Calls `$f::<K, B>$args` at the const width `B` equal to `$b`.
macro_rules! at_width {
    ($b:expr, $f:ident::<$k:ty> $args:tt, $($w:literal)*) => {
        match $b {
            $($w => $f::<$k, $w> $args,)*
            _ => unreachable!("a group is at most MAX_GROUP_BLOCKS wide"),
        }
    };
}

/// One row of the recurrence, the one row function every backend runs,
/// `#[inline(always)]` so each backend's wrapper compiles it with its
/// feature set. `prev` is empty for row 0. The `w / 4` lane blocks are
/// cut into near-equal groups of at most `K::GROUP_BLOCKS`.
///
/// # Safety
///
/// The CPU must support the feature `K`'s operations require, and `row`
/// and a non-empty `prev` must each hold `program.slots` cells.
#[inline(always)]
unsafe fn row_body<K: LaneOps>(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    let blocks = kernel.stride / 4;
    let width = blocks.div_ceil(blocks.div_ceil(K::GROUP_BLOCKS));
    let mut block = 0;
    while block < blocks {
        let b = width.min(blocks - block);
        let lane0 = 4 * block;
        at_width!(b, group::<K> (kernel, prev, row, lane0), 1 2 3 4 5 6 7 8 9 10 11 12);
        block += b;
    }
}

/// One group's pass over the row: lanes `lane0..lane0 + 4 · B` of every
/// run in topological order. A head folds `max(acc, src + δ)` over its
/// in-arcs from `NEG_INFINITY`: marked ones read `prev` (skipped in row
/// 0), unmarked ones this row, where an earlier run stored them. In row
/// 0 each lane's origin cell is pinned to 0 in its head's slot and
/// reloaded. Each chain event adds its delay in registers, and every
/// slot is stored.
///
/// # Safety
///
/// As [`row_body`], with `lane0 + 4 · B <= stride`.
#[inline(always)]
unsafe fn group<K: LaneOps, const B: usize>(
    kernel: &RowKernel<'_>,
    prev: &[f64],
    row: &mut [f64],
    lane0: usize,
) {
    let (program, entries, w) = (kernel.program, kernel.entries, kernel.stride);
    debug_assert!(lane0 + 4 * B <= w && row.len() == program.slots * w);
    let first_row = prev.is_empty();
    // Every slot is below `program.slots` (`Program::resolve` numbers
    // every event it marks as read), so every address stays in its row.
    let prev = prev.as_ptr().wrapping_add(lane0);
    let cells = row.as_mut_ptr();
    let row = cells.add(lane0);
    let (mut link, mut pin) = (0, 0);
    for run in &program.runs {
        let mut acc = K::splat::<B>(f64::NEG_INFINITY);
        for j in run.first as usize..run.end as usize {
            let ia = entries.get_unchecked(j);
            let at = *program.src_slot.get_unchecked(j) as usize * w;
            let src = if !ia.marked {
                row.add(at).cast_const()
            } else if first_row {
                continue; // no previous row: token enables for free
            } else {
                prev.add(at)
            };
            acc = K::max::<B>(K::add::<B>(K::load::<B>(src), ia.delay), acc);
        }
        if run.slot != NO_SLOT {
            let at = run.slot as usize * w;
            K::store::<B>(acc, row.add(at));
            if first_row {
                while let Some(&(_, lane)) = program.pins.get(pin).filter(|p| p.0 == run.slot) {
                    if (lane0..lane0 + 4 * B).contains(&(lane as usize)) {
                        *cells.add(at + lane as usize) = 0.0; // t_g(g) = 0 by definition
                    }
                    pin += 1;
                }
                acc = K::load::<B>(row.add(at));
            }
        }
        for l in program.chain.get_unchecked(link..run.chain_end as usize) {
            acc = K::add::<B>(acc, entries.get_unchecked(l.entry as usize).delay);
            if l.slot != NO_SLOT {
                K::store::<B>(acc, row.add(l.slot as usize * w));
            }
        }
        link = run.chain_end as usize;
    }
}

/// The portable row.
fn row_portable(kernel: &RowKernel<'_>, prev: &[f64], row: &mut [f64]) {
    // SAFETY: the portable operations use no CPU feature.
    unsafe { row_body::<Portable>(kernel, prev, row) }
}

/// AVX2 lane arithmetic: one `ymm` per 4-lane block, up to twelve of the
/// sixteen registers per group; what an AVX2 host without AVX-512F runs.
#[cfg(target_arch = "x86_64")]
struct Avx2Ops;

#[cfg(target_arch = "x86_64")]
impl LaneOps for Avx2Ops {
    type Group = [__m256d; MAX_GROUP_BLOCKS];
    const GROUP_BLOCKS: usize = 12;

    #[inline(always)]
    unsafe fn splat<const B: usize>(x: f64) -> Self::Group {
        [_mm256_set1_pd(x); MAX_GROUP_BLOCKS]
    }

    #[inline(always)]
    unsafe fn load<const B: usize>(src: *const f64) -> Self::Group {
        let mut group = Self::splat::<B>(0.0);
        for (i, block) in group[..B].iter_mut().enumerate() {
            *block = _mm256_loadu_pd(src.add(4 * i));
        }
        group
    }

    #[inline(always)]
    unsafe fn store<const B: usize>(group: Self::Group, dst: *mut f64) {
        for (i, &block) in group[..B].iter().enumerate() {
            _mm256_storeu_pd(dst.add(4 * i), block);
        }
    }

    #[inline(always)]
    unsafe fn add<const B: usize>(mut group: Self::Group, delay: f64) -> Self::Group {
        let d = _mm256_set1_pd(delay);
        group[..B]
            .iter_mut()
            .for_each(|v| *v = _mm256_add_pd(*v, d));
        group
    }

    #[inline(always)]
    unsafe fn max<const B: usize>(mut cand: Self::Group, best: Self::Group) -> Self::Group {
        // MAXPD returns its second operand on ties: `(cand, best)` is
        // the portable select. No lane is NaN (module docs).
        let pairs = cand[..B].iter_mut().zip(best);
        pairs.for_each(|(c, b)| *c = _mm256_max_pd(*c, b));
        cand
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

/// AVX-512 lane arithmetic: one `zmm` per pair of 4-lane blocks, up to
/// six per group, and one `ymm` for an odd last block. `VMAXPD` keeps
/// its second operand on ties at every width, as in [`Avx2Ops`].
#[cfg(target_arch = "x86_64")]
struct Avx512Ops;

#[cfg(target_arch = "x86_64")]
impl LaneOps for Avx512Ops {
    type Group = ([__m512d; MAX_GROUP_BLOCKS / 2], __m256d);
    const GROUP_BLOCKS: usize = MAX_GROUP_BLOCKS;

    #[inline(always)]
    unsafe fn splat<const B: usize>(x: f64) -> Self::Group {
        ([_mm512_set1_pd(x); MAX_GROUP_BLOCKS / 2], _mm256_set1_pd(x))
    }

    #[inline(always)]
    unsafe fn load<const B: usize>(src: *const f64) -> Self::Group {
        let mut group = Self::splat::<B>(0.0);
        for (i, pair) in group.0[..B / 2].iter_mut().enumerate() {
            *pair = _mm512_loadu_pd(src.add(8 * i));
        }
        if B % 2 == 1 {
            group.1 = _mm256_loadu_pd(src.add(B / 2 * 8));
        }
        group
    }

    #[inline(always)]
    unsafe fn store<const B: usize>(group: Self::Group, dst: *mut f64) {
        for (i, &pair) in group.0[..B / 2].iter().enumerate() {
            _mm512_storeu_pd(dst.add(8 * i), pair);
        }
        if B % 2 == 1 {
            _mm256_storeu_pd(dst.add(B / 2 * 8), group.1);
        }
    }

    #[inline(always)]
    unsafe fn add<const B: usize>(mut group: Self::Group, delay: f64) -> Self::Group {
        let d = _mm512_set1_pd(delay);
        group.0[..B / 2]
            .iter_mut()
            .for_each(|v| *v = _mm512_add_pd(*v, d));
        if B % 2 == 1 {
            group.1 = _mm256_add_pd(group.1, _mm256_set1_pd(delay));
        }
        group
    }

    #[inline(always)]
    unsafe fn max<const B: usize>(mut cand: Self::Group, best: Self::Group) -> Self::Group {
        let pairs = cand.0[..B / 2].iter_mut().zip(best.0);
        pairs.for_each(|(c, b)| *c = _mm512_max_pd(*c, b));
        if B % 2 == 1 {
            cand.1 = _mm256_max_pd(cand.1, best.1);
        }
        cand
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
/// holding the row program, the two-row window of slots and the origin
/// strip of the `b` lockstep border simulations, the scalar
/// [`SimArena`] the parent-tracked winner re-run uses, and the
/// evaluation structure both read.
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
    /// (buffer-reusing; see [`EvalStructure::rebuild`]).
    pub(crate) structure: EvalStructure,
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
            structure: EvalStructure::default(),
        }
    }

    /// The kernel backend the wide phase runs on.
    pub fn kernel(&self) -> KernelBackend {
        self.wide.backend
    }

    /// Allocated capacities `(wide time cells, scalar time cells,
    /// scalar parent cells)` — the warm-pool zero-allocation assertions
    /// check all three stay constant across same-shape requests. The
    /// wide cells are the two-row window: `2 · slots · w` for the
    /// events a later read needs (at most `n`) and the lane stride
    /// `w = lanes.next_multiple_of(4)`, rounded up to a cache line, for
    /// the largest shape analysed.
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
        wide.run_with(sg, &EvalStructure::new(sg), origins, periods, None)
            .unwrap();
    }

    /// Every bit the last run left: the window, padding lanes included,
    /// and the origin strip.
    fn bits(wide: &WideArena) -> (Vec<u64>, Vec<u64>) {
        let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect();
        (bits(wide.times.as_slice()), bits(&wide.strip))
    }

    /// The event of each slot of the last run, in slot order; every
    /// slot belongs to exactly one event.
    fn slot_events(wide: &WideArena) -> Vec<EventId> {
        let program = &wide.program;
        let mut events = vec![None; program.slots];
        for (e, &slot) in program.slot_of.iter().enumerate() {
            if slot != NO_SLOT {
                assert_eq!(events[slot as usize], None, "slot {slot} is taken twice");
                events[slot as usize] = Some(EventId(e as u32));
            }
        }
        events
            .into_iter()
            .map(|e| e.expect("every slot has an event"))
            .collect()
    }

    /// Both resident rows of a `periods`-period run over `origins` —
    /// rows `periods - 1` and `periods` — must equal the scalar
    /// simulation of each lane's origin in every slot's cell, bit for
    /// bit, and so must each lane's record. Every padding lane of both
    /// rows must be `NEG_INFINITY`, and every read of the program must
    /// have a slot.
    fn assert_window_matches_scalar(
        wide: &WideArena,
        sg: &SignalGraph,
        origins: &[EventId],
        periods: u32,
        ctx: &str,
    ) {
        assert_reads_have_slots(wide, &EvalStructure::new(sg), origins, ctx);
        let (slots, lanes) = (wide.program.slots, origins.len());
        let w = lane_stride(lanes);
        let window = wide.times.as_slice();
        assert_eq!(window.len(), 2 * slots * w, "{ctx}: window length");
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
        let events = slot_events(wide);
        let mut scalar = SimArena::new();
        for (k, &g) in origins.iter().enumerate() {
            scalar.run(sg, g, periods, false).unwrap();
            for p in periods - 1..=periods {
                let half = p as usize % 2;
                for (slot, &e) in events.iter().enumerate() {
                    let t = window[(half * slots + slot) * w + k];
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

    /// The program of the last run is the structure's order cut into
    /// runs, and it reads only cells that have a slot: a chain event is
    /// a non-origin whose one in-arc is unmarked and comes from the event
    /// before it (and every such event chains); every source a head's
    /// in-arc reads — marked arcs included, since only heads have them —
    /// and every origin the strip reads has a slot; and the slots are
    /// numbered in topological order.
    fn assert_reads_have_slots(
        wide: &WideArena,
        structure: &EvalStructure,
        origins: &[EventId],
        ctx: &str,
    ) {
        let program = &wide.program;
        let slot = |e: EventId| program.slot_of[e.index()];
        let chains = |i: usize, e: EventId| {
            matches!(structure.in_arcs(e), [ia] if !ia.marked
                && i > 0 && ia.src == structure.order[i - 1].0 && !origins.contains(&e))
        };
        let (mut at, mut link) = (0, 0);
        for run in &program.runs {
            let head = structure.order[at];
            assert!(!chains(at, head), "{ctx}: {head:?} heads a run but chains");
            assert_eq!(run.first, structure.offsets[head.index()], "{ctx}");
            assert_eq!(run.end, structure.offsets[head.index() + 1], "{ctx}");
            assert_eq!(run.slot, slot(head), "{ctx}");
            for j in run.first as usize..run.end as usize {
                let src = EventId(structure.entries[j].src);
                assert!(
                    slot(src) != NO_SLOT,
                    "{ctx}: {head:?} reads unslotted {src:?}"
                );
                assert_eq!(program.src_slot[j], slot(src), "{ctx}");
            }
            at += 1;
            for l in &program.chain[link..run.chain_end as usize] {
                let e = structure.order[at];
                assert!(chains(at, e), "{ctx}: {e:?} chains but should head a run");
                assert_eq!(l.entry, structure.offsets[e.index()], "{ctx}");
                assert_eq!(l.slot, slot(e), "{ctx}");
                at += 1;
            }
            link = run.chain_end as usize;
        }
        assert_eq!(
            (at, link),
            (structure.order.len(), program.chain.len()),
            "{ctx}"
        );
        let numbered: Vec<u32> = structure
            .order
            .iter()
            .map(|&e| slot(e))
            .filter(|&s| s != NO_SLOT)
            .collect();
        assert_eq!(
            numbered,
            (0..program.slots as u32).collect::<Vec<_>>(),
            "{ctx}: slot order"
        );
        for &g in origins {
            assert!(slot(g) != NO_SLOT, "{ctx}: origin {g:?} has no slot");
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
        // A fresh arena's window holds exactly two rows of slots of
        // whole 4-lane blocks, and a chain graph keeps fewer slots than
        // events.
        let sg = ring(48, 8);
        let borders = sg.border_events();
        let mut wide = WideArena::with_kernel(KernelBackend::detect());
        run(&mut wide, &sg, &borders, 8);
        let slots = wide.program.slots;
        assert!(slots < sg.event_count(), "{slots} slots");
        let two_rows = 2 * slots * lane_stride(borders.len());
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
        let structure = EvalStructure::new(&sg);
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
    /// cell for cell, at every lane count from 1 to 48: every padding
    /// width (0..=3 lanes) of one to twelve 4-lane blocks, so every
    /// group width of every backend runs, and AVX-512 runs both with
    /// and without an odd trailing block.
    #[test]
    fn simd_backends_match_portable_at_every_remainder_width() {
        let sg = ring(48, 8);
        let repetitive: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
        for lanes in 1..=48 {
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

    /// A twelve-event chain `c0 → … → c11 →• c0` read in its middle: a
    /// marked arc from `c4` into `c7`, a chord from `c5` into `c9`, and
    /// `c6 →• h → c9`, where `h` is a head whose only in-arc is marked.
    /// Its border events are `c0`, `c7` and `h`.
    fn chain_graph() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let c: Vec<_> = (0..12).map(|i| b.event(&format!("c{i}"))).collect();
        let h = b.event("h");
        for i in 0..11 {
            b.arc(c[i], c[i + 1], 1.0 + (i % 3) as f64 * 0.5);
        }
        b.marked_arc(c[11], c[0], 2.0);
        b.marked_arc(c[4], c[7], 0.25);
        b.arc(c[5], c[9], 4.5);
        b.marked_arc(c[6], h, 1.5);
        b.arc(h, c[9], 0.75);
        b.build().unwrap()
    }

    /// Whether `e` is a chain event of the last run's program.
    fn chained(wide: &WideArena, structure: &EvalStructure, e: EventId) -> bool {
        let entry = structure.offsets[e.index()];
        structure.in_arcs(e).len() == 1 && wide.program.chain.iter().any(|l| l.entry == entry)
    }

    /// Runs and slots against the scalar kernel on every backend: chain
    /// events read in mid-chain by a marked arc (`c4`) and by a chord
    /// (`c5`), a head with only a marked in-arc (`h`, `NEG_INFINITY` in
    /// row 0 unless it is an origin) and a non-border origin inside the
    /// chain (`c2`, which then heads a run and is pinned in row 0).
    #[test]
    fn runs_and_slots_match_the_scalar_kernel() {
        let sg = chain_graph();
        let id = |label: &str| sg.event_by_label(label).unwrap();
        let structure = EvalStructure::new(&sg);
        let origin_sets = [
            sg.border_events(),
            vec![id("c2"), id("c7")],
            vec![id("c9"), id("c2"), id("h"), id("c5"), id("c11")],
        ];
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for origins in &origin_sets {
                for periods in 1..=4 {
                    run(&mut wide, &sg, origins, periods);
                    let ctx = format!("{origins:?} on {backend}, periods={periods}");
                    assert_window_matches_scalar(&wide, &sg, origins, periods, &ctx);
                }
            }
            run(&mut wide, &sg, &origin_sets[1], 1);
            for mid in ["c4", "c5"] {
                let e = id(mid);
                assert!(chained(&wide, &structure, e), "{mid} on {backend}");
                assert_ne!(
                    wide.program.slot_of[e.index()],
                    NO_SLOT,
                    "{mid} on {backend}"
                );
            }
            assert!(chained(&wide, &structure, id("c3")), "{backend}");
            assert!(
                !chained(&wide, &structure, id("c2")),
                "origin c2 on {backend}"
            );
            // Row 0 (half 0 of a one-period run) has `h` unreached in
            // every lane.
            let (slots, h) = (wide.program.slots, wide.program.slot_of[id("h").index()]);
            let w = lane_stride(2);
            let row0 = &wide.times.as_slice()[..slots * w];
            assert!(row0[h as usize * w..][..w]
                .iter()
                .all(|&t| t == f64::NEG_INFINITY));
        }
    }

    /// The chain graph after structural edits: `c2 → c3` split through a
    /// fresh event, the chord removed, and `h` removed with its arcs.
    #[test]
    fn runs_after_structural_edits_match_the_scalar_kernel() {
        let mut sg = chain_graph();
        let id = |sg: &SignalGraph, label: &str| sg.event_by_label(label).unwrap();
        let arc = |sg: &SignalGraph, src: &str, dst: &str| {
            let (src, dst) = (id(sg, src), id(sg, dst));
            sg.in_arcs(dst).find(|&a| sg.arc(a).src() == src).unwrap()
        };
        let (c2, c3) = (id(&sg, "c2"), id(&sg, "c3"));
        sg.remove_arc(arc(&sg, "c2", "c3")).unwrap();
        let s = sg.add_event("s").unwrap();
        sg.add_arc(c2, s, 0.5, false).unwrap();
        sg.add_arc(s, c3, 0.75, false).unwrap();
        for (src, dst) in [("c5", "c9"), ("c6", "h"), ("h", "c9")] {
            sg.remove_arc(arc(&sg, src, dst)).unwrap();
        }
        sg.remove_event(id(&sg, "h")).unwrap();
        sg.validate().unwrap();
        let origin_sets = [sg.border_events(), vec![s, id(&sg, "c9"), id(&sg, "c0")]];
        for backend in available_backends() {
            let mut wide = WideArena::with_kernel(backend);
            for origins in &origin_sets {
                for periods in 1..=3 {
                    run(&mut wide, &sg, origins, periods);
                    let ctx = format!("edited, {origins:?} on {backend}, periods={periods}");
                    assert_window_matches_scalar(&wide, &sg, origins, periods, &ctx);
                }
            }
        }
    }

    /// A sweep rewrites `structure.entries`' delays in place per
    /// scenario, and chain events add those delays: every corner and
    /// sample of the chain graph equals the scalar analysis of the
    /// reweighted graph on every backend.
    #[test]
    fn corner_sweep_links_read_the_rewritten_delays() {
        use crate::analysis::scenario::{Corner, ScenarioSet};
        use crate::analysis::CycleTimeAnalysis;
        let sg = chain_graph();
        let sets = [
            ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap(),
            ScenarioSet::samples(4, 7, 10.0).unwrap(),
        ];
        let bits = |a: &CycleTimeAnalysis| {
            let records: Vec<Vec<(u32, u64, u64)>> = a
                .records()
                .iter()
                .map(|r| {
                    let d = r.distances.iter();
                    d.map(|&(i, t, d)| (i, t.to_bits(), d.to_bits())).collect()
                })
                .collect();
            (
                format!("{:?}", a.cycle_time()),
                a.critical_cycle().to_vec(),
                records,
            )
        };
        for set in &sets {
            for backend in available_backends() {
                let mut arena = AnalysisArena::with_kernel(backend);
                let swept =
                    CycleTimeAnalysis::run_scenarios_in(&sg, set, &mut arena, None).unwrap();
                for j in 0..set.len() {
                    let scalar =
                        CycleTimeAnalysis::run_scalar(&set.reweighted(&sg, j).unwrap()).unwrap();
                    assert_eq!(
                        bits(swept.analysis(j)),
                        bits(&scalar),
                        "{} on {backend}",
                        set.label(j)
                    );
                }
            }
        }
    }

    /// Every read of the program has a slot, on the corpus, the chain
    /// graph and the lane sweep's ring, with borders and with every
    /// repetitive event as an origin.
    #[test]
    fn every_read_has_a_slot() {
        let mut graphs = corpus();
        graphs.push(("chain".into(), chain_graph()));
        graphs.push(("ring 48/8".into(), ring(48, 8)));
        let mut wide = WideArena::with_kernel(KernelBackend::Portable);
        for (name, sg) in &graphs {
            let structure = EvalStructure::new(sg);
            let every: Vec<EventId> = sg.events().filter(|&e| sg.is_repetitive(e)).collect();
            for origins in [sg.border_events(), every] {
                wide.run_with(sg, &structure, &origins, 1, None).unwrap();
                assert_reads_have_slots(&wide, &structure, &origins, name);
            }
        }
    }
}

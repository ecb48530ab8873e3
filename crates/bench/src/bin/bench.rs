//! `bench` — the kernel performance tracker.
//!
//! ```text
//! bench [--quick] [--out PATH]
//! ```
//!
//! Times the kernel's hot paths — event-queue throughput (bulk
//! push/pop and the steady-state hold model), the lane-batched wide
//! kernel against the scalar reference engine on the tracked
//! ring/torus/random sweeps (`wide_vs_scalar`), the explicit SIMD
//! backends against the portable loop on the same sweeps
//! (`simd_vs_portable`, with the detected CPU feature level recorded),
//! delay-scenario sweeps — min/typ/max corners and seeded sample sets —
//! against as many nominal analyses (`corner_sweep`), `.g` loading
//! (`load`: `parse_stg` at 1024 and 4096 events), the one-shot two-row
//! window at the 1024-event, b = 37 shape (`oneshot_window`: `run_in`
//! time and wide bytes beside `AnalysisSession::open`, which runs in
//! the same window), and the `analyze` response's non-kernel bytes at
//! that shape (`render`: `ops::report_in` minus `run_in`, and
//! `protocol::ok_response` on the report, with both byte counts) — and
//! writes the numbers to `BENCH_kernel.json` (see the README's
//! "Performance" section for how to read it). CI runs `bench --quick`
//! on every change. Any other argument is a usage error, reported
//! before anything is measured or written.
//!
//! Every backend's analysis is asserted bit-identical to the scalar
//! engine record by record, and every scenario's to a scalar analysis
//! of its reweighted graph, before any number is reported: a speedup
//! of a wrong answer is not a speedup. (The kernel's individual cells
//! are checked against the scalar engine in `tsg-core`'s unit tests.)

use std::fmt::Write as _;
use std::time::Instant;

use tsg_bench::{
    assert_analyses_identical, assert_backends_match, assert_scenarios_match_scalar,
    assert_wide_matches_scalar, available_backends, hold, push_pop, ring_with_chords_text,
    wide_scenarios,
};
use tsg_core::analysis::initiated::SimArena;
use tsg_core::analysis::session::AnalysisSession;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::{Corner, CycleTimeAnalysis, KernelBackend, ScenarioSet};
use tsg_core::SignalGraph;
use tsg_serve::{ops, protocol};
use tsg_sim::EventQueue;
use tsg_stg::{parse_stg, StgOptions};

/// Best-of-`reps` wall time for `f`, which reports how many queue
/// operations it performed.
fn best_of(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut ops = 0;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        ops = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, ops)
}

/// Per-call seconds of `f`, timed over a calibrated batch: `f` loops
/// until a sample spans ~2 ms of wall time, best of `reps` samples —
/// single-call `Instant` stamps are too coarse for the µs-scale
/// analyses of the wide-vs-scalar sweep.
fn time_per_call(reps: usize, f: impl FnMut() -> usize) -> f64 {
    samples_per_call(reps, f)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// The `reps` calibrated per-call samples behind [`time_per_call`],
/// sorted ascending.
fn samples_per_call(reps: usize, mut f: impl FnMut() -> usize) -> Vec<f64> {
    let t = Instant::now();
    let mut sink = f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((2e-3 / once) as usize).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                sink = sink.wrapping_add(f());
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    samples
}

struct QueueRow {
    workload: &'static str,
    depth: usize,
    ops: usize,
    seconds: f64,
}

impl QueueRow {
    fn mops(&self) -> f64 {
        self.ops as f64 / self.seconds.max(1e-12) / 1e6
    }
}

fn measure_queues(depths: &[usize], reps: usize) -> Vec<QueueRow> {
    let mut rows = Vec::new();
    for &depth in depths {
        let (seconds, ops) = best_of(reps, || push_pop(EventQueue::with_capacity(depth), depth));
        rows.push(QueueRow {
            workload: "push_pop",
            depth,
            ops,
            seconds,
        });
        let hold_ops = 4 * depth;
        let (seconds, ops) = best_of(reps, || {
            hold(EventQueue::with_capacity(depth), depth, hold_ops)
        });
        rows.push(QueueRow {
            workload: "hold",
            depth,
            ops,
            seconds,
        });
    }
    rows
}

struct LoadRow {
    events: usize,
    arcs: usize,
    bytes: usize,
    /// Per-call seconds, sorted ascending.
    samples: Vec<f64>,
}

impl LoadRow {
    fn median(&self) -> f64 {
        self.samples[self.samples.len() / 2]
    }
}

/// `.g` loading: `parse_stg` on ring-with-chords texts of growing size,
/// `reps` repeated samples each. Linear loading keeps the per-byte cost
/// flat, so 4x the events should take ~4x the time.
fn measure_load(sizes: &[usize], reps: usize) -> Vec<LoadRow> {
    sizes
        .iter()
        .map(|&events| {
            let text = ring_with_chords_text(events);
            let sg = parse_stg(&text, StgOptions::default()).expect("written text parses");
            assert_eq!(sg.event_count(), events);
            let samples = samples_per_call(reps, || {
                parse_stg(&text, StgOptions::default())
                    .expect("written text parses")
                    .arc_count()
            });
            LoadRow {
                events,
                arcs: sg.arc_count(),
                bytes: text.len(),
                samples,
            }
        })
        .collect()
}

struct WideRow {
    scenario: String,
    b: usize,
    scalar_seconds: f64,
    wide_seconds: f64,
    speedup: f64,
}

/// The tentpole head-to-head: the `b` border simulations run one scalar
/// arena at a time vs all lanes in one lockstep wide pass, on the
/// tracked ring/torus/random sweeps. Before timing, every scenario is
/// asserted bit-identical to the scalar kernel — full analyses: times,
/// critical cycle, backtracked parents and every border's record.
fn measure_wide_vs_scalar(reps: usize) -> Vec<WideRow> {
    let mut rows = Vec::new();
    let mut scalar_arena = SimArena::new();
    let mut wide_arena = AnalysisArena::new();
    for (name, sg) in wide_scenarios() {
        let b = sg.border_events().len();

        // Correctness gate first: a speedup of a wrong answer is not a
        // speedup.
        assert_wide_matches_scalar(&sg, &name);

        // Then the head-to-head, each engine on its own warm arena.
        let scalar_seconds = time_per_call(reps, || {
            let a = CycleTimeAnalysis::run_scalar_in(&sg, None, &mut scalar_arena).expect("live");
            a.records().len()
        });
        let wide_seconds = time_per_call(reps, || {
            let a = CycleTimeAnalysis::run_in(&sg, None, &mut wide_arena).expect("live");
            a.records().len()
        });
        rows.push(WideRow {
            scenario: name,
            b,
            scalar_seconds,
            wide_seconds,
            speedup: scalar_seconds / wide_seconds.max(1e-12),
        });
    }
    rows
}

struct SimdRow {
    scenario: String,
    b: usize,
    backend: &'static str,
    seconds: f64,
    /// Portable-loop seconds over this backend's seconds; 1.0 for the
    /// portable row itself.
    speedup: f64,
}

/// The explicit-SIMD head-to-head: the same tracked sweeps as
/// `wide_vs_scalar`, but with the wide kernel pinned to each backend
/// this CPU offers. Before timing, every backend's analysis is asserted
/// bit-identical to the scalar kernel's, records included.
fn measure_simd_vs_portable(reps: usize) -> Vec<SimdRow> {
    let backends = available_backends();
    let mut arenas: Vec<AnalysisArena> = backends
        .iter()
        .map(|&b| AnalysisArena::with_kernel(b))
        .collect();
    let mut rows = Vec::new();
    for (name, sg) in wide_scenarios() {
        let b = sg.border_events().len();
        assert_backends_match(&sg, &name);

        let mut portable_seconds = f64::INFINITY;
        for (backend, arena) in backends.iter().zip(arenas.iter_mut()) {
            let seconds = time_per_call(reps, || {
                let a = CycleTimeAnalysis::run_in(&sg, None, arena).expect("live");
                a.records().len()
            });
            if *backend == KernelBackend::Portable {
                portable_seconds = seconds;
            }
            rows.push(SimdRow {
                scenario: name.clone(),
                b,
                backend: backend.name(),
                seconds,
                speedup: portable_seconds / seconds.max(1e-12),
            });
        }
    }
    rows
}

struct CornerRow {
    workload: String,
    kind: &'static str,
    scenarios: usize,
    nominal_runs_seconds: f64,
    sweep_seconds: f64,
    overhead: f64,
}

/// The cost of a scenario sweep over the analyses it is made of: `s`
/// delay scenarios through `CycleTimeAnalysis::run_scenarios_in` (one
/// structure rebuild, then one analysis per scenario on the scenario's
/// delays written into it) against `s` nominal `run_in` calls on the
/// same warm arena. Both arms analyse the same shape `s` times, so
/// `overhead` (sweep over nominal runs) is what the per-scenario delay
/// check and write add, plus any scenario whose winning record spans
/// more periods than the nominal one (a longer winner re-run). Before
/// timing, every scenario is
/// asserted bit-identical to a from-scratch scalar analysis of its
/// reweighted graph.
fn measure_corner_sweep(reps: usize) -> Vec<CornerRow> {
    // Two small border counts (b = 4 and 8, where the per-scenario
    // analysis is cheapest and the delay writes weigh most) and the
    // b = 32 torus.
    let workloads: [(String, SignalGraph); 3] = [
        ("ring n=1024 b=4".to_owned(), tsg_gen::ring(1024, 4, 1.0)),
        ("ring n=1024 b=8".to_owned(), tsg_gen::ring(1024, 8, 1.0)),
        (
            "torus 16x17 b=32".to_owned(),
            tsg_gen::torus(16, 17, 2.0, 3.0),
        ),
    ];
    let mut arena = AnalysisArena::new();
    let mut rows = Vec::new();
    for (workload, sg) in &workloads {
        for s in [3usize, 8, 32] {
            // s = 3 is the classic min/typ/max corner sweep; the larger
            // counts are seeded Monte-Carlo scenario sets.
            let (kind, set) = if s == 3 {
                let corners = [Corner::Min, Corner::Typ, Corner::Max];
                (
                    "corners",
                    ScenarioSet::corners(10.0, &corners).expect("valid spec"),
                )
            } else {
                (
                    "samples",
                    ScenarioSet::samples(s, 7, 10.0).expect("valid spec"),
                )
            };

            // Correctness gate first: a timing of a wrong answer means
            // nothing.
            assert_scenarios_match_scalar(sg, &set, workload);

            let nominal_runs_seconds = time_per_call(reps, || {
                (0..set.len())
                    .map(|_| {
                        CycleTimeAnalysis::run_in(sg, None, &mut arena)
                            .expect("live")
                            .records()
                            .len()
                    })
                    .sum::<usize>()
            });
            let sweep_seconds = time_per_call(reps, || {
                CycleTimeAnalysis::run_scenarios_in(sg, &set, &mut arena, None)
                    .expect("live")
                    .len()
            });
            rows.push(CornerRow {
                workload: workload.clone(),
                kind,
                scenarios: s,
                nominal_runs_seconds,
                sweep_seconds,
                overhead: sweep_seconds / nominal_runs_seconds.max(1e-12),
            });
        }
    }
    rows
}

struct WindowRow {
    events: usize,
    b: usize,
    /// Per-call seconds of a one-shot `run_in` on a warm arena, sorted
    /// ascending.
    oneshot_samples: Vec<f64>,
    /// Bytes of the one-shot arena's wide rows (the two-row window).
    oneshot_wide_bytes: usize,
    /// Per-call seconds of `AnalysisSession::open`, sorted ascending.
    session_samples: Vec<f64>,
    /// Bytes of an open session's wide rows.
    session_wide_bytes: usize,
}

/// Events and border events of the `analyze-large` shape.
const LARGE_EVENTS: usize = 1024;
const LARGE_BORDERS: usize = 37;

/// The `analyze-large` shape: a 1024-event ring with 8 tokens and 64
/// chords, drawn until it has exactly 37 border events.
fn analyze_large_graph() -> SignalGraph {
    let config = tsg_gen::RandomTsgConfig {
        events: LARGE_EVENTS,
        tokens: 8,
        chords: 64,
        max_delay: 9,
        with_prefix: false,
    };
    (0u64..)
        .map(|seed| tsg_gen::random_live_tsg(seed, config))
        .find(|sg| sg.border_events().len() == LARGE_BORDERS)
        .expect("some seed draws b = 37")
}

/// The one-shot window at the `analyze-large` shape. `run_in` keeps two
/// lane rows, and so does a session open, which runs the same core. Both are asserted to give the same analysis before
/// timing.
fn measure_oneshot_window(reps: usize) -> WindowRow {
    let sg = analyze_large_graph();

    let mut arena = AnalysisArena::new();
    let oneshot = CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
    let session = AnalysisSession::open(sg.clone()).expect("live");
    assert_analyses_identical(session.analysis(), &oneshot, "oneshot_window");
    let cell = std::mem::size_of::<f64>();

    let oneshot_samples = samples_per_call(reps, || {
        CycleTimeAnalysis::run_in(&sg, None, &mut arena)
            .expect("live")
            .records()
            .len()
    });
    let session_samples = samples_per_call(reps, || {
        AnalysisSession::open(sg.clone())
            .expect("live")
            .analysis()
            .records()
            .len()
    });
    WindowRow {
        events: LARGE_EVENTS,
        b: LARGE_BORDERS,
        oneshot_samples,
        oneshot_wide_bytes: arena.capacity().0 * cell,
        session_samples,
        session_wide_bytes: session.arena_capacity().0 * cell,
    }
}

struct RenderRow {
    /// Per-pair seconds of `ops::report_in` minus `run_in`, sorted
    /// ascending.
    render_samples: Vec<f64>,
    /// Per-call seconds of `protocol::ok_response` on the report,
    /// sorted ascending.
    encode_samples: Vec<f64>,
    report_bytes: usize,
    response_bytes: usize,
}

/// The non-kernel bytes of an `analyze` response at the `analyze-large`
/// shape: the report `ops::report_in` renders and its JSON encoding by
/// `protocol::ok_response`. The render has no entry point of its own,
/// so each render sample is a `report_in` timing minus a `run_in`
/// timing taken right after it (each the best of three calibrated
/// samples), which keeps host drift out of the difference.
fn measure_render(reps: usize) -> RenderRow {
    let sg = analyze_large_graph();
    let opts = ops::AnalyzeOptions::default();
    let mut arena = AnalysisArena::new();
    let report = ops::report_in(&sg, &opts, &mut arena).expect("renders");
    let id = tsg_serve::json::Json::Num(7.0);
    let response = protocol::ok_response(&id, &report);
    let mut render_samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let report = time_per_call(3, || {
                ops::report_in(&sg, &opts, &mut arena)
                    .expect("renders")
                    .len()
            });
            let run = time_per_call(3, || {
                CycleTimeAnalysis::run_in(&sg, None, &mut arena)
                    .expect("live")
                    .records()
                    .len()
            });
            report - run
        })
        .collect();
    render_samples.sort_by(f64::total_cmp);
    let encode_samples = samples_per_call(reps, || protocol::ok_response(&id, &report).len());
    RenderRow {
        render_samples,
        encode_samples,
        report_bytes: report.len(),
        response_bytes: response.len(),
    }
}

impl RenderRow {
    /// Median seconds of the render and of the encode.
    fn medians(&self) -> (f64, f64) {
        let median = |s: &[f64]| s[s.len() / 2];
        (median(&self.render_samples), median(&self.encode_samples))
    }
}

#[allow(clippy::too_many_arguments)]
fn json_report(
    quick: bool,
    queue_rows: &[QueueRow],
    wide_rows: &[WideRow],
    simd_rows: &[SimdRow],
    corner_rows: &[CornerRow],
    load_rows: &[LoadRow],
    window: &WindowRow,
    render: &RenderRow,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"tsg-bench-kernel/1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(
        out,
        "  \"threads_available\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // The CPU feature level the auto dispatcher selected (honouring a
    // TSG_KERNEL override), plus every backend this CPU can run — CI
    // greps these to assert SIMD was selected or explicitly reported
    // unavailable.
    let _ = writeln!(
        out,
        "  \"kernel_detected\": \"{}\",",
        KernelBackend::detect().name()
    );
    let _ = writeln!(
        out,
        "  \"kernels_available\": [{}],",
        available_backends()
            .iter()
            .map(|b| format!("\"{}\"", b.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"queue\": [");
    for (i, r) in queue_rows.iter().enumerate() {
        let comma = if i + 1 < queue_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"depth\": {}, \"ops\": {}, \
             \"seconds\": {:.9}, \"mops_per_sec\": {:.3}}}{comma}",
            r.workload,
            r.depth,
            r.ops,
            r.seconds,
            r.mops()
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"wide_vs_scalar\": {{");
    let _ = writeln!(out, "    \"bit_identical\": true,");
    let _ = writeln!(out, "    \"sweeps\": [");
    for (i, r) in wide_rows.iter().enumerate() {
        let comma = if i + 1 < wide_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"scenario\": \"{}\", \"b\": {}, \"scalar_seconds\": {:.9}, \
             \"wide_seconds\": {:.9}, \"speedup\": {:.3}}}{comma}",
            r.scenario, r.b, r.scalar_seconds, r.wide_seconds, r.speedup
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"simd_vs_portable\": {{");
    let _ = writeln!(out, "    \"bit_identical\": true,");
    let _ = writeln!(out, "    \"sweeps\": [");
    for (i, r) in simd_rows.iter().enumerate() {
        let comma = if i + 1 < simd_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"scenario\": \"{}\", \"b\": {}, \"backend\": \"{}\", \
             \"seconds\": {:.9}, \"speedup_vs_portable\": {:.3}}}{comma}",
            r.scenario, r.b, r.backend, r.seconds, r.speedup
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"corner_sweep\": {{");
    let _ = writeln!(out, "    \"bit_identical\": true,");
    let _ = writeln!(out, "    \"sweeps\": [");
    for (i, r) in corner_rows.iter().enumerate() {
        let comma = if i + 1 < corner_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"workload\": \"{}\", \"kind\": \"{}\", \"scenarios\": {}, \
             \"nominal_runs_seconds\": {:.9}, \"sweep_seconds\": {:.9}, \"overhead\": {:.3}}}{comma}",
            r.workload, r.kind, r.scenarios, r.nominal_runs_seconds, r.sweep_seconds, r.overhead
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"load\": {{");
    let _ = writeln!(out, "    \"workload\": \"parse_stg, ring with chords\",");
    if let [first, .., last] = load_rows {
        let _ = writeln!(
            out,
            "    \"median_ratio_{}_over_{}\": {:.3},",
            last.events,
            first.events,
            last.median() / first.median().max(1e-12)
        );
    }
    let _ = writeln!(out, "    \"sweeps\": [");
    for (i, r) in load_rows.iter().enumerate() {
        let comma = if i + 1 < load_rows.len() { "," } else { "" };
        let samples: Vec<String> = r.samples.iter().map(|s| format!("{s:.9}")).collect();
        let _ = writeln!(
            out,
            "      {{\"events\": {}, \"arcs\": {}, \"bytes\": {}, \"median_seconds\": {:.9}, \
             \"min_seconds\": {:.9}, \"max_seconds\": {:.9}, \"ns_per_byte\": {:.2}, \
             \"samples\": [{}]}}{comma}",
            r.events,
            r.arcs,
            r.bytes,
            r.median(),
            r.samples[0],
            r.samples[r.samples.len() - 1],
            r.median() * 1e9 / r.bytes as f64,
            samples.join(", ")
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let median = |s: &[f64]| s[s.len() / 2];
    let _ = writeln!(out, "  \"oneshot_window\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"random_live_tsg, {} events, b = {}\",",
        window.events, window.b
    );
    let _ = writeln!(out, "    \"bit_identical\": true,");
    let _ = writeln!(
        out,
        "    \"run_in_median_seconds\": {:.9},",
        median(&window.oneshot_samples)
    );
    let _ = writeln!(
        out,
        "    \"run_in_wide_bytes\": {},",
        window.oneshot_wide_bytes
    );
    let _ = writeln!(
        out,
        "    \"session_open_median_seconds\": {:.9},",
        median(&window.session_samples)
    );
    let _ = writeln!(
        out,
        "    \"session_wide_bytes\": {}",
        window.session_wide_bytes
    );
    let _ = writeln!(out, "  }},");
    let (render_seconds, encode_seconds) = render.medians();
    let _ = writeln!(out, "  \"render\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"random_live_tsg, {LARGE_EVENTS} events, b = {LARGE_BORDERS}; \
         ops::report_in minus run_in per pair of best-of-3 samples, and protocol::ok_response \
         on the report\","
    );
    let _ = writeln!(out, "    \"report_bytes\": {},", render.report_bytes);
    let _ = writeln!(out, "    \"response_bytes\": {},", render.response_bytes);
    let _ = writeln!(out, "    \"render_median_seconds\": {render_seconds:.9},");
    let _ = writeln!(out, "    \"encode_median_seconds\": {encode_seconds:.9}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

const USAGE: &str = "usage: bench [--quick] [--out PATH]";

/// Accepts `--quick` and `--out PATH` and returns them; anything else
/// is an error naming the first argument that does not fit.
fn parse_args(args: &[String]) -> Result<(bool, String), String> {
    let mut quick = false;
    let mut out_path = "BENCH_kernel.json".to_owned();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) if !p.starts_with("--") => out_path = p.clone(),
                _ => return Err("--out needs a PATH".to_owned()),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((quick, out_path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e} ({USAGE})");
        std::process::exit(1);
    });

    let (depths, reps): (&[usize], usize) = if quick {
        (&[256, 4096], 2)
    } else {
        (&[64, 1024, 16384, 131072], 5)
    };

    eprintln!("measuring the event queue ({} depths)...", depths.len());
    let queue_rows = measure_queues(depths, reps);
    for r in &queue_rows {
        eprintln!(
            "  {:<9} depth {:>7}: {:>9.3} Mops/s",
            r.workload,
            r.depth,
            r.mops()
        );
    }

    eprintln!("measuring wide vs scalar border simulations...");
    let wide_rows = measure_wide_vs_scalar(reps);
    for r in &wide_rows {
        eprintln!(
            "  {:<22} b={:>3}: scalar {:>9.3} ms, wide {:>9.3} ms ({:.2}x)",
            r.scenario,
            r.b,
            r.scalar_seconds * 1e3,
            r.wide_seconds * 1e3,
            r.speedup
        );
    }

    eprintln!(
        "measuring simd vs portable (detected: {})...",
        KernelBackend::detect().name()
    );
    let simd_rows = measure_simd_vs_portable(reps);
    for r in &simd_rows {
        eprintln!(
            "  {:<22} b={:>3} {:<8}: {:>9.3} ms ({:.2}x vs portable)",
            r.scenario,
            r.b,
            r.backend,
            r.seconds * 1e3,
            r.speedup
        );
    }

    eprintln!("measuring the corner/scenario sweep vs as many nominal analyses...");
    let corner_rows = measure_corner_sweep(reps);
    for r in &corner_rows {
        eprintln!(
            "  {:<18} {:<8} s={:>2}: nominal runs {:>8.3} ms, sweep {:>8.3} ms ({:.2}x)",
            r.workload,
            r.kind,
            r.scenarios,
            r.nominal_runs_seconds * 1e3,
            r.sweep_seconds * 1e3,
            r.overhead
        );
    }

    eprintln!("measuring .g loading (parse_stg)...");
    let load_rows = measure_load(&[1024, 4096], reps.max(7));
    for r in &load_rows {
        eprintln!(
            "  {:>5} events, {:>7} bytes: median {:>8.3} ms ({:.1} ns/byte)",
            r.events,
            r.bytes,
            r.median() * 1e3,
            r.median() * 1e9 / r.bytes as f64
        );
    }

    eprintln!("measuring the one-shot window and a session open...");
    let window_row = measure_oneshot_window(reps.max(5));
    eprintln!(
        "  {} events, b={}: run_in {:.3} ms in {:.2} MB of rows; session open {:.3} ms, {:.2} MB",
        window_row.events,
        window_row.b,
        window_row.oneshot_samples[window_row.oneshot_samples.len() / 2] * 1e3,
        window_row.oneshot_wide_bytes as f64 / 1e6,
        window_row.session_samples[window_row.session_samples.len() / 2] * 1e3,
        window_row.session_wide_bytes as f64 / 1e6
    );

    eprintln!("measuring the analyze report's render and JSON encode...");
    let render_row = measure_render(reps.max(11));
    let (render_seconds, encode_seconds) = render_row.medians();
    eprintln!(
        "  {LARGE_EVENTS} events, b={LARGE_BORDERS}: render {:.1} us ({} report bytes), \
         encode {:.1} us ({} response bytes)",
        render_seconds * 1e6,
        render_row.report_bytes,
        encode_seconds * 1e6,
        render_row.response_bytes
    );

    let report = json_report(
        quick,
        &queue_rows,
        &wide_rows,
        &simd_rows,
        &corner_rows,
        &load_rows,
        &window_row,
        &render_row,
    );
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{report}");
    eprintln!("wrote {out_path}");
}

//! The traced run: the measured sequence replayed in process, timing
//! the public function behind each layer.
//!
//! Spans live in memory — request id, layer name, the layer that calls
//! it in the server, start and duration — and are written out once the
//! run ends. The handler is timed in a pass of its own, alternating with
//! an identical untraced pass, so the difference between the two is the
//! tracing overhead; the layers below the handler are timed in a third
//! pass that calls each of them directly. The spans keep raw durations;
//! the metrics divide each timing by the host's slowdown, probed around
//! each of the passes' segments as the served run does around its
//! chunks.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use tsg_core::analysis::border::border_set;
use tsg_core::analysis::session::AnalysisSession;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_serve::json::Json;
use tsg_serve::ops::{self, Source, Workspace};
use tsg_serve::protocol::{self, Command, Frame, FrameDecoder, Request};
use tsg_stg::{parse_stg, StgOptions};

use crate::corpus::{execute, Class, Corpus, Exchange};
use crate::host::HostProbe;
use crate::stats::median;

/// One timed call.
struct Span {
    req: u64,
    name: &'static str,
    parent: &'static str,
    start_ns: u128,
    dur_ns: u128,
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` as span `name` of request `req` and returns its result
    /// and duration in µs.
    fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: (start - self.origin).as_nanos(),
            dur_ns: (end - start).as_nanos(),
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        let mut out = BufWriter::new(File::create(path).map_err(io)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"req":{},"name":"{}","parent":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.req, s.name, s.parent, s.start_ns, s.dur_ns
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

fn parse(ex: &Exchange) -> Result<Request, String> {
    protocol::parse_request(ex.request.trim_end()).map_err(|(_, e)| e)
}

/// Per-layer samples by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    /// Moves `other`'s samples in, each timing divided by `slowdown`.
    fn absorb(&mut self, other: Samples, slowdown: f64) {
        for (name, values) in other.0 {
            let scale = if is_timing(name) { slowdown } else { 1.0 };
            let into = self.0.entry(name).or_default();
            into.extend(values.into_iter().map(|v| v / scale));
        }
    }
}

/// Whether per-layer metric `name` is a time: µs, or ns per byte or cell.
fn is_timing(name: &str) -> bool {
    LAYER_METRICS
        .iter()
        .any(|&(n, unit)| n == name && (unit == "us" || unit.starts_with("ns/")))
}

/// Runs `f` between two host probes. Returns its result and the host's
/// slowdown over it, which its timings are divided by, as the served
/// run's are.
fn probed<T>(
    host: &mut HostProbe,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let before = host.probe()?.slowdown();
    let out = f()?;
    let after = host.probe()?.slowdown();
    Ok((out, (before + after) / 2.0))
}

/// Replays the set-up requests of every cold start on fresh workspaces
/// and returns the first one's workspace, ready for the measured
/// sequence, with the last id used. `on_setup` sees each set-up request
/// with its cold start's index and its id.
fn replay_setups(
    corpus: &Corpus,
    mut on_setup: impl FnMut(&mut Workspace, usize, u64, &Exchange, &Command) -> Result<(), String>,
) -> Result<(Workspace, u64), String> {
    let mut first = None;
    let mut id = 0;
    for (k, setup) in corpus.cold_starts.iter().enumerate() {
        let mut ws = Workspace::new();
        for ex in setup {
            id += 1;
            on_setup(&mut ws, k, id, ex, &parse(ex)?.cmd)?;
        }
        first.get_or_insert(ws);
    }
    Ok((first.ok_or("no cold start")?, id))
}

/// One traced handler call.
struct Handled {
    class: Class,
    /// Part of the measured sequence, not of a set-up.
    measured: bool,
    /// Handler time in µs, divided by the host's slowdown.
    us: f64,
}

/// Segments the in-process passes are cut into; the handler passes
/// alternate segment by segment, and the host is probed around each.
const SEGMENTS: usize = 200;

/// Handler passes: the measured sequence through two workspaces, one
/// plain and one with a span around every handler call. The passes
/// alternate segment by segment, so the host's slow and fast phases fall
/// on both alike. Returns the wall seconds of the untraced and the
/// traced pass, and every traced handler call, set-up requests first.
fn handler_passes(
    corpus: &Corpus,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<(f64, f64, Vec<Handled>), String> {
    let mut handled = Vec::new();
    let (mut plain, _) = replay_setups(corpus, |ws, _, _, _, cmd| {
        execute(ws, cmd).map(drop).map_err(|e| e.to_string())
    })?;
    let ((mut traced, mut id), slowdown) = probed(host, || {
        replay_setups(corpus, |ws, _, id, ex, cmd| {
            let (out, us) = tracer.span(id, "ops.handler", "transport", || execute(ws, cmd));
            handled.push(Handled {
                class: ex.class,
                measured: false,
                us,
            });
            out.map(drop).map_err(|e| e.to_string())
        })
    })?;
    for h in &mut handled {
        h.us /= slowdown;
    }
    let cmds = corpus
        .measured
        .iter()
        .map(|ex| parse(ex).map(|r| r.cmd))
        .collect::<Result<Vec<_>, _>>()?;
    let size = cmds.len().div_ceil(SEGMENTS).max(1);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (exs, segment) in corpus.measured.chunks(size).zip(cmds.chunks(size)) {
        let mark = handled.len();
        let ((), slowdown) = probed(host, || {
            let start = Instant::now();
            for cmd in segment {
                black_box(execute(&mut plain, cmd).map_err(|e| e.to_string())?);
            }
            untraced_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for (ex, cmd) in exs.iter().zip(segment) {
                id += 1;
                let (out, us) =
                    tracer.span(id, "ops.handler", "transport", || execute(&mut traced, cmd));
                handled.push(Handled {
                    class: ex.class,
                    measured: true,
                    us,
                });
                black_box(out.map_err(|e| e.to_string())?);
            }
            traced_s += start.elapsed().as_secs_f64();
            Ok(())
        })?;
        for h in &mut handled[mark..] {
            h.us /= slowdown;
        }
    }
    Ok((untraced_s, traced_s, handled))
}

/// The inline `.g` text a request carries.
fn text_of(cmd: &Command) -> Option<&str> {
    match cmd {
        Command::Analyze {
            source: Source::Inline { text, .. },
            ..
        }
        | Command::Sim {
            source: Source::Inline { text, .. },
            ..
        }
        | Command::SessionOpen {
            source: Source::Inline { text, .. },
            ..
        } => Some(text),
        _ => None,
    }
}

/// Layer pass: every measured request decoded, parsed, handled and
/// encoded, with the layers below the handler called directly. Returns
/// the number of responses whose bytes differ from the expected ones.
fn layer_pass(
    corpus: &Corpus,
    tracer: &mut Tracer,
    samples: &mut Samples,
    host: &mut HostProbe,
) -> Result<usize, String> {
    let mut session = None;
    let mut setup = Samples::default();
    let ((mut ws, mut id), slowdown) = probed(host, || {
        replay_setups(corpus, |ws, k, id, _, cmd| {
            if let Command::SessionOpen { .. } = cmd {
                let text = text_of(cmd).ok_or("session.open without inline text")?;
                let (sg, us) = tracer.span(id, "stg.parse", "ops.handler", || {
                    parse_stg(text, StgOptions::default())
                });
                setup.push("stg.parse_us", us);
                setup.push("stg.ns_per_byte", us * 1e3 / text.len() as f64);
                // The measured edits continue the first cold start's session.
                if k == 0 {
                    let sg = sg.map_err(|e| e.to_string())?;
                    session = Some(AnalysisSession::open(sg).map_err(|e| e.to_string())?);
                }
            } else if let (Command::SessionEdit { edits, .. }, Some(s), 0) =
                (cmd, session.as_mut(), k)
            {
                ops::apply_struct_edits(s, edits)?;
            }
            execute(ws, cmd).map(drop).map_err(|e| e.to_string())
        })
    })?;
    samples.absorb(setup, slowdown);

    let mut decoder = FrameDecoder::new(usize::MAX);
    let mut frames = Vec::with_capacity(1);
    let mut arena = AnalysisArena::new();
    let mut mismatched = 0;
    let mut capacity = ws.arena_capacity();
    let (mut regrowths, mut rows, mut rows_total, mut dirty, mut borders) = (0, 0, 0, 0, 0);
    let size = corpus.measured.len().div_ceil(SEGMENTS).max(1);
    for exs in corpus.measured.chunks(size) {
        let mut segment = Samples::default();
        let ((), slowdown) = probed(host, || {
            for ex in exs {
                id += 1;
                frames.clear();
                let ((), us) = tracer.span(id, "protocol.decode", "transport", || {
                    decoder.feed_into(ex.request.as_bytes(), &mut frames)
                });
                segment.push("protocol.decode_us", us);
                let [Frame::Line(line)] = frames.as_slice() else {
                    return Err("request did not decode to one frame".to_owned());
                };
                let (request, us) = tracer.span(id, "protocol.parse", "transport", || {
                    protocol::parse_request(line)
                });
                segment.push("protocol.parse_us", us);
                let request = request.map_err(|(_, e)| e)?;

                let output = execute(&mut ws, &request.cmd).map_err(|e| e.to_string())?;
                let grown = ws.arena_capacity();
                if grown.0 > capacity.0 || grown.1 > capacity.1 || grown.2 > capacity.2 {
                    regrowths += 1;
                }
                capacity = grown;

                let (response, us) = tracer.span(id, "protocol.encode", "transport", || {
                    protocol::ok_response(&request.id, &output)
                });
                segment.push("protocol.encode_us", us);
                segment.push("protocol.request_bytes", ex.request.len() as f64);
                segment.push("protocol.response_bytes", response.len() as f64 + 1.0);
                if response != ex.expected {
                    mismatched += 1;
                }

                match (&request.cmd, ex.class) {
                    (cmd @ (Command::Analyze { .. } | Command::Sim { .. }), class) => {
                        let text = text_of(cmd).ok_or("request without inline text")?;
                        let (sg, us) = tracer.span(id, "stg.parse", "ops.handler", || {
                            parse_stg(text, StgOptions::default())
                        });
                        segment.push("stg.parse_us", us);
                        segment.push("stg.ns_per_byte", us * 1e3 / text.len() as f64);
                        let sg = sg.map_err(|e| e.to_string())?;
                        let Command::Analyze { opts, .. } = cmd else {
                            continue;
                        };
                        debug_assert_eq!(class, Class::Analyze);
                        let (border, us) =
                            tracer
                                .span(id, "analysis.border_set", "ops.handler", || border_set(&sg));
                        segment.push("analysis.border_set_us", us);
                        let (analysis, run_us) =
                            tracer.span(id, "analysis.run", "ops.report", || {
                                CycleTimeAnalysis::run_in(&sg, None, &mut arena)
                            });
                        black_box(analysis.map_err(|e| e.to_string())?);
                        segment.push("analysis.run_us", run_us);
                        let b = border.len() as f64;
                        let cells = b * (b + 1.0) * sg.event_count() as f64;
                        segment.push("analysis.cells", cells);
                        segment.push("analysis.ns_per_cell", run_us * 1e3 / cells);
                        let (report, us) = tracer.span(id, "ops.report", "ops.handler", || {
                            ops::report_in(&sg, opts, &mut arena)
                        });
                        black_box(report);
                        segment.push("ops.render_us", us - run_us);
                    }
                    (Command::SessionEdit { edits, .. }, class) => {
                        let s = session.as_mut().ok_or("session.edit before session.open")?;
                        let (span, metric) = if class == Class::EditStruct {
                            ("session.edit_structure", "session.edit_struct_us")
                        } else {
                            ("session.edit_delays", "session.edit_delay_us")
                        };
                        let (delta, us) = tracer.span(id, span, "ops.handler", || {
                            ops::apply_struct_edits(s, edits)
                        });
                        let delta = delta?;
                        segment.push(metric, us);
                        (rows, rows_total) = (rows + delta.rows, rows_total + delta.rows_total);
                        (dirty, borders) = (dirty + delta.dirty, borders + delta.borders);
                    }
                    _ => {}
                }
            }
            Ok(())
        })?;
        samples.absorb(segment, slowdown);
    }
    samples.push("analysis.arena_regrowths", f64::from(regrowths));
    if rows_total > 0 {
        samples.push("session.rows_ratio", rows as f64 / rows_total as f64);
        samples.push("session.dirty_ratio", dirty as f64 / borders.max(1) as f64);
    }
    Ok(mismatched)
}

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 26] = [
    ("transport.p50_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("stg.parse_us", "us"),
    ("stg.ns_per_byte", "ns/byte"),
    ("ops.handler_us", "us"),
    ("ops.render_us", "us"),
    ("analysis.border_set_us", "us"),
    ("analysis.run_us", "us"),
    ("analysis.cells", "count"),
    ("analysis.ns_per_cell", "ns/cell"),
    ("analysis.arena_regrowths", "count"),
    ("session.open_us", "us"),
    ("session.edit_delay_us", "us"),
    ("session.edit_struct_us", "us"),
    ("session.rows_ratio", "ratio"),
    ("session.dirty_ratio", "ratio"),
    ("sim.run_us", "us"),
    ("pool.served", "count"),
    ("pool.failed", "count"),
    ("pool.rejected_overloaded", "count"),
    ("pool.worker_lost", "count"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of the traced passes.
pub struct Layers {
    /// Value of every [`LAYER_METRICS`] entry, in order. A layer a
    /// workload does not exercise reads 0.
    pub values: Vec<f64>,
    /// Replayed responses that differ from the expected bytes.
    pub mismatched: usize,
}

/// Runs the three in-process passes over `corpus` and derives every
/// per-layer metric; `served_p50_us` and `stats` come from the served
/// run of the same sequence. Spans are written to `spans_out`.
pub fn run(
    corpus: &Corpus,
    served_p50_us: f64,
    stats: &Json,
    spans_out: &Path,
) -> Result<Layers, String> {
    let mut tracer = Tracer::new();
    let mut host = HostProbe::start()?;
    let (untraced_s, traced_s, handled) = handler_passes(corpus, &mut tracer, &mut host)?;
    let mut samples = Samples::default();
    for &Handled {
        class,
        measured,
        us,
    } in &handled
    {
        match (class, measured) {
            (Class::Open, false) => samples.push("session.open_us", us),
            (Class::Sim, true) => samples.push("sim.run_us", us),
            _ => {}
        }
        if measured {
            samples.push("ops.handler_us", us);
        }
    }
    let mismatched = layer_pass(corpus, &mut tracer, &mut samples, &mut host)?;
    tracer.write(spans_out)?;

    let counter = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let values = LAYER_METRICS
        .iter()
        .map(|&(name, _)| match name {
            "transport.p50_us" => served_p50_us - samples.median("ops.handler_us"),
            "pool.served" => counter("served"),
            "pool.failed" => counter("failed"),
            "pool.rejected_overloaded" => counter("rejected_overloaded"),
            "pool.worker_lost" => counter("worker_lost"),
            "trace.overhead_pct" => (traced_s / untraced_s - 1.0) * 100.0,
            other => samples.median(other),
        })
        .collect();
    Ok(Layers { values, mismatched })
}

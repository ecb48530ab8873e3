//! The newline-delimited JSON request/response protocol of `tsg serve`.
//!
//! One request per line, one response line per request, responses in
//! request order. Requests are JSON objects with a `cmd` field and an
//! optional `id` echoed verbatim into the response:
//!
//! ```json
//! {"id": 1, "cmd": "analyze", "path": "spec.g", "baselines": true}
//! {"id": 2, "cmd": "sim", "path": "spec.g", "periods": 2}
//! {"id": 3, "cmd": "sim", "text": ".model m\n...", "name": "inline.g"}
//! {"id": 4, "cmd": "batch", "paths": ["a.g", "b.g"]}
//! {"id": 5, "cmd": "stats"}
//! {"id": 6, "cmd": "session.open", "session": "s1", "path": "spec.g"}
//! {"id": 7, "cmd": "session.edit", "session": "s1",
//!  "edits": [{"src": "a+", "dst": "c+", "delay": 5}]}
//! {"id": 8, "cmd": "session.edit", "session": "s1",
//!  "edits": [{"op": "add_event", "label": "s+"},
//!            {"op": "add_arc", "src": "a+", "dst": "s+", "delay": 1},
//!            {"op": "add_arc", "src": "s+", "dst": "c+", "delay": 1,
//!             "marked": true},
//!            {"op": "remove_arc", "src": "a+", "dst": "c+"}]}
//! {"id": 9, "cmd": "session.explore", "session": "s1", "moves": 16}
//! {"id": 10, "cmd": "session.close", "session": "s1"}
//! ```
//!
//! The `session.*` commands drive an
//! [`AnalysisSession`](tsg_core::analysis::session::AnalysisSession):
//! `open` runs the full analysis once and keeps the graph, each `edit`
//! applies a batch and re-runs the analysis, `close` discards the
//! state. All requests naming one session are *pinned to one worker*
//! (and sessions are scoped to their connection), so edits execute in
//! request order against that session's graph.
//!
//! An `edits` entry is either the bare `{src, dst, delay}` delay form
//! or a structural `{"op": ...}` object — `add_arc` (optionally
//! `"marked": true`), `remove_arc`, `add_event`, `remove_event`,
//! `delay` — applied as one transaction: a batch that breaks a graph
//! rule is rolled back whole and answered with a plain error, the
//! session untouched. `session.explore` runs the speculative
//! optimization loop on the open session: `moves` proposals (default
//! 16), each scored by incremental re-analysis and committed only when
//! it lowers the cycle time; `seed` (default 0) makes the run
//! reproducible.
//!
//! Responses always carry `id` and `ok`:
//!
//! ```json
//! {"id": 1, "ok": true, "output": "graph: ...\n"}
//! {"id": 2, "ok": false, "error": "reading spec.g: ..."}
//! {"id": 4, "ok": true, "results": [{"ok": true, "output": "..."}]}
//! {"id": 5, "ok": true, "served": 4, "failed": 0, "threads": 8, "kernel": "avx2"}
//! ```
//!
//! The `stats` response reports the wide-kernel backend the CPU picked
//! (`"kernel"`); no request field selects another.
//!
//! `analyze`/`batch` requests accept scenario-sweep fields:
//! `"corners"` (a `"min,typ,max"` string or array of corner names) with
//! `"derate"` (percent, default 10), or `"samples"` (seeded Monte-Carlo
//! scenario count) with `"seed"` — the report then carries a τ
//! distribution summary and per-arc criticality probabilities swept as
//! extra kernel lanes. `session.explore` accepts `"objective"`
//! (`"tau"` or `"tau-p95"`) and `"samples"`: `tau-p95` optimizes the
//! 95th-percentile τ over sampled delay scenarios.
//!
//! Unknown fields are rejected, not ignored — the same strictness the
//! CLI applies to unknown flags, so a typo'd option fails loudly instead
//! of silently running with defaults.
//!
//! Every request additionally accepts a `"deadline_ms"` field: the
//! wall-clock budget for that request. A request that exceeds it is
//! cancelled cooperatively and answered with a *structured* failure —
//! `ok: false` plus a machine-readable `code` (`"deadline_exceeded"`,
//! `"cancelled"`, `"overloaded"`, `"request_too_large"`) and
//! progress/backoff detail fields — so clients can branch on the code
//! instead of parsing prose.

use std::time::Duration;

use crate::json::{self, Json};
use crate::ops::{AnalyzeOptions, EditOp, EditSpec, Objective, SimOptions, Source};
use crate::pool::ServeStats;
use tsg_core::analysis::Corner;

/// A parsed request body.
#[derive(Clone, Debug)]
pub enum Command {
    /// Cycle-time analysis of one signal graph or netlist.
    Analyze {
        /// Where the specification text comes from.
        source: Source,
        /// Report options (subset of the CLI's `analyze` flags).
        opts: AnalyzeOptions,
    },
    /// Event simulation of one signal graph or netlist.
    Sim {
        /// Where the specification text comes from.
        source: Source,
        /// Simulation options (subset of the CLI's `sim` flags).
        opts: SimOptions,
    },
    /// Analysis sweep over many paths, one response with per-item
    /// results.
    Batch {
        /// The files to analyze, in order.
        paths: Vec<String>,
        /// Report options shared by every item.
        opts: AnalyzeOptions,
    },
    /// Service counters snapshot.
    Stats,
    /// Open an incremental analysis session under a client-chosen name.
    SessionOpen {
        /// The session name (scoped to the connection).
        session: String,
        /// Where the specification text comes from.
        source: Source,
        /// Delay assigned to arcs without a `.delay` annotation.
        default_delay: f64,
    },
    /// Apply a batch of delay and structural edits to an open session,
    /// as one transaction.
    SessionEdit {
        /// The session name.
        session: String,
        /// Label-addressed edits, applied as one batch.
        edits: Vec<EditOp>,
    },
    /// Run the speculative optimization loop on an open session.
    SessionExplore {
        /// The session name.
        session: String,
        /// Candidate moves to propose.
        moves: usize,
        /// Seed of the deterministic move generator (and of the sampled
        /// scenarios a `tau-p95` objective enables).
        seed: u64,
        /// What accepted moves must strictly lower.
        objective: Objective,
        /// Sampled scenario lanes a `tau-p95` objective scores over.
        samples: usize,
    },
    /// Close a session, discarding its warm state.
    SessionClose {
        /// The session name.
        session: String,
    },
}

impl Command {
    /// The session this command addresses, if any — what the dispatcher
    /// pins to a worker so per-session execution order is request order.
    pub fn session_name(&self) -> Option<&str> {
        match self {
            Command::SessionOpen { session, .. }
            | Command::SessionEdit { session, .. }
            | Command::SessionExplore { session, .. }
            | Command::SessionClose { session } => Some(session),
            _ => None,
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request's `id`, echoed into the response (`null` if absent).
    pub id: Json,
    /// The request body.
    pub cmd: Command,
    /// Per-request wall-clock budget (`"deadline_ms"`); `None` falls
    /// back to the server's `--default-deadline`, if any.
    pub deadline: Option<Duration>,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns the id to echo (null when the line was not even an object)
/// plus a user-facing message.
pub fn parse_request(line: &str) -> Result<Request, (Json, String)> {
    let doc = Json::parse(line).map_err(|e| (Json::Null, format!("invalid JSON: {e}")))?;
    let Some(fields) = doc.entries() else {
        return Err((Json::Null, "request must be a JSON object".to_owned()));
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let fail = |msg: String| (id.clone(), msg);
    let cmd = doc
        .get("cmd")
        .ok_or_else(|| fail("request needs a \"cmd\" field".to_owned()))?
        .as_str()
        .ok_or_else(|| fail("\"cmd\" must be a string".to_owned()))?;

    let known: &[&str] = match cmd {
        "analyze" => &[
            "id",
            "cmd",
            "path",
            "text",
            "name",
            "diagram",
            "dot",
            "baselines",
            "slack",
            "default_delay",
            "corners",
            "derate",
            "samples",
            "seed",
            "deadline_ms",
        ],
        "sim" => &[
            "id",
            "cmd",
            "path",
            "text",
            "name",
            "periods",
            "horizon",
            "default_delay",
            "deadline_ms",
        ],
        "batch" => &[
            "id",
            "cmd",
            "paths",
            "diagram",
            "dot",
            "baselines",
            "slack",
            "default_delay",
            "corners",
            "derate",
            "samples",
            "seed",
            "deadline_ms",
        ],
        "stats" => &["id", "cmd", "deadline_ms"],
        "session.open" => &[
            "id",
            "cmd",
            "session",
            "path",
            "text",
            "name",
            "default_delay",
            "deadline_ms",
        ],
        "session.edit" => &["id", "cmd", "session", "edits", "deadline_ms"],
        "session.explore" => &[
            "id",
            "cmd",
            "session",
            "moves",
            "seed",
            "objective",
            "samples",
            "deadline_ms",
        ],
        "session.close" => &["id", "cmd", "session", "deadline_ms"],
        other => return Err(fail(format!("unknown cmd {other:?}"))),
    };
    for (key, _) in fields {
        if !known.contains(&key.as_str()) {
            let hint = if cmd == "sim" && key == "vcd" {
                "; waveform dumping is a one-shot CLI feature (`tsg sim --vcd`)"
            } else {
                ""
            };
            return Err(fail(format!("unknown field {key:?} for cmd {cmd:?}{hint}")));
        }
    }

    let body = match cmd {
        "analyze" => Command::Analyze {
            source: source_of(&doc).map_err(&fail)?,
            opts: analyze_opts(&doc).map_err(&fail)?,
        },
        "sim" => Command::Sim {
            source: source_of(&doc).map_err(&fail)?,
            opts: sim_opts(&doc).map_err(&fail)?,
        },
        "batch" => {
            let paths = doc
                .get("paths")
                .ok_or("batch needs a \"paths\" array".to_owned())
                .and_then(|v| {
                    v.as_array()
                        .ok_or("\"paths\" must be an array of strings".to_owned())
                })
                .map_err(&fail)?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| fail("\"paths\" must be an array of strings".to_owned()))
                })
                .collect::<Result<Vec<String>, _>>()?;
            Command::Batch {
                paths,
                opts: analyze_opts(&doc).map_err(&fail)?,
            }
        }
        "stats" => Command::Stats,
        "session.open" => Command::SessionOpen {
            session: session_of(&doc).map_err(&fail)?,
            source: source_of(&doc).map_err(&fail)?,
            default_delay: match doc.get("default_delay") {
                None => 1.0,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| fail("\"default_delay\" must be a number".to_owned()))?,
            },
        },
        "session.edit" => Command::SessionEdit {
            session: session_of(&doc).map_err(&fail)?,
            edits: edits_of(&doc).map_err(&fail)?,
        },
        "session.explore" => Command::SessionExplore {
            session: session_of(&doc).map_err(&fail)?,
            moves: match doc.get("moves") {
                None => 16,
                Some(v) => v
                    .as_f64()
                    .filter(|m| m.fract() == 0.0 && *m >= 1.0 && *m <= 100_000.0)
                    .map(|m| m as usize)
                    .ok_or_else(|| fail("\"moves\" must be a positive integer".to_owned()))?,
            },
            seed: match doc.get("seed") {
                None => 0,
                Some(v) => v
                    .as_f64()
                    .filter(|s| s.fract() == 0.0 && *s >= 0.0 && *s <= u32::MAX as f64)
                    .map(|s| s as u64)
                    .ok_or_else(|| fail("\"seed\" must be a non-negative integer".to_owned()))?,
            },
            objective: match doc.get("objective") {
                None => Objective::Tau,
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| fail("\"objective\" must be a string".to_owned()))
                    .and_then(|s| Objective::parse(s).map_err(&fail))?,
            },
            samples: match doc.get("samples") {
                None => 16,
                Some(v) => v
                    .as_f64()
                    .filter(|s| s.fract() == 0.0 && *s >= 1.0 && *s <= 4096.0)
                    .map(|s| s as usize)
                    .ok_or_else(|| fail("\"samples\" must be an integer in 1..=4096".to_owned()))?,
            },
        },
        "session.close" => Command::SessionClose {
            session: session_of(&doc).map_err(&fail)?,
        },
        _ => unreachable!("cmd validated above"),
    };
    let deadline = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|ms| ms.is_finite() && *ms > 0.0)
                .and_then(|ms| Duration::try_from_secs_f64(ms / 1000.0).ok())
                .ok_or_else(|| fail("\"deadline_ms\" must be a positive number".to_owned()))?,
        ),
    };
    Ok(Request {
        id,
        cmd: body,
        deadline,
    })
}

/// Extracts the mandatory `session` name field.
fn session_of(doc: &Json) -> Result<String, String> {
    doc.get("session")
        .ok_or("session commands need a \"session\" name".to_owned())?
        .as_str()
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .ok_or("\"session\" must be a non-empty string".to_owned())
}

/// Extracts the `edits` array: bare `{src, dst, delay}` delay objects
/// or structural `{"op": ...}` objects.
fn edits_of(doc: &Json) -> Result<Vec<EditOp>, String> {
    let items = doc
        .get("edits")
        .ok_or("session.edit needs an \"edits\" array".to_owned())?
        .as_array()
        .ok_or("\"edits\" must be an array".to_owned())?;
    if items.is_empty() {
        return Err("\"edits\" must not be empty".to_owned());
    }
    items.iter().map(edit_op_of).collect()
}

/// Parses one `edits` entry.
fn edit_op_of(item: &Json) -> Result<EditOp, String> {
    let fields = item
        .entries()
        .ok_or_else(|| "each edit must be a JSON object".to_owned())?;
    let label = |key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .ok_or(format!("edit {key:?} must be a non-empty event label"))
    };
    let delay = || {
        item.get("delay")
            .and_then(Json::as_f64)
            .ok_or_else(|| "edit \"delay\" must be a number".to_owned())
    };
    let check = |known: &[&str]| {
        for (key, _) in fields {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown edit field {key:?}"));
            }
        }
        Ok(())
    };
    let Some(op) = item.get("op") else {
        // The legacy bare delay form.
        check(&["src", "dst", "delay"])?;
        return Ok(EditOp::Delay(EditSpec {
            src: label("src")?,
            dst: label("dst")?,
            delay: delay()?,
        }));
    };
    match op.as_str().ok_or("edit \"op\" must be a string")? {
        "delay" => {
            check(&["op", "src", "dst", "delay"])?;
            Ok(EditOp::Delay(EditSpec {
                src: label("src")?,
                dst: label("dst")?,
                delay: delay()?,
            }))
        }
        "add_arc" => {
            check(&["op", "src", "dst", "delay", "marked"])?;
            Ok(EditOp::AddArc {
                src: label("src")?,
                dst: label("dst")?,
                delay: delay()?,
                marked: match item.get("marked") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("edit \"marked\" must be a boolean")?,
                },
            })
        }
        "remove_arc" => {
            check(&["op", "src", "dst"])?;
            Ok(EditOp::RemoveArc {
                src: label("src")?,
                dst: label("dst")?,
            })
        }
        "add_event" => {
            check(&["op", "label"])?;
            Ok(EditOp::AddEvent {
                label: label("label")?,
            })
        }
        "remove_event" => {
            check(&["op", "label"])?;
            Ok(EditOp::RemoveEvent {
                label: label("label")?,
            })
        }
        other => Err(format!(
            "unknown edit op {other:?} (expected delay, add_arc, remove_arc, add_event or \
             remove_event)"
        )),
    }
}

/// Extracts the `path` / `text`(+`name`) source fields.
fn source_of(doc: &Json) -> Result<Source, String> {
    match (doc.get("path"), doc.get("text")) {
        (Some(_), Some(_)) => Err("give either \"path\" or \"text\", not both".to_owned()),
        (Some(p), None) => {
            if doc.get("name").is_some() {
                return Err("\"name\" only applies to inline \"text\" sources".to_owned());
            }
            Ok(Source::Path(
                p.as_str().ok_or("\"path\" must be a string")?.to_owned(),
            ))
        }
        (None, Some(t)) => Ok(Source::Inline {
            name: match doc.get("name") {
                Some(n) => n.as_str().ok_or("\"name\" must be a string")?.to_owned(),
                None => "inline.g".to_owned(),
            },
            text: t.as_str().ok_or("\"text\" must be a string")?.to_owned(),
        }),
        (None, None) => Err("request needs a \"path\" or \"text\" source".to_owned()),
    }
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or(format!("{key:?} must be a boolean")),
    }
}

fn analyze_opts(doc: &Json) -> Result<AnalyzeOptions, String> {
    Ok(AnalyzeOptions {
        diagram: bool_field(doc, "diagram")?,
        dot: bool_field(doc, "dot")?,
        baselines: bool_field(doc, "baselines")?,
        slack: bool_field(doc, "slack")?,
        default_delay: match doc.get("default_delay") {
            None => 1.0,
            Some(v) => v.as_f64().ok_or("\"default_delay\" must be a number")?,
        },
        corners: corners_of(doc)?,
        derate: match doc.get("derate") {
            None => 10.0,
            Some(v) => v
                .as_f64()
                .filter(|d| d.is_finite() && *d >= 0.0 && *d < 100.0)
                .ok_or("\"derate\" must be a percentage in [0, 100)")?,
        },
        samples: match doc.get("samples") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|s| s.fract() == 0.0 && *s >= 1.0 && *s <= 4096.0)
                .map(|s| s as usize)
                .ok_or("\"samples\" must be an integer in 1..=4096")?,
        },
        seed: match doc.get("seed") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|s| s.fract() == 0.0 && *s >= 0.0 && *s <= u32::MAX as f64)
                .map(|s| s as u64)
                .ok_or("\"seed\" must be a non-negative integer")?,
        },
    })
}

/// Extracts the optional `corners` field: a `"min,typ,max"` string or
/// an array of corner names, each parsed strictly.
fn corners_of(doc: &Json) -> Result<Vec<Corner>, String> {
    let Some(v) = doc.get("corners") else {
        return Ok(Vec::new());
    };
    let names: Vec<String> = if let Some(s) = v.as_str() {
        s.split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(str::to_owned)
            .collect()
    } else if let Some(items) = v.as_array() {
        items
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_owned)
                    .ok_or("\"corners\" entries must be strings".to_owned())
            })
            .collect::<Result<_, _>>()?
    } else {
        return Err("\"corners\" must be a string or array of corner names".to_owned());
    };
    if names.is_empty() {
        return Err("\"corners\" must name at least one corner".to_owned());
    }
    names
        .iter()
        .map(|n| n.parse::<Corner>().map_err(|e| e.to_string()))
        .collect()
}

fn sim_opts(doc: &Json) -> Result<SimOptions, String> {
    Ok(SimOptions {
        periods: match doc.get("periods") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|p| p.fract() == 0.0 && *p >= 1.0 && *p <= u32::MAX as f64)
                    .map(|p| p as u32)
                    .ok_or("\"periods\" must be a positive integer")?,
            ),
        },
        horizon: match doc.get("horizon") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|h| h.is_finite() && *h > 0.0)
                    .ok_or("\"horizon\" must be a positive number")?,
            ),
        },
        vcd: None,
        default_delay: match doc.get("default_delay") {
            None => None,
            Some(v) => Some(v.as_f64().ok_or("\"default_delay\" must be a number")?),
        },
    })
}

/// One frame the streaming [`FrameDecoder`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete request line (without its newline), lossily decoded:
    /// invalid UTF-8 reaches the parser and fails there with a
    /// structured response instead of killing the connection.
    Line(String),
    /// A line that exceeded the byte cap. Its bytes were discarded as
    /// they arrived — the decoder never buffers more than the cap — and
    /// the frame surfaces once the terminating newline (or EOF) shows
    /// where the next request starts.
    Oversized,
}

/// Incremental newline-frame decoder: the one framing of every serve
/// transport.
///
/// The readiness event loop reads whatever bytes a socket has — a
/// dribbling client may deliver one byte per poll tick — and feeds them
/// here; the decoder buffers the partial frame (bounded by the
/// `max_request_bytes` cap) and emits each request line exactly once as
/// its newline arrives, so a request split across arbitrarily many
/// reads resumes where it left off. Oversized lines are skipped in
/// place: the buffer is dropped, subsequent bytes are discarded
/// unbuffered, and one [`Frame::Oversized`] is emitted at the line's
/// end.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Byte cap on one line's content (the newline is not counted).
    cap: usize,
    /// The partial frame accumulated so far; never grows past `cap`.
    buf: Vec<u8>,
    /// Mid-skip of an oversized line: discard until the next newline.
    skipping: bool,
}

impl FrameDecoder {
    /// A decoder capping each line's content at `cap` bytes.
    pub fn new(cap: usize) -> Self {
        FrameDecoder {
            cap,
            buf: Vec::new(),
            skipping: false,
        }
    }

    /// True while a frame is partially buffered (or being skipped) —
    /// i.e. the peer owes us the rest of a line.
    pub fn mid_frame(&self) -> bool {
        self.skipping || !self.buf.is_empty()
    }

    /// Consumes one read's worth of bytes, appending every frame they
    /// complete to `out` in arrival order.
    pub fn feed_into(&mut self, mut bytes: &[u8], out: &mut Vec<Frame>) {
        while !bytes.is_empty() {
            let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
                // No newline: buffer (or keep skipping) and wait.
                if !self.skipping {
                    if self.buf.len() + bytes.len() > self.cap {
                        self.buf.clear();
                        self.skipping = true;
                    } else {
                        self.buf.extend_from_slice(bytes);
                    }
                }
                return;
            };
            let (head, rest) = bytes.split_at(nl);
            bytes = &rest[1..];
            if self.skipping {
                self.skipping = false;
                out.push(Frame::Oversized);
            } else if self.buf.len() + head.len() > self.cap {
                self.buf.clear();
                out.push(Frame::Oversized);
            } else {
                self.buf.extend_from_slice(head);
                out.push(Frame::Line(String::from_utf8_lossy(&self.buf).into_owned()));
                self.buf.clear();
            }
        }
    }

    /// Flushes the partial frame at EOF: a client that half-closes
    /// without a trailing newline still gets its last request served
    /// (or its oversized line answered).
    pub fn finish(&mut self) -> Option<Frame> {
        if self.skipping {
            self.skipping = false;
            return Some(Frame::Oversized);
        }
        if self.buf.is_empty() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        Some(Frame::Line(line))
    }
}

/// A successful `analyze`/`sim` response.
pub fn ok_response(id: &Json, output: &str) -> String {
    text_response(id, true, "output", output)
}

/// A per-request failure response (the request slot stays isolated: the
/// service keeps running).
pub fn err_response(id: &Json, error: &str) -> String {
    text_response(id, false, "error", error)
}

/// `{"id":…,"ok":…,"<key>":"<text>"}`, the bytes `Json::Obj(…).dump()`
/// gives, written straight into one buffer sized for `text` instead of
/// through a cloned `Json::Str`.
fn text_response(id: &Json, ok: bool, key: &str, text: &str) -> String {
    // Escapes lengthen the text a little (a report has one `\n` per
    // line); 1/16 covers that without a second allocation.
    let mut out = String::with_capacity(text.len() + text.len() / 16 + 64);
    out.push_str("{\"id\":");
    id.write(&mut out);
    out.push_str(if ok {
        ",\"ok\":true,"
    } else {
        ",\"ok\":false,"
    });
    json::write_string(key, &mut out);
    out.push(':');
    json::write_string(text, &mut out);
    out.push('}');
    out
}

/// A *structured* failure response: `code` is the machine-readable
/// category a client branches on (`"deadline_exceeded"`, `"cancelled"`,
/// `"overloaded"`, `"request_too_large"`), `error` the human-facing
/// message, and `detail` extra fields (progress counts, queue depth,
/// retry hints) appended verbatim.
pub fn coded_err_response(id: &Json, code: &str, error: &str, detail: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::Bool(false)),
        ("code".to_owned(), Json::from(code)),
        ("error".to_owned(), Json::from(error)),
    ];
    for (key, value) in detail {
        fields.push(((*key).to_owned(), value.clone()));
    }
    Json::Obj(fields).dump()
}

/// The `overloaded` rejection an admission-controlled pool answers with
/// when its pending queue is full: carries the observed queue depth and
/// a retry-after backoff hint.
pub fn overloaded_response(id: &Json, queue_depth: usize, retry_after_ms: u64) -> String {
    coded_err_response(
        id,
        "overloaded",
        &format!(
            "pool is overloaded: {queue_depth} request(s) pending; \
             retry after {retry_after_ms} ms or raise --max-pending"
        ),
        &[
            ("queue_depth", Json::from(queue_depth as u64)),
            ("retry_after_ms", Json::from(retry_after_ms)),
        ],
    )
}

/// The `worker_lost` failure: the worker executing this request died
/// outside the per-request isolation boundary (a crash, not a caught
/// handler panic) and the pool respawned it with a fresh workspace. The
/// request may or may not have taken effect, so clients should treat it
/// like a timeout: retry idempotent work, and expect any incremental
/// sessions the dead worker held to be gone (follow-up session requests
/// answer "no session named ..." — reopen and replay).
pub fn worker_lost_response(id: &Json) -> String {
    coded_err_response(
        id,
        "worker_lost",
        "the worker executing this request died and was respawned; \
         retry, and reopen any incremental sessions it held",
        &[],
    )
}

/// The `request_too_large` rejection for a frame over the configured
/// line limit. The line is discarded unread, so no `id` can be echoed.
pub fn too_large_response(limit: usize) -> String {
    coded_err_response(
        &Json::Null,
        "request_too_large",
        &format!("request line exceeds the {limit}-byte limit (--max-request-bytes)"),
        &[("limit_bytes", Json::from(limit as u64))],
    )
}

/// A `batch` response: per-item results in input order.
pub fn batch_response(id: &Json, results: &[Result<String, String>]) -> String {
    let items: Vec<Json> = results
        .iter()
        .map(|r| match r {
            Ok(output) => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("output".to_owned(), Json::from(output.as_str())),
            ]),
            Err(e) => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(false)),
                ("error".to_owned(), Json::from(e.as_str())),
            ]),
        })
        .collect();
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::Bool(true)),
        ("results".to_owned(), Json::Arr(items)),
    ])
    .dump()
}

/// A `stats` response: counters cover requests *completed* before this
/// one executed (the stats request itself is excluded). `kernel` is the
/// wide-kernel backend the pool's workspaces run on; the
/// robustness counters let operators see degradation (rejections,
/// deadline aborts, timed-out clients) instead of guessing.
pub fn stats_response(id: &Json, stats: &ServeStats, kernel: &str) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::Bool(true)),
        ("served".to_owned(), Json::from(stats.served)),
        ("failed".to_owned(), Json::from(stats.failed)),
        ("threads".to_owned(), Json::from(stats.threads as u64)),
        ("kernel".to_owned(), Json::from(kernel)),
        (
            "queue_depth".to_owned(),
            Json::from(stats.queue_depth as u64),
        ),
        (
            "rejected_overloaded".to_owned(),
            Json::from(stats.rejected_overloaded),
        ),
        (
            "deadline_exceeded".to_owned(),
            Json::from(stats.deadline_exceeded),
        ),
        ("cancelled".to_owned(), Json::from(stats.cancelled)),
        (
            "timed_out_connections".to_owned(),
            Json::from(stats.timed_out_connections),
        ),
        (
            "drained_in_flight".to_owned(),
            Json::from(stats.drained_in_flight),
        ),
        ("worker_lost".to_owned(), Json::from(stats.worker_lost)),
        (
            "worker_respawns".to_owned(),
            Json::from(stats.worker_respawns),
        ),
        (
            "active_connections".to_owned(),
            Json::from(stats.active_connections as u64),
        ),
        (
            "scenario_requests".to_owned(),
            Json::from(stats.scenario_requests),
        ),
        (
            "scenario_lanes".to_owned(),
            Json::from(stats.scenario_lanes),
        ),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_analyze_with_options() {
        let r = parse_request(r#"{"id":7,"cmd":"analyze","path":"a.g","baselines":true}"#).unwrap();
        assert_eq!(r.id, Json::Num(7.0));
        let Command::Analyze { source, opts } = r.cmd else {
            panic!("wrong cmd");
        };
        assert_eq!(source.name(), "a.g");
        assert!(opts.baselines);
        assert!(!opts.slack);
        assert_eq!(opts.default_delay, 1.0);
    }

    #[test]
    fn parses_inline_sim_source() {
        let r =
            parse_request(r#"{"cmd":"sim","text":".model m","name":"m.g","periods":3}"#).unwrap();
        assert_eq!(r.id, Json::Null);
        let Command::Sim { source, opts } = r.cmd else {
            panic!("wrong cmd");
        };
        assert_eq!(source.name(), "m.g");
        assert_eq!(source.read().unwrap(), ".model m");
        assert_eq!(opts.periods, Some(3));
    }

    #[test]
    fn parses_queue_kind_and_rejects_unknown() {
        // There is one event queue, so "queue" is not a sim field: any
        // value, string or not, is an unknown field.
        let r = parse_request(r#"{"cmd":"sim","path":"c.ckt"}"#).unwrap();
        assert!(matches!(r.cmd, Command::Sim { .. }));
        for name in ["heap", "binary_heap", "calendar", "splay"] {
            let line = format!(r#"{{"cmd":"sim","path":"c.ckt","queue":"{name}"}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(e.contains("unknown field \"queue\""), "{name}: {e}");
        }
        let (_, e) = parse_request(r#"{"cmd":"sim","path":"c.ckt","queue":1}"#).unwrap_err();
        assert!(e.contains("unknown field \"queue\""), "{e}");
    }

    #[test]
    fn parses_kernel_backend_and_rejects_unknown() {
        // The CPU picks the kernel backend, so "kernel" is not a field
        // of any request.
        let r = parse_request(r#"{"cmd":"analyze","path":"a.g"}"#).unwrap();
        assert!(matches!(r.cmd, Command::Analyze { .. }));
        let r = parse_request(r#"{"cmd":"batch","paths":["a.g"]}"#).unwrap();
        assert!(matches!(r.cmd, Command::Batch { .. }));
        for line in [
            r#"{"cmd":"analyze","path":"a.g","kernel":"portable"}"#,
            r#"{"cmd":"analyze","path":"a.g","kernel":"avx512"}"#,
            r#"{"cmd":"batch","paths":["a.g"],"kernel":"sse2"}"#,
            r#"{"cmd":"sim","path":"a.g","kernel":"avx2"}"#,
        ] {
            let (_, e) = parse_request(line).unwrap_err();
            assert!(e.contains("unknown field \"kernel\""), "{line}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_fields_and_vcd() {
        let (id, e) =
            parse_request(r#"{"id":"x","cmd":"analyze","path":"a.g","wat":1}"#).unwrap_err();
        assert_eq!(id, Json::Str("x".into()));
        assert!(e.contains("unknown field \"wat\""), "{e}");
        let (_, e) = parse_request(r#"{"cmd":"sim","path":"a.g","vcd":"w.vcd"}"#).unwrap_err();
        assert!(e.contains("one-shot CLI"), "{e}");
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":1}"#, "needs a \"cmd\""),
            (r#"{"cmd":"frob"}"#, "unknown cmd"),
            (r#"{"cmd":"analyze"}"#, "\"path\" or \"text\""),
            (r#"{"cmd":"analyze","path":"a.g","text":"x"}"#, "not both"),
            (r#"{"cmd":"analyze","path":"a.g","name":"x"}"#, "inline"),
            (
                r#"{"cmd":"sim","path":"a.g","periods":0}"#,
                "positive integer",
            ),
            (
                r#"{"cmd":"sim","path":"a.g","periods":1.5}"#,
                "positive integer",
            ),
            (
                r#"{"cmd":"sim","path":"a.g","horizon":-2}"#,
                "positive number",
            ),
            (r#"{"cmd":"batch"}"#, "\"paths\""),
            (r#"{"cmd":"batch","paths":[1]}"#, "array of strings"),
            (r#"{"cmd":"stats","path":"a.g"}"#, "unknown field"),
        ] {
            let (_, e) = parse_request(line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn parses_structural_edit_ops() {
        let line = concat!(
            r#"{"cmd":"session.edit","session":"s","edits":["#,
            r#"{"src":"a+","dst":"c+","delay":5},"#,
            r#"{"op":"delay","src":"a+","dst":"c+","delay":6},"#,
            r#"{"op":"add_event","label":"s+"},"#,
            r#"{"op":"add_arc","src":"a+","dst":"s+","delay":1},"#,
            r#"{"op":"add_arc","src":"s+","dst":"c+","delay":1,"marked":true},"#,
            r#"{"op":"remove_arc","src":"a+","dst":"c+"},"#,
            r#"{"op":"remove_event","label":"s+"}]}"#
        );
        let r = parse_request(line).unwrap();
        let Command::SessionEdit { session, edits } = r.cmd else {
            panic!("wrong cmd");
        };
        assert_eq!(session, "s");
        assert_eq!(edits.len(), 7);
        // The bare legacy form and the explicit "op":"delay" form parse
        // to the same variant.
        assert!(matches!(&edits[0], EditOp::Delay(s) if s.delay == 5.0));
        assert!(matches!(&edits[1], EditOp::Delay(s) if s.delay == 6.0));
        assert!(matches!(&edits[2], EditOp::AddEvent { label } if label == "s+"));
        assert!(matches!(&edits[3], EditOp::AddArc { marked: false, .. }));
        assert!(matches!(&edits[4], EditOp::AddArc { marked: true, .. }));
        assert!(matches!(&edits[5], EditOp::RemoveArc { src, dst } if src == "a+" && dst == "c+"));
        assert!(matches!(&edits[6], EditOp::RemoveEvent { label } if label == "s+"));
    }

    #[test]
    fn rejects_malformed_edit_ops() {
        for (edit, needle) in [
            (r#"{"op":"frob"}"#, "unknown edit op"),
            (r#"{"op":"delay","src":"a+","dst":"c+"}"#, "\"delay\""),
            (r#"{"op":"add_arc","src":"a+","delay":1}"#, "\"dst\""),
            (
                r#"{"op":"add_arc","src":"a+","dst":"b+","delay":1,"marked":3}"#,
                "boolean",
            ),
            (r#"{"op":"add_event"}"#, "\"label\""),
            (r#"{"op":"add_event","label":""}"#, "non-empty"),
            (
                r#"{"op":"remove_arc","src":"a+","dst":"b+","delay":1}"#,
                "unknown edit field",
            ),
            (
                r#"{"src":"a+","dst":"b+","delay":1,"marked":true}"#,
                "unknown edit field",
            ),
            (r#"{"op":"remove_event","src":"a+"}"#, "unknown edit field"),
            (r#"7"#, "JSON object"),
        ] {
            let line = format!(r#"{{"cmd":"session.edit","session":"s","edits":[{edit}]}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(e.contains(needle), "{edit}: {e}");
        }
    }

    #[test]
    fn parses_session_explore_with_defaults_and_bounds() {
        let r = parse_request(r#"{"cmd":"session.explore","session":"s"}"#).unwrap();
        let Command::SessionExplore {
            session,
            moves,
            seed,
            objective,
            samples,
        } = r.cmd
        else {
            panic!("wrong cmd");
        };
        assert_eq!((session.as_str(), moves, seed), ("s", 16, 0));
        assert_eq!((objective, samples), (Objective::Tau, 16));
        let r = parse_request(
            r#"{"cmd":"session.explore","session":"s","moves":64,"seed":7,"objective":"tau-p95","samples":8}"#,
        )
        .unwrap();
        assert_eq!(r.cmd.session_name(), Some("s"));
        let Command::SessionExplore {
            moves,
            seed,
            objective,
            samples,
            ..
        } = r.cmd
        else {
            panic!("wrong cmd");
        };
        assert_eq!((moves, seed), (64, 7));
        assert_eq!((objective, samples), (Objective::TauP95, 8));
        for (bad, needle) in [
            (r#""moves":0"#, "\"moves\""),
            (r#""moves":2.5"#, "\"moves\""),
            (r#""seed":-1"#, "\"seed\""),
            (r#""objective":"area""#, "unknown objective"),
            (r#""samples":0"#, "\"samples\""),
            (r#""edits":[]"#, "unknown field"),
        ] {
            let line = format!(r#"{{"cmd":"session.explore","session":"s",{bad}}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn parses_scenario_fields_and_rejects_bad_ones() {
        let r =
            parse_request(r#"{"cmd":"analyze","path":"a.g","corners":"min,typ,max","derate":5}"#)
                .unwrap();
        let Command::Analyze { opts, .. } = r.cmd else {
            panic!("wrong cmd");
        };
        assert_eq!(opts.corners, [Corner::Min, Corner::Typ, Corner::Max]);
        assert_eq!(opts.derate, 5.0);
        let r = parse_request(
            r#"{"cmd":"batch","paths":["a.g"],"corners":["max"],"samples":3,"seed":9}"#,
        )
        .unwrap();
        let Command::Batch { opts, .. } = r.cmd else {
            panic!("wrong cmd");
        };
        assert_eq!(opts.corners, [Corner::Max]);
        assert_eq!((opts.samples, opts.seed), (3, 9));
        for (bad, needle) in [
            (r#""corners":"fast""#, "unknown corner"),
            (r#""corners":"""#, "at least one"),
            (r#""corners":7"#, "\"corners\""),
            (r#""derate":100"#, "\"derate\""),
            (r#""derate":-1"#, "\"derate\""),
            (r#""samples":0"#, "\"samples\""),
            (r#""samples":1.5"#, "\"samples\""),
            (r#""seed":-3"#, "\"seed\""),
        ] {
            let line = format!(r#"{{"cmd":"analyze","path":"a.g",{bad}}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
        let (_, e) = parse_request(r#"{"cmd":"sim","path":"a.g","corners":"min"}"#).unwrap_err();
        assert!(e.contains("unknown field"), "{e}");
    }

    #[test]
    fn parses_and_validates_deadlines() {
        let r = parse_request(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(r.deadline, None);
        let r = parse_request(r#"{"cmd":"analyze","path":"a.g","deadline_ms":250}"#).unwrap();
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        let r = parse_request(r#"{"cmd":"sim","path":"a.g","deadline_ms":0.5}"#).unwrap();
        assert_eq!(r.deadline, Some(Duration::from_micros(500)));
        for bad in ["0", "-5", "1e400", "\"fast\"", "null"] {
            let line = format!(r#"{{"cmd":"stats","deadline_ms":{bad}}}"#);
            let (_, e) = parse_request(&line).unwrap_err();
            assert!(
                e.contains("\"deadline_ms\"") || e.contains("invalid JSON"),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn structured_errors_carry_codes_and_detail() {
        let line = overloaded_response(&Json::Num(9.0), 32, 50);
        assert_eq!(
            line,
            concat!(
                r#"{"id":9,"ok":false,"code":"overloaded","#,
                r#""error":"pool is overloaded: 32 request(s) pending; "#,
                r#"retry after 50 ms or raise --max-pending","#,
                r#""queue_depth":32,"retry_after_ms":50}"#
            )
        );
        let line = too_large_response(1024);
        assert!(line.contains(r#""code":"request_too_large""#), "{line}");
        assert!(line.contains(r#""limit_bytes":1024"#), "{line}");
        assert!(line.starts_with(r#"{"id":null,"ok":false"#), "{line}");
    }

    #[test]
    fn text_responses_equal_the_json_tree_dump() {
        let ids = [
            Json::Null,
            Json::Num(3.0),
            Json::Num(-2.5),
            Json::from("req \"7\"\n"),
            Json::Arr(vec![Json::Bool(true), Json::Obj(vec![])]),
        ];
        let texts = [
            "",
            "cycle time: 10\n",
            "δ(1)=3/1=3.0000\t\u{1}\\\"",
            "日本\r\n",
        ];
        for id in &ids {
            for text in texts {
                for (ok, key) in [(true, "output"), (false, "error")] {
                    let tree = Json::Obj(vec![
                        ("id".to_owned(), id.clone()),
                        ("ok".to_owned(), Json::Bool(ok)),
                        (key.to_owned(), Json::from(text)),
                    ])
                    .dump();
                    let direct = if ok {
                        ok_response(id, text)
                    } else {
                        err_response(id, text)
                    };
                    assert_eq!(direct, tree);
                }
            }
        }
    }

    #[test]
    fn responses_echo_ids_and_escape_output() {
        assert_eq!(
            ok_response(&Json::Num(3.0), "line1\nline2\n"),
            r#"{"id":3,"ok":true,"output":"line1\nline2\n"}"#
        );
        assert_eq!(
            err_response(&Json::Null, "bad \"quote\""),
            r#"{"id":null,"ok":false,"error":"bad \"quote\""}"#
        );
        let stats = ServeStats {
            served: 5,
            failed: 1,
            threads: 4,
            queue_depth: 2,
            rejected_overloaded: 1,
            deadline_exceeded: 3,
            cancelled: 0,
            timed_out_connections: 0,
            drained_in_flight: 0,
            worker_lost: 1,
            worker_respawns: 1,
            active_connections: 7,
            scenario_requests: 2,
            scenario_lanes: 6,
        };
        assert_eq!(
            stats_response(&Json::Str("s".into()), &stats, "avx2"),
            concat!(
                r#"{"id":"s","ok":true,"served":5,"failed":1,"threads":4,"kernel":"avx2","#,
                r#""queue_depth":2,"rejected_overloaded":1,"deadline_exceeded":3,"#,
                r#""cancelled":0,"timed_out_connections":0,"drained_in_flight":0,"#,
                r#""worker_lost":1,"worker_respawns":1,"active_connections":7,"#,
                r#""scenario_requests":2,"scenario_lanes":6}"#
            )
        );
        assert_eq!(
            batch_response(&Json::Num(1.0), &[Ok("a\n".into()), Err("e".into())]),
            r#"{"id":1,"ok":true,"results":[{"ok":true,"output":"a\n"},{"ok":false,"error":"e"}]}"#
        );
        let line = worker_lost_response(&Json::Num(9.0));
        assert!(
            line.starts_with(r#"{"id":9,"ok":false,"code":"worker_lost""#),
            "{line}"
        );
    }

    /// Feeds `chunks` into a fresh decoder and collects every frame.
    fn decode(cap: usize, chunks: &[&[u8]]) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new(cap);
        let mut out = Vec::new();
        for chunk in chunks {
            decoder.feed_into(chunk, &mut out);
        }
        if let Some(tail) = decoder.finish() {
            out.push(tail);
        }
        out
    }

    #[test]
    fn frame_decoder_resumes_across_arbitrary_chunking() {
        // One read, two frames.
        assert_eq!(
            decode(64, &[b"{\"id\":1}\n{\"id\":2}\n"]),
            [
                Frame::Line("{\"id\":1}".into()),
                Frame::Line("{\"id\":2}".into())
            ]
        );
        // Byte-at-a-time dribble reassembles into the same frames.
        let script = b"{\"id\":1}\n{\"id\":2}\n";
        let bytes: Vec<&[u8]> = script.chunks(1).collect();
        assert_eq!(
            decode(64, &bytes),
            [
                Frame::Line("{\"id\":1}".into()),
                Frame::Line("{\"id\":2}".into())
            ]
        );
        // A split anywhere mid-frame resumes without loss.
        assert_eq!(
            decode(64, &[b"{\"id\"", b":1}\n{\"i", b"d\":2}\n"]),
            [
                Frame::Line("{\"id\":1}".into()),
                Frame::Line("{\"id\":2}".into())
            ]
        );
    }

    #[test]
    fn frame_decoder_skips_oversized_lines_in_bounded_memory() {
        // A line one byte over the cap is oversized; the cap itself fits.
        assert_eq!(
            decode(4, &[b"abcd\nabcde\nok!\n"]),
            [
                Frame::Line("abcd".into()),
                Frame::Oversized,
                Frame::Line("ok!".into())
            ]
        );
        // The oversized line's bytes are discarded as they stream in:
        // the buffer never holds more than the cap even for a huge line.
        let mut decoder = FrameDecoder::new(8);
        let mut out = Vec::new();
        for _ in 0..1000 {
            decoder.feed_into(b"xxxxxxxxxxxxxxxx", &mut out);
            assert!(decoder.buf.len() <= 8, "buffer stays under the cap");
        }
        assert!(out.is_empty(), "no frame until the line ends");
        assert!(decoder.mid_frame());
        decoder.feed_into(b"\nok\n", &mut out);
        assert_eq!(out, [Frame::Oversized, Frame::Line("ok".into())]);
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn frame_decoder_flushes_partial_frame_at_eof() {
        // No trailing newline: EOF flushes the last request.
        assert_eq!(
            decode(64, &[b"{\"cmd\":\"stats\"}"]),
            [Frame::Line("{\"cmd\":\"stats\"}".into())]
        );
        // EOF mid-skip of an oversized line still reports it.
        assert_eq!(decode(2, &[b"abcdef"]), [Frame::Oversized]);
        // Invalid UTF-8 decodes lossily instead of killing the stream.
        let frames = decode(64, &[b"\xff\xfe{bad}\n"]);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0], Frame::Line(l) if l.contains("{bad}")));
    }
}

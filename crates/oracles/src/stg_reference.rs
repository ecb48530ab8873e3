//! The `.g` reader as it was before its single-scan rewrite: the
//! standard library's `lines()` and `split_whitespace()`, a bounds
//! pre-scan over every line up to the first `.marking`, `.delay` or
//! `.end`, and a hashed `(src, dst)` index for `.marking` / `.delay`
//! entries. `tsg_stg::parse_stg` must return what this returns — an
//! equal [`StgError`] or an equal graph — on every text.

use std::collections::HashMap;

use tsg_core::time::Delay;
use tsg_core::{EventId, SignalGraph, SignalGraphBuilder};
use tsg_stg::{StgError, StgOptions};

fn syntax(line: usize, message: impl Into<String>) -> StgError {
    StgError::Syntax {
        line,
        message: message.into(),
    }
}

/// The event label of STG transition token `token` (`a+`, `req-`,
/// `a+/1`) as `tsg-core` names it (`a+`, `req-`, `a#1+`): the token
/// itself, or for an indexed token the label written into `buf`. `None`
/// for tokens that are not signal transitions.
fn transition<'t>(token: &'t str, buf: &'t mut String) -> Option<&'t str> {
    let (stem, index) = match token.bytes().position(|b| b == b'/') {
        Some(at) => {
            let i = &token[at + 1..];
            if i.parse::<u32>().is_err() {
                return None;
            }
            (&token[..at], Some(i))
        }
        None => (token, None),
    };
    let name = stem.strip_suffix(['+', '-'])?;
    if name.is_empty() {
        return None;
    }
    let Some(i) = index else {
        return Some(token);
    };
    buf.clear();
    buf.push_str(name);
    buf.push('#');
    buf.push_str(i);
    buf.push_str(&stem[name.len()..]);
    Some(buf)
}

/// The label of a token already known to be a transition; for error
/// messages only.
fn label_of(token: &str) -> String {
    let mut buf = String::new();
    transition(token, &mut buf).unwrap_or("").to_owned()
}

/// One declared arc.
struct ArcSpec {
    src: EventId,
    dst: EventId,
    delay: Option<f64>,
    marked: bool,
    /// The next declared arc of the same pair ([`NO_ARC`] at the last).
    next: u32,
}

/// End of a pair's chain of parallel arcs.
const NO_ARC: u32 = u32::MAX;

/// Where the next `.delay` and the next `.marking` entry of a pair
/// bind, and the pair's last declared arc.
struct Cursors {
    delay: u32,
    mark: u32,
    last: u32,
}

/// The declared arcs, and how `.marking` / `.delay` entries find them.
struct Arcs {
    specs: Vec<ArcSpec>,
    /// `(src, dst)` → the pair's cursors.
    pairs: HashMap<(EventId, EventId), Cursors>,
}

impl Arcs {
    fn with_capacity(arcs: usize) -> Self {
        Arcs {
            specs: Vec::with_capacity(arcs),
            pairs: HashMap::with_capacity(arcs),
        }
    }

    /// Declares the next arc `src -> dst`.
    fn declare(&mut self, src: EventId, dst: EventId) {
        let id = self.specs.len() as u32;
        let pair = self.pairs.entry((src, dst)).or_insert(Cursors {
            delay: id,
            mark: id,
            last: id,
        });
        if pair.last != id {
            self.specs[pair.last as usize].next = id;
            pair.last = id;
        }
        self.specs.push(ArcSpec {
            src,
            dst,
            delay: None,
            marked: false,
            next: NO_ARC,
        });
    }

    /// The arc a `.delay` (when `delay`) or `.marking` reference to
    /// `src -> dst` binds to, for tokens `s` and `d` already known to be
    /// transitions: the k-th entry of a pair binds to the k-th declared
    /// arc of that pair, and entries beyond the pair's arc count stay on
    /// its last arc. An unseen label or an undeclared pair is
    /// [`StgError::UnknownArc`].
    fn bind(
        &mut self,
        delay: bool,
        (src, dst): (Option<EventId>, Option<EventId>),
        s: &str,
        d: &str,
    ) -> Result<&mut ArcSpec, StgError> {
        let pair = src
            .zip(dst)
            .and_then(|key| self.pairs.get_mut(&key))
            .ok_or_else(|| StgError::UnknownArc {
                src: label_of(s),
                dst: label_of(d),
            })?;
        let at = if delay {
            &mut pair.delay
        } else {
            &mut pair.mark
        };
        let arc = *at as usize;
        if self.specs[arc].next != NO_ARC {
            *at = self.specs[arc].next;
        }
        Ok(&mut self.specs[arc])
    }
}

/// The line with its `#` comment cut off and its ends trimmed.
fn content(raw: &str) -> &str {
    let end = raw.bytes().position(|b| b == b'#').unwrap_or(raw.len());
    raw[..end].trim()
}

/// Bounds on the events, the arcs and the label bytes of a `.g` text,
/// from one scan of its arc lines up to the first `.marking`, `.delay`
/// or `.end` directive: each event is first named by an arc-line token,
/// whose label is as long as the token, and each arc-line token after
/// the first declares one arc.
///
/// The bounds size allocations and nothing else. A text that declares
/// arcs after those directives still loads; it may only reallocate on
/// the way.
fn bounds(text: &str) -> (usize, usize, usize) {
    let (mut tokens, mut arcs, mut bytes) = (0, 0, 0);
    for line in text.lines() {
        if let Some(directive) = line.trim_start().strip_prefix('.') {
            if ["marking", "delay", "end"]
                .iter()
                .any(|d| directive.starts_with(d))
            {
                break;
            }
            continue;
        }
        let mut words = content(line).split_whitespace();
        let Some(first) = words.next() else {
            continue;
        };
        bytes += first.len();
        tokens += 1;
        for word in words {
            bytes += word.len();
            tokens += 1;
            arcs += 1;
        }
    }
    (tokens, arcs, bytes)
}

/// Parses `.g` text the way `tsg_stg::parse_stg` did before its
/// single-scan rewrite.
///
/// # Errors
///
/// Returns [`StgError`] on syntax problems, non-marked-graph features,
/// dangling marking/delay references, or structural invalidity of the
/// resulting graph.
pub fn parse_stg(text: &str, options: StgOptions) -> Result<SignalGraph, StgError> {
    let (events, arc_bound, label_bytes) = bounds(text);
    let mut b = SignalGraphBuilder::with_capacity(events, arc_bound, label_bytes);
    let mut arcs = Arcs::with_capacity(arc_bound);
    let mut buf = String::new();
    let mut in_graph = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut toks = content(raw).split_whitespace();
        let Some(first) = toks.next() else {
            continue;
        };
        let bad_transition = |tok: &str| syntax(lineno, format!("bad transition {tok:?}"));
        if let Some(name) = first.strip_prefix('.') {
            // `.graph` and `. graph` both name the directive `graph`.
            let name = if name.is_empty() {
                toks.next()
            } else {
                Some(name)
            };
            match name {
                Some("graph") => in_graph = true,
                Some("end") => in_graph = false,
                Some("marking") => {
                    let body = content(raw)[1..]
                        .strip_prefix("marking")
                        .unwrap_or("")
                        .trim()
                        .trim_start_matches('{')
                        .trim_end_matches('}');
                    for tok in body.split('<') {
                        let tok = tok.trim().trim_end_matches('>').trim();
                        if tok.is_empty() {
                            continue;
                        }
                        let (s, d) = tok
                            .split_once(',')
                            .ok_or_else(|| syntax(lineno, format!("bad marking token {tok:?}")))?;
                        let src =
                            transition(s.trim(), &mut buf).ok_or_else(|| bad_transition(s))?;
                        let src = b.event_by_label(src);
                        let dst =
                            transition(d.trim(), &mut buf).ok_or_else(|| bad_transition(d))?;
                        let dst = b.event_by_label(dst);
                        arcs.bind(false, (src, dst), s.trim(), d.trim())?.marked = true;
                    }
                }
                Some("delay") => {
                    let (Some(s), Some(d), Some(v), None) =
                        (toks.next(), toks.next(), toks.next(), toks.next())
                    else {
                        return Err(syntax(lineno, "expected `.delay SRC DST VALUE`"));
                    };
                    let src = transition(s, &mut buf).ok_or_else(|| bad_transition(s))?;
                    let src = b.event_by_label(src);
                    let dst = transition(d, &mut buf).ok_or_else(|| bad_transition(d))?;
                    let dst = b.event_by_label(dst);
                    let value: f64 = v
                        .parse()
                        .map_err(|_| syntax(lineno, format!("bad delay {v:?}")))?;
                    if Delay::new(value).is_err() {
                        let (s, d) = (label_of(s), label_of(d));
                        return Err(syntax(
                            lineno,
                            format!("bad delay {v:?} on {s} -> {d}: must be finite and >= 0"),
                        ));
                    }
                    arcs.bind(true, (src, dst), s, d)?.delay = Some(value);
                }
                // interface declarations carry no structure we need
                Some("model") | Some("inputs") | Some("outputs") | Some("internal")
                | Some("dummy") | Some("name") => {}
                Some(other) => return Err(syntax(lineno, format!("unknown directive .{other}"))),
                None => return Err(syntax(lineno, "empty directive")),
            }
            continue;
        }
        if !in_graph {
            return Err(syntax(lineno, "arc outside .graph section"));
        }
        let mut intern = |tok: &str| match transition(tok, &mut buf) {
            Some(label) => Ok(b.intern(label)),
            None => Err(StgError::NotMarkedGraph {
                line: lineno,
                token: tok.to_owned(),
            }),
        };
        let src = intern(first)?;
        for dst_tok in toks {
            arcs.declare(src, intern(dst_tok)?);
        }
    }

    for arc in &arcs.specs {
        let delay = arc.delay.unwrap_or(options.default_delay);
        if arc.marked {
            b.marked_arc(arc.src, arc.dst, delay);
        } else {
            b.arc(arc.src, arc.dst, delay);
        }
    }
    b.build().map_err(StgError::Invalid)
}

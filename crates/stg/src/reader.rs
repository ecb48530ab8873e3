//! `.g` parser (marked-graph subclass, with the `.delay` timing extension).

use std::collections::HashMap;
use std::fmt;

use tsg_core::time::Delay;
use tsg_core::{EventId, SignalGraph, SignalGraphBuilder, ValidationError};

/// Parser options.
#[derive(Clone, Copy, Debug)]
pub struct StgOptions {
    /// Delay assigned to arcs without a `.delay` annotation (default 1).
    pub default_delay: f64,
}

impl Default for StgOptions {
    fn default() -> Self {
        StgOptions { default_delay: 1.0 }
    }
}

/// Errors produced while parsing a `.g` file.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StgError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The STG uses explicit places or other non-marked-graph features.
    NotMarkedGraph {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `.marking`/`.delay` entry references an arc that was never
    /// declared in `.graph`.
    UnknownArc {
        /// Source transition as written.
        src: String,
        /// Destination transition as written.
        dst: String,
    },
    /// The marked graph failed Signal Graph validation (e.g. token-free
    /// cycle, not strongly connected).
    Invalid(ValidationError),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            StgError::NotMarkedGraph { line, token } => {
                write!(f, "line {line}: {token:?} is not a signal transition (explicit places are unsupported)")
            }
            StgError::UnknownArc { src, dst } => {
                write!(f, "marking/delay references unknown arc {src} -> {dst}")
            }
            StgError::Invalid(e) => write!(f, "not a valid live Signal Graph: {e}"),
        }
    }
}

impl std::error::Error for StgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StgError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

fn syntax(line: usize, message: impl Into<String>) -> StgError {
    StgError::Syntax {
        line,
        message: message.into(),
    }
}

/// Normalises an STG transition token (`a+`, `req-`, `a+/1`) into `out`
/// as the event label used by `tsg-core` (`a+`, `req-`, `a#1+`), reusing
/// `out`'s buffer.
///
/// Returns `false` (with `out` unspecified) for tokens that are not
/// signal transitions.
fn normalize(token: &str, out: &mut String) -> bool {
    let (stem, index) = match token.split_once('/') {
        Some((s, i)) => {
            if i.parse::<u32>().is_err() {
                return false;
            }
            (s, Some(i))
        }
        None => (token, None),
    };
    let (name, pol) = match (stem.strip_suffix('+'), stem.strip_suffix('-')) {
        (Some(name), _) => (name, '+'),
        (None, Some(name)) => (name, '-'),
        (None, None) => return false,
    };
    if name.is_empty() {
        return false;
    }
    out.clear();
    out.push_str(name);
    if let Some(i) = index {
        out.push('#');
        out.push_str(i);
    }
    out.push(pol);
    true
}

/// The normalised label of a token already known to be a transition;
/// for error messages only.
fn label_of(token: &str) -> String {
    let mut out = String::new();
    normalize(token, &mut out);
    out
}

/// Transition labels interned as dense ids in first-seen order, with one
/// reused normalisation buffer: looking up a known label allocates
/// nothing.
#[derive(Default)]
struct Transitions {
    ids: HashMap<String, u32>,
    buf: String,
}

impl Transitions {
    /// The id of `token`'s label: `None` when `token` is not a signal
    /// transition, `Some(None)` when its label has not been seen.
    fn lookup(&mut self, token: &str) -> Option<Option<u32>> {
        normalize(token, &mut self.buf).then(|| self.ids.get(self.buf.as_str()).copied())
    }

    /// The id of `token`'s label, assigning the next one on first sight;
    /// `None` when `token` is not a signal transition.
    fn intern(&mut self, token: &str) -> Option<u32> {
        let known = self.lookup(token)?;
        Some(known.unwrap_or_else(|| {
            let id = self.ids.len() as u32;
            self.ids.insert(self.buf.clone(), id);
            id
        }))
    }

    /// The labels indexed by id.
    fn into_labels(self) -> Vec<String> {
        let mut labels = vec![String::new(); self.ids.len()];
        for (label, id) in self.ids {
            labels[id as usize] = label;
        }
        labels
    }
}

/// One declared arc.
struct ArcSpec {
    src: u32,
    dst: u32,
    delay: Option<f64>,
    marked: bool,
    /// The next declared arc of the same pair ([`NO_ARC`] at the last).
    next: u32,
}

/// End of a pair's chain of parallel arcs.
const NO_ARC: u32 = u32::MAX;

/// Where the next `.delay` and the next `.marking` entry of a pair of
/// parallel arcs bind, and the pair's last declared arc.
struct Cursors {
    delay: u32,
    mark: u32,
    last: u32,
}

/// The declared arcs, and how `.marking` / `.delay` entries find them.
#[derive(Default)]
struct Arcs {
    specs: Vec<ArcSpec>,
    /// `(src, dst)` → the pair's first declared arc, and whether the
    /// pair was declared more than once.
    first: HashMap<(u32, u32), (u32, bool)>,
    /// The cursors of each pair declared more than once; pairs without
    /// parallel arcs — nearly all — have none.
    parallel: HashMap<(u32, u32), Cursors>,
}

impl Arcs {
    /// Declares the next arc `src -> dst`.
    fn declare(&mut self, src: u32, dst: u32) {
        let id = self.specs.len() as u32;
        let first = self.first.entry((src, dst)).or_insert((id, false));
        if first.0 != id {
            first.1 = true;
            let f = first.0;
            let pair = self.parallel.entry((src, dst)).or_insert(Cursors {
                delay: f,
                mark: f,
                last: f,
            });
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
        (src, dst): (Option<u32>, Option<u32>),
        s: &str,
        d: &str,
    ) -> Result<&mut ArcSpec, StgError> {
        let key = src.zip(dst);
        let &(first, parallel) =
            key.and_then(|key| self.first.get(&key))
                .ok_or_else(|| StgError::UnknownArc {
                    src: label_of(s),
                    dst: label_of(d),
                })?;
        let mut arc = first;
        if parallel {
            let pair = key.and_then(|key| self.parallel.get_mut(&key));
            let pair = pair.expect("a pair declared twice has cursors");
            let at = if delay {
                &mut pair.delay
            } else {
                &mut pair.mark
            };
            arc = *at;
            let next = self.specs[arc as usize].next;
            if next != NO_ARC {
                *at = next;
            }
        }
        Ok(&mut self.specs[arc as usize])
    }
}

/// Parses `.g` text into a validated [`SignalGraph`].
///
/// Loading is linear in the text size: each transition is interned once,
/// and `.marking` / `.delay` entries find their arc by hashed lookup.
///
/// Parallel arcs — one pair `src -> dst` declared more than once — keep
/// their own data: the k-th `.delay` line of a pair and the k-th
/// `.marking` entry of a pair bind to the k-th declared arc of that
/// pair, in declaration order. Entries beyond a pair's arc count bind
/// to its last arc, so a repeated `.delay` of a single arc overrides
/// the earlier one. [`write_stg`](crate::write_stg) writes every pair
/// in that order.
///
/// # Errors
///
/// Returns [`StgError`] on syntax problems, non-marked-graph features,
/// dangling marking/delay references, or structural invalidity of the
/// resulting graph.
pub fn parse_stg(text: &str, options: StgOptions) -> Result<SignalGraph, StgError> {
    let mut arcs = Arcs::default();
    let mut names = Transitions::default();
    let mut in_graph = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad_transition = |tok: &str| syntax(lineno, format!("bad transition {tok:?}"));
        if let Some(rest) = line.strip_prefix('.') {
            let mut words = rest.split_whitespace();
            match words.next() {
                Some("graph") => in_graph = true,
                Some("end") => in_graph = false,
                Some("marking") => {
                    let body = rest
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
                        let src = names.lookup(s.trim()).ok_or_else(|| bad_transition(s))?;
                        let dst = names.lookup(d.trim()).ok_or_else(|| bad_transition(d))?;
                        arcs.bind(false, (src, dst), s.trim(), d.trim())?.marked = true;
                    }
                }
                Some("delay") => {
                    let (Some(s), Some(d), Some(v), None) =
                        (words.next(), words.next(), words.next(), words.next())
                    else {
                        return Err(syntax(lineno, "expected `.delay SRC DST VALUE`"));
                    };
                    let src = names.lookup(s).ok_or_else(|| bad_transition(s))?;
                    let dst = names.lookup(d).ok_or_else(|| bad_transition(d))?;
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
        let not_transition = |tok: &str| StgError::NotMarkedGraph {
            line: lineno,
            token: tok.to_owned(),
        };
        let mut toks = line.split_whitespace();
        let src_tok = toks.next().expect("non-empty line has a token");
        let src = names
            .intern(src_tok)
            .ok_or_else(|| not_transition(src_tok))?;
        for dst_tok in toks {
            let dst = names
                .intern(dst_tok)
                .ok_or_else(|| not_transition(dst_tok))?;
            arcs.declare(src, dst);
        }
    }

    let labels = names.into_labels();
    let mut b = SignalGraphBuilder::with_capacity(labels.len(), arcs.specs.len());
    for label in &labels {
        b.event(label);
    }
    for arc in &arcs.specs {
        let (s, d) = (EventId(arc.src), EventId(arc.dst));
        let delay = arc.delay.unwrap_or(options.default_delay);
        if arc.marked {
            b.marked_arc(s, d, delay);
        } else {
            b.arc(s, d, delay);
        }
    }
    b.build().map_err(StgError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn parses_minimal_toggle() {
        let text = "\
.model toggle
.outputs x
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert_eq!(sg.event_count(), 2);
        assert_eq!(sg.arc_count(), 2);
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        assert_eq!(tau.as_f64(), 2.0); // two unit-delay arcs
    }

    #[test]
    fn delay_extension_applies() {
        let text = "\
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.delay x+ x- 3
.delay x- x+ 2.5
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        assert_eq!(tau.as_f64(), 5.5);
    }

    #[test]
    fn fanout_lines_expand() {
        let text = "\
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a+
.marking { <d+,a+> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert_eq!(sg.arc_count(), 5);
        assert_eq!(sg.event_count(), 4);
    }

    #[test]
    fn indexed_transitions_normalise() {
        let text = "\
.graph
a+/1 a-/1
a-/1 a+/1
.marking { <a-/1,a+/1> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert!(sg.event_by_label("a#1+").is_some());
    }

    #[test]
    fn explicit_places_rejected() {
        let text = "\
.graph
p0 a+
a+ p0
.end
";
        let err = parse_stg(text, StgOptions::default()).unwrap_err();
        assert!(matches!(err, StgError::NotMarkedGraph { .. }));
    }

    #[test]
    fn unknown_arc_in_marking() {
        let text = "\
.graph
x+ x-
x- x+
.marking { <x+,x+> }
.end
";
        assert!(matches!(
            parse_stg(text, StgOptions::default()),
            Err(StgError::UnknownArc { .. })
        ));
    }

    #[test]
    fn unmarked_stg_is_invalid() {
        let text = "\
.graph
x+ x-
x- x+
.end
";
        assert!(matches!(
            parse_stg(text, StgOptions::default()),
            Err(StgError::Invalid(_))
        ));
    }

    /// The exact error text for each class of malformed input.
    #[test]
    fn error_messages_are_pinned() {
        const HEAD: &str = ".graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n";
        let cases: &[(&str, &str)] = &[
            (".delay x+ x-\n", "line 5: expected `.delay SRC DST VALUE`"),
            (
                ".delay x+ x- 1 2\n",
                "line 5: expected `.delay SRC DST VALUE`",
            ),
            (".delay x x- 1\n", "line 5: bad transition \"x\""),
            (".delay x+ x-/a 1\n", "line 5: bad transition \"x-/a\""),
            (".marking { <x+, y> }\n", "line 5: bad transition \" y\""),
            (".marking { <y,x+> }\n", "line 5: bad transition \"y\""),
            (
                ".marking { <x+ x-> }\n",
                "line 5: bad marking token \"x+ x-\"",
            ),
            (".delay x+ x- fast\n", "line 5: bad delay \"fast\""),
            (
                ".delay x+ x- inf\n",
                "line 5: bad delay \"inf\" on x+ -> x-: must be finite and >= 0",
            ),
            (
                ".delay a+/1 x- 2\n",
                "marking/delay references unknown arc a#1+ -> x-",
            ),
            (
                ".marking { <x+/2,x-> }\n",
                "marking/delay references unknown arc x#2+ -> x-",
            ),
            (
                ".delay x- x- 2\n",
                "marking/delay references unknown arc x- -> x-",
            ),
            (".end\nx+ x-\n", "line 6: arc outside .graph section"),
            (
                "x+ p0\n",
                "line 5: \"p0\" is not a signal transition (explicit places are unsupported)",
            ),
            (".frob\n", "line 5: unknown directive .frob"),
            (".\n", "line 5: empty directive"),
        ];
        for (tail, want) in cases {
            let text = format!("{HEAD}{tail}.end\n");
            let err = parse_stg(&text, StgOptions::default()).unwrap_err();
            assert_eq!(err.to_string(), *want, "{tail:?}");
        }
        // A reference is only resolved against arcs declared before it.
        let early = ".graph\n.delay x+ x- 2\nx+ x-\nx- x+\n.end\n";
        assert_eq!(
            parse_stg(early, StgOptions::default())
                .unwrap_err()
                .to_string(),
            "marking/delay references unknown arc x+ -> x-"
        );
        // And an arc outside any section is caught on line 1.
        assert_eq!(
            parse_stg("x+ x-\n", StgOptions::default())
                .unwrap_err()
                .to_string(),
            "line 1: arc outside .graph section"
        );
    }

    #[test]
    fn out_of_domain_delays_name_the_line_and_arc() {
        for value in ["inf", "-inf", "NaN", "-1", "1e400"] {
            let text = format!(
                ".graph\na+/1 x-\nx- a+/1\n.marking {{ <x-,a+/1> }}\n.delay a+/1 x- {value}\n.end\n"
            );
            let err = parse_stg(&text, StgOptions::default()).unwrap_err();
            assert_eq!(
                err,
                StgError::Syntax {
                    line: 5,
                    message: format!(
                        "bad delay \"{value}\" on a#1+ -> x-: must be finite and >= 0"
                    ),
                }
            );
        }
    }

    #[test]
    fn first_declared_parallel_arc_takes_delay_and_marking() {
        let text = "\
.graph
x+ x- x-
x- x+
.marking { <x-,x+> <x+,x-> }
.delay x+ x- 3
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        let arcs = sg.arcs();
        assert_eq!(arcs.len(), 3);
        assert_eq!((arcs[0].delay().get(), arcs[0].is_marked()), (3.0, true));
        assert_eq!((arcs[1].delay().get(), arcs[1].is_marked()), (1.0, false));
    }

    #[test]
    fn kth_delay_and_marking_bind_to_the_kth_parallel_arc() {
        // Three parallel `x+ -> x-` arcs: the second `.delay` and the
        // second marking entry reach the second arc; the third arc
        // keeps the default. A single arc's repeated `.delay` overrides.
        let text = "\
.graph
x+ x- x- x-
x- x+
.marking { <x-,x+> <x+,x-> <x+,x-> }
.delay x+ x- 3
.delay x+ x- 5
.delay x- x+ 4
.delay x- x+ 6
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        let got: Vec<_> = sg
            .arcs()
            .iter()
            .map(|a| (a.delay().get(), a.is_marked()))
            .collect();
        assert_eq!(got, [(3.0, true), (5.0, true), (1.0, false), (6.0, true)]);
    }

    #[test]
    fn multibyte_tokens_are_not_transitions() {
        for token in ["aé", "é", "/", "+/1", "x\u{2212}"] {
            let text = format!(".graph\nx+ {token}\n.end\n");
            assert_eq!(
                parse_stg(&text, StgOptions::default()).unwrap_err(),
                StgError::NotMarkedGraph {
                    line: 2,
                    token: token.to_owned(),
                },
                "{token:?}"
            );
        }
        // A non-ASCII signal name with an ASCII polarity is fine.
        let text = ".graph\né+ é-\né- é+\n.marking { <é-,é+> }\n.end\n";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert!(sg.event_by_label("é+").is_some());
    }

    #[test]
    fn syntax_error_line_numbers() {
        let err = parse_stg("x+ x-\n", StgOptions::default()).unwrap_err();
        assert!(matches!(err, StgError::Syntax { line: 1, .. }));
    }
}

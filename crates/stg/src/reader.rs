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

/// One declared arc. The first declared arc of each pair `src -> dst`
/// also holds the pair's cursors: where its next `.delay` and next
/// `.marking` entry bind, and its last declared arc.
struct ArcSpec {
    src: EventId,
    dst: EventId,
    delay: Option<f64>,
    marked: bool,
    /// The next declared arc of the same pair ([`NONE`] at the last).
    next: u32,
    /// Where the pair's next `.delay` line binds.
    delay_at: u32,
    /// Where the pair's next `.marking` entry binds.
    mark_at: u32,
    /// The pair's last declared arc.
    last: u32,
}

/// No arc, or no event.
const NONE: u32 = u32::MAX;

/// An event as the reader met it: the token that first named it, and
/// the first arc it was declared the source of.
#[derive(Clone, Copy)]
struct Named<'t> {
    token: &'t str,
    first_arc: u32,
}

/// The graph being read: the builder, the declared arcs, and how
/// tokens and `.marking` / `.delay` entries find their events and arcs.
///
/// Two tokens name the same event exactly when they are equal: a
/// token holds no `#`, so its label spells it back. A token equal to
/// the last resolved event's first token therefore resolves without a
/// label lookup, and so does an entry's destination when it is the
/// destination of its source's first declared arc. Pairs are found
/// through a keyed pair index, O(1) whatever a source's out-degree.
struct Graph<'t> {
    b: SignalGraphBuilder,
    specs: Vec<ArcSpec>,
    /// By event id.
    events: Vec<Named<'t>>,
    /// `(src, dst)` → the pair's first arc.
    pairs: HashMap<(EventId, EventId), u32>,
    /// The last event a token resolved to ([`NONE`] before the first).
    last: u32,
    /// Room for an indexed token's label.
    buf: String,
}

impl<'t> Graph<'t> {
    fn new((events, arcs, label_bytes): (usize, usize, usize)) -> Self {
        Graph {
            b: SignalGraphBuilder::with_capacity(events, arcs, label_bytes),
            specs: Vec::with_capacity(arcs),
            events: Vec::with_capacity(events),
            pairs: HashMap::with_capacity(arcs),
            last: NONE,
            buf: String::new(),
        }
    }

    /// Event `e` when `token` is the token that first named it.
    fn named(&self, e: u32, token: &str) -> Option<EventId> {
        let named = self.events.get(e as usize)?;
        (named.token == token).then_some(EventId(e))
    }

    /// The event of arc-line token `token`, added on first sight.
    fn intern(&mut self, token: &'t str, line: usize) -> Result<EventId, StgError> {
        if let Some(e) = self.named(self.last, token) {
            return Ok(e);
        }
        let Some(label) = transition(token, &mut self.buf) else {
            return Err(StgError::NotMarkedGraph {
                line,
                token: token.to_owned(),
            });
        };
        let e = self.b.intern(label);
        if e.index() == self.events.len() {
            self.events.push(Named {
                token,
                first_arc: NONE,
            });
        }
        self.last = e.0;
        Ok(e)
    }

    /// The event a `.marking` / `.delay` token names, if any; `hint` is
    /// an event it is likely to name. The token is `written` with its
    /// surrounding whitespace trimmed.
    fn find(&mut self, written: &str, hint: u32, line: usize) -> Result<Option<EventId>, StgError> {
        let token = written.trim();
        if let Some(e) = self
            .named(hint, token)
            .or_else(|| self.named(self.last, token))
        {
            self.last = e.0;
            return Ok(Some(e));
        }
        let Some(label) = transition(token, &mut self.buf) else {
            return Err(syntax(line, format!("bad transition {written:?}")));
        };
        let found = self.b.event_by_label(label);
        if let Some(e) = found {
            self.last = e.0;
        }
        Ok(found)
    }

    /// The destination of `src`'s first declared arc ([`NONE`] if
    /// none): the likely destination of an entry naming `src`.
    fn first_dst(&self, src: Option<EventId>) -> u32 {
        src.and_then(|s| self.specs.get(self.events[s.index()].first_arc as usize))
            .map_or(NONE, |arc| arc.dst.0)
    }

    /// Declares the next arc `src -> dst`.
    fn declare(&mut self, src: EventId, dst: EventId) {
        let id = self.specs.len() as u32;
        let head = *self.pairs.entry((src, dst)).or_insert(id);
        let first = &mut self.events[src.index()].first_arc;
        if *first == NONE {
            *first = id;
        }
        if head != id {
            let last = std::mem::replace(&mut self.specs[head as usize].last, id);
            self.specs[last as usize].next = id;
        }
        self.specs.push(ArcSpec {
            src,
            dst,
            delay: None,
            marked: false,
            next: NONE,
            delay_at: id,
            mark_at: id,
            last: id,
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
        let head = src
            .zip(dst)
            .and_then(|key| self.pairs.get(&key).copied())
            .ok_or_else(|| StgError::UnknownArc {
                src: label_of(s),
                dst: label_of(d),
            })?;
        let pair = &self.specs[head as usize];
        let at = if delay { pair.delay_at } else { pair.mark_at };
        let next = self.specs[at as usize].next;
        if next != NONE {
            let pair = &mut self.specs[head as usize];
            if delay {
                pair.delay_at = next;
            } else {
                pair.mark_at = next;
            }
        }
        Ok(&mut self.specs[at as usize])
    }

    /// Resolves a `.marking` / `.delay` entry `s -> d` to its endpoints;
    /// the tokens are trimmed, and an error shows them as written.
    fn entry(
        &mut self,
        s: &str,
        d: &str,
        line: usize,
    ) -> Result<(Option<EventId>, Option<EventId>), StgError> {
        let src = self.find(s, NONE, line)?;
        let hint = self.first_dst(src);
        Ok((src, self.find(d, hint, line)?))
    }

    /// Adds the declared arcs to the builder and builds the graph.
    fn build(mut self, default_delay: f64) -> Result<SignalGraph, StgError> {
        for arc in &self.specs {
            let delay = arc.delay.unwrap_or(default_delay);
            if arc.marked {
                self.b.marked_arc(arc.src, arc.dst, delay);
            } else {
                self.b.arc(arc.src, arc.dst, delay);
            }
        }
        self.b.build().map_err(StgError::Invalid)
    }
}

/// The value of `.delay` word `v`, as `str::parse::<f64>` reads it. One
/// to 15 decimal digits are an integer below 2⁵³, which converts to
/// `f64` exactly, so they skip the general float parser.
fn delay_value(v: &str) -> Option<f64> {
    if (1..=15).contains(&v.len()) && v.bytes().all(|b| b.is_ascii_digit()) {
        let int = v.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
        return Some(int as f64);
    }
    v.parse().ok()
}

/// The line with its `#` comment cut off and its ends trimmed.
fn content(raw: &str) -> &str {
    let end = raw.bytes().position(|b| b == b'#').unwrap_or(raw.len());
    raw[..end].trim()
}

/// A byte that belongs to a word.
const WORD: u8 = 0;
/// ASCII whitespace other than `\n`: the rest of what
/// `char::is_whitespace` accepts below 0x80 (`\t`, `\u{b}`, `\u{c}`,
/// `\r`, space). `u8::is_ascii_whitespace` misses `\u{b}`.
const SPACE: u8 = 1;
/// `\n` or `#`: the words of the line end here.
const END: u8 = 2;
/// A byte of a multibyte character, which may be whitespace.
const WIDE: u8 = 3;

/// The class of each byte value.
const CLASS: [u8; 256] = {
    let mut class = [WORD; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    let mut b = b'\t';
    while b <= b'\r' {
        class[b as usize] = SPACE;
        b += 1;
    }
    class[b' ' as usize] = SPACE;
    class[b'\n' as usize] = END;
    class[b'#' as usize] = END;
    class
};

/// A cursor over the lines of a `.g` text and the words of each line:
/// the words `split_whitespace` finds in the line cut at its first `#`,
/// found one byte class at a time. A multibyte character is decoded
/// only to ask whether it is whitespace.
struct Cursor<'t> {
    text: &'t str,
    /// Where the next word search starts; always a character boundary.
    at: usize,
    /// Start of the current line.
    line_start: usize,
    /// 1-based number of the current line.
    line: usize,
}

impl<'t> Cursor<'t> {
    fn new(text: &'t str) -> Self {
        Cursor {
            text,
            at: 0,
            line_start: 0,
            line: 1,
        }
    }

    /// Whether the character at `at` (a boundary before a byte of class
    /// [`WIDE`]) is whitespace, and its length.
    #[cold]
    fn wide(&self, at: usize) -> (bool, usize) {
        let c = self.text[at..].chars().next().unwrap_or_default();
        (c.is_whitespace(), c.len_utf8())
    }

    /// The next word of the current line; `None` once its words are
    /// used up.
    #[inline]
    fn word(&mut self) -> Option<&'t str> {
        let bytes = self.text.as_bytes();
        let mut at = self.at;
        let start = loop {
            let class = bytes.get(at).map_or(END, |&b| CLASS[b as usize]);
            match class {
                SPACE => at += 1,
                WORD => break at,
                WIDE => match self.wide(at) {
                    (true, len) => at += len,
                    (false, _) => break at,
                },
                _ => {
                    self.at = at;
                    return None;
                }
            }
        };
        loop {
            while bytes.get(at).is_some_and(|&b| CLASS[b as usize] == WORD) {
                at += 1;
            }
            if bytes.get(at).is_some_and(|&b| CLASS[b as usize] == WIDE) {
                if let (false, len) = self.wide(at) {
                    at += len;
                    continue;
                }
            }
            break;
        }
        self.at = at;
        Some(&self.text[start..at])
    }

    /// The current line without its newline, for the one directive
    /// that reads its line as text (`.marking`).
    fn raw_line(&self) -> &'t str {
        let rest = &self.text[self.line_start..];
        rest.find('\n').map_or(rest, |end| &rest[..end])
    }

    /// Moves to the start of the next line, skipping what is left of
    /// this one unread; `false` at the end of the text.
    fn next_line(&mut self) -> bool {
        if self.text.as_bytes().get(self.at) != Some(&b'\n') {
            let Some(end) = self.text[self.at..].find('\n') else {
                return false;
            };
            self.at += end;
        }
        self.at += 1;
        self.line_start = self.at;
        self.line += 1;
        true
    }
}

/// Bounds on the events, the arcs and the label bytes of a `.g` text,
/// from one scan of its arc lines up to the first `.marking`, `.delay`
/// or `.end` directive: each event is first named by an arc-line token,
/// whose label is as long as the token, and each arc-line token after
/// the first declares one arc. Other directive lines are skipped
/// unread.
///
/// The bounds size allocations and nothing else. A text that declares
/// arcs after those directives still loads; it may only reallocate on
/// the way.
fn bounds(text: &str) -> (usize, usize, usize) {
    const STOP: [&str; 3] = ["marking", "delay", "end"];
    let (mut tokens, mut arcs, mut bytes) = (0, 0, 0);
    let mut words = Cursor::new(text);
    loop {
        if let Some(first) = words.word() {
            match first.strip_prefix('.') {
                Some(directive) if STOP.iter().any(|d| directive.starts_with(d)) => break,
                Some(_) => {}
                None => {
                    bytes += first.len();
                    tokens += 1;
                    while let Some(word) = words.word() {
                        bytes += word.len();
                        tokens += 1;
                        arcs += 1;
                    }
                }
            }
        }
        if !words.next_line() {
            break;
        }
    }
    (tokens, arcs, bytes)
}

/// Parses `.g` text into a validated [`SignalGraph`].
///
/// Loading is linear in the text size: the arc lines are read twice and
/// every other line once. A first scan of the arc lines bounds the
/// number of events, arcs and label bytes, so the graph's flat arrays
/// are allocated once, whatever the size of the text. The second scan
/// walks the text one line at a time with a byte-class table: it splits
/// words exactly as `split_whitespace` does on the line cut at its
/// first `#`, skips ignored directives (`.model`, `.outputs`, …) to
/// their newline unread, borrows every token from the text and interns
/// each new transition through the builder's keyed label index. A
/// token equal to the one resolved before it, or to the destination of
/// its source's first declared arc, is resolved by comparing bytes, and
/// a `.marking` / `.delay` entry finds its arc through a keyed pair
/// index: O(1) per entry whatever a source's out-degree.
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
    let mut g = Graph::new(bounds(text));
    let mut in_graph = false;
    let mut words = Cursor::new(text);

    loop {
        if let Some(first) = words.word() {
            let lineno = words.line;
            if let Some(name) = first.strip_prefix('.') {
                // `.graph` and `. graph` both name the directive `graph`.
                let name = if name.is_empty() {
                    words.word()
                } else {
                    Some(name)
                };
                match name {
                    Some("graph") => in_graph = true,
                    Some("end") => in_graph = false,
                    Some("marking") => {
                        let body = content(words.raw_line())[1..]
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
                            let (s, d) = tok.split_once(',').ok_or_else(|| {
                                syntax(lineno, format!("bad marking token {tok:?}"))
                            })?;
                            let ends = g.entry(s, d, lineno)?;
                            g.bind(false, ends, s.trim(), d.trim())?.marked = true;
                        }
                    }
                    Some("delay") => {
                        let (Some(s), Some(d), Some(v), None) =
                            (words.word(), words.word(), words.word(), words.word())
                        else {
                            return Err(syntax(lineno, "expected `.delay SRC DST VALUE`"));
                        };
                        let ends = g.entry(s, d, lineno)?;
                        let value = delay_value(v)
                            .ok_or_else(|| syntax(lineno, format!("bad delay {v:?}")))?;
                        if Delay::new(value).is_err() {
                            let (s, d) = (label_of(s), label_of(d));
                            return Err(syntax(
                                lineno,
                                format!("bad delay {v:?} on {s} -> {d}: must be finite and >= 0"),
                            ));
                        }
                        g.bind(true, ends, s, d)?.delay = Some(value);
                    }
                    // interface declarations carry no structure we need
                    Some("model") | Some("inputs") | Some("outputs") | Some("internal")
                    | Some("dummy") | Some("name") => {}
                    Some(other) => {
                        return Err(syntax(lineno, format!("unknown directive .{other}")))
                    }
                    None => return Err(syntax(lineno, "empty directive")),
                }
            } else {
                if !in_graph {
                    return Err(syntax(lineno, "arc outside .graph section"));
                }
                let src = g.intern(first, lineno)?;
                while let Some(dst) = words.word() {
                    let dst = g.intern(dst, lineno)?;
                    g.declare(src, dst);
                }
            }
        }
        if !words.next_line() {
            break;
        }
    }
    g.build(options.default_delay)
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
    fn byte_classes_agree_with_char_whitespace() {
        for b in 0..=255u8 {
            let want = match b {
                b'\n' | b'#' => END,
                0x80.. => WIDE,
                _ if char::from(b).is_whitespace() => SPACE,
                _ => WORD,
            };
            assert_eq!(CLASS[usize::from(b)], want, "byte {b:#x}");
        }
    }

    #[test]
    fn delay_values_read_as_str_parse_reads_them() {
        let words = [
            "0",
            "7",
            "007",
            "10",
            "999999999999999",
            "9999999999999999",
            "123456789012345",
            "1.5",
            "1e3",
            "+3",
            "-0",
            "inf",
            "NaN",
            "",
            "3x",
            "٣",
        ];
        for v in words {
            assert_eq!(
                delay_value(v).map(f64::to_bits),
                v.parse::<f64>().ok().map(f64::to_bits),
                "{v:?}"
            );
        }
    }

    #[test]
    fn syntax_error_line_numbers() {
        let err = parse_stg("x+ x-\n", StgOptions::default()).unwrap_err();
        assert!(matches!(err, StgError::Syntax { line: 1, .. }));
    }
}

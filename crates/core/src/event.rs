//! Events of a Signal Graph: identifiers, labels and kinds.

use std::fmt;
use std::str::FromStr;

/// Identifier of an event within a [`SignalGraph`](crate::SignalGraph).
///
/// Ids are dense indices assigned in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u32);

impl EventId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev{}", self.0)
    }
}

/// Direction of a signal transition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Polarity {
    /// Up-going transition (`a+`, drawn `a↑` in the paper).
    Rise,
    /// Down-going transition (`a-`, drawn `a↓` in the paper).
    Fall,
}

impl Polarity {
    /// The opposite polarity.
    pub fn opposite(self) -> Polarity {
        match self {
            Polarity::Rise => Polarity::Fall,
            Polarity::Fall => Polarity::Rise,
        }
    }

    /// The signal value *after* a transition of this polarity.
    pub fn level_after(self) -> bool {
        matches!(self, Polarity::Rise)
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Rise => f.write_str("+"),
            Polarity::Fall => f.write_str("-"),
        }
    }
}

/// How an event participates in the execution (Section III.A of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EventKind {
    /// Occurs infinitely often; belongs to the cyclic part (`A_r`).
    #[default]
    Repetitive,
    /// Occurs exactly once, at time 0, with no causes (the set `I`).
    Initial,
    /// Occurs exactly once, caused by other prefix events (e.g. `f-` in
    /// Figure 1; in `A \ (A_r ∪ I)`).
    Finite,
}

impl EventKind {
    /// `true` for [`EventKind::Initial`] and [`EventKind::Finite`] — the
    /// non-repetitive "prefix" of the behaviour.
    pub fn is_prefix(self) -> bool {
        !matches!(self, EventKind::Repetitive)
    }
}

/// Human-readable label of an event: a signal name plus an optional
/// transition polarity.
///
/// Labels follow the `.g`/STG convention: `a+` (rise), `a-` (fall), or a
/// bare name `req` for events without signal-level semantics. Multiple
/// events of the same signal transition ("multiple events" in Section
/// VIII.A) are distinguished by the signal name itself, e.g. `a1+`, `a2+`.
///
/// # Examples
///
/// ```
/// use tsg_core::event::{EventLabel, Polarity};
///
/// let l: EventLabel = "req+".parse()?;
/// assert_eq!(l.signal(), "req");
/// assert_eq!(l.polarity(), Some(Polarity::Rise));
/// assert_eq!(l.to_string(), "req+");
/// # Ok::<(), tsg_core::event::ParseLabelError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventLabel {
    signal: String,
    polarity: Option<Polarity>,
}

impl EventLabel {
    /// Creates a label for a transition of `signal` with the given polarity.
    pub fn transition(signal: impl Into<String>, polarity: Polarity) -> Self {
        EventLabel {
            signal: signal.into(),
            polarity: Some(polarity),
        }
    }

    /// Creates a label with no polarity (a bare event name).
    pub fn bare(signal: impl Into<String>) -> Self {
        EventLabel {
            signal: signal.into(),
            polarity: None,
        }
    }

    /// The signal name.
    pub fn signal(&self) -> &str {
        &self.signal
    }

    /// The transition polarity, when the label is a signal transition.
    pub fn polarity(&self) -> Option<Polarity> {
        self.polarity
    }

    /// This label as a borrowed [`Label`].
    pub fn as_label(&self) -> Label<'_> {
        Label::new(&self.signal, self.polarity)
    }
}

impl fmt::Display for EventLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_label().fmt(f)
    }
}

/// A borrowed event label: a signal name plus an optional polarity, as
/// [`SignalGraph::label`](crate::SignalGraph::label) returns it.
///
/// A graph keeps every label's text in one string arena, so a label is a
/// view into it rather than an owned [`EventLabel`]. It displays as its
/// `.g` form (`a+`, `req-`, `go`).
///
/// # Examples
///
/// ```
/// use tsg_core::event::{Label, Polarity};
///
/// let l = Label::new("req", Some(Polarity::Rise));
/// assert_eq!(l.signal(), "req");
/// assert_eq!(l.to_string(), "req+");
/// assert_eq!(Label::lenient("req+"), l);
/// assert_eq!(Label::lenient("a b+").polarity(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label<'a> {
    signal: &'a str,
    polarity: Option<Polarity>,
}

impl<'a> Label<'a> {
    /// The label of `signal` with `polarity`.
    pub fn new(signal: &'a str, polarity: Option<Polarity>) -> Self {
        Label { signal, polarity }
    }

    /// The lenient reading of `text` that the builder applies: `a+` and
    /// `a-` are transitions of `a`; any other text — a bare name, or one
    /// that [`EventLabel`]'s parser rejects — is a bare label. Either way
    /// the label displays as `text`.
    pub fn lenient(text: &'a str) -> Self {
        let polarity = match text.as_bytes().last() {
            Some(b'+') => Some(Polarity::Rise),
            Some(b'-') => Some(Polarity::Fall),
            _ => None,
        };
        let name = &text[..text.len() - usize::from(polarity.is_some())];
        if polarity.is_none() || name.is_empty() || name.contains(char::is_whitespace) {
            return Label::new(text, None);
        }
        Label::new(name, polarity)
    }

    /// The signal name.
    pub fn signal(&self) -> &'a str {
        self.signal
    }

    /// The transition polarity, when the label is a signal transition.
    pub fn polarity(&self) -> Option<Polarity> {
        self.polarity
    }
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.signal)?;
        match self.polarity {
            Some(p) => p.fmt(f),
            None => Ok(()),
        }
    }
}

impl From<Label<'_>> for EventLabel {
    fn from(l: Label<'_>) -> Self {
        EventLabel {
            signal: l.signal.to_owned(),
            polarity: l.polarity,
        }
    }
}

/// Error returned when parsing an [`EventLabel`] from an empty or malformed
/// string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLabelError(pub String);

impl fmt::Display for ParseLabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid event label {:?}", self.0)
    }
}

impl std::error::Error for ParseLabelError {}

impl FromStr for EventLabel {
    type Err = ParseLabelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseLabelError(s.to_owned()));
        }
        let (name, pol) = match s.as_bytes()[s.len() - 1] {
            b'+' => (&s[..s.len() - 1], Some(Polarity::Rise)),
            b'-' => (&s[..s.len() - 1], Some(Polarity::Fall)),
            _ => (s, None),
        };
        if name.is_empty() || name.contains(|c: char| c.is_whitespace()) {
            return Err(ParseLabelError(s.to_owned()));
        }
        Ok(EventLabel {
            signal: name.to_owned(),
            polarity: pol,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_roundtrip() {
        assert_eq!(Polarity::Rise.opposite(), Polarity::Fall);
        assert_eq!(Polarity::Fall.opposite(), Polarity::Rise);
        assert!(Polarity::Rise.level_after());
        assert!(!Polarity::Fall.level_after());
    }

    #[test]
    fn label_parsing() {
        let l: EventLabel = "a+".parse().unwrap();
        assert_eq!(l, EventLabel::transition("a", Polarity::Rise));
        let l: EventLabel = "ack-".parse().unwrap();
        assert_eq!(l, EventLabel::transition("ack", Polarity::Fall));
        let l: EventLabel = "go".parse().unwrap();
        assert_eq!(l, EventLabel::bare("go"));
    }

    #[test]
    fn label_parse_errors() {
        assert!("".parse::<EventLabel>().is_err());
        assert!("+".parse::<EventLabel>().is_err());
        assert!("a b+".parse::<EventLabel>().is_err());
    }

    #[test]
    fn label_display_roundtrip() {
        for s in ["a+", "a-", "go", "x13+"] {
            let l: EventLabel = s.parse().unwrap();
            assert_eq!(l.to_string(), s);
        }
    }

    #[test]
    fn lenient_labels_match_the_parser() {
        for s in [
            "a+", "ack-", "go", "x13+", "", "+", "-", "a b+", "é-", "a+b",
        ] {
            let l = Label::lenient(s);
            assert_eq!(l.to_string(), s);
            let want = s.parse().unwrap_or_else(|_| EventLabel::bare(s));
            assert_eq!(EventLabel::from(l), want, "{s:?}");
            assert_eq!(want.as_label(), l);
        }
    }

    #[test]
    fn kind_prefix_predicate() {
        assert!(!EventKind::Repetitive.is_prefix());
        assert!(EventKind::Initial.is_prefix());
        assert!(EventKind::Finite.is_prefix());
        assert_eq!(EventKind::default(), EventKind::Repetitive);
    }
}

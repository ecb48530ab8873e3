//! A plain-data mirror of [`SignalGraph`] for interchange and (with the
//! `serde` feature) serialization.
//!
//! [`SignalGraphSpec`] is the unvalidated, order-preserving description of
//! a graph: event labels with kinds, arcs by event index. Converting a
//! spec back into a [`SignalGraph`] runs the full structural validation,
//! so deserialized data can never bypass the model's invariants.

use crate::event::EventKind;
use crate::graph::SignalGraph;
use crate::validate::ValidationError;

/// One event of a [`SignalGraphSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EventSpec {
    /// Display label (`"a+"`, `"req-"`, `"go"`).
    pub label: String,
    /// Repetitive / initial / finite.
    pub kind: EventKindSpec,
}

/// Serializable mirror of [`EventKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum EventKindSpec {
    /// Occurs infinitely often.
    Repetitive,
    /// Occurs once, uncaused, at time 0.
    Initial,
    /// Occurs once, caused by prefix events.
    Finite,
}

impl From<EventKind> for EventKindSpec {
    fn from(k: EventKind) -> Self {
        match k {
            EventKind::Repetitive => EventKindSpec::Repetitive,
            EventKind::Initial => EventKindSpec::Initial,
            EventKind::Finite => EventKindSpec::Finite,
        }
    }
}

impl From<EventKindSpec> for EventKind {
    fn from(k: EventKindSpec) -> Self {
        match k {
            EventKindSpec::Repetitive => EventKind::Repetitive,
            EventKindSpec::Initial => EventKind::Initial,
            EventKindSpec::Finite => EventKind::Finite,
        }
    }
}

/// One arc of a [`SignalGraphSpec`]; endpoints are indices into `events`.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ArcSpec {
    /// Index of the source event.
    pub src: u32,
    /// Index of the destination event.
    pub dst: u32,
    /// Delay label δ.
    pub delay: f64,
    /// Carries an initial token.
    pub marked: bool,
    /// Active once only.
    pub disengageable: bool,
}

/// The unvalidated plain-data form of a Signal Graph.
///
/// # Examples
///
/// ```
/// use tsg_core::spec::SignalGraphSpec;
/// use tsg_core::SignalGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let x = b.event("x+");
/// let y = b.event("x-");
/// b.arc(x, y, 1.0);
/// b.marked_arc(y, x, 2.0);
/// let sg = b.build()?;
///
/// let spec = SignalGraphSpec::from(&sg);
/// let back = spec.build()?;
/// assert_eq!(back.event_count(), sg.event_count());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SignalGraphSpec {
    /// Events in id order.
    pub events: Vec<EventSpec>,
    /// Arcs in id order.
    pub arcs: Vec<ArcSpec>,
}

impl SignalGraphSpec {
    /// Validates and builds the Signal Graph described by this spec.
    ///
    /// # Errors
    ///
    /// Returns the same [`ValidationError`]s as
    /// [`SignalGraphBuilder::build`](crate::builder::SignalGraphBuilder::build),
    /// plus [`ValidationError::DuplicateLabel`] for malformed indices
    /// mapped onto the nearest structural rule.
    pub fn build(&self) -> Result<SignalGraph, ValidationError> {
        let mut b = SignalGraph::builder();
        let mut ids = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let label = e
                .label
                .parse()
                .unwrap_or_else(|_| crate::event::EventLabel::bare(e.label.clone()));
            ids.push(b.event_with(label.as_label(), e.kind.into()));
        }
        for a in &self.arcs {
            let (Some(&s), Some(&d)) = (ids.get(a.src as usize), ids.get(a.dst as usize)) else {
                return Err(ValidationError::DuplicateLabel(format!(
                    "arc index {}->{} out of range",
                    a.src, a.dst
                )));
            };
            if a.marked {
                b.marked_arc(s, d, a.delay);
            } else if a.disengageable {
                b.disengageable_arc(s, d, a.delay);
            } else {
                b.arc(s, d, a.delay);
            }
        }
        b.build()
    }
}

impl From<&SignalGraph> for SignalGraphSpec {
    fn from(sg: &SignalGraph) -> Self {
        SignalGraphSpec {
            events: sg
                .events()
                .map(|e| EventSpec {
                    label: sg.label(e).to_string(),
                    kind: sg.kind(e).into(),
                })
                .collect(),
            arcs: sg
                .arc_ids()
                .map(|a| {
                    let arc = sg.arc(a);
                    ArcSpec {
                        src: arc.src().0,
                        dst: arc.dst().0,
                        delay: arc.delay().get(),
                        marked: arc.is_marked(),
                        disengageable: arc.is_disengageable(),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn roundtrip_preserves_everything() {
        let sg = figure2();
        let spec = SignalGraphSpec::from(&sg);
        let back = spec.build().unwrap();
        assert_eq!(back.event_count(), sg.event_count());
        assert_eq!(back.arc_count(), sg.arc_count());
        for (a, b) in sg.arc_ids().zip(back.arc_ids()) {
            assert_eq!(sg.arc(a), back.arc(b));
        }
        for (x, y) in sg.events().zip(back.events()) {
            assert_eq!(sg.label(x), back.label(y));
            assert_eq!(sg.kind(x), back.kind(y));
        }
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let spec = SignalGraphSpec {
            events: vec![EventSpec {
                label: "x+".into(),
                kind: EventKindSpec::Repetitive,
            }],
            arcs: vec![ArcSpec {
                src: 0,
                dst: 5, // out of range
                delay: 1.0,
                marked: false,
                disengageable: false,
            }],
        };
        assert!(spec.build().is_err());
    }

    #[test]
    fn token_free_spec_fails_validation() {
        let spec = SignalGraphSpec {
            events: vec![
                EventSpec {
                    label: "x+".into(),
                    kind: EventKindSpec::Repetitive,
                },
                EventSpec {
                    label: "x-".into(),
                    kind: EventKindSpec::Repetitive,
                },
            ],
            arcs: vec![
                ArcSpec {
                    src: 0,
                    dst: 1,
                    delay: 1.0,
                    marked: false,
                    disengageable: false,
                },
                ArcSpec {
                    src: 1,
                    dst: 0,
                    delay: 1.0,
                    marked: false,
                    disengageable: false,
                },
            ],
        };
        assert!(matches!(
            spec.build(),
            Err(ValidationError::TokenFreeCycle { .. })
        ));
    }
}

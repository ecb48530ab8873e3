//! `.g` writer for the repetitive part of a Signal Graph.

use std::fmt;
use std::fmt::Write as _;

use tsg_core::{ArcId, Polarity, SignalGraph};

/// Error returned by [`write_stg`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WriteStgError {
    /// The graph has prefix (initial/finite) events, which the `.g` format
    /// cannot express.
    HasPrefix,
    /// An event has no polarity, so it is not a signal transition.
    NotATransition {
        /// The offending event label.
        label: String,
    },
    /// Parallel arcs of one pair have a marked arc after an unmarked
    /// one. The reader binds the k-th `.marking` entry of a pair to the
    /// pair's k-th declared arc, so the marking would land on the wrong
    /// arc.
    MarkedAfterUnmarked {
        /// Label of the pair's source event.
        src: String,
        /// Label of the pair's destination event.
        dst: String,
    },
}

impl fmt::Display for WriteStgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteStgError::HasPrefix => {
                write!(f, ".g format cannot express non-repetitive prefix events")
            }
            WriteStgError::NotATransition { label } => {
                write!(f, "event {label:?} is not a signal transition")
            }
            WriteStgError::MarkedAfterUnmarked { src, dst } => {
                write!(
                    f,
                    "parallel arcs {src} -> {dst} declare a marked arc after an unmarked one, \
                     which .g cannot express"
                )
            }
        }
    }
}

impl std::error::Error for WriteStgError {}

fn stg_token(sg: &SignalGraph, e: tsg_core::EventId) -> Result<String, WriteStgError> {
    let label = sg.label(e);
    let pol = label
        .polarity()
        .ok_or_else(|| WriteStgError::NotATransition {
            label: label.to_string(),
        })?;
    let p = match pol {
        Polarity::Rise => "+",
        Polarity::Fall => "-",
    };
    Ok(match label.signal().split_once('#') {
        Some((name, idx)) => format!("{name}{p}/{idx}"),
        None => format!("{}{}", label.signal(), p),
    })
}

/// Serialises the graph to `.g` text (with `.delay` annotations), such that
/// [`parse_stg`](crate::parse_stg) reads back an equivalent graph: each
/// event's live out-arcs on one `.graph` line, and the `.marking`
/// entries and `.delay` lines in arc order, so the k-th entry of a pair
/// of parallel arcs reaches its k-th arc.
///
/// # Errors
///
/// Returns [`WriteStgError`] when the graph has prefix events or bare
/// (polarity-free) labels, or when a pair of parallel arcs has a marked
/// arc after an unmarked one.
pub fn write_stg(sg: &SignalGraph, model: &str) -> Result<String, WriteStgError> {
    if sg.prefix_events().next().is_some() {
        return Err(WriteStgError::HasPrefix);
    }
    let mut out = String::new();
    let _ = writeln!(out, ".model {model}");
    let mut signals: Vec<&str> = sg
        .events()
        .map(|e| sg.label(e).signal())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    signals.sort_unstable();
    let _ = writeln!(out, ".outputs {}", signals.join(" "));
    let _ = writeln!(out, ".graph");
    for e in sg.events() {
        let outs: Vec<_> = sg.out_arcs(e).collect();
        if outs.is_empty() {
            continue;
        }
        let src = stg_token(sg, e)?;
        let mut line = src.clone();
        for (i, &a) in outs.iter().enumerate() {
            let dst = sg.arc(a).dst();
            let unmarked_before = |&b: &ArcId| sg.arc(b).dst() == dst && !sg.arc(b).is_marked();
            if sg.arc(a).is_marked() && outs[..i].iter().any(unmarked_before) {
                return Err(WriteStgError::MarkedAfterUnmarked {
                    src: sg.label(e).to_string(),
                    dst: sg.label(dst).to_string(),
                });
            }
            let _ = write!(line, " {}", stg_token(sg, dst)?);
        }
        let _ = writeln!(out, "{line}");
    }
    let marked: Vec<String> = sg
        .arc_ids()
        .filter(|&a| sg.arc(a).is_marked())
        .map(|a| {
            let arc = sg.arc(a);
            Ok::<String, WriteStgError>(format!(
                "<{},{}>",
                stg_token(sg, arc.src())?,
                stg_token(sg, arc.dst())?
            ))
        })
        .collect::<Result<_, _>>()?;
    let _ = writeln!(out, ".marking {{ {} }}", marked.join(" "));
    for a in sg.arc_ids().filter(|&a| sg.is_live_arc(a)) {
        let arc = sg.arc(a);
        let _ = writeln!(
            out,
            ".delay {} {} {}",
            stg_token(sg, arc.src())?,
            stg_token(sg, arc.dst())?,
            arc.delay()
        );
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{parse_stg, StgOptions};
    use tsg_core::analysis::CycleTimeAnalysis;

    fn toggle() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 3.0);
        b.marked_arc(xm, xp, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_cycle_time() {
        let sg = toggle();
        let text = write_stg(&sg, "toggle").unwrap();
        let back = parse_stg(&text, StgOptions::default()).unwrap();
        let t1 = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&back).unwrap().cycle_time().as_f64();
        assert_eq!(t1, t2);
        assert_eq!(back.event_count(), sg.event_count());
        assert_eq!(back.arc_count(), sg.arc_count());
    }

    #[test]
    fn prefix_graphs_rejected() {
        let mut b = SignalGraph::builder();
        let i = b.initial_event("e-");
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.disengageable_arc(i, xp, 1.0);
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();
        assert_eq!(write_stg(&sg, "t"), Err(WriteStgError::HasPrefix));
    }

    #[test]
    fn bare_labels_rejected() {
        let mut b = SignalGraph::builder();
        let x = b.event("tick");
        b.marked_arc(x, x, 1.0);
        let sg = b.build().unwrap();
        assert!(matches!(
            write_stg(&sg, "t"),
            Err(WriteStgError::NotATransition { .. })
        ));
    }

    #[test]
    fn indexed_labels_roundtrip() {
        let mut b = SignalGraph::builder();
        let a1 = b.event("a#1+");
        let a2 = b.event("a#2+");
        b.arc(a1, a2, 1.0);
        b.marked_arc(a2, a1, 1.0);
        let sg = b.build().unwrap();
        let text = write_stg(&sg, "t").unwrap();
        assert!(text.contains("a+/1"));
        let back = parse_stg(&text, StgOptions::default()).unwrap();
        assert!(back.event_by_label("a#1+").is_some());
    }

    fn parallel_pair(marked_first: bool) -> SignalGraph {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        if marked_first {
            b.marked_arc(xp, xm, 3.0);
            b.arc(xp, xm, 5.0);
        } else {
            b.arc(xp, xm, 3.0);
            b.marked_arc(xp, xm, 5.0);
        }
        b.marked_arc(xm, xp, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn parallel_arcs_roundtrip_arc_for_arc() {
        let sg = parallel_pair(true);
        let back = parse_stg(&write_stg(&sg, "t").unwrap(), StgOptions::default()).unwrap();
        let arcs = |g: &SignalGraph| -> Vec<_> {
            g.arcs()
                .iter()
                .map(|a| (a.src(), a.dst(), a.delay().get(), a.is_marked()))
                .collect()
        };
        assert_eq!(arcs(&back), arcs(&sg));
    }

    #[test]
    fn marked_parallel_arc_after_an_unmarked_one_is_refused() {
        let err = write_stg(&parallel_pair(false), "t").unwrap_err();
        assert_eq!(
            err,
            WriteStgError::MarkedAfterUnmarked {
                src: "x+".to_owned(),
                dst: "x-".to_owned(),
            }
        );
        assert!(err.to_string().contains("x+ -> x-"), "{err}");
    }
}

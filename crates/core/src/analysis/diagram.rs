//! ASCII timing diagrams (Figures 1c and 1d of the paper).
//!
//! Renders the waveform of every signal of a simulated graph on a character
//! grid: `_` is low, `~` is high, `|` marks a transition column. Signals
//! appear in first-transition order; a ruler line marks every fifth time
//! unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analysis::initiated::SimArena;
use crate::analysis::sim::TimingSimulation;
use crate::event::Polarity;
use crate::graph::SignalGraph;

/// Rendering options for [`render`].
#[derive(Clone, Copy, Debug)]
pub struct DiagramOptions {
    /// Characters per time unit (default 2).
    pub chars_per_unit: f64,
    /// Total simulated time to draw; defaults to the simulation horizon.
    pub horizon: Option<f64>,
}

impl Default for DiagramOptions {
    fn default() -> Self {
        DiagramOptions {
            chars_per_unit: 2.0,
            horizon: None,
        }
    }
}

/// Widest diagram drawn, in columns: far past any terminal, while a
/// 10¹¹-unit delay would otherwise allocate terabytes of rows.
pub const MAX_COLUMNS: usize = 10_000;

/// A diagram would need more than [`MAX_COLUMNS`] columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagramTooWide {
    /// The time span to draw.
    pub horizon: f64,
    /// Characters per time unit.
    pub chars_per_unit: f64,
}

impl std::fmt::Display for DiagramTooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "timing diagram too wide: horizon {} at {} char(s) per time unit needs more than {MAX_COLUMNS} columns",
            self.horizon, self.chars_per_unit
        )
    }
}

impl std::error::Error for DiagramTooWide {}

/// A signal's transition list: `(time, polarity)` sorted by time.
type Waveform = Vec<(f64, Polarity)>;

/// Every signal's transitions in `rows`: each reached instance of each
/// event. An unreached instance draws nothing, so the level stays as it
/// is; a later instance of the same event may still be reached.
fn collect_waveforms(sg: &SignalGraph, rows: &SimArena) -> BTreeMap<String, Waveform> {
    let mut map: BTreeMap<String, Waveform> = BTreeMap::new();
    for e in sg.events() {
        let label = sg.label(e);
        let Some(pol) = label.polarity() else {
            continue;
        };
        for t in (0..rows.row_count()).filter_map(|i| rows.time(e, i)) {
            map.entry(label.signal().to_owned())
                .or_default()
                .push((t, pol));
        }
    }
    for wf in map.values_mut() {
        wf.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    map
}

/// The one body of [`render`] and [`render_initiated`]: every row of
/// the run, drawn up to `opts.horizon` or the run's latest time.
fn render_rows(
    sg: &SignalGraph,
    rows: &SimArena,
    opts: DiagramOptions,
) -> Result<String, DiagramTooWide> {
    let horizon = opts.horizon.unwrap_or_else(|| rows.horizon());
    render_waveforms(&collect_waveforms(sg, rows), horizon, opts.chars_per_unit)
}

fn render_waveforms(
    waveforms: &BTreeMap<String, Waveform>,
    horizon: f64,
    cpu: f64,
) -> Result<String, DiagramTooWide> {
    // Checked before allocating, in `f64` so NaN and ∞ are refused too.
    let columns = (horizon * cpu).ceil() + 1.0;
    if columns.is_nan() || columns > MAX_COLUMNS as f64 {
        return Err(DiagramTooWide {
            horizon,
            chars_per_unit: cpu,
        });
    }
    let width = columns as usize;
    let name_w = waveforms.keys().map(String::len).max().unwrap_or(1).max(1);
    let mut out = String::new();

    // Ruler: a tick every 5 time units.
    let mut ruler = vec![b' '; width];
    let mut labels = vec![b' '; width + 8];
    let mut t = 0.0;
    while t <= horizon + 1e-9 {
        let col = (t * cpu).round() as usize;
        if col < width {
            ruler[col] = b'+';
            let s = format!("{}", t as i64);
            for (k, ch) in s.bytes().enumerate() {
                if col + k < labels.len() {
                    labels[col + k] = ch;
                }
            }
        }
        t += 5.0;
    }
    let _ = writeln!(
        out,
        "{:name_w$} {}",
        "t",
        String::from_utf8_lossy(&labels).trim_end()
    );
    let _ = writeln!(out, "{:name_w$} {}", "", String::from_utf8_lossy(&ruler));

    for (signal, wf) in waveforms {
        let initial_high = wf
            .first()
            .map(|&(_, pol)| pol == Polarity::Fall)
            .unwrap_or(false);
        let mut row = String::with_capacity(width);
        for col in 0..width {
            // Level after the last transition at or before this column.
            let mut level = initial_high;
            let mut at_transition = false;
            for &(tt, pol) in wf {
                let tcol = (tt * cpu).round() as usize;
                if tcol <= col {
                    level = pol.level_after();
                }
                if tcol == col {
                    at_transition = true;
                }
                if tcol > col {
                    break;
                }
            }
            row.push(if at_transition {
                '|'
            } else if level {
                '~'
            } else {
                '_'
            });
        }
        let _ = writeln!(out, "{signal:name_w$} {row}");
    }
    Ok(out)
}

/// Renders the timing diagram of a full [`TimingSimulation`] (Figure 1c).
///
/// # Errors
///
/// [`DiagramTooWide`] when the diagram needs more than [`MAX_COLUMNS`]
/// columns.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::sim::TimingSimulation;
/// use tsg_core::analysis::diagram::{render, DiagramOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
/// let sim = TimingSimulation::run(&sg, 3, None)?;
/// let text = render(&sg, &sim, DiagramOptions::default())?;
/// assert!(text.contains('x'));
/// # Ok(())
/// # }
/// ```
pub fn render(
    sg: &SignalGraph,
    sim: &TimingSimulation,
    opts: DiagramOptions,
) -> Result<String, DiagramTooWide> {
    render_rows(sg, &sim.rows, opts)
}

/// Renders the diagram of an event-initiated simulation (Figure 1d):
/// everything concurrent with or preceding the initiating event is drawn
/// as already having happened at time 0.
///
/// # Errors
///
/// As [`render`].
pub fn render_initiated(
    sg: &SignalGraph,
    sim: &SimArena,
    opts: DiagramOptions,
) -> Result<String, DiagramTooWide> {
    render_rows(sg, sim, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

    fn oscillator() -> SignalGraph {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 3.0);
        b.marked_arc(xm, xp, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn waveform_alternates() {
        let sg = oscillator();
        let sim = TimingSimulation::run(&sg, 3, None).unwrap();
        let text = render(&sg, &sim, DiagramOptions::default()).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with('x'))
            .expect("signal row");
        // x rises at 0, falls at 3, rises at 5...
        assert!(line.contains('~'));
        assert!(line.contains('_'));
        assert!(line.contains('|'));
    }

    #[test]
    fn ruler_has_ticks() {
        let sg = oscillator();
        let sim = TimingSimulation::run(&sg, 3, None).unwrap();
        let text = render(&sg, &sim, DiagramOptions::default()).unwrap();
        let ruler = text.lines().nth(1).unwrap();
        assert!(ruler.matches('+').count() >= 2);
    }

    #[test]
    fn horizon_override_truncates() {
        let sg = oscillator();
        let sim = TimingSimulation::run(&sg, 3, None).unwrap();
        let text = render(
            &sg,
            &sim,
            DiagramOptions {
                chars_per_unit: 1.0,
                horizon: Some(4.0),
            },
        )
        .unwrap();
        let line = text.lines().find(|l| l.starts_with('x')).unwrap();
        assert_eq!(line.len(), "x ".len() + 5);
    }

    #[test]
    fn initiated_render_runs() {
        let sg = oscillator();
        let xp = sg.event_by_label("x+").unwrap();
        let mut sim = SimArena::new();
        sim.run(&sg, xp, 2, false).unwrap();
        let text = render_initiated(&sg, &sim, DiagramOptions::default()).unwrap();
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn bare_signals_are_skipped() {
        let mut b = SignalGraph::builder();
        let x = b.event("tick");
        b.marked_arc(x, x, 1.0);
        let sg = b.build().unwrap();
        let sim = TimingSimulation::run(&sg, 2, None).unwrap();
        let text = render(&sg, &sim, DiagramOptions::default()).unwrap();
        // Only ruler lines; no waveform rows.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn oversized_diagram_is_refused_before_allocating() {
        // x+ -> x- at 10^11 time units: three periods at two characters
        // per unit would need 6·10^11 columns per row.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 99_999_999_999.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();
        let sim = TimingSimulation::run(&sg, 3, None).unwrap();
        let err = render(&sg, &sim, DiagramOptions::default()).unwrap_err();
        assert_eq!(
            err,
            DiagramTooWide {
                horizon: sim.horizon(),
                chars_per_unit: 2.0,
            }
        );
        assert_eq!(
            err.to_string(),
            "timing diagram too wide: horizon 299999999999 at 2 char(s) per time unit needs \
             more than 10000 columns"
        );
        // The limit itself still draws; one column more does not.
        let at = |horizon: f64| {
            render(
                &sg,
                &sim,
                DiagramOptions {
                    chars_per_unit: 1.0,
                    horizon: Some(horizon),
                },
            )
        };
        assert!(at((MAX_COLUMNS - 1) as f64).is_ok());
        assert!(at(MAX_COLUMNS as f64).is_err());
        assert!(at(f64::INFINITY).is_err());
        assert!(at(f64::NAN).is_err());
        let xp = sg.event_by_label("x+").unwrap();
        let mut initiated = SimArena::new();
        initiated.run(&sg, xp, 2, false).unwrap();
        assert!(render_initiated(&sg, &initiated, DiagramOptions::default()).is_err());
    }
}

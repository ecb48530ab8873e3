//! Delay scenarios: the per-arc delay assignments a scenario sweep
//! analyses — min/typ/max *corners* derated by a percentage, or seeded
//! Monte-Carlo *samples* from a per-arc variation model.
//!
//! A [`ScenarioSet`] is a user-facing specification
//! (`--corners min,typ,max --derate 10`, `--samples 64 --seed 7`) and
//! nothing more: scenario `j`'s multiplicative factors are derived as
//! one row over the graph's arc slots when a consumer needs them, and
//! its delay of an arc is `nominal × factor`. A sweep
//! ([`CycleTimeAnalysis::run_scenarios_in`]) builds the graph's flattened
//! structure once and, per scenario, fills one reused factor row, writes
//! the scaled delays into the structure and runs the ordinary
//! cycle-time analysis on it, so it keeps O(m) delay state however many
//! scenarios it runs. Each scenario's result
//! is therefore bit-identical to a scalar analysis of the scenario's
//! *reweighted graph* ([`ScenarioSet::reweighted`], the nominal graph
//! with every live arc's delay scaled), which the tests use as the
//! oracle.
//!
//! # Deterministic sampling
//!
//! Scenario `j` owns an independent `SmallRng` stream seeded
//! `seed + j`, drawing one factor per arc slot in `ArcId` order.
//! Because streams never share state, sample scenario `j` of `K` is
//! bit-identical regardless of `K` — growing a sweep adds scenarios
//! without disturbing the ones already measured — and adding arcs only
//! appends draws, so existing arcs keep their factors. This is the
//! workspace's one Monte-Carlo path: each sampled delay assignment gets
//! its exact τ from an ordinary analysis, not a long-run estimate.

use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::analysis::cycle_time::{AnalysisError, CycleTimeAnalysis};
use crate::arc::ArcId;
use crate::graph::SignalGraph;

/// A classic delay corner: every arc derated the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Corner {
    /// All delays scaled by `1 − derate/100`.
    Min,
    /// Nominal delays (factor exactly `1.0`).
    Typ,
    /// All delays scaled by `1 + derate/100`.
    Max,
}

impl Corner {
    /// The lowercase flag/wire name (`min`, `typ`, `max`).
    pub fn name(self) -> &'static str {
        match self {
            Corner::Min => "min",
            Corner::Typ => "typ",
            Corner::Max => "max",
        }
    }

    /// The multiplicative delay factor of this corner at `derate`
    /// percent.
    fn factor(self, derate: f64) -> f64 {
        match self {
            Corner::Min => 1.0 - derate / 100.0,
            Corner::Typ => 1.0,
            Corner::Max => 1.0 + derate / 100.0,
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Corner {
    type Err = UnknownCorner;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "min" => Ok(Corner::Min),
            "typ" => Ok(Corner::Typ),
            "max" => Ok(Corner::Max),
            _ => Err(UnknownCorner(s.to_string())),
        }
    }
}

/// Parse error of [`Corner`]: the string names no corner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownCorner(pub String);

impl fmt::Display for UnknownCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown corner `{}` (expected min, typ or max)", self.0)
    }
}

impl std::error::Error for UnknownCorner {}

/// An invalid scenario specification — zero scenarios, or a derate
/// outside the range that keeps every scaled delay valid.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ScenarioSpecError {
    /// The specification names no scenarios (empty corner list or
    /// `samples 0`).
    Empty,
    /// The derate percentage is outside `[0, 100)` — a min corner or
    /// sampled factor would turn a delay negative (or NaN).
    InvalidDerate(f64),
}

impl fmt::Display for ScenarioSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioSpecError::Empty => write!(f, "scenario set is empty"),
            ScenarioSpecError::InvalidDerate(d) => {
                write!(f, "derate {d}% is outside [0, 100)")
            }
        }
    }
}

impl std::error::Error for ScenarioSpecError {}

/// A scenario specification: the corners and their derate, or the
/// samples' seed and jitter (their count is the number of labels).
#[derive(Clone, Debug, PartialEq)]
enum ScenarioSpec {
    Corners { derate: f64, which: Vec<Corner> },
    Samples { seed: u64, jitter: f64 },
}

/// A fixed set of delay scenarios: its specification and per-scenario
/// labels. Scenario `j`'s factors are derived over whatever arc slots a
/// graph has at the moment they are needed, so one set serves every
/// generation of an edited graph.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::scenario::{Corner, ScenarioSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max])?;
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.label(0), "min");
/// let typ = set.reweighted(&sg, 1)?; // typ: factors are exactly 1.0
/// let a = sg.arc_ids().next().unwrap();
/// assert_eq!(typ.arc(a).delay(), sg.arc(a).delay());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSet {
    spec: ScenarioSpec,
    labels: Vec<String>,
}

impl ScenarioSet {
    /// Corner scenarios in the given order, each scaling every arc by
    /// the corner's factor at `derate` percent.
    ///
    /// # Errors
    ///
    /// [`ScenarioSpecError::Empty`] when `which` is empty;
    /// [`ScenarioSpecError::InvalidDerate`] when `derate` is outside
    /// `[0, 100)`.
    pub fn corners(derate: f64, which: &[Corner]) -> Result<Self, ScenarioSpecError> {
        if which.is_empty() {
            return Err(ScenarioSpecError::Empty);
        }
        if !(0.0..100.0).contains(&derate) {
            return Err(ScenarioSpecError::InvalidDerate(derate));
        }
        Ok(ScenarioSet {
            labels: which.iter().map(|c| c.name().to_string()).collect(),
            spec: ScenarioSpec::Corners {
                derate,
                which: which.to_vec(),
            },
        })
    }

    /// `count` sampled scenarios: scenario `j` draws one factor per arc
    /// slot in `ArcId` order from an independent stream seeded
    /// `seed + j`, each factor uniform in `[1 − jitter, 1 + jitter)`, so
    /// scenario `j` is bit-identical regardless of `count`.
    ///
    /// # Errors
    ///
    /// [`ScenarioSpecError::Empty`] when `count == 0`;
    /// [`ScenarioSpecError::InvalidDerate`] when `jitter_pct` is outside
    /// `[0, 100)`.
    pub fn samples(count: usize, seed: u64, jitter_pct: f64) -> Result<Self, ScenarioSpecError> {
        if count == 0 {
            return Err(ScenarioSpecError::Empty);
        }
        if !(0.0..100.0).contains(&jitter_pct) {
            return Err(ScenarioSpecError::InvalidDerate(jitter_pct));
        }
        Ok(ScenarioSet {
            labels: (0..count).map(|j| format!("s{j}")).collect(),
            spec: ScenarioSpec::Samples {
                seed,
                jitter: jitter_pct / 100.0,
            },
        })
    }

    /// Number of scenarios `s`.
    #[allow(clippy::len_without_is_empty)] // construction rejects empty sets
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// The display label of scenario `j` (`min`/`typ`/`max` or `s{j}`).
    pub fn label(&self, j: usize) -> &str {
        &self.labels[j]
    }

    /// Writes scenario `j`'s factors for arc slots `0..slots` into
    /// `row` (slots indexed by `ArcId::index`, tombstones included): a
    /// corner's constant, or the draws of the scenario's own stream in
    /// `ArcId` order. The row over `m` slots is a prefix of the row over
    /// any `m' > m`, so adding arcs never changes the factors of the arcs
    /// already there.
    pub(crate) fn fill_row(&self, j: usize, slots: usize, row: &mut Vec<f64>) {
        row.clear();
        match self.spec {
            ScenarioSpec::Corners { derate, ref which } => {
                row.resize(slots, which[j].factor(derate));
            }
            ScenarioSpec::Samples { seed, jitter } => {
                // Independent stream per scenario: adding scenarios
                // never perturbs earlier ones.
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(j as u64));
                row.extend((0..slots).map(|_| jitter_factor(&mut rng, jitter)));
            }
        }
    }

    /// Checks scenario `j`'s delay, under its factor `row`, of every
    /// live arc of `sg`, failing with [`AnalysisError::ScenarioDelay`]
    /// on the first, in `ArcId` order, that overflows (factors are
    /// positive and finite, so that is the only way out of the delay
    /// domain).
    pub(crate) fn check(
        &self,
        sg: &SignalGraph,
        j: usize,
        row: &[f64],
    ) -> Result<(), AnalysisError> {
        let overflows = |a: ArcId| !delay(row, a, sg.arc(a).delay().get()).is_finite();
        match sg.arc_ids().find(|&a| sg.is_live_arc(a) && overflows(a)) {
            Some(a) => Err(self.overflow_error(sg, j, a)),
            None => Ok(()),
        }
    }

    /// Scenario `j`'s reweighted graph: `sg` with every live arc's
    /// delay replaced by `nominal × factor` under scenario `j`'s factor
    /// row — the graph the scalar verification oracle analyses against
    /// a sweep's scenario `j`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ScenarioDelay`], naming the scenario and the
    /// first arc in `ArcId` order, when a scaled delay overflows to
    /// infinity (a nominal delay near `f64::MAX`).
    pub fn reweighted(&self, sg: &SignalGraph, j: usize) -> Result<SignalGraph, AnalysisError> {
        let mut row = Vec::new();
        self.fill_row(j, sg.arc_count(), &mut row);
        self.check(sg, j, &row)?;
        let mut out = sg.clone();
        for a in sg.arc_ids().filter(|&a| sg.is_live_arc(a)) {
            out.set_delay(a, delay(&row, a, sg.arc(a).delay().get()))
                .expect("checked finite");
        }
        Ok(out)
    }

    /// The [`AnalysisError::ScenarioDelay`] for scenario `j` scaling
    /// arc `a` of `sg` past the largest finite delay.
    pub(crate) fn overflow_error(&self, sg: &SignalGraph, j: usize, a: ArcId) -> AnalysisError {
        let arc = sg.arc(a);
        AnalysisError::ScenarioDelay {
            scenario: self.label(j).to_owned(),
            src: sg.label(arc.src()).to_string(),
            dst: sg.label(arc.dst()).to_string(),
        }
    }
}

/// The scenario delay of arc `a` at nominal delay `nominal` under the
/// factor row `row` — the one definition sweeps, session edits and
/// [`ScenarioSet::reweighted`] share.
pub(crate) fn delay(row: &[f64], a: ArcId, nominal: f64) -> f64 {
    nominal * row[a.index()]
}

/// Multiplicative delay perturbation in `[1 − jitter, 1 + jitter)`,
/// from a uniform draw in `[0, 1)` on the top 53 bits of the stream;
/// exactly `1.0` at `jitter == 0`.
fn jitter_factor(rng: &mut SmallRng, jitter: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 + jitter * (2.0 * unit - 1.0)
}

/// The result of one scenario sweep: a full [`CycleTimeAnalysis`] per
/// scenario, plus the distribution summaries reports surface — τ per
/// corner, τ mean/quantiles, and per-arc criticality probabilities.
#[derive(Clone, Debug)]
pub struct ScenarioAnalysis {
    labels: Vec<String>,
    per: Vec<CycleTimeAnalysis>,
}

impl ScenarioAnalysis {
    pub(crate) fn new(labels: Vec<String>, per: Vec<CycleTimeAnalysis>) -> Self {
        debug_assert_eq!(labels.len(), per.len());
        ScenarioAnalysis { labels, per }
    }

    /// Number of scenarios analysed.
    #[allow(clippy::len_without_is_empty)] // always at least one scenario
    pub fn len(&self) -> usize {
        self.per.len()
    }

    /// The display label of scenario `j`.
    pub fn label(&self, j: usize) -> &str {
        &self.labels[j]
    }

    /// The full analysis of scenario `j`.
    pub fn analysis(&self, j: usize) -> &CycleTimeAnalysis {
        &self.per[j]
    }

    /// All per-scenario analyses, scenario-ordered.
    pub fn analyses(&self) -> &[CycleTimeAnalysis] {
        &self.per
    }

    /// τ of every scenario, scenario-ordered.
    pub fn taus(&self) -> Vec<f64> {
        self.per.iter().map(|a| a.cycle_time().as_f64()).collect()
    }

    /// Mean τ over the scenarios.
    pub fn tau_mean(&self) -> f64 {
        self.taus().iter().sum::<f64>() / self.len() as f64
    }

    /// Nearest-rank quantile of the τ distribution (`q` in `[0, 1]`;
    /// `q = 0.5` is the median, `q = 1.0` the maximum).
    pub fn tau_quantile(&self, q: f64) -> f64 {
        let mut taus = self.taus();
        taus.sort_by(f64::total_cmp);
        let s = taus.len();
        let idx = ((q * s as f64).ceil().max(1.0) as usize - 1).min(s - 1);
        taus[idx]
    }

    /// Per-arc criticality: for every arc on at least one scenario's
    /// critical cycle, the fraction of scenarios whose critical cycle
    /// contains it — sorted most-critical first (ties by arc index).
    pub fn criticality(&self) -> Vec<(ArcId, f64)> {
        criticality_of(self.per.iter().map(|a| a.critical_cycle()), self.len())
    }
}

/// The criticality of the arcs on `cycles`, one per scenario of `s`:
/// each arc's occurrences are counted in one dense per-arc-slot array,
/// so the cost is linear in the cycles' total length plus the largest
/// arc index.
fn criticality_of<'a>(cycles: impl Iterator<Item = &'a [ArcId]>, s: usize) -> Vec<(ArcId, f64)> {
    let mut counts: Vec<usize> = Vec::new();
    for cycle in cycles {
        for &arc in cycle {
            if arc.index() >= counts.len() {
                counts.resize(arc.index() + 1, 0);
            }
            counts[arc.index()] += 1;
        }
    }
    let mut hits: Vec<(ArcId, usize)> = (0..counts.len())
        .filter(|&a| counts[a] > 0)
        .map(|a| (ArcId(a as u32), counts[a]))
        .collect();
    hits.sort_by_key(|&(arc, c)| (std::cmp::Reverse(c), arc.index()));
    hits.into_iter()
        .map(|(arc, c)| (arc, c as f64 / s as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::wide::AnalysisArena;
    use crate::SignalGraph;

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
    fn corner_factors_and_labels() {
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(
            (0..3).map(|j| set.label(j)).collect::<Vec<_>>(),
            ["min", "typ", "max"]
        );
        let mut row = Vec::new();
        for (j, f) in [0.9, 1.0, 1.1].into_iter().enumerate() {
            set.fill_row(j, 4, &mut row);
            assert_eq!(row, [f; 4]);
        }
    }

    #[test]
    fn corner_parse_round_trip_and_errors() {
        for c in [Corner::Min, Corner::Typ, Corner::Max] {
            assert_eq!(c.name().parse::<Corner>(), Ok(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!("TYP".parse::<Corner>(), Ok(Corner::Typ));
        assert_eq!(
            "fast".parse::<Corner>(),
            Err(UnknownCorner("fast".to_string()))
        );
        assert_eq!(
            ScenarioSet::corners(10.0, &[]).unwrap_err(),
            ScenarioSpecError::Empty
        );
        assert_eq!(
            ScenarioSet::corners(100.0, &[Corner::Min]).unwrap_err(),
            ScenarioSpecError::InvalidDerate(100.0)
        );
        assert_eq!(
            ScenarioSet::samples(0, 1, 10.0).unwrap_err(),
            ScenarioSpecError::Empty
        );
    }

    /// The satellite requirement: sample scenario `j` of `K` must be
    /// bit-identical regardless of `K` — per-scenario streams never
    /// share state.
    #[test]
    fn sample_scenarios_are_independent_of_count() {
        let slots = 7;
        let small = ScenarioSet::samples(3, 42, 15.0).unwrap();
        let large = ScenarioSet::samples(64, 42, 15.0).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for j in 0..small.len() {
            small.fill_row(j, slots, &mut a);
            large.fill_row(j, slots, &mut b);
            let bits = |row: &[f64]| row.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "scenario {j}");
        }
    }

    /// A row over `m` slots is a prefix of the row over `m' > m`, and a
    /// set built before its graph gained arcs sweeps the grown graph
    /// exactly as the scalar engine analyses each reweighted graph.
    #[test]
    fn factor_rows_grow_by_appending() {
        let samples = ScenarioSet::samples(4, 7, 20.0).unwrap();
        let corners = ScenarioSet::corners(5.0, &[Corner::Min, Corner::Max]).unwrap();
        let (mut short, mut long) = (Vec::new(), Vec::new());
        for set in [&samples, &corners] {
            for j in 0..set.len() {
                set.fill_row(j, 5, &mut short);
                set.fill_row(j, 9, &mut long);
                assert_eq!(long.len(), 9);
                assert_eq!(short, long[..5], "scenario {j}");
            }
        }
        corners.fill_row(1, 6, &mut long);
        assert_eq!(long[5], 1.05);

        let mut sg = figure2();
        let before = sg.arc_count();
        let ap = sg.event_by_label("a+").unwrap();
        let bm = sg.event_by_label("b-").unwrap();
        let cm = sg.event_by_label("c-").unwrap();
        sg.add_arc(ap, bm, 4.0, false).unwrap();
        sg.add_arc(cm, ap, 6.0, true).unwrap();
        sg.validate().unwrap();
        assert_eq!(sg.arc_count(), before + 2);
        for set in [&samples, &corners] {
            let sweep =
                CycleTimeAnalysis::run_scenarios_in(&sg, set, &mut AnalysisArena::new(), None)
                    .unwrap();
            for j in 0..set.len() {
                let want = CycleTimeAnalysis::run_scalar(&set.reweighted(&sg, j).unwrap()).unwrap();
                let got = sweep.analysis(j);
                assert_eq!(
                    got.cycle_time().as_f64().to_bits(),
                    want.cycle_time().as_f64().to_bits(),
                    "scenario {j}"
                );
                assert_eq!(got.critical_cycle(), want.critical_cycle(), "scenario {j}");
            }
        }
    }

    #[test]
    fn reweighted_scales_only_live_arcs() {
        let sg = figure2();
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        let typ = set.reweighted(&sg, 1).unwrap();
        for a in sg.arc_ids() {
            assert_eq!(
                typ.arc(a).delay().get().to_bits(),
                sg.arc(a).delay().get().to_bits(),
                "typ corner must be bitwise nominal"
            );
        }
        let max = set.reweighted(&sg, 2).unwrap();
        for a in sg.arc_ids().filter(|&a| sg.is_live_arc(a)) {
            assert_eq!(
                max.arc(a).delay().get().to_bits(),
                (sg.arc(a).delay().get() * 1.1).to_bits()
            );
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sg = figure2();
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        let per: Vec<_> = (0..set.len())
            .map(|j| CycleTimeAnalysis::run(&set.reweighted(&sg, j).unwrap()).unwrap())
            .collect();
        let labels = (0..set.len()).map(|j| set.label(j).to_string()).collect();
        let sa = ScenarioAnalysis::new(labels, per);
        let taus = sa.taus();
        // Corners scale every delay uniformly, so τ scales with them.
        assert_eq!(taus.len(), 3);
        assert!(taus[0] < taus[1] && taus[1] < taus[2]);
        assert_eq!(sa.tau_quantile(0.0), taus[0]);
        assert_eq!(sa.tau_quantile(0.5), taus[1]);
        assert_eq!(sa.tau_quantile(1.0), taus[2]);
        let mean = (taus[0] + taus[1] + taus[2]) / 3.0;
        assert!((sa.tau_mean() - mean).abs() < 1e-12);
        // Every scenario's critical cycle exists; probabilities in (0,1].
        for (_, p) in sa.criticality() {
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn near_max_delays_are_a_scenario_error_not_a_panic() {
        // 1.7e308 is a valid delay; the max corner's ×1.1 is not.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.7e308);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();
        let want = AnalysisError::ScenarioDelay {
            scenario: "max".to_owned(),
            src: "x+".to_owned(),
            dst: "x-".to_owned(),
        };
        assert_eq!(
            want.to_string(),
            "scenario max scales the delay of x+ -> x- past the largest finite delay"
        );
        let corners = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        assert!(corners.reweighted(&sg, 0).is_ok());
        assert_eq!(corners.reweighted(&sg, 2).unwrap_err(), want);
        assert_eq!(
            CycleTimeAnalysis::run_scenarios_in(&sg, &corners, &mut AnalysisArena::new(), None)
                .unwrap_err(),
            want
        );

        // A disengageable prefix arc never reaches a lane,
        // yet overflowing it alone still fails the sweep, naming it.
        let mut b = SignalGraph::builder();
        let go = b.initial_event("go");
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.disengageable_arc(go, xp, 1.7e308);
        b.arc(xp, xm, 1.0);
        b.marked_arc(xm, xp, 1.0);
        let prefixed = b.build().unwrap();
        let set = ScenarioSet::corners(10.0, &[Corner::Typ, Corner::Max]).unwrap();
        assert_eq!(
            CycleTimeAnalysis::run_scenarios_in(&prefixed, &set, &mut AnalysisArena::new(), None)
                .unwrap_err(),
            AnalysisError::ScenarioDelay {
                scenario: "max".to_owned(),
                src: "go".to_owned(),
                dst: "x+".to_owned(),
            }
        );

        // Seeded samples at ±10%: the first scenario drawing a factor
        // above MAX / 1.7e308 ≈ 1.057 is named.
        let samples = ScenarioSet::samples(4, 0, 10.0).unwrap();
        let first = (0..samples.len())
            .find(|&j| samples.reweighted(&sg, j).is_err())
            .expect("some sample inflates the delay");
        let err =
            CycleTimeAnalysis::run_scenarios_in(&sg, &samples, &mut AnalysisArena::new(), None)
                .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::ScenarioDelay {
                scenario: format!("s{first}"),
                src: "x+".to_owned(),
                dst: "x-".to_owned(),
            }
        );
    }

    /// The quadratic criticality count the dense one replaced: a linear
    /// search of the counts so far per critical arc.
    fn criticality_by_search(cycles: &[Vec<ArcId>], s: usize) -> Vec<(ArcId, f64)> {
        let mut counts: Vec<(ArcId, usize)> = Vec::new();
        for cycle in cycles {
            for &arc in cycle {
                match counts.iter_mut().find(|(x, _)| *x == arc) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((arc, 1)),
                }
            }
        }
        counts.sort_by_key(|&(arc, c)| (std::cmp::Reverse(c), arc.index()));
        counts
            .into_iter()
            .map(|(arc, c)| (arc, c as f64 / s as f64))
            .collect()
    }

    #[test]
    fn dense_criticality_equals_the_linear_search() {
        let mut rng = SmallRng::seed_from_u64(11);
        for case in 0..200u64 {
            // Few arc ids force ties and repeats; some cycles are empty.
            let ids = 1 + rng.next_u64() % 12;
            let s = 1 + (rng.next_u64() % 8) as usize;
            let cycles: Vec<Vec<ArcId>> = (0..s)
                .map(|_| {
                    let len = rng.next_u64() % 6;
                    (0..len)
                        .map(|_| ArcId((rng.next_u64() % ids) as u32))
                        .collect()
                })
                .collect();
            let got = criticality_of(cycles.iter().map(Vec::as_slice), s);
            let want = criticality_by_search(&cycles, s);
            let bits =
                |v: &[(ArcId, f64)]| v.iter().map(|&(a, p)| (a, p.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}: {cycles:?}");
        }
        assert!(criticality_of(std::iter::once::<&[ArcId]>(&[]), 1).is_empty());
    }
}

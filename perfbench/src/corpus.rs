//! Seeded request corpora and their expected responses.
//!
//! A corpus is a pure function of the workload, the seed and the
//! request count: the same arguments give a byte-identical corpus. Every
//! expected response is computed in process through `tsg_serve::ops` —
//! the served output is documented to be byte-identical to it — by
//! parsing the very request line the client will send.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use tsg_baselines::howard_cycle_time;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::SignalGraph;
use tsg_gen::{random_live_tsg, RandomTsgConfig};
use tsg_serve::json::Json;
use tsg_serve::ops::{OpError, SplitMix64, Workspace};
use tsg_serve::protocol::{self, Command};
use tsg_stg::{parse_stg, write_stg, StgOptions};

use crate::workload::Workload;

/// Connection number the in-process replays run sessions under.
const CONN: u64 = 0;

/// Name of the one incremental session `explore-edits` drives.
const SESSION: &str = "s";

/// A generator configuration and the exact border count its skeletons
/// are drawn with. Skeletons are drawn until they hit that count, so the
/// kernel's `b·(b+1)·n` work is the same for every seed and run-to-run
/// spread is noise, not a different graph size.
#[derive(Clone, Copy)]
struct Skeleton {
    config: RandomTsgConfig,
    borders: usize,
}

/// The `analyze-large` skeleton: a 1024-event ring with 8 tokens and 64
/// chords, b = 37.
const LARGE: Skeleton = Skeleton {
    config: RandomTsgConfig {
        events: 1024,
        tokens: 8,
        chords: 64,
        max_delay: 9,
        with_prefix: false,
    },
    borders: 37,
};

/// The `explore-edits` skeleton: a 512-event ring with 4 tokens and 32
/// chords, b = 20. Its session holds a 1.7 MB lane matrix. On the
/// 1024-event skeleton the 11.5 MB matrix made every edit memory-bound,
/// and run-to-run spread on a shared host was 2-4x that of this one.
const EDIT: Skeleton = Skeleton {
    config: RandomTsgConfig {
        events: 512,
        tokens: 4,
        chords: 32,
        max_delay: 9,
        with_prefix: false,
    },
    borders: 20,
};

/// Largest delay drawn for an arc.
const MAX_DELAY: u64 = 9;

/// Every `SIM_EVERY`th `serve-small` request is a `sim` request: a fixed
/// 25% share, which keeps both p50 and p90 away from the class boundary
/// (sim requests are the cheaper class, so the boundary sits at p25).
const SIM_EVERY: usize = 4;

/// Within each block of `explore-edits` edits, the slot that adds a
/// marked chord and the slot that removes it again; every other slot is a
/// single delay edit. Structural edits are thus a fixed 25% share, the
/// slower class, so p90 lands inside it and p50 outside.
const EDIT_BLOCK: usize = 8;
const ADD_SLOT: usize = 2;
const REMOVE_SLOT: usize = 6;

/// What kind of work a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `analyze` of an inline graph.
    Analyze,
    /// `sim` of an inline graph.
    Sim,
    /// `session.open` of the skeleton.
    Open,
    /// `session.edit` with one delay edit.
    EditDelay,
    /// `session.edit` adding or removing a marked chord.
    EditStruct,
}

/// One request and the response it must get back, byte for byte.
pub struct Exchange {
    /// The protocol line, newline included.
    pub request: String,
    /// The expected response line, without its newline.
    pub expected: String,
    /// The request's kind of work.
    pub class: Class,
}

/// The requests of one run.
pub struct Corpus {
    /// Per cold start, the set-up requests: the `session.open` (for
    /// `explore-edits`) and the warm-up pass. Each cold start gets
    /// distinct inputs.
    pub cold_starts: Vec<Vec<Exchange>>,
    /// The measured sequence, sent to the first cold-started server.
    pub measured: Vec<Exchange>,
}

/// Executes one parsed request against `ws` the way a serve worker does.
///
/// # Errors
///
/// The handler's error; commands the benchmark never sends are errors
/// too.
pub fn execute(ws: &mut Workspace, cmd: &Command) -> Result<String, OpError> {
    match cmd {
        Command::Analyze { source, opts } => ws.analyze(source, opts, None),
        Command::Sim { source, opts } => ws.simulate(source, opts, None),
        Command::SessionOpen {
            session,
            source,
            default_delay,
        } => ws.session_open(CONN, session, source, *default_delay, None),
        Command::SessionEdit { session, edits } => ws.session_edit(CONN, session, edits, None),
        other => Err(OpError::Msg(format!("the benchmark never sends {other:?}"))),
    }
}

/// Computes expected responses by replaying requests in order on one
/// warm workspace, as the single serve worker will.
struct Replayer {
    ws: Workspace,
    next_id: u64,
}

impl Replayer {
    fn new(next_id: u64) -> Self {
        Replayer {
            ws: Workspace::new(),
            next_id,
        }
    }

    /// Builds the request `{"id": N, fields...}`, replays it and returns
    /// the exchange, or the handler's error (the workspace is unchanged
    /// by a failed request).
    fn exchange(&mut self, fields: Vec<(&str, Json)>, class: Class) -> Result<Exchange, String> {
        let id = Json::from(self.next_id);
        let mut obj = vec![("id".to_owned(), id.clone())];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
        let line = Json::Obj(obj).dump();
        let request = protocol::parse_request(&line).map_err(|(_, e)| e)?;
        let output = execute(&mut self.ws, &request.cmd).map_err(|e| e.to_string())?;
        self.next_id += 1;
        Ok(Exchange {
            request: line + "\n",
            expected: protocol::ok_response(&id, &output),
            class,
        })
    }
}

/// `sg` rebuilt with signal-transition labels — the generators emit
/// bare labels (`v3`), which the `.g` writer refuses, so they become
/// rising transitions (`v3+`) — and each arc's delay mapped through
/// `delay`.
fn relabel(sg: &SignalGraph, mut delay: impl FnMut(f64) -> f64) -> SignalGraph {
    let mut b = SignalGraph::builder();
    let ids: Vec<_> = sg
        .events()
        .map(|e| {
            let label = sg.label(e);
            match label.polarity() {
                Some(_) => b.event(&label.to_string()),
                None => b.event(&format!("{label}+")),
            }
        })
        .collect();
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        let (src, dst) = (ids[arc.src().index()], ids[arc.dst().index()]);
        let d = delay(arc.delay().get());
        if arc.is_marked() {
            b.marked_arc(src, dst, d);
        } else {
            b.arc(src, dst, d);
        }
    }
    b.build()
        .expect("relabelling keeps the generator's invariants")
}

/// Splits exchanges into `cold` warm-up sets of `warm` and the measured
/// rest.
fn split(mut all: Vec<Exchange>, cold: usize, warm: usize) -> Corpus {
    let measured = all.split_off(cold * warm);
    let mut all = all.into_iter();
    Corpus {
        cold_starts: (0..cold)
            .map(|_| all.by_ref().take(warm).collect())
            .collect(),
        measured,
    }
}

/// The arcs of `sg` as (source label, target label, delay bits,
/// marking), sorted: two graphs with the same arcs give the same list.
fn arcs_by_label(sg: &SignalGraph) -> Vec<(String, String, u64, bool)> {
    let mut arcs: Vec<_> = sg
        .arc_ids()
        .map(|a| {
            let arc = sg.arc(a);
            (
                sg.label(arc.src()).to_string(),
                sg.label(arc.dst()).to_string(),
                arc.delay().get().to_bits(),
                arc.is_marked(),
            )
        })
        .collect();
    arcs.sort_unstable();
    arcs
}

/// Whether two arcs of `sg` join the same ordered pair of events.
fn has_parallel_arcs(sg: &SignalGraph) -> bool {
    let mut pairs: Vec<_> = sg
        .arc_ids()
        .map(|a| (sg.arc(a).src(), sg.arc(a).dst()))
        .collect();
    pairs.sort_unstable();
    pairs.windows(2).any(|w| w[0] == w[1])
}

/// The `.g` text of `sg` if the graph survives the round trip: no two
/// arcs join the same pair of events, and the re-parsed graph has the
/// original's arcs, delays and markings. Generator graphs that fail are
/// dropped. Parallel arcs are refused outright: the reader gives both
/// `.delay` lines to one of them, so even a pair that happens to round
/// trip under one set of delays breaks under the next.
///
/// # Errors
///
/// A τ that disagrees with Howard's policy iteration on the original
/// graph is a kernel bug, not a generator quirk.
fn round_trip(sg: &SignalGraph, arena: &mut AnalysisArena) -> Result<Option<String>, String> {
    if has_parallel_arcs(sg) {
        return Ok(None);
    }
    let tau = CycleTimeAnalysis::run_in(sg, None, arena)
        .map_err(|e| e.to_string())?
        .cycle_time();
    let howard = howard_cycle_time(sg).ok_or("Howard found no cycle")?;
    if howard != tau {
        return Err(format!("τ {tau} disagrees with Howard's {howard}"));
    }
    let Ok(text) = write_stg(sg, "bench") else {
        return Ok(None);
    };
    let Ok(back) = parse_stg(&text, StgOptions::default()) else {
        return Ok(None);
    };
    let same = back.event_count() == sg.event_count() && arcs_by_label(&back) == arcs_by_label(sg);
    Ok(same.then_some(text))
}

/// A fingerprint of `text`, to keep request texts distinct.
fn fingerprint(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Distinct `serve-small` skeletons drawn per run. Each request sends
/// the next one, in turn, under fresh delays. The latency tail follows
/// the share of costlier graphs in the pool, so the pool is large enough
/// for that share to vary little from seed to seed.
const SMALL_SKELETONS: usize = 4096;

/// Draws `SMALL_SKELETONS` distinct small skeletons that survive the
/// round trip. Most small draws have a parallel pair; they are skipped
/// before the costlier steps.
fn small_skeletons(rng: &mut SplitMix64) -> Result<Vec<SignalGraph>, String> {
    let mut arena = AnalysisArena::new();
    let mut seen = HashSet::new();
    let mut skeletons = Vec::with_capacity(SMALL_SKELETONS);
    while skeletons.len() < SMALL_SKELETONS {
        let sg = random_live_tsg(rng.next(), RandomTsgConfig::default());
        if has_parallel_arcs(&sg) {
            continue;
        }
        let sg = relabel(&sg, |d| d);
        if let Some(text) = round_trip(&sg, &mut arena)? {
            if seen.insert(fingerprint(&text)) {
                skeletons.push(sg);
            }
        }
    }
    Ok(skeletons)
}

/// Draws the run's skeleton of `kind`: a graph with exactly its border
/// count that survives the round trip.
fn skeleton(kind: Skeleton, rng: &mut SplitMix64) -> Result<SignalGraph, String> {
    let mut arena = AnalysisArena::new();
    for _ in 0..10_000 {
        let sg = relabel(&random_live_tsg(rng.next(), kind.config), |d| d);
        if sg.border_events().len() == kind.borders && round_trip(&sg, &mut arena)?.is_some() {
            return Ok(sg);
        }
    }
    Err("no skeleton with the wanted border count".to_owned())
}

/// The skeleton with fresh seeded delays, distinct from every graph
/// drawn before, as `.g` text; and the `cycle time:` line its `analyze`
/// report must carry — Howard's τ on the in-memory graph, which the
/// server only sees after the `.g` round trip.
fn fresh_delays(
    skel: &SignalGraph,
    rng: &mut SplitMix64,
    seen: &mut HashSet<u64>,
) -> Result<(String, String), String> {
    loop {
        let sg = relabel(skel, |_| rng.below(MAX_DELAY + 1) as f64);
        let text = write_stg(&sg, "bench").map_err(|e| e.to_string())?;
        if seen.insert(fingerprint(&text)) {
            let tau = howard_cycle_time(&sg).ok_or("Howard found no cycle")?;
            return Ok((text, format!("\ncycle time: {tau}\n")));
        }
    }
}

/// Checks an `analyze` response for the cycle-time line `tau_line`.
fn check_tau(ex: &Exchange, tau_line: &str) -> Result<(), String> {
    let output = Json::parse(&ex.expected).map_err(|e| e.to_string())?;
    let output = output
        .get("output")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if output.contains(tau_line) {
        Ok(())
    } else {
        Err(format!(
            "τ after the .g round trip disagrees with Howard's{tau_line}"
        ))
    }
}

fn inline(text: String) -> [(&'static str, Json); 2] {
    [("name", Json::from("inline.g")), ("text", Json::Str(text))]
}

/// Builds the corpus of `workload` for `seed`, with `measured` requests
/// in the measured sequence.
///
/// # Errors
///
/// Generator or replay failures: the corpus only holds requests the
/// in-process ops answer successfully.
pub fn build(workload: Workload, seed: u64, measured: usize) -> Result<Corpus, String> {
    let mut rng = SplitMix64(seed ^ 0x7065_7266_6265_6e63);
    let (cold, warm) = (workload.cold_starts(), workload.warmup());
    let total = cold * warm + measured;
    match workload {
        Workload::ServeSmall => {
            let skeletons = small_skeletons(&mut rng)?;
            let mut seen = HashSet::new();
            let mut replay = Replayer::new(1);
            let all = (0..total)
                .map(|i| {
                    let skel = &skeletons[i % skeletons.len()];
                    let (text, tau) = fresh_delays(skel, &mut rng, &mut seen)?;
                    let [name, text] = inline(text);
                    if i % SIM_EVERY == SIM_EVERY - 1 {
                        let fields = vec![
                            ("cmd", Json::from("sim")),
                            name,
                            text,
                            ("periods", Json::from(2u64)),
                        ];
                        replay.exchange(fields, Class::Sim)
                    } else {
                        let fields = vec![("cmd", Json::from("analyze")), name, text];
                        let ex = replay.exchange(fields, Class::Analyze)?;
                        check_tau(&ex, &tau)?;
                        Ok(ex)
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(split(all, cold, warm))
        }
        Workload::AnalyzeLarge => {
            let skel = skeleton(LARGE, &mut rng)?;
            let mut seen = HashSet::new();
            let mut replay = Replayer::new(1);
            let all = (0..total)
                .map(|_| {
                    let (text, tau) = fresh_delays(&skel, &mut rng, &mut seen)?;
                    let [name, text] = inline(text);
                    let fields = vec![("cmd", Json::from("analyze")), name, text];
                    let ex = replay.exchange(fields, Class::Analyze)?;
                    check_tau(&ex, &tau)?;
                    Ok(ex)
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(split(all, cold, warm))
        }
        Workload::ExploreEdits => {
            let skel = skeleton(EDIT, &mut rng)?;
            let mut seen = HashSet::new();
            let mut next_id = 1;
            let mut cold_starts = Vec::with_capacity(cold);
            let mut first = None;
            for _ in 0..cold {
                // Each cold start opens the skeleton under its own delays
                // and warms up on its own edits.
                let (text, _) = fresh_delays(&skel, &mut rng, &mut seen)?;
                let mut script = EditScript::new(&skel, SplitMix64(rng.next()), next_id);
                let open = vec![
                    ("cmd", Json::from("session.open")),
                    ("session", Json::from(SESSION)),
                    ("name", Json::from("skeleton.g")),
                    ("text", Json::Str(text)),
                ];
                let mut setup = vec![script.replay.exchange(open, Class::Open)?];
                for _ in 0..warm {
                    setup.push(script.next()?);
                }
                next_id = script.replay.next_id;
                cold_starts.push(setup);
                first.get_or_insert(script);
            }
            // The measured edits continue the first server's session.
            let mut script = first.ok_or("no cold start")?;
            script.replay.next_id = next_id;
            let measured = (0..measured)
                .map(|_| script.next())
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Corpus {
                cold_starts,
                measured,
            })
        }
    }
}

/// The seeded `session.edit` script of `explore-edits`, validated and
/// answered by replaying it on a live session as it is drawn.
struct EditScript {
    replay: Replayer,
    rng: SplitMix64,
    labels: Vec<String>,
    /// Skeleton arcs by event index, the targets of delay edits.
    arcs: Vec<(usize, usize)>,
    /// Ordered pairs joined by an arc right now; a chord is only added
    /// between unjoined events, so its removal removes exactly it.
    joined: HashSet<(usize, usize)>,
    /// The chord added in this block, removed later in the block.
    chord: Option<(usize, usize)>,
    /// Delay edits drawn so far (arc, centi-delay), kept distinct.
    seen: HashSet<(usize, u64)>,
    slot: usize,
}

impl EditScript {
    fn new(skel: &SignalGraph, rng: SplitMix64, next_id: u64) -> Self {
        let arcs: Vec<(usize, usize)> = skel
            .arc_ids()
            .map(|a| (skel.arc(a).src().index(), skel.arc(a).dst().index()))
            .collect();
        EditScript {
            replay: Replayer::new(next_id),
            rng,
            labels: skel.events().map(|e| skel.label(e).to_string()).collect(),
            joined: arcs.iter().copied().collect(),
            arcs,
            chord: None,
            seen: HashSet::new(),
            slot: 0,
        }
    }

    fn edit(&self, edit: Vec<(&str, Json)>) -> Vec<(&'static str, Json)> {
        let edit = Json::Obj(edit.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        vec![
            ("cmd", Json::from("session.edit")),
            ("session", Json::from(SESSION)),
            ("edits", Json::Arr(vec![edit])),
        ]
    }

    /// The next edit of the script.
    fn next(&mut self) -> Result<Exchange, String> {
        let slot = self.slot % EDIT_BLOCK;
        self.slot += 1;
        let label = |i: usize| Json::from(self.labels[i].as_str());
        match (slot, self.chord) {
            (ADD_SLOT, None) => {
                let n = self.labels.len() as u64;
                let (src, dst) = loop {
                    let pair = (self.rng.below(n) as usize, self.rng.below(n) as usize);
                    if pair.0 != pair.1 && !self.joined.contains(&pair) {
                        break pair;
                    }
                };
                let delay = self.rng.below(MAX_DELAY + 1);
                let fields = self.edit(vec![
                    ("op", Json::from("add_arc")),
                    ("src", label(src)),
                    ("dst", label(dst)),
                    ("delay", Json::from(delay)),
                    ("marked", Json::Bool(true)),
                ]);
                let ex = self.replay.exchange(fields, Class::EditStruct)?;
                self.joined.insert((src, dst));
                self.chord = Some((src, dst));
                Ok(ex)
            }
            (REMOVE_SLOT, Some((src, dst))) => {
                let fields = self.edit(vec![
                    ("op", Json::from("remove_arc")),
                    ("src", label(src)),
                    ("dst", label(dst)),
                ]);
                let ex = self.replay.exchange(fields, Class::EditStruct)?;
                self.joined.remove(&(src, dst));
                self.chord = None;
                Ok(ex)
            }
            _ => {
                let (arc, centi) = loop {
                    let pick = (
                        self.rng.below(self.arcs.len() as u64) as usize,
                        self.rng.below(1000),
                    );
                    if self.seen.insert(pick) {
                        break pick;
                    }
                };
                let (src, dst) = self.arcs[arc];
                let fields = self.edit(vec![
                    ("src", label(src)),
                    ("dst", label(dst)),
                    ("delay", Json::Num(centi as f64 / 100.0)),
                ]);
                self.replay.exchange(fields, Class::EditDelay)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(c: &Corpus) -> Vec<String> {
        c.cold_starts
            .iter()
            .flatten()
            .chain(&c.measured)
            .map(|e| format!("{}{}", e.request, e.expected))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        for w in Workload::ALL {
            let a = build(w, 7, 24).unwrap();
            let b = build(w, 7, 24).unwrap();
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            let c = build(w, 8, 24).unwrap();
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
        }
    }

    #[test]
    fn no_request_text_repeats() {
        for w in Workload::ALL {
            let c = build(w, 3, 64).unwrap();
            let mut seen = HashSet::new();
            for e in c.cold_starts.iter().flatten().chain(&c.measured) {
                // Strip the id: the payload alone must be new.
                let body = e.request.split_once(',').unwrap().1;
                assert!(
                    seen.insert(body.to_owned()),
                    "{}: repeated {body}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn small_skeletons_round_trip_and_match_howard() {
        let skeletons = small_skeletons(&mut SplitMix64(1)).unwrap();
        assert_eq!(skeletons.len(), SMALL_SKELETONS);
        let mut rng = SplitMix64(2);
        for skel in skeletons.iter().take(50) {
            assert_eq!(skel.event_count(), RandomTsgConfig::default().events);
            // Requests carry fresh delays on the skeleton: each must come
            // back arc for arc, with Howard's τ.
            let sg = relabel(skel, |_| rng.below(MAX_DELAY + 1) as f64);
            let back = parse_stg(&write_stg(&sg, "bench").unwrap(), StgOptions::default()).unwrap();
            assert_eq!(arcs_by_label(&back), arcs_by_label(&sg));
            let tau = CycleTimeAnalysis::run(&back).unwrap().cycle_time();
            assert_eq!(howard_cycle_time(&sg).unwrap(), tau);
        }
    }

    #[test]
    fn generator_drops_graphs_that_do_not_round_trip() {
        // Seed 1 of the default configuration comes back from `.g` as an
        // invalid graph; relabelled, it must be dropped, not kept.
        let sg = relabel(&random_live_tsg(1, RandomTsgConfig::default()), |d| d);
        assert_eq!(round_trip(&sg, &mut AnalysisArena::new()), Ok(None));
    }

    #[test]
    fn generator_drops_graphs_with_parallel_arcs() {
        // Both `.delay` lines of a parallel pair land on one arc when read
        // back, so the pair must be dropped even when its delays happen to
        // survive.
        let mut b = SignalGraph::builder();
        let (x, y) = (b.event("x+"), b.event("y+"));
        b.arc(x, y, 1.0);
        b.arc(x, y, 1.0);
        b.marked_arc(y, x, 2.0);
        let sg = b.build().unwrap();
        assert_eq!(round_trip(&sg, &mut AnalysisArena::new()), Ok(None));
    }

    #[test]
    fn skeletons_have_the_fixed_border_count_and_round_trip_any_delays() {
        for kind in [LARGE, EDIT] {
            for seed in 0..3 {
                let mut rng = SplitMix64(seed);
                let skel = skeleton(kind, &mut rng).unwrap();
                assert_eq!(skel.event_count(), kind.config.events);
                assert_eq!(skel.border_events().len(), kind.borders);
                // Requests carry fresh delays on the skeleton: each must
                // come back arc for arc.
                for _ in 0..3 {
                    let sg = relabel(&skel, |_| rng.below(MAX_DELAY + 1) as f64);
                    let text = write_stg(&sg, "bench").unwrap();
                    let back = parse_stg(&text, StgOptions::default()).unwrap();
                    assert_eq!(arcs_by_label(&back), arcs_by_label(&sg));
                }
            }
        }
    }

    #[test]
    fn class_shares_are_fixed() {
        let c = build(Workload::ServeSmall, 2, 400).unwrap();
        let sims = c.measured.iter().filter(|e| e.class == Class::Sim).count();
        assert_eq!(sims, 100);
        let c = build(Workload::ExploreEdits, 2, 400).unwrap();
        let structural = c
            .measured
            .iter()
            .filter(|e| e.class == Class::EditStruct)
            .count();
        assert_eq!(structural, 100);
    }
}

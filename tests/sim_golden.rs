//! Golden `tsg sim` output for `.g` inputs: the exact report text and
//! VCD bytes, pinned as FNV-1a digests (plus lengths) over the four
//! bundled examples and one `write_stg` round-tripped random graph, at
//! 1, 2 and 4 periods.
//!
//! The digests were captured from the event-driven implementation the
//! period-synchronous `TimingSimulation` replaced; any change to the
//! simulated times, their order or their formatting shows up here.

use tsg::core::analysis::diagram::{self, DiagramOptions};
use tsg::core::analysis::initiated::SimArena;
use tsg::core::SignalGraph;
use tsg::serve::ops::{SimOptions, Source, Workspace};
use tsg::stg::{
    write_stg, EXAMPLE_MULTI_EVENT, EXAMPLE_OSCILLATOR, EXAMPLE_PIPELINE_2PH, EXAMPLE_RING5,
};

/// `(input, periods, text digest, text length, VCD digest, VCD length)`.
type Golden = (&'static str, u32, u64, usize, u64, usize);

const GOLDEN: &[Golden] = &[
    (
        "oscillator",
        1,
        0xca596e72d83ccbf9,
        141,
        0x904adf743072ae2a,
        256,
    ),
    (
        "oscillator",
        2,
        0xbebd95ac46b3270f,
        231,
        0x5d60c2e107fc5e7b,
        315,
    ),
    (
        "oscillator",
        4,
        0x2a768f50ead0e43c,
        411,
        0x23dc3199344ff4b1,
        435,
    ),
    (
        "pipeline_2ph",
        1,
        0x23a05f23f5406c07,
        241,
        0x1946d8ec047cfe4c,
        399,
    ),
    (
        "pipeline_2ph",
        2,
        0xf394b3b366f7ec2f,
        433,
        0xce46cecb27d67c70,
        519,
    ),
    (
        "pipeline_2ph",
        4,
        0xe05895b7af9a9893,
        817,
        0x0e4cdeb7e1e85cc0,
        759,
    ),
    ("ring5", 1, 0x1b722839ff97e8b9, 359, 0x211251e681ed9b06, 503),
    ("ring5", 2, 0xfde66e66e8a1658b, 672, 0x1cb1de21d551a71b, 611),
    (
        "ring5",
        4,
        0x213e5fd07109e532,
        1312,
        0xa7486935dfc9b850,
        822,
    ),
    (
        "multi_event",
        1,
        0x923106144f669c14,
        163,
        0x8878d129063e97a9,
        277,
    ),
    (
        "multi_event",
        2,
        0x60e998be8923ed4f,
        274,
        0x95e80d4db4d109a5,
        337,
    ),
    (
        "multi_event",
        4,
        0x6cb04ed047b2adfc,
        494,
        0x8fe4b9c55492bd3f,
        457,
    ),
    (
        "random",
        1,
        0x5114e55be6907431,
        752,
        0xdc9811c3c2099a38,
        663,
    ),
    (
        "random",
        2,
        0x21bb247cd1fa0233,
        1513,
        0xf5c805df1e9e5714,
        925,
    ),
    (
        "random",
        4,
        0x5b2126010548a61b,
        2988,
        0xc874591806936659,
        1453,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 24-event `random_live_tsg` graph relabelled into `.g` transitions,
/// with fractional delays, written out as `.g` text.
fn random_text() -> String {
    let config = tsg::gen::RandomTsgConfig {
        events: 24,
        tokens: 4,
        chords: 12,
        max_delay: 9,
        with_prefix: false,
    };
    let sg = tsg::gen::random_live_tsg(17, config);
    let mut b = SignalGraph::builder();
    let ids: Vec<_> = sg
        .events()
        .map(|e| {
            let i = e.index();
            let pol = if i % 2 == 0 { '+' } else { '-' };
            b.event(&format!("s{}{pol}", i / 2))
        })
        .collect();
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        let (s, d) = (ids[arc.src().index()], ids[arc.dst().index()]);
        let delay = arc.delay().get() + a.index() as f64 / 7.0;
        if arc.is_marked() {
            b.marked_arc(s, d, delay);
        } else {
            b.arc(s, d, delay);
        }
    }
    write_stg(&b.build().unwrap(), "random").unwrap()
}

fn simulate(name: &str, text: &str, periods: u32, vcd: Option<String>) -> String {
    let source = Source::Inline {
        name: format!("{name}.g"),
        text: text.to_owned(),
    };
    let opts = SimOptions {
        periods: Some(periods),
        vcd,
        ..SimOptions::default()
    };
    Workspace::new().simulate(&source, &opts, None).unwrap()
}

#[test]
fn sim_text_and_vcd_match_the_golden_digests() {
    let inputs = [
        ("oscillator", EXAMPLE_OSCILLATOR.to_owned()),
        ("pipeline_2ph", EXAMPLE_PIPELINE_2PH.to_owned()),
        ("ring5", EXAMPLE_RING5.to_owned()),
        ("multi_event", EXAMPLE_MULTI_EVENT.to_owned()),
        ("random", random_text()),
    ];
    let dir = std::env::temp_dir();
    let mut got: Vec<Golden> = Vec::new();
    for (name, text) in &inputs {
        for periods in [1, 2, 4] {
            let report = simulate(name, text, periods, None);
            let path = dir.join(format!(
                "tsg-sim-golden-{}-{name}-{periods}.vcd",
                std::process::id()
            ));
            let path = path.to_str().unwrap().to_owned();
            let with_vcd = simulate(name, text, periods, Some(path.clone()));
            assert_eq!(
                with_vcd,
                format!("{report}VCD waveform written to {path}\n")
            );
            let vcd = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            got.push((
                name,
                periods,
                fnv1a(report.as_bytes()),
                report.len(),
                fnv1a(&vcd),
                vcd.len(),
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(n, p, td, tl, vd, vl)| {
            format!("    ({n:?}, {p}, {td:#018x}, {tl}, {vd:#018x}, {vl}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN, "current digests:\n{table}");
}

/// The oscillator's two-period report, spelled out.
#[test]
fn oscillator_report_is_pinned_verbatim() {
    assert_eq!(
        simulate("oscillator", EXAMPLE_OSCILLATOR, 2, None),
        "simulated 12 occurrence(s) of 6 event(s) over 2 period(s)\n\
         \x20 t(a+_0) = 0\n\
         \x20 t(b+_0) = 0\n\
         \x20 t(c+_0) = 3\n\
         \x20 t(b-_0) = 4\n\
         \x20 t(a-_0) = 5\n\
         \x20 t(c-_0) = 8\n\
         \x20 t(b+_1) = 9\n\
         \x20 t(a+_1) = 10\n\
         \x20 t(c+_1) = 13\n\
         \x20 t(b-_1) = 14\n\
         \x20 t(a-_1) = 15\n\
         \x20 t(c-_1) = 18\n"
    );
}

/// Figure 1d: the `a+`-initiated diagram of the Figure 2c graph over 3
/// periods (what `repro --experiment fig1d` prints above its δ line),
/// spelled out. `b+₀` is concurrent with `a+₀`, so `b` starts high and
/// first falls at 4, then rises at 9, 19 and 29.
#[test]
fn figure1d_diagram_is_pinned_verbatim() {
    let sg = tsg::circuit::library::c_element_oscillator_tsg();
    let ap = sg.event_by_label("a+").unwrap();
    let mut sim = SimArena::new();
    sim.run(&sg, ap, 3, true).unwrap();
    assert_eq!(
        diagram::render_initiated(&sg, &sim, DiagramOptions::default()).unwrap(),
        "t 0         5         10        15        20        25        30        35\n\
         \x20 +         +         +         +         +         +         +         +     \x20\n\
         a |~~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|______\n\
         b ~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|________\n\
         c ______|~~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|_________|~~~~~~~~~|\n"
    );
}

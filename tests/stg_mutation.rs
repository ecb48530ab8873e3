//! Seeded mutation smoke for the `.g` reader: `parse_stg` returns `Ok`
//! or `Err` on any text, never panics, and returns what the reference
//! reader (`tsg_oracles::stg_reference`) returns.
//!
//! Each case takes one of the repository's `.g` inputs and applies a
//! few seeded mutations — byte flips, truncations, duplicated lines and
//! `/`-indexed tokens. `cargo test` runs a small budget; the soaks run
//! with `cargo test --test stg_mutation -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tsg::serve::ops::SplitMix64;
use tsg::stg::{parse_stg, write_stg, StgOptions};
use tsg::stg::{EXAMPLE_MULTI_EVENT, EXAMPLE_OSCILLATOR, EXAMPLE_PIPELINE_2PH, EXAMPLE_RING5};
use tsg_oracles::stg_reference;

/// The inputs mutations start from: the shipped examples and a written
/// random graph with chords.
fn seeds() -> Vec<String> {
    let mut texts: Vec<String> = [
        EXAMPLE_OSCILLATOR,
        EXAMPLE_PIPELINE_2PH,
        EXAMPLE_RING5,
        EXAMPLE_MULTI_EVENT,
    ]
    .map(String::from)
    .to_vec();
    texts.push(tsg_bench::ring_with_chords_text(48));
    texts
}

/// Bytes a flip writes: the reader's syntax, a multibyte character, and
/// whitespace that `split_whitespace` splits on but a byte-level
/// tokenizer may miss (`\u{b}` is not `u8::is_ascii_whitespace`).
const SYNTAX: &[&str] = &[
    "+", "-", "/", "#", ".", " ", "\t", "\n", "<", ">", ",", "{", "}", "0", "9", "x", "é",
    "\u{a0}", "\r", "\u{b}", "\u{c}", "\u{85}", "\u{2003}",
];

/// Applies one seeded mutation to `text`.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64 + 1) as usize;
    match rng.below(4) {
        0 => {
            // Byte flip: overwrite one byte with a syntax fragment.
            let with = SYNTAX[rng.below(SYNTAX.len() as u64) as usize].as_bytes();
            let end = (at + 1).min(bytes.len());
            bytes.splice(at.min(end)..end, with.iter().copied());
        }
        1 => bytes.truncate(at),
        2 => {
            // Duplicate the line holding byte `at`.
            let start = bytes[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| at + i + 1);
            let line = bytes[start..end].to_vec();
            bytes.splice(end..end, line);
        }
        _ => {
            // Index the transition token ending before `at`: `x+` -> `x+/N`.
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b'+' || b == b'-')
                .map(|i| at + i + 1);
            if let Some(end) = end {
                let index = match rng.below(4) {
                    0 => "/".to_owned(),
                    1 => "/x".to_owned(),
                    2 => format!("/{}", u64::MAX),
                    _ => format!("/{}", rng.below(4)),
                };
                bytes.splice(end..end, index.into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The `cases` seeded mutants of `seed`, each with the default delay
/// its parse uses.
fn mutants(cases: u64, seed: u64) -> impl Iterator<Item = (String, f64)> {
    let inputs = seeds();
    let mut rng = SplitMix64(seed);
    (0..cases).map(move |_| {
        let mut text = inputs[rng.below(inputs.len() as u64) as usize].clone();
        for _ in 0..1 + rng.below(4) {
            text = mutate(&text, &mut rng);
        }
        let default_delay = [1.0, 0.0, -1.0, f64::NAN][rng.below(4) as usize];
        (text, default_delay)
    })
}

/// Runs `cases` seeded cases; a panic names the case and its text.
fn smoke(cases: u64, seed: u64) {
    let (mut ok, mut err) = (0, 0);
    for (case, (text, default_delay)) in mutants(cases, seed).enumerate() {
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            parse_stg(&text, StgOptions { default_delay }).map(|sg| {
                // A graph that loads also writes (or refuses) cleanly.
                let _ = write_stg(&sg, "m");
            })
        }));
        match parsed {
            Ok(Ok(())) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("case {case} (seed {seed}) panicked on:\n{text}"),
        }
    }
    // The mutations keep some inputs loadable and break others.
    assert!(ok > 0 && err > 0, "{ok} loaded, {err} refused");
}

#[test]
fn mutated_g_texts_never_panic() {
    smoke(3_000, 0x5EED);
}

#[test]
#[ignore = "long soak: cargo test --test stg_mutation -- --ignored"]
fn mutated_g_texts_never_panic_soak() {
    for seed in 0..20 {
        smoke(100_000, seed);
    }
}

/// Everything a loaded graph exposes that the reader decides: each
/// event's label and kind by id, each arc's endpoints, delay bits and
/// marking, and the topological order the build computed.
fn graph_facts(sg: &tsg::core::SignalGraph) -> String {
    let mut out = String::new();
    for e in sg.events() {
        out += &format!("{} {} {:?}\n", e.index(), sg.label(e), sg.kind(e));
    }
    for a in sg.arcs() {
        out += &format!(
            "{} -> {} {:#x} {} {}\n",
            a.src().index(),
            a.dst().index(),
            a.delay().get().to_bits(),
            a.is_marked(),
            a.is_disengageable()
        );
    }
    out + &format!("{:?}", sg.topological_order())
}

/// Asserts that `parse_stg` and the reference reader agree on `text`:
/// an equal error (`Debug`, which spells NaN delays out, and text), or
/// graphs equal in every fact [`graph_facts`] lists.
fn agrees_with_the_reference(text: &str, default_delay: f64) -> Result<(), ()> {
    let options = StgOptions { default_delay };
    let got = parse_stg(text, options);
    let want = stg_reference::parse_stg(text, options);
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_eq!(graph_facts(g), graph_facts(w), "on:\n{text}"),
        (Err(g), Err(w)) => {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "on:\n{text}");
            assert_eq!(g.to_string(), w.to_string(), "on:\n{text}");
        }
        _ => panic!("parse_stg gave {got:?}, the reference {want:?}, on:\n{text}"),
    }
    got.map(drop).map_err(drop)
}

/// Runs `cases` seeded mutants through both readers.
fn differential(cases: u64, seed: u64) {
    let (mut ok, mut err) = (0, 0);
    for (text, default_delay) in mutants(cases, seed) {
        match agrees_with_the_reference(&text, default_delay) {
            Ok(()) => ok += 1,
            Err(()) => err += 1,
        }
    }
    assert!(ok > 0 && err > 0, "{ok} loaded, {err} refused");
}

#[test]
fn mutants_load_as_the_reference_reader_loads_them() {
    differential(3_000, 0x5EED);
}

#[test]
#[ignore = "long soak: cargo test --test stg_mutation -- --ignored"]
fn mutants_load_as_the_reference_reader_loads_them_soak() {
    for seed in 0..20 {
        differential(100_000, seed);
    }
}

#[test]
fn shipped_texts_load_as_the_reference_reader_loads_them() {
    let mut texts = seeds();
    texts.push(tsg_bench::ring_with_chords_text(1024));
    for text in &texts {
        agrees_with_the_reference(text, 1.0).expect("shipped texts load");
    }
    // Whitespace that only `split_whitespace` splits on, around every
    // kind of line, and tokens with non-ASCII bytes next to it.
    for space in [
        "\u{b}", "\u{c}", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
    ] {
        let text = format!(
            ".model{space}m\n.outputs{space}x\n.graph\nx+{space}x-\n{space}x-{space}x+ # c{space}\n\
             .marking{space}{{{space}<x-,x+>{space}}}\n.delay{space}x+{space}x-{space}2{space}\n\
             .delay x- x+{space}é\n.end{space}\n"
        );
        assert!(agrees_with_the_reference(&text, 1.0).is_err(), "{space:?}");
        agrees_with_the_reference(&text.replace("é", "3"), 1.0).expect("every word splits");
    }
}

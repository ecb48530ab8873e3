//! Seeded mutation smoke for the `.g` reader: `parse_stg` returns `Ok`
//! or `Err` on any text, and never panics.
//!
//! Each case takes one of the repository's `.g` inputs and applies a
//! few seeded mutations — byte flips, truncations, duplicated lines and
//! `/`-indexed tokens. `cargo test` runs a small budget; the soak runs
//! with `cargo test --test stg_mutation -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tsg::serve::ops::SplitMix64;
use tsg::stg::{parse_stg, write_stg, StgOptions};
use tsg::stg::{EXAMPLE_MULTI_EVENT, EXAMPLE_OSCILLATOR, EXAMPLE_PIPELINE_2PH, EXAMPLE_RING5};

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

/// Bytes a flip writes: the reader's syntax plus a multibyte character.
const SYNTAX: &[&str] = &[
    "+", "-", "/", "#", ".", " ", "\t", "\n", "<", ">", ",", "{", "}", "0", "9", "x", "é", "\u{a0}",
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

/// Runs `cases` seeded cases; a panic names the case and its text.
fn smoke(cases: u64, seed: u64) {
    let inputs = seeds();
    let mut rng = SplitMix64(seed);
    let (mut ok, mut err) = (0, 0);
    for case in 0..cases {
        let mut text = inputs[rng.below(inputs.len() as u64) as usize].clone();
        for _ in 0..1 + rng.below(4) {
            text = mutate(&text, &mut rng);
        }
        let default_delay = [1.0, 0.0, -1.0, f64::NAN][rng.below(4) as usize];
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

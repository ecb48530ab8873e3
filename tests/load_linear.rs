//! `.g` loading stays linear on the reader's worst shapes.
//!
//! Each shape below puts about 20,000 arcs or names where a careless
//! reader does per-entry work proportional to what came before: a hub
//! source whose `.delay` lines could scan its out-arcs, one pair
//! declared 20,000 times whose `.delay` and marking entries could walk
//! its parallel arcs, and an `.outputs` line of 20,000 names. Each must
//! load in under 10× the median load time of a ring text of the same
//! byte length; a quadratic step costs thousands of times that here.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tsg::stg::{parse_stg, StgOptions};

const ARCS: usize = 20_000;

/// The time `parse_stg` takes on `text`: the best of `runs` loads, or
/// their median when `median` is set.
fn load_time(text: &str, runs: usize, median: bool) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let loaded = parse_stg(text, StgOptions::default());
            let took = start.elapsed();
            assert!(loaded.is_ok(), "{:?}", loaded.err());
            took
        })
        .collect();
    times.sort();
    if median {
        times[runs / 2]
    } else {
        times[0]
    }
}

/// A one-token ring of `events` events, each arc with a `.delay` line.
fn ring(events: usize) -> String {
    let mut text = String::from(".graph\n");
    for i in 0..events {
        let _ = writeln!(text, "r{i}+ r{}+", (i + 1) % events);
    }
    let _ = writeln!(text, ".marking {{ <r{}+,r0+> }}", events - 1);
    for i in 0..events {
        let _ = writeln!(text, ".delay r{i}+ r{}+ {}", (i + 1) % events, i % 7);
    }
    text + ".end\n"
}

/// A [`ring`] text at least `bytes` long.
fn ring_text(bytes: usize) -> String {
    let text = ring(1000 * bytes / ring(1000).len() + 1);
    assert!(text.len() >= bytes);
    text
}

/// One hub `h+` with an out-arc and a `.delay` line per arc, each
/// destination closing a marked cycle back to the hub.
fn hub_text() -> String {
    let mut text = String::from(".graph\nh+");
    for i in 0..ARCS {
        let _ = write!(text, " d{i}+");
    }
    text.push('\n');
    for i in 0..ARCS {
        let _ = writeln!(text, "d{i}+ h+");
    }
    text.push_str(".marking {");
    for i in 0..ARCS {
        let _ = write!(text, " <d{i}+,h+>");
    }
    text.push_str(" }\n");
    for i in (0..ARCS).rev() {
        let _ = writeln!(text, ".delay h+ d{i}+ {}", i % 7);
    }
    text + ".end\n"
}

/// One pair `a+ -> b+` declared `ARCS` times, with as many `.delay`
/// lines and marking entries.
fn parallel_text() -> String {
    let mut text = String::from(".graph\na+");
    text.push_str(&" b+".repeat(ARCS));
    text.push_str("\nb+ a+\n.marking { <b+,a+>");
    text.push_str(&" <a+,b+>".repeat(ARCS));
    text.push_str(" }\n");
    for i in 0..ARCS {
        let _ = writeln!(text, ".delay a+ b+ {}", i % 7);
    }
    text + ".end\n"
}

/// An `.outputs` line of `ARCS` names ahead of a two-event graph.
fn outputs_text() -> String {
    let mut text = String::from(".model wide\n.outputs");
    for i in 0..ARCS {
        let _ = write!(text, " s{i}");
    }
    text + "\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n.end\n"
}

#[test]
fn worst_shapes_load_in_linear_time() {
    for (shape, text) in [
        ("hub", hub_text()),
        ("parallel pair", parallel_text()),
        (".outputs line", outputs_text()),
    ] {
        let reference = load_time(&ring_text(text.len()), 5, true);
        let took = load_time(&text, 3, false);
        assert!(
            took < reference * 10,
            "{shape} ({} bytes) loaded in {took:?}, a ring of as many bytes in {reference:?}",
            text.len()
        );
    }
}

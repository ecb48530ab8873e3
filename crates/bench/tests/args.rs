//! `repro` and `bench` accept only their documented arguments: anything
//! else is a one-line usage error and exit 1 before any work runs.

use std::process::Command;

/// The paper's experiment ids, in `repro --list` order.
const PAPER_IDS: [&str; 11] = [
    "fig1b",
    "fig1c",
    "fig1d",
    "ex3",
    "ex4",
    "ex56",
    "tab8c",
    "tab8d",
    "fig4",
    "perf8b",
    "complexity",
];

#[test]
fn repro_refuses_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "2"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no experiment may run");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("\"--threads\""), "{err}");
}

#[test]
fn repro_lists_exactly_the_paper_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), PAPER_IDS);
}

#[test]
fn bench_refuses_an_unknown_flag_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("tsg-bench-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("k.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--threads", "2", "--out"])
        .arg(&json)
        .output()
        .expect("bench runs");
    let written = json.exists();
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(out.status.code(), Some(1));
    assert!(!written, "a refused command line must write no file");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("\"--threads\""), "{err}");
}

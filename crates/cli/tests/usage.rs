//! Which failures reprint the usage text: a bad command line does, a
//! failed analysis of a well-formed one does not.

use std::process::{Command, Output, Stdio};

fn tsg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsg"))
        .args(args)
        .output()
        .expect("spawn tsg")
}

#[test]
fn only_usage_errors_print_usage() {
    // A delay so large that the `max` corner (+10%) overflows `f64`: the
    // command line is fine, the analysis fails.
    let path = std::env::temp_dir().join(format!("tsg-usage-near-{}.g", std::process::id()));
    std::fs::write(
        &path,
        ".model near\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n\
         .delay x+ x- 1.7e308\n.end\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let out = tsg(&["analyze", file, "--corners", "min,typ,max"]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");

    // An unknown flag is a usage error: the error line, then USAGE.
    let out = tsg(&["analyze", "x.g", "--wat"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown flag \"--wat\"\n"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn closed_stdout_ends_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tsg"))
        .args(["demo", "stack66"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsg");
    // Close the read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for tsg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

//! End-to-end `tsg serve` tests against the real binary.
//!
//! The acceptance bar: a mixed multi-request script piped into
//! `tsg serve` comes back with one response line per request, in request
//! order, and each `output` field is byte-identical to the equivalent
//! one-shot `tsg analyze` / `tsg sim` invocation. The CLI reads its
//! FILE; the served request carries the same file's text inline under
//! the same name, since the server reads no files.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

use tsg_serve::json::Json;

fn tsg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tsg"))
}

/// Runs a one-shot `tsg` invocation and returns its stdout.
fn one_shot(args: &[&str]) -> String {
    let out = tsg().args(args).output().expect("spawn tsg");
    assert!(
        out.status.success(),
        "tsg {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tsg output is UTF-8")
}

/// Pipes `script` into `tsg serve` and returns the parsed response
/// lines.
fn serve_session(script: &str, extra: &[&str]) -> Vec<Json> {
    let mut child = tsg()
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsg serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("serve exits on EOF");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| Json::parse(line).expect("response lines are JSON"))
        .collect()
}

/// The `"text"` and `"name"` fields of a request carrying `path`'s
/// contents inline, named like the file so error messages match too.
fn inline(path: &str) -> String {
    let text = std::fs::read_to_string(path).expect("fixture is readable");
    format!(
        r#""text":{},"name":{}"#,
        Json::from(text.as_str()).dump(),
        Json::from(path).dump()
    )
}

/// Writes the test fixtures once per test process, returning their
/// paths. Tests run concurrently, so rewriting the files per call would
/// truncate them under a `tsg` child that is still reading them.
fn fixtures() -> (PathBuf, PathBuf, PathBuf) {
    static PATHS: OnceLock<(PathBuf, PathBuf, PathBuf)> = OnceLock::new();
    PATHS
        .get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("tsg-cli-serve-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let osc_g = dir.join("osc.g");
            let ring_g = dir.join("ring5.g");
            let osc_ckt = dir.join("osc.ckt");
            std::fs::write(&osc_g, tsg_stg::EXAMPLE_OSCILLATOR).unwrap();
            std::fs::write(&ring_g, tsg_stg::EXAMPLE_RING5).unwrap();
            std::fs::write(
                &osc_ckt,
                tsg_circuit::parse::write_ckt(&tsg_circuit::library::c_element_oscillator()),
            )
            .unwrap();
            (osc_g, ring_g, osc_ckt)
        })
        .clone()
}

#[test]
fn mixed_50_request_script_is_in_order_and_byte_identical() {
    let (osc_g, ring_g, osc_ckt) = fixtures();
    let (osc_g, ring_g, osc_ckt) = (
        osc_g.to_string_lossy().into_owned(),
        ring_g.to_string_lossy().into_owned(),
        osc_ckt.to_string_lossy().into_owned(),
    );

    // Five request shapes, each with its equivalent one-shot invocation.
    // The serve pool runs 4 workers; ordering must come from the
    // protocol, not from timing.
    let shapes: Vec<(String, Vec<&str>)> = vec![
        (
            format!(r#""cmd":"analyze",{}"#, inline(&osc_g)),
            vec!["analyze", &osc_g],
        ),
        (
            format!(
                r#""cmd":"analyze",{},"baselines":true,"slack":true"#,
                inline(&osc_g)
            ),
            vec!["analyze", &osc_g, "--baselines", "--slack"],
        ),
        (
            format!(r#""cmd":"sim",{},"periods":2"#, inline(&osc_g)),
            vec!["sim", &osc_g, "--periods", "2"],
        ),
        (
            format!(r#""cmd":"sim",{},"horizon":400"#, inline(&osc_ckt)),
            vec!["sim", &osc_ckt, "--horizon", "400"],
        ),
        (
            format!(r#""cmd":"sim",{}"#, inline(&ring_g)),
            vec!["sim", &ring_g],
        ),
    ];
    let expected: HashMap<usize, String> = shapes
        .iter()
        .enumerate()
        .map(|(k, (_, args))| (k, one_shot(args)))
        .collect();

    let mut script = String::new();
    for id in 0..50usize {
        let (body, _) = &shapes[id % shapes.len()];
        script.push_str(&format!("{{\"id\":{id},{body}}}\n"));
    }
    // Rider requests: a refused one and a stats probe, still in order.
    script.push_str("{\"id\":50,\"cmd\":\"analyze\",\"path\":\"/nonexistent/x.g\"}\n");
    script.push_str("{\"id\":51,\"cmd\":\"stats\"}\n");

    let responses = serve_session(&script, &["--threads", "4"]);
    assert_eq!(responses.len(), 52, "one response per request");
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response.get("id").and_then(Json::as_f64),
            Some(i as f64),
            "responses must stream in request order"
        );
    }
    for id in 0..50usize {
        let response = &responses[id];
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "request {id}");
        let output = response.get("output").and_then(Json::as_str).unwrap();
        assert_eq!(
            output,
            expected[&(id % shapes.len())],
            "request {id}: served output must be byte-identical to the one-shot CLI"
        );
    }
    assert_eq!(responses[50].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[50].get("error").and_then(Json::as_str),
        Some(r#"unknown field "path" for cmd "analyze""#)
    );
    // With 4 workers the stats snapshot is a lower bound only; exact
    // counters are covered by the single-worker test below.
    assert_eq!(responses[51].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[51].get("threads"), Some(&Json::Num(4.0)));
}

#[test]
fn single_worker_stats_count_exactly() {
    let (osc_g, _, _) = fixtures();
    let osc_g = osc_g.to_string_lossy().into_owned();
    let src = inline(&osc_g);
    let script = format!(
        "{{\"id\":1,\"cmd\":\"analyze\",{src}}}\n\
         {{\"id\":2,\"cmd\":\"analyze\",\"path\":\"/nonexistent/y.g\"}}\n\
         {{\"id\":3,\"cmd\":\"sim\",{src},\"periods\":1}}\n\
         {{\"id\":4,\"cmd\":\"stats\"}}\n"
    );
    let responses = serve_session(&script, &["--threads", "1"]);
    assert_eq!(responses.len(), 4);
    assert_eq!(responses[3].get("served"), Some(&Json::Num(2.0)));
    assert_eq!(responses[3].get("failed"), Some(&Json::Num(1.0)));
    assert_eq!(responses[3].get("threads"), Some(&Json::Num(1.0)));
}

/// Fault injection is armed by `--chaos` only: a `TSG_CHAOS` left in
/// the environment of a plain `tsg serve` injects nothing, and the same
/// spec passed as `--chaos` panics every request.
#[test]
fn chaos_is_armed_by_the_flag_not_the_environment() {
    let script: String = (1..=6)
        .map(|i| format!("{{\"id\":{i},\"cmd\":\"stats\"}}\n"))
        .collect();
    let run = |env: Option<&str>, extra: &[&str]| {
        let mut cmd = tsg();
        cmd.arg("serve")
            .args(["--threads", "1"])
            .args(extra)
            .env_remove("TSG_CHAOS");
        if let Some(spec) = env {
            cmd.env("TSG_CHAOS", spec);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tsg serve");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(script.as_bytes())
            .expect("write script");
        let out = child.wait_with_output().expect("serve exits on EOF");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8")
    };
    let plain = run(Some("panic=1"), &[]);
    assert_eq!(plain.lines().count(), 6, "{plain}");
    for line in plain.lines() {
        let response = Json::parse(line).expect("response lines are JSON");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
    }
    let armed = run(None, &["--chaos", "panic=1"]);
    assert_eq!(armed.lines().count(), 6, "{armed}");
    assert!(
        armed.lines().all(|l| l.contains("injected worker panic")),
        "{armed}"
    );
}

#[test]
fn session_script_through_the_binary_matches_explore() {
    let (osc_g, _, _) = fixtures();
    let osc_g = osc_g.to_string_lossy().into_owned();
    let script = format!(
        "{{\"id\":1,\"cmd\":\"session.open\",\"session\":\"s\",{}}}\n\
         {{\"id\":2,\"cmd\":\"session.edit\",\"session\":\"s\",\"edits\":\
         [{{\"src\":\"a+\",\"dst\":\"c+\",\"delay\":8}}]}}\n\
         {{\"id\":3,\"cmd\":\"session.close\",\"session\":\"s\"}}\n",
        inline(&osc_g)
    );
    let responses = serve_session(&script, &["--threads", "2"]);
    assert_eq!(responses.len(), 3);
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    }
    let edited = responses[1].get("output").and_then(Json::as_str).unwrap();
    assert!(edited.contains("cycle time: 15"), "{edited}");
    assert!(edited.contains("re-simulated"), "{edited}");
    // The served session and the one-shot explore command walk the same
    // code path: their summaries agree on the edited cycle time.
    let explored = one_shot(&["explore", &osc_g, "--edit", "a+->c+=8"]);
    assert!(explored.contains("cycle time: 15"), "{explored}");
    assert!(responses[2]
        .get("output")
        .and_then(Json::as_str)
        .unwrap()
        .contains("after 1 edit(s)"),);
}

/// A two-inverter loop whose 1e308 pin delays push the second arrival
/// past `f64::MAX`.
const OVERFLOW_CKT: &str = "gate a inv(b:1e308) = 1\ngate b inv(a:1e308) = 1\n";

#[test]
fn overflowing_netlist_sim_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("tsg-cli-overflow-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.ckt");
    std::fs::write(&path, OVERFLOW_CKT).unwrap();
    let path = path.to_string_lossy().into_owned();
    let out = tsg()
        .args(["sim", &path, "--horizon", "1.7e308"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(
            "error: simulation failed: signal b changing at time 1e308: \
             cannot schedule event at non-finite time inf\n"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    let request = Json::Obj(vec![
        ("id".to_owned(), Json::Num(1.0)),
        ("cmd".to_owned(), Json::from("sim")),
        ("text".to_owned(), Json::from(OVERFLOW_CKT)),
        ("name".to_owned(), Json::from("x.ckt")),
        ("horizon".to_owned(), Json::Num(1.7e308)),
    ]);
    let responses = serve_session(&format!("{}\n", request.dump()), &[]);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    let error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.starts_with("simulation failed: signal b"), "{error}");
}

/// A delay the reader accepts but a diagram cannot draw (6·10^11
/// columns), and one the max corner scales past `f64::MAX`.
const WIDE_G: &str = ".model big\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n\
                      .delay x+ x- 99999999999\n.end\n";
const NEAR_MAX_G: &str = ".model big\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n\
                          .delay x+ x- 1.7e308\n.end\n";

#[test]
fn oversized_diagram_and_near_max_corners_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("tsg-cli-domain-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &str, &[&str], &str); 3] = [
        (
            "wide.g",
            WIDE_G,
            &["--diagram"],
            "timing diagram too wide: horizon 299999999999 at 2 char(s) per time unit \
             needs more than 10000 columns",
        ),
        (
            "corners.g",
            NEAR_MAX_G,
            &["--corners", "min,typ,max", "--derate", "10"],
            "analysis failed: scenario max scales the delay of x+ -> x- past the largest \
             finite delay",
        ),
        (
            "samples.g",
            NEAR_MAX_G,
            &["--samples", "4"],
            "analysis failed: scenario s",
        ),
    ];
    for (name, text, flags, want) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = tsg()
            .arg("analyze")
            .arg(&path)
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("error: {want}")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    let requests = [
        Json::Obj(vec![
            ("id".to_owned(), Json::Num(1.0)),
            ("cmd".to_owned(), Json::from("analyze")),
            ("name".to_owned(), Json::from("wide.g")),
            ("text".to_owned(), Json::from(WIDE_G)),
            ("diagram".to_owned(), Json::Bool(true)),
        ]),
        Json::Obj(vec![
            ("id".to_owned(), Json::Num(2.0)),
            ("cmd".to_owned(), Json::from("analyze")),
            ("name".to_owned(), Json::from("corners.g")),
            ("text".to_owned(), Json::from(NEAR_MAX_G)),
            ("corners".to_owned(), Json::from("min,typ,max")),
        ]),
        Json::Obj(vec![
            ("id".to_owned(), Json::Num(3.0)),
            ("cmd".to_owned(), Json::from("stats")),
        ]),
    ];
    let script: String = requests.iter().map(|r| format!("{}\n", r.dump())).collect();
    let responses = serve_session(&script, &[]);
    assert_eq!(responses.len(), 3, "the server survives both requests");
    for (response, want) in responses
        .iter()
        .zip(["timing diagram too wide", "analysis failed: scenario max"])
    {
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with(want), "{error}");
    }
    assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn serve_rejects_bad_flags() {
    let out = tsg().args(["serve", "--wat"]).output().unwrap();
    assert!(!out.status.success());
    let out = tsg()
        .args(["serve", "--listen", "carrier-pigeon:coop"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("tcp:HOST:PORT"));
    let out = tsg()
        .args(["serve", "--max-connections", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = tsg().args(["serve", "--chaos"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chaos"));
}

/// A `.g` simulation over billions of periods is refused from its
/// shape before anything is allocated: the one-shot CLI exits 1 with a
/// one-line error, and the server answers `ok:false` and keeps serving.
#[test]
fn oversized_sim_is_refused_before_allocating() {
    let (osc_g, _, _) = fixtures();
    let osc_g = osc_g.to_string_lossy().into_owned();
    let out = tsg()
        .args(["sim", &osc_g, "--periods", "4000000000"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: simulation failed: 6 event(s) over 4000000000 period(s)"),
        "{stderr}"
    );
    let src = inline(&osc_g);
    let script = format!(
        "{{\"id\":1,\"cmd\":\"sim\",{src},\"periods\":4000000000}}\n\
         {{\"id\":2,\"cmd\":\"sim\",{src},\"periods\":2}}\n"
    );
    let responses = serve_session(&script, &["--threads", "1"]);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    let error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("time cells"), "{error}");
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
}

/// A request that names a file is refused while parsing, before the
/// server could open it, and the worker serves the next request. The
/// file is real and readable, so a server that still read paths would
/// answer `ok:true` here.
#[test]
fn served_paths_are_refused_before_any_read() {
    let (osc_g, _, _) = fixtures();
    let osc_g = osc_g.to_string_lossy().into_owned();
    let script = format!(
        "{{\"id\":1,\"cmd\":\"analyze\",\"path\":{}}}\n\
         {{\"id\":2,\"cmd\":\"analyze\",{}}}\n",
        Json::from(osc_g.as_str()).dump(),
        inline(&osc_g)
    );
    let responses = serve_session(&script, &["--threads", "1"]);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    let error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("\"path\""), "{error}");
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
    let output = responses[1].get("output").and_then(Json::as_str).unwrap();
    assert!(output.contains("cycle time: 10"), "{output}");
}

//! Warm-pool guarantees and protocol-session behaviour of `tsg-serve`.
//!
//! The acceptance bar of the serve mode: responses arrive in request
//! order, byte-identical to the one-shot operations, with zero
//! per-request arena/queue allocation after warm-up (asserted through
//! the workspace capacity accessors), and failures isolated per request.

use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use tsg_core::analysis::wide::AnalysisArena;
use tsg_serve::json::Json;
use tsg_serve::ops::{self, AnalyzeOptions, SimOptions, Source, Workspace};
use tsg_serve::{serve, serve_tcp, ServeOptions};

/// One request line from `(key, value)` fields.
fn req(fields: &[(&str, Json)]) -> String {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
    .dump()
}

/// Runs a serve session over in-memory I/O, returning its parsed
/// response lines.
fn session(script: &str, threads: usize) -> Vec<Json> {
    let mut out = Vec::new();
    let opts = ServeOptions {
        threads: Some(threads),
        ..ServeOptions::default()
    };
    serve(Cursor::new(script.to_owned()), &mut out, &opts, None).expect("in-memory serve");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| Json::parse(line).expect("responses are valid JSON"))
        .collect()
}

fn inline_g() -> Source {
    Source::Inline {
        name: "osc.g".to_owned(),
        text: tsg_stg::EXAMPLE_OSCILLATOR.to_owned(),
    }
}

fn inline_ckt() -> Source {
    Source::Inline {
        name: "osc.ckt".to_owned(),
        text: tsg_circuit::parse::write_ckt(&tsg_circuit::library::c_element_oscillator()),
    }
}

#[test]
fn warm_analyze_is_allocation_free_and_byte_identical() {
    let mut ws = Workspace::new();
    let source = inline_g();
    let opts = AnalyzeOptions {
        baselines: true,
        slack: true,
        ..AnalyzeOptions::default()
    };
    let cold = {
        let sg = ops::load("osc.g", tsg_stg::EXAMPLE_OSCILLATOR, 1.0).unwrap();
        // The CLI's one-shot arena.
        ops::report_in(&sg, &opts, &mut AnalysisArena::new()).unwrap()
    };
    let first = ws.analyze(&source, &opts, None).unwrap();
    assert_eq!(first, cold, "warm path must match the one-shot report");
    let warm_caps = ws.arena_capacity();
    assert!(warm_caps.0 > 0, "first analyze warms the wide lane matrix");
    assert!(warm_caps.1 > 0, "and the scalar finish arena");
    for _ in 0..3 {
        let again = ws.analyze(&source, &opts, None).unwrap();
        assert_eq!(again, cold);
        assert_eq!(
            ws.arena_capacity(),
            warm_caps,
            "replaying an identical request must not touch the allocator \
             (wide, scalar-times, scalar-parent capacities all constant)"
        );
    }
}

/// `"baselines": true` runs Howard and Karp under the request's token:
/// a budget that just covers the nominal analysis leaves none for the
/// baselines, which then answer the cancellation instead of a report.
#[test]
fn baselines_poll_the_request_token() {
    let mut ws = Workspace::new();
    let source = inline_g();
    let plain = AnalyzeOptions::default();
    let with_baselines = AnalyzeOptions {
        baselines: true,
        ..AnalyzeOptions::default()
    };
    let token = |checks| tsg_sim::CancelToken::cancel_after_checks(checks);
    let nominal = (0..64)
        .find(|&checks| ws.analyze(&source, &plain, Some(&token(checks))).is_ok())
        .expect("the oscillator's analysis polls a handful of times");
    assert!(matches!(
        ws.analyze(&source, &with_baselines, Some(&token(nominal))),
        Err(ops::OpError::Cancelled { .. })
    ));
    let full = ws.analyze(&source, &with_baselines, None).unwrap();
    assert!(
        full.contains("  howard        : 10\n  karp          : 10\n"),
        "{full}"
    );
    assert_eq!(
        ws.analyze(&source, &with_baselines, Some(&token(1_000))),
        Ok(full)
    );
}

#[test]
fn warm_sim_queues_stay_put() {
    let mut ws = Workspace::new();
    let g_opts = SimOptions {
        periods: Some(3),
        ..SimOptions::default()
    };
    let c_opts = SimOptions {
        horizon: Some(400.0),
        ..SimOptions::default()
    };
    let g_cold = Workspace::new()
        .simulate(&inline_g(), &g_opts, None)
        .unwrap();
    let c_cold = Workspace::new()
        .simulate(&inline_ckt(), &c_opts, None)
        .unwrap();
    assert_eq!(ws.simulate(&inline_g(), &g_opts, None).unwrap(), g_cold);
    assert_eq!(ws.simulate(&inline_ckt(), &c_opts, None).unwrap(), c_cold);
    let c_cap = ws.netlist_queue_capacity().expect("warmed");
    for _ in 0..3 {
        assert_eq!(ws.simulate(&inline_g(), &g_opts, None).unwrap(), g_cold);
        assert_eq!(ws.simulate(&inline_ckt(), &c_opts, None).unwrap(), c_cold);
        assert_eq!(ws.netlist_queue_capacity(), Some(c_cap));
    }
}

#[test]
fn failed_netlist_run_keeps_the_warm_queue() {
    // A zero-delay oscillation exhausts the event budget: the request
    // fails, but the queue must come back to the workspace.
    let mut ws = Workspace::new();
    let bad = Source::Inline {
        name: "loop.ckt".to_owned(),
        text: "gate a inv(a:0) = 0\n".to_owned(),
    };
    let opts = SimOptions {
        horizon: Some(10.0),
        ..SimOptions::default()
    };
    let err = ws.simulate(&bad, &opts, None).unwrap_err().to_string();
    assert!(err.contains("simulation failed"), "{err}");
    assert!(
        ws.netlist_queue_capacity().is_some(),
        "error isolation must not leak the warm queue"
    );
    // And the workspace still serves good requests afterwards.
    assert!(ws.simulate(&inline_ckt(), &opts, None).is_ok());
}

/// A two-event loop whose 1e308 delays sum past `f64::MAX`.
const OVERFLOW_G: &str = ".model big\n.outputs x\n.graph\nx+ x-\nx- x+\n\
                          .marking { <x-,x+> }\n.delay x+ x- 1e308\n.delay x- x+ 1e308\n.end\n";

#[test]
fn overflowing_delays_answer_structured_errors() {
    let request = |id: f64, cmd: &str| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from(cmd)),
            ("text", Json::from(OVERFLOW_G)),
            ("name", Json::from("big.g")),
        ])
    };
    let script = [
        request(0.0, "sim"),
        request(1.0, "analyze"),
        req(&[("id", Json::Num(2.0)), ("cmd", Json::from("stats"))]),
    ]
    .join("\n")
        + "\n";
    let responses = session(&script, 1);
    assert_eq!(responses.len(), 3);
    for r in &responses[..2] {
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
        let error = r.get("error").and_then(Json::as_str).unwrap();
        assert!(!error.contains("internal error"), "{error}");
    }
    let sim_error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert_eq!(
        sim_error,
        "simulation failed: firing x-_0: cannot schedule event at non-finite time inf"
    );
    let analyze_error = responses[1].get("error").and_then(Json::as_str).unwrap();
    assert!(
        analyze_error.contains("non-finite total delay"),
        "{analyze_error}"
    );
    assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[2].get("failed"), Some(&Json::Num(2.0)));
}

/// A session edit (or a tau-p95 scenario enablement) whose cycle
/// length overflows is refused with a structured error, and the session
/// answers the next edit from its pre-batch state.
#[test]
fn overflowing_session_batches_are_refused_and_the_session_survives() {
    let toggle = |up: &str, down: &str| {
        format!(
            ".model t\n.outputs x\n.graph\nx+ x-\nx- x+\n.marking {{ <x-,x+> }}\n\
             .delay x+ x- {up}\n.delay x- x+ {down}\n.end\n"
        )
    };
    let open = |id: f64, name: &str, text: &str| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from(name)),
            ("text", Json::from(text)),
            ("name", Json::from("t.g")),
        ])
    };
    let edit = |id: u32, src: &str, dst: &str, delay: &str| {
        format!(
            r#"{{"id":{id},"cmd":"session.edit","session":"s","edits":[{{"src":"{src}","dst":"{dst}","delay":{delay}}}]}}"#
        )
    };
    let script = [
        open(0.0, "s", &toggle("3", "2")),
        edit(1, "x+", "x-", "1e308"),
        edit(2, "x-", "x+", "1e308"),
        edit(3, "x+", "x-", "4"),
        open(4.0, "t", &toggle("9e307", "8e307")),
        r#"{"id":5,"cmd":"session.explore","session":"t","moves":1,"objective":"tau-p95","samples":16}"#
            .to_owned(),
        req(&[("id", Json::Num(6.0)), ("cmd", Json::from("stats"))]),
    ]
    .join("\n")
        + "\n";
    let responses = session(&script, 1);
    assert_eq!(responses.len(), 7);
    for (i, r) in responses.iter().enumerate() {
        let want_ok = i != 2 && i != 5;
        assert_eq!(
            r.get("ok"),
            Some(&Json::Bool(want_ok)),
            "request {i}: {r:?}"
        );
    }
    for i in [2, 5] {
        let error = responses[i].get("error").and_then(Json::as_str).unwrap();
        assert!(!error.contains("internal error"), "{error}");
        assert!(error.contains("non-finite total delay"), "{error}");
    }
    // The refused batch left x- -> x+ at 2: 4 + 2.
    let healed = responses[3].get("output").and_then(Json::as_str).unwrap();
    assert!(healed.contains("cycle time: 6\n"), "{healed}");
    assert_eq!(responses[6].get("failed"), Some(&Json::Num(2.0)));
}

#[test]
fn overflowing_pin_delays_answer_a_structured_error() {
    // The second arrival in this two-inverter loop lands past f64::MAX.
    let script = [
        req(&[
            ("id", Json::Num(0.0)),
            ("cmd", Json::from("sim")),
            (
                "text",
                Json::from("gate a inv(b:1e308) = 1\ngate b inv(a:1e308) = 1\n"),
            ),
            ("name", Json::from("x.ckt")),
            ("horizon", Json::Num(1.7e308)),
        ]),
        req(&[("id", Json::Num(1.0)), ("cmd", Json::from("stats"))]),
    ]
    .join("\n")
        + "\n";
    let responses = session(&script, 1);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[0].get("error").and_then(Json::as_str),
        Some(
            "simulation failed: signal b changing at time 1e308: \
             cannot schedule event at non-finite time inf"
        )
    );
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[1].get("failed"), Some(&Json::Num(1.0)));
}

#[test]
fn responses_arrive_in_request_order_with_error_isolation() {
    let script = [
        req(&[
            ("id", Json::Num(0.0)),
            ("cmd", Json::from("analyze")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
        ]),
        "this is not json".to_owned(),
        "# a comment line, skipped entirely".to_owned(),
        req(&[
            ("id", Json::Num(2.0)),
            ("cmd", Json::from("sim")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
            ("periods", Json::Num(2.0)),
        ]),
        req(&[("id", Json::Num(3.0)), ("cmd", Json::from("frobnicate"))]),
        req(&[("id", Json::Num(4.0)), ("cmd", Json::from("stats"))]),
    ]
    .join("\n")
        + "\n";
    // Single worker: deterministic counters (requests complete in order).
    let responses = session(&script, 1);
    assert_eq!(responses.len(), 5, "one response per request line");
    let ids: Vec<&Json> = responses.iter().map(|r| r.get("id").unwrap()).collect();
    assert_eq!(
        ids,
        [
            &Json::Num(0.0),
            &Json::Null, // unparseable line: id unrecoverable
            &Json::Num(2.0),
            &Json::Num(3.0),
            &Json::Num(4.0),
        ]
    );
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(responses[3].get("ok"), Some(&Json::Bool(false)));
    // stats: 2 ok + 2 failures before it, itself excluded.
    assert_eq!(responses[4].get("served"), Some(&Json::Num(2.0)));
    assert_eq!(responses[4].get("failed"), Some(&Json::Num(2.0)));
    assert_eq!(responses[4].get("threads"), Some(&Json::Num(1.0)));
}

#[test]
fn kernel_pinned_requests_and_stats_report_backend() {
    use tsg_core::analysis::KernelBackend;
    let analyze = |extra: &[(&str, Json)]| {
        let mut fields = vec![
            ("id", Json::Num(0.0)),
            ("cmd", Json::from("analyze")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
        ];
        fields.extend(extra.iter().cloned());
        req(&fields)
    };
    let script = [
        analyze(&[]),
        analyze(&[("kernel", Json::from("portable"))]),
        req(&[("id", Json::Num(2.0)), ("cmd", Json::from("stats"))]),
    ]
    .join("\n")
        + "\n";
    let responses = session(&script, 1);
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
    // The CPU picks the backend: a request cannot pin one.
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
    let err = responses[1].get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("unknown field \"kernel\""), "{err}");
    let kernel = responses[2]
        .get("kernel")
        .and_then(Json::as_str)
        .expect("stats reports the pool's kernel backend");
    assert_eq!(kernel, KernelBackend::detect().name());
}

#[test]
fn parallel_pool_preserves_order_and_output() {
    // 24 requests of varying cost over 4 workers: responses must still
    // stream in request order and match the single-worker outputs.
    let mut script = String::new();
    for i in 0..24u32 {
        script.push_str(&req(&[
            ("id", Json::Num(f64::from(i))),
            ("cmd", Json::from("sim")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
            ("periods", Json::Num(f64::from(1 + i % 7))),
        ]));
        script.push('\n');
    }
    let sequential = session(&script, 1);
    let parallel = session(&script, 4);
    assert_eq!(sequential, parallel);
    for (i, r) in parallel.iter().enumerate() {
        assert_eq!(r.get("id"), Some(&Json::Num(i as f64)));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }
}

#[test]
fn shutdown_flag_stops_accepting_but_flushes_accepted_work() {
    // A pre-raised flag: the session exits before reading anything.
    let flag = AtomicBool::new(true);
    let mut out = Vec::new();
    let stats = serve(
        Cursor::new(req(&[("cmd", Json::from("stats"))]) + "\n"),
        &mut out,
        &ServeOptions {
            threads: Some(1),
            ..ServeOptions::default()
        },
        Some(&flag),
    )
    .unwrap();
    assert_eq!(stats.served + stats.failed, 0);
    assert!(out.is_empty());
    flag.store(false, Ordering::SeqCst);
}

#[test]
fn incremental_session_protocol_round_trips() {
    // open → edit (dirty subset) → edit back → close, plus the error
    // paths: unknown session, double open, bad labels. Single worker so
    // the script is fully deterministic.
    let osc = Json::from(tsg_stg::EXAMPLE_OSCILLATOR);
    let edit = |id: f64, src: &str, dst: &str, delay: f64| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("session.edit")),
            ("session", Json::from("s1")),
            (
                "edits",
                Json::Arr(vec![Json::Obj(vec![
                    ("src".to_owned(), Json::from(src)),
                    ("dst".to_owned(), Json::from(dst)),
                    ("delay".to_owned(), Json::Num(delay)),
                ])]),
            ),
        ])
    };
    let script = [
        req(&[
            ("id", Json::Num(0.0)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from("s1")),
            ("text", osc.clone()),
            ("name", Json::from("osc.g")),
        ]),
        edit(1.0, "a+", "c+", 8.0),
        edit(2.0, "a+", "c+", 3.0),
        // Error paths, all isolated per request:
        req(&[
            ("id", Json::Num(3.0)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from("s1")),
            ("text", osc.clone()),
        ]),
        req(&[
            ("id", Json::Num(4.0)),
            ("cmd", Json::from("session.edit")),
            ("session", Json::from("nope")),
            (
                "edits",
                Json::Arr(vec![Json::Obj(vec![
                    ("src".to_owned(), Json::from("a+")),
                    ("dst".to_owned(), Json::from("c+")),
                    ("delay".to_owned(), Json::Num(1.0)),
                ])]),
            ),
        ]),
        edit(5.0, "a+", "zz", 1.0),
        req(&[
            ("id", Json::Num(6.0)),
            ("cmd", Json::from("session.close")),
            ("session", Json::from("s1")),
        ]),
        req(&[
            ("id", Json::Num(7.0)),
            ("cmd", Json::from("session.close")),
            ("session", Json::from("s1")),
        ]),
    ]
    .join("\n")
        + "\n";
    let responses = session(&script, 1);
    assert_eq!(responses.len(), 8);
    let out = |i: usize| responses[i].get("output").and_then(Json::as_str).unwrap();
    let err = |i: usize| responses[i].get("error").and_then(Json::as_str).unwrap();

    assert!(out(0).contains("opened session \"s1\""), "{}", out(0));
    assert!(out(0).contains("cycle time: 10"), "{}", out(0));
    // Stretching a+ -> c+ to 8 moves τ to 15 (the a-loop lengthens by 5).
    assert!(out(1).contains("cycle time: 15"), "{}", out(1));
    assert!(out(1).contains("re-simulated"), "{}", out(1));
    // Editing back restores the original analysis exactly.
    assert!(out(2).contains("cycle time: 10"), "{}", out(2));
    assert!(err(3).contains("already open"), "{}", err(3));
    assert!(err(4).contains("no open session \"nope\""), "{}", err(4));
    assert!(err(5).contains("no event labelled \"zz\""), "{}", err(5));
    assert!(out(6).contains("closed session \"s1\" after 2 edit(s)"));
    assert!(err(7).contains("no open session"), "{}", err(7));
}

#[test]
fn session_edits_survive_worker_pinning_under_load() {
    // Many interleaved sessions and plain requests over several workers:
    // per-session edit order must be request order (each session's final
    // τ proves its last edit won), and responses still stream in global
    // request order.
    let osc = Json::from(tsg_stg::EXAMPLE_OSCILLATOR);
    let mut script = String::new();
    let mut id = 0.0;
    for s in 0..6 {
        script.push_str(&req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from(format!("s{s}").as_str())),
            ("text", osc.clone()),
            ("name", Json::from("osc.g")),
        ]));
        script.push('\n');
        id += 1.0;
    }
    // Interleave edits across sessions; the LAST edit per session sets
    // a+ -> c+ to 3 + s, so τ = 10 + s.
    for round in 0..4 {
        for s in 0..6 {
            let delay = if round < 3 {
                20.0 + round as f64
            } else {
                3.0 + s as f64
            };
            script.push_str(&req(&[
                ("id", Json::Num(id)),
                ("cmd", Json::from("session.edit")),
                ("session", Json::from(format!("s{s}").as_str())),
                (
                    "edits",
                    Json::Arr(vec![Json::Obj(vec![
                        ("src".to_owned(), Json::from("a+")),
                        ("dst".to_owned(), Json::from("c+")),
                        ("delay".to_owned(), Json::Num(delay)),
                    ])]),
                ),
            ]));
            script.push('\n');
            id += 1.0;
        }
    }
    let responses = session(&script, 4);
    assert_eq!(responses.len(), 30);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.get("id"), Some(&Json::Num(i as f64)), "order");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "request {i}");
    }
    for s in 0..6usize {
        let last = &responses[6 + 18 + s];
        let output = last.get("output").and_then(Json::as_str).unwrap();
        let want = format!("cycle time: {}", 10 + s);
        assert!(output.contains(&want), "session s{s}: {output}");
    }
}

#[test]
fn workspace_sweeps_a_connections_sessions() {
    let mut ws = Workspace::new();
    ws.session_open(1, "a", &inline_g(), 1.0, None).unwrap();
    ws.session_open(1, "b", &inline_g(), 1.0, None).unwrap();
    ws.session_open(2, "a", &inline_g(), 1.0, None).unwrap();
    assert_eq!(ws.open_sessions(), 3);
    ws.close_conn_sessions(1);
    assert_eq!(ws.open_sessions(), 1);
    // Connection 2's session survives and is still editable.
    let out = ws
        .session_edit(
            2,
            "a",
            &[ops::EditOp::Delay(ops::EditSpec {
                src: "a+".to_owned(),
                dst: "c+".to_owned(),
                delay: 6.0,
            })],
            None,
        )
        .unwrap();
    assert!(out.contains("cycle time: 13"), "{out}");
    ws.close_conn_sessions(2);
    assert_eq!(ws.open_sessions(), 0);
}

#[test]
fn workspace_applies_structural_edits_transactionally() {
    let mut ws = Workspace::new();
    ws.session_open(1, "s", &inline_g(), 1.0, None).unwrap();
    // Pipeline-split a+ -> c+ through a fresh event in ONE batch: the
    // AddArc ops address "x+" before the graph has it, exercising the
    // pending-label resolution.
    let out = ws
        .session_edit(
            1,
            "s",
            &[
                ops::EditOp::AddEvent {
                    label: "x+".to_owned(),
                },
                ops::EditOp::AddArc {
                    src: "a+".to_owned(),
                    dst: "x+".to_owned(),
                    delay: 1.5,
                    marked: false,
                },
                ops::EditOp::AddArc {
                    src: "x+".to_owned(),
                    dst: "c+".to_owned(),
                    delay: 1.5,
                    marked: true,
                },
                ops::EditOp::RemoveArc {
                    src: "a+".to_owned(),
                    dst: "c+".to_owned(),
                },
            ],
            None,
        )
        .unwrap();
    // The extra token halves the a-cycle; the b-path cycle now rules.
    assert!(out.contains("cycle time: 8"), "{out}");
    assert!(out.contains("re-simulated"), "{out}");
    // A batch naming a now-gone arc is rejected whole...
    let err = ws
        .session_edit(
            1,
            "s",
            &[ops::EditOp::RemoveArc {
                src: "a+".to_owned(),
                dst: "c+".to_owned(),
            }],
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("no arc from"), "{err}");
    // ...and a batch that would orphan an event rolls back whole too.
    let err = ws
        .session_edit(
            1,
            "s",
            &[ops::EditOp::AddEvent {
                label: "orphan".to_owned(),
            }],
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("invalid structural edit"), "{err}");
    // The session survives both rejections with its state intact.
    let out = ws
        .session_edit(
            1,
            "s",
            &[ops::EditOp::Delay(ops::EditSpec {
                src: "b+".to_owned(),
                dst: "c+".to_owned(),
                delay: 2.0,
            })],
            None,
        )
        .unwrap();
    assert!(out.contains("cycle time: 8"), "{out}");
}

#[test]
fn workspace_explore_is_monotone_deterministic_and_verified() {
    let mut ws = Workspace::new();
    ws.session_open(1, "a", &inline_g(), 1.0, None).unwrap();
    ws.session_open(1, "b", &inline_g(), 1.0, None).unwrap();
    let out = ws
        .session_explore(1, "a", 16, 42, ops::Objective::Tau, 16, None)
        .unwrap();
    assert_eq!(out.matches("move ").count(), 16, "{out}");
    assert!(out.contains("optimized: tau 10 -> "), "{out}");
    assert!(
        out.contains("verified: bit-identical to a from-scratch analysis"),
        "{out}"
    );
    // The committed τ trajectory is monotone non-increasing: each move
    // starts from the previous committed value, accepted moves strictly
    // improve it, rejected moves leave it untouched.
    let mut committed = 10.0_f64;
    let mut accepted = 0usize;
    for line in out.lines().filter(|l| l.starts_with("move ")) {
        let rest = line.split("tau ").nth(1).expect("move line shape");
        let (before, rest) = rest.split_once(" -> ").expect("move line shape");
        let before: f64 = before.parse().unwrap();
        let after: f64 = rest.split(' ').next().unwrap().parse().unwrap();
        assert_eq!(before, committed, "{line}");
        if line.contains("(accepted") {
            assert!(after < before, "{line}");
            accepted += 1;
        } else {
            assert_eq!(after, before, "{line}");
        }
        committed = after;
    }
    let final_tau: f64 = out
        .split("optimized: tau 10 -> ")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(final_tau, committed, "summary matches the trajectory");
    assert!(out.contains(&format!("{accepted} accepted")), "{out}");
    // Same seed on an identical session reproduces the run exactly.
    assert_eq!(
        ws.session_explore(1, "b", 16, 42, ops::Objective::Tau, 16, None)
            .unwrap(),
        out
    );
}

#[test]
fn protocol_sessions_take_structural_edits_and_explore() {
    let mut script = String::new();
    let open = req(&[
        ("id", Json::Num(0.0)),
        ("cmd", Json::from("session.open")),
        ("session", Json::from("s")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ]);
    script.push_str(&open);
    script.push('\n');
    // One transactional structural batch: splice a pipeline stage.
    script.push_str(concat!(
        r#"{"id":1,"cmd":"session.edit","session":"s","edits":["#,
        r#"{"op":"add_event","label":"x+"},"#,
        r#"{"op":"add_arc","src":"a+","dst":"x+","delay":1.5},"#,
        r#"{"op":"add_arc","src":"x+","dst":"c+","delay":1.5,"marked":true},"#,
        r#"{"op":"remove_arc","src":"a+","dst":"c+"}]}"#,
    ));
    script.push('\n');
    // A rejected batch answers ok:false but keeps the session open.
    script.push_str(concat!(
        r#"{"id":2,"cmd":"session.edit","session":"s","edits":["#,
        r#"{"op":"remove_event","label":"x+"}]}"#,
    ));
    script.push('\n');
    script.push_str(r#"{"id":3,"cmd":"session.explore","session":"s","moves":8,"seed":3}"#);
    script.push('\n');
    script.push_str(r#"{"id":4,"cmd":"session.close","session":"s"}"#);
    script.push('\n');
    let responses = session(&script, 2);
    assert_eq!(responses.len(), 5);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.get("id"), Some(&Json::Num(i as f64)), "order");
        let want_ok = i != 2;
        assert_eq!(r.get("ok"), Some(&Json::Bool(want_ok)), "request {i}");
    }
    let edited = responses[1].get("output").and_then(Json::as_str).unwrap();
    assert!(edited.contains("cycle time: 8"), "{edited}");
    assert!(edited.contains("re-simulated"), "{edited}");
    let error = responses[2].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("invalid structural edit"), "{error}");
    let explored = responses[3].get("output").and_then(Json::as_str).unwrap();
    assert!(explored.contains("optimized: tau 8 -> "), "{explored}");
    assert!(
        explored.contains("verified: bit-identical to a from-scratch analysis"),
        "{explored}"
    );
}

#[test]
fn two_simultaneous_tcp_clients_share_one_pool() {
    use std::io::{BufRead, BufReader};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_tcp(
            listener,
            &ServeOptions {
                threads: Some(2),
                ..ServeOptions::default()
            },
            None,
            Some(2),
        )
        .unwrap()
    });

    let mut a = std::net::TcpStream::connect(addr).unwrap();
    let mut b = std::net::TcpStream::connect(addr).unwrap();
    let request = |id: f64| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("analyze")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
        ]) + "\n"
    };
    // B is served while A's connection is still open and idle — the old
    // one-connection-at-a-time loop would block here forever.
    b.write_all(request(2.0).as_bytes()).unwrap();
    let mut b_reader = BufReader::new(b.try_clone().unwrap());
    let mut line = String::new();
    b_reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("id"), Some(&Json::Num(2.0)));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));

    // A still gets served afterwards, on the same pool.
    a.write_all(request(1.0).as_bytes()).unwrap();
    let mut a_reader = BufReader::new(a.try_clone().unwrap());
    let mut line = String::new();
    a_reader.read_line(&mut line).unwrap();
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("id"), Some(&Json::Num(1.0)));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));

    a.shutdown(std::net::Shutdown::Both).unwrap();
    b.shutdown(std::net::Shutdown::Both).unwrap();
    let stats = server.join().unwrap();
    assert_eq!((stats.served, stats.failed), (2, 0));
    assert_eq!(stats.threads, 2);
}

#[test]
fn sessions_are_scoped_per_connection() {
    use std::io::{BufRead, BufReader};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_tcp(
            listener,
            &ServeOptions {
                threads: Some(2),
                ..ServeOptions::default()
            },
            None,
            Some(2),
        )
        .unwrap()
    });

    let mut a = std::net::TcpStream::connect(addr).unwrap();
    let mut b = std::net::TcpStream::connect(addr).unwrap();
    let open = req(&[
        ("id", Json::Num(1.0)),
        ("cmd", Json::from("session.open")),
        ("session", Json::from("shared-name")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ]) + "\n";
    let read_one = |stream: &std::net::TcpStream| {
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        Json::parse(line.trim()).unwrap()
    };
    a.write_all(open.as_bytes()).unwrap();
    assert_eq!(read_one(&a).get("ok"), Some(&Json::Bool(true)));
    // The same name opens independently on the other connection: no
    // collision, because sessions are connection-scoped.
    b.write_all(open.as_bytes()).unwrap();
    assert_eq!(read_one(&b).get("ok"), Some(&Json::Bool(true)));

    a.shutdown(std::net::Shutdown::Both).unwrap();
    b.shutdown(std::net::Shutdown::Both).unwrap();
    server.join().unwrap();
}

#[test]
fn tcp_session_round_trips() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_tcp(
            listener,
            &ServeOptions {
                threads: Some(2),
                ..ServeOptions::default()
            },
            None,
            Some(1),
        )
        .unwrap()
    });
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    let script = req(&[
        ("id", Json::Num(1.0)),
        ("cmd", Json::from("analyze")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ]) + "\n";
    client.write_all(script.as_bytes()).unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    let response = Json::parse(reply.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert!(response
        .get("output")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("cycle time: 10"));
    let stats = server.join().unwrap();
    assert_eq!((stats.served, stats.failed), (1, 0));
}

#[cfg(unix)]
#[test]
fn unix_socket_session_round_trips() {
    use std::os::unix::net::{UnixListener, UnixStream};
    let path = std::env::temp_dir().join(format!("tsg-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let sock = path.clone();
    let server = std::thread::spawn(move || {
        tsg_serve::serve_unix(
            listener,
            &ServeOptions {
                threads: Some(1),
                ..ServeOptions::default()
            },
            None,
            Some(1),
        )
        .unwrap()
    });
    let mut client = UnixStream::connect(&sock).unwrap();
    client
        .write_all(
            (req(&[("id", Json::from("u")), ("cmd", Json::from("stats"))]) + "\n").as_bytes(),
        )
        .unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    assert!(reply.contains(r#""id":"u""#), "{reply}");
    let stats = server.join().unwrap();
    assert_eq!(stats.served, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn session_cap_rejects_opens_beyond_the_limit() {
    // One worker so the pinned-lane script is fully deterministic:
    // two sessions fit, the third is refused with a structured error,
    // and closing one frees its slot for a retry.
    let osc = Json::from(tsg_stg::EXAMPLE_OSCILLATOR);
    let open = |id: f64, name: &str| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from(name)),
            ("text", osc.clone()),
            ("name", Json::from("osc.g")),
        ]) + "\n"
    };
    let close = |id: f64, name: &str| {
        req(&[
            ("id", Json::Num(id)),
            ("cmd", Json::from("session.close")),
            ("session", Json::from(name)),
        ]) + "\n"
    };
    let script = [
        open(1.0, "a"),
        open(2.0, "b"),
        open(3.0, "c"),
        close(4.0, "a"),
        open(5.0, "c"),
        close(6.0, "b"),
        close(7.0, "c"),
    ]
    .concat();
    let mut out = Vec::new();
    let opts = ServeOptions {
        threads: Some(1),
        max_sessions: Some(2),
        ..ServeOptions::default()
    };
    serve(Cursor::new(script), &mut out, &opts, None).unwrap();
    let responses: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 7);
    for (i, want_ok) in [true, true, false, true, true, true, true]
        .iter()
        .enumerate()
    {
        assert_eq!(
            responses[i].get("ok"),
            Some(&Json::Bool(*want_ok)),
            "request {}",
            i + 1
        );
    }
    let error = responses[2].get("error").and_then(Json::as_str).unwrap();
    assert_eq!(
        error,
        "session limit reached: 2 of 2 session(s) open (each holds its graph, its last \
         analysis and an O(b·n) two-row window); close one or raise --max-sessions",
        "structured error names the cap and what a session holds"
    );
}

#[test]
fn failed_session_open_does_not_leak_a_cap_slot() {
    // A cap of one: an open that fails to parse must release its
    // reserved slot, so the next valid open still fits.
    let script = [
        req(&[
            ("id", Json::Num(1.0)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from("bad")),
            ("text", Json::from("this is not an stg file")),
            ("name", Json::from("bad.g")),
        ]) + "\n",
        req(&[
            ("id", Json::Num(2.0)),
            ("cmd", Json::from("session.open")),
            ("session", Json::from("good")),
            ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
            ("name", Json::from("osc.g")),
        ]) + "\n",
    ]
    .concat();
    let mut out = Vec::new();
    let opts = ServeOptions {
        threads: Some(1),
        max_sessions: Some(1),
        ..ServeOptions::default()
    };
    serve(Cursor::new(script), &mut out, &opts, None).unwrap();
    let responses: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[1].get("ok"),
        Some(&Json::Bool(true)),
        "slot must be free after the failed open: {:?}",
        responses[1]
    );
}

#[test]
fn disconnect_sweep_releases_cap_slots() {
    // A client leaves its session open; the end-of-connection sweep must
    // hand the slot back so the next protocol session on the same pool
    // can open one under a cap of 1.
    let opts = ServeOptions {
        threads: Some(2),
        max_sessions: Some(1),
        ..ServeOptions::default()
    };
    let pool = tsg_serve::Pool::new(&opts);
    let open = req(&[
        ("id", Json::Num(1.0)),
        ("cmd", Json::from("session.open")),
        ("session", Json::from("left-open")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ]) + "\n";
    for round in 0..3 {
        let mut out = Vec::new();
        pool.serve_stream(Cursor::new(open.clone()), &mut out, None)
            .unwrap();
        let response = Json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "round {round}: sweep must have freed the slot: {response:?}"
        );
    }
}

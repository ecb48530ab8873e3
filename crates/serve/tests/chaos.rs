//! Serve-tier hardening under fault injection.
//!
//! The acceptance bar of the hardened pool: with chaos armed (worker
//! panics, injected delays, garbled response writes, refused reads) the
//! pool itself never dies — every request on a healthy connection ends
//! in exactly one response line that is either the bit-identical normal
//! answer or a structured `deadline_exceeded` / `cancelled` /
//! `overloaded` / `request_too_large` error, the counters account for
//! every outcome, and shutdown drains within its deadline. Malformed,
//! truncated, interleaved and oversized frames (including randomized
//! junk) must never panic a worker or hang a session.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tsg_serve::json::Json;
use tsg_serve::{serve, serve_tcp, ChaosConfig, Pool, ServeOptions, ServeStats};

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

fn analyze_req(id: u64) -> String {
    req(&[
        ("id", Json::from(id)),
        ("cmd", Json::from("analyze")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
    ])
}

fn sim_req(id: u64) -> String {
    req(&[
        ("id", Json::from(id)),
        ("cmd", Json::from("sim")),
        ("text", Json::from(tsg_stg::EXAMPLE_OSCILLATOR)),
        ("name", Json::from("osc.g")),
        ("periods", Json::Num(2.0)),
    ])
}

fn stats_req(id: u64) -> String {
    req(&[("id", Json::from(id)), ("cmd", Json::from("stats"))])
}

/// Runs one in-memory serve session, returning raw response lines and
/// the final pool counters.
fn run_serve(script: &str, opts: &ServeOptions) -> (Vec<String>, ServeStats) {
    let mut out = Vec::new();
    let stats = serve(Cursor::new(script.to_owned()), &mut out, opts, None)
        .expect("in-memory serve never hits I/O errors");
    let lines = String::from_utf8_lossy(&out)
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, stats)
}

/// A dense two-phase barrier graph (`n` signals, every `+` transition
/// feeding every `-` and back, all return arcs marked): `n` border
/// events over `2n²` arcs, so the lockstep analysis is genuinely heavy
/// — seconds of matrix work at `n = 96` — while the spec text stays
/// well under the request byte cap. Deadline tests need a graph whose
/// analysis reliably outlives a few milliseconds on any machine.
fn dense_barrier_g(n: usize) -> String {
    use std::fmt::Write as _;
    let mut g = String::from(".model barrier\n.outputs");
    for i in 0..n {
        write!(g, " x{i}").unwrap();
    }
    g.push_str("\n.graph\n");
    for i in 0..n {
        write!(g, "x{i}+").unwrap();
        for j in 0..n {
            write!(g, " x{j}-").unwrap();
        }
        g.push('\n');
        write!(g, "x{i}-").unwrap();
        for j in 0..n {
            write!(g, " x{j}+").unwrap();
        }
        g.push('\n');
    }
    g.push_str(".marking {");
    for i in 0..n {
        for j in 0..n {
            write!(g, " <x{i}-,x{j}+>").unwrap();
        }
    }
    g.push_str(" }\n.end\n");
    g
}

/// The soak: panics and delays armed, two workers, 60 healthy requests.
/// The fault points fire deterministically every Nth crossing, so the
/// outcome counts are exact even though the request-to-worker mapping
/// is not: the pool survives all 8 injected panics, every request gets
/// exactly one in-order response, and `served + failed` accounts for
/// every line.
#[test]
fn chaos_soak_pool_survives_panics_and_delays() {
    let opts = ServeOptions {
        threads: Some(2),
        chaos: ChaosConfig {
            panic_every: 7,
            delay_every: 5,
            delay_ms: 1,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let total = 60u64;
    let script: String = (1..=total)
        .map(|i| match i % 3 {
            0 => stats_req(i) + "\n",
            1 => analyze_req(i) + "\n",
            _ => sim_req(i) + "\n",
        })
        .collect();
    let (lines, stats) = run_serve(&script, &opts);
    assert_eq!(lines.len(), total as usize, "one response per request");
    let mut panicked = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let response = Json::parse(line).expect("no garble armed: every line parses");
        assert_eq!(
            response.get("id"),
            Some(&Json::Num((i + 1) as f64)),
            "responses stay in request order under chaos"
        );
        match response.get("ok") {
            Some(&Json::Bool(true)) => {}
            Some(&Json::Bool(false)) => {
                let msg = response.get("error").and_then(Json::as_str).unwrap();
                assert!(
                    msg.contains("chaos: injected worker panic"),
                    "healthy requests only fail by injected panic, got: {msg}"
                );
                panicked += 1;
            }
            other => panic!("response without ok field: {other:?}"),
        }
    }
    assert_eq!(panicked, total / 7, "panic point fires every 7th request");
    assert_eq!(stats.served, total - panicked);
    assert_eq!(stats.failed, panicked);
    assert_eq!(stats.queue_depth, 0, "nothing left behind");

    // The pool is still healthy after the soak: a fresh clean run on
    // the same options (chaos re-armed, counters fresh) serves fine.
    let (lines, stats) = run_serve(&(stats_req(1) + "\n"), &ServeOptions::default());
    assert!(lines[0].contains(r#""ok":true"#));
    assert_eq!((stats.served, stats.failed), (1, 0));
}

/// Garbling corrupts exactly every Nth written response line and
/// nothing else: clients see a framing error there, intact JSON
/// everywhere else, and the pool's own counters never notice.
#[test]
fn garble_corrupts_exactly_every_nth_response_line() {
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            garble_every: 3,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let script: String = (1..=9).map(|i| stats_req(i) + "\n").collect();
    let (lines, stats) = run_serve(&script, &opts);
    assert_eq!(lines.len(), 9, "garbling never drops or splits lines");
    for (i, line) in lines.iter().enumerate() {
        let parsed = Json::parse(line);
        if (i + 1) % 3 == 0 {
            assert!(parsed.is_err(), "line {} must be garbled: {line:?}", i + 1);
        } else {
            let response = parsed.expect("ungarbled lines stay intact");
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        }
    }
    assert_eq!(
        (stats.served, stats.failed),
        (9, 0),
        "garbling happens after accounting: the server-side answer was fine"
    );
}

/// A refused read surfaces as the session's I/O error after the
/// already-accepted requests get their responses — the reader fault
/// point models a connection dying mid-stream, not a request failure.
#[test]
fn injected_read_error_ends_session_after_accepted_work() {
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            read_err_every: 3,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let script: String = (1..=5).map(|i| stats_req(i) + "\n").collect();
    let mut out = Vec::new();
    let err = serve(Cursor::new(script), &mut out, &opts, None)
        .expect_err("the injected read error must propagate");
    assert!(err.to_string().contains("chaos: injected read error"));
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2, "reads 1 and 2 landed before read 3 failed");
    for line in lines {
        assert!(line.contains(r#""ok":true"#));
    }
}

/// The same fault over TCP: the event loop counts decoded frames, so
/// the third request line is refused, the two accepted ones are
/// answered and flushed, and only then does the connection close.
#[test]
fn tcp_injected_read_error_answers_accepted_work_then_closes() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        chaos: ChaosConfig {
            read_err_every: 3,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(1)).unwrap());
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let script: String = (1..=5).map(|i| stats_req(i) + "\n").collect();
    client.write_all(script.as_bytes()).unwrap();
    let mut reader = BufReader::new(client);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => lines.push(line),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the server must close the connection: {e}"),
        }
    }
    assert_eq!(
        lines.len(),
        2,
        "frames 1 and 2 landed before frame 3 failed"
    );
    for line in &lines {
        assert!(line.contains(r#""ok":true"#));
    }
    let stats = server.join().unwrap();
    assert_eq!((stats.served, stats.failed), (2, 0));
}

/// Counts the bytes the server has pulled from its input.
struct CountingReader {
    inner: Cursor<Vec<u8>>,
    consumed: Arc<AtomicUsize>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }
}

/// An output that blocks every write until the gate opens.
struct GatedWriter {
    out: Arc<Mutex<Vec<u8>>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Write for GatedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (open, opened) = &*self.gate;
        let mut guard = open.lock().unwrap();
        while !*guard {
            guard = opened.wait(guard).unwrap();
        }
        drop(guard);
        self.out.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A fast producer facing a stalled consumer: the stdio transport
/// stops reading once its pipeline and write backlog are full, so the
/// input consumed stays under a constant bound instead of the whole
/// multi-MiB script; once the output drains, every answer arrives in
/// request order.
#[test]
fn stdio_read_ahead_is_bounded_while_output_stalls() {
    let requests = 100_000u64;
    let script: String = (1..=requests).map(|i| stats_req(i) + "\n").collect();
    let script_len = script.len();
    assert!(script_len > 2 << 20, "script is {script_len} bytes");
    let consumed = Arc::new(AtomicUsize::new(0));
    let reader = CountingReader {
        inner: Cursor::new(script.into_bytes()),
        consumed: Arc::clone(&consumed),
    };
    let out = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let writer = GatedWriter {
        out: Arc::clone(&out),
        gate: Arc::clone(&gate),
    };
    let opts = ServeOptions {
        threads: Some(1),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve(BufReader::new(reader), writer, &opts, None));
    // Wait for the read-ahead to settle: unchanged over three samples.
    let mut last = usize::MAX;
    let mut steady = 0;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(100));
        let now = consumed.load(Ordering::SeqCst);
        steady = if now == last { steady + 1 } else { 0 };
        last = now;
        if steady == 3 {
            break;
        }
    }
    assert!(
        last < 1 << 20,
        "read {last} of {script_len} bytes while the output was stalled"
    );
    let (open, opened) = &*gate;
    *open.lock().unwrap() = true;
    opened.notify_all();
    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.served, requests);
    let out = out.lock().unwrap();
    let mut answered = 0u64;
    for (i, line) in String::from_utf8_lossy(&out).lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{},\"ok\":true", i + 1)),
            "answer {i} out of order: {line}"
        );
        answered += 1;
    }
    assert_eq!(answered, requests);
}

/// Yields its script, then fails every read.
struct FailingReader(Cursor<Vec<u8>>);

impl Read for FailingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.read(buf)? {
            0 => Err(std::io::Error::other("input device failed")),
            n => Ok(n),
        }
    }
}

/// Fails every write.
struct BrokenWriter;

impl Write for BrokenWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// I/O errors of the caller's own streams come back from `serve`: a
/// read error after the requests already sent (which are still
/// answered), and a write error on the output.
#[test]
fn stdio_stream_errors_reach_the_caller() {
    let opts = ServeOptions {
        threads: Some(1),
        ..ServeOptions::default()
    };
    let script = (stats_req(1) + "\n" + &stats_req(2) + "\n").into_bytes();
    let mut out = Vec::new();
    let err = serve(
        BufReader::new(FailingReader(Cursor::new(script))),
        &mut out,
        &opts,
        None,
    )
    .expect_err("the read error must propagate");
    assert!(err.to_string().contains("input device failed"), "{err}");
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2);
    let script: String = (1..=3).map(|i| stats_req(i) + "\n").collect();
    let err = serve(Cursor::new(script), BrokenWriter, &opts, None)
        .expect_err("the write error must propagate");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
}

/// The deadline acceptance test: a `deadline_ms` request against a
/// heavy graph comes back `deadline_exceeded` in bounded time with its
/// partial progress, while a concurrent small request on the same pool
/// completes normally, and the stats counter records the abort.
#[test]
fn deadline_exceeded_on_heavy_graph_while_small_request_completes() {
    let opts = ServeOptions {
        threads: Some(2),
        ..ServeOptions::default()
    };
    let script = [
        req(&[
            ("id", Json::from(1u64)),
            ("cmd", Json::from("analyze")),
            ("text", Json::from(dense_barrier_g(96).as_str())),
            ("name", Json::from("barrier.g")),
            ("deadline_ms", Json::Num(2.0)),
        ]),
        analyze_req(2),
    ]
    .join("\n")
        + "\n";
    let started = Instant::now();
    let (lines, stats) = run_serve(&script, &opts);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a deadline-bounded request must not run to completion"
    );
    assert_eq!(lines.len(), 2);
    let aborted = Json::parse(&lines[0]).unwrap();
    assert_eq!(aborted.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(aborted.get("code"), Some(&Json::from("deadline_exceeded")));
    let done = aborted.get("done").and_then(Json::as_f64).unwrap();
    let total = aborted.get("total").and_then(Json::as_f64).unwrap();
    assert!(
        done < total,
        "progress must be partial: {done} of {total} rows"
    );
    let small = Json::parse(&lines[1]).unwrap();
    assert_eq!(small.get("ok"), Some(&Json::Bool(true)));
    assert!(
        small
            .get("output")
            .and_then(Json::as_str)
            .unwrap()
            .contains("cycle time: 10"),
        "the concurrent small request completes bit-identically"
    );
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!((stats.served, stats.failed), (1, 1));
}

/// A pool-wide default deadline applies to requests that carry none:
/// with an injected delay longer than the default, every request is
/// aborted as `deadline_exceeded` without any per-request field.
#[test]
fn default_deadline_applies_to_plain_requests() {
    let opts = ServeOptions {
        threads: Some(1),
        default_deadline: Some(Duration::from_millis(20)),
        chaos: ChaosConfig {
            delay_every: 1,
            delay_ms: 60,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let (lines, stats) = run_serve(&(analyze_req(1) + "\n"), &opts);
    let response = Json::parse(&lines[0]).unwrap();
    assert_eq!(response.get("code"), Some(&Json::from("deadline_exceeded")));
    assert_eq!(stats.deadline_exceeded, 1);
}

/// Admission control: with one worker held busy by an injected delay
/// and a pending cap of 1, a burst gets structured `overloaded`
/// rejections carrying the queue depth and a retry hint, the accepted
/// requests still complete, and the counters reconcile exactly.
#[test]
fn overload_rejections_are_structured_and_counted() {
    let opts = ServeOptions {
        threads: Some(1),
        max_pending: Some(1),
        chaos: ChaosConfig {
            delay_every: 1,
            delay_ms: 150,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    let total = 5u64;
    let script: String = (1..=total).map(|i| stats_req(i) + "\n").collect();
    let (lines, stats) = run_serve(&script, &opts);
    assert_eq!(lines.len(), total as usize);
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for line in &lines {
        let response = Json::parse(line).unwrap();
        if response.get("ok") == Some(&Json::Bool(true)) {
            ok += 1;
        } else {
            assert_eq!(response.get("code"), Some(&Json::from("overloaded")));
            let retry = response
                .get("retry_after_ms")
                .and_then(Json::as_f64)
                .expect("overloaded responses carry a retry hint");
            assert!(retry >= 50.0);
            assert!(response.get("queue_depth").and_then(Json::as_f64).is_some());
            overloaded += 1;
        }
    }
    assert!(ok >= 1, "the first request is always admitted");
    assert!(overloaded >= 1, "the burst must overflow a cap of 1");
    assert_eq!(stats.served, ok);
    assert_eq!(stats.rejected_overloaded, overloaded);
    assert_eq!(stats.failed, overloaded);
    assert_eq!(stats.served + stats.failed, total);
}

/// The graceful-drain acceptance test, signal flag and all: shutdown is
/// raised while a worker sits in a long injected delay; the session
/// stops accepting, the drain watchdog cancels the straggler through
/// the drain group once the drain deadline passes, the request comes
/// back as a structured `cancelled`, and serve returns in bounded time
/// with the drain counters set.
#[test]
fn graceful_drain_cancels_stragglers_within_deadline() {
    let opts = ServeOptions {
        threads: Some(1),
        drain_deadline: Duration::from_millis(50),
        chaos: ChaosConfig {
            delay_every: 1,
            delay_ms: 400,
            ..ChaosConfig::default()
        },
        ..ServeOptions::default()
    };
    // The connection must outlive the shutdown signal (an EOF'd script
    // would end the session before the flag rises), so this runs over
    // TCP with the client holding its half open — the shape of a real
    // SIGINT against a live server.
    static FLAG: AtomicBool = AtomicBool::new(false);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let started = Instant::now();
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, Some(&FLAG), None).unwrap());
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client
        .write_all((analyze_req(1) + "\n").as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    FLAG.store(true, Ordering::SeqCst);
    let mut line = String::new();
    BufReader::new(client.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let stats = server.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain must complete promptly once the watchdog cancels"
    );
    let response = Json::parse(line.trim()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(response.get("code"), Some(&Json::from("cancelled")));
    assert_eq!(stats.cancelled, 1);
    assert_eq!(
        stats.drained_in_flight, 1,
        "the watchdog counted the straggler it cancelled"
    );
}

/// A stalled client trips the socket read timeout: the connection ends
/// cleanly (counted, not an error) and the pool remains usable.
#[test]
fn tcp_read_timeout_ends_stalled_connection() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        threads: Some(1),
        io_timeout: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve_tcp(listener, &opts, None, Some(1)).unwrap());
    let mut client = std::net::TcpStream::connect(addr).unwrap();
    client.write_all((stats_req(1) + "\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(client.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains(r#""ok":true"#));
    // Hold the connection open without sending anything: the server
    // must cut it on its own rather than wait forever.
    let stats = server.join().unwrap();
    assert_eq!(stats.timed_out_connections, 1);
    assert_eq!((stats.served, stats.failed), (1, 0));
    drop(client);
}

/// An oversized frame is skipped in bounded memory and answered with a
/// structured `request_too_large` (id unrecoverable, hence null); the
/// session keeps serving afterwards.
#[test]
fn oversized_frame_rejected_and_session_continues() {
    let opts = ServeOptions {
        threads: Some(1),
        max_request_bytes: 256,
        ..ServeOptions::default()
    };
    let huge = req(&[
        ("id", Json::from(2u64)),
        ("cmd", Json::from("analyze")),
        ("text", Json::from("x".repeat(600).as_str())),
    ]);
    assert!(huge.len() > 256);
    let script = [stats_req(1), huge, stats_req(3)].join("\n") + "\n";
    let (lines, stats) = run_serve(&script, &opts);
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains(r#""ok":true"#));
    let rejected = Json::parse(&lines[1]).unwrap();
    assert_eq!(rejected.get("id"), Some(&Json::Null));
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(rejected.get("code"), Some(&Json::from("request_too_large")));
    assert!(lines[2].contains(r#""ok":true"#));
    assert_eq!((stats.served, stats.failed), (2, 1));
}

/// Malformed and truncated frames each get exactly one structured
/// `ok: false` answer and never take the session or pool down.
#[test]
fn malformed_frames_never_kill_the_pool() {
    let frames = [
        r#"{"id": 1"#,                         // truncated object
        "definitely not json",                 // free text
        r#"{"cmd": 42}"#,                      // wrong type
        r#"[1, 2, 3]"#,                        // not an object
        r#""just a string""#,                  // scalar document
        r#"{"id": 6, "cmd": "analyze"}"#,      // missing source
        r#"{"id": 7, "cmd": "frobnicate"}"#,   // unknown cmd
        "{\"id\": 8, \"cmd\": \"stats\"\x00}", // embedded NUL
    ];
    let script = frames.join("\n") + "\n" + &stats_req(9) + "\n";
    let (lines, stats) = run_serve(&script, &ServeOptions::default());
    assert_eq!(lines.len(), frames.len() + 1);
    for line in &lines[..frames.len()] {
        let response = Json::parse(line).expect("errors are structured JSON");
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert!(response.get("error").and_then(Json::as_str).is_some());
    }
    let survivor = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(survivor.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(stats.served, 1);
    assert_eq!(stats.failed, frames.len() as u64);
}

/// Interleaved sessions on one pool stay isolated: each connection gets
/// exactly its own responses, in its own order, even while another
/// connection is spraying garbage at the same workers.
#[test]
fn interleaved_connections_stay_isolated() {
    let pool = Arc::new(Pool::new(&ServeOptions {
        threads: Some(2),
        ..ServeOptions::default()
    }));
    let clean: String = (1..=10).map(|i| analyze_req(i) + "\n").collect();
    let dirty: String = (1..=10)
        .map(|i| format!("junk frame number {i}\n"))
        .collect();
    let spawn = |script: String| {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let mut out = Vec::new();
            pool.serve_stream(Cursor::new(script), &mut out, None)
                .unwrap();
            String::from_utf8(out).unwrap()
        })
    };
    let clean_out = spawn(clean);
    let dirty_out = spawn(dirty);
    let clean_lines = clean_out.join().unwrap();
    let clean_lines: Vec<&str> = clean_lines.lines().collect();
    let dirty_lines = dirty_out.join().unwrap();
    let dirty_lines: Vec<&str> = dirty_lines.lines().collect();
    assert_eq!(clean_lines.len(), 10);
    assert_eq!(dirty_lines.len(), 10);
    let reference = Json::parse(clean_lines[0]).unwrap();
    for (i, line) in clean_lines.iter().enumerate() {
        let response = Json::parse(line).unwrap();
        assert_eq!(response.get("id"), Some(&Json::Num((i + 1) as f64)));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            response.get("output"),
            reference.get("output"),
            "identical requests stay bit-identical despite the noisy neighbour"
        );
    }
    for line in &dirty_lines {
        let response = Json::parse(line).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    }
    let stats = pool.stats();
    assert_eq!((stats.served, stats.failed), (10, 10));
}

/// Deterministic junk from one seed: printable-ish characters weighted
/// toward JSON punctuation, so frames regularly look almost parseable.
fn junk_line(seed: u64, max_len: usize) -> String {
    const ALPHABET: &[u8] = br#"{}[]"':,.0123456789abcdefxyz \t null true"#;
    let mut state = seed | 1;
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let len = (step() as usize) % (max_len + 1);
    (0..len)
        .map(|_| ALPHABET[(step() as usize) % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized frame fuzz: any batch of junk lines through a live
    /// pool yields exactly one structured response per non-blank,
    /// non-comment line — never a panic, never a hang, never an
    /// unparseable server-side answer.
    #[test]
    fn junk_frames_always_get_structured_answers(
        seed in 0u64..10_000,
        frames in 1usize..12,
        max_len in 1usize..120,
    ) {
        let script: String = (0..frames as u64)
            .map(|i| junk_line(seed.wrapping_add(i.wrapping_mul(0x9E37)), max_len) + "\n")
            .collect();
        let expected = script
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .count();
        let (lines, stats) = run_serve(&script, &ServeOptions { threads: Some(1), ..ServeOptions::default() });
        prop_assert_eq!(lines.len(), expected);
        for line in &lines {
            let response = Json::parse(line).expect("always structured JSON");
            prop_assert!(matches!(response.get("ok"), Some(Json::Bool(_))));
        }
        prop_assert_eq!(stats.served + stats.failed, expected as u64);
    }
}

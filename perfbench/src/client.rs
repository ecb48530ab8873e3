//! The served run: the real `tsg serve` binary, driven from outside over
//! loopback TCP by one closed-loop client connection.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use tsg_serve::json::Json;

use crate::corpus::{Corpus, Exchange};
use crate::host::{HostProbe, Probe};

/// The line `tsg serve` prints on stderr once its listener is bound.
const READY: &str = "tsg serve: listening on tcp ";

/// One running `tsg serve --threads 1` process. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port and returns once
    /// it announced the bound address. Readiness is that stderr line, not
    /// a sleep-and-retry connect loop, so set-up time is not rounded up
    /// to a polling interval.
    pub fn spawn(tsg: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(tsg);
        cmd.args(["serve", "--threads", "1", "--listen", "tcp:127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tsg.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stderr = server.child.stderr.take().expect("stderr is piped");
        let mut stderr = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) => return Err("tsg serve exited before listening".to_owned()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading tsg serve stderr: {e}")),
            }
            if let Some(rest) = line.strip_prefix(READY) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                // The server writes stderr again only when it shuts down;
                // nothing is left to drain.
                return Ok(server);
            }
        }
    }

    /// CPU seconds (user plus system) the server's threads have run so
    /// far: the sum of each thread's `schedstat` run time, the
    /// nanosecond-resolution form of `utime + stime`, so a short chunk of
    /// the measured sequence is not rounded to 10 ms clock ticks.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("reading {dir}: {e}"))?;
        let mut ns = 0u64;
        for task in tasks.flatten() {
            // A thread that exits between the listing and the read has
            // nothing left to count.
            let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed schedstat {stat:?}"))?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: send a line, wait for the answering line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = writer.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, reader),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line (newline included) and returns the
    /// response line without its newline.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.strip_suffix('\n').unwrap_or(&self.line))
    }

    /// Shuts the connection down, so the other end reads its end.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.writer.shutdown(how)
    }
}

/// Consecutive slices the measured sequence is cut into. The host is
/// probed between every two, so each chunk's timings are divided by the
/// slowdown of the host while it ran: in a 6 s run a chunk lasts about
/// 30 ms, shorter than most of the host's slow and fast stretches.
pub const CHUNKS: usize = 200;

/// One chunk of the measured sequence.
pub struct Chunk {
    /// Wall seconds of the chunk.
    pub wall_s: f64,
    /// Server CPU seconds over the chunk.
    pub cpu_s: f64,
    /// Client-side round trip of each answered request, in µs.
    pub latency_us: Vec<f64>,
    /// The host's slowdown over the chunk: the mean of the probes just
    /// before and just after it.
    pub slowdown: f64,
}

/// Seconds from spawning a server to its last set-up answer, and the
/// host's slowdown over them.
pub struct ColdStart {
    pub secs: f64,
    pub slowdown: f64,
}

/// What a served run measured.
pub struct Served {
    /// Every cold start.
    pub cold_starts: Vec<ColdStart>,
    /// Every host probe, in order.
    pub probes: Vec<Probe>,
    /// The measured sequence, chunk by chunk.
    pub chunks: Vec<Chunk>,
    /// Server peak RSS at the end of the run, MiB.
    pub rss_mb: f64,
    /// Measured requests attempted.
    pub attempted: usize,
    /// Measured requests failed, refused, unanswered or answered with
    /// other bytes than expected.
    pub failed: usize,
    /// Set-up requests answered with other bytes than expected.
    pub setup_failed: usize,
    /// The `stats` response after the measured sequence.
    pub stats: Json,
    /// Whether the server's counters agree with what the client saw.
    pub reconciled: bool,
}

impl Served {
    /// Every measured round trip, in µs.
    pub fn latency_us(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .flat_map(|c| c.latency_us.iter().copied())
            .collect()
    }

    /// Every measured round trip divided by its chunk's slowdown, in µs.
    pub fn scaled_latency_us(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .flat_map(|c| c.latency_us.iter().map(|l| l / c.slowdown))
            .collect()
    }
}

/// Probes the host and returns its slowdown, keeping the probe.
fn slowdown(host: &mut HostProbe, probes: &mut Vec<Probe>) -> Result<f64, String> {
    let probe = host.probe()?;
    probes.push(probe);
    Ok(probe.slowdown())
}

/// Whether a response line reports success.
fn is_ok(response: &str) -> bool {
    Json::parse(response)
        .ok()
        .and_then(|j| j.get("ok").and_then(Json::as_bool))
        .unwrap_or(false)
}

/// Client-side tallies of the answers to a request sequence.
#[derive(Default)]
struct Tally {
    /// Answered `ok: true`.
    ok: u64,
    /// Answered `ok: false`.
    err: u64,
    /// Answered with other bytes than expected.
    wrong: usize,
}

/// Sends `requests` in a closed loop, byte-checking every answer into
/// `tally`. Returns each request's round trip in µs.
fn exchange_all(conn: &mut Conn, requests: &[Exchange], tally: &mut Tally) -> io::Result<Vec<f64>> {
    let mut latency = Vec::with_capacity(requests.len());
    for ex in requests {
        let start = Instant::now();
        let got = conn.call(&ex.request)?;
        latency.push(start.elapsed().as_secs_f64() * 1e6);
        if got != ex.expected {
            tally.wrong += 1;
        }
        if got == ex.expected || is_ok(got) {
            tally.ok += 1;
        } else {
            tally.err += 1;
        }
    }
    Ok(latency)
}

/// Spawns a fresh server and sends it `requests`, timing spawn to last
/// answer, into `tally`, with the host probed before and after. Returns
/// the server, its connection and the cold start.
fn cold_start(
    tsg: &Path,
    requests: &[Exchange],
    tally: &mut Tally,
    host: &mut HostProbe,
    probes: &mut Vec<Probe>,
) -> Result<(Server, Conn, ColdStart), String> {
    let before = slowdown(host, probes)?;
    let start = Instant::now();
    let server = Server::spawn(tsg)?;
    let mut conn = Conn::connect(server.addr)?;
    exchange_all(&mut conn, requests, tally).map_err(|e| format!("set-up: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let after = slowdown(host, probes)?;
    let cold = ColdStart {
        secs,
        slowdown: (before + after) / 2.0,
    };
    Ok((server, conn, cold))
}

/// Runs `corpus` against fresh servers. The first cold start's server
/// serves the measured sequence, chunk by chunk; the other cold starts
/// are spread evenly between its chunks, so set-up time is sampled
/// across the whole run rather than in one burst. Each is timed from
/// spawn through its set-up requests; no chunk's window includes one.
/// The host is probed before and after every chunk and cold start.
///
/// # Errors
///
/// Spawn, connection and `/proc` failures.
pub fn run(tsg: &Path, corpus: &Corpus) -> Result<Served, String> {
    let (first, others) = corpus.cold_starts.split_first().ok_or("no cold start")?;
    let mut host = HostProbe::start()?;
    let mut probes = Vec::with_capacity(2 * (CHUNKS + corpus.cold_starts.len()));
    let mut setup = Tally::default();
    let (server, mut conn, cold) = cold_start(tsg, first, &mut setup, &mut host, &mut probes)?;
    let mut cold_starts = vec![cold];
    let mut setup_failed = setup.wrong;

    let attempted = corpus.measured.len();
    let mut measured = Tally::default();
    let mut chunks = Vec::with_capacity(CHUNKS);
    let size = attempted.div_ceil(CHUNKS).max(1);
    let mut others = others.iter().enumerate().peekable();
    for (index, requests) in corpus.measured.chunks(size).enumerate() {
        while let Some((_, extra)) =
            others.next_if(|(e, _)| (e + 1) * CHUNKS / (corpus.cold_starts.len()) <= index)
        {
            let mut tally = Tally::default();
            let (_server, _conn, cold) =
                cold_start(tsg, extra, &mut tally, &mut host, &mut probes)?;
            cold_starts.push(cold);
            setup_failed += tally.wrong;
        }
        let before = slowdown(&mut host, &mut probes)?;
        let cpu0 = server.cpu_seconds()?;
        let start = Instant::now();
        let latency_us = exchange_all(&mut conn, requests, &mut measured);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = server.cpu_seconds()? - cpu0;
        let after = slowdown(&mut host, &mut probes)?;
        let Ok(latency_us) = latency_us else {
            // A lost connection fails the whole run.
            return Ok(Served {
                cold_starts,
                probes,
                chunks,
                rss_mb: server.peak_rss_mb()?,
                attempted,
                failed: attempted,
                setup_failed,
                stats: Json::Null,
                reconciled: false,
            });
        };
        chunks.push(Chunk {
            wall_s,
            cpu_s,
            latency_us,
            slowdown: (before + after) / 2.0,
        });
    }
    for (_, extra) in others {
        let mut tally = Tally::default();
        cold_starts.push(cold_start(tsg, extra, &mut tally, &mut host, &mut probes)?.2);
        setup_failed += tally.wrong;
    }

    let stats_line = Json::Obj(vec![
        ("id".to_owned(), Json::from("stats")),
        ("cmd".to_owned(), Json::from("stats")),
    ])
    .dump()
        + "\n";
    let stats = conn
        .call(&stats_line)
        .map_err(|e| format!("stats request: {e}"))
        .and_then(Json::parse)?;
    let counter = |key: &str| stats.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let reconciled = counter("served") == Some(setup.ok + measured.ok)
        && counter("failed") == Some(setup.err + measured.err)
        && counter("rejected_overloaded") == Some(0)
        && counter("worker_lost") == Some(0);
    Ok(Served {
        cold_starts,
        probes,
        chunks,
        rss_mb: server.peak_rss_mb()?,
        attempted,
        failed: measured.wrong,
        setup_failed,
        stats,
        reconciled,
    })
}

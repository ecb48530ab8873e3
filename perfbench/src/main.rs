//! `perfbench` — the served-request benchmark of `tsg serve`.
//!
//! ```text
//! perfbench --tsg PATH --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! Builds the workload's seeded corpus and its expected responses in
//! process, then drives the real `tsg serve` binary over loopback TCP.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` serves the same
//! sequence, replays it in process with a span around each layer, and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the human-readable report. See `README.md` beside this package.

mod client;
mod corpus;
mod host;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;

use tsg_core::analysis::wide::KernelBackend;
use tsg_serve::json::Json;

use crate::stats::{beyond, median, nearest_rank, supported_tail};
use crate::workload::Workload;

/// Parsed command line.
struct Args {
    tsg: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        tsg: PathBuf::from(value("--tsg")?),
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && s.is_finite())
            .ok_or("--seconds needs a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        out_dir: value("--out-dir").map_or_else(|_| PathBuf::from("."), PathBuf::from),
    })
}

/// CPUs the host has online, whichever of them this process may use.
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines().filter(|l| l.starts_with("processor")).count()
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let count = ((w.rate() * args.seconds).round() as usize).max(1);
    let started = std::time::Instant::now();
    let corpus = corpus::build(w, args.seed, count)?;
    let corpus_s = started.elapsed().as_secs_f64();
    println!(
        "perfbench {} seed={} trace={} nproc={} pinned_cpus={} kernel={} server_threads=1 connections=1 \
         cold_starts={} warmup={} requests={} corpus_s={corpus_s:.1}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        host_cpus(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        KernelBackend::detect().name(),
        w.cold_starts(),
        w.warmup(),
        count
    );

    let served = client::run(&args.tsg, &corpus)?;
    // Every timing is divided by the host's slowdown while it was taken;
    // see `host`. The report also prints the raw figures.
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let raw = sorted(served.latency_us());
    let scaled = sorted(served.scaled_latency_us());
    let n = raw.len();
    if n == 0 {
        return Err("the server answered no measured request".to_owned());
    }
    let pct = |s: &[f64], p| nearest_rank(s, p).unwrap_or(0.0);
    let slowdowns: Vec<f64> = served.probes.iter().map(|p| p.slowdown()).collect();
    let probe_p50_us = |part: fn(&host::Probe) -> f64| {
        median(
            &served
                .probes
                .iter()
                .map(|p| part(p) * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "  host slowdown over {} probes: median {:.3}, min {:.3}, max {:.3}; \
         probe sort p50 {:.1} us, echo p50 {:.1} us",
        slowdowns.len(),
        median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        probe_p50_us(|p| p.sort_s),
        probe_p50_us(|p| p.echo_s),
    );
    let mut failed = served.failed;
    let metrics = if args.trace {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
        let spans = args.out_dir.join(format!("trace-{}.jsonl", w.name()));
        let layers = trace::run(&corpus, pct(&scaled, 50.0), &served.stats, &spans)?;
        println!(
            "  spans written to {} ({} replayed response(s) differ)",
            spans.display(),
            layers.mismatched
        );
        failed += layers.mismatched;
        trace::LAYER_METRICS
            .iter()
            .zip(layers.values)
            .map(|(&(name, unit), value)| metric(name, value, unit, String::new()))
            .collect()
    } else {
        let chunks = served.chunks.len();
        let wall: f64 = served.chunks.iter().map(|c| c.wall_s).sum();
        let scaled_wall: f64 = served.chunks.iter().map(|c| c.wall_s / c.slowdown).sum();
        let cpu: f64 = served.chunks.iter().map(|c| c.cpu_s).sum();
        let scaled_cpu: f64 = served.chunks.iter().map(|c| c.cpu_s / c.slowdown).sum();
        let setup: Vec<f64> = served.cold_starts.iter().map(|c| c.secs).collect();
        let scaled_setup: Vec<f64> = served
            .cold_starts
            .iter()
            .map(|c| c.secs / c.slowdown)
            .collect();
        vec![
            metric(
                "throughput_rps",
                n as f64 / scaled_wall,
                "1/s",
                format!(
                    "{n} requests in {chunks} chunks; raw {:.1}/s over {wall:.3} s",
                    n as f64 / wall
                ),
            ),
            metric(
                "latency_p50_ms",
                pct(&scaled, 50.0) / 1e3,
                "ms",
                format!("n={n}; raw {:.4}", pct(&raw, 50.0) / 1e3),
            ),
            metric(
                "latency_p90_ms",
                pct(&scaled, 90.0) / 1e3,
                "ms",
                format!("n={n}; raw {:.4}", pct(&raw, 90.0) / 1e3),
            ),
            metric(
                "server_cpu_ms_per_req",
                scaled_cpu * 1e3 / n as f64,
                "ms",
                format!("raw {:.6}; {cpu:.3} CPU s in all", cpu * 1e3 / n as f64),
            ),
            metric("server_rss_mb", served.rss_mb, "MB", "VmHWM".to_owned()),
            metric(
                "setup_s",
                median(&scaled_setup),
                "s",
                format!(
                    "median of {} cold starts; raw {:.6}",
                    setup.len(),
                    median(&setup)
                ),
            ),
        ]
    };

    for m in &metrics {
        println!(
            "  {:<26} {:>14.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(p) = supported_tail(n) {
        println!(
            "  {:<26} {:>14.6} {:<8} n={n}, {} beyond; raw {:.4} (not gated)",
            format!("latency_p{p}_ms"),
            pct(&scaled, p) / 1e3,
            "ms",
            beyond(n, p),
            pct(&raw, p) / 1e3
        );
    }
    let attempted = served.attempted;
    println!(
        "  {:<26} {:>14.6} {:<8} {failed} of {attempted} failed, refused or byte-mismatched; \
         {} set-up mismatch(es); stats {}",
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio",
        served.setup_failed,
        if served.reconciled {
            "reconciled"
        } else {
            "DISAGREE"
        }
    );

    let correct = failed == 0 && served.setup_failed == 0 && served.reconciled;
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::from(m.unit)),
                ]);
                (m.name.to_owned(), value)
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::from(attempted as u64)),
        ("failed".to_owned(), Json::from(failed as u64)),
        ("metrics".to_owned(), metrics),
    ]);
    println!("{}", result.dump());
    Ok(())
}

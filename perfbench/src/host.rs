//! The host's speed, probed next to every timed stretch of a served run.
//!
//! On a shared virtual machine the same code runs up to 2x slower, for
//! stretches from a fraction of a second to a whole run, while other
//! tenants load the physical core and its caches; the server's CPU time
//! slows as much as its wall time. No statistic over one run removes a
//! slow stretch that covers the run. So every timing is divided by the
//! slowdown of a fixed reference job, measured just before and just after
//! it on the same CPU. The job is the benchmark's own code: no change to
//! the program under test moves it. Its two parts follow the two kinds
//! of work a served request does: a sort, branchy user-space work over a
//! cache-sized array, and loopback TCP round trips through an echo
//! thread, the system calls and context switches of the network stack
//! the served requests take.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::client::Conn;

/// Keys the sort part sorts.
const SORT_KEYS: usize = 16384;

/// Round trips, and the bytes of each line, of the echo part: about the
/// size of a `serve-small` request.
const ECHO_ROUND_TRIPS: usize = 16;
const ECHO_LINE_BYTES: usize = 800;

/// Seconds each part takes on the undisturbed 2-vCPU reference host
/// (Intel Xeon, 2.1 GHz): about the fastest of the probes in a run there.
/// They only fix the scale; a timing divided by a slowdown reads as what
/// it would be on that host left alone.
const SORT_REF_S: f64 = 200e-6;
const ECHO_REF_S: f64 = 120e-6;

/// The reference job, ready to run: its sort input and a connection to
/// its echo thread. Dropping it closes the connection and joins the
/// thread.
pub struct HostProbe {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    line: String,
    echo: Conn,
    thread: Option<JoinHandle<()>>,
}

/// One probe: seconds of each part, and the slowdown they give.
#[derive(Clone, Copy)]
pub struct Probe {
    pub sort_s: f64,
    pub echo_s: f64,
}

impl Probe {
    /// The host's slowdown against the undisturbed reference host: the
    /// mean of the two parts' time ratios.
    pub fn slowdown(self) -> f64 {
        (self.sort_s / SORT_REF_S + self.echo_s / ECHO_REF_S) / 2.0
    }
}

/// Echoes lines on `stream` until the other end closes it.
fn echo(stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && writer.write_all(line.as_bytes()).is_ok() => {}
            _ => return,
        }
    }
}

impl HostProbe {
    /// Starts the echo thread and connects to it.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn start() -> Result<HostProbe, String> {
        let io = |e: std::io::Error| format!("host probe: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let thread = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                echo(stream);
            }
        });
        let echo = Conn::connect(addr)?;
        // A fixed xorshift sequence: every probe sorts the same keys.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let keys = (0..SORT_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Ok(HostProbe {
            keys,
            scratch: vec![0; SORT_KEYS],
            line: "x".repeat(ECHO_LINE_BYTES - 1) + "\n",
            echo,
            thread: Some(thread),
        })
    }

    /// Runs the reference job once.
    ///
    /// # Errors
    ///
    /// A lost echo connection.
    pub fn probe(&mut self) -> Result<Probe, String> {
        self.scratch.copy_from_slice(&self.keys);
        let start = Instant::now();
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        let sort_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..ECHO_ROUND_TRIPS {
            let back = self
                .echo
                .call(&self.line)
                .map_err(|e| format!("host probe echo: {e}"))?;
            black_box(back.len());
        }
        let echo_s = start.elapsed().as_secs_f64();
        Ok(Probe { sort_s, echo_s })
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        let _ = self.echo.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_times_both_parts_and_drop_joins_the_echo_thread() {
        let mut host = HostProbe::start().unwrap();
        for _ in 0..3 {
            let p = host.probe().unwrap();
            assert!(p.sort_s > 0.0 && p.echo_s > 0.0);
            assert!(p.slowdown().is_finite() && p.slowdown() > 0.0);
            assert!(host.scratch.windows(2).all(|w| w[0] <= w[1]));
        }
        // Dropping closes the connection; the echo thread reads its end
        // and returns, so the join completes.
        drop(host);
    }
}

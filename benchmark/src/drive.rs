//! Runs the real `cmvrp` binary: batch invocations and a closed-loop
//! `cmvrp serve` client, each timed from the outside. A child's peak
//! resident set comes from the kernel when the child is reaped. The
//! child's stderr is the benchmark's, so its errors show where they occur.

use crate::sys;
use crate::workloads::Live;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a wire reply may take before the client gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Bare `open` + `close` pairs after each session, whose `open` round
/// trips add `setup_s` samples: one takes milliseconds against about a
/// second for a session.
const OPEN_PROBES: usize = 4;

/// One finished `cmvrp` invocation.
#[derive(Debug)]
pub struct Invocation {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
    pub stdout: String,
}

/// Runs `cmvrp <args>` to completion, timing it from spawn to exit.
pub fn invoke(bin: &Path, args: &[String]) -> Result<Invocation, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let exit = sys::wait(child.id()).map_err(|e| format!("waiting for cmvrp: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("reading cmvrp's output: {e}"))?;
    Ok(Invocation {
        wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        success: exit.success,
        stdout,
    })
}

/// What one wire session measured and what the server reported.
#[derive(Debug, Default)]
pub struct SessionRun {
    /// From sending `open` to the `close` reply.
    pub wall_s: f64,
    /// The session's `open` round trip, then the probes' after it.
    pub open_s: Vec<f64>,
    pub inject_us: Vec<f64>,
    pub advance_ms: Vec<f64>,
    pub trace_s: f64,
    /// Replies that were not `"ok":true`.
    pub rejected: u64,
    pub served: u64,
    pub unserved: u64,
    pub max_energy: u64,
    /// `close.events`.
    pub events: u64,
    /// The `trace` header's `lines`.
    pub trace_lines: u64,
}

/// A whole `cmvrp serve` run: the warm-up and the timed sessions, and the
/// server process's own outcome.
#[derive(Debug)]
pub struct ServeRun {
    pub warmups: Vec<SessionRun>,
    pub sessions: Vec<SessionRun>,
    pub peak_rss_mb: f64,
    pub server_ok: bool,
    pub server_stdout: String,
}

/// Starts `cmvrp serve listen` for one connection, runs `warmup` untimed
/// sessions and then timed ones until `seconds` have passed and at least
/// `min_sessions` ran, closes the connection and reaps the server.
///
/// The server runs on one CPU and the calling thread, the client, on
/// another, so each request wakes the server the way a request from
/// another machine would. Left to the scheduler, the two sometimes share a
/// CPU instead, and the `inject` round trip drops from about 17 µs to
/// about 7.5 µs on a 2-CPU virtual machine, so the serve numbers would
/// flip between runs. With one CPU they share it. The calling thread stays
/// pinned afterwards.
pub fn serve(
    bin: &Path,
    live: &Live,
    warmup: usize,
    min_sessions: usize,
    seconds: f64,
) -> Result<ServeRun, String> {
    let cpus = sys::allowed_cpus().map_err(|e| format!("reading the CPU affinity: {e}"))?;
    let (Some(&client_cpu), Some(&server_cpu)) = (cpus.first(), cpus.last()) else {
        return Err("no CPU is allowed".into());
    };
    let pin = |cpu: usize| sys::pin(cpu).map_err(|e| format!("pinning to CPU {cpu}: {e}"));
    pin(server_cpu)?;
    let mut server = Command::new(bin)
        .args(["serve", "listen", "--addr=127.0.0.1:0", "--connections=1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {} serve: {e}", bin.display()))?;
    let stdout = server.stdout.take().expect("stdout is piped");
    let result = pin(client_cpu).and_then(|()| client(stdout, live, warmup, min_sessions, seconds));
    if result.is_err() {
        // The connection may still be open; do not leave the server
        // waiting on it.
        let _ = server.kill();
    }
    let exit = sys::wait(server.id()).map_err(|e| format!("waiting for the server: {e}"))?;
    let (warmups, sessions, server_stdout) = result?;
    Ok(ServeRun {
        warmups,
        sessions,
        peak_rss_mb: exit.peak_rss_mb,
        server_ok: exit.success,
        server_stdout,
    })
}

/// The client half of [`serve`]: reads the bound address, drives the
/// sessions over one connection, closes it, and collects the server's
/// remaining output.
fn client(
    stdout: ChildStdout,
    live: &Live,
    warmup: usize,
    min_sessions: usize,
    seconds: f64,
) -> Result<(Vec<SessionRun>, Vec<SessionRun>, String), String> {
    let mut out = BufReader::new(stdout);
    let mut first = String::new();
    out.read_line(&mut first)
        .map_err(|e| format!("reading the server's address: {e}"))?;
    let addr = first
        .trim()
        .strip_prefix("serving on ")
        .ok_or_else(|| format!("unexpected first server line {first:?}"))?
        .to_string();
    let mut wire = Wire::connect(&addr)?;
    let warmups = (0..warmup)
        .map(|i| session(&mut wire, live, &format!("warmup{i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < min_sessions || start.elapsed().as_secs_f64() < seconds {
        sessions.push(session(&mut wire, live, &format!("s{}", sessions.len()))?);
    }
    drop(wire);
    let mut rest = String::new();
    out.read_to_string(&mut rest)
        .map_err(|e| format!("reading the server's summary: {e}"))?;
    Ok((warmups, sessions, rest))
}

/// One lockstep connection: a request goes out only after the previous
/// reply came back.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Wire {
    fn connect(addr: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = |s: &TcpStream| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))
        };
        setup(&stream).map_err(|e| format!("socket options: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Wire {
            reader: BufReader::new(reader),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request and returns its reply line.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        let io = |e: std::io::Error| format!("wire: {e}");
        self.writer.write_all(request.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.writer.flush().map_err(io)?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("wire: the server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("wire: {e}")),
        }
    }
}

/// The unsigned integer after `"key":` in a flat JSON reply.
fn field(reply: &str, key: &str) -> Option<u64> {
    let at = reply.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

fn open_request(live: &Live, id: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{id}\",\"workload\":\"{}\",\"seed\":{},\
         \"threads\":1,\"preload\":false}}",
        live.spec, live.seed
    )
}

fn close_request(id: &str) -> String {
    format!("{{\"op\":\"close\",\"session\":\"{id}\"}}")
}

/// One session: open, inject every job with an `advance` (drain) and a
/// `query` after each batch, fetch the trace, close; then the
/// [`OPEN_PROBES`].
fn session(wire: &mut Wire, live: &Live, id: &str) -> Result<SessionRun, String> {
    let mut run = SessionRun::default();
    let start = Instant::now();
    let reply_ok = ok(wire.call(&open_request(live, id))?);
    run.open_s.push(start.elapsed().as_secs_f64());
    run.rejected += u64::from(!reply_ok);
    let advance = format!("{{\"op\":\"advance\",\"session\":\"{id}\"}}");
    let query = format!("{{\"op\":\"query\",\"session\":\"{id}\"}}");
    run.inject_us.reserve(live.jobs.len());
    for batch in live.jobs.chunks(live.batch) {
        for job in batch {
            let inject = format!(
                "{{\"op\":\"inject\",\"session\":\"{id}\",\"job\":[{},{}]}}",
                job[0], job[1]
            );
            let t = Instant::now();
            let reply_ok = ok(wire.call(&inject)?);
            run.inject_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.rejected += u64::from(!reply_ok);
        }
        let t = Instant::now();
        let reply_ok = ok(wire.call(&advance)?);
        run.advance_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.rejected += u64::from(!reply_ok);
        run.rejected += u64::from(!ok(wire.call(&query)?));
    }
    let t = Instant::now();
    let header = wire.call(&format!("{{\"op\":\"trace\",\"session\":\"{id}\"}}"))?;
    run.rejected += u64::from(!ok(header));
    run.trace_lines = field(header, "lines").unwrap_or(0);
    for _ in 0..run.trace_lines {
        wire.read_line()?;
    }
    run.trace_s = t.elapsed().as_secs_f64();
    let close = wire.call(&close_request(id))?;
    run.wall_s = start.elapsed().as_secs_f64();
    run.rejected += u64::from(!ok(close));
    run.served = field(close, "served").unwrap_or(0);
    run.unserved = field(close, "unserved").unwrap_or(0);
    run.max_energy = field(close, "max_energy").unwrap_or(0);
    run.events = field(close, "events").unwrap_or(0);
    for i in 0..OPEN_PROBES {
        let probe = format!("{id}.probe{i}");
        let t = Instant::now();
        let reply_ok = ok(wire.call(&open_request(live, &probe))?);
        run.open_s.push(t.elapsed().as_secs_f64());
        run.rejected += u64::from(!reply_ok);
        run.rejected += u64::from(!ok(wire.call(&close_request(&probe))?));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_flat_integers() {
        let reply = "{\"ok\":true,\"op\":\"close\",\"served\":40,\"unserved\":0,\"events\":123}";
        assert!(ok(reply));
        assert_eq!(field(reply, "served"), Some(40));
        assert_eq!(field(reply, "unserved"), Some(0));
        assert_eq!(field(reply, "events"), Some(123));
        assert_eq!(field(reply, "lines"), None);
        assert!(!ok("{\"ok\":false,\"error\":\"x\"}"));
    }
}

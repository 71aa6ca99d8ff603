#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cmvrp serve`: a hermetic multi-tenant simulation service.
//!
//! A [`Server`] listens on a `std::net::TcpListener` and hosts engine
//! [`Session`]s behind a line-delimited JSON protocol: each request is one
//! flat JSON object on one line of at most 64 KiB, each response is one
//! JSON line (plus, for `trace`, a counted block of raw event lines). One
//! connection owns its sessions — they are created, stepped, and closed
//! by that client alone, and dropped when the connection ends — so the
//! per-session determinism guarantee of the step API carries over to the
//! wire verbatim: a session fed the same opens, injects, and advances
//! produces the same trace bytes, no matter how the batches are split.
//!
//! ## Wire grammar
//!
//! ```text
//! request   := object NL
//! object    := "{" [ pair ("," pair)* ] "}"
//! pair      := string ":" value
//! value     := string | integer | "true" | "false" | array
//! array     := "[" [ integer ("," integer)* ] "]"
//! ```
//!
//! Requests are read by the workspace's one flat-JSON reader,
//! [`cmvrp_obs::json::Object`], which also accepts the string escapes
//! `\" \\ \/ \n \t \r \uXXXX` and rejects a repeated key by name;
//! replies are written with its escaper, [`cmvrp_obs::json::quote`].
//!
//! Operations (`op` selects; every request names its `session` except
//! nothing — `open` creates it, the rest address it):
//!
//! | op | keys | effect |
//! |---|---|---|
//! | `open` | `session`, `workload`, `seed`, `capacity`, `threads`, `check`, `preload` | create a session; `preload:false` provisions for the workload's demand but queues nothing (arrivals come via `inject`) |
//! | `inject` | `session`, `job` | queue one arrival `[x, y]`, applied at the next round barrier |
//! | `advance` | `session`, `until` \| `rounds` | step the session (neither bound drains it to completion) |
//! | `query` | `session` | live counters: clock, rounds, events, served/unserved, backlog, and `trace_bytes`, the bytes the session holds for its trace |
//! | `trace` | `session` | the canonical merged trace so far, as raw event JSONL lines after a `lines`-counted header |
//! | `close` | `session` | finish the session and report the final accounting |
//!
//! Responses are `{"ok":true,"op":...,...}` on success and
//! `{"ok":false,"error":...}` on rejection; rejections name the offending
//! input and the supported alternatives, like the CLI does. A request line
//! longer than 64 KiB is rejected the same way: the server reads no more
//! than the limit, discards the rest of the line, and keeps serving the
//! connection.
//!
//! ## What a session holds
//!
//! A session keeps its trace as the CMVB frames a [`BinSink`] writes into
//! a `Vec<u8>` — about 10 bytes per event on the clustered workloads,
//! against 80 for a decoded [`cmvrp_obs::Event`] — and `query` reports
//! that size as `trace_bytes`. Every reply is written straight into the
//! connection's buffered writer: `trace` decodes one frame at a time with
//! a [`BinReader`] and renders each line into one reused buffer, so
//! fetching a trace costs no more memory than holding it. The `lines`
//! header is the sink's count of written frames. A frame the server wrote
//! itself cannot fail to decode; if one did, the connection would end
//! rather than carry a body shorter than its header.

use cmvrp_engine::{ExecConfig, Session};
use cmvrp_grid::pt2;
use cmvrp_obs::json::{quote, Object};
use cmvrp_obs::{BinReader, BinSink, FrameError};
use cmvrp_online::OnlineConfig;
use cmvrp_scenario::Scenario;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// The longest request line the server reads, its newline excluded.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How a [`Server`] listens.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` picks a free port —
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Sessions one connection may hold open at once.
    pub max_sessions: usize,
    /// Connections to serve before shutting down; 0 serves forever.
    pub connections: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".into(),
            max_sessions: 16,
            connections: 0,
        }
    }
}

/// What a finished [`Server::run`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections served.
    pub connections: u64,
    /// Sessions opened across all connections.
    pub sessions: u64,
    /// Requests handled across all connections.
    pub requests: u64,
}

/// A bound listener; [`run`](Server::run) serves it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured address.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
    }

    /// The actually-bound address (resolves a `:0` port request).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections — each on its own thread — until the configured
    /// connection count is reached (forever when it is 0), then joins the
    /// handlers and returns the aggregate stats.
    ///
    /// # Errors
    ///
    /// Propagates accept failures; per-connection I/O errors only end
    /// that connection.
    pub fn run(self) -> std::io::Result<ServeStats> {
        let max_sessions = self.config.max_sessions;
        let budget = self.config.connections;
        let mut stats = ServeStats::default();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for conn in self.listener.incoming() {
                let stream = conn?;
                handles.push(scope.spawn(move || handle_connection(stream, max_sessions)));
                stats.connections += 1;
                if budget > 0 && stats.connections >= budget {
                    break;
                }
            }
            for handle in handles {
                if let Ok(conn) = handle.join().expect("connection handler panicked") {
                    stats.sessions += conn.sessions;
                    stats.requests += conn.requests;
                }
            }
            Ok(stats)
        })
    }
}

/// Per-connection counters folded into [`ServeStats`].
#[derive(Debug, Default, Clone, Copy)]
struct ConnStats {
    sessions: u64,
    requests: u64,
}

/// Serves one client: reads request lines, writes response lines, until
/// the peer closes. Sessions die with the connection.
fn handle_connection(stream: TcpStream, max_sessions: usize) -> io::Result<ConnStats> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut conn = Connection::new(max_sessions);
    let mut line = Vec::new();
    loop {
        match read_request(&mut reader, &mut line)? {
            Request::End => return Ok(conn.stats),
            Request::TooLong => {
                conn.stats.requests += 1;
                reject(
                    &mut writer,
                    &format!(
                        "request line exceeds the {} KiB limit ({MAX_REQUEST_BYTES} \
                         bytes); the rest of the line was discarded — send one flat \
                         JSON object per line, under the limit",
                        MAX_REQUEST_BYTES / 1024
                    ),
                )?;
            }
            Request::Line => {
                let line = std::str::from_utf8(&line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if line.trim().is_empty() {
                    continue;
                }
                conn.handle(line, &mut writer)?;
            }
        }
        // The protocol is lockstep (one response block per request), so
        // every block must reach the peer before the next request.
        writer.flush()?;
    }
}

/// What [`read_request`] found.
#[derive(Debug, PartialEq, Eq)]
enum Request {
    /// A line within the limit, now in the buffer.
    Line,
    /// A line over [`MAX_REQUEST_BYTES`], read to its end and discarded.
    TooLong,
    /// The peer closed the connection.
    End,
}

/// Reads one request line into `line`, without its `\n` or `\r\n`, as
/// `BufRead::lines` would, but never holds more than
/// [`MAX_REQUEST_BYTES`]: past the limit it skips to the line's end and
/// drops it. A last line without a newline still counts.
fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Request> {
    line.clear();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(Request::End);
    }
    if line.pop_if(|b| *b == b'\n').is_some() {
        line.pop_if(|b| *b == b'\r');
    } else if line.len() > MAX_REQUEST_BYTES {
        reader.skip_until(b'\n')?;
        line.clear();
        return Ok(Request::TooLong);
    }
    Ok(Request::Line)
}

/// One client's protocol state: its open sessions and counters. Public
/// only through [`Server`] and the tests; the socket layer is a thin
/// line pump around [`handle`](Connection::handle).
struct Connection {
    max_sessions: usize,
    tenants: HashMap<String, Tenant>,
    stats: ConnStats,
}

/// An open session plus the trace it has streamed so far, as CMVB bytes.
struct Tenant {
    session: Session<2>,
    sink: BinSink<Vec<u8>>,
}

/// Why a request got no `{"ok":true,...}` reply.
enum Failure {
    /// The request is wrong; the reply is `{"ok":false,"error":...}`.
    Rejected(String),
    /// The reply could not be written, or the session's own trace did not
    /// decode; the connection ends.
    Broken(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Rejected(msg)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Broken(e)
    }
}

/// A session's trace frame that did not decode: the server wrote it, so
/// this is a fault of the server, never of the request.
fn corrupt_trace(e: FrameError) -> Failure {
    Failure::Broken(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("session trace does not decode: {e}"),
    ))
}

/// Writes a rejection line.
fn reject(out: &mut dyn Write, msg: &str) -> io::Result<()> {
    writeln!(out, "{{\"ok\":false,\"error\":{}}}", quote(msg))
}

const OPS: &str = "open, inject, advance, query, trace, close";

impl Connection {
    fn new(max_sessions: usize) -> Connection {
        Connection {
            max_sessions,
            tenants: HashMap::new(),
            stats: ConnStats::default(),
        }
    }

    /// Handles one request line, writing its response block into `out`:
    /// one JSON line normally, a header plus raw event lines for `trace`,
    /// one `{"ok":false,...}` line on any rejection. Every op checks its
    /// request before it writes, so a rejection never follows a partial
    /// reply.
    ///
    /// # Errors
    ///
    /// A failed write, or a session trace that does not decode; either
    /// ends the connection.
    fn handle(&mut self, line: &str, out: &mut dyn Write) -> io::Result<()> {
        self.stats.requests += 1;
        match self.dispatch(line, out) {
            Ok(()) => Ok(()),
            Err(Failure::Rejected(msg)) => reject(out, &msg),
            Err(Failure::Broken(e)) => Err(e),
        }
    }

    fn dispatch(&mut self, line: &str, out: &mut dyn Write) -> Result<(), Failure> {
        let req = Object::parse(line, "request")?;
        let op = req
            .str("op")?
            .ok_or_else(|| format!("request has no \"op\"; supported ops: {OPS}"))?;
        match op {
            "open" => self.op_open(&req, out),
            "inject" => self.op_inject(&req, out),
            "advance" => self.op_advance(&req, out),
            "query" => self.op_query(&req, out),
            "trace" => self.op_trace(&req, out),
            "close" => self.op_close(&req, out),
            other => Err(format!("unknown op {other:?}; supported ops: {OPS}").into()),
        }
    }

    /// The session a request addresses, or a rejection naming the open
    /// ones.
    fn session_id<'r>(&self, req: &'r Object<'_>) -> Result<&'r str, String> {
        let id = req
            .str("session")?
            .ok_or_else(|| "request has no \"session\" id".to_string())?;
        if self.tenants.contains_key(id) {
            return Ok(id);
        }
        let mut open: Vec<&str> = self.tenants.keys().map(String::as_str).collect();
        open.sort_unstable();
        Err(format!(
            "no open session {id:?}; open sessions: [{}] — create one with \
             {{\"op\":\"open\",\"session\":{id:?},\"workload\":...}}",
            open.join(", ")
        ))
    }

    fn op_open(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = req.str("session")?.ok_or_else(|| {
            "open needs a \"session\" id (any string the client picks)".to_string()
        })?;
        if self.tenants.contains_key(id) {
            return Err(format!(
                "session {id:?} is already open; close it first, or pick \
                 another id"
            )
            .into());
        }
        if self.tenants.len() >= self.max_sessions {
            return Err(format!(
                "this connection already holds {} open session(s), the \
                 server's --max-sessions limit; close one first, or raise \
                 the limit at `cmvrp serve listen`",
                self.tenants.len()
            )
            .into());
        }
        let spec = req.str("workload")?.ok_or_else(|| {
            "open needs a \"workload\" spec, e.g. \"point:grid=11,demand=60\" \
             (shapes: point, line, square, uniform, clusters) or \
             \"@scenario.toml\""
                .to_string()
        })?;
        // The shared scenario parser: inline shape specs and @file
        // scenario references are accepted and rejected exactly as the
        // CLI and the campaign runner do.
        let scenario: Scenario = spec.parse()?;
        if !scenario.faults.is_empty() {
            return Err(format!(
                "scenario {:?} scripts faults (crash_at_rounds); wire \
                 sessions run fault-free — supported alternatives: execute \
                 the script with `cmvrp scenario run`, or drop the [faults] \
                 section",
                scenario.label()
            )
            .into());
        }
        let mut online = OnlineConfig {
            seed: req.i64("seed")?.unwrap_or(1) as u64,
            ..OnlineConfig::default()
        };
        if let Some(w) = req.i64("capacity")? {
            online.capacity_override = Some(w as u64);
        }
        let threads = req.i64("threads")?.unwrap_or(1);
        if threads < 1 {
            return Err("\"threads\" must be at least 1".to_string().into());
        }
        let check = req.bool("check")?.unwrap_or(false);
        let preload = req.bool("preload")?.unwrap_or(true);
        no_extras(
            req,
            "open",
            &[
                "op", "session", "workload", "seed", "capacity", "threads", "check", "preload",
            ],
        )?;
        let exec = ExecConfig::new().threads(threads as usize).check(check);
        let (bounds, _, jobs) = scenario.generate(online.seed).map_err(|e| e.to_string())?;
        let session = if preload {
            exec.build(bounds, &jobs, online)
        } else {
            exec.build_live(bounds, &jobs, online)
        }
        .map_err(|e| e.to_string())?;
        let prov = session.provisioning();
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"open\",\"session\":{},\"capacity\":{},\
             \"cube_side\":{},\"shards\":{},\"queued\":{}}}",
            quote(id),
            prov.capacity,
            prov.side,
            session.shard_count(),
            session.work_remaining(),
        )?;
        self.tenants.insert(
            id.to_string(),
            Tenant {
                session,
                sink: BinSink::new(Vec::new()),
            },
        );
        self.stats.sessions += 1;
        Ok(())
    }

    fn op_inject(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = self.session_id(req)?;
        let job = req
            .arr("job")?
            .ok_or_else(|| "inject needs a \"job\" coordinate array, e.g. [5,5]".to_string())?;
        no_extras(req, "inject", &["op", "session", "job"])?;
        let [x, y] = job[..] else {
            return Err(format!(
                "\"job\" has {} coordinate(s) but sessions run on the \
                 2-dimensional grid; send [x,y]",
                job.len()
            )
            .into());
        };
        let tenant = self.tenants.get_mut(id).expect("session checked above");
        tenant
            .session
            .inject(pt2(x, y))
            .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"inject\",\"session\":{},\"pending\":{}}}",
            quote(id),
            tenant.session.pending_injections(),
        )?;
        Ok(())
    }

    fn op_advance(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = self.session_id(req)?;
        let until = req.i64("until")?;
        let rounds = req.i64("rounds")?;
        no_extras(req, "advance", &["op", "session", "until", "rounds"])?;
        let tenant = self.tenants.get_mut(id).expect("session checked above");
        let step = match (until, rounds) {
            (Some(_), Some(_)) => {
                return Err("advance accepts \"until\":T or \"rounds\":N, not both; \
                     omit both to drain the session to completion"
                    .to_string()
                    .into())
            }
            (Some(t), None) => tenant.session.advance_until(t as u64, &mut tenant.sink),
            (None, Some(n)) => tenant.session.advance_rounds(n as u64, &mut tenant.sink),
            (None, None) => tenant.session.drain(&mut tenant.sink),
        };
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"advance\",\"session\":{},\"rounds\":{},\
             \"events\":{},\"now\":{},\"idle\":{}}}",
            quote(id),
            step.rounds,
            step.events,
            step.now,
            step.idle,
        )?;
        Ok(())
    }

    fn op_query(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = self.session_id(req)?;
        no_extras(req, "query", &["op", "session"])?;
        let tenant = &self.tenants[id];
        let report = tenant.session.report();
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"query\",\"session\":{},\"now\":{},\
             \"rounds\":{},\"events\":{},\"served\":{},\"unserved\":{},\
             \"backlog\":{},\"injected\":{},\"idle\":{},\"trace_bytes\":{}}}",
            quote(id),
            tenant.session.now(),
            tenant.session.rounds(),
            tenant.session.events(),
            report.served,
            report.unserved,
            tenant.session.work_remaining(),
            tenant.session.injected(),
            tenant.session.is_idle(),
            tenant.sink.get_ref().len(),
        )?;
        Ok(())
    }

    /// Streams the trace: the header, then each frame decoded and
    /// rendered into one reused line on its way into `out`.
    fn op_trace(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = self.session_id(req)?;
        no_extras(req, "trace", &["op", "session"])?;
        let sink = &self.tenants[id].sink;
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"trace\",\"session\":{},\"lines\":{}}}",
            quote(id),
            sink.written(),
        )?;
        let mut line = String::with_capacity(128);
        for ev in BinReader::open(sink.get_ref()).map_err(corrupt_trace)? {
            line.clear();
            ev.map_err(corrupt_trace)?.append_json(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    fn op_close(&mut self, req: &Object<'_>, out: &mut dyn Write) -> Result<(), Failure> {
        let id = self.session_id(req)?;
        no_extras(req, "close", &["op", "session"])?;
        let tenant = self.tenants.remove(id).expect("session checked above");
        let events = tenant.session.events();
        let run = tenant.session.finish();
        let check = match &run.check {
            Some(summary) => format!(",\"violations\":{}", summary.violations.len()),
            None => String::new(),
        };
        writeln!(
            out,
            "{{\"ok\":true,\"op\":\"close\",\"session\":{},\"served\":{},\
             \"unserved\":{},\"max_energy\":{},\"events\":{}{}}}",
            quote(id),
            run.report.served,
            run.report.unserved,
            run.report.max_energy_used,
            events,
            check,
        )?;
        Ok(())
    }
}

/// Drives a server from scripted input: the client half of the protocol.
/// Reads request lines from `input`, sends each, and copies the response
/// block to `out` — lockstep, one request in flight, so a script can be
/// piped in without deadlocking on socket buffers. The `lines`-counted
/// body of a `trace` response is copied verbatim.
///
/// # Errors
///
/// Connection and I/O failures, including the server closing early.
pub fn send(addr: &str, input: &mut dyn BufRead, out: &mut dyn Write) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut request = String::new();
    loop {
        request.clear();
        if input.read_line(&mut request)? == 0 {
            return Ok(());
        }
        if request.trim().is_empty() {
            continue;
        }
        writer.write_all(request.trim_end().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let header = read_response_line(&mut reader)?;
        let body_lines = Object::parse(&header, "reply")
            .ok()
            .and_then(|o| o.i64("lines").ok().flatten())
            .unwrap_or(0);
        writeln!(out, "{header}")?;
        for _ in 0..body_lines {
            writeln!(out, "{}", read_response_line(&mut reader)?)?;
        }
    }
}

fn read_response_line(reader: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-response",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// Rejects any key outside `known`, naming the op and its supported keys.
fn no_extras(req: &Object<'_>, op: &str, known: &[&str]) -> Result<(), String> {
    match req.unknown_key(known) {
        None => Ok(()),
        Some(k) => Err(format!(
            "unknown key {k:?} for op {op:?}; supported keys: {}",
            known.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::GridBounds;
    use cmvrp_obs::VecSink;
    use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

    /// The response block `conn` writes for `line`, split into lines.
    fn block(conn: &mut Connection, line: &str) -> Vec<String> {
        let mut out = Vec::new();
        conn.handle(line, &mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.ends_with('\n'), "{text:?}");
        text.lines().map(str::to_string).collect()
    }

    fn one(conn: &mut Connection, line: &str) -> String {
        let lines = block(conn, line);
        assert_eq!(lines.len(), 1, "{lines:?}");
        lines.into_iter().next().expect("one line")
    }

    #[test]
    fn open_step_query_close_round_trip() {
        let mut conn = Connection::new(4);
        let resp = one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"a\",\
             \"workload\":\"point:grid=11,demand=30\",\"threads\":2}",
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"capacity\":"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"advance\",\"session\":\"a\",\"rounds\":3}",
        );
        assert!(resp.contains("\"rounds\":3"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"query\",\"session\":\"a\"}");
        assert!(resp.contains("\"rounds\":3"), "{resp}");
        assert!(resp.contains("\"trace_bytes\":"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"advance\",\"session\":\"a\"}");
        assert!(resp.contains("\"idle\":true"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"close\",\"session\":\"a\"}");
        assert!(resp.contains("\"served\":30,\"unserved\":0"), "{resp}");
        // Closed means gone.
        let resp = one(&mut conn, "{\"op\":\"query\",\"session\":\"a\"}");
        assert!(resp.contains("no open session"), "{resp}");
    }

    #[test]
    fn live_session_trace_matches_preloaded_run() {
        // Inject the point workload's jobs over the protocol and compare
        // the wire trace to a one-shot execute over the same schedule.
        let mut conn = Connection::new(4);
        let resp = one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"live\",\
             \"workload\":\"point:grid=11,demand=20\",\"threads\":2,\
             \"preload\":false}",
        );
        assert!(resp.contains("\"queued\":0"), "{resp}");
        for _ in 0..20 {
            let resp = one(
                &mut conn,
                "{\"op\":\"inject\",\"session\":\"live\",\"job\":[5,5]}",
            );
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
        let resp = one(&mut conn, "{\"op\":\"advance\",\"session\":\"live\"}");
        assert!(resp.contains("\"idle\":true"), "{resp}");
        let lines = block(&mut conn, "{\"op\":\"trace\",\"session\":\"live\"}");
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);

        let workload: WorkloadConfig = "point:grid=11,demand=20".parse().unwrap();
        let (bounds, demand) = workload.generate().unwrap();
        let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 1);
        let mut sink = VecSink::new();
        ExecConfig::new()
            .threads(2)
            .execute(bounds, &jobs, OnlineConfig::default(), &mut sink)
            .unwrap();
        let reference: Vec<String> = sink.events().iter().map(|ev| ev.to_json()).collect();
        assert_eq!(&lines[1..], &reference[..]);
    }

    #[test]
    fn open_accepts_scenario_files_and_rejects_fault_scripts() {
        // The wire `open` op goes through the same Scenario parser as the
        // CLI: `@file` loads a scenario, and a fault script is rejected
        // with the alternative named.
        let dir = std::env::temp_dir();
        let ok = dir.join("cmvrp_serve_open.toml");
        std::fs::write(
            &ok,
            "[substrate]\nside = 11\n[demand]\nshape = point\ndemand = 30\n",
        )
        .unwrap();
        let mut conn = Connection::new(4);
        let resp = one(
            &mut conn,
            &format!(
                "{{\"op\":\"open\",\"session\":\"a\",\"workload\":\"@{}\",\"threads\":2}}",
                ok.display()
            ),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"advance\",\"session\":\"a\"}");
        assert!(resp.contains("\"idle\":true"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"close\",\"session\":\"a\"}");
        assert!(resp.contains("\"served\":30,\"unserved\":0"), "{resp}");
        let _ = std::fs::remove_file(&ok);

        let faulty = dir.join("cmvrp_serve_faulty.toml");
        std::fs::write(
            &faulty,
            "[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 5\n\
             [faults]\ncrash_at_rounds = 2\n",
        )
        .unwrap();
        let resp = one(
            &mut conn,
            &format!(
                "{{\"op\":\"open\",\"session\":\"b\",\"workload\":\"@{}\"}}",
                faulty.display()
            ),
        );
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("scripts faults"), "{resp}");
        assert!(resp.contains("cmvrp scenario run"), "{resp}");
        let _ = std::fs::remove_file(&faulty);
    }

    #[test]
    fn rejections_name_the_alternatives() {
        let mut conn = Connection::new(1);
        let resp = one(&mut conn, "{\"op\":\"mutate\"}");
        assert!(resp.contains("supported ops"), "{resp}");
        let resp = one(&mut conn, "not json");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        let resp = one(&mut conn, "{\"op\":\"query\",\"session\":\"ghost\"}");
        assert!(
            resp.contains("no open session") && resp.contains("ghost"),
            "{resp}"
        );
        let resp = one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"a\",\"workload\":\"blob:x=1\"}",
        );
        assert!(resp.contains("supported shapes"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"a\",\
             \"workload\":\"point:grid=9,demand=5\",\"schedule\":\"steal\"}",
        );
        assert!(resp.contains(r#"unknown key \"schedule\""#), "{resp}");
        let open = "{\"op\":\"open\",\"session\":\"a\",\
                    \"workload\":\"point:grid=9,demand=5\",\"threads\":1}";
        assert!(one(&mut conn, open).contains("\"ok\":true"));
        let resp = one(&mut conn, open);
        assert!(resp.contains("already open"), "{resp}");
        // max_sessions = 1: a second id is refused by the limit.
        let resp = one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"b\",\
             \"workload\":\"point:grid=9,demand=5\"}",
        );
        assert!(resp.contains("--max-sessions"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"advance\",\"session\":\"a\",\"until\":4,\"rounds\":2}",
        );
        assert!(resp.contains("not both"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"advance\",\"session\":\"a\",\"epoch\":4}",
        );
        assert!(resp.contains("supported keys"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"query\",\"session\":\"a\",\"session\":\"b\"}",
        );
        assert!(resp.contains(r#"duplicate key \"session\""#), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"inject\",\"session\":\"a\",\"job\":[1,2,3]}",
        );
        assert!(resp.contains("2-dimensional"), "{resp}");
        let resp = one(
            &mut conn,
            "{\"op\":\"inject\",\"session\":\"a\",\"job\":[99,99]}",
        );
        assert!(resp.contains("outside the session's grid bounds"), "{resp}");
    }

    #[test]
    fn injected_job_lands_in_bounds_check() {
        let b = GridBounds::<2>::square(11);
        assert!(b.contains(pt2(5, 5)));
        assert!(!b.contains(pt2(99, 99)));
    }

    #[test]
    fn server_round_trips_over_a_socket() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 2,
            connections: 1,
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let script = "{\"op\":\"open\",\"session\":\"s\",\
                      \"workload\":\"point:grid=9,demand=10\",\"threads\":2}\n\
                      {\"op\":\"advance\",\"session\":\"s\"}\n\
                      {\"op\":\"trace\",\"session\":\"s\"}\n\
                      {\"op\":\"close\",\"session\":\"s\"}\n";
        let mut out = Vec::new();
        send(&addr, &mut script.as_bytes(), &mut out).expect("client");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"op\":\"open\""), "{text}");
        assert!(text.contains("\"ev\":\"fleet_provisioned\""), "{text}");
        assert!(text.contains("\"served\":10"), "{text}");
        let stats = handle.join().expect("join");
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.requests, 4);
    }

    #[test]
    fn an_over_long_request_line_is_refused_and_the_connection_goes_on() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 1,
            connections: 1,
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        // A 1 MiB line between an open and a query of the same session.
        let script = format!(
            "{{\"op\":\"open\",\"session\":\"s\",\"workload\":\"point:grid=5,demand=3\"}}\n\
             {{\"op\":\"query\",\"session\":\"{}\"}}\n\
             {{\"op\":\"query\",\"session\":\"s\"}}\n",
            "x".repeat(1 << 20)
        );
        let mut out = Vec::new();
        send(&addr, &mut script.as_bytes(), &mut out).expect("client");
        let text = String::from_utf8(out).expect("utf8");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 3, "{text}");
        assert!(replies[0].starts_with("{\"ok\":true,\"op\":\"open\""));
        assert!(
            replies[1].starts_with("{\"ok\":false,\"error\":")
                && replies[1].contains("64 KiB limit (65536 bytes)"),
            "{}",
            replies[1]
        );
        assert!(
            replies[2].starts_with("{\"ok\":true,\"op\":\"query\",\"session\":\"s\""),
            "{}",
            replies[2]
        );
        let stats = handle.join().expect("join");
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn request_lines_end_at_the_newline_and_stop_at_the_limit() {
        let at_limit = "a".repeat(MAX_REQUEST_BYTES);
        let over = "b".repeat(MAX_REQUEST_BYTES + 1);
        let huge = "c".repeat(1 << 20);
        let input = format!("{at_limit}\n{over}\r\n{huge}\nx\r\n\ny\r");
        // A 7-byte buffer splits every line across several reads.
        let mut reader = BufReader::with_capacity(7, input.as_bytes());
        let mut line = Vec::new();
        let mut seen = Vec::new();
        loop {
            let request = read_request(&mut reader, &mut line).unwrap();
            if request == Request::End {
                break;
            }
            seen.push((request, String::from_utf8(line.clone()).unwrap()));
        }
        assert_eq!(
            seen,
            [
                (Request::Line, at_limit),
                (Request::TooLong, String::new()),
                (Request::TooLong, String::new()),
                (Request::Line, "x".to_string()),
                (Request::Line, String::new()),
                // `BufRead::lines` keeps a `\r` that ends no line.
                (Request::Line, "y\r".to_string()),
            ]
        );
        // The 1 MiB line was never held.
        assert!(
            line.capacity() <= MAX_REQUEST_BYTES * 2,
            "{}",
            line.capacity()
        );
    }

    #[test]
    fn a_session_trace_that_does_not_decode_ends_the_connection() {
        let mut conn = Connection::new(1);
        one(
            &mut conn,
            "{\"op\":\"open\",\"session\":\"s\",\"workload\":\"point:grid=5,demand=3\"}",
        );
        // A frame whose message-kind byte is out of range (the header the
        // sink writes after these bytes is read as the frame's tail).
        let tenant = conn.tenants.get_mut("s").unwrap();
        tenant.sink = BinSink::new(b"CMVB\x01\x05\x01".to_vec());
        let mut out = Vec::new();
        let err = conn
            .handle("{\"op\":\"trace\",\"session\":\"s\"}", &mut out)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame 1"), "{err}");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"ok\":true,\"op\":\"trace\",\"session\":\"s\",\"lines\":0}\n"
        );
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        // Requests go through the shared flat-JSON reader: escapes decode,
        // and malformed requests come back as one rejection line each.
        let mut conn = Connection::new(1);
        let resp = one(
            &mut conn,
            " { \"op\" : \"query\" , \"session\" : \"a\\u0022b\" } ",
        );
        assert!(resp.contains(r#"no open session \"a\\\"b\""#), "{resp}");
        // Malformed requests get the replies the wire has always given.
        for (bad, error) in [
            (
                "not json",
                "request must be one JSON object per line, starting with '{'",
            ),
            ("{\"x\":1.5}", "object must close with '}'"),
            (
                "{\"x\":1}extra",
                "trailing content after the request object",
            ),
            ("{\"x\" 1}", r#"key \"x\" must be followed by ':'"#),
            ("{\"x\":1,}", r#"expected a '\"'-quoted key"#),
            (
                "{\"op\":\"open\",\"session\":\"c\",\"workload\":\"point:grid=9,demand=5\",\
                 \"seed\":99999999999999999999}",
                r#"\"99999999999999999999\" is not an integer"#,
            ),
        ] {
            let resp = one(&mut conn, bad);
            assert_eq!(
                resp,
                format!("{{\"ok\":false,\"error\":\"{error}\"}}"),
                "{bad}"
            );
        }
        for bad in ["{\"x\":{}}", "[1,2]", ""] {
            let resp = one(&mut conn, bad);
            assert!(
                resp.starts_with("{\"ok\":false,\"error\":"),
                "{bad}: {resp}"
            );
        }
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    /// Valid requests, deterministic byte flips of them, and plain garbage:
    /// every line gets a reply block, `{"ok":false,...}` on rejection, and
    /// the connection never panics.
    #[test]
    fn random_requests_never_panic() {
        const REQUESTS: &[&str] = &[
            "{\"op\":\"open\",\"session\":\"s\",\"workload\":\"point:grid=5,demand=3\"}",
            "{\"op\":\"inject\",\"session\":\"s\",\"job\":[2,2]}",
            "{\"op\":\"advance\",\"session\":\"s\",\"rounds\":2}",
            "{\"op\":\"query\",\"session\":\"s\"}",
            "{\"op\":\"trace\",\"session\":\"s\"}",
            "{\"op\":\"close\",\"session\":\"s\"}",
        ];
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut conn = Connection::new(2);
        let mut accepted = 0;
        for round in 0..1500 {
            // Clean requests keep a live session around for the mutants.
            let mut bytes = REQUESTS[round / 3 % REQUESTS.len()].as_bytes().to_vec();
            if round % 3 == 1 {
                for _ in 0..=(rng() % 3) {
                    let i = (rng() % bytes.len() as u64) as usize;
                    bytes[i] ^= (rng() % 255 + 1) as u8;
                }
            } else if round % 3 == 2 {
                bytes = (0..rng() % 64).map(|_| (rng() & 0xff) as u8).collect();
            }
            let line = String::from_utf8_lossy(&bytes);
            let reply = block(&mut conn, &line);
            assert!(!reply.is_empty(), "{line}");
            assert!(reply[0].starts_with("{\"ok\":"), "{line}: {}", reply[0]);
            accepted += usize::from(reply[0].starts_with("{\"ok\":true"));
            // One line per reply, plus a `trace` body of exactly `lines`.
            let body = Object::parse(&reply[0], "reply")
                .ok()
                .and_then(|o| o.i64("lines").ok().flatten())
                .unwrap_or(0);
            assert_eq!(reply.len(), 1 + body as usize, "{line}: {reply:?}");
        }
        assert!(accepted > 400, "only {accepted} requests were served");
    }
}

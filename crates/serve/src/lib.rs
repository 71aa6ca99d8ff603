#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cmvrp serve`: a hermetic multi-tenant simulation service.
//!
//! A [`Server`] listens on a `std::net::TcpListener` and hosts engine
//! [`Session`]s behind a line-delimited JSON protocol: each
//! request is one flat JSON object on one line, each response is one JSON
//! line (plus, for `trace`, a counted block of raw event lines). One
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
//! | `query` | `session` | live counters: clock, rounds, events, served/unserved, backlog |
//! | `trace` | `session` | the canonical merged trace so far, as raw event JSONL lines after a `lines`-counted header |
//! | `close` | `session` | finish the session and report the final accounting |
//!
//! Responses are `{"ok":true,"op":...,...}` on success and
//! `{"ok":false,"error":...}` on rejection; rejections name the offending
//! input and the supported alternatives, like the CLI does.

use cmvrp_engine::{ExecConfig, Session};
use cmvrp_grid::pt2;
use cmvrp_obs::json::{quote, Object};
use cmvrp_obs::VecSink;
use cmvrp_online::OnlineConfig;
use cmvrp_scenario::Scenario;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

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
fn handle_connection(stream: TcpStream, max_sessions: usize) -> std::io::Result<ConnStats> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut conn = Connection::new(max_sessions);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        for out in conn.handle(&line) {
            writer.write_all(out.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        // The protocol is lockstep (one response block per request), so
        // every block must reach the peer before the next request.
        writer.flush()?;
    }
    Ok(conn.stats)
}

/// One client's protocol state: its open sessions and counters. Public
/// only through [`Server`] and the tests; the socket layer is a thin
/// line pump around [`handle`](Connection::handle).
struct Connection {
    max_sessions: usize,
    tenants: HashMap<String, Tenant>,
    stats: ConnStats,
}

/// An open session plus the trace it has streamed so far.
struct Tenant {
    session: Session<2>,
    sink: VecSink,
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

    /// Handles one request line, returning the response block: one JSON
    /// line normally, a header plus raw event lines for `trace`, one
    /// `{"ok":false,...}` line on any rejection.
    fn handle(&mut self, line: &str) -> Vec<String> {
        self.stats.requests += 1;
        match self.dispatch(line) {
            Ok(lines) => lines,
            Err(msg) => vec![format!("{{\"ok\":false,\"error\":{}}}", quote(&msg))],
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<Vec<String>, String> {
        let req = Object::parse(line, "request")?;
        let op = req
            .str("op")?
            .ok_or_else(|| format!("request has no \"op\"; supported ops: {OPS}"))?;
        match op {
            "open" => self.op_open(&req),
            "inject" => self.op_inject(&req),
            "advance" => self.op_advance(&req),
            "query" => self.op_query(&req),
            "trace" => self.op_trace(&req),
            "close" => self.op_close(&req),
            other => Err(format!("unknown op {other:?}; supported ops: {OPS}")),
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

    fn op_open(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
        let id = req.str("session")?.ok_or_else(|| {
            "open needs a \"session\" id (any string the client picks)".to_string()
        })?;
        if self.tenants.contains_key(id) {
            return Err(format!(
                "session {id:?} is already open; close it first, or pick \
                 another id"
            ));
        }
        if self.tenants.len() >= self.max_sessions {
            return Err(format!(
                "this connection already holds {} open session(s), the \
                 server's --max-sessions limit; close one first, or raise \
                 the limit at `cmvrp serve listen`",
                self.tenants.len()
            ));
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
            ));
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
            return Err("\"threads\" must be at least 1".to_string());
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
        let resp = format!(
            "{{\"ok\":true,\"op\":\"open\",\"session\":{},\"capacity\":{},\
             \"cube_side\":{},\"shards\":{},\"queued\":{}}}",
            quote(id),
            prov.capacity,
            prov.side,
            session.shard_count(),
            session.work_remaining(),
        );
        self.tenants.insert(
            id.to_string(),
            Tenant {
                session,
                sink: VecSink::new(),
            },
        );
        self.stats.sessions += 1;
        Ok(vec![resp])
    }

    fn op_inject(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
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
            ));
        };
        let tenant = self.tenants.get_mut(id).expect("session checked above");
        tenant
            .session
            .inject(pt2(x, y))
            .map_err(|e| e.to_string())?;
        Ok(vec![format!(
            "{{\"ok\":true,\"op\":\"inject\",\"session\":{},\"pending\":{}}}",
            quote(id),
            tenant.session.pending_injections(),
        )])
    }

    fn op_advance(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
        let id = self.session_id(req)?;
        let until = req.i64("until")?;
        let rounds = req.i64("rounds")?;
        no_extras(req, "advance", &["op", "session", "until", "rounds"])?;
        let tenant = self.tenants.get_mut(id).expect("session checked above");
        let step = match (until, rounds) {
            (Some(_), Some(_)) => {
                return Err("advance accepts \"until\":T or \"rounds\":N, not both; \
                     omit both to drain the session to completion"
                    .to_string())
            }
            (Some(t), None) => tenant.session.advance_until(t as u64, &mut tenant.sink),
            (None, Some(n)) => tenant.session.advance_rounds(n as u64, &mut tenant.sink),
            (None, None) => tenant.session.drain(&mut tenant.sink),
        };
        Ok(vec![format!(
            "{{\"ok\":true,\"op\":\"advance\",\"session\":{},\"rounds\":{},\
             \"events\":{},\"now\":{},\"idle\":{}}}",
            quote(id),
            step.rounds,
            step.events,
            step.now,
            step.idle,
        )])
    }

    fn op_query(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
        let id = self.session_id(req)?;
        no_extras(req, "query", &["op", "session"])?;
        let tenant = &self.tenants[id];
        let report = tenant.session.report();
        Ok(vec![format!(
            "{{\"ok\":true,\"op\":\"query\",\"session\":{},\"now\":{},\
             \"rounds\":{},\"events\":{},\"served\":{},\"unserved\":{},\
             \"backlog\":{},\"injected\":{},\"idle\":{}}}",
            quote(id),
            tenant.session.now(),
            tenant.session.rounds(),
            tenant.session.events(),
            report.served,
            report.unserved,
            tenant.session.work_remaining(),
            tenant.session.injected(),
            tenant.session.is_idle(),
        )])
    }

    fn op_trace(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
        let id = self.session_id(req)?;
        no_extras(req, "trace", &["op", "session"])?;
        let tenant = &self.tenants[id];
        let mut lines = Vec::with_capacity(tenant.sink.len() + 1);
        lines.push(format!(
            "{{\"ok\":true,\"op\":\"trace\",\"session\":{},\"lines\":{}}}",
            quote(id),
            tenant.sink.len(),
        ));
        lines.extend(tenant.sink.events().iter().map(|ev| ev.to_json()));
        Ok(lines)
    }

    fn op_close(&mut self, req: &Object<'_>) -> Result<Vec<String>, String> {
        let id = self.session_id(req)?;
        no_extras(req, "close", &["op", "session"])?;
        let tenant = self.tenants.remove(id).expect("session checked above");
        let events = tenant.session.events();
        let run = tenant.session.finish();
        let check = match &run.check {
            Some(summary) => format!(",\"violations\":{}", summary.violations.len()),
            None => String::new(),
        };
        Ok(vec![format!(
            "{{\"ok\":true,\"op\":\"close\",\"session\":{},\"served\":{},\
             \"unserved\":{},\"max_energy\":{},\"events\":{}{}}}",
            quote(id),
            run.report.served,
            run.report.unserved,
            run.report.max_energy_used,
            events,
            check,
        )])
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
    use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

    fn one(conn: &mut Connection, line: &str) -> String {
        let lines = conn.handle(line);
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
        let lines = conn.handle("{\"op\":\"trace\",\"session\":\"live\"}");
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
            let reply = conn.handle(&line);
            assert!(!reply.is_empty(), "{line}");
            assert!(reply[0].starts_with("{\"ok\":"), "{line}: {}", reply[0]);
            accepted += usize::from(reply[0].starts_with("{\"ok\":true"));
            for out in &reply {
                assert!(!out.contains('\n'), "{line}: {out}");
            }
        }
        assert!(accepted > 400, "only {accepted} requests were served");
    }
}

//! The serve trace oracle over a real socket: one client drives a live
//! session (every job injected over the wire, checked inline, two workers)
//! and a preloaded one, fetches each trace mid-session and at the end,
//! and every line must equal `Event::to_json` of a one-shot run over the
//! same effective schedule. A session holds its trace as CMVB bytes, so
//! `query` reports at most 16 bytes per event.

use cmvrp::obs::json::Object;
use cmvrp::obs::{Event, VecSink};
use cmvrp::online::OnlineConfig;
use cmvrp::serve::{ServeConfig, Server};
use cmvrp::{ExecConfig, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A clustered workload whose demand outgrows some batteries, so the
/// trace carries replacement cycles and their diffusing computations.
const WORKLOAD: &str = "clusters:grid=12,k=2,jobs=400,seed=7";
const SEED: u64 = 5;

/// One lockstep connection: a request goes out only after the previous
/// reply came back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "the server closed the connection mid-reply");
        assert!(line.ends_with('\n'), "{line:?}");
        line.pop();
        line
    }

    /// Sends `request` and returns its one-line reply, which must be ok.
    fn call(&mut self, request: &str) -> String {
        // One write per request: a line split over several small writes
        // would wait on delayed acknowledgements.
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let reply = self.read_line();
        assert!(reply.starts_with("{\"ok\":true"), "{request}: {reply}");
        reply
    }

    /// Fetches a session's trace: the header's `lines`, then the body.
    fn trace(&mut self, session: &str) -> Vec<String> {
        let header = self.call(&format!("{{\"op\":\"trace\",\"session\":\"{session}\"}}"));
        let lines = field(&header, "lines");
        (0..lines).map(|_| self.read_line()).collect()
    }
}

/// The unsigned integer `key` of a reply.
fn field(reply: &str, key: &str) -> u64 {
    Object::parse(reply, "reply")
        .expect("a reply is one JSON object")
        .u64(key)
        .expect("an unsigned integer")
        .unwrap_or_else(|| panic!("no {key:?} in {reply}"))
}

#[test]
fn wire_traces_equal_the_one_shot_run_mid_session_and_at_the_end() {
    let scenario: Scenario = WORKLOAD.parse().expect("workload spec");
    let (bounds, _, jobs) = scenario.generate(SEED).expect("workload fits its grid");
    let online = OnlineConfig {
        seed: SEED,
        ..OnlineConfig::default()
    };
    // Every job is injected before the first advance, so the live
    // session's effective schedule is the preloaded one: `jobs`, in order.
    let mut one_shot = VecSink::new();
    ExecConfig::new()
        .execute(bounds, &jobs, online, &mut one_shot)
        .expect("one-shot run");
    let reference: Vec<String> = one_shot.events().iter().map(Event::to_json).collect();
    let replacements = reference
        .iter()
        .filter(|l| l.starts_with("{\"ev\":\"replacement_cycle\""))
        .count();
    assert!(replacements >= 2, "{replacements} replacement cycles");

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 2,
        connections: 1,
    })
    .expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let stream = TcpStream::connect(addr).expect("connect");
    // A body shorter than its `lines` header fails the read instead of
    // waiting forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().expect("clone socket")),
        writer: stream,
    };

    let open = |id: &str, extra: &str| {
        format!(
            "{{\"op\":\"open\",\"session\":\"{id}\",\"workload\":\"{WORKLOAD}\",\
             \"seed\":{SEED},\"threads\":2{extra}}}"
        )
    };
    let live = client.call(&open("live", ",\"check\":true,\"preload\":false"));
    assert_eq!(field(&live, "queued"), 0, "{live}");
    let pre = client.call(&open("pre", ""));
    assert_eq!(field(&pre, "queued"), jobs.len() as u64, "{pre}");
    for job in jobs.iter() {
        client.call(&format!(
            "{{\"op\":\"inject\",\"session\":\"live\",\"job\":[{},{}]}}",
            job[0], job[1]
        ));
    }

    for id in ["live", "pre"] {
        client.call(&format!(
            "{{\"op\":\"advance\",\"session\":\"{id}\",\"rounds\":40}}"
        ));
        let mid = client.trace(id);
        assert!(
            !mid.is_empty() && mid.len() < reference.len(),
            "{id}: {} of {} events mid-session",
            mid.len(),
            reference.len()
        );
        for (i, line) in mid.iter().enumerate() {
            assert_eq!(line, &reference[i], "{id}: mid-session line {}", i + 1);
        }
        let query = client.call(&format!("{{\"op\":\"query\",\"session\":\"{id}\"}}"));
        assert_eq!(field(&query, "events"), mid.len() as u64, "{query}");
    }

    for id in ["live", "pre"] {
        let drained = client.call(&format!("{{\"op\":\"advance\",\"session\":\"{id}\"}}"));
        assert!(drained.contains("\"idle\":true"), "{drained}");
        let query = client.call(&format!("{{\"op\":\"query\",\"session\":\"{id}\"}}"));
        let (bytes, events) = (field(&query, "trace_bytes"), field(&query, "events"));
        assert!(
            bytes <= 16 * events,
            "{id}: {bytes} trace bytes for {events} events"
        );
        let last = client.trace(id);
        for (i, (line, want)) in last.iter().zip(&reference).enumerate() {
            assert_eq!(line, want, "{id}: line {}", i + 1);
        }
        assert_eq!(last.len(), reference.len(), "{id}: event count");
        let close = client.call(&format!("{{\"op\":\"close\",\"session\":\"{id}\"}}"));
        assert_eq!(field(&close, "events"), last.len() as u64, "{close}");
        assert_eq!(field(&close, "unserved"), 0, "{close}");
        if id == "live" {
            assert_eq!(field(&close, "violations"), 0, "{close}");
        }
    }

    drop(client);
    let stats = handle.join().expect("server thread");
    assert_eq!((stats.connections, stats.sessions), (1, 2));
}

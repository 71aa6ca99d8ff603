//! The trace reader is blind to encoding and spelling: a JSONL trace and
//! its CMVB encoding read as the same numbered events, and the offline
//! checker, the replay summary and the differ agree on them — on the
//! committed golden trace, on a fresh profiled and monitored 3-worker run,
//! and on a copy of the golden trace spelled with other whitespace and an
//! unknown key, which `trace diff` must call identical.

use cmvrp::obs::{
    check_trace, diff_traces, load_trace_bytes, replay, BinSink, Event, JsonlSink, LoadedTrace,
    Sink, TraceEncoding,
};
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::{arrivals, spatial, Ordering};
use cmvrp::ExecConfig;
use cmvrp_grid::GridBounds;

const GOLDEN: &str = include_str!("data/golden_point.jsonl");

fn load(bytes: &[u8]) -> LoadedTrace {
    load_trace_bytes(bytes).expect("trace loads")
}

/// Every event of `trace` with its line or frame number.
fn events(trace: &LoadedTrace) -> Vec<(usize, Event)> {
    trace
        .events()
        .collect::<Result<_, _>>()
        .expect("trace parses")
}

/// `trace`'s events recorded into `sink`, loaded back from its bytes.
fn recorded<S: Sink>(trace: &LoadedTrace, mut sink: S, bytes: fn(S) -> Vec<u8>) -> LoadedTrace {
    for (_, ev) in events(trace) {
        sink.record(&ev);
    }
    load(&bytes(sink))
}

fn cmvb_of(trace: &LoadedTrace) -> LoadedTrace {
    recorded(trace, BinSink::new(Vec::new()), |s| {
        s.into_writer().unwrap()
    })
}

fn jsonl_of(trace: &LoadedTrace) -> LoadedTrace {
    recorded(trace, JsonlSink::new(Vec::new()), |s| {
        s.into_writer().unwrap()
    })
}

/// A JSONL trace and its CMVB encoding read as the same numbered events,
/// check alike, summarize alike and diff identical both ways.
fn assert_encoding_blind(jsonl: &LoadedTrace) {
    let cmvb = cmvb_of(jsonl);
    assert_eq!(jsonl.encoding, TraceEncoding::Jsonl);
    assert_eq!(cmvb.encoding, TraceEncoding::Binary);
    assert_eq!(events(jsonl), events(&cmvb));
    assert_eq!(jsonl.events, cmvb.events);
    let check = check_trace(jsonl, None).expect("trace parses");
    assert_eq!(check, check_trace(&cmvb, None).expect("trace parses"));
    let summary = replay::summarize(jsonl.events()).expect("trace parses");
    assert_eq!(summary, replay::summarize(cmvb.events()).unwrap());
    assert_eq!(summary.events as usize, jsonl.events);
    for (a, b) in [(jsonl, &cmvb), (&cmvb, jsonl), (&cmvb, &cmvb)] {
        let report = diff_traces(a, b, 3).expect("traces parse");
        assert!(report.is_identical(), "{:?}", report.divergence);
        assert_eq!(report.matched, jsonl.events);
    }
}

#[test]
fn golden_trace_reads_alike_in_both_encodings() {
    let golden = load(GOLDEN.as_bytes());
    assert_encoding_blind(&golden);
    assert!(check_trace(&golden, None).unwrap().is_clean());
    // The CMVB encoding converts back to the committed bytes.
    let back = jsonl_of(&cmvb_of(&golden));
    assert_eq!(back, golden);
}

#[test]
fn a_failing_check_reads_alike_in_both_encodings() {
    // Drop the first query send: its delivery no longer matches, and the
    // violation's causal chain is rendered from either encoding alike.
    let mut lines: Vec<&str> = GOLDEN.lines().collect();
    let sent = lines
        .iter()
        .position(|l| l.contains("\"ev\":\"msg_sent\""))
        .expect("the golden trace sends messages");
    lines.remove(sent);
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let jsonl = load(text.as_bytes());
    let report = check_trace(&jsonl, None).unwrap();
    assert!(!report.is_clean());
    assert!(report.violations.iter().any(|v| !v.chain.is_empty()));
    assert_eq!(report, check_trace(&cmvb_of(&jsonl), None).unwrap());
}

#[test]
fn profiled_monitored_three_worker_run_reads_alike_in_both_encodings() {
    let bounds = GridBounds::square(12);
    let demand = spatial::point(&bounds, 250);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 3);
    let online = OnlineConfig {
        monitored: true,
        ..OnlineConfig::default()
    };
    let mut sink = JsonlSink::new(Vec::new());
    let run = ExecConfig::new()
        .threads(3)
        .profile(true)
        .check(true)
        .execute(bounds, &jobs, online, &mut sink)
        .expect("engine run");
    assert!(run.check.expect("checked run").is_clean());
    let jsonl = load(&sink.into_writer().expect("flush"));
    let kinds: Vec<&str> = events(&jsonl).iter().map(|(_, ev)| ev.kind()).collect();
    assert!(kinds.contains(&"round_profile"), "a profiled run");
    assert!(kinds.contains(&"msg_delivered"), "a run with messages");
    assert_encoding_blind(&jsonl);
}

#[test]
fn a_respelled_golden_trace_diffs_identical_to_both_encodings() {
    // Spaces after every ':' and ',', and one key no schema version has.
    let respelled: String = GOLDEN
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let line = line.replace(':', ": ").replace(',', ", ");
            match i {
                1 => format!("{}, \"unknown\": [1, 2]}}\n", &line[..line.len() - 1]),
                _ => format!("{line}\n"),
            }
        })
        .collect();
    assert!(respelled.contains("\"seq\": 0, \"pos\": [2, 2], \"unknown\""));
    let respelled = load(respelled.as_bytes());
    let golden = load(GOLDEN.as_bytes());
    assert_eq!(events(&respelled), events(&golden));
    for other in [&golden, &cmvb_of(&golden)] {
        for (a, b) in [(&respelled, other), (other, &respelled)] {
            let report = diff_traces(a, b, 3).expect("traces parse");
            assert!(report.is_identical(), "{:?}", report.divergence);
            assert_eq!(report.matched, golden.events);
        }
    }
}

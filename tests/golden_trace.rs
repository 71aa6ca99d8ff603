//! End-to-end trace analytics over the committed golden trace
//! (`tests/data/golden_point.jsonl`, from `simulate point:grid=6,demand=200
//! --seed=3`; it was written by the dense engine that existed until commit
//! 7c396bb, and today's engine writes the same 502 events with each job at
//! a fresh round epoch, so only the `t` fields differ): the offline checker
//! must accept it through the root crate's re-exports, the replay summary
//! must match its headline numbers, and a fresh checked run of the same
//! workload must produce a trace the offline checker also accepts — online
//! and offline validation agree.

use cmvrp::obs::{check_trace, load_trace_bytes, replay, JsonlSink, LoadedTrace};
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::{arrivals, spatial, Ordering};
use cmvrp::ExecConfig;
use cmvrp_grid::GridBounds;

const GOLDEN: &str = include_str!("data/golden_point.jsonl");

fn golden() -> LoadedTrace {
    load_trace_bytes(GOLDEN.as_bytes()).expect("golden trace loads")
}

#[test]
fn golden_trace_passes_every_monitor() {
    let report = check_trace(&golden(), None).expect("golden trace parses");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.events as usize, GOLDEN.lines().count());
    // Kinds are annotated and the fleet line is present, so no monitor
    // sat idle.
    assert_eq!(report.active, cmvrp::obs::INVARIANTS.to_vec());
}

#[test]
fn golden_trace_replay_matches_headline_numbers() {
    let summary = replay::summarize(golden().events()).expect("golden trace parses");
    assert_eq!(summary.jobs_arrived, 200);
    assert_eq!(summary.jobs_served, 200);
    assert_eq!(summary.jobs_unserved(), 0);
    assert_eq!(summary.replacement_cycles, 1);
    assert_eq!(summary.msgs_lost, 0);
}

#[test]
fn online_check_and_offline_check_agree() {
    // Same workload family as the golden trace: point source on a 6x6
    // grid, demand 200 (forces one replacement search).
    let bounds = GridBounds::square(6);
    let demand = spatial::point(&bounds, 200);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 3);
    let mut jsonl = JsonlSink::new(Vec::new());
    let run = ExecConfig::new()
        .check(true)
        .execute(bounds, &jobs, OnlineConfig::default(), &mut jsonl)
        .expect("engine run");
    assert_eq!(run.report.unserved, 0);
    let online = run.check.expect("checked run");
    assert!(online.is_clean(), "online: {:#?}", online.violations);

    let trace = load_trace_bytes(&jsonl.into_writer().expect("flush")).expect("trace loads");
    let offline = check_trace(&trace, None).expect("trace parses");
    assert!(offline.is_clean(), "offline: {:#?}", offline.violations);
    assert_eq!(offline.events, online.events);
}

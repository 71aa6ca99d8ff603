//! Flight-recorder tests: `ExecConfig::profile` must append well-formed
//! `round_profile` samples to the merged trace without perturbing a single
//! byte of the protocol events.

use cmvrp_engine::ExecConfig;
use cmvrp_obs::{check_lines, Event, JsonlSink, NullSink};
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

fn workload() -> WorkloadConfig {
    WorkloadConfig::Point {
        grid: 12,
        demand: 250,
    }
}

/// Streams a run's merged JSONL trace into memory and returns its lines.
fn traced_lines(exec: ExecConfig) -> Vec<String> {
    let (bounds, demand) = workload().generate().expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let mut sink = JsonlSink::new(Vec::new());
    exec.execute(bounds, &jobs, OnlineConfig::default(), &mut sink)
        .expect("sharded run");
    let text = String::from_utf8(sink.into_writer().expect("flush")).expect("utf8");
    text.lines().map(str::to_owned).collect()
}

#[test]
fn stripping_profile_lines_recovers_the_unprofiled_trace() {
    for threads in [1, 2, 8] {
        let exec = ExecConfig::new().threads(threads);
        let plain = traced_lines(exec);
        let profiled = traced_lines(exec.profile(true));
        assert!(profiled.len() > plain.len(), "{threads} workers");
        let stripped: Vec<String> = profiled
            .iter()
            .filter(|l| !l.contains("\"ev\":\"round_profile\""))
            .cloned()
            .collect();
        assert_eq!(stripped, plain, "{threads} workers");
    }
}

#[test]
fn profile_samples_are_well_formed_and_account_for_every_event() {
    let exec = ExecConfig::new().threads(2);
    let lines = traced_lines(exec.profile(true));
    // The profiled trace satisfies every monitor — including the new
    // `profile` monitor over the samples themselves.
    let report = check_lines(lines.iter().map(String::as_str), None).expect("parse");
    assert!(report.is_clean(), "{:?}", report.violations);

    let mut samples = Vec::new();
    let mut protocol_events = 0u64; // merged events, excluding the header
    for line in &lines {
        match Event::from_json(line).expect("event") {
            Event::RoundProfile {
                round,
                worker,
                workers,
                busy_ns,
                barrier_wait_ns,
                merge_ns,
                sink_ns,
                events,
                steals,
            } => {
                assert_eq!(workers, 2);
                assert_eq!(steals, 0, "shards never move between workers");
                assert!(worker < workers);
                for ns in [busy_ns, barrier_wait_ns, merge_ns, sink_ns] {
                    assert!(ns >= 0, "negative duration in {line}");
                }
                samples.push((round, worker, events));
            }
            Event::FleetProvisioned { .. } => {}
            _ => protocol_events += 1,
        }
    }
    assert!(!samples.is_empty());
    // One sample per worker per round, rounds strictly increasing, and —
    // because every worker's sample repeats the round's merged count —
    // worker 0's samples alone sum to the whole protocol stream.
    let mut last_round = 0u64;
    let mut accounted = 0u64;
    for chunk in samples.chunks(2) {
        let [(round_a, worker_a, events_a), (round_b, worker_b, events_b)] = chunk else {
            panic!("odd sample count: {samples:?}");
        };
        assert_eq!(round_a, round_b);
        assert_eq!((*worker_a, *worker_b), (0, 1));
        assert_eq!(events_a, events_b);
        assert!(*round_a > last_round);
        last_round = *round_a;
        accounted += events_a;
    }
    assert_eq!(accounted, protocol_events);
}

#[test]
fn profiling_with_a_disabled_sink_still_runs() {
    // profile/progress force the streaming path; a NullSink must not
    // short-circuit it back to the non-streaming engine.
    let (bounds, demand) = workload().generate().expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let run = ExecConfig::new()
        .threads(2)
        .profile(true)
        .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
        .expect("profiled run into NullSink");
    assert_eq!(run.report.unserved, 0);
}

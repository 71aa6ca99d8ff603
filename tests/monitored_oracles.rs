//! Oracles for the §3.2.5 monitored mode on the one on-line engine: the
//! merged trace of a `--monitored` run is byte-identical for every worker
//! count, one-shot or stepped, and clean under the inline monitors, a
//! monitored run stopped mid-flight and resumed from its CMVC checkpoint
//! stitches back into the one-shot trace, and the E8 fault scenarios stay
//! within their detection window.

use cmvrp::ckpt::{decode_checkpoint, encode_checkpoint};
use cmvrp::grid::{pt2, DemandMap, GridBounds};
use cmvrp::obs::{check_lines, Event, JsonlSink, NullSink, Sink, VecSink};
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::{arrivals, JobSequence, Ordering, WorkloadConfig};
use cmvrp::{CheckpointPolicy, EngineCheckpoint, ExecConfig, ShardedOnlineSim};

fn monitored() -> OnlineConfig {
    OnlineConfig {
        monitored: true,
        ..OnlineConfig::default()
    }
}

/// Every execution shape the trace must not depend on: worker counts
/// whose shard→worker maps all differ on the 12×12 workloads below (3
/// and 4 shards).
fn shapes() -> Vec<ExecConfig> {
    [1, 2, 3, 8]
        .into_iter()
        .map(|threads| ExecConfig::new().threads(threads))
        .collect()
}

fn workload(cfg: WorkloadConfig) -> (GridBounds<2>, JobSequence<2>) {
    let (bounds, demand) = cfg.generate().expect("workload fits grid");
    (
        bounds,
        arrivals::from_demand(&demand, Ordering::Shuffled, 7),
    )
}

/// A checked monitored run under `exec`; returns the JSONL bytes.
fn checked_trace(exec: ExecConfig, bounds: GridBounds<2>, jobs: &JobSequence<2>) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    let run = exec
        .check(true)
        .execute(bounds, jobs, monitored(), &mut sink)
        .expect("engine run");
    let verdict = run.check.expect("checked run");
    assert!(verdict.is_clean(), "{:?}", verdict.violations);
    assert_eq!(run.report.unserved, 0, "{:?}", run.report);
    sink.into_writer().expect("flush")
}

/// The E8 demand: two hotspots on an 8x8 grid, interleaved arrivals.
fn e8_jobs() -> (GridBounds<2>, JobSequence<2>, u64) {
    let bounds = GridBounds::square(8);
    let mut demand = DemandMap::new();
    demand.add(pt2(3, 3), 200);
    demand.add(pt2(6, 6), 150);
    let jobs = arrivals::from_demand(&demand, Ordering::Interleaved, 1);
    (bounds, jobs, demand.total())
}

/// An E8 simulator with the scenario-2 fault at (3,3)'s responsible
/// vehicle and/or the scenario-3 crash at (6,6)'s.
fn e8_sim<SS: cmvrp::engine::ShardSink>(faulty: bool, crashed: bool) -> ShardedOnlineSim<2, SS> {
    let (bounds, jobs, _) = e8_jobs();
    let mut sim = ShardedOnlineSim::new(bounds, &jobs, monitored());
    if faulty {
        let home = sim.responsible_home(pt2(3, 3));
        sim.set_faulty_at(home);
    }
    if crashed {
        let home = sim.responsible_home(pt2(6, 6));
        sim.crash_vehicle_at(home);
    }
    sim
}

#[test]
fn monitored_trace_is_byte_identical_across_worker_counts() {
    for cfg in [
        WorkloadConfig::Point {
            grid: 12,
            demand: 250,
        },
        WorkloadConfig::Clusters {
            grid: 12,
            clusters: 3,
            jobs: 180,
            seed: 9,
        },
    ] {
        let (bounds, jobs) = workload(cfg.clone());
        let baseline = checked_trace(ExecConfig::new(), bounds, &jobs);
        let text = String::from_utf8(baseline.clone()).expect("utf8");
        assert!(
            text.contains("\"kind\":\"heartbeat\""),
            "{}: the ring must carry heartbeats",
            cfg.label()
        );
        for exec in shapes() {
            let trace = checked_trace(exec, bounds, &jobs);
            assert!(
                trace == baseline,
                "{}: trace differs under {exec:?}",
                cfg.label()
            );
        }
        // A profiled session stepped one round at a time: without its
        // round_profile samples, the same bytes again.
        let mut session = ExecConfig::new()
            .threads(2)
            .profile(true)
            .check(true)
            .build(bounds, &jobs, monitored())
            .expect("session");
        let mut events = VecSink::new();
        while !session.is_idle() {
            session.advance_rounds(1, &mut events);
        }
        let verdict = session.finish().check.expect("checked session");
        assert!(verdict.is_clean(), "{:?}", verdict.violations);
        let mut stepped = JsonlSink::new(Vec::new());
        for ev in events.drain() {
            if !matches!(ev, Event::RoundProfile { .. }) {
                stepped.record(&ev);
            }
        }
        let stepped = stepped.into_writer().expect("flush");
        assert!(
            stepped == baseline,
            "{}: stepped session differs",
            cfg.label()
        );
    }
}

#[test]
fn monitored_fault_trace_is_byte_identical_across_worker_counts() {
    let mut baseline: Option<Vec<u8>> = None;
    for exec in shapes() {
        let mut sim = e8_sim::<VecSink>(true, true);
        let mut sink = JsonlSink::new(Vec::new());
        let report = sim.run(&exec, &mut sink);
        assert!(report.heartbeat_misses > 0, "{report:?}");
        let trace = sink.into_writer().expect("flush");
        match &baseline {
            None => {
                let text = String::from_utf8(trace.clone()).expect("utf8");
                let offline = check_lines(text.lines(), None).expect("trace parses");
                assert!(offline.is_clean(), "{:?}", offline.violations);
                assert!(text.contains("\"ev\":\"heartbeat_missed\""));
                assert!(text.contains("\"ev\":\"process_crashed\""));
                baseline = Some(trace);
            }
            Some(base) => assert!(trace == *base, "trace differs under {exec:?}"),
        }
    }
}

#[test]
fn monitored_run_resumed_from_round_k_stitches_into_the_one_shot_trace() {
    // Several shards with one replacement (by round 60), and one hot cube
    // whose pair is handed on twice (by round 200), so resumed vehicles
    // include replaced ones that still heartbeat to a stale watcher.
    let cases = [
        (
            WorkloadConfig::Clusters {
                grid: 12,
                clusters: 3,
                jobs: 180,
                seed: 9,
            },
            vec![1, 9, 60],
        ),
        (
            WorkloadConfig::Point {
                grid: 12,
                demand: 250,
            },
            vec![200],
        ),
    ];
    let exec = ExecConfig::new().threads(3);
    // A snapshot at every round barrier: the resumed runs must reproduce
    // every later one, ring state included, as well as the trace.
    let every_round = CheckpointPolicy {
        every: Some(1),
        stop_at: None,
    };
    for (cfg, rounds) in cases {
        let (bounds, jobs) = workload(cfg.clone());
        let run = |exec: ExecConfig, resume: Option<&EngineCheckpoint>| {
            let mut sink = JsonlSink::new(Vec::new());
            let mut saved = Vec::new();
            exec.execute_with_checkpoints(
                bounds,
                &jobs,
                monitored(),
                &mut sink,
                resume,
                &mut |c| saved.push(c),
            )
            .expect("engine run");
            (sink.into_writer().expect("flush"), saved)
        };
        let (full, snapshots) = run(exec.checkpoint(every_round), None);
        for k in rounds {
            let label = format!("{} round {k}", cfg.label());
            let stop = CheckpointPolicy {
                every: None,
                stop_at: Some(k),
            };
            let (head, mut saved) = run(exec.checkpoint(stop), None);
            let ckpt = saved.pop().expect("checkpoint at the stop round");
            assert_eq!(ckpt.rounds_completed, k);
            let ringed = ckpt.shards.iter().flat_map(|s| &s.vehicles);
            assert!(
                ringed.filter(|v| v.ticks > 0).count() > 0,
                "{label}: the checkpoint must carry the ring's clocks"
            );
            // Through the CMVC bytes, as `--checkpoint`/`--resume-from` do.
            let ckpt = decode_checkpoint(&encode_checkpoint(&ckpt)).expect("CMVC roundtrip");
            let (tail, later) = run(ExecConfig::new().checkpoint(every_round), Some(&ckpt));
            let mut stitched = head;
            stitched.extend(tail);
            assert!(stitched == full, "{label}: stitched trace differs");
            assert!(!later.is_empty());
            for snap in &later {
                let original = &snapshots[snap.rounds_completed as usize - 1];
                assert_eq!(original.rounds_completed, snap.rounds_completed);
                assert!(
                    snap.shards == original.shards,
                    "{label}: state at round {} differs after resume",
                    snap.rounds_completed
                );
            }
        }
    }
}

#[test]
fn e8_faults_leave_at_most_four_unserved() {
    let (_, _, total) = e8_jobs();
    for (faulty, crashed) in [(true, false), (false, true), (true, true)] {
        let mut sim = e8_sim::<NullSink>(faulty, crashed);
        let report = sim.run(&ExecConfig::new(), &mut NullSink);
        assert!(
            report.unserved <= 4,
            "faulty={faulty} crashed={crashed}: {report:?}"
        );
        assert_eq!(report.served + report.unserved, total);
        assert!(report.heartbeat_misses > 0, "{report:?}");
    }
}

//! The resume-equivalence oracle: run to round `k`, checkpoint, resume —
//! the resumed tail must be byte-identical to the uninterrupted run's
//! tail, so concatenating the head and tail traces equals the one-shot
//! trace. Verified across the full (workers × checked) cross, plus the
//! mismatch and cadence edge cases.

use cmvrp_engine::{CheckpointPolicy, EngineCheckpoint, EngineError, ExecConfig, ShardedOnlineSim};
use cmvrp_obs::JsonlSink;
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

/// A workload that materializes several cubes, exhausts batteries (so
/// replacement diffusions cross the checkpoint boundary's history), and
/// runs for well over a dozen rounds on the busiest shard.
fn workload() -> (cmvrp_grid::GridBounds<2>, cmvrp_workloads::JobSequence<2>) {
    let config = WorkloadConfig::Clusters {
        grid: 12,
        clusters: 3,
        jobs: 180,
        seed: 9,
    };
    let (bounds, demand) = config.generate().expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    (bounds, jobs)
}

/// Runs under `exec`, returning the JSONL trace bytes and the report;
/// checked runs must come back clean.
fn run_traced(
    exec: ExecConfig,
    resume: Option<&EngineCheckpoint>,
    saved: &mut Vec<EngineCheckpoint>,
) -> (Vec<u8>, OnlineReport) {
    let (bounds, jobs) = workload();
    let mut sink = JsonlSink::new(Vec::new());
    let run = exec
        .execute_with_checkpoints(
            bounds,
            &jobs,
            OnlineConfig::default(),
            &mut sink,
            resume,
            &mut |ckpt| saved.push(ckpt),
        )
        .expect("run");
    if exec.is_checked() {
        let check = run.check.as_ref().expect("checked run");
        assert!(check.is_clean(), "{:?}", check.violations);
    }
    (sink.into_writer().expect("flush"), run.report)
}

#[test]
fn resumed_tail_is_byte_identical_across_workers_and_checking() {
    let (full, full_report) = run_traced(ExecConfig::new().threads(2), None, &mut Vec::new());
    assert!(
        String::from_utf8_lossy(&full).lines().count() > 40,
        "workload too small to exercise a mid-run checkpoint"
    );
    for workers in [1, 2, 3, 8] {
        for checked in [false, true] {
            let exec = ExecConfig::new().threads(workers).check(checked);
            // Head: run to round 4, checkpointing there.
            let mut saved = Vec::new();
            let (head, _) = run_traced(
                exec.checkpoint(CheckpointPolicy {
                    every: None,
                    stop_at: Some(4),
                }),
                None,
                &mut saved,
            );
            assert_eq!(saved.len(), 1, "stop round must checkpoint exactly once");
            let ckpt = &saved[0];
            assert_eq!(ckpt.rounds_completed, 4);
            // Tail: resume and run to completion.
            let (tail, report) = run_traced(exec, Some(ckpt), &mut Vec::new());
            let stitched = [head.clone(), tail].concat();
            assert_eq!(
                stitched, full,
                "stitched trace diverges (workers {workers}, checked {checked})"
            );
            assert_eq!(report, full_report);
        }
    }
}

#[test]
fn cadence_checkpoints_every_r_rounds_and_resume_continues_the_cadence() {
    let exec = ExecConfig::new().threads(2).checkpoint(CheckpointPolicy {
        every: Some(3),
        stop_at: Some(7),
    });
    let mut saved = Vec::new();
    let (_, _) = run_traced(exec, None, &mut saved);
    // Cadence rounds 3 and 6, plus the stop round 7.
    assert_eq!(
        saved.iter().map(|c| c.rounds_completed).collect::<Vec<_>>(),
        vec![3, 6, 7],
    );
    // Resuming from round 7 with the same cadence continues at 9, 12, …
    let mut tail_saved = Vec::new();
    let (_, _) = run_traced(
        ExecConfig::new().threads(2).checkpoint(CheckpointPolicy {
            every: Some(3),
            stop_at: Some(12),
        }),
        Some(&saved[2]),
        &mut tail_saved,
    );
    assert_eq!(
        tail_saved
            .iter()
            .map(|c| c.rounds_completed)
            .collect::<Vec<_>>(),
        vec![9, 12],
    );
}

#[test]
fn checkpoints_are_identical_regardless_of_worker_count() {
    let take_one = |exec: ExecConfig| {
        let mut saved = Vec::new();
        run_traced(
            exec.checkpoint(CheckpointPolicy {
                every: None,
                stop_at: Some(5),
            }),
            None,
            &mut saved,
        );
        let mut ckpt = saved.pop().expect("one checkpoint");
        // The execution-shape stamp legitimately differs; the simulation
        // state must not.
        ckpt.threads = 0;
        ckpt.checked = false;
        ckpt
    };
    let base = take_one(ExecConfig::new().threads(1));
    assert_eq!(base, take_one(ExecConfig::new().threads(8)));
    assert_eq!(base, take_one(ExecConfig::new().threads(3)));
    assert_eq!(base, take_one(ExecConfig::new().threads(2).check(true)));
}

#[test]
fn resume_refuses_a_checkpoint_from_different_inputs() {
    let (bounds, jobs) = workload();
    let mut saved = Vec::new();
    run_traced(
        ExecConfig::new().threads(2).checkpoint(CheckpointPolicy {
            every: None,
            stop_at: Some(4),
        }),
        None,
        &mut saved,
    );
    let reseeded = OnlineConfig {
        seed: 99,
        ..OnlineConfig::default()
    };
    let err = ShardedOnlineSim::<2, cmvrp_obs::VecSink>::resume(bounds, &jobs, reseeded, &saved[0])
        .expect_err("mismatched resume must fail");
    assert!(matches!(err, EngineError::ResumeMismatch { .. }));
    let msg = err.to_string();
    assert!(msg.contains("fingerprint"), "{msg}");
    assert!(msg.contains("--threads"), "{msg}");
}

//! The step-equivalence oracle for the session redesign: advancing a
//! [`Session`] in arbitrary increments — down to one round per call —
//! must produce a merged trace byte-identical to a one-shot
//! [`ExecConfig::execute`], across the (worker count × checked) cross;
//! and a session fed arrivals through `inject` must
//! reproduce the one-shot trace of the same effective schedule. Any
//! mismatch is reported through the semantic differ, naming the first
//! diverging event.

use cmvrp_engine::{EngineError, ExecConfig, Session};
use cmvrp_obs::{diff_lines, JsonlSink};
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, JobSequence, Ordering, WorkloadConfig};

fn inputs(cfg: &WorkloadConfig) -> (cmvrp_grid::GridBounds<2>, JobSequence<2>) {
    let (bounds, demand) = cfg.generate().expect("workload fits grid");
    (
        bounds,
        arrivals::from_demand(&demand, Ordering::Shuffled, 7),
    )
}

fn one_shot(cfg: &WorkloadConfig, exec: ExecConfig) -> String {
    let (bounds, jobs) = inputs(cfg);
    let mut sink = JsonlSink::new(Vec::new());
    let run = exec
        .execute(bounds, &jobs, OnlineConfig::default(), &mut sink)
        .expect("one-shot run");
    if let Some(check) = &run.check {
        assert!(check.is_clean(), "{:?}", check.violations);
    }
    String::from_utf8(sink.into_writer().expect("flush")).expect("utf8 trace")
}

fn assert_identical(reference: &str, stepped: &str, label: &str) {
    if reference == stepped {
        return;
    }
    let report = diff_lines(reference.lines(), stepped.lines(), 3).expect("parseable traces");
    panic!(
        "{label}: stepped trace diverges from one-shot after {} matched events: {:#?}",
        report.matched, report.divergence
    );
}

/// Steps a session with the given policy until idle, returning the trace.
fn stepped(
    cfg: &WorkloadConfig,
    exec: ExecConfig,
    mut policy: impl FnMut(&mut Session<2>, &mut JsonlSink<Vec<u8>>) -> bool,
) -> String {
    let (bounds, jobs) = inputs(cfg);
    let mut session = exec
        .build(bounds, &jobs, OnlineConfig::default())
        .expect("build session");
    let mut sink = JsonlSink::new(Vec::new());
    while policy(&mut session, &mut sink) {}
    let run = session.finish();
    if let Some(check) = &run.check {
        assert!(check.is_clean(), "{:?}", check.violations);
    }
    String::from_utf8(sink.into_writer().expect("flush")).expect("utf8 trace")
}

#[test]
fn single_round_steps_match_one_shot_across_the_cross() {
    let cfg = WorkloadConfig::Clusters {
        grid: 12,
        clusters: 3,
        jobs: 120,
        seed: 9,
    };
    for workers in [1usize, 2, 3, 8] {
        for checked in [false, true] {
            let exec = ExecConfig::new().threads(workers).check(checked);
            let reference = one_shot(&cfg, exec);
            let trace = stepped(&cfg, exec, |s, sink| {
                s.advance_rounds(1, sink);
                !s.is_idle()
            });
            assert_identical(
                &reference,
                &trace,
                &format!("{workers}w/checked={checked}, 1-round steps"),
            );
        }
    }
}

#[test]
fn irregular_advance_until_increments_match_one_shot() {
    let cfg = WorkloadConfig::Uniform {
        grid: 12,
        jobs: 100,
        seed: 2,
    };
    let exec = ExecConfig::new().threads(3);
    let reference = one_shot(&cfg, exec);
    // Ragged epoch bounds: 1, 3, 7, 15, ... then drain.
    let mut horizon = 1u64;
    let trace = stepped(&cfg, exec, |s, sink| {
        let step = s.advance_until(horizon, sink);
        horizon = horizon * 2 + 1;
        if step.rounds == 0 && !s.is_idle() {
            // The next round starts past the horizon; jump to it.
            s.advance_rounds(1, sink);
        }
        !s.is_idle()
    });
    assert_identical(&reference, &trace, "irregular advance_until");
}

#[test]
fn injected_arrivals_match_the_one_shot_effective_schedule() {
    // The equivalence contract: same planning demand (the fleet is
    // provisioned for what the session was *built* with) and the same
    // effective arrival schedule => the same trace bytes, however the
    // arrivals are phased. A point source is injection-order-invariant
    // (every job sits at the grid center), so a live session fed the 60
    // jobs in mid-run batches — including late arrivals injected after a
    // full drain — must reproduce the preloaded one-shot byte for byte.
    let cfg = WorkloadConfig::Point {
        grid: 11,
        demand: 60,
    };
    let exec = ExecConfig::new().threads(2);
    let reference = one_shot(&cfg, exec);

    let (bounds, jobs) = inputs(&cfg);
    let center = jobs.iter().next().expect("non-empty schedule");
    let mut session = exec
        .build_live(bounds, &jobs, OnlineConfig::default())
        .expect("build live session");
    let mut sink = JsonlSink::new(Vec::new());
    for _ in 0..30 {
        session.inject(center).expect("in bounds");
    }
    session.advance_rounds(5, &mut sink);
    for _ in 0..20 {
        session.inject(center).expect("in bounds");
    }
    session.advance_rounds(7, &mut sink);
    session.drain(&mut sink);
    assert!(session.is_idle());
    // Late arrivals after an idle barrier: the session advanced neither
    // rounds nor time while idle, so the schedule stays dense.
    for _ in 0..10 {
        session.inject(center).expect("in bounds");
    }
    session.drain(&mut sink);
    let run = session.finish();
    assert_eq!(run.report.served + run.report.unserved, 60);
    let trace = String::from_utf8(sink.into_writer().expect("flush")).expect("utf8");
    assert_identical(&reference, &trace, "mid-run + post-drain injection");
}

#[test]
fn snapshot_resume_stitches_byte_identically() {
    let cfg = WorkloadConfig::Clusters {
        grid: 12,
        clusters: 3,
        jobs: 120,
        seed: 9,
    };
    let exec = ExecConfig::new().threads(2);
    let reference = one_shot(&cfg, exec);

    let (bounds, jobs) = inputs(&cfg);
    let mut session = exec
        .build(bounds, &jobs, OnlineConfig::default())
        .expect("build session");
    let mut head = JsonlSink::new(Vec::new());
    session.advance_rounds(9, &mut head);
    let snapshot = session.snapshot();
    drop(session);

    let mut resumed = exec
        .resume_build(bounds, &jobs, OnlineConfig::default(), &snapshot)
        .expect("resume session");
    let mut tail = JsonlSink::new(Vec::new());
    resumed.drain(&mut tail);
    resumed.finish();
    let mut trace = String::from_utf8(head.into_writer().expect("flush")).expect("utf8");
    trace.push_str(&String::from_utf8(tail.into_writer().expect("flush")).expect("utf8"));
    assert_identical(&reference, &trace, "snapshot/resume stitch");
}

#[test]
fn post_injection_snapshots_refuse_stock_resume() {
    // Shard queues are rebuilt from construction inputs on resume, so a
    // snapshot taken after an injection must carry a perturbed
    // fingerprint that the plain-inputs resume path refuses.
    let cfg = WorkloadConfig::Point {
        grid: 11,
        demand: 20,
    };
    let exec = ExecConfig::new().threads(2);
    let (bounds, jobs) = inputs(&cfg);
    let mut session = exec
        .build(bounds, &jobs, OnlineConfig::default())
        .expect("build session");
    let mut sink = JsonlSink::new(Vec::new());
    let center = jobs.iter().next().expect("non-empty schedule");
    session.inject(center).expect("in bounds");
    session.advance_rounds(3, &mut sink);
    let snapshot = session.snapshot();
    match exec.resume_build(bounds, &jobs, OnlineConfig::default(), &snapshot) {
        Err(EngineError::ResumeMismatch { .. }) => {}
        other => panic!("expected ResumeMismatch, got {other:?}"),
    }
}

#[test]
fn live_sessions_start_empty_and_serve_only_injections() {
    let cfg = WorkloadConfig::Point {
        grid: 11,
        demand: 12,
    };
    let exec = ExecConfig::new().threads(2);
    let (bounds, jobs) = inputs(&cfg);
    let mut session = exec
        .build_live(bounds, &jobs, OnlineConfig::default())
        .expect("build live session");
    assert!(session.is_idle());
    let mut sink = JsonlSink::new(Vec::new());
    // Idle sessions advance neither rounds nor time.
    let step = session.advance_until(100, &mut sink);
    assert_eq!((step.rounds, step.now), (0, 0));
    let center = jobs.iter().next().expect("non-empty schedule");
    for _ in 0..12 {
        session.inject(center).expect("in bounds");
    }
    session.drain(&mut sink);
    let run = session.finish();
    assert_eq!(run.report.served, 12);
    // Same effective schedule as the preloaded run => same trace bytes.
    let reference = one_shot(&cfg, exec);
    let trace = String::from_utf8(sink.into_writer().expect("flush")).expect("utf8");
    assert_identical(&reference, &trace, "live session vs preloaded");
}

//! The determinism oracle: the sharded engine's merged trace must be
//! byte-identical across worker counts, pass every `TraceChecker`
//! monitor, and report the same accounting as a one-worker run of the
//! same rounds.

use cmvrp_engine::{ExecConfig, ShardedOnlineSim};
use cmvrp_grid::GridBounds;
use cmvrp_obs::{check_trace, load_trace_bytes, JsonlSink, NullSink};
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

/// The E7 experiment panel (small grids, all five spatial shapes).
fn panel() -> Vec<WorkloadConfig> {
    vec![
        WorkloadConfig::Point {
            grid: 12,
            demand: 250,
        },
        WorkloadConfig::Line {
            grid: 12,
            demand: 8,
        },
        WorkloadConfig::Square {
            grid: 14,
            a: 5,
            demand: 5,
        },
        WorkloadConfig::Uniform {
            grid: 12,
            jobs: 150,
            seed: 2,
        },
        WorkloadConfig::Clusters {
            grid: 12,
            clusters: 3,
            jobs: 180,
            seed: 9,
        },
    ]
}

/// Runs a workload on the sharded engine under `exec`, streaming the
/// merged JSONL trace into an in-memory writer; returns the bytes plus
/// the report. When `exec` carries `.check(true)`, the run goes through
/// the inline monitors (which must stay clean) — the streamed bytes are
/// asserted identical either way by the tests below.
fn traced_run(config: &WorkloadConfig, exec: ExecConfig) -> (Vec<u8>, cmvrp_online::OnlineReport) {
    let (bounds, demand) = config.generate().expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let mut sink = JsonlSink::new(Vec::new());
    let run = exec
        .execute(bounds, &jobs, OnlineConfig::default(), &mut sink)
        .expect("sharded run");
    if exec.is_checked() {
        let check = run.check.as_ref().expect("checked run");
        assert!(
            check.is_clean(),
            "{}: {:?}",
            config.label(),
            check.violations
        );
    }
    (sink.into_writer().expect("flush"), run.report)
}

#[test]
fn merged_trace_is_byte_identical_across_worker_counts() {
    // The full (workers × checked) cross on the two skewed workloads: the
    // single hot shard (point, 3 shards) and the Zipf clusters (4 shards).
    // Workers 1, 2, 3 and 8 give four different shard→worker maps on
    // both. The remaining panel shapes are covered by the spot checks
    // below.
    let skewed = [
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
    ];
    for config in &skewed {
        let (baseline, base_report) = traced_run(config, ExecConfig::new().threads(1));
        assert!(!baseline.is_empty());
        for threads in [1, 2, 3, 8] {
            for checked in [false, true] {
                let exec = ExecConfig::new().threads(threads).check(checked);
                let (trace, report) = traced_run(config, exec);
                assert_eq!(
                    trace,
                    baseline,
                    "{}: trace differs at {threads} workers (checked={checked})",
                    config.label()
                );
                assert_eq!(report, base_report, "{}", config.label());
            }
        }
    }
    // The rest of the panel: checked, at 3 and at 8 workers.
    for config in panel() {
        let (baseline, base_report) = traced_run(&config, ExecConfig::new().threads(1));
        for threads in [3, 8] {
            let exec = ExecConfig::new().threads(threads).check(true);
            let (trace, report) = traced_run(&config, exec);
            assert_eq!(trace, baseline, "{}: {threads} workers", config.label());
            assert_eq!(report, base_report, "{}", config.label());
        }
    }
}

#[test]
fn inline_checking_leaves_streamed_bytes_unchanged() {
    // Checking must be a pure observer: same merged bytes, same report.
    for config in panel() {
        let exec = ExecConfig::new().threads(8);
        let (plain, plain_report) = traced_run(&config, exec);
        let (checked, checked_report) = traced_run(&config, exec.check(true));
        assert_eq!(checked, plain, "{}", config.label());
        assert_eq!(checked_report, plain_report, "{}", config.label());
    }
}

#[test]
fn merged_trace_passes_every_monitor() {
    for config in panel() {
        let (bounds, demand) = config.generate().expect("workload fits grid");
        let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
        let total = jobs.iter().count() as u64;
        // Inline: per-shard monitors + merge-time cross-shard monitors.
        let run = ExecConfig::new()
            .threads(8)
            .check(true)
            .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
            .expect("sharded run");
        let report = run.report;
        let check = run.check.expect("checked run");
        assert!(
            check.is_clean(),
            "{}: {:?}",
            config.label(),
            check.violations
        );
        assert!(check.events > 0);
        assert_eq!(report.served + report.unserved, total);
        assert_eq!(report.unserved, 0, "{}", config.label());
        // Offline: the streamed bytes replay cleanly through the full
        // single-stream checker too (every monitor, including the ones
        // the inline split covers shard-locally).
        let (trace, _) = traced_run(&config, ExecConfig::new().threads(8));
        let trace = load_trace_bytes(&trace).expect("load merged trace");
        let offline = check_trace(&trace, None).expect("parse merged trace");
        assert!(
            offline.is_clean(),
            "{}: offline violations {:?}",
            config.label(),
            offline.violations
        );
        assert_eq!(offline.events, check.events, "{}", config.label());
    }
}

#[test]
fn sharded_report_matches_across_thread_counts_without_tracing() {
    let (bounds, demand) = WorkloadConfig::Uniform {
        grid: 24,
        jobs: 400,
        seed: 5,
    }
    .generate()
    .expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let mut reports = Vec::new();
    for threads in [1, 2, 3, 4, 8] {
        let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
        reports.push(sim.run(&ExecConfig::new().threads(threads), &mut NullSink));
    }
    for r in &reports[1..] {
        assert_eq!(*r, reports[0]);
    }
}

#[test]
fn million_vehicle_grid_runs_sparse() {
    // 1024×1024 ≈ 1.05M vehicles; a point source of 2000 jobs picks cube
    // side 7 (9·6³ = 1944 < 2000 ≤ 9·7³ = 3087), so ω_c = 6 and only the
    // single demand-bearing cube (49 vehicles) ever materializes.
    let bounds = GridBounds::<2>::square(1024);
    let demand = cmvrp_workloads::spatial::point(&bounds, 2000);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
    let prov = sim.provisioning();
    assert_eq!(prov.side, 7);
    let exec = ExecConfig::new().threads(8);
    let report = sim.run(&exec, &mut NullSink);
    assert_eq!(report.unserved, 0);
    // Theorem 1.4.2: energy per vehicle stays within 38·ω_c.
    assert!(
        report.max_energy_used <= 38 * 6,
        "max energy {} exceeds 38·ω_c",
        report.max_energy_used
    );
    // Sparse: memory tracks active vehicles, not the 2^20 grid.
    assert_eq!(sim.materialized_vehicles(), 49);
}

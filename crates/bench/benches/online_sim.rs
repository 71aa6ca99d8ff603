//! Bench: the Chapter 3 on-line protocol end to end (experiment E7) —
//! whole-run cost across workload shapes and sizes.
//!
//! `full_run/clusters256_flash` runs the `flash-crowd` benchmark
//! workload's demand and order (`clusters:grid=256,k=16,jobs=100000,seed=7`
//! under `arrivals::flash_crowd` at 50) on one worker with the inline
//! monitors on (`check(true)`) into a `NullSink`, and counts jobs as items.
//! `full_run/clusters256_flash_unchecked` runs the same with `check(false)`:
//! shard stepping alone.
//! The run writes `BENCH_online.json` at the workspace root (`--test` runs
//! each case once and writes nothing); `--baseline=PATH` pairs every row
//! with a snapshot another build of this bench wrote.

use cmvrp_bench::harness::Harness;
use cmvrp_engine::ExecConfig;
use cmvrp_grid::GridBounds;
use cmvrp_obs::NullSink;
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_workloads::{arrivals, spatial, JobSequence, Ordering, WorkloadConfig};
use std::hint::black_box;

/// One untraced run on one worker.
fn run(bounds: GridBounds<2>, jobs: &JobSequence<2>, config: OnlineConfig) -> OnlineReport {
    ExecConfig::new()
        .execute(bounds, jobs, config, &mut NullSink)
        .expect("engine run")
        .report
}

fn main() {
    let mut h = Harness::start("online_sim");
    h.set_samples(10);
    for (label, grid, jobs_n) in [("small", 8u64, 100u64), ("medium", 12, 300)] {
        let bounds = GridBounds::square(grid);
        let demand = spatial::zipf_clusters(&bounds, 2, jobs_n, 4);
        let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 9);
        h.bench(&format!("full_run/{label}"), || {
            let report = run(bounds, &jobs, OnlineConfig::default());
            assert_eq!(report.unserved, 0);
            black_box(report);
        });
    }
    // Monitored variant: heartbeat overhead.
    let bounds = GridBounds::square(8);
    let demand = spatial::point(&bounds, 150);
    let jobs = arrivals::from_demand(&demand, Ordering::Sequential, 0);
    let monitored = OnlineConfig {
        monitored: true,
        ..OnlineConfig::default()
    };
    h.bench("full_run/monitored", || {
        black_box(run(bounds, &jobs, monitored));
    });
    let spec = "clusters:grid=256,k=16,jobs=100000,seed=7";
    let config: WorkloadConfig = spec.parse().expect("bench workload spec parses");
    let (bounds, demand) = config.generate().expect("bench workload fits its grid");
    let jobs = arrivals::flash_crowd(&demand, 50, 7);
    for (label, check) in [("", true), ("_unchecked", false)] {
        let exec = ExecConfig::new().check(check);
        let name = format!("full_run/clusters256_flash{label}");
        h.bench_with_items(&name, jobs.len() as u64, || {
            let run = exec
                .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
                .expect("engine run");
            assert_eq!(run.report.unserved, 0);
            black_box(run.report);
        });
    }
    let mut notes = vec![(
        "clusters256_flash".to_string(),
        format!(
            "{spec}; flash_crowd at=50 seed=7; 1 worker, NullSink; check(true), \
             and check(false) in the _unchecked row"
        ),
    )];
    notes.extend(h.baseline_notes());
    // `cargo bench` runs with the package dir as cwd; anchor the snapshot
    // at the workspace root next to the other BENCH_*.json files.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_online.json");
    let notes: Vec<(&str, String)> = notes.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    if let Err(e) = h.write_snapshot(&out, &notes) {
        eprintln!("warning: could not write {}: {e}", out.display());
    }
    h.finish();
}

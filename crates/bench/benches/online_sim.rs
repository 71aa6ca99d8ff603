//! Bench: the Chapter 3 on-line protocol end to end (experiment E7) —
//! whole-run cost across workload shapes and sizes.

use cmvrp_bench::harness::Harness;
use cmvrp_engine::ExecConfig;
use cmvrp_grid::GridBounds;
use cmvrp_obs::NullSink;
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_workloads::{arrivals, spatial, JobSequence, Ordering};
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
    h.finish();
}

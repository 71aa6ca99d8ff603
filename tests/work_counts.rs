//! Work-count gate for the on-line engine: a job costs its cube, not its
//! shard.
//!
//! After each quiescence a shard absorbs finished relocations and failed
//! searches from the vehicles that ran a handler, and neighbor
//! recomputation scans the one cube a relocation landed in. The engine
//! counts both (`online.absorb_visits`, `online.neighbor_visits`). The
//! counts are a pure function of the inputs, so they are pinned exactly
//! here and hold on any host; an absorb that polled every materialized
//! vehicle would visit hundreds of vehicles per job on these workloads.

use cmvrp::grid::GridBounds;
use cmvrp::obs::NullSink;
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::{arrivals, JobSequence, Ordering, WorkloadConfig};
use cmvrp::ExecConfig;

/// Jobs served, absorb visits and neighbor visits of one unmonitored run
/// on one worker.
fn visits(bounds: GridBounds<2>, jobs: &JobSequence<2>) -> (u64, u64, u64) {
    let run = ExecConfig::new()
        .execute(bounds, jobs, OnlineConfig::default(), &mut NullSink)
        .expect("engine run");
    assert_eq!(run.report.unserved, 0);
    (
        run.report.served,
        run.metrics.counter("online.absorb_visits"),
        run.metrics.counter("online.neighbor_visits"),
    )
}

fn generate(spec: &str) -> (GridBounds<2>, cmvrp::grid::DemandMap<2>) {
    let config: WorkloadConfig = spec.parse().expect("workload spec parses");
    config.generate().expect("workload fits its grid")
}

#[test]
fn absorb_and_neighbor_visits_are_pinned() {
    // Scaled-down shapes of the benchmark's message-dense flash crowd, its
    // diurnal uniform demand, and its single hot point.
    let (b, d) = generate("clusters:grid=64,k=8,jobs=5000,seed=7");
    let flash = visits(b, &arrivals::flash_crowd(&d, 50, 7));
    let (b, d) = generate("uniform:grid=24,jobs=1152,seed=7");
    let diurnal = visits(b, &arrivals::diurnal(&d, 4, 7));
    let (b, d) = generate("point:grid=128,demand=500");
    let point = visits(b, &arrivals::from_demand(&d, Ordering::Shuffled, 7));
    for (jobs, absorb, _) in [flash, diurnal, point] {
        assert!(absorb <= 2 * jobs, "{absorb} absorb visits for {jobs} jobs");
    }
    assert_eq!(flash, (5000, 5478, 1068));
    assert_eq!(diurnal, (1152, 1152, 498));
    assert_eq!(point, (500, 545, 64));
}

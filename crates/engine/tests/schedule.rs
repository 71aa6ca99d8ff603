//! Executor-level guarantees of the one shard schedule: every shard is
//! stepped exactly once per round at every worker count, and the
//! per-worker counters reach the metrics registry.

use cmvrp_engine::{ExecConfig, ShardedOnlineSim};
use cmvrp_obs::NullSink;
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

/// End-to-end: the executor steps every shard exactly once per round at
/// every worker count (the per-worker counters prove it).
#[test]
fn every_worker_count_steps_every_shard_once_per_round() {
    let (bounds, demand) = WorkloadConfig::Clusters {
        grid: 24,
        clusters: 4,
        jobs: 300,
        seed: 11,
    }
    .generate()
    .expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    for threads in [1, 2, 3, 4, 8] {
        let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
        let shards = sim.shard_count() as u64;
        let report = sim.run(&ExecConfig::new().threads(threads), &mut NullSink);
        assert_eq!(report.unserved, 0);
        let stats = sim.round_stats().expect("stats");
        assert_eq!(
            stats.total_stepped(),
            stats.rounds * shards,
            "threads={threads}: every shard exactly once per round"
        );
        assert_eq!(
            stats.workers.len() as u64,
            (threads as u64).min(shards),
            "threads={threads}"
        );
    }
}

/// The executor counters surface in the metrics registry (the `--metrics`
/// path): rounds plus one busy/stepped pair per worker.
#[test]
fn scheduler_counters_reach_metrics() {
    let (bounds, demand) = WorkloadConfig::Uniform {
        grid: 16,
        jobs: 120,
        seed: 3,
    }
    .generate()
    .expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
    sim.run(&ExecConfig::new().threads(2), &mut NullSink);
    let metrics = sim.metrics();
    let rows = metrics.rows();
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert!(names.contains(&"engine.rounds"), "{names:?}");
    assert!(
        names.contains(&"engine.worker0.shards_stepped"),
        "{names:?}"
    );
    assert!(names.contains(&"engine.worker0.busy_us"), "{names:?}");
    if sim.shard_count() > 1 {
        assert!(names.contains(&"engine.worker1.busy_us"), "{names:?}");
    }
}

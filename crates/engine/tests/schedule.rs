//! Scheduler-level guarantees: the between-round repartitioner is a true
//! partition (every shard exactly once, every time), LPT actually
//! balances, and the executor's per-worker counters account for every
//! shard-round under every policy.

use cmvrp_engine::{repartition, ExecConfig, Schedule, ShardedOnlineSim};
use cmvrp_obs::NullSink;
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering, WorkloadConfig};

/// SplitMix64 step — the same hermetic generator the workspace rng shim
/// uses, inlined so the test owns its randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Property: for arbitrary load vectors and worker counts, `repartition`
/// assigns every shard (every active cube column) to exactly one worker —
/// no drops, no duplicates — and never opens more bins than workers.
#[test]
fn repartition_covers_every_shard_exactly_once() {
    let mut state = 0xC0FF_EE00_DEAD_BEEF;
    for trial in 0..500 {
        let shards = 1 + (splitmix(&mut state) % 64) as usize;
        let workers = 1 + (splitmix(&mut state) % 16) as usize;
        // Zipf-ish skew: most shards idle, a few heavy — the regime the
        // rebalancer exists for.
        let loads: Vec<u64> = (0..shards)
            .map(|_| {
                let r = splitmix(&mut state);
                if r.is_multiple_of(8) {
                    r % 10_000
                } else {
                    r % 3
                }
            })
            .collect();
        let bins = repartition(&loads, workers);
        assert!(bins.len() <= workers, "trial {trial}: {} bins", bins.len());
        let mut seen = vec![0u32; shards];
        for bin in &bins {
            for &shard in bin {
                seen[shard] += 1;
            }
        }
        assert!(
            seen.iter().all(|&count| count == 1),
            "trial {trial}: loads {loads:?} -> bins {bins:?}"
        );
    }
}

/// Property: the LPT bin weights are within one max-load of each other —
/// the classic 4/3-ish greedy guarantee is stronger, but this bound is
/// enough to prove the rebalancer is not degenerate.
#[test]
fn repartition_balances_within_one_max_load() {
    let mut state = 0x1234_5678_9ABC_DEF0;
    for _ in 0..200 {
        let shards = 2 + (splitmix(&mut state) % 48) as usize;
        let workers = 1 + (splitmix(&mut state) % 8) as usize;
        let loads: Vec<u64> = (0..shards).map(|_| splitmix(&mut state) % 1000).collect();
        let bins = repartition(&loads, workers);
        let weights: Vec<u64> = bins
            .iter()
            .map(|bin| bin.iter().map(|&s| loads[s]).sum())
            .collect();
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let heaviest = weights.iter().copied().max().unwrap_or(0);
        let lightest = weights.iter().copied().min().unwrap_or(0);
        assert!(
            heaviest - lightest <= max_load,
            "spread {heaviest}-{lightest} exceeds max load {max_load}: {weights:?}"
        );
    }
}

/// `repartition` is deterministic: same loads, same bins, every time —
/// a rebalanced run must not depend on iteration order or hashing.
#[test]
fn repartition_is_deterministic() {
    let loads = [7u64, 0, 0, 42, 3, 3, 19, 0, 8, 1];
    let first = repartition(&loads, 4);
    for _ in 0..10 {
        assert_eq!(repartition(&loads, 4), first);
    }
}

/// End-to-end: the executor steps every shard exactly once per round
/// under every schedule (the per-worker counters prove it), and the
/// steal counters are live exactly when the policy allows stealing.
#[test]
fn every_schedule_steps_every_shard_once_per_round() {
    let (bounds, demand) = WorkloadConfig::Clusters {
        grid: 24,
        clusters: 4,
        jobs: 300,
        seed: 11,
    }
    .generate()
    .expect("workload fits grid");
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    for schedule in Schedule::ALL {
        for threads in [1, 2, 4] {
            let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
            let shards = sim.shard_count() as u64;
            let exec = ExecConfig::new().threads(threads).schedule(schedule);
            let report = sim.run(&exec, &mut NullSink);
            assert_eq!(report.unserved, 0);
            let stats = sim.round_stats().expect("stats");
            assert_eq!(
                stats.total_stepped(),
                stats.rounds * shards,
                "{schedule} threads={threads}: every shard exactly once per round"
            );
            assert_eq!(
                stats.workers.len() as u64,
                (threads as u64).min(shards),
                "{schedule} threads={threads}"
            );
            if schedule == Schedule::Static || threads == 1 {
                assert_eq!(stats.total_steals(), 0, "{schedule} threads={threads}");
            }
        }
    }
}

/// The scheduler counters surface in the metrics registry (the `--metrics`
/// path): rounds, total steals, and one busy/stepped/steal triple per
/// worker.
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
    sim.run(
        &ExecConfig::new().threads(2).schedule(Schedule::Steal),
        &mut NullSink,
    );
    let metrics = sim.metrics();
    let rows = metrics.rows();
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert!(names.contains(&"engine.rounds"), "{names:?}");
    assert!(names.contains(&"engine.steals"), "{names:?}");
    assert!(
        names.contains(&"engine.worker0.shards_stepped"),
        "{names:?}"
    );
    assert!(names.contains(&"engine.worker0.busy_us"), "{names:?}");
    if sim.shard_count() > 1 {
        assert!(names.contains(&"engine.worker1.steals"), "{names:?}");
    }
}

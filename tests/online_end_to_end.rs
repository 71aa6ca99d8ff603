//! Integration: the Chapter 3 on-line strategy end to end, including the
//! Theorem 1.4.2 accounting and the §3.2.5 fault scenarios.

use cmvrp::core::{omega_c, online_factor};
use cmvrp::grid::GridBounds;
use cmvrp::obs::NullSink;
use cmvrp::online::{OnlineConfig, OnlineReport};
use cmvrp::workloads::{arrivals, spatial, JobSequence, Ordering};
use cmvrp::{ExecConfig, Scenario, ShardedOnlineSim};

/// One run of the protocol on one worker thread.
fn run(bounds: GridBounds<2>, jobs: &JobSequence<2>, config: OnlineConfig) -> OnlineReport {
    ExecConfig::new()
        .execute(bounds, jobs, config, &mut NullSink)
        .expect("engine run")
        .report
}

/// The configuration with the §3.2.5 heartbeat ring on.
fn monitored() -> OnlineConfig {
    OnlineConfig {
        monitored: true,
        ..OnlineConfig::default()
    }
}

#[test]
fn serves_everything_across_scenarios_and_arrival_shapes() {
    // Every demand shape × every arrival mode, all through the scenario
    // parser — the same construction path the CLI, campaigns, and the
    // wire protocol use.
    let shapes = [
        "shape = point\ndemand = 150",
        "shape = line\ndemand = 6",
        "shape = square\na = 4\ndemand = 4",
        "shape = uniform\njobs = 100\nseed = 4",
        "shape = clusters\nk = 2\njobs = 120\nseed = 6",
    ];
    let arrival_sections = [
        "",
        "[arrivals]\nmode = sequential\n",
        "[arrivals]\nmode = uniform-rate\n",
        "[arrivals]\nmode = diurnal\nwaves = 3\n",
        "[arrivals]\nmode = flash-crowd\nat = 40\n",
        "[arrivals]\nmode = moving-hotspot\n",
        "[arrivals]\nmode = alternating\n",
    ];
    for shape in shapes {
        for arrivals_sec in arrival_sections {
            let text = format!("[substrate]\nside = 12\n\n[demand]\n{shape}\n\n{arrivals_sec}");
            let sc = Scenario::parse_file(&text).expect("scenario parses");
            let (bounds, demand, jobs) = sc.generate(13).expect("workload fits grid");
            let report = run(bounds, &jobs, OnlineConfig::default());
            assert_eq!(
                report.unserved,
                0,
                "{} / {}: {report:?}",
                sc.label(),
                sc.arrivals.label()
            );
            assert_eq!(report.served, demand.total());
            assert!(report.max_energy_used <= report.capacity);
        }
    }
}

#[test]
fn theorem_142_energy_within_constant_of_omega_c() {
    // Won = Θ(Woff): the max energy any vehicle draws stays within the
    // (4·3^ℓ+ℓ) constant (plus discretization) of ω_c.
    let b = GridBounds::square(12);
    let d = spatial::point(&b, 400);
    let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
    let report = run(b, &jobs, OnlineConfig::default());
    assert_eq!(report.unserved, 0);
    let wc = omega_c(&b, &d).to_f64().max(1.0);
    let bound = 2.0 * online_factor(2) as f64 * wc + 12.0;
    assert!(
        (report.max_energy_used as f64) <= bound,
        "max {} vs 2·38·ω_c bound {bound} (ω_c = {wc})",
        report.max_energy_used
    );
}

#[test]
fn replacements_happen_and_protocol_terminates() {
    let b = GridBounds::square(10);
    let d = spatial::zipf_clusters(&b, 2, 300, 3);
    let jobs = arrivals::from_demand(&d, Ordering::Shuffled, 17);
    let report = run(b, &jobs, OnlineConfig::default());
    assert_eq!(report.unserved, 0, "{report:?}");
    assert!(report.replacements > 0);
    assert_eq!(report.failed_replacements, 0);
    assert!(report.messages > 0);
}

#[test]
fn deterministic_given_seed() {
    let b = GridBounds::square(9);
    let d = spatial::uniform_random(&b, 80, 9);
    let jobs = arrivals::from_demand(&d, Ordering::Shuffled, 2);
    let run_seed = |seed: u64| {
        let config = OnlineConfig {
            seed,
            ..OnlineConfig::default()
        };
        run(b, &jobs, config)
    };
    assert_eq!(run_seed(5), run_seed(5));
}

#[test]
fn scenario2_and_3_with_monitoring() {
    // A faulty done vehicle and a crashed vehicle in the same run, in
    // different cubes: the heartbeat ring recovers both. Demand is
    // concentrated so the cube side exceeds 1 (a side-1 cube has no idle
    // spare — the protocol has no redundancy to offer there).
    let b = GridBounds::square(8);
    let mut d = cmvrp::grid::DemandMap::new();
    d.add(cmvrp::grid::pt2(3, 3), 200);
    d.add(cmvrp::grid::pt2(6, 6), 150);
    let jobs = arrivals::from_demand(&d, Ordering::Interleaved, 1);
    let mut sim = ShardedOnlineSim::<2>::new(b, &jobs, monitored());
    // Scenario 2: the vehicle serving (3,3) will exhaust but stay silent.
    let faulty = sim.responsible_home(cmvrp::grid::pt2(3, 3));
    sim.set_faulty_at(faulty);
    // Scenario 3: the vehicle serving (6,6) crashes outright.
    let crashed = sim.responsible_home(cmvrp::grid::pt2(6, 6));
    sim.crash_vehicle_at(crashed);
    let report = sim.run(&ExecConfig::new(), &mut NullSink);
    // Nearly everything served; at most a handful of arrivals lost to the
    // detection window of the crashed pair.
    assert!(report.unserved <= 4, "{report:?}");
    assert!(report.served >= d.total() - 4);
    assert!(report.replacements >= 2, "{report:?}");
}

#[test]
fn monitored_crash_fires_heartbeat_missed_events() {
    // A crashed vehicle in monitored mode must be detected through the
    // heartbeat ring, and the detection must surface as structured
    // heartbeat_missed events in the trace as well as in the report.
    use cmvrp::obs::{Event, VecSink};
    let b = GridBounds::square(6);
    let d = spatial::point(&b, 30);
    let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
    let mut sim = ShardedOnlineSim::<2, VecSink>::new(b, &jobs, monitored());
    let center = spatial::center(&b);
    sim.crash_vehicle_at(center);
    let mut sink = VecSink::new();
    let report = sim.run(&ExecConfig::new(), &mut sink);
    assert!(report.served >= 28, "{report:?}");
    assert!(
        report.heartbeat_misses > 0,
        "watcher must detect the silent peer: {report:?}"
    );
    let events = sink.drain();
    let missed: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::HeartbeatMissed { watcher, peer, .. } => Some((*watcher, *peer)),
            _ => None,
        })
        .collect();
    assert_eq!(missed.len() as u64, report.heartbeat_misses);
    assert!(!missed.is_empty(), "heartbeat_missed events must be traced");
    // Every detection names a distinct watcher/peer edge of the ring.
    assert!(missed.iter().all(|(w, p)| w != p));
    // The same run also traced the replacement machinery end to end.
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::DiffusionStarted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::ReplacementCycle { .. })));
}

#[test]
fn tight_capacity_run_reports_shortfall_not_panic() {
    let b = GridBounds::square(8);
    let d = spatial::point(&b, 200);
    let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
    let config = OnlineConfig {
        capacity_override: Some(6),
        ..OnlineConfig::default()
    };
    let report = run(b, &jobs, config);
    assert_eq!(report.served + report.unserved, 200);
    assert!(report.unserved > 0);
}

#[test]
fn empirical_min_capacity_is_same_order_as_omega_c() {
    // Sweep the capacity downward: the smallest capacity that still serves
    // everything should be Θ(ω_c) — between ω_c and the theorem constant.
    let b = GridBounds::square(10);
    let d = spatial::point(&b, 300);
    let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
    let wc = omega_c(&b, &d).to_f64();
    let mut min_ok = None;
    for cap in (2..200).rev() {
        let config = OnlineConfig {
            capacity_override: Some(cap),
            ..OnlineConfig::default()
        };
        let report = run(b, &jobs, config);
        if report.unserved == 0 {
            min_ok = Some(cap);
        } else {
            break;
        }
    }
    let min_ok = min_ok.expect("some capacity must work") as f64;
    assert!(min_ok >= wc - 1.0, "min feasible {min_ok} below ω_c {wc}");
    assert!(
        min_ok <= 2.0 * online_factor(2) as f64 * wc.max(1.0),
        "min feasible {min_ok} not within theorem order of ω_c {wc}"
    );
}

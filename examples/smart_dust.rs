//! Smart Dust: the thesis' motivating scenario (§1.2) — a field of tiny
//! mobile sensors serving events that arrive on-line, with failures.
//!
//! Hundreds of micro-robots are scattered over a 14x14 field. Events
//! (vibration readings to process) arrive in clustered bursts; each costs
//! one unit of battery, as does each grid step. The decentralized Chapter 3
//! protocol keeps every event served: exhausted robots summon idle spares
//! through diffusing computations, and the §3.2.5 heartbeat ring recovers
//! from a robot that bricks entirely.
//!
//! ```sh
//! cargo run --example smart_dust
//! ```

use cmvrp::prelude::*;

fn main() {
    let bounds = GridBounds::square(14);
    // Clustered events: seismic activity concentrates around hotspots.
    let demand = spatial::zipf_clusters(&bounds, 3, 500, 2026);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 42);

    println!(
        "smart dust field: {} robots, {} events across {} sites",
        bounds.volume(),
        jobs.len(),
        demand.support_len()
    );

    let config = OnlineConfig {
        monitored: true, // heartbeat ring on
        ..OnlineConfig::default()
    };
    let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, config);
    println!(
        "per-robot battery (Lemma 3.3.1 provisioning): {}",
        sim.provisioning().capacity
    );

    // Misfortune strikes: the robot responsible for the heaviest hotspot
    // bricks before the campaign starts.
    let hotspot = demand
        .iter()
        .max_by_key(|(_, d)| *d)
        .map(|(p, _)| p)
        .expect("nonempty demand");
    let victim = sim.responsible_home(hotspot);
    sim.crash_vehicle_at(victim);
    println!("robot at {victim} (responsible for hotspot {hotspot}) has crashed");

    let report = sim.run(&ExecConfig::new(), &mut NullSink);
    println!(
        "served {}/{} events ({} lost to the detection window)",
        report.served,
        report.served + report.unserved,
        report.unserved
    );
    println!(
        "replacements: {}, messages: {}, max battery used: {}/{}",
        report.replacements, report.messages, report.max_energy_used, report.capacity
    );
    println!(
        "Theorem 1.4.2 accounting: max-used / ω_c = {:.2} (constant-factor bound: {})",
        report.max_energy_used as f64 / report.omega_c.to_f64().max(1.0),
        cmvrp::core::online_factor(2)
    );
    assert!(report.unserved <= 3, "monitoring must bound the loss");
}

//! Broken fleet: Chapter 4 end to end — the LP lower bound, the Figure 4.1
//! adversarial instance where that bound fails badly, and the on-line
//! protocol limping through mass breakage.
//!
//! ```sh
//! cargo run --example broken_fleet
//! ```

use cmvrp::ext::broken::gap_instance;
use cmvrp::grid::GridBounds;
use cmvrp::obs::NullSink;
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::{arrivals, spatial, Ordering};
use cmvrp::{ExecConfig, ShardedOnlineSim};

fn main() {
    // Part 1 — Figure 4.1: demands r1 at two sites flanking the lone
    // surviving vehicle k; arrivals alternate i, j, i, j, …
    println!("Figure 4.1: the LP(4.1) bound vs what vehicle k actually needs\n");
    println!(
        "{:>4} {:>14} {:>12} {:>8}",
        "r1", "LP(4.1) bound", "exact need", "ratio"
    );
    for r1 in [2u64, 4, 8, 16, 32] {
        let inst = gap_instance(r1, 3 * r1);
        let lb = inst.lp_lower_bound(1e-3);
        let exact = inst.exact_requirement();
        println!("{r1:>4} {lb:>14.2} {exact:>12} {:>8.2}", exact as f64 / lb);
    }
    println!(
        "\nThe ratio grows ~linearly in r1: the flow relaxation cannot see that\n\
         k must WALK back and forth between the alternating sites — the thesis'\n\
         point that with breakage, arrival ORDER matters and the LP bound is weak.\n"
    );

    // Part 2 — scenario 4 on-line: a fleet where most batteries die early.
    let bounds = GridBounds::square(8);
    let demand = spatial::point(&bounds, 300);
    let jobs = arrivals::from_demand(&demand, Ordering::Sequential, 0);
    for frac_percent in [0u32, 50, 100] {
        let config = OnlineConfig {
            monitored: true,
            ..OnlineConfig::default()
        };
        let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, config);
        // Every `1/frac`-th vehicle breaks after 10% of its battery.
        if frac_percent > 0 {
            for (k, p) in bounds.iter().enumerate() {
                if (k as u32 * frac_percent) % 100 < frac_percent {
                    sim.set_longevity_at(p, 0.1);
                }
            }
        }
        let report = sim.run(&ExecConfig::new(), &mut NullSink);
        println!(
            "breakage {frac_percent:>3}%: served {:>3}/{}, replacements {}, broken {}",
            report.served,
            report.served + report.unserved,
            report.replacements,
            sim.broken_count()
        );
    }
    println!(
        "\nLight breakage is absorbed by the §3.2.5 monitoring ring; past the\n\
         spare budget the shortfall is reported honestly — no constant-capacity\n\
         guarantee survives scenario 4, exactly as Chapter 4 proves."
    );
}

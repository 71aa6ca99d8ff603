//! The off-line commands: `solve`, `show`, `sweep`, `experiment` and
//! `workloads`.

use crate::{parse_workload, table, usage_error, Args, Outcome, UsageError};
use cmvrp_core::{omega_star, Instance};
use cmvrp_grid::{DemandMap, GridBounds};
use cmvrp_scenario::Scenario;
use std::fmt::Write as _;

/// The workload `spec` names and its generated demand.
fn demand(spec: &str) -> Result<(Scenario, GridBounds<2>, DemandMap<2>), UsageError> {
    let sc = parse_workload(spec)?;
    let (bounds, demand) = sc.demand.generate().map_err(usage_error)?;
    Ok((sc, bounds, demand))
}

pub(crate) fn sweep(a: &Args) -> Outcome {
    let shape = a.pos(0);
    let parsed: Result<Vec<u64>, _> = a.from(1).iter().map(|d| d.parse::<u64>()).collect();
    let parsed = parsed.map_err(|_| UsageError("demands must be integers".into()))?;
    let (grid, law) = match shape {
        "point" => (41, "expect cube-root growth: 8x demand -> ~2x omega*"),
        "line" => (30, "expect square-root growth: 4x demand -> ~2x omega*"),
        other => {
            return Err(UsageError(format!(
                "sweep supports point|line, not {other:?}"
            )))
        }
    };
    let (mut rows, mut prev) = (Vec::new(), None);
    for d in parsed {
        let (_, bounds, demand) = demand(&format!("{shape}:grid={grid},demand={d}"))?;
        let star = omega_star(&bounds, &demand).value.to_f64();
        let growth = prev.map_or_else(|| "-".into(), |p| format!("{:.3}", star / p));
        rows.push([d.to_string(), cmvrp_util::table::fmt_f64(star), growth]);
        prev = Some(star);
    }
    let table = table(["d", "omega*", "growth vs prev"], rows);
    Ok((format!("{table}{law}\n"), 0))
}

/// `experiment <id>`: the experiment `id` names in `cmvrp-bench`'s table,
/// run at its default parameters.
pub(crate) fn experiment(a: &Args) -> Outcome {
    let id = a.pos(0);
    let out = cmvrp_bench::experiment(id).ok_or_else(|| {
        UsageError(format!(
            "unknown experiment {id:?}; known: {}",
            cmvrp_bench::experiment_ids()
        ))
    })?;
    Ok((out.to_string(), 0))
}

pub(crate) fn workloads(_: &Args) -> Outcome {
    let out = "point, line, square, uniform, clusters, @scenario.toml — see `cmvrp help` for \
               parameters\n";
    Ok((out.to_string(), 0))
}

pub(crate) fn show(a: &Args) -> Outcome {
    let (sc, bounds, demand) = demand(a.pos(0))?;
    let mut out = format!(
        "workload: {} (total demand {})\n",
        sc.label(),
        demand.total()
    );
    out.push_str(&cmvrp_grid::render_demand(&bounds, &demand));
    Ok((out, 0))
}

pub(crate) fn solve(a: &Args) -> Outcome {
    let (sc, bounds, demand) = demand(a.pos(0))?;
    let inst = Instance::new(bounds, demand);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", sc.label());
    let _ = writeln!(out, "total demand: {}", inst.demand().total());
    let _ = writeln!(out, "omega_c (Cor 2.2.7): {}", inst.omega_c());
    let star = inst.omega_star();
    let _ = writeln!(out, "omega*  (Thm 1.4.1): {}", star.value);
    let _ = writeln!(out, "Algorithm 1 estimate: {}", inst.approx_woff());
    let (lo, hi) = inst.woff_bounds();
    let _ = writeln!(out, "Woff bounds: {lo} <= Woff <= {hi}");
    let plan = inst
        .plan_offline()
        .map_err(|e| UsageError(format!("planning failed: {e}")))?;
    let check = inst.verify(&plan);
    let _ = writeln!(
        out,
        "plan: {} vehicles, max energy {}, valid: {}",
        plan.len(),
        check.max_energy,
        check.is_valid()
    );
    Ok((out, 0))
}

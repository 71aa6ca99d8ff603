//! Bench: the off-line bound computations (experiments E1/E5) — exact `ω*`
//! via parametric flow vs the cube bound `ω_c` — and the Lemma 3.3.1 fleet
//! provisioning every run starts with.
//!
//! The `omega_star_exact/uniform120` and `omega_star_exact/clusters64`
//! rows solve the demands of the `diurnal-report` and `live-hotspot`
//! benchmark workloads. `omega_c/point1024`, `provision/point1024` and
//! `provision/clusters256` run on the `million-point` and `flash-crowd`
//! demands, whose supports cover 1 of 1,048,576 and 487 of 65,536 cells;
//! `provision/uniform120` runs on the `diurnal-report` demand, which covers
//! 12,437 of 14,400. These rows count jobs as items. The run writes
//! `BENCH_offline.json` at the workspace root (`--test` runs each case
//! once and writes nothing).
//!
//! To pair the rows with another build, run this bench on that build
//! first, then here with `--baseline=PATH` naming its snapshot: the notes
//! then carry the snapshot's file name, its fastest sample and the
//! speed-up of every row both runs have.

use cmvrp_bench::harness::{Harness, Measurement};
use cmvrp_core::{omega_c, omega_star};
use cmvrp_grid::GridBounds;
use cmvrp_obs::json::quote;
use cmvrp_online::{provision, OnlineConfig};
use cmvrp_workloads::{spatial, WorkloadConfig};
use std::hint::black_box;

fn main() {
    let mut h = Harness::start("offline_bounds");
    for grid in [8u64, 12, 16] {
        let bounds = GridBounds::square(grid);
        let demand = spatial::zipf_clusters(&bounds, 3, 40 * grid, 7);
        h.bench(&format!("omega_star_exact/{grid}"), || {
            black_box(omega_star(&bounds, &demand).value);
        });
        h.bench(&format!("omega_c_linear/{grid}"), || {
            black_box(omega_c(&bounds, &demand));
        });
    }
    let workloads = [
        ("uniform120", "uniform:grid=120,jobs=28800,seed=7"),
        ("clusters64", "clusters:grid=64,k=8,jobs=50000,seed=7"),
        ("point1024", "point:grid=1024,demand=2000"),
        ("clusters256", "clusters:grid=256,k=16,jobs=100000,seed=7"),
    ];
    let mut notes = vec![(
        "demands".to_string(),
        workloads
            .map(|(name, spec)| format!("{name} = {spec}"))
            .join("; "),
    )];
    let [uniform120, clusters64, point1024, clusters256] = workloads.map(|(name, spec)| {
        let config: WorkloadConfig = spec.parse().expect("bench workload spec parses");
        let (bounds, demand) = config.generate().expect("bench workload fits its grid");
        (name, bounds, demand)
    });
    for (name, bounds, demand) in [&uniform120, &clusters64] {
        h.bench_with_items(&format!("omega_star_exact/{name}"), demand.total(), || {
            black_box(omega_star(bounds, demand).value);
        });
    }
    let (_, bounds, demand) = &point1024;
    h.bench_with_items("omega_c/point1024", demand.total(), || {
        black_box(omega_c(bounds, demand));
    });
    for (name, bounds, demand) in [&point1024, &clusters256, &uniform120] {
        h.bench_with_items(&format!("provision/{name}"), demand.total(), || {
            black_box(provision(bounds, demand, &OnlineConfig::default()));
        });
    }
    let baseline = std::env::args().find_map(|a| a.strip_prefix("--baseline=").map(String::from));
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(snapshot) => {
                let name = std::path::Path::new(&path).file_name().unwrap_or_default();
                notes.push(("baseline".to_string(), name.to_string_lossy().into_owned()));
                notes.extend(baseline_notes(h.results(), &snapshot));
            }
            Err(e) => eprintln!("warning: cannot read baseline {path}: {e}"),
        }
    }
    // `cargo bench` runs with the package dir as cwd; anchor the snapshot
    // at the workspace root next to the other BENCH_*.json files.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_offline.json");
    let notes: Vec<(&str, String)> = notes.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    if let Err(e) = h.write_snapshot(&out, &notes) {
        eprintln!("warning: could not write {}: {e}", out.display());
    }
    h.finish();
}

/// For every row also present in `snapshot` (a file this bench wrote on
/// another build): the baseline's fastest sample and `baseline / this`.
fn baseline_notes(rows: &[Measurement], snapshot: &str) -> Vec<(String, String)> {
    let mut notes = Vec::new();
    for m in rows {
        let key = format!("\"name\": {}", quote(&m.name));
        let Some(line) = snapshot.lines().find(|l| l.contains(&key)) else {
            continue;
        };
        let Some(base) = line
            .split_once("\"min_ns\": ")
            .and_then(|(_, rest)| rest.split(',').next())
            .and_then(|v| v.trim().parse::<f64>().ok())
        else {
            continue;
        };
        notes.push((format!("{} baseline_min_ns", m.name), format!("{base:.1}")));
        notes.push((
            format!("{} speedup", m.name),
            format!("{:.2}x", base / m.min_ns),
        ));
    }
    notes
}

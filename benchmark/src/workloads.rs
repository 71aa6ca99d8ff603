//! The four workloads and the inputs each one derives from the seed.
//!
//! The program under test only ever sees what is generated here: scenario
//! files, command-line arguments and wire requests. The demand layouts fix
//! how much work a run does, so they are part of each workload's
//! definition and the same for every seed; the seed varies the message
//! delays everywhere, and the arrival order on the workloads whose
//! protocol cost does not depend on it. (On `diurnal-report` the order
//! within a wave moves the maximum energy by up to 15%, so it stays fixed
//! there and `energy_over_omega_c` repeats exactly across seeds.)

use cmvrp_grid::{DemandMap, Point};
use cmvrp_util::Rng;
use cmvrp_workloads::{arrivals, JobSequence, Ordering, WorkloadConfig};
use std::path::{Path, PathBuf};

/// The seed of the fixed parts of a workload: demand layouts, and the
/// arrival order of `diurnal-report`.
const LAYOUT_SEED: u64 = 7;

/// A named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    shape: Shape,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    FlashCrowd,
    DiurnalReport,
    MillionPoint,
    LiveHotspot,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flash-crowd",
        why: "engine-heavy and message-dense: stepping, merge, CMVB encoding and inline checking do the work; omega* is never called",
        shape: Shape::FlashCrowd,
    },
    Workload {
        name: "diurnal-report",
        why: "scenario run dominated by the off-line omega* solver; little messaging, JSONL sink instead of CMVB",
        shape: Shape::DiurnalReport,
    },
    Workload {
        name: "million-point",
        why: "setup-heavy: provisioning a 1024x1024 grid outweighs stepping and omega*, which are both bypassed",
        shape: Shape::MillionPoint,
    },
    Workload {
        name: "live-hotspot",
        why: "cmvrp serve over one closed-loop connection: live injects with per-batch drains, so the wire path dominates",
        shape: Shape::LiveHotspot,
    },
];

/// The trace encoding a batch workload asks the CLI for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Cmvb,
    Jsonl,
}

/// The arrival order a batch scenario asks for.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// The default `batch` mode: every job at once, shuffled.
    Shuffled {
        seed: u64,
    },
    FlashCrowd {
        at: u64,
        seed: u64,
    },
    Diurnal {
        waves: u64,
        seed: u64,
    },
}

impl Arrivals {
    /// The scenario file's `[arrivals]` section.
    fn section(self) -> String {
        match self {
            Arrivals::Shuffled { seed } => format!("[arrivals]\nseed = {seed}\n"),
            Arrivals::FlashCrowd { at, seed } => {
                format!("[arrivals]\nmode = flash-crowd\nat = {at}\nseed = {seed}\n")
            }
            Arrivals::Diurnal { waves, seed } => {
                format!("[arrivals]\nmode = diurnal\nwaves = {waves}\nseed = {seed}\n")
            }
        }
    }

    /// The job order this section gives `demand`, as the scenario layer
    /// materializes it.
    pub fn sequence(self, demand: &DemandMap<2>) -> JobSequence<2> {
        match self {
            Arrivals::Shuffled { seed } => arrivals::from_demand(demand, Ordering::Shuffled, seed),
            Arrivals::FlashCrowd { at, seed } => arrivals::flash_crowd(demand, at, seed),
            Arrivals::Diurnal { waves, seed } => arrivals::diurnal(demand, waves, seed),
        }
    }
}

/// The scenario file's `[substrate]` and `[demand]` sections.
fn demand_sections(demand: &WorkloadConfig) -> String {
    let shape = match *demand {
        WorkloadConfig::Point { demand, .. } => format!("shape = point\ndemand = {demand}"),
        WorkloadConfig::Line { demand, .. } => format!("shape = line\ndemand = {demand}"),
        WorkloadConfig::Square { a, demand, .. } => {
            format!("shape = square\na = {a}\ndemand = {demand}")
        }
        WorkloadConfig::Uniform { jobs, seed, .. } => {
            format!("shape = uniform\njobs = {jobs}\nseed = {seed}")
        }
        WorkloadConfig::Clusters {
            clusters,
            jobs,
            seed,
            ..
        } => format!("shape = clusters\nk = {clusters}\njobs = {jobs}\nseed = {seed}"),
    };
    format!(
        "[substrate]\nside = {}\n\n[demand]\n{shape}\n",
        demand.grid()
    )
}

/// A workload run as one `cmvrp` process per run.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The generated scenario file, written from `demand` and `arrivals`.
    pub scenario: PathBuf,
    pub demand: WorkloadConfig,
    pub arrivals: Arrivals,
    /// The `--seed` the runs pass: the message delays.
    pub seed: u64,
    /// Jobs one run serves.
    pub jobs: u64,
    /// `scenario run` (ω*, ω_c and the baselines in a report) rather than
    /// `simulate`.
    pub report: bool,
    /// `--check`: inline invariant monitors.
    pub check: bool,
    /// The trace file a run writes, when it writes one.
    pub trace: Option<(Encoding, PathBuf)>,
}

impl Batch {
    /// The arguments of one timed run.
    pub fn args(&self) -> Vec<String> {
        let scenario = self.scenario.display().to_string();
        let mut args = if self.report {
            vec!["scenario".into(), "run".into(), scenario]
        } else {
            vec!["simulate".into(), format!("@{scenario}")]
        };
        args.push("--threads=1".into());
        args.push(format!("--seed={}", self.seed));
        if self.check {
            args.push("--check".into());
        }
        match &self.trace {
            Some((Encoding::Cmvb, path)) => args.push(format!("--trace-bin={}", path.display())),
            Some((Encoding::Jsonl, path)) => args.push(format!("--trace-jsonl={}", path.display())),
            None => {}
        }
        args
    }

    /// The arguments of the setup probe: the same scenario, stopped after
    /// its first round.
    pub fn probe_args(&self) -> Vec<String> {
        vec![
            "simulate".into(),
            format!("@{}", self.scenario.display()),
            "--threads=1".into(),
            format!("--seed={}", self.seed),
            "--stop-at-round=1".into(),
        ]
    }
}

/// A workload run as sessions against one `cmvrp serve` process.
#[derive(Debug, Clone)]
pub struct Live {
    /// The planning demand the `open` request names.
    pub demand: WorkloadConfig,
    /// `demand` as the `open` request's workload spec.
    pub spec: String,
    /// The `open` request's seed.
    pub seed: u64,
    /// The jobs to inject, in arrival order.
    pub jobs: Vec<Point<2>>,
    /// Injects between two `advance` + `query` pairs.
    pub batch: usize,
    /// ω_c of the planning demand.
    pub omega_c: f64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub enum Plan {
    Batch(Batch),
    Live(Live),
}

impl Workload {
    /// Generates the inputs for `seed` into `dir`; `smoke` shrinks the
    /// work about 100-fold.
    pub fn plan(&self, seed: u64, smoke: bool, dir: &Path) -> Result<Plan, String> {
        // Seeds the program sees are drawn from the benchmark seed, never
        // the seed itself; the range keeps them valid wire integers.
        let mut rng = Rng::seed_from_u64(seed);
        let mut draw = || rng.next_u64() % 1_000_000_007;
        let (arrival_seed, run_seed) = (draw(), draw());
        let pick = |full: u64, small: u64| if smoke { small } else { full };
        let scenario = dir.join("scenario.toml");
        let batch = |demand: WorkloadConfig, arrivals: Arrivals, jobs, report, check, trace| {
            let mut text = format!("{}\n{}", demand_sections(&demand), arrivals.section());
            if report {
                text.push_str("\n[report]\nbaselines = becker, gn\n");
            }
            std::fs::write(&scenario, text)
                .map_err(|e| format!("cannot write {}: {e}", scenario.display()))?;
            Ok(Plan::Batch(Batch {
                scenario: scenario.clone(),
                demand,
                arrivals,
                seed: run_seed,
                jobs,
                report,
                check,
                trace,
            }))
        };
        match self.shape {
            Shape::FlashCrowd => {
                let jobs = pick(100_000, 1_000);
                let demand = WorkloadConfig::Clusters {
                    grid: pick(256, 26),
                    clusters: pick(16, 4) as usize,
                    jobs,
                    seed: LAYOUT_SEED,
                };
                let arrivals = Arrivals::FlashCrowd {
                    at: 50,
                    seed: arrival_seed,
                };
                let trace = (Encoding::Cmvb, dir.join("trace.bin"));
                batch(demand, arrivals, jobs, false, true, Some(trace))
            }
            Shape::DiurnalReport => {
                let jobs = pick(28_800, 288);
                let demand = WorkloadConfig::Uniform {
                    grid: pick(120, 12),
                    jobs,
                    seed: LAYOUT_SEED,
                };
                let arrivals = Arrivals::Diurnal {
                    waves: 4,
                    seed: LAYOUT_SEED,
                };
                let trace = (Encoding::Jsonl, dir.join("trace.jsonl"));
                batch(demand, arrivals, jobs, true, false, Some(trace))
            }
            Shape::MillionPoint => {
                let jobs = pick(2_000, 20);
                let demand = WorkloadConfig::Point {
                    grid: pick(1024, 102),
                    demand: jobs,
                };
                let arrivals = Arrivals::Shuffled { seed: arrival_seed };
                batch(demand, arrivals, jobs, true, false, None)
            }
            Shape::LiveHotspot => {
                let (side, k, jobs) = (pick(64, 8), pick(8, 2), pick(50_000, 500));
                let spec = format!("clusters:grid={side},k={k},jobs={jobs},seed={LAYOUT_SEED}");
                let config: WorkloadConfig = spec.parse()?;
                let (bounds, demand) = config.generate().map_err(|e| e.to_string())?;
                Ok(Plan::Live(Live {
                    demand: config,
                    spec,
                    seed: run_seed,
                    jobs: arrivals::moving_hotspot(&demand, arrival_seed)
                        .jobs()
                        .to_vec(),
                    batch: pick(1_000, 10) as usize,
                    omega_c: cmvrp_core::omega_c(&bounds, &demand).to_f64(),
                }))
            }
        }
    }
}

#![warn(missing_docs)]

//! # cmvrp-scenario — the declarative workload surface
//!
//! One scenario representation for every frontend: the CLI (`cmvrp
//! simulate`, `cmvrp scenario run`), campaign specs, and the serve wire
//! `open` op all construct work through [`Scenario`]. A scenario is either
//! an inline `shape:key=value,...` spec (the historical `WorkloadConfig`
//! syntax, now a thin constructor layer under this type) or a sectioned
//! scenario *file* referenced as `@path.toml`:
//!
//! ```toml
//! name = "earthquake-flash"
//!
//! [substrate]
//! kind = grid            # the Z^2 substrate of the thesis
//! side = 12
//!
//! [demand]
//! shape = point          # point | line | square | uniform | clusters
//! demand = 250
//!
//! [arrivals]
//! mode = flash-crowd     # batch | sequential | uniform-rate | diurnal
//! at = 40                #   | flash-crowd | moving-hotspot | alternating
//!
//! [faults]
//! crash_at_rounds = 6, 14   # scripted crash+recover (scenario run only)
//!
//! [report]
//! baselines = becker, gn
//! ```
//!
//! Parsing is hand-rolled and hermetic; errors are line/column-scoped and
//! name the supported alternatives (see [`parse::ScenarioError`]).
//! [`Scenario::generate`] deterministically materializes `(bounds, demand,
//! jobs)`; the default `[arrivals] mode = batch` reproduces byte-for-byte
//! the job sequence the flag-built path has always used, so a scenario
//! file run is trace-identical to its equivalent flag run.
//!
//! The [`baselines`] module implements the two literature comparison
//! points (Becker tree-CVRP, Gørtz–Nagarajan-style makespan) that `cmvrp
//! scenario run` reports next to the paper bound and the protocol's cost.

use cmvrp_grid::{DemandMap, GridBounds};
use cmvrp_workloads::arrivals::{self, JobSequence, Ordering};
use cmvrp_workloads::spatial::ShapeError;
use cmvrp_workloads::WorkloadConfig;

pub mod baselines;
pub mod parse;

pub use parse::ScenarioError;

/// How the jobs of a demand map are released over time. `seed = None`
/// defers to the run seed at [`Scenario::generate`] time, which is what
/// keeps a default scenario byte-identical to the flag-built path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalSpec {
    /// One shuffled batch — the historical default of every frontend.
    Batch {
        /// Shuffle seed; `None` uses the run seed.
        seed: Option<u64>,
    },
    /// Positions release all their jobs consecutively, in point order.
    Sequential,
    /// A steady trickle: the support takes seeded turns, one job each.
    UniformRate {
        /// Turn-order seed; `None` uses the run seed.
        seed: Option<u64>,
    },
    /// Demand sweeps the field in vertical bands, like daylight.
    Diurnal {
        /// Number of bands.
        waves: u64,
        /// Within-wave shuffle seed; `None` uses the run seed.
        seed: Option<u64>,
    },
    /// A shuffled background with the heaviest point's jobs as one burst.
    FlashCrowd {
        /// Where the burst lands, as a percentage of the background.
        at: u64,
        /// Background shuffle seed; `None` uses the run seed.
        seed: Option<u64>,
    },
    /// A hotspot sweeping the field along the x axis.
    MovingHotspot {
        /// Jitter seed; `None` uses the run seed.
        seed: Option<u64>,
    },
    /// The §4.2 adversary: the two heaviest points alternate.
    Alternating {
        /// Leftover-shuffle seed; `None` uses the run seed.
        seed: Option<u64>,
    },
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec::Batch { seed: None }
    }
}

impl ArrivalSpec {
    /// Materializes the arrival order for `demand`; `default_seed` fills
    /// in for any seed the scenario left unspecified.
    pub fn sequence(&self, demand: &DemandMap<2>, default_seed: u64) -> JobSequence<2> {
        let seed = |s: Option<u64>| s.unwrap_or(default_seed);
        match *self {
            ArrivalSpec::Batch { seed: s } => {
                arrivals::from_demand(demand, Ordering::Shuffled, seed(s))
            }
            ArrivalSpec::Sequential => arrivals::from_demand(demand, Ordering::Sequential, 0),
            ArrivalSpec::UniformRate { seed: s } => arrivals::uniform_rate(demand, seed(s)),
            ArrivalSpec::Diurnal { waves, seed: s } => arrivals::diurnal(demand, waves, seed(s)),
            ArrivalSpec::FlashCrowd { at, seed: s } => arrivals::flash_crowd(demand, at, seed(s)),
            ArrivalSpec::MovingHotspot { seed: s } => arrivals::moving_hotspot(demand, seed(s)),
            ArrivalSpec::Alternating { seed: s } => {
                arrivals::alternating_from_demand(demand, seed(s))
            }
        }
    }

    /// A short label for tables.
    pub fn label(&self) -> String {
        match *self {
            ArrivalSpec::Batch { .. } => "batch".into(),
            ArrivalSpec::Sequential => "sequential".into(),
            ArrivalSpec::UniformRate { .. } => "uniform-rate".into(),
            ArrivalSpec::Diurnal { waves, .. } => format!("diurnal waves={waves}"),
            ArrivalSpec::FlashCrowd { at, .. } => format!("flash-crowd at={at}"),
            ArrivalSpec::MovingHotspot { .. } => "moving-hotspot".into(),
            ArrivalSpec::Alternating { .. } => "alternating".into(),
        }
    }
}

/// Scripted faults: rounds at which `cmvrp scenario run` crashes the
/// session and resumes it from its own snapshot, exercising the
/// checkpoint/resume seams. Empty means a fault-free run (and only
/// fault-free scenarios are accepted by `simulate` and the wire `open`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultScript {
    /// Strictly increasing absolute round numbers.
    pub crash_at_rounds: Vec<u64>,
}

impl FaultScript {
    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.crash_at_rounds.is_empty()
    }
}

/// A literature baseline to run in the summary report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Becker tree-CVRP (arXiv:1804.08791): edge lower bound + Euler split.
    Becker,
    /// Gørtz–Nagarajan-style min-makespan heuristic (arXiv:1102.5450).
    Gn,
}

/// What `cmvrp scenario run` reports alongside the protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSpec {
    /// Baselines to run, in report order.
    pub baselines: Vec<Baseline>,
    /// Per-tour/vehicle capacity `Q` for the baselines; `None` (`auto`)
    /// uses the capacity the protocol run provisioned.
    pub capacity: Option<u64>,
    /// Fleet size `m` for the makespan baseline; `None` (`auto`) uses
    /// `⌈jobs/Q⌉`.
    pub vehicles: Option<u64>,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            baselines: vec![Baseline::Becker, Baseline::Gn],
            capacity: None,
            vehicles: None,
        }
    }
}

/// A fully-described workload: spatial demand, arrival order, fault
/// script, and report configuration — the single construction path every
/// frontend funnels through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Optional scenario name (top-level `name = "..."`).
    pub name: Option<String>,
    /// The spatial demand shape (carries the substrate's grid side).
    pub demand: WorkloadConfig,
    /// How the demand's jobs arrive over time.
    pub arrivals: ArrivalSpec,
    /// Scripted crash/recover rounds (`scenario run` only).
    pub faults: FaultScript,
    /// Which baselines the summary report runs.
    pub report: ReportSpec,
}

impl Scenario {
    /// Wraps a bare [`WorkloadConfig`] in the default scenario: batch
    /// arrivals seeded by the run, no faults, the full baseline report.
    /// This is the compatibility layer every inline `shape:key=value`
    /// spec goes through.
    pub fn from_workload(demand: WorkloadConfig) -> Self {
        Scenario {
            name: None,
            demand,
            arrivals: ArrivalSpec::default(),
            faults: FaultScript::default(),
            report: ReportSpec::default(),
        }
    }

    /// Parses a workload spec: `@path.toml` loads and parses a scenario
    /// file (errors are prefixed with the path), anything else is the
    /// inline `shape:key=value,...` syntax. This is the shared entry
    /// point of `cmvrp simulate`, campaign `workload =` lines, and the
    /// wire `open` op, so all three reject bad input identically.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        if let Some(path) = spec.strip_prefix('@') {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario file {path:?}: {e}"))?;
            parse::parse(&text).map_err(|e| format!("{path}: {e}"))
        } else {
            spec.parse::<WorkloadConfig>().map(Scenario::from_workload)
        }
    }

    /// Parses the text of a scenario file (without the `@` indirection).
    pub fn parse_file(text: &str) -> Result<Self, ScenarioError> {
        parse::parse(text)
    }

    /// The grid side of the substrate.
    pub fn side(&self) -> u64 {
        self.demand.grid()
    }

    /// A short label: the scenario's name, or the demand's label.
    pub fn label(&self) -> String {
        self.name.clone().unwrap_or_else(|| self.demand.label())
    }

    /// Materializes the scenario: bounds, demand map, and the arrival
    /// sequence. `default_seed` (usually `OnlineConfig::seed`) fills in
    /// unspecified arrival seeds — with default batch arrivals the result
    /// is exactly the flag-built path's `(generate, shuffle(seed))`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the demand shape does not fit the
    /// substrate.
    pub fn generate(
        &self,
        default_seed: u64,
    ) -> Result<(GridBounds<2>, DemandMap<2>, JobSequence<2>), ShapeError> {
        let (bounds, demand) = self.demand.generate()?;
        let jobs = self.arrivals.sequence(&demand, default_seed);
        Ok((bounds, demand, jobs))
    }
}

/// Parses via [`Scenario::from_spec`] (including `@file` indirection).
impl std::str::FromStr for Scenario {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        Scenario::from_spec(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_spec_defaults_match_the_flag_path() {
        let sc = Scenario::from_spec("point:grid=9,demand=30").unwrap();
        assert_eq!(sc.side(), 9);
        assert_eq!(sc.label(), "point d=30");
        assert!(sc.faults.is_empty());
        let (bounds, demand, jobs) = sc.generate(7).unwrap();
        let (b2, d2) = sc.demand.generate().unwrap();
        assert_eq!(bounds, b2);
        assert_eq!(demand, d2);
        assert_eq!(jobs, arrivals::from_demand(&d2, Ordering::Shuffled, 7));
    }

    #[test]
    fn inline_spec_rejections_flow_through() {
        let err = Scenario::from_spec("blob:grid=4").unwrap_err();
        assert!(err.contains("supported shapes"), "{err}");
        let err = Scenario::from_spec("point:grid=9,demand=3,x=1").unwrap_err();
        assert!(err.contains("supported keys"), "{err}");
        let err = Scenario::from_spec("@/no/such/scenario.toml").unwrap_err();
        assert!(err.contains("cannot read scenario file"), "{err}");
    }

    #[test]
    fn file_parse_produces_the_same_instance() {
        let text = "name = \"t\"\n[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 30\n";
        let sc = Scenario::parse_file(text).unwrap();
        assert_eq!(sc.demand, "point:grid=9,demand=30".parse().unwrap());
        assert_eq!(sc.label(), "t");
        let flag = Scenario::from_spec("point:grid=9,demand=30").unwrap();
        assert_eq!(sc.generate(3).unwrap(), flag.generate(3).unwrap());
    }

    #[test]
    fn arrival_specs_are_deterministic_and_conserve_demand() {
        let (_, demand) = "clusters:grid=10,k=2,jobs=60,seed=3"
            .parse::<WorkloadConfig>()
            .unwrap()
            .generate()
            .unwrap();
        let specs = [
            ArrivalSpec::Batch { seed: None },
            ArrivalSpec::Sequential,
            ArrivalSpec::UniformRate { seed: Some(4) },
            ArrivalSpec::Diurnal {
                waves: 3,
                seed: None,
            },
            ArrivalSpec::FlashCrowd { at: 30, seed: None },
            ArrivalSpec::MovingHotspot { seed: None },
            ArrivalSpec::Alternating { seed: None },
        ];
        for spec in specs {
            let a = spec.sequence(&demand, 11);
            let b = spec.sequence(&demand, 11);
            assert_eq!(a, b, "{}", spec.label());
            assert_eq!(a.to_demand(), demand, "{}", spec.label());
            assert!(!spec.label().is_empty());
        }
    }
}

#![warn(missing_docs)]

//! # cmvrp — the Capacitated Multivehicle Routing Problem
//!
//! A full reproduction of *"On A Capacitated Multivehicle Routing Problem"*
//! (Xiaojie Gao, Caltech Ph.D. thesis, 2008; brief announcement at
//! PODC 2008): one vehicle per vertex of the grid `Z^ℓ`, unit energy per
//! step and per job, and the question of the minimal battery capacity `W`
//! that serves a demand function — off-line, on-line, with broken vehicles,
//! and with inter-vehicle energy transfers.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`grid`] | the `Z^ℓ` substrate: points, L1 balls, dilations, cubes, pairings |
//! | [`flow`] | max-flow, max-density subsets, the LP (2.1) machinery |
//! | [`net`] | message-passing simulator + Dijkstra–Scholten engine |
//! | [`core`] | `ω*`, `ω_c`, Algorithm 1, the Lemma 2.2.5 plan, §2.1 examples |
//! | [`online`] | the Chapter 3 decentralized on-line strategy: vehicles, messages, provisioning |
//! | [`engine`] | the one on-line engine: sharded, deterministic, parallel (million-vehicle grids) |
//! | [`serve`] | line-delimited JSON session server over `TcpListener` |
//! | [`ckpt`] | `CMVC` checkpoint format + campaign runner with dead-letter retries |
//! | [`ext`] | Chapter 4 (broken vehicles) and Chapter 5 (energy transfers) |
//! | [`workloads`] | demand/arrival generators |
//! | [`scenario`] | declarative scenario DSL + literature baselines (Becker, Gørtz–Nagarajan) |
//! | [`graph_ext`] | the Chapter 6 generalization to arbitrary weighted graphs |
//! | [`util`] | exact rationals, statistics, tables |
//!
//! # Quickstart
//!
//! ```
//! use cmvrp::core::Instance;
//! use cmvrp::grid::{DemandMap, GridBounds, pt2};
//!
//! // 40 sensor readings to process at the center of an 11x11 field.
//! let mut demand = DemandMap::new();
//! demand.add(pt2(5, 5), 40);
//! let inst = Instance::new(GridBounds::square(11), demand);
//!
//! // Theorem 1.4.1: ω* ≤ Woff ≤ 20·ω* in the plane.
//! let lower = inst.omega_star().value;
//! let plan = inst.plan_offline().unwrap();
//! let check = inst.verify(&plan);
//! assert!(check.is_valid());
//! assert!(lower.to_f64() <= check.max_energy as f64);
//! ```

pub use cmvrp_ckpt as ckpt;
pub use cmvrp_core as core;
pub use cmvrp_engine as engine;

// The execution surface: build an [`ExecConfig`] into a [`Session`], step
// it with `advance_until`/`advance_rounds`, feed it arrivals with `inject`,
// and stream events into a sink — or use the one-shot `execute` wrappers.
// Re-exported at the root so callers configure runs without spelling out
// the workspace crates.
pub use cmvrp_engine::{
    CheckScope, CheckSummary, CheckpointPolicy, EngineCheckpoint, EngineError, ExecConfig,
    Execution, RoundStats, Schedule, ScopedViolation, Session, ShardedOnlineSim, StepReport,
    WorkerStats,
};
pub use cmvrp_ext as ext;
pub use cmvrp_flow as flow;
pub use cmvrp_graph as graph_ext;
pub use cmvrp_grid as grid;
pub use cmvrp_net as net;
pub use cmvrp_obs as obs;
pub use cmvrp_online as online;
pub use cmvrp_scenario as scenario;

// The declarative workload surface: a scenario file (or inline spec) compiles
// to a [`Scenario`] that every frontend — `cmvrp simulate`, the campaign
// runner, and the serve wire protocol — turns into the same deterministic run.
pub use cmvrp_scenario::{ArrivalSpec, Baseline, FaultScript, ReportSpec, Scenario};
pub use cmvrp_serve as serve;
pub use cmvrp_util as util;
pub use cmvrp_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use cmvrp_core::{approx_woff, omega_c, omega_star, plan_offline, verify_plan, Instance};
    pub use cmvrp_engine::{
        CheckpointPolicy, EngineCheckpoint, EngineError, ExecConfig, Execution, Schedule, Session,
        ShardedOnlineSim, StepReport,
    };
    pub use cmvrp_grid::{pt1, pt2, pt3, DemandMap, GridBounds, Point};
    pub use cmvrp_obs::{JsonlSink, NullSink, RingSink, Sink, StaticSink, VecSink};
    pub use cmvrp_online::OnlineConfig;
    pub use cmvrp_scenario::{ArrivalSpec, Baseline, FaultScript, ReportSpec, Scenario};
    pub use cmvrp_util::Ratio;
    pub use cmvrp_workloads::{arrivals, spatial, Ordering, WorkloadConfig};
}

#![warn(missing_docs)]

//! The decentralized on-line CMVRP strategy of Chapter 3.
//!
//! Jobs arrive one at a time at grid vertices; no vehicle knows the demand
//! in advance. The strategy (§3.2):
//!
//! 1. Partition the grid into `⌈ω_c⌉`-cubes and chessboard-pair the vertices
//!    of each cube (adjacent black–white pairs, at most one singleton).
//! 2. One vehicle per pair starts **active** and serves the jobs arriving at
//!    either vertex of its pair (walks of length ≤ 1); the others are
//!    **idle**.
//! 3. When an active vehicle can no longer serve it becomes **done** and
//!    runs Phase I — the Dijkstra–Scholten diffusing computation of
//!    Algorithm 2 — to locate an idle vehicle in its cube; Phase II walks a
//!    `move` order down the recorded `child` path, and the idle vehicle
//!    relocates and takes over the pair.
//! 4. (§3.2.5) Optionally, active vehicles gossip periodic `existing`
//!    heartbeats and monitor a designated peer, so that a *silent* done
//!    vehicle (scenario 2) or a crashed vehicle (scenario 3) is detected
//!    and replaced by its monitor.
//!
//! Theorem 1.4.2 (via Lemma 3.3.1) provisions every vehicle with
//! `W = (4·3^ℓ + ℓ)·ω_c` energy and proves all jobs get served;
//! [`provision`] derives that capacity, and [`OnlineReport`] holds exactly
//! that accounting (unit cost per step and per job, free communication)
//! plus the maximum energy any vehicle actually drew, which experiment E7
//! compares against `ω_c`.
//!
//! This crate is the protocol only: the [`Vehicle`] process, its
//! [`OnlineMsg`] wire messages, the [`OnlineConfig`] and provisioning of a
//! run, and its [`OnlineReport`]. The driver that delivers jobs, keeps the
//! physical layer (positions, pairings, neighbor lists, the monitoring
//! ring) and lets the network quiesce between arrivals is the sharded
//! engine, `cmvrp_engine::ShardedOnlineSim`, run through
//! `cmvrp_engine::ExecConfig`.
//!
//! # Faithfulness notes
//!
//! * The thesis' strategy is parameterized by `ω_c`, a quantity of the full
//!   demand; the simulator likewise derives the cube side from the job
//!   sequence it is about to replay. This mirrors the analysis (which
//!   provisions capacity relative to `ω_c`), not an impossible prescience —
//!   the *protocol itself* uses no future information.
//! * Neighbor discovery (who is within communication distance) is a
//!   physical-layer service: the engine recomputes neighbor lists after
//!   vehicles move. All protocol state flows through messages.
//! * Crashed vehicles are dropped from neighbor lists by that same physical
//!   layer; Dijkstra–Scholten itself is not crash-tolerant (a query to a
//!   silent peer would never be answered), and the thesis' scenarios 2–3
//!   implicitly assume detection — here the heartbeat monitor provides it.
//!
//! # Examples
//!
//! ```
//! use cmvrp_grid::{pt2, DemandMap, GridBounds};
//! use cmvrp_online::{provision, OnlineConfig};
//!
//! // 30 jobs at the center of an 8x8 grid: cube side, ω_c and the
//! // per-vehicle battery the fleet is provisioned with.
//! let bounds = GridBounds::square(8);
//! let mut demand = DemandMap::new();
//! demand.add(pt2(4, 4), 30);
//! let prov = provision(&bounds, &demand, &OnlineConfig::default());
//! assert!(prov.side >= 1);
//! assert!(prov.capacity as f64 >= prov.omega.to_f64());
//! ```

pub mod config;
pub mod msg;
pub mod vehicle;

pub use config::{provision, OnlineConfig, OnlineReport, Provisioning};
pub use msg::OnlineMsg;
pub use vehicle::{Vehicle, VehicleSnapshot, WorkState};

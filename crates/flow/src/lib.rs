#![warn(missing_docs)]

//! LP/flow substrate for the CMVRP reproduction.
//!
//! Chapter 2 of the thesis characterizes the optimal off-line capacity
//! through the linear program (2.1) and its dual, culminating in
//! Lemma 2.2.2:
//!
//! > the value of LP (2.1) equals `max_T Σ_{x∈T} d(x) / |N_r(T)|`.
//!
//! This crate provides the machinery to compute **both sides of that
//! equality exactly** on finite instances:
//!
//! * [`maxflow`] — shortest-augmenting-path max-flow over `i128` capacities
//!   with min-cut extraction.
//! * [`density`] — the right-hand side: maximum-density subset selection via
//!   exact-rational Dinkelbach iteration over project-selection min-cuts.
//! * [`transport`] — the left-hand side: the radius-constrained
//!   supply/demand transportation feasibility oracle (the primal).
//! * [`grid_density`] — grid-specialized graph builders, including the
//!   layered BFS gadget that replaces `Θ(n^ℓ·r^ℓ)` coverage edges by
//!   `Θ(n^ℓ·r·ℓ)` gadget edges.
//! * [`alpha_h`] — the 1-D `α → h` decomposition of Lemma 2.2.1
//!   (Figures 2.4/2.5), with machine-checked identities.
//!
//! # Examples
//!
//! ```
//! use cmvrp_flow::maxflow::FlowNetwork;
//!
//! let mut net = FlowNetwork::new(4);
//! net.add_edge(0, 1, 3);
//! net.add_edge(0, 2, 2);
//! net.add_edge(1, 3, 2);
//! net.add_edge(2, 3, 3);
//! assert_eq!(net.max_flow(0, 3), 4);
//! ```

pub mod alpha_h;
pub mod density;
pub mod grid_density;
pub mod maxflow;
pub mod transport;

pub use density::{DensityProblem, DensityResult};
pub use grid_density::{max_density_over_grid, GridDensityResult};
pub use maxflow::{FlowNetwork, FlowStats};
pub use transport::{
    min_uniform_supply, transport_feasible, transport_flows, TransportFlow, TransportInstance,
};

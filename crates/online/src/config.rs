//! What a run of the protocol is given and what it reports: the
//! [`OnlineConfig`], the Lemma 3.3.1 [`provision`]ing of the fleet, and
//! the Theorem 1.4.2 accounting in [`OnlineReport`]. The driver that
//! executes the protocol is the sharded engine in `cmvrp-engine`.

use cmvrp_core::cubes::PrefixSums;
use cmvrp_grid::GridBounds;
use cmvrp_util::Ratio;

/// Configuration of an on-line simulation.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Message-delay RNG seed.
    pub seed: u64,
    /// Explicit battery capacity; `None` derives the Lemma 3.3.1
    /// provisioning from the job sequence.
    pub capacity_override: Option<u64>,
    /// Enable §3.2.5 heartbeat monitoring (needed for fault scenarios).
    pub monitored: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            seed: 1,
            capacity_override: None,
            monitored: false,
        }
    }
}

/// The derived per-run provisioning: cube side (Lemma 2.2.5), the demand's
/// `ω_c`, and the Lemma 3.3.1 battery capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provisioning {
    /// Cube side `⌈ω⌉` used for the partition.
    pub side: u64,
    /// The demand's `ω_c` (reported for ratio tables).
    pub omega: Ratio,
    /// Per-vehicle battery capacity `W`.
    pub capacity: u64,
}

/// Computes the cube side, `ω_c`, and battery capacity for a demand field,
/// honoring `config.capacity_override` when set. All three read one
/// support-compressed [`PrefixSums`] table.
pub fn provision<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &cmvrp_grid::DemandMap<D>,
    config: &OnlineConfig,
) -> Provisioning {
    let prefix = PrefixSums::new(*bounds, demand);
    let side = prefix.lemma_side();
    let omega = prefix.omega_c();
    let capacity = config.capacity_override.unwrap_or_else(|| {
        // Lemma 3.3.1 provisioning, discretized: a per-vehicle job
        // budget of 4·⌈M/side^ℓ⌉ + 4 (so at most half the cube's
        // vehicles can exhaust) plus the ℓ·ω_c relocation reserve.
        let m = prefix.max_window_sum(side) as u128;
        let per = m.div_ceil((side as u128).pow(D as u32));
        let job_budget = 4 * per as u64 + 4;
        job_budget + (D as u64) * side.saturating_sub(1) + 2
    });
    Provisioning {
        side,
        omega,
        capacity,
    }
}

/// Outcome of an on-line run — the quantities experiment E7 tabulates.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Jobs served.
    pub served: u64,
    /// Jobs that could not be served (0 under theorem provisioning).
    pub unserved: u64,
    /// The per-vehicle battery capacity used in this run.
    pub capacity: u64,
    /// Maximum energy any vehicle actually drew — the empirical `Won`.
    pub max_energy_used: u64,
    /// Replacements completed (Phase I + II cycles).
    pub replacements: u64,
    /// Diffusing computations that found no idle vehicle.
    pub failed_replacements: u64,
    /// Total messages delivered by the network.
    pub messages: u64,
    /// Mean per-message network delay in delivery steps (0 when silent).
    pub mean_msg_delay: f64,
    /// Largest per-message network delay observed.
    pub max_msg_delay: u64,
    /// High-water mark of the network's in-flight message queue.
    pub max_queue_depth: u64,
    /// Diffusing computations (message waves) initiated across the fleet.
    pub diffusions: u64,
    /// Heartbeat timeouts detected by watchers (monitored mode only).
    pub heartbeat_misses: u64,
    /// The `ω_c` of the realized demand (reported for ratio tables).
    pub omega_c: Ratio,
    /// The cube side used for the partition.
    pub cube_side: u64,
}

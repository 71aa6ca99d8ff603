//! Engine-level checkpoint state: a snapshot of a run taken at a quiescent
//! round barrier.
//!
//! A checkpoint captures everything the engine needs to continue a run as
//! if it had never stopped: the round/epoch counters and the
//! canonical-trace cursor, then per shard its job ledger, materialized
//! cubes and pairing activations, plus two records the engine does not
//! declare itself — each network's [`TransportSnapshot`] (clock, sequence
//! counter, delay-RNG state, delivery counters, delay histogram) and each
//! vehicle's [`VehicleSnapshot`] (its `(S1, S2)` state, counters and, with
//! monitoring on, its §3.2.5 ring state, so a monitored run resumes
//! byte-identically). Those two are the records the `CMVC` codec in
//! `cmvrp-ckpt` writes, field for field. Checkpoints are only taken at
//! round barriers, where every shard is quiescent (no messages in flight,
//! every diffusing computation terminated), so none of the transient
//! simulator state — in-flight envelopes, per-channel FIFO clamps,
//! diffusion bookkeeping — needs to be recorded; see the field docs for
//! the arguments.
//!
//! Coordinates are vectors rather than `Point<D>`, and every process is
//! named by its *global* vertex index rather than a shard-local id, so a
//! serializer can encode a checkpoint without knowing the grid dimension,
//! and the bytes are the same for every worker count. Resume maps them
//! back and refuses, with [`crate::EngineError::CheckpointMismatch`], a
//! record that does not fit the run.
//!
//! The resume-equivalence invariant: running to round `k`, checkpointing,
//! and resuming yields a trace tail byte-identical to the uninterrupted
//! run's — concatenating the two files equals the one file, for every
//! worker count.

use crate::online::COMM_RADIUS;
use cmvrp_grid::GridBounds;
use cmvrp_net::TransportSnapshot;
use cmvrp_online::{OnlineConfig, VehicleSnapshot};
use cmvrp_workloads::JobSequence;

/// A whole-run checkpoint: identity fingerprint, round/epoch/trace
/// cursors, the execution shape it was taken under, and one
/// [`ShardCheckpoint`] per shard (in shard order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCheckpoint {
    /// Fingerprint of the run inputs ([`run_fingerprint`]); resume
    /// refuses a checkpoint whose fingerprint does not match the inputs
    /// it is being applied to.
    pub fingerprint: u64,
    /// Lockstep rounds completed when the checkpoint was taken (absolute
    /// — a resumed run continues counting from here).
    pub rounds_completed: u64,
    /// The epoch the next round must start at: strictly above every
    /// shard's clock, so the resumed run's time bands continue the
    /// original run's disjoint ascending sequence.
    pub next_epoch: u64,
    /// Canonical merged-trace events emitted so far, *including* the
    /// `fleet_provisioned` header — the cursor that seeds
    /// [`cmvrp_obs::MergeChecker::resume_at`] and makes the resumed tail
    /// stitch onto the original trace by plain concatenation.
    pub trace_events: u64,
    /// Worker-thread bound of the run that wrote the checkpoint. The
    /// merged trace is thread-invariant, so resuming under a different
    /// bound is *sound* — this is recorded so front ends can flag a
    /// probably-unintended mismatch.
    pub threads: u64,
    /// Whether the writing run verified invariants inline.
    pub checked: bool,
    /// Per-shard state, indexed by shard id.
    pub shards: Vec<ShardCheckpoint>,
}

impl EngineCheckpoint {
    /// Jobs released across all shards — the next global job sequence
    /// number, used to seed the merge checker's ledger on resume.
    pub fn jobs_released(&self) -> u64 {
        self.shards.iter().map(|s| s.released).sum()
    }
}

/// One shard's durable state at a quiescent round barrier.
///
/// The shard's in-flight message queue is empty at a barrier (checked by
/// the transport when the snapshot is taken) and the per-channel FIFO
/// clamps can never bind after resume — the restored clock exceeds every
/// past delivery time — so neither is recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// The shard network's transport state.
    pub transport: TransportSnapshot,
    /// Jobs this shard has released (its ledger cursor: entry `released`
    /// of its job list is the next to go).
    pub released: u64,
    /// Jobs served.
    pub served: u64,
    /// Jobs unserved.
    pub unserved: u64,
    /// Completed replacement relocations.
    pub replacements: u64,
    /// Failed replacement searches.
    pub failed_replacements: u64,
    /// Materialized cube ids (coordinate vectors), in the order the shard
    /// materialized them: resume re-materializes in this order, so local
    /// process ids match the original run's.
    pub cubes: Vec<Vec<i64>>,
    /// Pairing activations `(cube id, pair index, global vehicle id)`,
    /// sorted.
    pub pair_active: Vec<(Vec<i64>, u64, u64)>,
    /// Every materialized vehicle, sorted by global id.
    pub vehicles: Vec<VehicleSnapshot>,
}

/// Fingerprints the inputs that determine a run: grid bounds, the exact
/// job sequence, every [`OnlineConfig`] field that shapes execution, and
/// the communication radius (a constant, hashed so that checkpoints on
/// disk keep matching).
/// Two runs with equal fingerprints produce identical traces, so a
/// checkpoint written by one may seed the other. FNV-1a over the
/// little-endian encoding — stable across platforms, hermetic, and cheap
/// next to a simulation run.
pub fn run_fingerprint<const D: usize>(
    bounds: &GridBounds<D>,
    jobs: &JobSequence<D>,
    config: &OnlineConfig,
) -> u64 {
    let mut fp = Fnv::new();
    fp.word(D as u64);
    for c in bounds.min() {
        fp.word(c as u64);
    }
    for c in bounds.max() {
        fp.word(c as u64);
    }
    fp.word(jobs.len() as u64);
    for job in jobs.iter() {
        for c in job.coords() {
            fp.word(c as u64);
        }
    }
    fp.word(config.seed);
    fp.word(COMM_RADIUS);
    match config.capacity_override {
        Some(w) => {
            fp.word(1);
            fp.word(w);
        }
        None => fp.word(0),
    }
    fp.word(u64::from(config.monitored));
    fp.finish()
}

/// Folds one externally injected job into a session fingerprint.
///
/// A [`run_fingerprint`] is sound because the fleet provisioning is a
/// pure function of the fingerprinted inputs; a session that accepts
/// arrivals through [`crate::Session::inject`] breaks that purity (the
/// fleet stays provisioned for the *planned* demand), so every injection
/// perturbs the fingerprint — mixing the barrier round it was applied at,
/// the shard it landed on, and its coordinates. A checkpoint written
/// after an injection can therefore never be resumed through the
/// plain-inputs path by accident: the fingerprints cannot match.
pub fn mix_injection(fingerprint: u64, round: u64, shard: u64, coords: &[i64]) -> u64 {
    let mut fp = Fnv(fingerprint);
    fp.word(0x696e_6a65_6374); // "inject"
    fp.word(round);
    fp.word(shard);
    for &c in coords {
        fp.word(c as u64);
    }
    fp.finish()
}

/// Marks a session fingerprint as *live-provisioned*: the job sequence
/// hashed by [`run_fingerprint`] was planning demand only (no jobs were
/// preloaded), so the fingerprint must differ from a preloaded run over
/// the same inputs — their traces diverge from round 1.
pub fn mix_live_session(fingerprint: u64) -> u64 {
    let mut fp = Fnv(fingerprint);
    fp.word(0x6c69_7665); // "live"
    fp.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_workloads::{arrivals, spatial, Ordering};

    fn inputs(side: u64, jobs: usize, seed: u64) -> (GridBounds<2>, JobSequence<2>) {
        let bounds = GridBounds::square(side);
        let demand = spatial::point(&bounds, jobs as u64);
        (
            bounds,
            arrivals::from_demand(&demand, Ordering::Shuffled, seed),
        )
    }

    #[test]
    fn fingerprint_is_stable_for_equal_inputs() {
        let (bounds, jobs) = inputs(12, 40, 7);
        let config = OnlineConfig::default();
        assert_eq!(
            run_fingerprint(&bounds, &jobs, &config),
            run_fingerprint(&bounds, &jobs, &config),
        );
    }

    #[test]
    fn fingerprint_separates_every_input() {
        let (bounds, jobs) = inputs(12, 40, 7);
        let config = OnlineConfig::default();
        let base = run_fingerprint(&bounds, &jobs, &config);

        let (other_bounds, _) = inputs(16, 40, 7);
        assert_ne!(base, run_fingerprint(&other_bounds, &jobs, &config));

        // A point workload is shuffle-invariant, so vary the job count.
        let (_, other_jobs) = inputs(12, 41, 7);
        assert_ne!(base, run_fingerprint(&bounds, &other_jobs, &config));

        let reseeded = OnlineConfig {
            seed: 2,
            ..OnlineConfig::default()
        };
        assert_ne!(base, run_fingerprint(&bounds, &jobs, &reseeded));

        let capped = OnlineConfig {
            capacity_override: Some(64),
            ..OnlineConfig::default()
        };
        assert_ne!(base, run_fingerprint(&bounds, &jobs, &capped));
    }
}

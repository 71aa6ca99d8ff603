//! `cmvrp-engine` — a spatially sharded, deterministic, parallel execution
//! engine for the CMVRP on-line protocol (Gao 2008, Chapter 3), and the
//! one driver of that protocol: `cmvrp-online` holds the vehicle process
//! and its messages, this crate delivers the jobs, keeps the physical
//! layer (positions, pairings, neighbor lists, the §3.2.5 monitoring
//! ring), and injects faults.
//!
//! It runs the protocol from a handful of vehicles to million-vehicle
//! grids with three ingredients:
//!
//! - **Spatial sharding** ([`shard`]): the grid is partitioned into
//!   contiguous, cube-aligned shards. Because the protocol's communication
//!   is confined to `⌈ω⌉`-cubes, cube-aligned shards exchange no protocol
//!   messages at all.
//! - **Conservative lockstep rounds** ([`rounds`]): the network's minimum
//!   message delay of one tick is the classical conservative-PDES
//!   lookahead. Shards advance in barrier-synchronized rounds whose time
//!   bands are disjoint and ascending, and a fixed round-robin map gives
//!   each shard to one worker, so results are independent of the worker
//!   count.
//! - **Sparse vehicle state** ([`online`]): vehicles materialize lazily,
//!   cube by cube, the first time demand lands nearby. An idle vehicle at
//!   home with a full battery is implicit — memory is proportional to
//!   *active* vehicles, not grid volume.
//!
//! ## Configuring a run: [`ExecConfig`]
//!
//! [`ExecConfig`] is the single construction path — a builder that starts
//! at one worker thread, and adds workers, inline checking, profiling and
//! checkpointing:
//!
//! ```
//! use cmvrp_engine::ExecConfig;
//! use cmvrp_grid::GridBounds;
//! use cmvrp_obs::NullSink;
//! use cmvrp_online::OnlineConfig;
//! use cmvrp_workloads::{arrivals, spatial, Ordering};
//!
//! let bounds = GridBounds::square(12);
//! let demand = spatial::point(&bounds, 100);
//! let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
//! let exec = ExecConfig::new().threads(4).check(true);
//! let run = exec
//!     .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
//!     .unwrap();
//! assert_eq!(run.report.unserved, 0);
//! assert!(run.check.unwrap().is_clean());
//! ```
//!
//! ## Checkpoint and resume
//!
//! A run can snapshot itself at any round barrier — every shard
//! quiescent, every emitted event already merged — into an
//! [`EngineCheckpoint`], and a later process can
//! [`resume`](ShardedOnlineSim::resume) from it: the trace tail after
//! resume is byte-identical to the uninterrupted run's, so concatenating
//! the two traces equals the one trace. [`CheckpointPolicy`] configures
//! the cadence (and an optional stop round) on the builder;
//! [`ExecConfig::execute_with_checkpoints`] is the entry point that
//! accepts the checkpoint observer and an optional checkpoint to resume
//! from. Serialization lives upstack (the `cmvrp-ckpt` crate): the engine
//! deals in plain-data snapshots only.
//!
//! ## The streaming pipeline
//!
//! Events *flow* instead of accumulating: [`ExecConfig::execute`] takes a
//! caller-supplied `&mut dyn Sink` and streams the canonical merged event
//! order into it as the simulation executes. The engine performs its
//! `(time, shard, sequence)` k-way merge incrementally at each round
//! barrier, so peak buffering is one round's events rather than the whole
//! trace. With [`ExecConfig::check`] the run is additionally validated
//! inline — per-shard [`cmvrp_obs::TraceChecker`]s for the shard-local
//! invariants plus a merge-time [`cmvrp_obs::MergeChecker`] for the global
//! clock and job-ledger — and the verdict comes back in
//! [`Execution::check`].
//!
//! The observability stack is the determinism oracle: the merged JSONL
//! trace is byte-identical for 1, 2, 3, and 8 workers while satisfying
//! every monitor.
//!
//! Everything here is hermetic: `std::thread`, one barrier and a mutex
//! per shard, zero external dependencies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod online;
pub mod rounds;
pub mod session;
pub mod shard;

pub use checkpoint::{
    mix_injection, mix_live_session, run_fingerprint, EngineCheckpoint, ShardCheckpoint,
    VehicleCheckpoint,
};
pub use online::{ShardSink, ShardedOnlineSim};
pub use rounds::{
    run_lockstep, LockstepStart, RoundControl, RoundInfo, RoundOutcome, RoundStats, ShardWorker,
    WorkerStats,
};
pub use session::{Session, StepReport};
pub use shard::{ShardMap, MAX_SHARDS};

use cmvrp_grid::GridBounds;
use cmvrp_obs::{Metrics, Sink, Violation};
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_workloads::JobSequence;

/// Why the engine refused to resume or step a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A checkpoint was written by a run with different inputs (grid
    /// bounds, job sequence, seed, or capacity override) than the run
    /// trying to resume from it. Both fingerprints are carried so the
    /// message can show them.
    ResumeMismatch {
        /// Fingerprint of the inputs the resume was attempted with.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// [`Session::inject`] was handed a job outside the grid bounds the
    /// session was built over.
    InjectOutOfBounds,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ResumeMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a different run: its input \
                 fingerprint is {found:#018x} but this run's inputs hash \
                 to {expected:#018x}; resume needs the same grid, job \
                 sequence, seed, and capacity — only --threads may \
                 differ",
            ),
            EngineError::InjectOutOfBounds => write!(
                f,
                "injected job lies outside the session's grid bounds; \
                 sessions accept arrivals only inside the bounds they were \
                 provisioned over — query Session::bounds for the valid \
                 region, or open a session over larger bounds",
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Where a checked run's violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckScope {
    /// Found on the canonical merged stream by the merge-time monitors.
    Merged,
    /// Found by the given shard's inline checker on its local stream;
    /// violation lines count that shard's events.
    Shard(usize),
}

impl std::fmt::Display for CheckScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckScope::Merged => write!(f, "merged"),
            CheckScope::Shard(index) => write!(f, "shard {index}"),
        }
    }
}

/// A [`Violation`] tagged with where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopedViolation {
    /// Which stream the violation was found on.
    pub scope: CheckScope,
    /// The underlying invariant violation.
    pub violation: Violation,
}

impl std::fmt::Display for ScopedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.scope, self.violation)
    }
}

/// Verdict of a checked run ([`ExecConfig::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// Events observed on the canonical merged stream (including the
    /// `fleet_provisioned` header).
    pub events: u64,
    /// Every violation found, across the merged stream and each shard's
    /// inline checker.
    pub violations: Vec<ScopedViolation>,
}

impl CheckSummary {
    /// Whether the run satisfied every monitored invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The outcome of a run: the Theorem 1.4.2 accounting, a snapshot of the
/// always-on metrics registries, and — for checked runs — the inline
/// verification verdict. The event stream itself went to the caller's
/// sink.
#[derive(Debug)]
pub struct Execution {
    /// The on-line report (served/unserved, energy, replacements, …).
    pub report: OnlineReport,
    /// Always-on metrics: the `net.*` transport registry plus the
    /// `online.*` fleet counters and energy distribution and the
    /// `engine.*` executor counters (rounds, per-worker busy time, shards
    /// stepped).
    pub metrics: Metrics,
    /// Inline verification verdict; `Some` exactly for checked runs.
    pub check: Option<CheckSummary>,
}

/// How to execute the on-line protocol: the single construction path used
/// by the CLI, the server, the benches, and the tests.
///
/// `ExecConfig::new()` runs the sharded engine on one worker thread;
/// [`threads`] raises the worker bound. Traces and reports are the same
/// for every worker count. [`check`] makes every run verify the protocol
/// invariants inline. The builder is `Copy`, so configs can be built
/// inline at the call site:
///
/// ```
/// use cmvrp_engine::ExecConfig;
///
/// let quick = ExecConfig::new();                       // one worker
/// let parallel = ExecConfig::new().threads(8);          // eight
/// let verified = ExecConfig::new().threads(8).check(true); // verified inline
/// assert_eq!(quick, ExecConfig::new().threads(1));
/// assert_ne!(quick, parallel);
/// assert!(verified.is_checked());
/// ```
///
/// [`threads`]: ExecConfig::threads
/// [`check`]: ExecConfig::check
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
    check: bool,
    profile: bool,
    progress: bool,
    ckpt: CheckpointPolicy,
}

/// When a run snapshots itself: a cadence, a stop round, both, or
/// (the default) neither. The policy carries no file path — the engine
/// hands [`EngineCheckpoint`]s to a caller-supplied observer, and where
/// they go (a `CMVC` file, a test vector) is the caller's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Snapshot at every round divisible by this (absolute round numbers,
    /// so a resumed run continues the original cadence). `None` disables
    /// cadence checkpoints.
    pub every: Option<u64>,
    /// End the run right after this round's barrier (checkpointing it
    /// first, when an observer is installed), leaving the job sequence
    /// unfinished — the "run to round `k`" half of the resume-equivalence
    /// oracle. `None` runs to completion.
    pub stop_at: Option<u64>,
}

impl CheckpointPolicy {
    /// Whether this policy asks for any checkpoint work at all.
    pub fn is_active(&self) -> bool {
        self.every.is_some() || self.stop_at.is_some()
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            check: false,
            profile: false,
            progress: false,
            ckpt: CheckpointPolicy::default(),
        }
    }
}

impl ExecConfig {
    /// The default execution: one worker thread, no inline checking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs on up to `n` worker threads (values below 1 are clamped to 1;
    /// the effective count is further clamped to the shard count at run
    /// time).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Verify the protocol invariants inline while the run streams; the
    /// verdict comes back in [`Execution::check`]. The event bytes
    /// reaching the sink are identical either way.
    pub fn check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// The worker-thread bound.
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Whether runs verify the protocol invariants inline.
    pub fn is_checked(&self) -> bool {
        self.check
    }

    /// Enables the flight recorder: at every round barrier the engine
    /// appends one [`cmvrp_obs::Event::RoundProfile`] sample per worker to
    /// the trace — busy, barrier-wait, merge, and sink nanoseconds plus
    /// the event count. Samples are first-class trace events with
    /// their own kind; stripping `round_profile` lines recovers the
    /// unprofiled trace byte for byte.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Enables the live progress line on stderr (round, events/s, jobs
    /// released, active vehicles, ETA), repainted at most every ~250 ms.
    pub fn progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Whether the flight recorder writes per-round profile samples.
    pub fn is_profiled(&self) -> bool {
        self.profile
    }

    /// Whether runs paint the live progress line.
    pub fn is_progress(&self) -> bool {
        self.progress
    }

    /// Installs a [`CheckpointPolicy`]: the cadence/stop-round contract
    /// under which [`execute_with_checkpoints`] hands snapshots to its
    /// observer. A cadence of 0 is clamped to 1 (every round).
    ///
    /// [`execute_with_checkpoints`]: ExecConfig::execute_with_checkpoints
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = CheckpointPolicy {
            every: policy.every.map(|r| r.max(1)),
            stop_at: policy.stop_at,
        };
        self
    }

    /// The configured checkpoint policy (inactive by default).
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.ckpt
    }

    /// Opens a [`Session`] over a preloaded job schedule: the resumable,
    /// steppable form of [`execute`](ExecConfig::execute).
    ///
    /// # Errors
    ///
    /// None: the `Result` mirrors
    /// [`resume_build`](ExecConfig::resume_build), which can refuse a
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if any job lies outside `bounds`.
    pub fn build<const D: usize>(
        &self,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
    ) -> Result<Session<D>, EngineError> {
        Session::open(self, bounds, jobs, config, None, true, true)
    }

    /// Opens a *live* [`Session`]: the fleet is provisioned for `jobs`
    /// (the planning demand) but no job is queued — arrivals stream in
    /// through [`Session::inject`]. This is the `cmvrp serve` shape: same
    /// capacity, cube side, and shard layout as a preloaded run over
    /// `jobs`, with the schedule decided at run time.
    ///
    /// # Errors
    ///
    /// Same as [`build`](ExecConfig::build).
    pub fn build_live<const D: usize>(
        &self,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
    ) -> Result<Session<D>, EngineError> {
        Session::open(self, bounds, jobs, config, None, false, true)
    }

    /// Opens a [`Session`] positioned at `resume`: the steppable form of
    /// resuming through
    /// [`execute_with_checkpoints`](ExecConfig::execute_with_checkpoints).
    ///
    /// # Errors
    ///
    /// [`EngineError::ResumeMismatch`] when `resume` was written by a run
    /// with different inputs.
    pub fn resume_build<const D: usize>(
        &self,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        resume: &EngineCheckpoint,
    ) -> Result<Session<D>, EngineError> {
        Session::open(self, bounds, jobs, config, Some(resume), true, true)
    }

    /// Runs the engine to completion, honoring
    /// [`check`](ExecConfig::check): the one-shot entry point the CLI and
    /// benches call.
    ///
    /// # Errors
    ///
    /// None: the `Result` mirrors
    /// [`execute_with_checkpoints`](ExecConfig::execute_with_checkpoints),
    /// which can refuse a checkpoint.
    pub fn execute<const D: usize>(
        &self,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        sink: &mut dyn Sink,
    ) -> Result<Execution, EngineError> {
        self.execute_with_checkpoints(bounds, jobs, config, sink, None, &mut |_| {})
    }

    /// [`execute`](ExecConfig::execute) with checkpoint plumbing: when
    /// the builder carries a [`CheckpointPolicy`], `observer` receives an
    /// [`EngineCheckpoint`] at every policy-selected round barrier; when
    /// `resume` is given, the run continues from that checkpoint instead
    /// of starting fresh — the trace streamed into `sink` is exactly the
    /// tail the uninterrupted run would have produced after that round,
    /// and a checked resume seeds the merge-time monitors from the
    /// checkpoint's cursors.
    ///
    /// This is a *thin wrapper*: it opens a [`Session`] (preloaded or
    /// resumed), [`drain`](Session::drain_observed)s it to completion into
    /// `sink`, and [`finish`](Session::finish)es it — one batch of the
    /// exact round loop a stepped session runs.
    ///
    /// # Errors
    ///
    /// [`EngineError::ResumeMismatch`] when `resume` was written by a run
    /// with different inputs.
    pub fn execute_with_checkpoints<const D: usize>(
        &self,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        sink: &mut dyn Sink,
        resume: Option<&EngineCheckpoint>,
        observer: &mut dyn FnMut(EngineCheckpoint),
    ) -> Result<Execution, EngineError> {
        // The sink-enabled flag routes untraced, unobserved runs onto the
        // non-buffering shard sinks inside the session (profiling,
        // progress, and checkpointing force the streaming path — a
        // checkpoint's trace cursor must count merged events either way).
        let mut session =
            Session::open(self, bounds, jobs, config, resume, true, sink.is_enabled())?;
        session.drain_observed(sink, observer);
        Ok(session.finish())
    }
}

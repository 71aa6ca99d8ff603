//! The resumable execution session: the engine's primary surface.
//!
//! A [`Session`] owns a sharded run positioned at a round barrier and
//! advances it incrementally: [`advance_until`](Session::advance_until)
//! and [`advance_rounds`](Session::advance_rounds) execute bounded
//! batches of conservative lockstep rounds, streaming the canonical
//! merged trace into a caller-supplied `&mut dyn Sink` as they go;
//! [`inject`](Session::inject) queues external arrivals that are applied
//! at the next round barrier; [`snapshot`](Session::snapshot) captures an
//! [`EngineCheckpoint`] of the current barrier;
//! [`drain`](Session::drain) runs the remaining schedule to completion;
//! and [`finish`](Session::finish) closes the session into the familiar
//! [`Execution`] (report, metrics, and — for checked sessions — the
//! inline-verification verdict).
//!
//! ## Determinism across arbitrary stepping
//!
//! Splitting a run into `advance_*` batches — down to one round per call
//! — produces byte-identical merged-trace output to a one-shot
//! [`ExecConfig::execute`], for every worker count, because
//! a batch is just the engine's ordinary round loop stopped at a barrier:
//! the continuation cursor (epoch, round, job sequence number, trace
//! count) is carried between batches exactly like the checkpoint/resume
//! machinery carries it between processes.
//!
//! ## Injection semantics
//!
//! [`inject`](Session::inject) appends to a pending queue; the batch
//! *entry* barrier of the next `advance_*`/`drain` call routes each
//! pending job to its shard and appends it to that shard's release queue.
//! Each shard releases one queued job per round, and global trace
//! sequence numbers are staged barrier by barrier in `(round, shard)`
//! order, so the effective arrival schedule is exactly "construction jobs
//! then injections, in order" projected onto shards — and a session's
//! trace is byte-identical to a one-shot run over that effective
//! schedule whenever each shard's queue stays dense (every injection
//! lands before — or exactly when — its shard runs dry while other
//! shards still work; a single-shard workload such as a point source
//! always qualifies, even when injections arrive after a full drain,
//! because an idle session advances no rounds). The fleet stays
//! provisioned for the demand the session was *built* with: injected
//! jobs are extra load the capacity argument of Theorem 1.4.2 does not
//! cover, and the accounting reports them served or unserved honestly.

use crate::online::{DriveCursor, StepLimit};
use crate::{CheckScope, CheckSummary, ScopedViolation};
use crate::{EngineCheckpoint, EngineError, ExecConfig, Execution, ShardSink, ShardedOnlineSim};
use cmvrp_grid::{GridBounds, Point};
use cmvrp_obs::{MergeChecker, Metrics, NullSink, Sink, VecSink};
use cmvrp_online::{OnlineConfig, OnlineReport, Provisioning};
use cmvrp_workloads::JobSequence;

/// A resumable, steppable execution of the on-line protocol, positioned
/// at a round barrier between calls. Construct one with
/// [`ExecConfig::build`] (preloaded schedule),
/// [`ExecConfig::build_live`] (empty queue, arrivals via
/// [`inject`](Session::inject)), or [`ExecConfig::resume_build`]
/// (continue a checkpoint).
///
/// # Examples
///
/// ```
/// use cmvrp_engine::ExecConfig;
/// use cmvrp_grid::GridBounds;
/// use cmvrp_obs::VecSink;
/// use cmvrp_online::OnlineConfig;
/// use cmvrp_workloads::{arrivals, spatial, Ordering};
///
/// let bounds = GridBounds::square(12);
/// let demand = spatial::point(&bounds, 40);
/// let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
/// let mut session = ExecConfig::new()
///     .threads(2)
///     .build(bounds, &jobs, OnlineConfig::default())
///     .unwrap();
/// let mut sink = VecSink::new();
/// // Step a few rounds, then run the rest to completion.
/// let step = session.advance_rounds(5, &mut sink);
/// assert_eq!(step.rounds, 5);
/// session.drain(&mut sink);
/// let run = session.finish();
/// assert_eq!(run.report.unserved, 0);
/// ```
#[derive(Debug)]
pub struct Session<const D: usize> {
    exec: ExecConfig,
    bounds: GridBounds<D>,
    pending: Vec<Point<D>>,
    injected: u64,
    inner: Inner<D>,
}

/// The two sink shapes a session runs over, fixed at construction:
/// non-buffering shards for untraced runs, and buffering shards for
/// streaming and verified runs; a verified run's shards check each round
/// and `cross` checks the merged stream.
#[derive(Debug)]
enum Inner<const D: usize> {
    Silent {
        sim: ShardedOnlineSim<D, NullSink>,
    },
    Streaming {
        sim: ShardedOnlineSim<D, VecSink>,
        cross: Option<MergeChecker>,
    },
}

/// What one `advance_*`/`drain` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Lockstep rounds executed by this call.
    pub rounds: u64,
    /// Canonical merged events streamed into the sink by this call
    /// (counting the `fleet_provisioned` header when this call emitted
    /// it).
    pub events: u64,
    /// The session clock after the call: the maximum shard-local
    /// simulation time (0 before any round has run).
    pub now: u64,
    /// Whether every applied job has been released — the session will
    /// advance no further rounds until new jobs are injected.
    pub idle: bool,
}

/// A batch bound relative to the session's current cursor.
#[derive(Debug, Clone, Copy)]
enum RelLimit {
    Drain,
    Until(u64),
    Rounds(u64),
}

/// Dispatches a stepping call across the two sink shapes, splitting the
/// session borrow so the generic driver can take the simulation and
/// bookkeeping fields independently.
macro_rules! step_dispatch {
    ($self:expr, $sink:expr, $observer:expr, $limit:expr) => {{
        let Session {
            exec,
            pending,
            inner,
            ..
        } = $self;
        match inner {
            Inner::Silent { sim } => step_inner(sim, None, exec, pending, $sink, $observer, $limit),
            Inner::Streaming { sim, cross } => {
                step_inner(sim, cross.as_mut(), exec, pending, $sink, $observer, $limit)
            }
        }
    }};
}

impl<const D: usize> Session<D> {
    /// Builds a session under `exec`. `preload` queues `jobs` for release
    /// (the [`ExecConfig::execute`] shape); otherwise `jobs` is planning
    /// demand only and the queues start empty. `sink_enabled` routes
    /// untraced, unobserved runs onto the non-buffering shard sinks.
    pub(crate) fn open(
        exec: &ExecConfig,
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        resume: Option<&EngineCheckpoint>,
        preload: bool,
        sink_enabled: bool,
    ) -> Result<Self, EngineError> {
        let streaming = sink_enabled
            || exec.is_checked()
            || exec.is_profiled()
            || exec.is_progress()
            || exec.checkpoint_policy().is_active();
        let inner = if streaming {
            let sim = match resume {
                Some(ckpt) => ShardedOnlineSim::<D, VecSink>::resume(bounds, jobs, config, ckpt)?,
                None if preload => ShardedOnlineSim::new(bounds, jobs, config),
                None => ShardedOnlineSim::new_live(bounds, jobs, config),
            };
            let cross = exec.is_checked().then(|| {
                let mut cross = MergeChecker::new();
                if let Some(ckpt) = resume {
                    // Seed the merge-time monitors with the checkpoint's
                    // cursors: the resumed stream starts mid-trace, at the
                    // recorded event count, above every pre-checkpoint
                    // timestamp, at the next global job sequence number.
                    cross.resume_at(
                        ckpt.trace_events,
                        ckpt.next_epoch.saturating_sub(1),
                        ckpt.jobs_released(),
                    );
                }
                cross
            });
            Inner::Streaming { sim, cross }
        } else {
            let sim = match resume {
                Some(ckpt) => ShardedOnlineSim::<D, NullSink>::resume(bounds, jobs, config, ckpt)?,
                None if preload => ShardedOnlineSim::new(bounds, jobs, config),
                None => ShardedOnlineSim::new_live(bounds, jobs, config),
            };
            Inner::Silent { sim }
        };
        Ok(Session {
            exec: *exec,
            bounds,
            pending: Vec::new(),
            injected: 0,
            inner,
        })
    }

    /// Queues one external arrival. The job is applied — routed to its
    /// shard and appended to that shard's release queue — at the next
    /// round barrier, i.e. at the entry of the next
    /// `advance_*`/[`drain`](Session::drain) call, so determinism is
    /// untouched: a batch in flight never observes a half-applied queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::InjectOutOfBounds`] when `job` lies outside the
    /// bounds the session was built over ([`bounds`](Session::bounds)).
    pub fn inject(&mut self, job: Point<D>) -> Result<(), EngineError> {
        if !self.bounds.contains(job) {
            return Err(EngineError::InjectOutOfBounds);
        }
        self.pending.push(job);
        self.injected += 1;
        Ok(())
    }

    /// Advances through every round whose starting epoch is `<= epoch`,
    /// streaming that batch's canonical merged events into `sink`. The
    /// session clock may end past `epoch` (a round started at or before
    /// `epoch` runs its protocol activity to quiescence), and an idle
    /// session — no queued jobs — advances neither rounds nor time.
    pub fn advance_until(&mut self, epoch: u64, sink: &mut dyn Sink) -> StepReport {
        step_dispatch!(self, sink, None, RelLimit::Until(epoch))
    }

    /// Advances at most `rounds` further lockstep rounds (fewer when the
    /// queued work runs out), streaming into `sink`. `advance_rounds(1, …)`
    /// single-steps the engine.
    pub fn advance_rounds(&mut self, rounds: u64, sink: &mut dyn Sink) -> StepReport {
        step_dispatch!(self, sink, None, RelLimit::Rounds(rounds))
    }

    /// Runs the remaining schedule to completion (or to the builder's
    /// [`crate::CheckpointPolicy::stop_at`] round), streaming into
    /// `sink` — the run-to-completion shape [`ExecConfig::execute`]
    /// wraps. Always executes at least one round, exactly like a one-shot
    /// run over an empty schedule does.
    pub fn drain(&mut self, sink: &mut dyn Sink) -> StepReport {
        step_dispatch!(self, sink, None, RelLimit::Drain)
    }

    /// [`drain`](Session::drain) with checkpoint capture, the shape
    /// [`ExecConfig::execute_with_checkpoints`] wraps.
    pub fn drain_observed(
        &mut self,
        sink: &mut dyn Sink,
        observer: &mut dyn FnMut(EngineCheckpoint),
    ) -> StepReport {
        step_dispatch!(self, sink, Some(observer), RelLimit::Drain)
    }

    /// Captures an [`EngineCheckpoint`] of the current barrier — the same
    /// plain-data snapshot the in-run observer path produces, so the
    /// `CMVC` serialization and inspection machinery apply unchanged.
    /// Pending (not yet applied) injections are *not* part of the
    /// snapshot: shard queues are reconstructed from the construction
    /// inputs on resume, so a snapshot taken after any injection carries
    /// a perturbed fingerprint that no stock resume path accepts —
    /// honest refusal rather than silent divergence.
    pub fn snapshot(&self) -> EngineCheckpoint {
        match &self.inner {
            Inner::Silent { sim } => sim.checkpoint(&self.exec),
            Inner::Streaming { sim, .. } => sim.checkpoint(&self.exec),
        }
    }

    /// Closes the session: finishes the inline checkers (for checked
    /// sessions) and returns the [`Execution`] — report, metrics, and
    /// verification verdict — exactly as a one-shot run would have.
    pub fn finish(self) -> Execution {
        match self.inner {
            Inner::Silent { sim, .. } => Execution {
                report: sim.report(),
                metrics: sim.metrics(),
                check: None,
            },
            Inner::Streaming { mut sim, cross, .. } => {
                let check = cross.map(|cross| {
                    let mut violations: Vec<ScopedViolation> = sim
                        .take_shard_violations()
                        .into_iter()
                        .map(|(index, violation)| ScopedViolation {
                            scope: CheckScope::Shard(index),
                            violation,
                        })
                        .collect();
                    let events = cross.events();
                    violations.extend(cross.into_violations().into_iter().map(|violation| {
                        ScopedViolation {
                            scope: CheckScope::Merged,
                            violation,
                        }
                    }));
                    CheckSummary { events, violations }
                });
                Execution {
                    report: sim.report(),
                    metrics: sim.metrics(),
                    check,
                }
            }
        }
    }

    /// The grid bounds the session was built over (the valid region for
    /// [`inject`](Session::inject)).
    pub fn bounds(&self) -> GridBounds<D> {
        self.bounds
    }

    /// The session clock: the maximum shard-local simulation time (0
    /// before any round has run).
    pub fn now(&self) -> u64 {
        self.cursor().next_epoch - 1
    }

    /// Lockstep rounds completed (absolute — a resumed session continues
    /// the checkpoint's count).
    pub fn rounds(&self) -> u64 {
        self.cursor().rounds_done
    }

    /// Canonical merged events emitted so far, header included.
    pub fn events(&self) -> u64 {
        self.cursor().merged_total
    }

    /// Jobs queued for release: applied queue remainders plus pending
    /// injections.
    pub fn work_remaining(&self) -> u64 {
        let applied = match &self.inner {
            Inner::Silent { sim, .. } => sim.work_remaining(),
            Inner::Streaming { sim, .. } => sim.work_remaining(),
        };
        applied + self.pending.len() as u64
    }

    /// Whether the session has nothing left to do: every applied job
    /// released and no injection pending.
    pub fn is_idle(&self) -> bool {
        self.work_remaining() == 0
    }

    /// Total jobs injected over the session's lifetime (applied or
    /// pending).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Injections queued but not yet applied at a barrier.
    pub fn pending_injections(&self) -> usize {
        self.pending.len()
    }

    /// The live Theorem 1.4.2 accounting at the current barrier.
    pub fn report(&self) -> OnlineReport {
        match &self.inner {
            Inner::Silent { sim, .. } => sim.report(),
            Inner::Streaming { sim, .. } => sim.report(),
        }
    }

    /// A snapshot of the always-on metrics registries at the current
    /// barrier.
    pub fn metrics(&self) -> Metrics {
        match &self.inner {
            Inner::Silent { sim, .. } => sim.metrics(),
            Inner::Streaming { sim, .. } => sim.metrics(),
        }
    }

    /// The derived provisioning (cube side, `ω_c`, capacity).
    pub fn provisioning(&self) -> Provisioning {
        match &self.inner {
            Inner::Silent { sim, .. } => sim.provisioning(),
            Inner::Streaming { sim, .. } => sim.provisioning(),
        }
    }

    /// Number of shards in the layout.
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            Inner::Silent { sim, .. } => sim.shard_count(),
            Inner::Streaming { sim, .. } => sim.shard_count(),
        }
    }

    /// The session's input fingerprint — [`crate::run_fingerprint`] of
    /// the construction inputs, perturbed by
    /// [`crate::checkpoint::mix_live_session`] for live sessions and by
    /// [`crate::checkpoint::mix_injection`] per applied injection.
    pub fn fingerprint(&self) -> u64 {
        match &self.inner {
            Inner::Silent { sim } => sim.fingerprint(),
            Inner::Streaming { sim, .. } => sim.fingerprint(),
        }
    }

    fn cursor(&self) -> &DriveCursor {
        match &self.inner {
            Inner::Silent { sim } => sim.cursor(),
            Inner::Streaming { sim, .. } => sim.cursor(),
        }
    }
}

/// The generic stepping driver shared by every sink shape: applies
/// pending injections at the entry barrier, maps the relative limit onto
/// an absolute [`StepLimit`], runs one
/// [`drive`](ShardedOnlineSim::drive) batch, and reports the deltas.
fn step_inner<const D: usize, SS: ShardSink>(
    sim: &mut ShardedOnlineSim<D, SS>,
    cross: Option<&mut MergeChecker>,
    exec: &ExecConfig,
    pending: &mut Vec<Point<D>>,
    sink: &mut dyn Sink,
    observer: Option<&mut dyn FnMut(EngineCheckpoint)>,
    limit: RelLimit,
) -> StepReport {
    for job in pending.drain(..) {
        sim.inject_job(job);
    }
    let events_before = sim.cursor().merged_total;
    let rounds_before = sim.cursor().rounds_done;
    let limit = match limit {
        RelLimit::Drain => StepLimit::None,
        RelLimit::Until(t) => StepLimit::Until(t),
        RelLimit::Rounds(n) => StepLimit::Round(rounds_before.saturating_add(n)),
    };
    sim.drive(exec, sink, cross, observer, limit);
    let cur = sim.cursor();
    StepReport {
        rounds: cur.rounds_done - rounds_before,
        events: cur.merged_total - events_before,
        now: cur.next_epoch - 1,
        idle: sim.work_remaining() == 0,
    }
}

#[cfg(test)]
impl<const D: usize> Session<D> {
    /// The simulator of a buffering session, for tests that corrupt a
    /// shard's stream.
    pub(crate) fn streaming_sim(&mut self) -> &mut ShardedOnlineSim<D, VecSink> {
        match &mut self.inner {
            Inner::Streaming { sim, .. } => sim,
            Inner::Silent { .. } => panic!("a silent session buffers nothing"),
        }
    }
}

//! Conservative lockstep rounds: the PDES synchronization layer.
//!
//! Every message in the simulated network has delay ≥ 1 tick, so one tick
//! of *lookahead* is always available — the classical conservative
//! (Chandy–Misra style) condition. The executor exploits it with global
//! rounds: each round starts at a shared epoch strictly greater than every
//! shard's local clock, and shards run to local quiescence independently.
//! Shards never exchange messages: the on-line protocol's traffic stays
//! inside one `⌈ω_c⌉`-cube and every shard is a union of whole cubes.
//! Rounds therefore occupy disjoint ascending time bands, and the outcome
//! of a round depends only on the (deterministic) epoch — never on how
//! many OS threads executed it or in what order.
//!
//! ## Shard ownership
//!
//! Shards are assigned round-robin to workers, as a fixed ownership map:
//! worker `k` of `w` steps shards `k, k + w, k + 2w, …` in every round.
//! *Which worker* steps a shard is invisible to the output — shards are
//! independent within a round and the barrier hook sees them in shard
//! order. Per-worker busy time and shards stepped are reported in
//! [`RoundStats::workers`], so skew across workers is observable, not
//! inferred.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One shard's view of a lockstep round.
pub trait ShardWorker: Send {
    /// Executes one round. The shard must first align its local clock with
    /// `epoch` (which is strictly greater than any clock it reported
    /// before), then run to local quiescence.
    fn round(&mut self, epoch: u64) -> RoundOutcome;
}

/// What one shard reports at a round barrier.
#[derive(Debug)]
pub struct RoundOutcome {
    /// The shard's local clock after the round (drives the next epoch).
    pub now: u64,
    /// Whether the shard has no further work of its own. The run ends when
    /// every shard is idle.
    pub idle: bool,
}

/// One worker thread's counters for a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Wall-clock nanoseconds spent inside rounds (stepping shards),
    /// excluding barrier waits. Skew across workers is the signal a fixed
    /// assignment wastes cores on.
    pub busy_ns: u64,
    /// Shard-rounds this worker executed. Summed over workers this is
    /// exactly `rounds × shards`: every shard is stepped once per round.
    pub shards_stepped: u64,
}

/// What the barrier hook tells the executor to do next.
///
/// Returned once per round by the coordinator's barrier hook. `Stop` ends
/// the run at this barrier exactly as if every shard had reported idle:
/// the checkpoint subsystem uses it to cut a run at a chosen round so the
/// remainder can be replayed later from the captured state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundControl {
    /// Keep running (the normal case).
    #[default]
    Continue,
    /// End the run at this barrier.
    Stop,
}

/// Where a lockstep run starts counting: the first round's epoch and the
/// number of rounds that already ran before this call.
///
/// `default()` describes a fresh run (epoch 1, zero prior rounds). A run
/// resumed from a checkpoint passes the checkpointed next-epoch and
/// completed-round count so that epochs continue the original time bands
/// and [`RoundInfo::round`] / [`RoundStats::rounds`] stay absolute across
/// the seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepStart {
    /// Epoch of the first round executed by this call (must exceed every
    /// shard's local clock).
    pub epoch: u64,
    /// Rounds completed before this call; round numbering continues at
    /// `prior_rounds + 1`.
    pub prior_rounds: u64,
}

impl Default for LockstepStart {
    fn default() -> Self {
        LockstepStart {
            epoch: 1,
            prior_rounds: 0,
        }
    }
}

/// One round's flight-recorder view, handed to the barrier hook alongside
/// the workers. Everything in here is a *delta* for the round that just
/// finished, not a running total — the hook can turn it straight into
/// `round_profile` trace events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundInfo {
    /// 1-based number of the round that just completed.
    pub round: u64,
    /// Wall-clock nanoseconds from releasing the workers into the round
    /// until the last one parked at the barrier again (single-threaded
    /// path: the stepping loop's duration). Per worker,
    /// `wall_ns - busy_ns` is the time spent waiting at the barrier.
    pub wall_ns: u64,
    /// Per-worker deltas for this round, indexed by worker thread.
    pub workers: Vec<WorkerStats>,
}

/// Aggregate statistics from [`run_lockstep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds executed, counted absolutely: a resumed run starts from
    /// [`LockstepStart::prior_rounds`] so totals agree with an
    /// uninterrupted run.
    pub rounds: u64,
    /// The epoch the final round started at.
    pub final_epoch: u64,
    /// Per-worker counters, indexed by worker thread. Length is the
    /// effective worker count (requested threads clamped to the shard
    /// count). `busy_ns` is wall-clock and varies run to run;
    /// `shards_stepped` is exact.
    pub workers: Vec<WorkerStats>,
}

impl RoundStats {
    /// Total shard-rounds executed across workers.
    pub fn total_stepped(&self) -> u64 {
        self.workers.iter().map(|w| w.shards_stepped).sum()
    }
}

struct Slot<W> {
    worker: W,
    outcome: Option<RoundOutcome>,
}

/// Per-worker counters the worker threads update and the coordinator
/// collects at each barrier.
#[derive(Default)]
struct WorkerCell {
    busy_ns: AtomicU64,
    stepped: AtomicU64,
}

impl WorkerCell {
    fn load(&self) -> WorkerStats {
        WorkerStats {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            shards_stepped: self.stepped.load(Ordering::Relaxed),
        }
    }
}

/// Folds the outcomes collected at a barrier into `(next_epoch, done)`:
/// the next epoch is one past the latest shard clock, and the run is done
/// when every shard is idle.
fn settle_round(outcomes: impl IntoIterator<Item = RoundOutcome>, epoch: u64) -> (u64, bool) {
    let mut max_now = epoch;
    let mut all_idle = true;
    for outcome in outcomes {
        max_now = max_now.max(outcome.now);
        all_idle &= outcome.idle;
    }
    (max_now + 1, all_idle)
}

/// Runs shards in conservative lockstep rounds until every shard is idle
/// or `barrier_hook` stops the run, on up to `threads` OS threads with
/// fixed round-robin shard ownership. Results are identical for every
/// `threads ≥ 1` because rounds are barrier-synchronized and shards are
/// independent within a round.
///
/// `start` sets the first round's epoch and the rounds already run: a
/// fresh run passes [`LockstepStart::default`], a run resumed from a
/// checkpoint continues the original run's epochs and round numbers.
///
/// `barrier_hook` runs on the coordinating thread once per round, after
/// every shard has finished the round — including after the final round.
/// It sees all workers in shard order with exclusive access (the worker
/// threads are parked at the barrier), so it can drain per-shard buffers
/// incrementally — the sharded engine's streaming trace merge — without
/// ever holding more than one round's data. Alongside the workers it
/// receives the round's [`RoundInfo`] flight-recorder sample. The hook
/// needs no `Send` bound: it never leaves the coordinator. Returning
/// [`RoundControl::Stop`] ends the run at this barrier (the checkpoint
/// cut).
///
/// Returns the workers (with their final state) and round statistics.
pub fn run_lockstep<W, F>(
    workers: Vec<W>,
    threads: usize,
    start: LockstepStart,
    mut barrier_hook: F,
) -> (Vec<W>, RoundStats)
where
    W: ShardWorker,
    F: FnMut(&mut [&mut W], &RoundInfo) -> RoundControl,
{
    let n = workers.len();
    if n == 0 {
        return (
            workers,
            RoundStats {
                rounds: start.prior_rounds,
                final_epoch: start.epoch,
                workers: Vec::new(),
            },
        );
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return run_inline(workers, start, barrier_hook);
    }

    let slots: Vec<Mutex<Slot<W>>> = workers
        .into_iter()
        .map(|worker| {
            Mutex::new(Slot {
                worker,
                outcome: None,
            })
        })
        .collect();
    let cells: Vec<WorkerCell> = (0..threads).map(|_| WorkerCell::default()).collect();
    let barrier = Barrier::new(threads + 1);
    let epoch = AtomicU64::new(start.epoch);
    let stop = AtomicBool::new(false);
    let mut stats = RoundStats {
        rounds: start.prior_rounds,
        final_epoch: start.epoch,
        workers: Vec::new(),
    };
    // Snapshot of each worker's run-wide counters at the previous barrier,
    // so per-round deltas for the flight recorder are one subtraction.
    let mut prev: Vec<WorkerStats> = vec![WorkerStats::default(); threads];

    std::thread::scope(|scope| {
        let slots = &slots;
        let cells = &cells;
        let barrier = &barrier;
        let epoch = &epoch;
        let stop = &stop;
        for (k, cell) in cells.iter().enumerate() {
            scope.spawn(move || loop {
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let e = epoch.load(Ordering::Acquire);
                let start = Instant::now();
                let mut stepped = 0u64;
                for slot in slots.iter().skip(k).step_by(threads) {
                    let mut slot = slot.lock().expect("shard lock");
                    slot.outcome = Some(slot.worker.round(e));
                    stepped += 1;
                }
                let busy = start.elapsed().as_nanos() as u64;
                cell.busy_ns.fetch_add(busy, Ordering::Relaxed);
                cell.stepped.fetch_add(stepped, Ordering::Relaxed);
                barrier.wait();
            });
        }
        loop {
            barrier.wait(); // release workers into the round
            let round_start = Instant::now();
            barrier.wait(); // wait for every shard to finish it
            let wall_ns = round_start.elapsed().as_nanos() as u64;
            stats.rounds += 1;
            stats.final_epoch = epoch.load(Ordering::Acquire);
            // Workers are parked at the next barrier, so their counters are
            // quiescent: the round's deltas are snapshots minus the last
            // barrier's snapshots.
            let deltas: Vec<WorkerStats> = cells
                .iter()
                .zip(prev.iter_mut())
                .map(|(c, p)| {
                    let cur = c.load();
                    let delta = WorkerStats {
                        busy_ns: cur.busy_ns - p.busy_ns,
                        shards_stepped: cur.shards_stepped - p.shards_stepped,
                    };
                    *p = cur;
                    delta
                })
                .collect();
            let info = RoundInfo {
                round: stats.rounds,
                wall_ns,
                workers: deltas,
            };
            // Locking every slot at once is contention-free (workers are
            // parked) — and holding the guards across the hook gives it
            // exclusive access to all workers.
            let mut guards: Vec<_> = slots
                .iter()
                .map(|s| s.lock().expect("shard lock"))
                .collect();
            let (next, settled) = settle_round(
                guards
                    .iter_mut()
                    .map(|g| g.outcome.take().expect("round outcome")),
                stats.final_epoch,
            );
            let mut views: Vec<&mut W> = guards.iter_mut().map(|g| &mut g.worker).collect();
            let control = barrier_hook(&mut views, &info);
            drop(guards);
            if settled || control == RoundControl::Stop {
                stop.store(true, Ordering::Release);
                barrier.wait(); // let workers observe `stop` and exit
                break;
            }
            epoch.store(next, Ordering::Release);
        }
    });

    stats.workers = cells.iter().map(WorkerCell::load).collect();
    let workers = slots
        .into_iter()
        .map(|s| s.into_inner().expect("shard lock").worker)
        .collect();
    (workers, stats)
}

/// Single-threaded variant: same rounds, same hook points, no threads or
/// barriers. Produces bit-identical shard states to the threaded path.
fn run_inline<W, F>(
    mut workers: Vec<W>,
    start: LockstepStart,
    mut barrier_hook: F,
) -> (Vec<W>, RoundStats)
where
    W: ShardWorker,
    F: FnMut(&mut [&mut W], &RoundInfo) -> RoundControl,
{
    let n = workers.len() as u64;
    let mut epoch = start.epoch;
    let mut stats = RoundStats {
        rounds: start.prior_rounds,
        final_epoch: start.epoch,
        workers: vec![WorkerStats::default()],
    };
    loop {
        let start = Instant::now();
        let (next, done) = settle_round(workers.iter_mut().map(|w| w.round(epoch)), epoch);
        let busy_ns = start.elapsed().as_nanos() as u64;
        let me = &mut stats.workers[0];
        me.busy_ns += busy_ns;
        me.shards_stepped += n;
        stats.rounds += 1;
        stats.final_epoch = epoch;
        // No barrier to wait at: the round's wall-clock *is* the busy time.
        let info = RoundInfo {
            round: stats.rounds,
            wall_ns: busy_ns,
            workers: vec![WorkerStats {
                busy_ns,
                shards_stepped: n,
            }],
        };
        let mut views: Vec<&mut W> = workers.iter_mut().collect();
        let control = barrier_hook(&mut views, &info);
        if done || control == RoundControl::Stop {
            break;
        }
        epoch = next;
    }
    (workers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard: counts its own work down one unit per round, and each
    /// unit advances its clock by a shard-dependent amount of local work.
    /// Shards start with different amounts, so some sit idle while others
    /// still run, and clocks drift apart between barriers.
    struct CountdownShard {
        index: usize,
        work: u32,
        now: u64,
        log: Vec<(u64, u32)>,
    }

    impl ShardWorker for CountdownShard {
        fn round(&mut self, epoch: u64) -> RoundOutcome {
            assert!(epoch > self.now, "epochs must strictly ascend");
            self.now = epoch;
            if self.work > 0 {
                self.work -= 1;
                self.log.push((epoch, self.work));
                self.now += 1 + self.index as u64 % 3; // local work advances the clock
            }
            RoundOutcome {
                now: self.now,
                idle: self.work == 0,
            }
        }
    }

    /// `shards` countdown shards; shard `i` starts with `work + i` units.
    fn countdown(shards: usize, work: u32) -> Vec<CountdownShard> {
        (0..shards)
            .map(|index| CountdownShard {
                index,
                work: work + index as u32,
                now: 0,
                log: Vec::new(),
            })
            .collect()
    }

    fn run(shards: Vec<CountdownShard>, threads: usize) -> (Vec<CountdownShard>, RoundStats) {
        run_lockstep(
            shards,
            threads,
            LockstepStart::default(),
            |_: &mut [&mut CountdownShard], _: &RoundInfo| RoundControl::Continue,
        )
    }

    #[test]
    fn countdown_terminates_and_is_thread_count_invariant() {
        let (seq, seq_stats) = run(countdown(5, 17), 1);
        for threads in [2, 3, 8] {
            let (par, par_stats) = run(countdown(5, 17), threads);
            assert_eq!(seq_stats.rounds, par_stats.rounds, "threads={threads}");
            assert_eq!(
                seq_stats.final_epoch, par_stats.final_epoch,
                "threads={threads}"
            );
            // Every shard is stepped exactly once per round, whichever
            // worker owns it.
            assert_eq!(par_stats.total_stepped(), par_stats.rounds * 5);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.log, b.log, "threads={threads} shard={}", a.index);
                assert_eq!(a.now, b.now);
            }
        }
        // Shards held 17..=21 units: 95 in all, and the run ends in the
        // round the longest countdown reaches zero.
        let units: usize = seq.iter().map(|s| s.log.len()).sum();
        assert_eq!(units, 95);
        assert_eq!(seq_stats.rounds, 21);
    }

    #[test]
    fn epochs_strictly_ascend_past_local_clocks() {
        // CountdownShard::round asserts epoch > local now; a run whose
        // local clocks run ahead of the epoch must not trip it.
        let (_, stats) = run(countdown(3, 40), 2);
        assert!(stats.final_epoch > 40);
    }

    #[test]
    fn empty_and_single_shard_runs() {
        let (w, stats) = run(Vec::new(), 4);
        assert!(w.is_empty());
        assert_eq!(stats.rounds, 0);
        let (w, stats) = run(countdown(1, 3), 4);
        assert_eq!(w[0].log.len(), 3);
        assert_eq!(stats.rounds, 3);
    }

    #[test]
    fn oversubscribed_threads_clamp_to_shard_count() {
        let (seq, _) = run(countdown(2, 9), 1);
        let (par, stats) = run(countdown(2, 9), 64);
        assert_eq!(stats.workers.len(), 2);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.log, b.log);
        }
    }

    #[test]
    fn worker_stats_account_for_every_shard_round() {
        let (_, stats) = run(countdown(7, 23), 3);
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(stats.total_stepped(), stats.rounds * 7);
        // Round-robin ownership: worker 0 owns shards 0, 3, 6; workers 1
        // and 2 own two shards each.
        let per_worker: Vec<u64> = stats.workers.iter().map(|w| w.shards_stepped).collect();
        assert_eq!(
            per_worker,
            vec![3 * stats.rounds, 2 * stats.rounds, 2 * stats.rounds]
        );
    }

    #[test]
    fn hook_stop_cuts_the_run_at_the_requested_round() {
        for threads in [1usize, 3] {
            let (workers, stats) = run_lockstep(
                countdown(5, 17),
                threads,
                LockstepStart::default(),
                |_: &mut [&mut CountdownShard], info: &RoundInfo| {
                    if info.round == 4 {
                        RoundControl::Stop
                    } else {
                        RoundControl::Continue
                    }
                },
            );
            assert_eq!(stats.rounds, 4, "threads={threads}");
            // The cut run did four rounds of each shard's work.
            let units: usize = workers.iter().map(|s| s.log.len()).sum();
            assert_eq!(units, 20, "threads={threads}");
        }
    }

    #[test]
    fn lockstep_start_offsets_epochs_and_round_numbers() {
        // A run started at epoch 50 / prior_rounds 10 numbers its rounds
        // from 11 and hands shards epochs >= 50; logs record the epochs.
        let start = LockstepStart {
            epoch: 50,
            prior_rounds: 10,
        };
        for threads in [1usize, 2] {
            let mut first_round = None;
            let (workers, stats) = run_lockstep(
                countdown(3, 5),
                threads,
                start,
                |_: &mut [&mut CountdownShard], info: &RoundInfo| {
                    first_round.get_or_insert(info.round);
                    RoundControl::Continue
                },
            );
            assert_eq!(first_round, Some(11), "threads={threads}");
            assert_eq!(stats.rounds, 17, "threads={threads}");
            assert!(stats.final_epoch >= 50);
            assert!(workers
                .iter()
                .flat_map(|s| &s.log)
                .all(|&(epoch, _)| epoch >= 50));
        }
    }
}

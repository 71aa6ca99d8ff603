//! The vehicle process: working state `S1`, message-transfer state `S2`
//! (embedded [`DiffusingEngine`]), energy metering, and the message handlers
//! of §3.2.3–3.2.4.

use crate::msg::OnlineMsg;
use cmvrp_grid::{GridBounds, Point};
use cmvrp_net::diffuse::{ComputationId, DiffuseMsg, DiffuseOutcome, DiffusingEngine};
use cmvrp_net::{Context, HeartbeatMonitor, Process, ProcessId};
use cmvrp_obs::Event;

/// The working state `S1` of §3.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkState {
    /// Waiting to be summoned; serves nothing.
    Idle,
    /// Serving the jobs of its pair.
    Active,
    /// Out of usable energy; can still communicate and relay.
    Done,
}

/// Outcome of a service attempt delivered by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeResult {
    /// The job was served (energy charged).
    Served,
    /// The vehicle could not serve (not active, or out of energy).
    Refused,
}

/// Tick rounds of silence after which a watcher declares its peer dead.
const HEARTBEAT_TIMEOUT: u64 = 3;

/// A vehicle's durable state at a round barrier: the record a `CMVC`
/// checkpoint stores for it, field for field.
///
/// Plain data, the same for every grid dimension and every worker count:
/// positions are coordinate vectors, and the vehicle's own id and every
/// process it refers to are *global* ids (the lexicographic vertex index
/// traces use), which [`Vehicle::snapshot`] and [`Vehicle::restore`] map
/// to and from the owning network's process ids.
///
/// Captures exactly the fields that survive quiescence in the sharded
/// engine: position and working state, energy/odometer counters, the
/// claimed-by / diffusing-engine identities that gate Phase II, the
/// communication neighborhood, the §3.2.5 monitoring-ring state, and the
/// observability counters. Fault state (the scenario-2 fault flag, the
/// Chapter 4 longevity threshold and whether it was crossed) is
/// deliberately absent: only a pre-built `cmvrp_engine::ShardedOnlineSim`
/// can hold faults, and its `run` takes no checkpoint observer, so no
/// checkpoint is ever taken of a run with faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleSnapshot {
    /// Global vehicle id.
    pub id: u64,
    /// Current position.
    pub pos: Vec<i64>,
    /// Working state `S1`.
    pub work: WorkState,
    /// Energy drawn so far.
    pub energy_used: u64,
    /// Grid steps walked.
    pub moves: u64,
    /// Jobs served.
    pub serves: u64,
    /// The computation that claimed this idle vehicle, if any:
    /// `(global initiator id, generation)`.
    pub claimed_by: Option<(u64, u64)>,
    /// Pending Phase I destination (normally `None` at quiescence).
    pub summon_dest: Option<Vec<i64>>,
    /// Undrained failed-search flag.
    pub failed_search: bool,
    /// Undrained relocation notification.
    pub arrived: Option<Vec<i64>>,
    /// Communication neighborhood, as global ids.
    pub neighbors: Vec<u64>,
    /// Message-type counters `(queries, replies, moves, heartbeats)`.
    pub msg_counts: [u64; 4],
    /// Diffusing computations initiated / completed / found.
    pub diffusions: (u64, u64, u64),
    /// Last diffusing computation this vehicle joined:
    /// `(global initiator id, generation)` (the engine itself is
    /// `waiting`).
    pub engine_init: Option<(u64, u64)>,
    /// Next generation number for computations this vehicle initiates.
    pub engine_next_generation: u64,
    /// §3.2.5 ring: the watched peer `(global id, position, tick round it
    /// was last heard from)`.
    pub watch: Option<(u64, Vec<i64>, u64)>,
    /// §3.2.5 ring: the watcher this vehicle heartbeats to, as a global id.
    pub report_to: Option<u64>,
    /// Tick rounds seen (the heartbeat clock).
    pub ticks: u64,
    /// Heartbeat timeouts detected as a watcher.
    pub heartbeat_misses: u64,
}

/// A vehicle: one process of the on-line protocol.
#[derive(Debug)]
pub struct Vehicle<const D: usize> {
    id: ProcessId,
    home: Point<D>,
    pos: Point<D>,
    work: WorkState,
    engine: DiffusingEngine,
    neighbors: Vec<ProcessId>,
    capacity: u64,
    energy_used: u64,
    moves: u64,
    serves: u64,
    claimed_by: Option<ComputationId>,
    /// Where the replacement summoned by *this* vehicle's computation should
    /// go (own position normally; a dead peer's position in monitor mode).
    summon_dest: Option<Point<D>>,
    /// Set when a computation this vehicle initiated ends without a target.
    failed_search: bool,
    /// Set when this vehicle relocated (drained by the driver).
    arrived: Option<Point<D>>,
    /// Scenario 2 fault injection: on becoming done, do NOT initiate, and
    /// stop heartbeating.
    faulty: bool,
    /// Chapter 4 longevity: the vehicle *breaks* (goes silent, serves
    /// nothing, initiates nothing) once `energy_used` reaches this
    /// threshold (`⌊p_i · W⌋`). `None` = never breaks (p = 1).
    breaks_at: Option<u64>,
    /// Set once the longevity threshold has been hit.
    broken: bool,
    /// §3.2.5 monitoring: the peer this vehicle watches and its position.
    watch: Option<(ProcessId, Point<D>)>,
    /// The watcher this vehicle reports its `existing` heartbeats to
    /// (set by the physical layer together with the ring; heartbeats are
    /// end-to-end — the model allows multi-hop relaying).
    report_to: Option<ProcessId>,
    heartbeat: HeartbeatMonitor,
    /// Local tick-round counter — the clock for heartbeat timeouts. Tick
    /// rounds are lockstep across vehicles, unlike simulation time, which
    /// leaps ahead during long message cascades.
    ticks: u64,
    /// Message-type counters: (queries, replies, moves, heartbeats).
    msg_counts: [u64; 4],
    /// Diffusing computations this vehicle initiated.
    diffusions_started: u64,
    /// Of those, how many terminated (at this initiator).
    diffusions_completed: u64,
    /// Of the terminated ones, how many claimed an idle vehicle.
    diffusions_found: u64,
    /// Heartbeat timeouts this vehicle detected as a watcher.
    heartbeat_misses: u64,
}

impl<const D: usize> Vehicle<D> {
    /// Creates a vehicle at `home` with the given battery `capacity`;
    /// `active` selects the initial working state per the pairing.
    pub fn new(id: ProcessId, home: Point<D>, active: bool, capacity: u64) -> Self {
        Vehicle {
            id,
            home,
            pos: home,
            work: if active {
                WorkState::Active
            } else {
                WorkState::Idle
            },
            engine: DiffusingEngine::new(),
            neighbors: Vec::new(),
            capacity,
            energy_used: 0,
            moves: 0,
            serves: 0,
            claimed_by: None,
            summon_dest: None,
            failed_search: false,
            arrived: None,
            faulty: false,
            breaks_at: None,
            broken: false,
            watch: None,
            report_to: None,
            heartbeat: HeartbeatMonitor::new(HEARTBEAT_TIMEOUT),
            ticks: 0,
            msg_counts: [0; 4],
            diffusions_started: 0,
            diffusions_completed: 0,
            diffusions_found: 0,
            heartbeat_misses: 0,
        }
    }

    /// Current working state.
    pub fn work(&self) -> WorkState {
        self.work
    }

    /// Current position.
    pub fn pos(&self) -> Point<D> {
        self.pos
    }

    /// Original depot.
    pub fn home(&self) -> Point<D> {
        self.home
    }

    /// Energy drawn so far (travel + service).
    pub fn energy_used(&self) -> u64 {
        self.energy_used
    }

    /// Battery capacity `W`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Grid steps walked.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Jobs served.
    pub fn serves(&self) -> u64 {
        self.serves
    }

    /// Remaining energy.
    pub fn remaining(&self) -> u64 {
        self.capacity.saturating_sub(self.energy_used)
    }

    /// Physical-layer update of the communication neighborhood.
    pub fn set_neighbors(&mut self, neighbors: Vec<ProcessId>) {
        self.neighbors = neighbors;
    }

    /// The current neighbor list.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.neighbors
    }

    /// Injects the scenario-2 fault: on exhaustion this vehicle goes silent
    /// instead of initiating its replacement.
    pub fn set_faulty(&mut self, faulty: bool) {
        self.faulty = faulty;
    }

    /// Sets the Chapter 4 longevity threshold: the vehicle breaks after
    /// spending `threshold` energy (pass `⌊p_i·W⌋`). The break is silent —
    /// a broken vehicle neither serves, nor initiates, nor heartbeats — so
    /// recovery requires the §3.2.5 monitoring ring.
    pub fn set_breaks_at(&mut self, threshold: u64) {
        self.breaks_at = Some(threshold);
    }

    /// Whether the longevity threshold has been crossed.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Observability counters:
    /// `(diffusions started, completed, found, heartbeat misses)`.
    pub fn obs_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.diffusions_started,
            self.diffusions_completed,
            self.diffusions_found,
            self.heartbeat_misses,
        )
    }

    /// Captures the vehicle's durable state at a round barrier, naming
    /// every process by `global(id)`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded diffusing engine is mid-computation —
    /// checkpoints are only taken at quiescent barriers.
    pub fn snapshot(&self, global: impl Fn(ProcessId) -> u64) -> VehicleSnapshot {
        let cid = |c: ComputationId| (global(c.initiator), c.generation);
        let (engine_init, engine_next_generation) = self.engine.quiescent_state();
        VehicleSnapshot {
            id: global(self.id),
            pos: self.pos.coords().to_vec(),
            work: self.work,
            energy_used: self.energy_used,
            moves: self.moves,
            serves: self.serves,
            claimed_by: self.claimed_by.map(cid),
            summon_dest: self.summon_dest.map(|p| p.coords().to_vec()),
            failed_search: self.failed_search,
            arrived: self.arrived.map(|p| p.coords().to_vec()),
            neighbors: self.neighbors.iter().map(|&n| global(n)).collect(),
            msg_counts: self.msg_counts,
            diffusions: (
                self.diffusions_started,
                self.diffusions_completed,
                self.diffusions_found,
            ),
            engine_init: engine_init.map(cid),
            engine_next_generation,
            watch: self.watch.map(|(peer, pos)| {
                let seen = self.heartbeat.last_seen(peer);
                let seen = seen.expect("the watched peer is monitored");
                (global(peer), pos.coords().to_vec(), seen)
            }),
            report_to: self.report_to.map(&global),
            ticks: self.ticks,
            heartbeat_misses: self.heartbeat_misses,
        }
    }

    /// Reinjects state captured with [`Vehicle::snapshot`] into a freshly
    /// constructed vehicle (same id, home, and capacity), mapping every
    /// global id back through `local`. Every recorded position must lie in
    /// `cube`, the cube the vehicle never leaves.
    ///
    /// # Errors
    ///
    /// Names the field that does not fit — a global id `local` does not
    /// know, or a position without exactly `D` coordinates or outside
    /// `cube` — and leaves the vehicle unchanged.
    pub fn restore(
        &mut self,
        snap: &VehicleSnapshot,
        local: impl Fn(u64) -> Option<ProcessId>,
        cube: &GridBounds<D>,
    ) -> Result<(), String> {
        let id = |what: &str, global: u64| {
            local(global).ok_or_else(|| format!("{what} {global} is not a vehicle of this shard"))
        };
        let cid = |what: &str, (initiator, generation): (u64, u64)| {
            let initiator = id(what, initiator)?;
            Ok::<_, String>(ComputationId {
                initiator,
                generation,
            })
        };
        let pos = |what: &str, coords: &[i64]| {
            let p = coords.try_into().map(Point::new);
            match p.map_err(|_| format!("{what} has {} coordinates, not {D}", coords.len()))? {
                p if cube.contains(p) => Ok(p),
                p => Err(format!("{what} {p} lies outside the vehicle's cube")),
            }
        };
        let claimed_by = snap.claimed_by.map(|c| cid("claimer", c)).transpose()?;
        let engine_init = snap.engine_init.map(|c| cid("initiator", c)).transpose()?;
        let neighbors = snap.neighbors.iter().map(|&n| id("neighbor", n));
        let neighbors = neighbors.collect::<Result<_, _>>()?;
        let report_to = snap.report_to.map(|w| id("watcher", w)).transpose()?;
        let watch = match &snap.watch {
            Some((peer, at, seen)) => Some((id("watched peer", *peer)?, pos("watch", at)?, *seen)),
            None => None,
        };
        let at = |what, p: &Option<Vec<i64>>| p.as_deref().map(|p| pos(what, p)).transpose();
        let summon_dest = at("summon destination", &snap.summon_dest)?;
        let arrived = at("arrival", &snap.arrived)?;
        self.pos = pos("position", &snap.pos)?;
        self.neighbors = neighbors;
        self.report_to = report_to;
        self.summon_dest = summon_dest;
        self.arrived = arrived;
        self.work = snap.work;
        self.energy_used = snap.energy_used;
        self.moves = snap.moves;
        self.serves = snap.serves;
        self.claimed_by = claimed_by;
        self.failed_search = snap.failed_search;
        self.msg_counts = snap.msg_counts;
        let (started, completed, found) = snap.diffusions;
        self.diffusions_started = started;
        self.diffusions_completed = completed;
        self.diffusions_found = found;
        self.engine = DiffusingEngine::from_quiescent(engine_init, snap.engine_next_generation);
        self.heartbeat = HeartbeatMonitor::new(HEARTBEAT_TIMEOUT);
        self.watch = watch.map(|(peer, at, seen)| {
            self.heartbeat.watch(peer, seen);
            (peer, at)
        });
        self.ticks = snap.ticks;
        self.heartbeat_misses = snap.heartbeat_misses;
        Ok(())
    }

    /// Sets the §3.2.5 monitoring target (or clears it). Re-setting the
    /// same target only refreshes the recorded position — the silence timer
    /// keeps running, otherwise frequent rewiring would mask real silence.
    /// Timestamps are in local tick rounds, not simulation time.
    pub fn set_watch(&mut self, watch: Option<(ProcessId, Point<D>)>) {
        match (self.watch, watch) {
            (Some((old, _)), Some((new, pos))) if old == new => {
                self.watch = Some((new, pos));
            }
            _ => {
                if let Some((old, _)) = self.watch {
                    self.heartbeat.unwatch(old);
                }
                if let Some((peer, _)) = watch {
                    self.heartbeat.watch(peer, self.ticks);
                }
                self.watch = watch;
            }
        }
    }

    /// Sets the watcher this vehicle heartbeats to.
    pub fn set_report_to(&mut self, watcher: Option<ProcessId>) {
        self.report_to = watcher;
    }

    /// Drains the relocation notification (driver bookkeeping).
    pub fn take_arrival(&mut self) -> Option<Point<D>> {
        self.arrived.take()
    }

    /// Drains the failed-search flag.
    pub fn take_failed_search(&mut self) -> bool {
        std::mem::take(&mut self.failed_search)
    }

    /// Attempts to serve one job at `job` (driver-delivered arrival).
    ///
    /// An active vehicle walks from its current position to the job vertex
    /// (normally a step of at most 1 within its pair) and serves it; if its
    /// remaining energy afterwards cannot cover one more walk-and-serve
    /// (`< 2`), it becomes done and — unless faulty — initiates Phase I.
    pub fn serve(&mut self, ctx: &mut Context<OnlineMsg<D>>, job: Point<D>) -> ServeResult {
        if self.work != WorkState::Active {
            return ServeResult::Refused;
        }
        let cost = self.pos.manhattan(job) + 1;
        if let Some(limit) = self.breaks_at {
            if self.energy_used + cost > limit {
                // Chapter 4 break: silent death, no Phase I.
                self.broken = true;
                self.faulty = true;
                self.work = WorkState::Done;
                return ServeResult::Refused;
            }
        }
        if self.energy_used + cost > self.capacity {
            // Cannot serve: give up the pair now so a replacement can come.
            self.become_done(ctx);
            return ServeResult::Refused;
        }
        self.moves += self.pos.manhattan(job);
        self.pos = job;
        self.serves += 1;
        self.energy_used += cost;
        if self.remaining() < 2 {
            self.become_done(ctx);
        }
        ServeResult::Served
    }

    /// Transition `active → done`, initiating the replacement search unless
    /// the vehicle is faulty or already engaged.
    fn become_done(&mut self, ctx: &mut Context<OnlineMsg<D>>) {
        if self.work == WorkState::Done {
            return;
        }
        self.work = WorkState::Done;
        if self.faulty {
            return;
        }
        self.initiate_replacement(ctx, self.pos);
    }

    /// Starts a diffusing computation summoning an idle vehicle to `dest`.
    /// Used both by the done vehicle itself and by monitors acting for a
    /// silent peer (§3.2.5).
    pub fn initiate_replacement(&mut self, ctx: &mut Context<OnlineMsg<D>>, dest: Point<D>) {
        if !self.engine.is_waiting() {
            // Already part of a computation; the driver retries later.
            return;
        }
        self.summon_dest = Some(dest);
        let outcome = self.engine.start(self.id, &self.neighbors, |to, m| {
            ctx.send(to, OnlineMsg::Diffuse(m))
        });
        self.diffusions_started += 1;
        if ctx.obs_enabled() {
            let generation = self.engine.computation().map_or(0, |c| c.generation);
            ctx.emit(Event::DiffusionStarted {
                t: ctx.now(),
                initiator: self.id,
                generation,
            });
        }
        self.handle_outcome(ctx, outcome);
    }

    fn handle_outcome(&mut self, ctx: &mut Context<OnlineMsg<D>>, outcome: DiffuseOutcome) {
        match outcome {
            DiffuseOutcome::ClaimedAsTarget { init } => {
                self.claimed_by = Some(init);
            }
            DiffuseOutcome::InitiatorDone { child } => {
                self.diffusions_completed += 1;
                if child.is_some() {
                    self.diffusions_found += 1;
                }
                if ctx.obs_enabled() {
                    let generation = self.engine.computation().map_or(0, |c| c.generation);
                    ctx.emit(Event::DiffusionCompleted {
                        t: ctx.now(),
                        initiator: self.id,
                        generation,
                        found: child.is_some(),
                    });
                }
                match (child, self.summon_dest) {
                    (Some(child), Some(dest)) => {
                        ctx.send(
                            child,
                            OnlineMsg::Move {
                                dest,
                                init: self.engine.computation().expect("own computation"),
                            },
                        );
                        self.summon_dest = None;
                    }
                    _ => {
                        self.failed_search = true;
                        self.summon_dest = None;
                    }
                }
            }
            DiffuseOutcome::LocalDone | DiffuseOutcome::None => {}
        }
    }

    fn on_move(&mut self, ctx: &mut Context<OnlineMsg<D>>, dest: Point<D>, init: ComputationId) {
        if self.work == WorkState::Idle && self.claimed_by == Some(init) {
            // Phase II endpoint: relocate and activate.
            let dist = self.pos.manhattan(dest);
            self.energy_used += dist;
            self.moves += dist;
            self.pos = dest;
            self.work = WorkState::Active;
            self.claimed_by = None;
            self.arrived = Some(dest);
            if ctx.obs_enabled() {
                ctx.emit(Event::ReplacementCycle {
                    t: ctx.now(),
                    vehicle: self.id,
                    dest: dest.coords().to_vec(),
                    dist,
                });
            }
            return;
        }
        if self.engine.computation() == Some(init) {
            if let Some(child) = self.engine.child() {
                ctx.send(child, OnlineMsg::Move { dest, init });
            }
        }
        // Stale or misrouted move order: drop (counted by driver through
        // quiescence bookkeeping — nothing arrives).
    }
}

impl<const D: usize> Process<OnlineMsg<D>> for Vehicle<D> {
    fn on_message(&mut self, ctx: &mut Context<OnlineMsg<D>>, from: ProcessId, msg: OnlineMsg<D>) {
        match msg {
            OnlineMsg::Diffuse(DiffuseMsg::Query { init }) => {
                self.msg_counts[0] += 1;
                let i_am_target = self.work == WorkState::Idle;
                let outcome =
                    self.engine
                        .on_query(from, init, i_am_target, &self.neighbors, |to, m| {
                            ctx.send(to, OnlineMsg::Diffuse(m))
                        });
                self.handle_outcome(ctx, outcome);
            }
            OnlineMsg::Diffuse(DiffuseMsg::Reply { found, init }) => {
                self.msg_counts[1] += 1;
                let outcome = self.engine.on_reply(from, found, init, |to, m| {
                    ctx.send(to, OnlineMsg::Diffuse(m))
                });
                self.handle_outcome(ctx, outcome);
            }
            OnlineMsg::Move { dest, init } => {
                self.msg_counts[2] += 1;
                self.on_move(ctx, dest, init)
            }
            OnlineMsg::Existing => {
                self.msg_counts[3] += 1;
                // Clock heartbeats in tick rounds: Existing sent at round k
                // arrives before anyone reaches round k+1 (the driver
                // quiesces between ticks).
                self.heartbeat.record(from, self.ticks);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<OnlineMsg<D>>, _now: u64) {
        self.ticks += 1;
        // Heartbeat: announce "existing" to the designated watcher, except
        // when faulty-and-done (scenario 2's silence). Crashed vehicles are
        // muted by the network itself.
        let silent = (self.faulty && self.work == WorkState::Done) || self.broken;
        if !silent {
            if let Some(watcher) = self.report_to {
                ctx.send(watcher, OnlineMsg::Existing);
            }
        }
        // Monitoring: if the watched peer has gone silent, summon its
        // replacement.
        if let Some((peer, peer_pos)) = self.watch {
            if self.work == WorkState::Active
                && self.engine.is_waiting()
                && self.heartbeat.expired(self.ticks).contains(&peer)
            {
                self.heartbeat_misses += 1;
                if ctx.obs_enabled() {
                    ctx.emit(Event::HeartbeatMissed {
                        t: self.ticks,
                        watcher: self.id,
                        peer,
                    });
                }
                self.heartbeat.unwatch(peer);
                self.watch = None;
                self.initiate_replacement(ctx, peer_pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::pt2;
    use cmvrp_net::{NetConfig, Network};

    fn ctx_harness<R>(
        f: impl FnOnce(&mut Vehicle<2>, &mut Context<OnlineMsg<2>>) -> R,
    ) -> (Vehicle<2>, R, u64) {
        // Run a single vehicle inside a real network to get a Context.
        let v = Vehicle::new(0, pt2(0, 0), true, 10);
        let mut net = Network::new(vec![v], NetConfig::default());
        let r = net.trigger(0, |v, ctx| f(v, ctx));
        let sent = net.total_sent();
        // Extract the vehicle back for inspection.
        let v = std::mem::replace(net.process_mut(0), Vehicle::new(9, pt2(9, 9), false, 0));
        (v, r, sent)
    }

    #[test]
    fn serve_charges_walk_plus_one() {
        let (v, res, _) = ctx_harness(|v, ctx| v.serve(ctx, pt2(0, 1)));
        assert_eq!(res, ServeResult::Served);
        assert_eq!(v.energy_used(), 2);
        assert_eq!(v.pos(), pt2(0, 1));
        assert_eq!(v.serves(), 1);
        assert_eq!(v.moves(), 1);
    }

    #[test]
    fn idle_vehicle_refuses() {
        let v = Vehicle::<2>::new(0, pt2(0, 0), false, 10);
        let mut net = Network::new(vec![v], NetConfig::default());
        let res = net.trigger(0, |v, ctx| v.serve(ctx, pt2(0, 0)));
        assert_eq!(res, ServeResult::Refused);
    }

    #[test]
    fn exhaustion_triggers_done() {
        let v = Vehicle::<2>::new(0, pt2(0, 0), true, 3);
        let mut net = Network::new(vec![v], NetConfig::default());
        // Cost 1 (serve in place): remaining 2 → still active.
        assert_eq!(
            net.trigger(0, |v, c| v.serve(c, pt2(0, 0))),
            ServeResult::Served
        );
        assert_eq!(net.process(0).work(), WorkState::Active);
        // Cost 1: remaining 1 < 2 → done, and with no neighbors the search
        // fails immediately.
        assert_eq!(
            net.trigger(0, |v, c| v.serve(c, pt2(0, 0))),
            ServeResult::Served
        );
        assert_eq!(net.process(0).work(), WorkState::Done);
        assert!(net.process_mut(0).take_failed_search());
    }

    #[test]
    fn over_cost_job_refused_and_done() {
        let v = Vehicle::<2>::new(0, pt2(0, 0), true, 2);
        let mut net = Network::new(vec![v], NetConfig::default());
        // Job 4 away: cost 5 > 2 → refuse and go done.
        assert_eq!(
            net.trigger(0, |v, c| v.serve(c, pt2(2, 2))),
            ServeResult::Refused
        );
        assert_eq!(net.process(0).work(), WorkState::Done);
        assert_eq!(net.process(0).energy_used(), 0);
    }

    #[test]
    fn faulty_vehicle_does_not_initiate() {
        let mut v = Vehicle::<2>::new(0, pt2(0, 0), true, 2);
        v.set_faulty(true);
        v.set_neighbors(vec![1]);
        let mut net = Network::new(
            vec![v, Vehicle::new(1, pt2(0, 1), false, 10)],
            NetConfig::default(),
        );
        net.trigger(0, |v, c| v.serve(c, pt2(0, 0)));
        net.trigger(0, |v, c| v.serve(c, pt2(0, 0)));
        assert_eq!(net.process(0).work(), WorkState::Done);
        let report = net.run_to_quiescence();
        assert_eq!(report.delivered, 0, "faulty done vehicle must stay silent");
    }

    #[test]
    fn two_vehicle_replacement_end_to_end() {
        // Active 0 at (0,0), idle 1 at (0,1), neighbors of each other.
        let mut a = Vehicle::<2>::new(0, pt2(0, 0), true, 4);
        a.set_neighbors(vec![1]);
        let mut b = Vehicle::<2>::new(1, pt2(0, 1), false, 10);
        b.set_neighbors(vec![0]);
        let mut net = Network::new(vec![a, b], NetConfig::default());
        // Exhaust vehicle 0: serve 3 jobs in place (capacity 4 → after 3rd,
        // remaining 1 < 2 → done + initiate).
        for _ in 0..3 {
            assert_eq!(
                net.trigger(0, |v, c| v.serve(c, pt2(0, 0))),
                ServeResult::Served
            );
        }
        assert_eq!(net.process(0).work(), WorkState::Done);
        let report = net.run_to_quiescence();
        assert!(report.quiesced);
        // Vehicle 1 moved to (0,0) and became active.
        assert_eq!(net.process(1).work(), WorkState::Active);
        assert_eq!(net.process(1).pos(), pt2(0, 0));
        assert_eq!(net.process(1).energy_used(), 1); // one step of travel
        assert_eq!(net.process_mut(1).take_arrival(), Some(pt2(0, 0)));
        assert!(!net.process_mut(0).take_failed_search());
    }

    #[test]
    fn heartbeat_monitor_summons_replacement_for_crashed_peer() {
        // 0 active, 1 active (will crash), 2 idle. 0 watches 1.
        let mut a = Vehicle::<2>::new(0, pt2(0, 0), true, 20);
        a.set_neighbors(vec![1, 2]);
        a.set_watch(Some((1, pt2(2, 0))));
        let mut b = Vehicle::<2>::new(1, pt2(2, 0), true, 20);
        b.set_neighbors(vec![0, 2]);
        b.set_report_to(Some(0));
        let mut c = Vehicle::<2>::new(2, pt2(1, 0), false, 20);
        c.set_neighbors(vec![0, 1]);
        let mut net = Network::new(vec![a, b, c], NetConfig::default());
        net.crash(1);
        // Physical layer removes the crashed radio from neighbor lists.
        net.process_mut(0).set_neighbors(vec![2]);
        net.process_mut(2).set_neighbors(vec![0]);
        // Several silent ticks: heartbeat timeout is 3.
        for _ in 0..6 {
            net.tick_all();
            net.run_to_quiescence();
        }
        // Vehicle 2 must have been summoned to (2,0).
        assert_eq!(net.process(2).work(), WorkState::Active);
        assert_eq!(net.process(2).pos(), pt2(2, 0));
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut a = Vehicle::<2>::new(0, pt2(0, 0), true, 4);
        a.set_neighbors(vec![1]);
        let mut b = Vehicle::<2>::new(1, pt2(0, 1), false, 10);
        b.set_neighbors(vec![0]);
        let mut net = Network::new(vec![a, b], NetConfig::default());
        for _ in 0..3 {
            net.trigger(0, |v, c| {
                v.serve(c, pt2(0, 0));
            });
        }
        assert!(net.run_to_quiescence().quiesced);
        // Vehicle 1 relocated and now watches the done vehicle 0, which
        // heartbeats to it for two tick rounds.
        let pos0 = net.process(0).pos();
        net.process_mut(1).set_watch(Some((0, pos0)));
        net.process_mut(0).set_report_to(Some(1));
        for _ in 0..2 {
            net.tick_all();
            assert!(net.run_to_quiescence().quiesced);
        }
        // Global ids are the local ones shifted by 100.
        let global = |id: ProcessId| id as u64 + 100;
        let local = |g: u64| (100..102).contains(&g).then(|| g as usize - 100);
        let watch = net.process(1).snapshot(global).watch;
        assert_eq!(watch, Some((100, pos0.coords().to_vec(), 2)));
        // Snapshot both, restore into fresh shells.
        for id in 0..2 {
            let snap = net.process(id).snapshot(global);
            assert_eq!(snap.id, global(id));
            let home = net.process(id).home();
            let cap = net.process(id).capacity();
            let active_at_birth = id == 0;
            let mut fresh = Vehicle::<2>::new(id, home, active_at_birth, cap);
            fresh
                .restore(&snap, local, &GridBounds::square(2))
                .expect("the snapshot fits");
            assert_eq!(fresh.snapshot(global), snap);
            assert_eq!(fresh.pos(), net.process(id).pos());
            assert_eq!(fresh.work(), net.process(id).work());
            assert_eq!(fresh.energy_used(), net.process(id).energy_used());
        }
    }

    #[test]
    fn restore_names_what_does_not_fit_and_changes_nothing() {
        let mut v = Vehicle::<2>::new(0, pt2(1, 1), true, 10);
        v.set_neighbors(vec![1]);
        let snap = v.snapshot(|id| id as u64);
        let local = |g: u64| (g < 2).then_some(g as usize);
        let cube = GridBounds::square(2);
        let mut stranger = snap.clone();
        stranger.neighbors = vec![1, 7];
        let err = v.restore(&stranger, local, &cube).unwrap_err();
        assert_eq!(err, "neighbor 7 is not a vehicle of this shard");
        let mut deep = snap.clone();
        deep.pos = vec![1, 1, 0];
        let err = v.restore(&deep, local, &cube).unwrap_err();
        assert_eq!(err, "position has 3 coordinates, not 2");
        let mut astray = snap.clone();
        astray.arrived = Some(vec![1, 2]);
        let err = v.restore(&astray, local, &cube).unwrap_err();
        assert_eq!(err, "arrival (1,2) lies outside the vehicle's cube");
        assert_eq!(v.snapshot(|id| id as u64), snap);
    }

    #[test]
    fn accessors_and_remaining() {
        let v = Vehicle::<2>::new(5, pt2(3, 4), false, 17);
        assert_eq!(v.home(), pt2(3, 4));
        assert_eq!(v.capacity(), 17);
        assert_eq!(v.remaining(), 17);
        assert_eq!(v.work(), WorkState::Idle);
        assert!(v.neighbors().is_empty());
    }
}

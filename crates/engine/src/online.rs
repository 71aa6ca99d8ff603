//! The sharded on-line simulation: sparse per-shard drivers for the
//! Chapter 3 protocol, plus the streaming canonical trace merge.
//!
//! Each shard owns a private [`Network`] holding only the vehicles of
//! *materialized* cubes — a cube materializes the first time a job lands
//! in it, so an idle vehicle at home with a full battery costs nothing
//! until its neighborhood sees demand. All protocol traffic is intra-cube
//! (neighbor lists never cross cube walls) and shards are unions of whole
//! cubes, so shards never exchange a message: [`crate::rounds`] hands
//! each shard only its round's epoch.
//!
//! ## Time, sequence numbers, and the streaming merge
//!
//! Round `r` starts at a global epoch `E_r` strictly greater than every
//! shard's clock after round `r-1`, so rounds occupy disjoint ascending
//! time bands. Each shard releases at most one job per round (its `r`-th),
//! records its arrival at `t = E_r`, and runs to local quiescence. Job
//! sequence numbers are staged by the coordinator at each round barrier —
//! every shard that will release next round gets the next global number,
//! in shard order, which is `(round, shard)` lexicographic order overall —
//! exactly the order arrivals appear when the per-shard streams are merged
//! by the canonical key `(t, shard, index)`, so the job-ledger monitor
//! sees `seq` 0, 1, 2, … like it does on a single-stream trace. Staging at
//! the barrier (rather than pre-assigning at construction) is what lets a
//! [`crate::Session`] append externally injected jobs to a shard's queue
//! mid-run without breaking the contiguous global numbering. Because
//! shard-local execution and the merge key are both independent of the
//! worker count, the merged stream is byte-identical for any `--threads`
//! value.
//!
//! The merge itself happens *during* the run: at every round barrier the
//! coordinator drains each shard's buffer, k-way merges that round's
//! events, and pushes them straight into the caller's sink
//! ([`ShardedOnlineSim::run`], or a [`crate::Session`]). Because rounds
//! occupy disjoint ascending time bands, concatenating per-round merges
//! equals a whole-run merge — but peak memory is one round's events, not
//! the whole trace.
//!
//! ## Monitored mode
//!
//! With [`OnlineConfig::monitored`] each shard runs the §3.2.5 heartbeat
//! ring over its own materialized cubes: after every released job it
//! ticks its network once, and when a job is refused it ticks eight
//! times, each followed by quiescence. Ticks never leave the shard, so the
//! merged trace stays byte-identical for every worker count;
//! a shard ticks only in rounds where it releases a job, so heartbeat
//! traffic exists only in cubes that have seen demand (or a fault).
//!
//! ## Inline verification
//!
//! In a checked run ([`ExecConfig::check`]) every buffering shard carries
//! a full [`TraceChecker`] over its local stream, configured for the shard
//! view: seeded capacity, gap-tolerant job ledger. At the end of each
//! round, still on the worker thread, the shard runs it once over the
//! events that round appended to its buffer, so the monitors stay out of
//! the message-delivery loop and violation lines count the shard's events
//! exactly as an observe-on-record checker would. A checked
//! [`crate::Session`] also feeds the merged stream through a
//! [`cmvrp_obs::MergeChecker`] that certifies the two properties only the
//! merge can see — the global clock and global job-seq contiguity.

use crate::checkpoint::{run_fingerprint, EngineCheckpoint, ShardCheckpoint, VehicleCheckpoint};
use crate::rounds::{
    run_lockstep, LockstepStart, RoundControl, RoundInfo, RoundOutcome, RoundStats, ShardWorker,
    WorkerStats,
};
use crate::shard::ShardMap;
use crate::{EngineError, ExecConfig};
use cmvrp_grid::{pairing_in_cube, CubeId, CubePartition, GridBounds, Pairing, Point};
use cmvrp_net::diffuse::ComputationId;
use cmvrp_net::{NetConfig, Network, ProcessId, TransportSnapshot};
use cmvrp_obs::{
    Event, Histogram, MergeChecker, Metrics, NullSink, Sink, StaticSink, TraceChecker, VecSink,
    Violation, DEFAULT_BUCKETS,
};
use cmvrp_online::vehicle::{ServeResult, Vehicle, VehicleSnapshot, WorkState};
use cmvrp_online::{provision, OnlineConfig, OnlineMsg, OnlineReport, Provisioning};
use cmvrp_workloads::JobSequence;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};

/// What the sharded engine needs from a per-shard sink: a monomorphized
/// [`StaticSink`] (so the disabled path compiles away inside the hot
/// per-shard networks) that buffers a round's events for the shard's
/// checker and the streaming merge.
pub trait ShardSink: StaticSink + Default + Send {
    /// The events buffered since the last
    /// [`take_events`](ShardSink::take_events), oldest first (empty for
    /// non-buffering sinks).
    fn buffered(&self) -> &[Event];

    /// Takes every event buffered since the last call (empty for
    /// non-buffering sinks).
    fn take_events(&mut self) -> Vec<Event>;
}

impl ShardSink for NullSink {
    fn buffered(&self) -> &[Event] {
        &[]
    }

    fn take_events(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

impl ShardSink for VecSink {
    fn buffered(&self) -> &[Event] {
        self.events()
    }

    fn take_events(&mut self) -> Vec<Event> {
        self.drain()
    }
}

/// Mixes the run seed with a shard id so shards draw independent delay
/// streams while staying a pure function of `(seed, shard)`.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Heartbeat tick rounds a monitored shard runs after each released job.
const TICKS_PER_JOB: u32 = 1;

/// Heartbeat tick rounds a monitored shard runs, each followed by
/// quiescence, when a job's responsible vehicle cannot serve it.
const RECOVERY_TICKS: u32 = 8;

/// One shard's slice of the on-line simulation: the vehicles of the cubes
/// this shard owns, materialized on first demand, and the physical layer
/// over them (positions, pairings, neighbor lists, the monitoring ring).
#[derive(Debug)]
struct ShardSim<const D: usize, SS: ShardSink> {
    net: Network<Vehicle<D>, OnlineMsg<D>, SS>,
    bounds: GridBounds<D>,
    part: CubePartition<D>,
    comm_radius: u64,
    monitored: bool,
    capacity: u64,
    /// Local process id → global vehicle id (lexicographic vertex index).
    global_ids: Vec<usize>,
    /// Materialized cubes in materialization order, which fixes the local
    /// process ids (and with them the order ticks visit vehicles in).
    cubes: Vec<CubeId<D>>,
    /// Per materialized cube, the contiguous local ids of its vehicles in
    /// lexicographic home order; vehicles never leave their cube.
    members: HashMap<CubeId<D>, Range<ProcessId>>,
    pairings: HashMap<CubeId<D>, Pairing<D>>,
    pair_active: HashMap<(CubeId<D>, usize), ProcessId>,
    /// This shard's job queue; entry `released` is the next to go, one per
    /// round. Sessions may append to the tail between rounds.
    jobs: Vec<Point<D>>,
    /// Global sequence number for the next release, staged by the
    /// coordinator at the round barrier (`Some` exactly when a release is
    /// due next round).
    staged_seq: Option<u64>,
    released: usize,
    served: u64,
    unserved: u64,
    replacements: u64,
    failed_replacements: u64,
    /// Vehicles `absorb_events` visited and `recompute_neighbors` scanned.
    absorb_visits: u64,
    neighbor_visits: u64,
    arrival_scratch: Event,
    /// The shard-local monitors of a checked run, fed once per round.
    checker: Option<TraceChecker>,
}

impl<const D: usize, SS: ShardSink> ShardSim<D, SS> {
    fn new(
        shard: usize,
        bounds: GridBounds<D>,
        part: CubePartition<D>,
        config: &OnlineConfig,
        capacity: u64,
        jobs: Vec<Point<D>>,
    ) -> Self {
        let mut net = Network::with_sink(
            Vec::new(),
            NetConfig {
                seed: shard_seed(config.seed, shard),
                ..NetConfig::default()
            },
            SS::default(),
        );
        if SS::ENABLED {
            net.set_msg_classifier(OnlineMsg::<D>::kind);
        }
        ShardSim {
            net,
            bounds,
            part,
            comm_radius: config.comm_radius,
            monitored: config.monitored,
            capacity,
            global_ids: Vec::new(),
            cubes: Vec::new(),
            members: HashMap::new(),
            pairings: HashMap::new(),
            pair_active: HashMap::new(),
            jobs,
            staged_seq: None,
            released: 0,
            served: 0,
            unserved: 0,
            replacements: 0,
            failed_replacements: 0,
            absorb_visits: 0,
            neighbor_visits: 0,
            arrival_scratch: Event::JobArrived {
                t: 0,
                seq: 0,
                pos: Vec::with_capacity(D),
            },
            checker: None,
        }
    }

    /// Gives a buffering shard its monitors, configured for the shard view:
    /// the stream has no `fleet_provisioned` header and sees a
    /// non-contiguous slice of the global sequence numbers, so the energy
    /// monitor is seeded and the ledger relaxed.
    fn enable_check(&mut self) {
        if SS::ENABLED && self.checker.is_none() {
            let mut checker = TraceChecker::new();
            checker.set_capacity(self.capacity);
            checker.allow_seq_gaps();
            self.checker = Some(checker);
        }
    }

    /// Materializes a cube on first demand: adds one vehicle per vertex
    /// (ids in lexicographic vertex order), pairs it, activates
    /// primaries, wires neighbor lists and, when monitored, the ring.
    fn ensure_cube(&mut self, cube_id: CubeId<D>) {
        if self.pairings.contains_key(&cube_id) {
            return;
        }
        let cube = self.part.cube_bounds(cube_id);
        let start = self.net.len();
        for home in cube.iter() {
            let lid = self.net.add_process(Vehicle::new(
                self.global_ids.len(),
                home,
                false,
                self.capacity,
            ));
            debug_assert_eq!(lid, self.global_ids.len());
            self.global_ids.push(self.bounds.index_of(home) as usize);
        }
        let pairing = pairing_in_cube(&cube);
        for (idx, (primary, _)) in pairing.pairs().iter().enumerate() {
            let lid = start + cube.index_of(*primary) as usize;
            *self.net.process_mut(lid) = Vehicle::new(lid, *primary, true, self.capacity);
            self.pair_active.insert((cube_id, idx), lid);
        }
        self.pairings.insert(cube_id, pairing);
        self.members.insert(cube_id, start..self.net.len());
        self.cubes.push(cube_id);
        self.recompute_neighbors(cube_id);
        if self.monitored {
            self.rewire_monitors();
        }
    }

    /// The local id of the vehicle whose home is `home`, materializing its
    /// cube first.
    fn vehicle_at(&mut self, home: Point<D>) -> ProcessId {
        let cube = self.part.cube_of(home);
        self.ensure_cube(cube);
        self.members[&cube].start + self.part.cube_bounds(cube).index_of(home) as usize
    }

    /// Physical layer: recompute neighbor lists for all vehicles inside
    /// `cube` (positions are dynamic but never leave the cube).
    fn recompute_neighbors(&mut self, cube: CubeId<D>) {
        let ids = self.members[&cube].clone();
        self.neighbor_visits += ids.len() as u64;
        let members: Vec<(ProcessId, Point<D>)> = ids
            .filter(|&id| !self.net.is_crashed(id))
            .map(|id| (id, self.net.process(id).pos()))
            .collect();
        debug_assert!(members
            .iter()
            .all(|(_, pos)| self.part.cube_of(*pos) == cube));
        for &(id, pos) in &members {
            let neighbors: Vec<ProcessId> = members
                .iter()
                .filter(|(other, opos)| *other != id && pos.manhattan(*opos) <= self.comm_radius)
                .map(|(other, _)| *other)
                .collect();
            self.net.process_mut(id).set_neighbors(neighbors);
        }
    }

    /// §3.2.5 monitoring ring: in each materialized cube, visited in
    /// materialization order, the vehicles currently responsible for the
    /// pairs watch one another in pair-index order. Crashed or silent
    /// vehicles stay in the ring as *watched* targets (that is the point
    /// of monitoring) but cannot act as watchers.
    fn rewire_monitors(&mut self) {
        for c in 0..self.cubes.len() {
            let cube_id = self.cubes[c];
            let npairs = self.pairings[&cube_id].pairs().len();
            let members: Vec<ProcessId> = (0..npairs)
                .filter_map(|idx| self.pair_active.get(&(cube_id, idx)).copied())
                .collect();
            for (k, &id) in members.iter().enumerate() {
                if self.net.is_crashed(id) || self.net.process(id).work() != WorkState::Active {
                    continue; // cannot act as a watcher
                }
                let target = members[(k + 1) % members.len()];
                let watch = if target == id {
                    None
                } else {
                    Some((target, self.net.process(target).pos()))
                };
                self.net.process_mut(id).set_watch(watch);
                if target != id {
                    // Tell the target where to send its heartbeats.
                    self.net.process_mut(target).set_report_to(Some(id));
                }
            }
        }
    }

    /// Ticks every vehicle of the shard once, then lets the network
    /// quiesce and absorbs what happened.
    fn tick_round(&mut self) {
        self.net.tick_all();
        self.net.run_to_quiescence();
        self.absorb_events();
    }

    /// Driver bookkeeping after quiescence: absorb completed relocations
    /// and failed searches. Only a vehicle that ran a handler can have
    /// either, so this visits just those, in ascending id order.
    fn absorb_events(&mut self) {
        let mut moved: Vec<(ProcessId, Point<D>)> = Vec::new();
        self.net.drain_touched(|id, vehicle| {
            self.absorb_visits += 1;
            if let Some(dest) = vehicle.take_arrival() {
                moved.push((id, dest));
            }
            if vehicle.take_failed_search() {
                self.failed_replacements += 1;
            }
        });
        for (id, dest) in moved {
            self.replacements += 1;
            let cube = self.part.cube_of(dest);
            let pairing = &self.pairings[&cube];
            let pair = pairing
                .pair_of(dest)
                .expect("relocation destination must be a paired vertex");
            self.pair_active.insert((cube, pair), id);
            self.recompute_neighbors(cube);
        }
        if self.monitored {
            self.rewire_monitors();
        }
    }

    /// Delivers one job and lets the shard quiesce. Returns whether it was
    /// served.
    fn deliver(&mut self, seq: u64, job: Point<D>) -> bool {
        let cube = self.part.cube_of(job);
        let pair = self.pairings[&cube].pair_of(job).expect("job on grid");
        let mut served = false;
        // Up to two attempts: if the first responsible vehicle cannot serve
        // (exhausted or crashed), quiesce — letting replacement or
        // monitoring run — and retry once.
        for attempt in 0..2 {
            let vid = match self.pair_active.get(&(cube, pair)) {
                Some(&vid) => vid,
                None => break,
            };
            if !self.net.is_crashed(vid) {
                let cost = self.net.process(vid).pos().manhattan(job) + 1;
                let result = self.net.trigger(vid, |v, ctx| v.serve(ctx, job));
                if result == ServeResult::Served {
                    if SS::ENABLED {
                        let ev = Event::JobServed {
                            t: self.net.now(),
                            seq,
                            vehicle: vid,
                            cost,
                        };
                        self.net.sink_mut().record(&ev);
                    }
                    served = true;
                    // The server may have gone done and started Phase I.
                    self.net.run_to_quiescence();
                    self.absorb_events();
                    break;
                }
            }
            // Responsible vehicle unavailable: run recovery machinery.
            if self.monitored {
                for _ in 0..RECOVERY_TICKS {
                    self.tick_round();
                }
            } else {
                self.net.run_to_quiescence();
                self.absorb_events();
            }
            if attempt == 1 {
                break;
            }
        }
        if self.monitored {
            for _ in 0..TICKS_PER_JOB {
                self.net.tick_all();
            }
            self.net.run_to_quiescence();
            self.absorb_events();
        }
        served
    }
}

impl<const D: usize, SS: ShardSink> ShardWorker for ShardSim<D, SS> {
    fn round(&mut self, epoch: u64) -> RoundOutcome {
        self.net.advance_to(epoch);
        if self.released < self.jobs.len() {
            let seq = self
                .staged_seq
                .take()
                .expect("coordinator stages a global seq before every release round");
            let job = self.jobs[self.released];
            self.released += 1;
            let cube = self.part.cube_of(job);
            self.ensure_cube(cube);
            if SS::ENABLED {
                let now = self.net.now();
                if let Event::JobArrived { t, seq: s, pos } = &mut self.arrival_scratch {
                    *t = now;
                    *s = seq;
                    pos.clear();
                    pos.extend_from_slice(&job.coords());
                }
                let ev = self.arrival_scratch.clone();
                self.net.sink_mut().record(&ev);
            }
            if self.deliver(seq, job) {
                self.served += 1;
            } else {
                self.unserved += 1;
            }
        }
        // The merge drained the buffer at the last barrier, so it holds
        // exactly the events not yet checked.
        if let Some(checker) = &mut self.checker {
            for ev in self.net.sink().buffered() {
                checker.observe(ev);
            }
        }
        RoundOutcome {
            now: self.net.now(),
            idle: self.released == self.jobs.len(),
        }
    }
}

impl<const D: usize, SS: ShardSink> ShardSim<D, SS> {
    /// Drains the shard's event buffer, rewriting local process ids to
    /// global (lexicographic vertex index) ids.
    fn drain_remapped(&mut self) -> Vec<Event> {
        let mut events = self.net.sink_mut().take_events();
        for ev in &mut events {
            match ev {
                Event::MsgSent { from, to, .. }
                | Event::MsgDelivered { from, to, .. }
                | Event::MsgDropped { from, to, .. } => {
                    *from = self.global_ids[*from];
                    *to = self.global_ids[*to];
                }
                Event::JobServed { vehicle, .. } | Event::ReplacementCycle { vehicle, .. } => {
                    *vehicle = self.global_ids[*vehicle];
                }
                Event::DiffusionStarted { initiator, .. }
                | Event::DiffusionCompleted { initiator, .. } => {
                    *initiator = self.global_ids[*initiator];
                }
                Event::HeartbeatMissed { watcher, peer, .. } => {
                    *watcher = self.global_ids[*watcher];
                    *peer = self.global_ids[*peer];
                }
                Event::ProcessCrashed { proc, .. } => {
                    *proc = self.global_ids[*proc];
                }
                Event::JobArrived { .. }
                | Event::FleetProvisioned { .. }
                | Event::PhaseSpan { .. }
                | Event::RoundProfile { .. } => {}
            }
        }
        events
    }

    /// This shard's local clock, read by the coordinator at a barrier to
    /// derive the resume epoch.
    fn now(&self) -> u64 {
        self.net.now()
    }

    /// Captures this shard's durable state at a quiescent round barrier.
    ///
    /// Cubes are listed in materialization order (a function of this
    /// shard's own arrivals, never of the worker count), every other
    /// map-derived list is emitted sorted, and every process reference is
    /// rewritten to its global id, so the record — and any serialization
    /// of it — is byte-identical for every worker count.
    fn checkpoint(&self) -> ShardCheckpoint {
        let transport = self.net.transport_snapshot();
        let mut pair_active: Vec<(Vec<i64>, u64, u64)> = self
            .pair_active
            .iter()
            .map(|(&(cube, idx), &vid)| (cube.0.to_vec(), idx as u64, self.global_ids[vid] as u64))
            .collect();
        pair_active.sort();
        let global_cid = |c: ComputationId| (self.global_ids[c.initiator] as u64, c.generation);
        let global = |lid: ProcessId| self.global_ids[lid] as u64;
        let mut vehicles: Vec<VehicleCheckpoint> = (0..self.net.len())
            .map(|lid| {
                let snap = self.net.process(lid).snapshot();
                let (engine_init, engine_next_generation) = snap.engine;
                VehicleCheckpoint {
                    global_id: self.global_ids[lid] as u64,
                    pos: snap.pos.coords().to_vec(),
                    work: snap.work,
                    energy_used: snap.energy_used,
                    moves: snap.moves,
                    serves: snap.serves,
                    claimed_by: snap.claimed_by.map(global_cid),
                    summon_dest: snap.summon_dest.map(|p| p.coords().to_vec()),
                    failed_search: snap.failed_search,
                    arrived: snap.arrived.map(|p| p.coords().to_vec()),
                    neighbors: snap.neighbors.iter().map(|&n| global(n)).collect(),
                    msg_counts: snap.msg_counts,
                    diffusions: snap.diffusions,
                    engine_init: engine_init.map(global_cid),
                    engine_next_generation,
                    watch: snap
                        .watch
                        .map(|(peer, pos, seen)| (global(peer), pos.coords().to_vec(), seen)),
                    report_to: snap.report_to.map(global),
                    ticks: snap.ticks,
                    heartbeat_misses: snap.heartbeat_misses,
                }
            })
            .collect();
        vehicles.sort_by_key(|v| v.global_id);
        ShardCheckpoint {
            now: transport.now,
            seq: transport.seq,
            rng_state: transport.rng_state,
            total_sent: transport.total_sent,
            total_delivered: transport.total_delivered,
            total_lost: transport.total_lost,
            total_to_crashed: transport.total_to_crashed,
            queue_depth_max: transport.queue_depth_max,
            delay_counts: transport.delay_hist.raw_counts().to_vec(),
            delay_count: transport.delay_hist.count(),
            delay_sum: transport.delay_hist.sum(),
            delay_max: transport.delay_hist.max(),
            released: self.released as u64,
            served: self.served,
            unserved: self.unserved,
            replacements: self.replacements,
            failed_replacements: self.failed_replacements,
            cubes: self.cubes.iter().map(|c| c.0.to_vec()).collect(),
            pair_active,
            vehicles,
        }
    }

    /// Reinjects checkpoint state into a freshly constructed shard.
    ///
    /// Cubes re-materialize in the checkpoint's order, which is the
    /// original run's materialization order, so every local process id —
    /// and with it the order ticks visit vehicles in — matches the
    /// original run's. Every vehicle, pairing activation, counter, and the
    /// transport layer are then overwritten with the recorded state.
    fn restore(&mut self, ckpt: &ShardCheckpoint) {
        let cube_of = |coords: &[i64]| {
            let mut id = [0i64; D];
            id.copy_from_slice(coords);
            CubeId(id)
        };
        let point_of = |coords: &Vec<i64>| {
            let mut p = [0i64; D];
            p.copy_from_slice(coords);
            Point::new(p)
        };
        for coords in &ckpt.cubes {
            self.ensure_cube(cube_of(coords));
        }
        let local_of: HashMap<u64, ProcessId> = self
            .global_ids
            .iter()
            .enumerate()
            .map(|(lid, &gid)| (gid as u64, lid))
            .collect();
        let local_cid = |&(initiator, generation): &(u64, u64)| ComputationId {
            initiator: local_of[&initiator],
            generation,
        };
        self.pair_active.clear();
        for (coords, idx, global_vid) in &ckpt.pair_active {
            self.pair_active
                .insert((cube_of(coords), *idx as usize), local_of[global_vid]);
        }
        for v in &ckpt.vehicles {
            let snap = VehicleSnapshot {
                pos: point_of(&v.pos),
                work: v.work,
                energy_used: v.energy_used,
                moves: v.moves,
                serves: v.serves,
                claimed_by: v.claimed_by.as_ref().map(local_cid),
                summon_dest: v.summon_dest.as_ref().map(point_of),
                failed_search: v.failed_search,
                arrived: v.arrived.as_ref().map(point_of),
                neighbors: v.neighbors.iter().map(|g| local_of[g]).collect(),
                msg_counts: v.msg_counts,
                diffusions: v.diffusions,
                engine: (
                    v.engine_init.as_ref().map(local_cid),
                    v.engine_next_generation,
                ),
                watch: v
                    .watch
                    .as_ref()
                    .map(|(peer, pos, seen)| (local_of[peer], point_of(pos), *seen)),
                report_to: v.report_to.map(|g| local_of[&g]),
                ticks: v.ticks,
                heartbeat_misses: v.heartbeat_misses,
            };
            // Through `trigger`, so the next absorb visits the vehicle and
            // still sees a checkpointed pending arrival or failed search.
            self.net
                .trigger(local_of[&v.global_id], |p, _| p.restore(&snap));
        }
        self.released = ckpt.released as usize;
        self.served = ckpt.served;
        self.unserved = ckpt.unserved;
        self.replacements = ckpt.replacements;
        self.failed_replacements = ckpt.failed_replacements;
        let mut delay_hist = Histogram::with_bounds(&DEFAULT_BUCKETS);
        delay_hist.restore_state(
            &ckpt.delay_counts,
            ckpt.delay_count,
            ckpt.delay_sum,
            ckpt.delay_max,
        );
        self.net.restore_transport(&TransportSnapshot {
            now: ckpt.now,
            seq: ckpt.seq,
            rng_state: ckpt.rng_state,
            total_sent: ckpt.total_sent,
            total_delivered: ckpt.total_delivered,
            total_lost: ckpt.total_lost,
            total_to_crashed: ckpt.total_to_crashed,
            queue_depth_max: ckpt.queue_depth_max,
            delay_hist,
        });
    }
}

/// The merge key time of an event in one shard's stream. An event without
/// a simulation time (a `heartbeat_missed`, clocked in the watcher's tick
/// rounds) takes the time of the event before it in the same stream, so
/// it merges next to the events around it; `last` carries that time.
fn event_time(ev: &Event, last: &mut u64) -> u64 {
    if let Some(t) = ev.time() {
        *last = t;
    }
    *last
}

/// The sharded, sparse, deterministic parallel on-line simulator — the
/// one on-line engine.
///
/// Construction partitions the grid into cube-aligned shards
/// ([`ShardMap`]) and splits the job sequence among them; [`run`] executes
/// conservative lockstep rounds under an [`ExecConfig`] (worker-thread
/// bound). With a buffering shard sink (`SS = VecSink`), `run` merges the
/// per-shard streams into the caller's sink *at every round barrier*,
/// producing the canonical merged trace — byte-identical for every thread
/// count — with peak memory bounded by one round's events.
///
/// Most callers go through [`ExecConfig::execute`] or a
/// [`crate::Session`]; a pre-built simulator is the way to inject faults
/// before the run ([`crash_vehicle_at`], [`set_faulty_at`],
/// [`set_longevity_at`]).
///
/// [`run`]: ShardedOnlineSim::run
/// [`crash_vehicle_at`]: ShardedOnlineSim::crash_vehicle_at
/// [`set_faulty_at`]: ShardedOnlineSim::set_faulty_at
/// [`set_longevity_at`]: ShardedOnlineSim::set_longevity_at
///
/// # Examples
///
/// ```
/// use cmvrp_engine::{ExecConfig, ShardedOnlineSim};
/// use cmvrp_grid::GridBounds;
/// use cmvrp_obs::NullSink;
/// use cmvrp_online::OnlineConfig;
/// use cmvrp_workloads::{arrivals, spatial, Ordering};
///
/// let bounds = GridBounds::square(12);
/// let demand = spatial::point(&bounds, 100);
/// let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
/// let mut sim = ShardedOnlineSim::<2>::new(bounds, &jobs, OnlineConfig::default());
/// let exec = ExecConfig::new().threads(4);
/// let report = sim.run(&exec, &mut NullSink);
/// assert_eq!(report.unserved, 0);
/// ```
#[derive(Debug)]
pub struct ShardedOnlineSim<const D: usize, SS: ShardSink = NullSink> {
    shards: Vec<ShardSim<D, SS>>,
    bounds: GridBounds<D>,
    map: ShardMap<D>,
    prov: Provisioning,
    stats: Option<RoundStats>,
    fingerprint: u64,
    resume: Option<ResumeInfo>,
}

/// Where a resumed run picks up: the continuation cursors carried over
/// from the checkpoint.
#[derive(Debug, Clone, Copy)]
struct ResumeInfo {
    rounds_completed: u64,
    next_epoch: u64,
    trace_events: u64,
    jobs_released: u64,
}

/// The continuation cursor threaded through
/// [`drive`](ShardedOnlineSim::drive) batches: round, epoch, sequence,
/// and trace-event counters plus the accumulated per-worker statistics.
/// Splitting a run into batches and carrying one cursor across them is
/// byte- and state-equivalent to one uninterrupted run.
#[derive(Debug)]
pub(crate) struct DriveCursor {
    /// Canonical merged events emitted so far, header included.
    pub(crate) merged_total: u64,
    /// Lockstep rounds completed (absolute, checkpoint-compatible).
    pub(crate) rounds_done: u64,
    /// Epoch the next round must start at (strictly above every shard
    /// clock).
    pub(crate) next_epoch: u64,
    /// Next global job sequence number to stage.
    pub(crate) next_seq: u64,
    /// Whether the `fleet_provisioned` header has been emitted (true from
    /// the start on resumed runs).
    pub(crate) header_done: bool,
    /// Epoch the most recent round started at.
    pub(crate) final_epoch: u64,
    /// Per-worker counters accumulated across batches.
    pub(crate) workers: Vec<WorkerStats>,
    /// The live progress line, kept alive across batches so the repaint
    /// throttle and events/s accounting span the whole session.
    progress: Option<Progress>,
}

/// Where a [`drive`](ShardedOnlineSim::drive) batch must stop, beyond the
/// always-on "every shard idle" exit and the builder's
/// [`crate::CheckpointPolicy::stop_at`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepLimit {
    /// Run until every shard is idle (or the checkpoint policy stops).
    None,
    /// Stop at the last barrier whose next round would start after this
    /// epoch: rounds starting at epochs `<= t` run, later ones do not.
    Until(u64),
    /// Stop at the barrier after this absolute round number.
    Round(u64),
}

impl<const D: usize, SS: ShardSink> ShardedOnlineSim<D, SS> {
    /// Builds the sharded simulation: derives the provisioning
    /// ([`provision`]) from the sequence's induced demand, lays out
    /// cube-aligned shards, and splits the job sequence by shard (trace
    /// sequence numbers are staged at the round barriers, in
    /// `(round, shard)` order). No vehicles are materialized yet.
    ///
    /// # Panics
    ///
    /// Panics if any job lies outside `bounds`.
    pub fn new(bounds: GridBounds<D>, jobs: &JobSequence<D>, config: OnlineConfig) -> Self {
        Self::build(bounds, jobs, config, true)
    }

    /// Builds the sharded simulation provisioned for `jobs` — same fleet,
    /// cube side, and shard layout as [`new`](ShardedOnlineSim::new) —
    /// but with every job queue *empty*: arrivals are expected to stream
    /// in later through [`Session::inject`](crate::Session::inject) (the
    /// session's "live" mode). `jobs` is the planning demand the fleet is
    /// provisioned against, not a preloaded schedule.
    ///
    /// # Panics
    ///
    /// Panics if any job lies outside `bounds`.
    pub fn new_live(bounds: GridBounds<D>, jobs: &JobSequence<D>, config: OnlineConfig) -> Self {
        Self::build(bounds, jobs, config, false)
    }

    fn build(
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        preload: bool,
    ) -> Self {
        for job in jobs.iter() {
            assert!(bounds.contains(job), "job at {job} outside bounds");
        }
        let demand = jobs.to_demand();
        let prov = provision(&bounds, &demand, &config);
        let map = ShardMap::new(bounds, prov.side);
        let mut per_shard: Vec<Vec<Point<D>>> = vec![Vec::new(); map.shard_count()];
        if preload {
            for job in jobs.iter() {
                per_shard[map.shard_of_point(job)].push(job);
            }
        }
        let part = *map.partition();
        let shards = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, jobs)| ShardSim::new(shard, bounds, part, &config, prov.capacity, jobs))
            .collect();
        ShardedOnlineSim {
            shards,
            bounds,
            map,
            prov,
            stats: None,
            fingerprint: run_fingerprint(&bounds, jobs, &config),
            resume: None,
        }
    }

    /// Builds the sharded simulation positioned at `ckpt`: constructs it
    /// from the *same* inputs as the original run (enforced by
    /// fingerprint), then reinjects every shard's recorded state, so the
    /// next round continues exactly where the checkpointed run left off —
    /// the trace tail is byte-identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`EngineError::ResumeMismatch`] when `ckpt` was written by a run
    /// with different inputs (bounds, jobs, or an execution-shaping
    /// [`OnlineConfig`] field).
    pub fn resume(
        bounds: GridBounds<D>,
        jobs: &JobSequence<D>,
        config: OnlineConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        let mut sim = Self::new(bounds, jobs, config);
        if sim.fingerprint != ckpt.fingerprint {
            return Err(EngineError::ResumeMismatch {
                expected: sim.fingerprint,
                found: ckpt.fingerprint,
            });
        }
        assert_eq!(
            sim.shards.len(),
            ckpt.shards.len(),
            "equal fingerprints imply an equal shard layout",
        );
        for (shard, recorded) in sim.shards.iter_mut().zip(&ckpt.shards) {
            shard.restore(recorded);
        }
        sim.resume = Some(ResumeInfo {
            rounds_completed: ckpt.rounds_completed,
            next_epoch: ckpt.next_epoch,
            trace_events: ckpt.trace_events,
            jobs_released: ckpt.jobs_released(),
        });
        Ok(sim)
    }

    /// The continuation cursor a fresh `drive` sequence starts from:
    /// epoch 1, round 1, sequence 0 for fresh constructions; the
    /// checkpoint's recorded cursors after
    /// [`resume`](ShardedOnlineSim::resume).
    pub(crate) fn cursor(&self) -> DriveCursor {
        match self.resume {
            Some(r) => DriveCursor {
                merged_total: r.trace_events,
                rounds_done: r.rounds_completed,
                next_epoch: r.next_epoch,
                next_seq: r.jobs_released,
                header_done: true,
                final_epoch: r.next_epoch.saturating_sub(1),
                workers: Vec::new(),
                progress: None,
            },
            None => DriveCursor {
                merged_total: 0,
                rounds_done: 0,
                next_epoch: 1,
                next_seq: 0,
                header_done: false,
                final_epoch: 0,
                workers: Vec::new(),
                progress: None,
            },
        }
    }

    /// Replays the job sequence in conservative lockstep rounds under
    /// `exec` (worker-thread bound), streams the canonical merged trace
    /// into `sink`, and reports the
    /// Theorem 1.4.2 accounting: a single `fleet_provisioned` header at
    /// `t = 0`, then — at every round barrier — a stable k-way merge of
    /// that round's (id-remapped) per-shard events keyed by
    /// `(t, shard, index)`. Rounds occupy disjoint ascending time bands,
    /// so the concatenation of per-round merges is exactly the whole-run
    /// merge. The report and the merged bytes are identical for every
    /// thread count. Only a buffering shard sink `SS` has
    /// events to stream; under a checked `exec` its shard-local monitors
    /// run as well (see
    /// [`take_shard_violations`](ShardedOnlineSim::take_shard_violations)).
    pub fn run(&mut self, exec: &ExecConfig, sink: &mut dyn Sink) -> OnlineReport {
        let mut cur = self.cursor();
        self.drive(exec, sink, None, None, &mut cur, StepLimit::None);
        self.report()
    }

    /// Executes one *batch* of lockstep rounds — the single round loop
    /// that every entry point ([`run`](ShardedOnlineSim::run) and
    /// [`crate::Session`]) drives. `cur` is the continuation cursor: a
    /// caller that passes the same cursor back produces, across any split
    /// into batches, exactly the rounds, trace bytes, and checkpoints of
    /// one uninterrupted run. `limit` bounds the
    /// batch (in addition to the builder's
    /// [`crate::CheckpointPolicy::stop_at`]); the batch also ends when
    /// every shard goes idle.
    ///
    /// Job sequence numbers are staged here: at batch entry and at every
    /// continuing barrier, each shard about to release gets the next
    /// global number in shard order — `(round, shard)` lexicographic
    /// order overall. A stopped batch leaves the next round unstaged, so
    /// a session may append injected jobs before the next batch stages it.
    pub(crate) fn drive(
        &mut self,
        exec: &ExecConfig,
        sink: &mut dyn Sink,
        mut cross: Option<&mut MergeChecker>,
        mut observer: Option<&mut dyn FnMut(EngineCheckpoint)>,
        cur: &mut DriveCursor,
        limit: StepLimit,
    ) {
        // A resumed run continues the original canonical stream mid-
        // flight: the header was already emitted (and counted) by the run
        // that wrote the checkpoint, so stitching is plain concatenation.
        if !cur.header_done {
            let header = Event::FleetProvisioned {
                t: 0,
                vehicles: self.bounds.volume(),
                capacity: self.prov.capacity,
            };
            if let Some(checker) = cross.as_deref_mut() {
                checker.observe(&header);
            }
            sink.record(&header);
            cur.merged_total += 1;
            cur.header_done = true;
        }
        // A limit already reached runs zero rounds; so does a bounded
        // batch with nothing queued — an idle session advances neither
        // rounds nor time (only `StepLimit::None`, the one-shot drain
        // shape, runs its at-least-one round like the classic entry
        // points always have).
        let exhausted = match limit {
            StepLimit::None => false,
            StepLimit::Until(t) => cur.next_epoch > t || self.work_remaining() == 0,
            StepLimit::Round(k) => cur.rounds_done >= k || self.work_remaining() == 0,
        };
        if exhausted {
            sink.flush_events();
            return;
        }
        let profiled = exec.is_profiled();
        let policy = exec.checkpoint_policy();
        let fingerprint = self.fingerprint;
        let threads = exec.worker_threads();
        let checked = exec.is_checked();
        if checked {
            for s in &mut self.shards {
                s.enable_check();
            }
        }
        let start = LockstepStart {
            epoch: cur.next_epoch,
            prior_rounds: cur.rounds_done,
        };
        if exec.is_progress() && cur.progress.is_none() {
            cur.progress = Some(Progress::new(0));
        }
        let total_jobs: u64 = self.shards.iter().map(|s| s.jobs.len() as u64).sum();
        let mut progress = cur.progress.take();
        if let Some(p) = progress.as_mut() {
            p.set_total(total_jobs);
        }
        // Stage the first round's sequence numbers (the barrier staging
        // below covers every later round of the batch).
        let mut next_seq = cur.next_seq;
        for s in &mut self.shards {
            debug_assert!(s.staged_seq.is_none(), "stale staged seq at batch entry");
            if s.released < s.jobs.len() {
                s.staged_seq = Some(next_seq);
                next_seq += 1;
            }
        }
        let mut merged_total = cur.merged_total;
        let workers = std::mem::take(&mut self.shards);
        let (workers, stats) = run_lockstep(
            workers,
            threads,
            start,
            |shards: &mut [&mut ShardSim<D, SS>], info: &RoundInfo| {
                let merge_started = Instant::now();
                let (merged, sink_ns) = if SS::ENABLED {
                    merge_round(shards, &mut *sink, cross.as_deref_mut(), profiled)
                } else {
                    // Non-buffering shard sinks have nothing to merge;
                    // skip the drain so the untraced path stays lean.
                    (0, 0)
                };
                merged_total += merged;
                if profiled {
                    // Flight recorder: one sample per worker per round,
                    // appended *after* the round's merged protocol events
                    // and never routed through the shard streams or the
                    // merge checker — stripping `round_profile` lines
                    // recovers the unprofiled trace byte for byte.
                    let merge_ns =
                        (merge_started.elapsed().as_nanos() as u64).saturating_sub(sink_ns);
                    let pool = info.workers.len() as u64;
                    for (worker, w) in info.workers.iter().enumerate() {
                        sink.record(&Event::RoundProfile {
                            round: info.round,
                            worker: worker as u64,
                            workers: pool,
                            busy_ns: w.busy_ns as i64,
                            barrier_wait_ns: info.wall_ns.saturating_sub(w.busy_ns) as i64,
                            merge_ns: merge_ns as i64,
                            sink_ns: sink_ns as i64,
                            events: merged,
                            // Shards never move between workers.
                            steals: 0,
                        });
                    }
                }
                if let Some(p) = progress.as_mut() {
                    p.tick(info, merged, shards);
                }
                let next_epoch = shards.iter().map(|s| s.now()).max().unwrap_or(info.round) + 1;
                // Checkpoint *after* the merge drained the shard sinks:
                // every shard is quiescent, every emitted event is already
                // in the caller's sink, and `merged_total` is the exact
                // trace-continuation cursor. Cadence counts absolute
                // rounds, so a resumed run continues the original cadence.
                let stop_policy = policy.stop_at.is_some_and(|k| info.round >= k);
                if let Some(observe) = observer.as_deref_mut() {
                    let on_cadence = policy.every.is_some_and(|r| info.round.is_multiple_of(r));
                    if stop_policy || on_cadence {
                        observe(EngineCheckpoint {
                            fingerprint,
                            rounds_completed: info.round,
                            next_epoch,
                            trace_events: merged_total,
                            threads: threads as u64,
                            checked,
                            shards: shards.iter().map(|s| s.checkpoint()).collect(),
                        });
                    }
                }
                let stop_limit = match limit {
                    StepLimit::None => false,
                    StepLimit::Until(t) => next_epoch > t,
                    StepLimit::Round(k) => info.round >= k,
                };
                if stop_policy || stop_limit {
                    RoundControl::Stop
                } else {
                    // Stage the next round's releases only on a continuing
                    // barrier: a stopped batch must leave the next round
                    // unstaged so a session can inject ahead of it.
                    for s in shards.iter_mut() {
                        if s.released < s.jobs.len() {
                            s.staged_seq = Some(next_seq);
                            next_seq += 1;
                        }
                    }
                    RoundControl::Continue
                }
            },
        );
        if let Some(p) = progress.as_ref() {
            p.finish();
        }
        cur.progress = progress;
        self.shards = workers;
        cur.merged_total = merged_total;
        cur.next_seq = next_seq;
        cur.rounds_done = stats.rounds;
        cur.final_epoch = stats.final_epoch;
        cur.next_epoch = self
            .shards
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(cur.final_epoch)
            + 1;
        if cur.workers.is_empty() {
            cur.workers = stats.workers;
        } else {
            // Worker counts are fixed per construction, so batches line
            // up index by index.
            for (acc, w) in cur.workers.iter_mut().zip(&stats.workers) {
                acc.busy_ns += w.busy_ns;
                acc.shards_stepped += w.shards_stepped;
            }
        }
        self.stats = Some(RoundStats {
            rounds: cur.rounds_done,
            final_epoch: cur.final_epoch,
            workers: cur.workers.clone(),
        });
        sink.flush_events();
    }

    /// Jobs still queued for release across all shards.
    pub(crate) fn work_remaining(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| (s.jobs.len() - s.released) as u64)
            .sum()
    }

    /// Appends an externally injected job to its shard's queue tail;
    /// called by a [`crate::Session`] at a round barrier (never while a
    /// batch is in flight). Returns the shard index the job landed on.
    pub(crate) fn inject_job(&mut self, job: Point<D>) -> usize {
        debug_assert!(
            self.bounds.contains(job),
            "sessions validate bounds before injecting"
        );
        let shard = self.map.shard_of_point(job);
        self.shards[shard].jobs.push(job);
        shard
    }

    /// An [`EngineCheckpoint`] of the current barrier state under the
    /// cursor's continuation cursors — the [`crate::Session::snapshot`]
    /// path (the in-run observer path assembles its own inside `drive`).
    pub(crate) fn checkpoint_at(
        &self,
        cur: &DriveCursor,
        exec: &ExecConfig,
        fingerprint: u64,
    ) -> EngineCheckpoint {
        EngineCheckpoint {
            fingerprint,
            rounds_completed: cur.rounds_done,
            next_epoch: cur.next_epoch,
            trace_events: cur.merged_total,
            threads: exec.worker_threads() as u64,
            checked: exec.is_checked(),
            shards: self.shards.iter().map(|s| s.checkpoint()).collect(),
        }
    }

    /// The shard owning `home` and the local id of the vehicle whose home
    /// it is, materializing that vehicle's cube first.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the grid.
    fn vehicle_at(&mut self, home: Point<D>) -> (&mut ShardSim<D, SS>, ProcessId) {
        assert!(self.bounds.contains(home), "no vehicle at {home}");
        let shard = &mut self.shards[self.map.shard_of_point(home)];
        let id = shard.vehicle_at(home);
        (shard, id)
    }

    /// Crashes the vehicle at `home` (scenario 3): it goes silent and the
    /// physical layer drops it from neighbor lists.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the grid.
    pub fn crash_vehicle_at(&mut self, home: Point<D>) {
        let (shard, id) = self.vehicle_at(home);
        shard.net.crash(id);
        let cube = shard.part.cube_of(shard.net.process(id).pos());
        shard.recompute_neighbors(cube);
        if shard.monitored {
            shard.rewire_monitors();
        }
    }

    /// Marks the vehicle at `home` faulty (scenario 2): when it exhausts it
    /// will not initiate its own replacement.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the grid.
    pub fn set_faulty_at(&mut self, home: Point<D>) {
        let (shard, id) = self.vehicle_at(home);
        shard.net.process_mut(id).set_faulty(true);
    }

    /// Assigns a Chapter 4 longevity `p ∈ [0,1]` to the vehicle at `home`:
    /// it breaks silently after spending `⌊p·W⌋` energy (scenario 4 when
    /// applied to many vehicles).
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the grid or `p` is outside `[0,1]`.
    pub fn set_longevity_at(&mut self, home: Point<D>, p: f64) {
        assert!((0.0..=1.0).contains(&p), "longevity out of [0,1]");
        let threshold = (p * self.prov.capacity as f64).floor() as u64;
        let (shard, id) = self.vehicle_at(home);
        shard.net.process_mut(id).set_breaks_at(threshold);
    }

    /// The home vertex of the vehicle currently responsible for jobs at
    /// `p` (the active vehicle of `p`'s pair) — useful for targeting fault
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the grid or its pair has no responsible
    /// vehicle (only possible after an unrecovered failure).
    pub fn responsible_home(&mut self, p: Point<D>) -> Point<D> {
        let (shard, _) = self.vehicle_at(p);
        let cube = shard.part.cube_of(p);
        let pair = shard.pairings[&cube].pair_of(p).expect("p on grid");
        let vid = shard.pair_active[&(cube, pair)];
        shard.net.process(vid).home()
    }

    /// Number of vehicles that have broken (Chapter 4 accounting).
    pub fn broken_count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.net.processes())
            .filter(|v| v.is_broken())
            .count() as u64
    }

    /// The grid bounds this simulation was constructed over.
    pub fn bounds(&self) -> GridBounds<D> {
        self.bounds
    }

    /// The run-input fingerprint ([`run_fingerprint`] of the construction
    /// inputs).
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Finishes each shard's inline checker (running its end-of-trace
    /// checks) and returns all shard-local violations tagged with the
    /// shard index. Empty unless a checked run with a buffering `SS` ran.
    pub fn take_shard_violations(&mut self) -> Vec<(usize, Violation)> {
        let mut out = Vec::new();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            if let Some(mut checker) = shard.checker.take() {
                checker.finish();
                out.extend(checker.violations().iter().cloned().map(|v| (index, v)));
            }
        }
        out
    }

    /// The Theorem 1.4.2 accounting aggregated across shards.
    pub(crate) fn report(&self) -> OnlineReport {
        let mut served = 0u64;
        let mut unserved = 0u64;
        let mut replacements = 0u64;
        let mut failed_replacements = 0u64;
        let mut messages = 0u64;
        let mut diffusions = 0u64;
        let mut heartbeat_misses = 0u64;
        let mut max_energy_used = 0u64;
        let mut max_queue_depth = 0u64;
        let mut delay_count = 0u64;
        let mut delay_sum = 0u128;
        let mut max_msg_delay = 0u64;
        for shard in &self.shards {
            served += shard.served;
            unserved += shard.unserved;
            replacements += shard.replacements;
            failed_replacements += shard.failed_replacements;
            messages += shard.net.total_delivered();
            max_queue_depth = max_queue_depth.max(shard.net.queue_depth_max() as u64);
            let delay = shard.net.delay_histogram();
            delay_count += delay.count();
            delay_sum += delay.sum();
            max_msg_delay = max_msg_delay.max(delay.max());
            for id in 0..shard.net.len() {
                let v = shard.net.process(id);
                max_energy_used = max_energy_used.max(v.energy_used());
                let (started, _, _, misses) = v.obs_counts();
                diffusions += started;
                heartbeat_misses += misses;
            }
        }
        OnlineReport {
            served,
            unserved,
            capacity: self.prov.capacity,
            max_energy_used,
            replacements,
            failed_replacements,
            messages,
            mean_msg_delay: if delay_count == 0 {
                0.0
            } else {
                delay_sum as f64 / delay_count as f64
            },
            max_msg_delay,
            max_queue_depth,
            diffusions,
            heartbeat_misses,
            omega_c: self.prov.omega,
            cube_side: self.prov.side,
        }
    }

    /// The derived provisioning (side, `ω_c`, capacity).
    pub fn provisioning(&self) -> Provisioning {
        self.prov
    }

    /// Number of shards in the layout (a function of the grid and cube
    /// side only — never of the worker count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lockstep round and per-worker statistics, when
    /// [`run`](ShardedOnlineSim::run) has completed.
    pub fn round_stats(&self) -> Option<&RoundStats> {
        self.stats.as_ref()
    }

    /// Vehicles actually materialized across all shards — the sparse
    /// engine's memory footprint is proportional to this, not to
    /// `bounds.volume()`.
    pub fn materialized_vehicles(&self) -> u64 {
        self.shards.iter().map(|s| s.net.len() as u64).sum()
    }

    /// Snapshot of the always-on metrics, aggregated across shards: the
    /// merged `net.*` transport registry plus the fleet-level `online.*`
    /// counters and the per-vehicle energy distribution. After a run, the
    /// `engine.*` namespace carries the executor counters: lockstep
    /// rounds plus per-worker busy time and shards stepped — the direct
    /// observation of skew across workers.
    /// `online.absorb_visits` and `online.neighbor_visits` count the
    /// vehicles absorbed after quiescence and scanned for neighbor lists;
    /// like `engine.*` they count this process' work and are not written
    /// to CMVC, so a resumed run counts from zero.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let mut energy = Histogram::with_bounds(&DEFAULT_BUCKETS);
        let (mut ds, mut dc, mut df, mut hm) = (0u64, 0u64, 0u64, 0u64);
        let mut jobs_arrived = 0u64;
        for shard in &self.shards {
            m.absorb(&shard.net.metrics());
            m.add("online.absorb_visits", shard.absorb_visits);
            m.add("online.neighbor_visits", shard.neighbor_visits);
            jobs_arrived += shard.released as u64;
            for id in 0..shard.net.len() {
                let v = shard.net.process(id);
                if v.energy_used() > 0 {
                    energy.observe(v.energy_used());
                }
                let (s, c, f, h) = v.obs_counts();
                ds += s;
                dc += c;
                df += f;
                hm += h;
            }
        }
        m.set_histogram("online.vehicle_energy", energy);
        m.add("online.diffusions_started", ds);
        m.add("online.diffusions_completed", dc);
        m.add("online.diffusions_found", df);
        m.add("online.heartbeat_misses", hm);
        m.add("online.jobs_arrived", jobs_arrived);
        m.add(
            "online.replacements",
            self.shards.iter().map(|s| s.replacements).sum(),
        );
        m.add(
            "online.failed_replacements",
            self.shards.iter().map(|s| s.failed_replacements).sum(),
        );
        if let Some(stats) = &self.stats {
            m.add("engine.rounds", stats.rounds);
            m.add("engine.shards", self.shards.len() as u64);
            for (k, w) in stats.workers.iter().enumerate() {
                m.add(&format!("engine.worker{k}.busy_us"), w.busy_ns / 1_000);
                m.add(
                    &format!("engine.worker{k}.shards_stepped"),
                    w.shards_stepped,
                );
            }
        }
        m
    }
}

/// Merges one round's per-shard event buffers into `sink` in the
/// canonical total order: a stable k-way merge of the (id-remapped) shard
/// streams keyed by `(t, shard, index)`. Per-shard times are
/// nondecreasing, so the merged clock is too; per-channel FIFO and
/// Dijkstra–Scholten deficits are shard-local and survive any interleave
/// that preserves per-shard order — which this one does by construction.
/// Runs on the coordinator thread at each round barrier while the workers
/// are parked.
fn merge_round<const D: usize, SS: ShardSink>(
    shards: &mut [&mut ShardSim<D, SS>],
    sink: &mut dyn Sink,
    mut cross: Option<&mut MergeChecker>,
    timed: bool,
) -> (u64, u64) {
    let streams: Vec<Vec<Event>> = shards
        .iter_mut()
        .map(|shard| shard.drain_remapped())
        .collect();
    let mut cursors = vec![0usize; streams.len()];
    let mut clocks = vec![0u64; streams.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (shard, stream) in streams.iter().enumerate() {
        if let Some(first) = stream.first() {
            heap.push(Reverse((event_time(first, &mut clocks[shard]), shard)));
        }
    }
    let mut merged = 0u64;
    let mut sink_ns = 0u64;
    while let Some(Reverse((_, shard))) = heap.pop() {
        let ev = &streams[shard][cursors[shard]];
        if let Some(checker) = cross.as_deref_mut() {
            checker.observe(ev);
        }
        if timed {
            let write_started = Instant::now();
            sink.record(ev);
            sink_ns += write_started.elapsed().as_nanos() as u64;
        } else {
            sink.record(ev);
        }
        merged += 1;
        cursors[shard] += 1;
        if let Some(next) = streams[shard].get(cursors[shard]) {
            heap.push(Reverse((event_time(next, &mut clocks[shard]), shard)));
        }
    }
    (merged, sink_ns)
}

/// Throttled live progress for `--progress`: a single stderr line,
/// repainted in place at most every ~250 ms while the rounds execute, then
/// terminated with a newline when the run finishes. Reads only
/// coordinator-visible state (the workers are parked at the barrier), so
/// it never perturbs the merged trace.
#[derive(Debug)]
struct Progress {
    started: Instant,
    last: Option<Instant>,
    total_jobs: u64,
    merged: u64,
}

impl Progress {
    fn new(total_jobs: u64) -> Self {
        Progress {
            started: Instant::now(),
            last: None,
            total_jobs,
            merged: 0,
        }
    }

    /// Refreshes the job total at a batch boundary (sessions grow it by
    /// injecting).
    fn set_total(&mut self, total_jobs: u64) {
        self.total_jobs = total_jobs;
    }

    fn tick<const D: usize, SS: ShardSink>(
        &mut self,
        info: &RoundInfo,
        merged: u64,
        shards: &[&mut ShardSim<D, SS>],
    ) {
        self.merged += merged;
        let now = Instant::now();
        if self
            .last
            .is_some_and(|t| now.duration_since(t) < Duration::from_millis(250))
        {
            return;
        }
        self.last = Some(now);
        let released: u64 = shards.iter().map(|s| s.released as u64).sum();
        let active: u64 = shards.iter().map(|s| s.net.len() as u64).sum();
        let elapsed = now.duration_since(self.started).as_secs_f64().max(1e-9);
        let events_per_sec = self.merged as f64 / elapsed;
        let eta = if released == 0 || released >= self.total_jobs {
            0.0
        } else {
            (self.total_jobs - released) as f64 * elapsed / released as f64
        };
        eprint!(
            "\r[cmvrp] round {:>6} | {:>9.0} ev/s | jobs {}/{} | vehicles {} | eta {:>5.1}s ",
            info.round, events_per_sec, released, self.total_jobs, active, eta
        );
    }

    fn finish(&self) {
        if self.last.is_some() {
            eprintln!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckScope;
    use cmvrp_core::{omega_c, online_factor};
    use cmvrp_workloads::{arrivals, spatial, Ordering};

    fn monitored() -> OnlineConfig {
        OnlineConfig {
            monitored: true,
            ..OnlineConfig::default()
        }
    }

    fn run(sim: &mut ShardedOnlineSim<2>) -> OnlineReport {
        sim.run(&ExecConfig::new(), &mut NullSink)
    }

    fn run_workload(
        demand: &cmvrp_grid::DemandMap<2>,
        bounds: GridBounds<2>,
        ordering: Ordering,
        config: OnlineConfig,
    ) -> OnlineReport {
        let jobs = arrivals::from_demand(demand, ordering, 3);
        run(&mut ShardedOnlineSim::new(bounds, &jobs, config))
    }

    #[test]
    fn point_workload_all_served() {
        let b = GridBounds::square(12);
        let d = spatial::point(&b, 300);
        let report = run_workload(&d, b, Ordering::Sequential, OnlineConfig::default());
        assert_eq!(report.served, 300);
        assert_eq!(report.unserved, 0);
        assert_eq!(report.failed_replacements, 0);
        assert!(report.replacements > 0, "exhaustions must occur");
        assert!(report.max_energy_used <= report.capacity);
    }

    #[test]
    fn line_workload_all_served() {
        let b = GridBounds::square(12);
        let d = spatial::line(&b, 8);
        let report = run_workload(&d, b, Ordering::Interleaved, OnlineConfig::default());
        assert_eq!(report.served, 96);
        assert_eq!(report.unserved, 0);
    }

    #[test]
    fn uniform_workload_all_served() {
        let b = GridBounds::square(10);
        let d = spatial::uniform_random(&b, 120, 5);
        let report = run_workload(&d, b, Ordering::Shuffled, OnlineConfig::default());
        assert_eq!(report.served, 120);
        assert_eq!(report.unserved, 0);
    }

    #[test]
    fn capacity_within_theorem_order() {
        // The derived provisioning stays within a constant multiple of the
        // theorem's (4·3^ℓ+ℓ)·ω_c (allowing discretization slack for tiny
        // ω_c).
        let b = GridBounds::square(12);
        let d = spatial::point(&b, 200);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let sim = ShardedOnlineSim::<2>::new(b, &jobs, OnlineConfig::default());
        let capacity = sim.provisioning().capacity;
        let wc = omega_c(&b, &d).to_f64();
        let theorem = online_factor(2) as f64 * wc.max(1.0);
        assert!(
            (capacity as f64) <= 2.0 * theorem + 10.0,
            "capacity {capacity} vs theorem {theorem}"
        );
    }

    #[test]
    fn max_energy_bounded_by_capacity_across_seeds() {
        let b = GridBounds::square(8);
        let d = spatial::zipf_clusters(&b, 2, 80, 11);
        for seed in 0..4u64 {
            let config = OnlineConfig {
                seed,
                ..OnlineConfig::default()
            };
            let report = run_workload(&d, b, Ordering::Shuffled, config);
            assert_eq!(report.unserved, 0, "seed {seed}");
            assert!(report.max_energy_used <= report.capacity, "seed {seed}");
        }
    }

    #[test]
    fn starved_capacity_reports_unserved() {
        // Capacity too small to serve everything: the engine must report
        // the shortfall rather than panic.
        let b = GridBounds::square(6);
        let d = spatial::point(&b, 100);
        let config = OnlineConfig {
            capacity_override: Some(3),
            ..OnlineConfig::default()
        };
        let report = run_workload(&d, b, Ordering::Sequential, config);
        assert!(report.unserved > 0);
        assert!(report.served < 100);
    }

    #[test]
    fn empty_sequence() {
        let b = GridBounds::square(4);
        let jobs = JobSequence::default();
        let report = run(&mut ShardedOnlineSim::new(
            b,
            &jobs,
            OnlineConfig::default(),
        ));
        assert_eq!(report.served, 0);
        assert_eq!(report.unserved, 0);
        assert_eq!(report.max_energy_used, 0);
    }

    #[test]
    fn scenario2_faulty_done_vehicle_recovered_by_monitor() {
        let b = GridBounds::square(6);
        let d = spatial::point(&b, 40);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::new(b, &jobs, monitored());
        // The vehicle that first serves the center: make it faulty.
        sim.set_faulty_at(spatial::center(&b));
        let report = run(&mut sim);
        assert_eq!(report.unserved, 0, "monitor must recover: {report:?}");
    }

    #[test]
    fn scenario3_crashed_vehicle_recovered_by_monitor() {
        let b = GridBounds::square(6);
        let d = spatial::point(&b, 30);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::new(b, &jobs, monitored());
        sim.crash_vehicle_at(spatial::center(&b));
        let report = run(&mut sim);
        // The crashed vehicle's jobs must eventually be served by a
        // replacement; at most the first couple of arrivals are lost while
        // detection runs.
        assert!(report.unserved <= 2, "{report:?}");
        assert!(report.served >= 28);
        assert!(report.heartbeat_misses > 0, "{report:?}");
    }

    #[test]
    fn observability_summaries() {
        let b = GridBounds::square(10);
        let d = spatial::point(&b, 300);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::<2>::new(b, &jobs, OnlineConfig::default());
        let report = run(&mut sim);
        assert_eq!(report.unserved, 0);
        let metrics = sim.metrics();
        let energy = metrics
            .histogram("online.vehicle_energy")
            .expect("energy histogram");
        assert!(energy.count() >= 2, "several vehicles must participate");
        assert_eq!(energy.max(), report.max_energy_used);
        // Every message is delivered (no loss, no crash), and diffusing
        // traffic runs once per replacement.
        assert_eq!(metrics.counter("net.msgs_delivered"), report.messages);
        assert!(report.messages > 0);
        assert!(metrics.counter("online.diffusions_started") >= report.replacements);
        assert_eq!(
            report.heartbeat_misses, 0,
            "heartbeats only in monitored mode"
        );
    }

    #[test]
    fn longevity_break_recovered_by_monitor() {
        // Scenario 4 lite: one vehicle with p = 0.3 breaks mid-campaign and
        // is silently replaced through the monitoring ring.
        let b = GridBounds::square(8);
        let d = spatial::point(&b, 200);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::new(b, &jobs, monitored());
        let victim = sim.responsible_home(spatial::center(&b));
        sim.set_longevity_at(victim, 0.3);
        let report = run(&mut sim);
        assert_eq!(report.unserved, 0, "{report:?}");
        assert_eq!(sim.broken_count(), 1);
        assert!(report.replacements >= 2, "{report:?}");
    }

    #[test]
    fn many_broken_vehicles_degrade_service_honestly() {
        // Scenario 4 proper: most of the hotspot cube's vehicles have tiny
        // longevity; the report must surface the shortfall rather than
        // panic.
        let b = GridBounds::square(8);
        let d = spatial::point(&b, 400);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::new(b, &jobs, monitored());
        for p in b.iter() {
            sim.set_longevity_at(p, 0.05);
        }
        let report = run(&mut sim);
        assert_eq!(report.served + report.unserved, 400);
        assert!(report.unserved > 0, "{report:?}");
        assert!(sim.broken_count() > 1);
    }

    #[test]
    fn longevity_one_is_harmless() {
        let b = GridBounds::square(8);
        let d = spatial::point(&b, 100);
        let jobs = arrivals::from_demand(&d, Ordering::Sequential, 0);
        let mut sim = ShardedOnlineSim::new(b, &jobs, OnlineConfig::default());
        for p in b.iter() {
            sim.set_longevity_at(p, 1.0);
        }
        let report = run(&mut sim);
        assert_eq!(report.unserved, 0);
        assert_eq!(sim.broken_count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn job_outside_bounds_rejected() {
        let b = GridBounds::square(4);
        let jobs = JobSequence::new(vec![cmvrp_grid::pt2(9, 9)]);
        let _ = ShardedOnlineSim::<2>::new(b, &jobs, OnlineConfig::default());
    }

    #[test]
    #[should_panic(expected = "no vehicle at")]
    fn fault_outside_bounds_rejected() {
        let b = GridBounds::square(4);
        let jobs = JobSequence::new(vec![cmvrp_grid::pt2(1, 1)]);
        let mut sim = ShardedOnlineSim::<2>::new(b, &jobs, monitored());
        sim.crash_vehicle_at(cmvrp_grid::pt2(9, 9));
    }

    #[test]
    fn checked_run_reports_a_corrupt_shard_event_at_its_shard_line() {
        // A delivery with no matching send, recorded into a shard's buffer
        // at the barrier after round 200: that shard's end-of-round check
        // must name it at shard-local line 841, after the shard's 840
        // earlier events, where a checker observing each event as it is
        // recorded puts it.
        let b = GridBounds::square(16);
        let mut d = cmvrp_grid::DemandMap::new();
        d.add(cmvrp_grid::pt2(3, 3), 150);
        d.add(cmvrp_grid::pt2(12, 12), 250);
        let jobs = arrivals::from_demand(&d, Ordering::Interleaved, 1);
        let mut session = ExecConfig::new()
            .check(true)
            .build(b, &jobs, OnlineConfig::default())
            .expect("session");
        session.advance_rounds(200, &mut NullSink);
        let t = session.now();
        let sim = session.streaming_sim();
        // The last shard whose vehicles have exchanged messages.
        let k = sim
            .shards
            .iter()
            .rposition(|s| s.net.total_sent() > 0)
            .expect("a search ran");
        let corrupt = Event::MsgDelivered {
            t,
            from: 0,
            to: 1,
            delay: 1,
            kind: None,
        };
        sim.shards[k].net.sink_mut().record(&corrupt);
        session.drain(&mut NullSink);
        let check = session.finish().check.expect("checked run");
        let found: Vec<_> = check
            .violations
            .iter()
            .map(|v| (v.scope, v.violation.invariant, v.violation.line))
            .collect();
        assert_eq!(k, 3);
        assert_eq!(found, vec![(CheckScope::Shard(3), "channel-fifo", 841)]);
    }

    #[test]
    fn message_count_reported() {
        let b = GridBounds::square(12);
        let d = spatial::point(&b, 300);
        let report = run_workload(&d, b, Ordering::Sequential, OnlineConfig::default());
        assert!(report.messages > 0);
        assert!(report.cube_side >= 1);
    }
}

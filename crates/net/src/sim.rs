//! Deterministic discrete-event message-passing simulator.
//!
//! Implements the communication model of §3.2 of the thesis:
//!
//! * **Reliable**: messages are never lost or altered (unless a process is
//!   deliberately crashed through failure injection).
//! * **FIFO per channel**: messages from `P` to `Q` arrive in the order
//!   sent, as the thesis assumes ("synchronous communication").
//! * **Arbitrary finite delay**: each message draws a delay from a seeded
//!   RNG within `[min_delay, max_delay]`; FIFO is enforced on top.
//! * **Unbounded input buffers** and **zero energy cost**: delivery is free
//!   and never back-pressured; even a vehicle with zero energy keeps
//!   communicating (the simulator knows nothing of energy).
//!
//! Determinism: given the same seed and the same sequence of external
//! [`Network::post`]/[`Network::trigger`] calls, every run delivers the same
//! messages in the same order: by delivery time, ties broken by send order.

use cmvrp_obs::{
    DropReason, Event, Histogram, Metrics, MsgKind, NullSink, StaticSink, DEFAULT_BUCKETS,
};
use cmvrp_util::Rng;
use std::collections::{HashMap, VecDeque};

/// Identifier of a process within a [`Network`] (its index).
pub type ProcessId = usize;

/// A process participating in the simulated network.
///
/// Implementations hold all protocol state; the network owns delivery.
pub trait Process<M> {
    /// Invoked when a message from `from` is removed from this process'
    /// input buffer. Outgoing messages are sent through `ctx`.
    fn on_message(&mut self, ctx: &mut Context<M>, from: ProcessId, msg: M);

    /// Invoked by [`Network::tick_all`]; default does nothing. Used for
    /// periodic behaviour such as the "existing" heartbeats of §3.2.5.
    fn on_tick(&mut self, ctx: &mut Context<M>, now: u64) {
        let _ = (ctx, now);
    }
}

/// Handle through which a process sends messages during a callback. Its
/// outbox and event buffer are the network's, lent for the callback, so a
/// handler allocates nothing once they have grown.
#[derive(Debug)]
pub struct Context<M> {
    id: ProcessId,
    now: u64,
    outbox: Vec<(ProcessId, M)>,
    obs_on: bool,
    events: Vec<Event>,
}

impl<M> Context<M> {
    /// The id of the process being invoked.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queues a message to `to`; it is handed to the network when the
    /// callback returns.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Whether trace events are being collected. Callers with expensive
    /// event payloads can skip constructing them when this is `false`.
    pub fn obs_enabled(&self) -> bool {
        self.obs_on
    }

    /// Records a protocol-level trace event (diffusion lifecycle, heartbeat
    /// misses, …). A no-op unless the network's sink is enabled; the
    /// network drains these into its sink when the callback returns.
    pub fn emit(&mut self, event: Event) {
        if self.obs_on {
            self.events.push(event);
        }
    }
}

/// Configuration for a [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// RNG seed controlling message delays (and drops, when enabled).
    pub seed: u64,
    /// Minimum per-message delay (>= 1).
    pub min_delay: u64,
    /// Maximum per-message delay (>= `min_delay`).
    pub max_delay: u64,
    /// Safety budget: `run_to_quiescence` gives up (reporting
    /// `quiesced: false`) after this many deliveries.
    pub max_events: u64,
    /// Probability in `[0, 1)` that a message is silently lost in transit.
    ///
    /// The thesis assumes error-free communication (§3.2); this knob exists
    /// to *demonstrate* that assumption is load-bearing — Dijkstra–Scholten
    /// deadlocks under loss (see the `diffuse` tests).
    pub drop_rate: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0xC0FFEE,
            min_delay: 1,
            max_delay: 5,
            max_events: 10_000_000,
            drop_rate: 0.0,
        }
    }
}

/// Report from [`Network::run_to_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Messages delivered during this run.
    pub delivered: u64,
    /// Messages dropped because the recipient had crashed.
    pub dropped: u64,
    /// Whether the event queue drained (false iff the event budget ran out).
    pub quiesced: bool,
}

/// A message in flight; its delivery time is its [`Bucket`]'s.
#[derive(Debug)]
struct Envelope<M> {
    from: ProcessId,
    to: ProcessId,
    sent_at: u64,
    /// Protocol classification stamped at send time so the delivery/drop
    /// event matches its send even if the classifier changes.
    kind: Option<MsgKind>,
    msg: M,
}

/// The messages due at one delivery time, in send order.
#[derive(Debug)]
struct Bucket<M> {
    at: u64,
    envelopes: VecDeque<Envelope<M>>,
}

/// The transport layer's durable state at quiescence: the record a `CMVC`
/// checkpoint stores for each shard's network, field for field.
///
/// Captured and reinjected by [`Network::transport_snapshot`] /
/// [`Network::restore_transport`]. Only counters and generator state
/// appear here: at quiescence the delivery queue is empty by definition,
/// and the per-channel FIFO clamps (`channel_last`) can never bind again
/// because a resumed run's clock already exceeds every past delivery
/// time (conservative lockstep rounds occupy disjoint ascending time
/// bands), so neither needs to survive the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Simulation clock.
    pub now: u64,
    /// Sends accepted so far: the send order the delivery buckets keep.
    pub seq: u64,
    /// Delay-RNG position (see [`Rng::state`]).
    pub rng_state: u64,
    /// Messages accepted for delivery so far.
    pub total_sent: u64,
    /// Messages delivered so far.
    pub total_delivered: u64,
    /// Messages lost to fault injection so far.
    pub total_lost: u64,
    /// Messages dropped on crashed recipients so far.
    pub total_to_crashed: u64,
    /// High-water mark of the in-flight queue.
    pub queue_depth_max: u64,
    /// Delivery-delay histogram accumulated so far, over
    /// [`DEFAULT_BUCKETS`].
    pub delay_hist: Histogram,
}

/// A simulated network of processes exchanging messages of type `M`,
/// optionally traced through a [`StaticSink`].
///
/// The sink is a type parameter so the default ([`NullSink`]) compiles to
/// nothing: event construction is guarded by `S::ENABLED` and every
/// `record` call inlines to an empty body.
///
/// Messages in flight wait in delivery-time buckets (a calendar queue,
/// Brown 1988): one bucket per distinct pending delivery time, ascending.
/// A send appends to its time's bucket, which keeps each bucket in send
/// order, so the earliest bucket's front is always the next delivery and
/// no envelope is ever compared. Every pending time lies within
/// `max_delay` of the clock, so a send almost always lands in one of the
/// last few buckets. Emptied buckets are kept for reuse until the queue
/// drains, then released.
#[derive(Debug)]
pub struct Network<P, M, S: StaticSink = NullSink> {
    processes: Vec<P>,
    crashed: Vec<bool>,
    config: NetConfig,
    rng: Rng,
    now: u64,
    /// Sends accepted so far; checkpointed with the transport.
    seq: u64,
    /// Messages in flight: one bucket per pending delivery time, ascending.
    queue: VecDeque<Bucket<M>>,
    /// Envelopes across all buckets.
    in_flight: usize,
    /// Storage of emptied buckets, reused until the queue drains.
    spare: Vec<VecDeque<Envelope<M>>>,
    /// The outbox and event buffer lent to each [`Context`].
    outbox: Vec<(ProcessId, M)>,
    events: Vec<Event>,
    /// Latest scheduled delivery per ordered channel, for FIFO enforcement.
    channel_last: HashMap<(ProcessId, ProcessId), u64>,
    /// Processes that ran a handler since the last drain, once per run.
    touched: Vec<ProcessId>,
    total_sent: u64,
    total_delivered: u64,
    total_lost: u64,
    total_to_crashed: u64,
    /// Delivery-delay histogram; always on (a bucket scan per delivery).
    delay_hist: Histogram,
    queue_depth_max: usize,
    /// Optional protocol classifier annotating trace events with a
    /// [`MsgKind`]; only consulted when the sink is enabled.
    classify: Option<fn(&M) -> MsgKind>,
    sink: S,
}

impl<P, M> Network<P, M, NullSink>
where
    P: Process<M>,
{
    /// Creates an untraced network over the given processes.
    pub fn new(processes: Vec<P>, config: NetConfig) -> Self {
        Network::with_sink(processes, config, NullSink)
    }
}

impl<P, M, S> Network<P, M, S>
where
    P: Process<M>,
    S: StaticSink,
{
    /// Creates a network whose message lifecycle is traced into `sink`.
    pub fn with_sink(processes: Vec<P>, config: NetConfig, sink: S) -> Self {
        assert!(config.min_delay >= 1, "min_delay must be >= 1");
        assert!(
            config.max_delay >= config.min_delay,
            "max_delay < min_delay"
        );
        assert!(
            (0.0..1.0).contains(&config.drop_rate),
            "drop_rate must be in [0, 1)"
        );
        let n = processes.len();
        Network {
            processes,
            crashed: vec![false; n],
            rng: Rng::seed_from_u64(config.seed),
            config,
            now: 0,
            seq: 0,
            queue: VecDeque::new(),
            in_flight: 0,
            spare: Vec::new(),
            outbox: Vec::new(),
            events: Vec::new(),
            channel_last: HashMap::new(),
            touched: Vec::new(),
            total_sent: 0,
            total_delivered: 0,
            total_lost: 0,
            total_to_crashed: 0,
            delay_hist: Histogram::with_bounds(&DEFAULT_BUCKETS),
            queue_depth_max: 0,
            classify: None,
            sink,
        }
    }

    /// Installs a protocol classifier: every traced `msg_sent` /
    /// `msg_delivered` / `msg_dropped` event from now on carries the
    /// [`MsgKind`] of its payload. The trace checker's Dijkstra–Scholten
    /// deficit monitor needs this annotation.
    pub fn set_msg_classifier(&mut self, classify: fn(&M) -> MsgKind) {
        self.classify = Some(classify);
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the network has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total messages accepted for delivery so far.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total messages delivered so far.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Total messages lost to the `drop_rate` fault injection.
    pub fn total_lost(&self) -> u64 {
        self.total_lost
    }

    /// Total messages dropped because their recipient had crashed.
    pub fn total_to_crashed(&self) -> u64 {
        self.total_to_crashed
    }

    /// The delivery-delay histogram accumulated so far.
    pub fn delay_histogram(&self) -> &Histogram {
        &self.delay_hist
    }

    /// High-water mark of the in-flight message queue.
    pub fn queue_depth_max(&self) -> usize {
        self.queue_depth_max
    }

    /// Snapshots the network's transport metrics as a registry
    /// (`net.*` namespace).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.add("net.msgs_sent", self.total_sent);
        m.add("net.msgs_delivered", self.total_delivered);
        m.add("net.msgs_lost", self.total_lost);
        m.add("net.msgs_to_crashed", self.total_to_crashed);
        m.gauge_set("net.queue_depth_max", self.queue_depth_max as i64);
        m.set_histogram("net.msg_delay", self.delay_hist.clone());
        m
    }

    /// Shared access to the event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Exclusive access to the event sink (e.g. to drain a ring).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Flushes and surrenders the sink, dropping the network.
    pub fn into_sink(mut self) -> S {
        self.sink.flush_events();
        self.sink
    }

    /// Shared access to a process (for inspection).
    pub fn process(&self, id: ProcessId) -> &P {
        &self.processes[id]
    }

    /// Exclusive access to a process.
    ///
    /// This models *physical-layer* effects that are not messages — e.g.
    /// the on-line driver updating a vehicle's neighbor list after motion.
    /// Protocol logic should flow through messages instead.
    pub fn process_mut(&mut self, id: ProcessId) -> &mut P {
        &mut self.processes[id]
    }

    /// Iterates over all processes.
    pub fn processes(&self) -> impl Iterator<Item = &P> {
        self.processes.iter()
    }

    /// Crashes a process: it silently drops all future deliveries and emits
    /// nothing. Models the dead vehicles of §3.2.5 / Chapter 4.
    pub fn crash(&mut self, id: ProcessId) {
        if !self.crashed[id] {
            self.crashed[id] = true;
            if S::ENABLED {
                self.sink.record(&Event::ProcessCrashed {
                    t: self.now,
                    proc: id,
                });
            }
        }
    }

    /// Whether `id` has been crashed.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.crashed[id]
    }

    /// Captures the transport layer's durable state for a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if messages are still in flight — checkpoints are taken only
    /// at quiescent round barriers.
    pub fn transport_snapshot(&self) -> TransportSnapshot {
        assert!(
            self.in_flight == 0,
            "transport snapshot with {} messages in flight",
            self.in_flight
        );
        TransportSnapshot {
            now: self.now,
            seq: self.seq,
            rng_state: self.rng.state(),
            total_sent: self.total_sent,
            total_delivered: self.total_delivered,
            total_lost: self.total_lost,
            total_to_crashed: self.total_to_crashed,
            queue_depth_max: self.queue_depth_max as u64,
            delay_hist: self.delay_hist.clone(),
        }
    }

    /// Reinjects state captured with [`Network::transport_snapshot`] into
    /// a freshly built network, so that clocks, sequence numbers, delay
    /// draws, and transport counters continue exactly where the original
    /// run left off.
    ///
    /// # Panics
    ///
    /// Panics if this network already has messages in flight.
    pub fn restore_transport(&mut self, snap: &TransportSnapshot) {
        assert!(
            self.in_flight == 0,
            "restoring transport over {} messages in flight",
            self.in_flight
        );
        self.now = snap.now;
        self.seq = snap.seq;
        self.rng = Rng::from_state(snap.rng_state);
        self.total_sent = snap.total_sent;
        self.total_delivered = snap.total_delivered;
        self.total_lost = snap.total_lost;
        self.total_to_crashed = snap.total_to_crashed;
        self.queue_depth_max = snap.queue_depth_max as usize;
        self.delay_hist = snap.delay_hist.clone();
    }

    fn schedule(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        let kind = if S::ENABLED {
            self.classify.map(|c| c(&msg))
        } else {
            None
        };
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            // Lost in transit: never enqueued (the sender cannot tell).
            self.total_lost += 1;
            if S::ENABLED {
                self.sink.record(&Event::MsgDropped {
                    t: self.now,
                    from,
                    to,
                    reason: DropReason::Lost,
                    kind,
                });
            }
            return;
        }
        let delay = self
            .rng
            .gen_range(self.config.min_delay..=self.config.max_delay);
        // FIFO: never deliver before an earlier send on the same channel.
        let last = self.channel_last.entry((from, to)).or_insert(0);
        *last = (*last).max(self.now + delay);
        let at = *last;
        self.seq += 1;
        let envelope = Envelope {
            from,
            to,
            sent_at: self.now,
            kind,
            msg,
        };
        // This send follows every envelope already in its time's bucket,
        // so appending keeps the bucket in send order.
        let slot = self.queue.partition_point(|b| b.at < at);
        match self.queue.get_mut(slot) {
            Some(bucket) if bucket.at == at => bucket.envelopes.push_back(envelope),
            _ => {
                let mut envelopes = self.spare.pop().unwrap_or_default();
                envelopes.push_back(envelope);
                self.queue.insert(slot, Bucket { at, envelopes });
            }
        }
        self.in_flight += 1;
        self.total_sent += 1;
        self.queue_depth_max = self.queue_depth_max.max(self.in_flight);
        if S::ENABLED {
            self.sink.record(&Event::MsgSent {
                t: self.now,
                from,
                to,
                kind,
            });
        }
    }

    /// Runs a closure against process `id` with a live [`Context`], sending
    /// whatever the closure queues. Returns the closure's value. This is how
    /// drivers deliver environmental events synchronously, and how the
    /// network runs every handler: the context borrows the network's
    /// outbox and event buffer, which keep their capacity between calls.
    pub fn trigger<R>(&mut self, id: ProcessId, f: impl FnOnce(&mut P, &mut Context<M>) -> R) -> R {
        let mut ctx = Context {
            id,
            now: self.now,
            outbox: std::mem::take(&mut self.outbox),
            obs_on: S::ENABLED,
            events: std::mem::take(&mut self.events),
        };
        let out = f(&mut self.processes[id], &mut ctx);
        self.touched.push(id);
        if S::ENABLED {
            for ev in ctx.events.drain(..) {
                self.sink.record(&ev);
            }
        }
        if !self.crashed[id] {
            for (to, msg) in ctx.outbox.drain(..) {
                self.schedule(id, to, msg);
            }
        }
        ctx.outbox.clear();
        self.outbox = ctx.outbox;
        self.events = ctx.events;
        out
    }

    /// Removes the next delivery: the front of the earliest bucket. Leaves
    /// that bucket in place even when it empties, so a budget stop can put
    /// the envelope back in front.
    fn pop_next(&mut self) -> Option<(u64, Envelope<M>)> {
        loop {
            let bucket = self.queue.front_mut()?;
            if let Some(envelope) = bucket.envelopes.pop_front() {
                self.in_flight -= 1;
                return Some((bucket.at, envelope));
            }
            let emptied = self.queue.pop_front().expect("front bucket");
            self.spare.push(emptied.envelopes);
        }
    }

    /// Injects an external message to `to`, attributed to the recipient
    /// itself (used for environmental events such as job arrivals).
    pub fn post(&mut self, to: ProcessId, msg: M) {
        self.schedule(to, to, msg);
    }

    /// Appends a process to the network, returning its id.
    ///
    /// Sparse drivers (the sharded engine of `cmvrp-engine`) materialize
    /// vehicles lazily as demand touches their region instead of
    /// provisioning one process per grid vertex up front.
    pub fn add_process(&mut self, p: P) -> ProcessId {
        self.processes.push(p);
        self.crashed.push(false);
        self.processes.len() - 1
    }

    /// Advances the clock to `t` when `t` is ahead of it (the clock never
    /// moves backwards). Conservative parallel drivers use this to align a
    /// quiescent network with a global round epoch.
    ///
    /// # Panics
    ///
    /// Panics if messages are still in flight: jumping over a scheduled
    /// delivery would deliver it "in the past", breaking the clock and
    /// delay invariants the trace checker enforces.
    pub fn advance_to(&mut self, t: u64) {
        assert!(
            self.in_flight == 0,
            "advance_to({t}) with {} messages in flight",
            self.in_flight
        );
        self.now = self.now.max(t);
    }

    /// Invokes [`Process::on_tick`] on every non-crashed process at the
    /// current time (advancing time by 1 first), then returns. Callers
    /// typically follow with [`Network::run_to_quiescence`].
    pub fn tick_all(&mut self) {
        self.now += 1;
        for id in 0..self.processes.len() {
            if self.crashed[id] {
                continue;
            }
            let now = self.now;
            self.trigger(id, |p, ctx| p.on_tick(ctx, now));
        }
    }

    /// Visits, ascending and each once, the processes that ran
    /// [`Network::trigger`], [`Process::on_tick`] or [`Process::on_message`]
    /// since the last drain. [`Network::process_mut`] and a dropped delivery
    /// run none.
    pub fn drain_touched(&mut self, mut visit: impl FnMut(ProcessId, &mut P)) {
        self.touched.sort_unstable();
        self.touched.dedup();
        for id in self.touched.drain(..) {
            visit(id, &mut self.processes[id]);
        }
    }

    /// Delivers queued messages until none remain (or the event budget is
    /// exhausted). This realizes the paper's assumption that consecutive
    /// job arrivals are spaced widely enough for computations to finish.
    pub fn run_to_quiescence(&mut self) -> RunReport {
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        while let Some((at, env)) = self.pop_next() {
            if delivered >= self.config.max_events {
                // Put it back in front of its bucket, which `pop_next`
                // left in place, so a later run delivers it first.
                self.queue[0].envelopes.push_front(env);
                self.in_flight += 1;
                return RunReport {
                    delivered,
                    dropped,
                    quiesced: false,
                };
            }
            self.now = self.now.max(at);
            if self.crashed[env.to] {
                dropped += 1;
                self.total_to_crashed += 1;
                if S::ENABLED {
                    self.sink.record(&Event::MsgDropped {
                        t: self.now,
                        from: env.from,
                        to: env.to,
                        reason: DropReason::RecipientCrashed,
                        kind: env.kind,
                    });
                }
                continue;
            }
            delivered += 1;
            self.total_delivered += 1;
            let delay = self.now.saturating_sub(env.sent_at);
            self.delay_hist.observe(delay);
            if S::ENABLED {
                self.sink.record(&Event::MsgDelivered {
                    t: self.now,
                    from: env.from,
                    to: env.to,
                    delay,
                    kind: env.kind,
                });
            }
            let (from, msg) = (env.from, env.msg);
            self.trigger(env.to, |p, ctx| p.on_message(ctx, from, msg));
        }
        // Quiescent: release the emptied buckets' storage.
        self.spare = Vec::new();
        RunReport {
            delivered,
            dropped,
            quiesced: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every (from, payload) it receives, forwarding according to a
    /// static routing table.
    struct Recorder {
        forward_to: Option<ProcessId>,
        log: Vec<(ProcessId, u32)>,
    }

    impl Process<u32> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: ProcessId, msg: u32) {
            self.log.push((from, msg));
            if let Some(next) = self.forward_to {
                if msg > 0 {
                    ctx.send(next, msg - 1);
                }
            }
        }
    }

    fn recorders(n: usize, chain: bool) -> Vec<Recorder> {
        (0..n)
            .map(|i| Recorder {
                forward_to: if chain && i + 1 < n {
                    Some(i + 1)
                } else {
                    None
                },
                log: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn budget_exhaustion_reports_not_quiesced() {
        // Two processes ping-pong forever; the event budget must trip and
        // the report must say so instead of looping.
        struct PingPong;
        impl Process<u32> for PingPong {
            fn on_message(&mut self, ctx: &mut Context<u32>, from: ProcessId, m: u32) {
                ctx.send(from, m);
            }
        }
        let mut net = Network::new(
            vec![PingPong, PingPong],
            NetConfig {
                max_events: 100,
                ..NetConfig::default()
            },
        );
        net.trigger(0, |_p, ctx| ctx.send(1, 7));
        let r = net.run_to_quiescence();
        assert!(!r.quiesced, "budget must trip");
        assert_eq!(r.delivered, 100);
        // A later run with budget headroom keeps draining from where it
        // stopped rather than losing the queue.
        let r2 = net.run_to_quiescence();
        assert!(!r2.quiesced);
        assert!(net.total_delivered() >= 200);

        // A finite chain of four deliveries under a budget of two: the
        // stop puts the popped third envelope back, and the next run
        // delivers it and the rest in order.
        let mut net = Network::new(
            recorders(4, true),
            NetConfig {
                max_events: 2,
                ..NetConfig::default()
            },
        );
        net.post(0, 3);
        let r = net.run_to_quiescence();
        assert_eq!((r.delivered, r.quiesced), (2, false));
        assert!(net.process(2).log.is_empty());
        let r = net.run_to_quiescence();
        assert_eq!((r.delivered, r.quiesced), (2, true));
        assert_eq!(net.process(2).log, vec![(1, 1)]);
        assert_eq!(net.process(3).log, vec![(2, 0)]);
    }

    /// The ids `drain_touched` visits, in visiting order.
    fn touched<S: StaticSink>(net: &mut Network<Recorder, u32, S>) -> Vec<ProcessId> {
        let mut ids = Vec::new();
        net.drain_touched(|id, _| ids.push(id));
        ids
    }

    #[test]
    fn touched_drain_lists_each_handler_run_once_in_id_order() {
        let mut net = Network::new(recorders(6, false), NetConfig::default());
        assert!(touched(&mut net).is_empty());
        // Trigger on 4 twice (one entry), a delivery to 1, and a delivery
        // to 5 that is dropped because 5 crashes first.
        net.trigger(4, |_p, ctx| ctx.send(1, 7));
        net.trigger(4, |_p, ctx| ctx.send(5, 7));
        net.crash(5);
        // Changed through `process_mut` only: ran no handler.
        net.process_mut(2).log.push((0, 0));
        net.run_to_quiescence();
        assert_eq!(net.total_to_crashed(), 1);
        assert_eq!(touched(&mut net), vec![1, 4]);
        assert!(touched(&mut net).is_empty(), "a drain resets the set");
        // A tick runs `on_tick` on every process but the crashed one.
        net.tick_all();
        assert_eq!(touched(&mut net), vec![0, 1, 2, 3, 4]);
        net.post(3, 1);
        net.run_to_quiescence();
        assert_eq!(touched(&mut net), vec![3]);
    }

    #[test]
    fn equal_delivery_times_on_different_channels_follow_send_order() {
        // Fixed delay: both messages are due at the same time, on channels
        // 2→1 and 0→1. Send order, not sender id, decides.
        let mut net = Network::new(
            recorders(3, false),
            NetConfig {
                min_delay: 3,
                max_delay: 3,
                ..NetConfig::default()
            },
        );
        net.trigger(2, |_p, ctx| ctx.send(1, 20));
        net.trigger(0, |_p, ctx| ctx.send(1, 10));
        net.run_to_quiescence();
        assert_eq!(net.process(1).log, vec![(2, 20), (0, 10)]);
        assert_eq!(net.now(), 3);
    }

    #[test]
    fn lossy_channel_preserves_fifo_among_survivors() {
        // With drops enabled, whatever *is* delivered on a channel must
        // still arrive in send order (drops thin the sequence, never
        // reorder it), and every loss must be accounted for.
        struct Rec {
            log: Vec<u32>,
        }
        impl Process<u32> for Rec {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: ProcessId, m: u32) {
                self.log.push(m);
            }
        }
        for seed in 0..10u64 {
            let mut net = Network::with_sink(
                vec![Rec { log: Vec::new() }, Rec { log: Vec::new() }],
                NetConfig {
                    seed,
                    min_delay: 1,
                    max_delay: 6,
                    drop_rate: 0.3,
                    ..NetConfig::default()
                },
                cmvrp_obs::RingSink::new(4096),
            );
            for k in 0..200u32 {
                net.trigger(1, |_p, ctx| ctx.send(0, k));
            }
            let r = net.run_to_quiescence();
            assert!(r.quiesced, "seed={seed}");
            let log = &net.process(0).log;
            assert!(log.windows(2).all(|w| w[0] < w[1]), "seed={seed}: {log:?}");
            assert_eq!(log.len() as u64 + net.total_lost(), 200, "seed={seed}");
            assert!(net.total_lost() > 0, "seed={seed}: 200 sends at 0.3 loss");
            // The sink saw exactly one msg_dropped event per loss, all
            // tagged with the "lost" reason.
            let dropped: Vec<&Event> = net
                .sink()
                .events()
                .filter(|e| matches!(e, Event::MsgDropped { .. }))
                .collect();
            assert_eq!(dropped.len() as u64, net.total_lost(), "seed={seed}");
            assert!(dropped.iter().all(|e| matches!(
                e,
                Event::MsgDropped {
                    reason: DropReason::Lost,
                    ..
                }
            )));
        }
    }

    #[test]
    fn crashed_recipient_drops_are_evented() {
        struct Rec;
        impl Process<u32> for Rec {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: ProcessId, _m: u32) {}
        }
        let mut net = Network::with_sink(
            vec![Rec, Rec],
            NetConfig::default(),
            cmvrp_obs::RingSink::new(16),
        );
        net.trigger(0, |_p, ctx| ctx.send(1, 1));
        net.crash(1);
        net.run_to_quiescence();
        assert_eq!(net.total_to_crashed(), 1);
        assert!(net.sink().events().any(|e| matches!(
            e,
            Event::MsgDropped {
                reason: DropReason::RecipientCrashed,
                ..
            }
        )));
    }

    #[test]
    fn classifier_annotates_transport_events() {
        struct Rec;
        impl Process<u32> for Rec {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: ProcessId, _m: u32) {}
        }
        let mut net = Network::with_sink(
            vec![Rec, Rec],
            NetConfig::default(),
            cmvrp_obs::RingSink::new(16),
        );
        net.set_msg_classifier(|m| {
            if *m % 2 == 0 {
                MsgKind::Query
            } else {
                MsgKind::Reply
            }
        });
        net.trigger(0, |_p, ctx| ctx.send(1, 2));
        net.run_to_quiescence();
        assert!(net.sink().events().any(|e| matches!(
            e,
            Event::MsgSent {
                kind: Some(MsgKind::Query),
                ..
            }
        )));
        assert!(net.sink().events().any(|e| matches!(
            e,
            Event::MsgDelivered {
                kind: Some(MsgKind::Query),
                ..
            }
        )));
    }

    #[test]
    fn crash_is_evented_once() {
        struct Rec;
        impl Process<u32> for Rec {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: ProcessId, _m: u32) {}
        }
        let mut net = Network::with_sink(
            vec![Rec, Rec],
            NetConfig::default(),
            cmvrp_obs::RingSink::new(16),
        );
        net.crash(1);
        net.crash(1); // idempotent: a second call must not re-emit
        let crashes: Vec<&Event> = net
            .sink()
            .events()
            .filter(|e| matches!(e, Event::ProcessCrashed { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
        assert!(matches!(crashes[0], Event::ProcessCrashed { proc: 1, .. }));
    }

    #[test]
    fn post_delivers() {
        let mut net = Network::new(recorders(1, false), NetConfig::default());
        net.post(0, 42);
        let r = net.run_to_quiescence();
        assert!(r.quiesced);
        assert_eq!(r.delivered, 1);
        assert_eq!(net.process(0).log, vec![(0, 42)]);
    }

    #[test]
    fn chain_forwarding() {
        let mut net = Network::new(recorders(4, true), NetConfig::default());
        net.post(0, 10);
        net.run_to_quiescence();
        assert_eq!(net.process(3).log, vec![(2, 7)]);
        assert_eq!(net.total_delivered(), 4);
    }

    #[test]
    fn fifo_per_channel() {
        // Many messages on one channel must arrive in send order despite
        // random delays.
        struct Sink {
            log: Vec<u32>,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _from: ProcessId, m: u32) {
                self.log.push(m);
            }
        }
        for seed in 0..20u64 {
            let mut net = Network::new(
                vec![Sink { log: Vec::new() }, Sink { log: Vec::new() }],
                NetConfig {
                    seed,
                    min_delay: 1,
                    max_delay: 9,
                    ..NetConfig::default()
                },
            );
            for k in 0..50 {
                net.trigger(1, |_p, ctx| ctx.send(0, k));
            }
            net.run_to_quiescence();
            let want: Vec<u32> = (0..50).collect();
            assert_eq!(net.process(0).log, want, "seed={seed}");
        }
    }

    #[test]
    fn determinism() {
        let run = |seed: u64| {
            let mut net = Network::new(
                recorders(4, true),
                NetConfig {
                    seed,
                    ..NetConfig::default()
                },
            );
            net.post(0, 20);
            net.run_to_quiescence();
            (0..4)
                .map(|i| net.process(i).log.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crashed_process_drops_messages() {
        let mut net = Network::new(recorders(2, true), NetConfig::default());
        net.crash(1);
        net.post(0, 5);
        let r = net.run_to_quiescence();
        assert_eq!(r.delivered, 1); // only process 0
        assert_eq!(r.dropped, 1); // the forward to 1
        assert!(net.process(1).log.is_empty());
        assert!(net.is_crashed(1));
    }

    #[test]
    fn crashed_process_sends_nothing() {
        let mut net = Network::new(recorders(2, true), NetConfig::default());
        net.crash(0);
        // Even a direct trigger on a crashed process emits nothing.
        net.trigger(0, |_p, ctx| ctx.send(1, 3));
        let r = net.run_to_quiescence();
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn event_budget_reports_non_quiescence() {
        // A two-node ping-pong that never ends.
        struct Pong;
        impl Process<u32> for Pong {
            fn on_message(&mut self, ctx: &mut Context<u32>, from: ProcessId, m: u32) {
                ctx.send(from, m);
            }
        }
        let mut net = Network::new(
            vec![Pong, Pong],
            NetConfig {
                max_events: 100,
                ..NetConfig::default()
            },
        );
        net.trigger(0, |_p, ctx| ctx.send(1, 1));
        let r = net.run_to_quiescence();
        assert!(!r.quiesced);
        assert_eq!(r.delivered, 100);
    }

    #[test]
    fn tick_reaches_all_but_crashed() {
        struct Ticker {
            ticks: u64,
        }
        impl Process<u32> for Ticker {
            fn on_message(&mut self, _: &mut Context<u32>, _: ProcessId, _: u32) {}
            fn on_tick(&mut self, _: &mut Context<u32>, _now: u64) {
                self.ticks += 1;
            }
        }
        let mut net = Network::new(
            vec![Ticker { ticks: 0 }, Ticker { ticks: 0 }],
            NetConfig::default(),
        );
        net.crash(1);
        net.tick_all();
        net.tick_all();
        assert_eq!(net.process(0).ticks, 2);
        assert_eq!(net.process(1).ticks, 0);
    }

    #[test]
    fn drop_rate_loses_messages() {
        let mut net = Network::new(
            recorders(2, false),
            NetConfig {
                seed: 3,
                drop_rate: 0.5,
                ..NetConfig::default()
            },
        );
        for k in 0..200 {
            net.trigger(0, |_p, ctx| ctx.send(1, k));
        }
        let report = net.run_to_quiescence();
        assert!(report.quiesced);
        let delivered = net.process(1).log.len() as u64;
        assert_eq!(delivered + net.total_lost(), 200);
        // Roughly half lost (seeded, deterministic).
        assert!(net.total_lost() > 50 && net.total_lost() < 150);
    }

    #[test]
    #[should_panic(expected = "drop_rate")]
    fn invalid_drop_rate_rejected() {
        let _ = Network::new(
            recorders(1, false),
            NetConfig {
                drop_rate: 1.5,
                ..NetConfig::default()
            },
        );
    }

    #[test]
    fn time_is_monotone() {
        let mut net = Network::new(recorders(4, true), NetConfig::default());
        net.post(0, 3);
        let t0 = net.now();
        net.run_to_quiescence();
        assert!(net.now() > t0);
    }
}

//! Property tests for the simulator's model guarantees (§3.2 assumptions):
//! per-channel FIFO under arbitrary traffic, determinism, diffusing
//! computation termination on random connected graphs, and delivery in
//! (delivery time, send order) across budget stops.
//!
//! Each property runs a fixed number of cases drawn from a seeded
//! [`Rng`], so every failure names a reproducible case.

use cmvrp::net::diffuse::{DiffuseMsg, DiffuseOutcome, DiffusingEngine};
use cmvrp::net::{Context, NetConfig, Network, Process, ProcessId};
use cmvrp::obs::{Event, VecSink};
use cmvrp::util::Rng;
use std::collections::{HashMap, VecDeque};

/// Logs every delivery in order, per sender.
struct Sink {
    log: Vec<(ProcessId, u64)>,
}

impl Process<u64> for Sink {
    fn on_message(&mut self, _ctx: &mut Context<u64>, from: ProcessId, m: u64) {
        self.log.push((from, m));
    }
}

/// `len` random `(from, to)` pairs over `n` processes.
fn random_sends(rng: &mut Rng, n: usize, len: usize) -> Vec<(usize, usize)> {
    (0..len)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// FIFO per channel: for every (sender → receiver) pair, sequence numbers
/// arrive in send order, regardless of delays and interleaving.
#[test]
fn fifo_per_channel_under_random_traffic() {
    let mut rng = Rng::seed_from_u64(0xF1F0);
    for case in 0..32 {
        let seed = rng.next_u64();
        let max_delay = rng.gen_range(1u64..10);
        let len = rng.gen_range(1usize..120);
        let sends = random_sends(&mut rng, 4, len);
        let nodes: Vec<Sink> = (0..4).map(|_| Sink { log: Vec::new() }).collect();
        let mut net = Network::new(
            nodes,
            NetConfig {
                seed,
                min_delay: 1,
                max_delay,
                ..NetConfig::default()
            },
        );
        // Stamp each message with a per-channel sequence number.
        let mut counters = [[0u64; 4]; 4];
        for (from, to) in sends {
            let stamp = counters[from][to];
            counters[from][to] += 1;
            net.trigger(from, |_p, ctx| ctx.send(to, stamp));
        }
        let report = net.run_to_quiescence();
        assert!(report.quiesced, "case {case}");
        // Per-channel stamps must arrive ascending.
        for to in 0..4usize {
            let mut last = [-1i64; 4];
            for &(from, stamp) in &net.process(to).log {
                assert!(
                    (stamp as i64) > last[from],
                    "case {case}: channel {from}->{to} out of order"
                );
                last[from] = stamp as i64;
            }
        }
        // Nothing lost.
        let delivered: usize = (0..4).map(|i| net.process(i).log.len()).sum();
        assert_eq!(delivered as u64, net.total_sent(), "case {case}");
    }
}

/// Same seed + same inputs → identical delivery logs.
#[test]
fn determinism() {
    let mut rng = Rng::seed_from_u64(0xDE7);
    for case in 0..32 {
        let seed = rng.next_u64();
        let len = rng.gen_range(1usize..40);
        let sends = random_sends(&mut rng, 3, len);
        let run = |seed: u64| {
            let nodes: Vec<Sink> = (0..3).map(|_| Sink { log: Vec::new() }).collect();
            let mut net = Network::new(
                nodes,
                NetConfig {
                    seed,
                    ..NetConfig::default()
                },
            );
            for (k, &(from, to)) in sends.iter().enumerate() {
                net.trigger(from, |_p, ctx| ctx.send(to, k as u64));
            }
            net.run_to_quiescence();
            (0..3)
                .map(|i| net.process(i).log.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(seed), run(seed), "case {case}");
    }
}

/// Node embedding the Dijkstra–Scholten engine on a random topology.
struct DiffNode {
    id: ProcessId,
    neighbors: Vec<ProcessId>,
    is_target: bool,
    engine: DiffusingEngine,
    finished: Option<Option<ProcessId>>,
}

impl DiffNode {
    fn record(&mut self, outcome: DiffuseOutcome) {
        if let DiffuseOutcome::InitiatorDone { child } = outcome {
            self.finished = Some(child);
        }
    }
}

impl Process<DiffuseMsg> for DiffNode {
    fn on_message(&mut self, ctx: &mut Context<DiffuseMsg>, from: ProcessId, msg: DiffuseMsg) {
        let send = |to, m| ctx.send(to, m);
        let outcome = match msg {
            DiffuseMsg::Query { init } => {
                self.engine
                    .on_query(from, init, self.is_target, &self.neighbors, send)
            }
            DiffuseMsg::Reply { found, init } => self.engine.on_reply(from, found, init, send),
        };
        self.record(outcome);
    }
}

/// On any connected topology, a diffusing computation terminates; it
/// reports a child iff a target exists, and following child pointers
/// reaches a target.
#[test]
fn diffusing_computation_total_correctness() {
    let mut rng = Rng::seed_from_u64(0xD5);
    for case in 0..24 {
        let seed = rng.next_u64();
        let n = rng.gen_range(2usize..12);
        let extra = rng.gen_range(0usize..14);
        let extra_edges = random_sends(&mut rng, 12, extra);
        let target_mask = rng.next_u64() as u16;
        // Connected base: a path 0-1-…-(n-1); extra random edges on top.
        let mut adj: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
        let add = |adj: &mut Vec<Vec<ProcessId>>, a: usize, b: usize| {
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        };
        for i in 0..n - 1 {
            add(&mut adj, i, i + 1);
        }
        for (a, b) in extra_edges {
            if a < n && b < n {
                add(&mut adj, a, b);
            }
        }
        // Node 0 initiates; targets from the mask (never node 0).
        let targets: Vec<bool> = (0..n)
            .map(|i| i != 0 && (target_mask >> (i % 16)) & 1 == 1)
            .collect();
        let any_target = targets.iter().any(|&t| t);
        let nodes: Vec<DiffNode> = (0..n)
            .map(|id| DiffNode {
                id,
                neighbors: adj[id].clone(),
                is_target: targets[id],
                engine: DiffusingEngine::new(),
                finished: None,
            })
            .collect();
        let mut net = Network::new(
            nodes,
            NetConfig {
                seed,
                ..NetConfig::default()
            },
        );
        net.trigger(0, |node, ctx| {
            let outcome = node
                .engine
                .start(node.id, &node.neighbors, |to, m| ctx.send(to, m));
            node.record(outcome);
        });
        let report = net.run_to_quiescence();
        assert!(report.quiesced, "case {case}: computation must terminate");
        let finished = net.process(0).finished;
        let first_hop = finished.unwrap_or_else(|| panic!("case {case}: initiator unfinished"));
        match first_hop {
            Some(first_hop) => {
                assert!(any_target, "case {case}: child reported, no target");
                // Walk the child path.
                let mut cur = first_hop;
                let mut steps = 0;
                while let Some(next) = net.process(cur).engine.child() {
                    steps += 1;
                    assert!(steps <= n, "case {case}: child path must be simple");
                    cur = next;
                }
                assert!(
                    net.process(cur).is_target,
                    "case {case}: path must end at a target"
                );
            }
            None => assert!(!any_target, "case {case}: target existed but was not found"),
        }
        // Every node is back to waiting.
        for id in 0..n {
            assert!(
                net.process(id).engine.is_waiting(),
                "case {case}: node {id} stuck"
            );
        }
    }
}

/// Forwards a message with `hops` left to one or two peers picked from
/// its payload, so traffic spreads over every channel and delivery time.
struct Relay {
    n: usize,
}

impl Process<u64> for Relay {
    fn on_message(&mut self, ctx: &mut Context<u64>, _from: ProcessId, m: u64) {
        let hops = m & 0x7;
        if hops == 0 {
            return;
        }
        let mix = m.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8;
        let next = (mix & !0x7) | (hops - 1);
        ctx.send((mix % self.n as u64) as usize, next);
        if mix & 0x8 != 0 {
            ctx.send(((mix >> 4) % self.n as u64) as usize, next ^ 0x18);
        }
    }
}

/// Messages leave the queue by delivery time, ties broken by send order,
/// also when an event budget stops a run mid-queue and later sends land
/// in front of messages already in flight. Each `msg_delivered` is matched
/// to its `msg_sent` by per-channel FIFO; the (delivery time, send index)
/// pairs must strictly increase.
#[test]
fn deliveries_follow_delivery_time_then_send_order() {
    let mut rng = Rng::seed_from_u64(0x0DE1);
    let mut stops = 0;
    for case in 0..48 {
        let n = rng.gen_range(2usize..7);
        let budget = if case % 2 == 1 {
            rng.gen_range(1u64..6)
        } else {
            NetConfig::default().max_events
        };
        let mut net = Network::with_sink(
            (0..n).map(|_| Relay { n }).collect(),
            NetConfig {
                seed: rng.next_u64(),
                min_delay: 1,
                max_delay: rng.gen_range(1u64..10),
                max_events: budget,
                ..NetConfig::default()
            },
            VecSink::new(),
        );
        for _ in 0..rng.gen_range(1usize..12) {
            for _ in 0..rng.gen_range(1usize..6) {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let payload = rng.next_u64();
                net.trigger(from, |_p, ctx| ctx.send(to, payload));
            }
            // Stop mid-queue (under a budget) before the next injections.
            stops += u64::from(!net.run_to_quiescence().quiesced);
        }
        while !net.run_to_quiescence().quiesced {
            stops += 1;
        }
        // Send indices queued per channel, matched FIFO by deliveries.
        let mut pending: HashMap<(usize, usize), VecDeque<usize>> = HashMap::new();
        let (mut sends, mut last) = (0usize, None);
        for ev in net.sink().events() {
            match *ev {
                Event::MsgSent { from, to, .. } => {
                    pending.entry((from, to)).or_default().push_back(sends);
                    sends += 1;
                }
                Event::MsgDelivered { t, from, to, .. } => {
                    let index = pending
                        .get_mut(&(from, to))
                        .and_then(VecDeque::pop_front)
                        .unwrap_or_else(|| panic!("case {case}: delivery without send"));
                    let key = (t, index);
                    assert!(
                        last < Some(key),
                        "case {case}: delivery {key:?} after {last:?}"
                    );
                    last = Some(key);
                }
                _ => {}
            }
        }
        assert_eq!(net.total_delivered(), sends as u64, "case {case}");
    }
    assert!(stops > 100, "budgets must stop runs mid-queue: {stops}");
}

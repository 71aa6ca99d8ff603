//! Dijkstra–Scholten diffusing computations (Algorithm 2 of the thesis).
//!
//! The on-line strategy uses a diffusing computation to locate an idle
//! replacement vehicle: the *done* vehicle initiates, queries flood the
//! cube, the first idle vehicle discovered answers `true`, and the
//! `child` pointers recorded on the way back form a path from the initiator
//! to the candidate (walked by the Phase II `move` message).
//!
//! [`DiffusingEngine`] packages the `num` / `par` / `child` / `init`
//! bookkeeping of Algorithm 2 independent of any transport: every handler
//! hands each message to send to a caller-supplied `send` callback, in
//! send order, and the embedding process forwards it however it likes.
//! This keeps the engine unit-testable in isolation, reusable by
//! `cmvrp-online`, and free of allocation.

use crate::sim::ProcessId;

/// Identity of one diffusing computation: the initiator plus a generation
/// number distinguishing computations started at different times by the same
/// vehicle (the thesis' "sequence number k", §3.2.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComputationId {
    /// The initiator process.
    pub initiator: ProcessId,
    /// Distinguishes successive computations by the same initiator.
    pub generation: u64,
}

/// Wire messages of Phase I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffuseMsg {
    /// `query(init, p)` — `p` is the simulator's envelope sender.
    Query {
        /// The computation this query belongs to.
        init: ComputationId,
    },
    /// `reply(flag, p)`.
    Reply {
        /// `true` iff the sender (or its subtree) found a target.
        found: bool,
        /// The computation the reply belongs to.
        init: ComputationId,
    },
}

/// Events surfaced to the embedding process by an engine handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffuseOutcome {
    /// Nothing to report.
    None,
    /// This node was queried, is a target, and answered `true`; Phase II may
    /// deliver a `move` order to it later.
    ClaimedAsTarget {
        /// The computation that claimed this node.
        init: ComputationId,
    },
    /// The computation this node initiated has terminated.
    InitiatorDone {
        /// First hop of the path to a target (`None` if no target exists).
        child: Option<ProcessId>,
    },
    /// This non-initiator node finished its part and returned to `waiting`.
    LocalDone,
}

/// Message-transfer state (`S2` of §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// `waiting` — idle with respect to diffusing computations.
    #[default]
    Waiting,
    /// `searching` — joined someone else's computation, awaiting replies.
    Searching,
    /// `initiator` — started a computation, awaiting replies.
    Initiating,
}

/// Per-vehicle Dijkstra–Scholten state: `num`, `par`, `child`, `init`.
#[derive(Debug, Clone, Default)]
pub struct DiffusingEngine {
    phase: Phase,
    /// Un-responded queries sent by this node.
    num: usize,
    /// Parent: sender of the first query received (NULL at the initiator).
    par: Option<ProcessId>,
    /// Successor from which the first `reply(true)` arrived.
    child: Option<ProcessId>,
    /// The computation this node currently belongs to.
    init: Option<ComputationId>,
    /// Next generation number for computations initiated here.
    next_generation: u64,
}

impl DiffusingEngine {
    /// Creates a fresh engine in the `waiting` state.
    pub fn new() -> Self {
        DiffusingEngine::default()
    }

    /// Whether the engine is in the `waiting` state.
    pub fn is_waiting(&self) -> bool {
        self.phase == Phase::Waiting
    }

    /// The `child` pointer — the first hop towards a found target.
    pub fn child(&self) -> Option<ProcessId> {
        self.child
    }

    /// The parent from which this node was activated.
    pub fn parent(&self) -> Option<ProcessId> {
        self.par
    }

    /// The computation this node last participated in.
    pub fn computation(&self) -> Option<ComputationId> {
        self.init
    }

    /// The durable state of a quiescent engine, for checkpointing: the
    /// last computation joined and the next generation number. Everything
    /// else (`num`, `par`, `child`) is transient per-computation state
    /// that is meaningless once the node is back in `waiting`.
    ///
    /// # Panics
    ///
    /// Panics if the engine is mid-computation (checkpoints are taken at
    /// round barriers, where every engine has returned to `waiting`).
    pub fn quiescent_state(&self) -> (Option<ComputationId>, u64) {
        assert!(
            self.phase == Phase::Waiting,
            "checkpointing a diffusing engine mid-computation"
        );
        (self.init, self.next_generation)
    }

    /// Rebuilds a quiescent (`waiting`) engine from state captured with
    /// [`DiffusingEngine::quiescent_state`].
    pub fn from_quiescent(init: Option<ComputationId>, next_generation: u64) -> Self {
        DiffusingEngine {
            phase: Phase::Waiting,
            num: 0,
            par: None,
            child: None,
            init,
            next_generation,
        }
    }

    /// Starts a new diffusing computation at this node (the "done vehicle"
    /// step of Algorithm 2), passing one query per neighbor to `send`;
    /// when `neighbors` is empty the computation terminates immediately
    /// and the outcome is [`DiffuseOutcome::InitiatorDone`] with no child.
    ///
    /// # Panics
    ///
    /// Panics if the node is not `waiting` (a vehicle initiates only after
    /// its previous computation finished).
    pub fn start(
        &mut self,
        my_id: ProcessId,
        neighbors: &[ProcessId],
        mut send: impl FnMut(ProcessId, DiffuseMsg),
    ) -> DiffuseOutcome {
        assert!(self.phase == Phase::Waiting, "initiating while not waiting");
        let init = ComputationId {
            initiator: my_id,
            generation: self.next_generation,
        };
        self.next_generation += 1;
        self.par = None;
        self.child = None;
        self.init = Some(init);
        if neighbors.is_empty() {
            return DiffuseOutcome::InitiatorDone { child: None };
        }
        self.phase = Phase::Initiating;
        self.num = neighbors.len();
        for &n in neighbors {
            send(n, DiffuseMsg::Query { init });
        }
        DiffuseOutcome::None
    }

    /// Handles a `query` message, passing the messages it sends to `send`.
    /// `i_am_target` tells the engine whether this vehicle satisfies the
    /// search predicate (idle, in the on-line strategy). `neighbors` is
    /// consulted only when the node joins the computation and must spread
    /// it.
    pub fn on_query(
        &mut self,
        from: ProcessId,
        init: ComputationId,
        i_am_target: bool,
        neighbors: &[ProcessId],
        mut send: impl FnMut(ProcessId, DiffuseMsg),
    ) -> DiffuseOutcome {
        let fresh = self.phase == Phase::Waiting && self.init != Some(init);
        if !fresh {
            // Non-waiting, or already joined this computation: immediate
            // negative reply (Algorithm 2, "non-waiting vehicle receives a
            // query").
            send(from, DiffuseMsg::Reply { found: false, init });
            return DiffuseOutcome::None;
        }
        self.par = Some(from);
        self.init = Some(init);
        self.child = None;
        if i_am_target {
            // An idle vehicle answers positively and stays waiting.
            send(from, DiffuseMsg::Reply { found: true, init });
            return DiffuseOutcome::ClaimedAsTarget { init };
        }
        // Spread the computation.
        let forward = neighbors.iter().filter(|&&n| n != from).count();
        if forward == 0 {
            // Leaf with nothing to ask: answer negatively at once.
            send(from, DiffuseMsg::Reply { found: false, init });
            return DiffuseOutcome::LocalDone;
        }
        self.phase = Phase::Searching;
        self.num = forward;
        for &n in neighbors.iter().filter(|&&n| n != from) {
            send(n, DiffuseMsg::Query { init });
        }
        DiffuseOutcome::None
    }

    /// Handles a `reply` message, passing the replies it sends up to
    /// `send`.
    pub fn on_reply(
        &mut self,
        from: ProcessId,
        found: bool,
        init: ComputationId,
        mut send: impl FnMut(ProcessId, DiffuseMsg),
    ) -> DiffuseOutcome {
        if self.init != Some(init) || self.phase == Phase::Waiting {
            // Stale reply from a superseded computation; Algorithm 2 never
            // produces these when computations are serialized, but dropped
            // vehicles (§3.2.5) can.
            return DiffuseOutcome::None;
        }
        debug_assert!(self.num > 0, "reply without outstanding query");
        self.num -= 1;
        if found && self.child.is_none() {
            self.child = Some(from);
            if let Some(par) = self.par {
                // Propagate the discovery up immediately (Algorithm 2,
                // reply handler lines 2-4).
                send(par, DiffuseMsg::Reply { found: true, init });
            }
        }
        if self.num == 0 {
            let was_initiator = self.phase == Phase::Initiating;
            self.phase = Phase::Waiting;
            if was_initiator {
                return DiffuseOutcome::InitiatorDone { child: self.child };
            }
            if self.child.is_none() {
                if let Some(par) = self.par {
                    send(par, DiffuseMsg::Reply { found: false, init });
                }
            }
            return DiffuseOutcome::LocalDone;
        }
        DiffuseOutcome::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Context, NetConfig, Network, Process};

    /// Test harness: a node embedding the engine on a static topology.
    struct Node {
        id: ProcessId,
        neighbors: Vec<ProcessId>,
        is_target: bool,
        engine: DiffusingEngine,
        finished: Option<Option<ProcessId>>, // Some(child) when initiator done
        claimed: u32,
    }

    impl Process<DiffuseMsg> for Node {
        fn on_message(&mut self, ctx: &mut Context<DiffuseMsg>, from: ProcessId, msg: DiffuseMsg) {
            let send = |to, m| ctx.send(to, m);
            let outcome = match msg {
                DiffuseMsg::Query { init } => {
                    self.engine
                        .on_query(from, init, self.is_target, &self.neighbors, send)
                }
                DiffuseMsg::Reply { found, init } => self.engine.on_reply(from, found, init, send),
            };
            match outcome {
                DiffuseOutcome::InitiatorDone { child } => self.finished = Some(child),
                DiffuseOutcome::ClaimedAsTarget { .. } => self.claimed += 1,
                _ => {}
            }
        }
    }

    impl Node {
        /// Initiates a computation from this node.
        fn start(&mut self, ctx: &mut Context<DiffuseMsg>) {
            let outcome = self
                .engine
                .start(self.id, &self.neighbors, |to, m| ctx.send(to, m));
            if let DiffuseOutcome::InitiatorDone { child } = outcome {
                self.finished = Some(child);
            }
        }
    }

    /// Builds nodes on an undirected edge list and runs a computation from
    /// `initiator`; returns the network after quiescence.
    fn run(
        n: usize,
        edges: &[(usize, usize)],
        targets: &[usize],
        initiator: usize,
        seed: u64,
    ) -> Network<Node, DiffuseMsg> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let nodes: Vec<Node> = (0..n)
            .map(|id| Node {
                id,
                neighbors: adj[id].clone(),
                is_target: targets.contains(&id),
                engine: DiffusingEngine::new(),
                finished: None,
                claimed: 0,
            })
            .collect();
        let mut net = Network::new(
            nodes,
            NetConfig {
                seed,
                ..NetConfig::default()
            },
        );
        net.trigger(initiator, Node::start);
        let report = net.run_to_quiescence();
        assert!(report.quiesced, "diffusing computation must terminate");
        net
    }

    /// Follows child pointers from the initiator; returns the terminal node.
    fn follow_path(net: &Network<Node, DiffuseMsg>, initiator: usize) -> Option<usize> {
        let mut cur = net.process(initiator).finished.expect("finished")?;
        loop {
            match net.process(cur).engine.child() {
                Some(next) => cur = next,
                None => return Some(cur),
            }
        }
    }

    #[test]
    fn finds_adjacent_target() {
        let net = run(2, &[(0, 1)], &[1], 0, 1);
        assert_eq!(net.process(0).finished, Some(Some(1)));
        assert_eq!(net.process(1).claimed, 1);
    }

    #[test]
    fn finds_distant_target_on_path_graph() {
        // 0 - 1 - 2 - 3 with the only target at 3.
        let net = run(4, &[(0, 1), (1, 2), (2, 3)], &[3], 0, 1);
        assert_eq!(follow_path(&net, 0), Some(3));
    }

    #[test]
    fn terminates_without_target() {
        let net = run(4, &[(0, 1), (1, 2), (2, 3)], &[], 0, 5);
        assert_eq!(net.process(0).finished, Some(None));
    }

    #[test]
    fn isolated_initiator_terminates_immediately() {
        let net = run(1, &[], &[], 0, 0);
        assert_eq!(net.process(0).finished, Some(None));
    }

    #[test]
    fn path_ends_at_some_target_on_grid() {
        // 3x3 grid topology with two targets; the discovered path must end
        // at one of them regardless of delay randomness.
        let idx = |r: usize, c: usize| r * 3 + c;
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 3 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        for seed in 0..25u64 {
            let net = run(9, &edges, &[idx(0, 2), idx(2, 0)], idx(1, 1), seed);
            let end = follow_path(&net, idx(1, 1)).expect("must find a target");
            assert!(
                end == idx(0, 2) || end == idx(2, 0),
                "seed={seed} ended at {end}"
            );
            assert!(net.process(end).is_target);
        }
    }

    #[test]
    fn every_node_returns_to_waiting() {
        let idx = |r: usize, c: usize| r * 4 + c;
        let mut edges = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let net = run(16, &edges, &[idx(3, 3)], 0, 3);
        for node in net.processes() {
            assert!(node.engine.is_waiting(), "node {} not waiting", node.id);
        }
    }

    #[test]
    fn second_computation_reuses_engine() {
        // After one computation completes, the same initiator can start
        // another (new generation) and it completes too.
        let mut net = run(3, &[(0, 1), (1, 2)], &[2], 0, 9);
        assert_eq!(follow_path(&net, 0), Some(2));
        // Clear target and run again: should terminate with None.
        net.process_mut(2).is_target = false;
        net.process_mut(0).finished = None;
        net.trigger(0, Node::start);
        assert!(net.run_to_quiescence().quiesced);
        assert_eq!(net.process(0).finished, Some(None));
    }

    #[test]
    #[should_panic(expected = "initiating while not waiting")]
    fn double_start_panics() {
        let mut engine = DiffusingEngine::new();
        let _ = engine.start(0, &[1], |_, _| {});
        let _ = engine.start(0, &[1], |_, _| {});
    }

    #[test]
    fn stale_reply_ignored() {
        let mut engine = DiffusingEngine::new();
        let init = ComputationId {
            initiator: 9,
            generation: 0,
        };
        let mut sent = 0;
        let outcome = engine.on_reply(3, true, init, |_, _| sent += 1);
        assert_eq!(sent, 0);
        assert_eq!(outcome, DiffuseOutcome::None);
    }

    #[test]
    fn lossy_links_deadlock_the_computation() {
        // The thesis' error-free assumption (§3.2) is load-bearing: with
        // message loss, some `num` counter never reaches zero and the
        // initiator waits forever (the network quiesces with the initiator
        // still unfinished). This is the honest negative result motivating
        // reliable-delivery assumptions.
        let idx = |r: usize, c: usize| r * 4 + c;
        let mut edges = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let mut deadlocked = 0;
        for seed in 0..10u64 {
            let mut adj = vec![Vec::new(); 16];
            for &(a, b) in &edges {
                adj[a].push(b);
                adj[b].push(a);
            }
            let nodes: Vec<Node> = (0..16)
                .map(|id| Node {
                    id,
                    neighbors: adj[id].clone(),
                    is_target: id == 15,
                    engine: DiffusingEngine::new(),
                    finished: None,
                    claimed: 0,
                })
                .collect();
            let mut net = Network::new(
                nodes,
                NetConfig {
                    seed,
                    drop_rate: 0.3,
                    ..NetConfig::default()
                },
            );
            net.trigger(0, Node::start);
            let report = net.run_to_quiescence();
            assert!(report.quiesced, "the network itself always drains");
            if net.process(0).finished.is_none() {
                deadlocked += 1;
            }
        }
        assert!(
            deadlocked > 0,
            "30% loss must deadlock at least one of ten runs"
        );
    }

    #[test]
    fn message_complexity_is_linear_in_edges() {
        // Dijkstra-Scholten sends at most 2 messages per directed edge
        // (one query + one reply), plus the early true propagation; verify
        // the bound 4 * |directed edges| loosely holds.
        let idx = |r: usize, c: usize| r * 5 + c;
        let mut edges = Vec::new();
        for r in 0..5 {
            for c in 0..5 {
                if c + 1 < 5 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 5 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let net = run(25, &edges, &[idx(4, 4)], 0, 11);
        assert!(net.total_sent() <= 4 * 2 * edges.len() as u64);
    }
}

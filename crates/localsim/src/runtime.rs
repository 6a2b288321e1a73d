//! The two LOCAL execution engines and the result types they share.
//!
//! * [`MessagePassingRuntime`] — faithful synchronous message passing:
//!   every round each live vertex broadcasts one typed message to every
//!   neighbor; message bits are accounted. Its `fault` field injects a
//!   seeded fault plan ([`crate::fault`]); the default plan injects
//!   none. The "ground truth" execution. Each round's phases are
//!   spread over the automatic [`par::workers`] count.
//! * [`OracleRuntime`] — computes each undecided vertex's round-`k`
//!   state directly: through the algorithm's
//!   [`LocalAlgorithm::project`] fast path when it has one (view
//!   algorithms project via [`oracle_view`]), otherwise by replaying the
//!   state machine inside the ball `N^k[v]` — provably the same state,
//!   no global message schedule. Vertices are spread over the automatic
//!   [`par::workers`] count, sized by the states the run may compute.
//!
//! [`RuntimeKind`] names the engines for configuration layers (the
//! `lmds-api` crate selects them by kind): four names, two engines.

use crate::algorithm::{LocalAlgorithm, NodeCtx};
use crate::fault::FaultConfig;
use crate::ids::IdAssignment;
use crate::view::LocalView;
use lmds_graph::{bfs, par, Graph};
use std::error::Error;
use std::fmt;

/// Message accounting of a LOCAL execution: the message-passing engine
/// measures bits; the oracle exchanges no messages, which is *not* the
/// same as measuring zero bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageAccounting {
    /// Bits were measured on the wire (message passing). A
    /// 0-round or 0-bit protocol legitimately measures zero.
    Measured {
        /// Largest single message, in bits.
        max_message_bits: u64,
        /// Total bits sent over all edges and rounds.
        total_message_bits: u64,
    },
    /// States were computed without exchanging messages (the oracle);
    /// no bit counts exist.
    NotApplicable,
}

impl MessageAccounting {
    /// The largest single message, when measured.
    pub fn max_bits(&self) -> Option<u64> {
        match *self {
            MessageAccounting::Measured { max_message_bits, .. } => Some(max_message_bits),
            MessageAccounting::NotApplicable => None,
        }
    }

    /// The total bits on the wire, when measured.
    pub fn total_bits(&self) -> Option<u64> {
        match *self {
            MessageAccounting::Measured { total_message_bits, .. } => Some(total_message_bits),
            MessageAccounting::NotApplicable => None,
        }
    }

    /// Whether this execution measured real messages.
    pub fn is_measured(&self) -> bool {
        matches!(self, MessageAccounting::Measured { .. })
    }
}

/// Outcome of a LOCAL execution.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// Per-vertex outputs, indexed by host vertex.
    pub outputs: Vec<O>,
    /// The round at which each vertex decided.
    pub decided_at: Vec<u32>,
    /// Global round complexity: `max(decided_at)`.
    pub rounds: u32,
    /// Message accounting ([`MessageAccounting::NotApplicable`] for the
    /// oracle).
    pub messages: MessageAccounting,
}

impl<O> RunResult<O> {
    /// The decision histogram: entry `r` counts the vertices that
    /// decided at round `r` (length `rounds + 1`).
    pub fn decided_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.rounds as usize + 1];
        for &r in &self.decided_at {
            hist[r as usize] += 1;
        }
        hist
    }

    /// Per-round progress counters: entry `r` counts the vertices
    /// decided by the end of round `r` (cumulative histogram; the last
    /// entry is `n`).
    pub fn progress(&self) -> Vec<usize> {
        let mut acc = 0usize;
        self.decided_histogram()
            .into_iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

/// Errors from a LOCAL execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Some vertex had not decided after the round cap.
    RoundLimitExceeded {
        /// The cap that was hit.
        limit: u32,
        /// Number of vertices still undecided.
        undecided: usize,
    },
    /// The id assignment does not match the graph size.
    SizeMismatch {
        /// Vertices in the graph.
        graph_n: usize,
        /// Identifiers provided.
        ids_n: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded { limit, undecided } => {
                write!(f, "round limit {limit} exceeded with {undecided} vertices undecided")
            }
            RuntimeError::SizeMismatch { graph_n, ids_n } => {
                write!(f, "graph has {graph_n} vertices but {ids_n} identifiers were given")
            }
        }
    }
}

impl Error for RuntimeError {}

/// The engine names, as a configuration value. Four names select two
/// engines: `message-passing` and `faulty` run
/// [`MessagePassingRuntime`], `oracle` and `sharded-oracle` run
/// [`OracleRuntime`]. Every name stays distinct in configs, reports and
/// sweeps; [`RuntimeKind::run`] is the single dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Fault-free message passing with bit accounting.
    MessagePassing,
    /// Direct per-vertex state computation (projection or ball replay).
    Oracle,
    /// The oracle engine under its historical name; the oracle already
    /// spreads vertices over the automatic [`par::workers`] count.
    ShardedOracle,
    /// Message passing under a seeded fault plan. The kind carries no
    /// plan: configuration layers hand theirs to
    /// [`MessagePassingRuntime`], and [`RuntimeKind::run`] runs the
    /// fault-free plan.
    Faulty,
}

impl RuntimeKind {
    /// All names, in the order sweeps iterate them. Sweeping both names
    /// of each engine re-proves on every run that they agree.
    pub const ALL: [RuntimeKind; 4] = [
        RuntimeKind::MessagePassing,
        RuntimeKind::Oracle,
        RuntimeKind::ShardedOracle,
        RuntimeKind::Faulty,
    ];

    /// Whether this kind runs the message-passing engine, which
    /// exchanges (and accounts) real messages.
    pub fn measures_messages(self) -> bool {
        matches!(self, RuntimeKind::MessagePassing | RuntimeKind::Faulty)
    }

    /// Executes `algo` on the engine this kind names, fault-free.
    ///
    /// # Errors
    ///
    /// Same as [`OracleRuntime::run`] and [`MessagePassingRuntime::run`].
    pub fn run<A: LocalAlgorithm>(
        self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        if self.measures_messages() {
            MessagePassingRuntime::default().run(g, ids, algo, max_rounds)
        } else {
            OracleRuntime.run(g, ids, algo, max_rounds)
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuntimeKind::MessagePassing => "message-passing",
            RuntimeKind::Oracle => "oracle",
            RuntimeKind::ShardedOracle => "sharded-oracle",
            RuntimeKind::Faulty => "faulty",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for RuntimeKind {
    type Err = String;

    /// Parses the [`fmt::Display`] form of each name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "message-passing" => Ok(RuntimeKind::MessagePassing),
            "oracle" => Ok(RuntimeKind::Oracle),
            "sharded-oracle" => Ok(RuntimeKind::ShardedOracle),
            "faulty" => Ok(RuntimeKind::Faulty),
            other => Err(format!(
                "unknown runtime kind {other:?} (expected one of: {})",
                RuntimeKind::ALL.map(|k| k.to_string()).join(", ")
            )),
        }
    }
}

/// Faithful synchronous message passing with bit accounting: every
/// round each live vertex broadcasts one typed message to every
/// neighbor. The `fault` plan can drop deliveries, crash vertices and
/// deliver stale messages; the default plan injects nothing.
///
/// [`MessagePassingRuntime::run`] demands that every vertex decide;
/// [`MessagePassingRuntime::run_with_report`] returns partial outputs
/// plus the [`FaultReport`](crate::FaultReport). The round loop behind
/// both lives in [`crate::fault`], beside the plan it consults on every
/// delivery.
///
/// Each round runs two phases, each worker taking a contiguous range of
/// vertices: every live vertex builds its message once (and its bits
/// are accounted), then every live vertex receives its neighbors'
/// messages — lent by reference, never copied — and tries to decide.
/// A phase is sized by the identifiers on the wire,
/// [`par::workers`]`(ids, `[`par::SWEEP_GRAIN`]`)`: the receive phase by
/// its round's traffic, the send phase by the previous round's, so the
/// first rounds of short protocols and small networks stay on the
/// caller's thread. Every draw of the fault plan is a pure function
/// of the delivery, and the counters merge by sum and maximum, so
/// outputs, bits and the [`FaultReport`](crate::FaultReport) do not
/// depend on the worker count.
///
/// ```
/// use lmds_graph::Graph;
/// use lmds_localsim::{Decider, FaultConfig, IdAssignment, LocalView, MessagePassingRuntime};
///
/// struct DegreeAlgo;
/// impl Decider for DegreeAlgo {
///     type Output = usize;
///     fn decide(&self, view: &LocalView) -> Option<usize> {
///         (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
///     }
/// }
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let ids = IdAssignment::sequential(4);
/// let res = MessagePassingRuntime::default().run(&g, &ids, &DegreeAlgo, 16).unwrap();
/// assert_eq!(res.outputs, vec![1, 2, 2, 1]);
/// let fault: FaultConfig = "seed=1;drop=bernoulli:1000".parse().unwrap();
/// let run = MessagePassingRuntime { fault }.run_with_report(&g, &ids, &DegreeAlgo, 16).unwrap();
/// assert_eq!(run.outputs, vec![Some(0); 4], "every delivery was lost");
/// assert_eq!(run.report.messages_dropped, 6);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MessagePassingRuntime {
    /// The fault scenario to inject.
    pub fault: FaultConfig,
}

/// Computes the exact view of `v` after `k` rounds directly from the
/// graph: vertices of `N^k[v]`, edges incident to `N^{k-1}[v]`.
///
/// One scratch-pooled BFS supplies both radii: the outer ball is every
/// visited vertex, the inner ball the ones at distance `< k`. This is
/// the projection fast path of every view algorithm ([`crate::Decider`]
/// via the blanket adapter).
pub fn oracle_view(g: &Graph, ids: &IdAssignment, v: lmds_graph::Vertex, k: u32) -> LocalView {
    if k == 0 {
        return LocalView::initial(ids.id_of(v));
    }
    let ball = bfs::ball_with_distances(g, v, k);
    let verts: Vec<u64> = ball.iter().map(|&(u, _)| ids.id_of(u)).collect();
    let mut edges = Vec::new();
    for &(u, d) in &ball {
        if d < k {
            for &w in g.neighbors(u) {
                edges.push((ids.id_of(u), ids.id_of(w as usize)));
            }
        }
    }
    LocalView::from_parts(ids.id_of(v), k, verts, edges)
}

/// The exact state of `v` after `rounds` rounds, computed by replaying
/// the state machine inside the ball `N^rounds[v]`.
///
/// Correctness: the state of a vertex `u` at distance `d` from `v`
/// after `j` rounds is exact whenever `d + j ≤ rounds` (by induction:
/// `u`'s neighbors are all inside the ball when `d ≤ rounds − 1`, and
/// their states one round earlier are exact at distance `d + 1`). The
/// center (`d = 0`) is therefore exact after `rounds` rounds, and its
/// inbox order matches the global execution's host neighbor order.
fn replay_state<A: LocalAlgorithm>(
    g: &Graph,
    ids: &IdAssignment,
    algo: &A,
    v: lmds_graph::Vertex,
    rounds: u32,
) -> A::State {
    if rounds == 0 {
        return algo.init(&NodeCtx { id: ids.id_of(v) });
    }
    let ball = bfs::ball(g, v, rounds); // sorted ascending
    let mut states: Vec<A::State> =
        ball.iter().map(|&u| algo.init(&NodeCtx { id: ids.id_of(u) })).collect();
    for round in 1..=rounds {
        let msgs: Vec<A::Message> = states.iter().map(|s| algo.send(s, round)).collect();
        let mut inbox: Vec<&A::Message> = Vec::new();
        for (i, &u) in ball.iter().enumerate() {
            inbox.clear();
            for &w in g.neighbors(u) {
                if let Ok(j) = ball.binary_search(&(w as usize)) {
                    inbox.push(&msgs[j]);
                }
            }
            algo.receive(&mut states[i], round, &inbox);
        }
    }
    let center = ball.binary_search(&v).expect("center is in its own ball");
    states.swap_remove(center)
}

/// The round-`k` state of `v`: projection fast path or ball replay.
fn state_at<A: LocalAlgorithm>(
    g: &Graph,
    ids: &IdAssignment,
    algo: &A,
    v: lmds_graph::Vertex,
    round: u32,
) -> A::State {
    if round == 0 {
        algo.init(&NodeCtx { id: ids.id_of(v) })
    } else {
        algo.project(g, ids, v, round).unwrap_or_else(|| replay_state(g, ids, algo, v, round))
    }
}

/// Oracle execution: each vertex's round-`k` state computed directly
/// (projection or ball replay); no messages exchanged, so no bit
/// accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleRuntime;

impl OracleRuntime {
    /// Executes `algo` on the network `(g, ids)`, at most `max_rounds`
    /// rounds.
    ///
    /// Under oracle semantics a vertex's decision round depends only on
    /// the network, never on other vertices' decisions — so no per-round
    /// barrier is needed: [`par::drain`] hands vertices to workers, and
    /// each scans its rounds `0..=max_rounds` until it decides. The
    /// worker count is sized by the states the run may compute, not by
    /// the vertices: [`par::workers`]`(n · (max_rounds + 1), `
    /// [`par::BALL_GRAIN`]`)`, since a small network whose vertices each
    /// need many rounds is as much work as a large one. Every worker
    /// pre-warms its thread-local [`Scratch`](lmds_graph::Scratch) to
    /// the graph size once per run, so the per-vertex ball queries run
    /// allocation-free. Outputs do not depend on the worker count (all
    /// algorithms are deterministic).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimitExceeded`] if some vertex never decides
    /// within `max_rounds`; [`RuntimeError::SizeMismatch`] on malformed
    /// input.
    pub fn run<A: LocalAlgorithm>(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        let n = g.n();
        if n != ids.n() {
            return Err(RuntimeError::SizeMismatch { graph_n: n, ids_n: ids.n() });
        }
        let views = n.saturating_mul(max_rounds as usize + 1);
        let decisions = par::drain(
            n,
            par::workers(views, par::BALL_GRAIN),
            || lmds_graph::scratch::with_thread_scratch(|s| s.reserve(n)),
            |_, v| {
                (0..=max_rounds).find_map(|round| {
                    algo.decide(&state_at(g, ids, algo, v, round), round).map(|o| (round, o))
                })
            },
        );
        let undecided = decisions.iter().filter(|d| d.is_none()).count();
        if undecided > 0 {
            return Err(RuntimeError::RoundLimitExceeded { limit: max_rounds, undecided });
        }
        let (decided_at, outputs): (Vec<u32>, _) = decisions.into_iter().flatten().unzip();
        Ok(RunResult {
            rounds: decided_at.iter().copied().max().unwrap_or(0),
            outputs,
            decided_at,
            messages: MessageAccounting::NotApplicable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Decider;
    use lmds_graph::GraphBuilder;

    struct DegreeAlgo;
    impl Decider for DegreeAlgo {
        type Output = usize;
        fn decide(&self, view: &LocalView) -> Option<usize> {
            (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
        }
    }

    /// Decides whether the center lies on a triangle; needs radius-1
    /// induced knowledge, i.e. 2 rounds.
    struct TriangleAlgo;
    impl Decider for TriangleAlgo {
        type Output = bool;
        fn decide(&self, view: &LocalView) -> Option<bool> {
            if view.certified_radius() < 1 {
                return None;
            }
            let me = view.center_id();
            let nb = view.neighbors_of(me);
            for (i, &a) in nb.iter().enumerate() {
                for &b in &nb[i + 1..] {
                    if view.contains_edge(a, b) {
                        return Some(true);
                    }
                }
            }
            Some(false)
        }
    }

    /// A native (non-view) algorithm with no projection: forces the
    /// oracle through the ball-replay path. Outputs the
    /// smallest id within distance 2.
    struct MinIdRadius2;

    #[derive(Clone)]
    struct MinState {
        min: u64,
    }

    impl LocalAlgorithm for MinIdRadius2 {
        type State = MinState;
        type Message = u64;
        type Output = u64;
        fn init(&self, ctx: &NodeCtx) -> MinState {
            MinState { min: ctx.id }
        }
        fn send(&self, state: &MinState, _round: u32) -> u64 {
            state.min
        }
        fn receive(&self, state: &mut MinState, _round: u32, incoming: &[&u64]) {
            for &&m in incoming {
                state.min = state.min.min(m);
            }
        }
        fn decide(&self, state: &MinState, round: u32) -> Option<u64> {
            (round >= 2).then_some(state.min)
        }
        fn message_bits(&self, _msg: &u64, id_bits: u32) -> u64 {
            id_bits as u64
        }
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn degree_in_one_round_all_runtimes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]);
        let ids = IdAssignment::shuffled(5, 3);
        let a = MessagePassingRuntime::default().run(&g, &ids, &DegreeAlgo, 10).unwrap();
        let b = OracleRuntime.run(&g, &ids, &DegreeAlgo, 10).unwrap();
        let c = par::with_workers(4, || OracleRuntime.run(&g, &ids, &DegreeAlgo, 10)).unwrap();
        assert_eq!(a.outputs, vec![1, 3, 2, 1, 1]);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, c.outputs);
        assert_eq!(a.rounds, 1);
        assert_eq!(b.rounds, 1);
        assert_eq!(c.rounds, 1);
        assert!(a.messages.max_bits().unwrap() > 0);
        assert!(a.messages.total_bits() >= a.messages.max_bits());
        assert_eq!(b.messages, MessageAccounting::NotApplicable);
        assert_eq!(c.messages, MessageAccounting::NotApplicable);
    }

    #[test]
    fn triangle_detection_needs_two_rounds() {
        let mut g = cycle(6);
        g.add_edge(0, 2); // triangle 0-1-2
        let ids = IdAssignment::sequential(7.min(g.n()));
        let res = MessagePassingRuntime::default().run(&g, &ids, &TriangleAlgo, 10).unwrap();
        assert_eq!(res.rounds, 2);
        assert_eq!(res.outputs, vec![true, true, true, false, false, false]);
        let res2 = OracleRuntime.run(&g, &ids, &TriangleAlgo, 10).unwrap();
        assert_eq!(res.outputs, res2.outputs);
        assert_eq!(res.decided_at, res2.decided_at);
        assert_eq!(res.decided_histogram(), res2.decided_histogram());
    }

    #[test]
    fn native_algorithm_replay_matches_message_passing() {
        // MinIdRadius2 has no projection: the oracle replays the
        // state machine inside balls and must still agree bit-for-bit.
        let mut g = cycle(12);
        g.add_edge(0, 6);
        let ids = IdAssignment::shuffled(12, 17);
        let a = MessagePassingRuntime::default().run(&g, &ids, &MinIdRadius2, 10).unwrap();
        let b = OracleRuntime.run(&g, &ids, &MinIdRadius2, 10).unwrap();
        let c = par::with_workers(5, || OracleRuntime.run(&g, &ids, &MinIdRadius2, 10)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, c.outputs);
        assert_eq!(a.decided_at, b.decided_at);
        assert_eq!(a.decided_at, c.decided_at);
        assert_eq!(a.rounds, 2);
        // Every vertex's output is the true min id within distance 2.
        for v in 0..12 {
            let expect = bfs::ball(&g, v, 2).into_iter().map(|u| ids.id_of(u)).min().unwrap();
            assert_eq!(a.outputs[v], expect, "vertex {v}");
        }
    }

    #[test]
    fn oracle_equals_message_passing_views() {
        // Cross-validate view contents on a structured graph for several
        // radii (the core simulator invariant).
        let g =
            Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 6), (6, 7)]);
        let ids = IdAssignment::shuffled(8, 11);
        // Reconstruct message-passing views manually (the blanket
        // adapter's receive) and compare to the oracle views.
        let mut views: Vec<LocalView> = (0..8).map(|v| LocalView::initial(ids.id_of(v))).collect();
        for k in 1..=4u32 {
            let snapshot = views.clone();
            for (v, view) in views.iter_mut().enumerate() {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    view.learn_edge(ids.id_of(v), ids.id_of(u));
                    let s = snapshot[u].clone();
                    view.merge(&s);
                }
                view.advance_round();
            }
            for (v, view) in views.iter().enumerate() {
                let oracle = oracle_view(&g, &ids, v, k);
                assert_eq!(view, &oracle, "vertex {v} round {k}");
            }
        }
    }

    #[test]
    fn round_limit_error() {
        struct Never;
        impl Decider for Never {
            type Output = ();
            fn decide(&self, _: &LocalView) -> Option<()> {
                None
            }
        }
        let g = cycle(4);
        let ids = IdAssignment::sequential(4);
        let err = OracleRuntime.run(&g, &ids, &Never, 3).unwrap_err();
        assert_eq!(err, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
        let err2 = MessagePassingRuntime::default().run(&g, &ids, &Never, 3).unwrap_err();
        assert_eq!(err2, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
        let err3 = par::with_workers(2, || OracleRuntime.run(&g, &ids, &Never, 3)).unwrap_err();
        assert_eq!(err3, RuntimeError::RoundLimitExceeded { limit: 3, undecided: 4 });
    }

    #[test]
    fn size_mismatch_error() {
        let g = cycle(4);
        let ids = IdAssignment::sequential(3);
        assert!(matches!(
            OracleRuntime.run(&g, &ids, &DegreeAlgo, 5),
            Err(RuntimeError::SizeMismatch { graph_n: 4, ids_n: 3 })
        ));
    }

    #[test]
    fn zero_round_algorithm_measures_zero_bits() {
        struct TakeAll;
        impl Decider for TakeAll {
            type Output = bool;
            fn decide(&self, _: &LocalView) -> Option<bool> {
                Some(true)
            }
        }
        let g = cycle(5);
        let ids = IdAssignment::sequential(5);
        let res = MessagePassingRuntime::default().run(&g, &ids, &TakeAll, 5).unwrap();
        assert_eq!(res.rounds, 0);
        // Measured zero is distinct from not-measured.
        assert_eq!(
            res.messages,
            MessageAccounting::Measured { max_message_bits: 0, total_message_bits: 0 }
        );
        assert_eq!(res.decided_histogram(), vec![5]);
        assert_eq!(res.progress(), vec![5]);
    }

    #[test]
    fn deep_gathering_measures_large_messages() {
        struct DeepAlgo;
        impl Decider for DeepAlgo {
            type Output = usize;
            fn decide(&self, view: &LocalView) -> Option<usize> {
                (view.rounds() >= 6).then(|| view.vertex_ids().len())
            }
        }
        // A dense-ish graph where 6-hop views carry many ids: the
        // largest message outgrows a CONGEST budget of 4·log₂ n bits.
        let mut g = Graph::new(64);
        for i in 0..63 {
            g.add_edge(i, i + 1);
        }
        for i in 0..60 {
            g.add_edge(i, i + 4);
        }
        let ids = IdAssignment::sequential(64);
        let res = MessagePassingRuntime::default().run(&g, &ids, &DeepAlgo, 10).unwrap();
        assert!(res.messages.max_bits().unwrap() > 4 * 6);
        // The oracle measures nothing.
        let oracle = OracleRuntime.run(&g, &ids, &DeepAlgo, 10).unwrap();
        assert_eq!(oracle.messages, MessageAccounting::NotApplicable);
    }

    #[test]
    fn sharded_matches_sequential_on_larger_graph() {
        let g = cycle(64);
        let ids = IdAssignment::shuffled(64, 99);
        let a = OracleRuntime.run(&g, &ids, &TriangleAlgo, 10).unwrap();
        let b = par::with_workers(7, || OracleRuntime.run(&g, &ids, &TriangleAlgo, 10)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.decided_at, b.decided_at);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn ids_do_not_change_decisions_for_id_invariant_algo() {
        // Degree is id-invariant: outputs per *vertex* must be identical
        // under different id assignments.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]);
        let r1 = OracleRuntime.run(&g, &IdAssignment::sequential(6), &DegreeAlgo, 5).unwrap();
        let r2 = OracleRuntime.run(&g, &IdAssignment::shuffled(6, 5), &DegreeAlgo, 5).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
    }

    #[test]
    fn runtime_kind_dispatch_matches_direct_runtimes() {
        let g = cycle(9);
        let ids = IdAssignment::shuffled(9, 2);
        let direct = OracleRuntime.run(&g, &ids, &DegreeAlgo, 5).unwrap();
        for kind in RuntimeKind::ALL {
            let via = kind.run(&g, &ids, &DegreeAlgo, 5).unwrap();
            assert_eq!(via.outputs, direct.outputs, "{kind}");
            assert_eq!(via.rounds, direct.rounds, "{kind}");
            assert_eq!(kind.measures_messages(), via.messages.is_measured(), "{kind}");
        }
    }

    #[test]
    fn empty_graph_runs() {
        let g = Graph::new(0);
        let ids = IdAssignment::sequential(0);
        for kind in RuntimeKind::ALL {
            let res = kind.run(&g, &ids, &DegreeAlgo, 3).unwrap();
            assert!(res.outputs.is_empty());
            assert_eq!(res.rounds, 0);
        }
    }
}

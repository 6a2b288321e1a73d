//! The round-state-machine form of a LOCAL algorithm: explicit per-node
//! state and **typed messages**, instead of whole-view flooding.
//!
//! A [`LocalAlgorithm`] describes what one processor does:
//!
//! ```text
//! init → (send, receive, decide?)* → decide
//! ```
//!
//! Every vertex starts from [`LocalAlgorithm::init`] knowing only its
//! identifier ([`NodeCtx`]). In each synchronous round it broadcasts one
//! [`LocalAlgorithm::send`] message to all neighbors, folds the incoming
//! messages into its state with [`LocalAlgorithm::receive`], and may fix
//! its output with [`LocalAlgorithm::decide`]. Both engines
//! ([`MessagePassingRuntime`](crate::MessagePassingRuntime) and
//! [`OracleRuntime`](crate::OracleRuntime)) execute the same state
//! machine and are bit-identical because implementations are
//! deterministic and treat the incoming slice as arriving in a fixed
//! (host neighbor) order. Each message is built once per sender and
//! round; the engines lend it to every recipient by reference, so a
//! message is never copied per edge.
//!
//! # View algorithms are a special case
//!
//! Every [`Decider`] — an algorithm written as a function of the
//! [`LocalView`] — is automatically a `LocalAlgorithm` through a blanket
//! adapter: its state and message are both the view, `send` broadcasts
//! the whole view, `receive` merges the neighbors' views. This is
//! exactly the folklore "full information" protocol, so the legacy
//! deciders run unchanged on the new engine.
//!
//! # Example: a native two-round algorithm
//!
//! ```
//! use lmds_graph::Graph;
//! use lmds_localsim::{IdAssignment, LocalAlgorithm, NodeCtx, OracleRuntime};
//!
//! /// Each vertex outputs the smallest identifier in its closed
//! /// neighborhood — one round, one id per message.
//! struct MinIdAlgo;
//!
//! #[derive(Clone)]
//! struct MinSeen {
//!     me: u64,
//!     min: u64,
//! }
//!
//! impl LocalAlgorithm for MinIdAlgo {
//!     type State = MinSeen;
//!     type Message = u64;
//!     type Output = u64;
//!
//!     fn init(&self, ctx: &NodeCtx) -> MinSeen {
//!         MinSeen { me: ctx.id, min: ctx.id }
//!     }
//!     fn send(&self, state: &MinSeen, _round: u32) -> u64 {
//!         state.me
//!     }
//!     fn receive(&self, state: &mut MinSeen, _round: u32, incoming: &[&u64]) {
//!         for &&id in incoming {
//!             state.min = state.min.min(id);
//!         }
//!     }
//!     fn decide(&self, state: &MinSeen, round: u32) -> Option<u64> {
//!         (round >= 1).then_some(state.min)
//!     }
//!     fn message_bits(&self, _msg: &u64, id_bits: u32) -> u64 {
//!         id_bits as u64
//!     }
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let ids = IdAssignment::from_ids(vec![7, 3, 9, 1]);
//! let res = OracleRuntime.run(&g, &ids, &MinIdAlgo, 8).unwrap();
//! assert_eq!(res.rounds, 1);
//! assert_eq!(res.outputs, vec![3, 3, 1, 1]);
//! ```

use crate::ids::IdAssignment;
use crate::runtime::oracle_view;
use crate::view::LocalView;
use crate::Decider;
use lmds_graph::{Graph, Vertex};

/// What a processor knows when it wakes up, before any communication:
/// its unique identifier and nothing else (Linial's LOCAL model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// The vertex's unique `O(log n)`-bit identifier.
    pub id: u64,
}

/// A LOCAL algorithm as a per-vertex round state machine with typed
/// messages.
///
/// The contract every implementation must satisfy (it is what makes the
/// engines interchangeable):
///
/// * **Deterministic**: `init`, `send`, `receive`, and `decide` are pure
///   functions of their arguments.
/// * **Message-driven**: the state after `k` rounds depends only on the
///   initial context and the messages received in rounds `1..=k`
///   (delivered in host neighbor order, one per neighbor).
/// * **Persistent**: a vertex keeps sending and receiving after it
///   decides (real networks relay); `decide` is simply not called again.
pub trait LocalAlgorithm: Sync {
    /// Per-vertex state.
    type State: Clone + Send;
    /// The message broadcast to every neighbor each round. The engines
    /// lend one message to all recipients, possibly on several threads
    /// at once, hence `Sync`.
    type Message: Send + Sync;
    /// Per-vertex output type.
    type Output: Clone + Send;

    /// The round-0 state of a vertex.
    fn init(&self, ctx: &NodeCtx) -> Self::State;

    /// The message broadcast at the start of `round` (1-based), computed
    /// from the state after `round - 1` rounds.
    fn send(&self, state: &Self::State, round: u32) -> Self::Message;

    /// Folds the messages received in `round` into the state. `incoming`
    /// holds at most one message per neighbor (one per neighbor on a
    /// fault-free network), in host neighbor order. The messages are
    /// lent: the sender's copy is shared by all its recipients, so
    /// keeping part of one means cloning that part (cheap when the
    /// message holds `Arc`s).
    fn receive(&self, state: &mut Self::State, round: u32, incoming: &[&Self::Message]);

    /// Decides from the state after `round` rounds, or returns `None` to
    /// communicate for another round.
    fn decide(&self, state: &Self::State, round: u32) -> Option<Self::Output>;

    /// Size of `msg` on the wire, in bits, with `id_bits` bits per
    /// identifier (the message-passing runtime accounts with this).
    fn message_bits(&self, msg: &Self::Message, id_bits: u32) -> u64;

    /// Optional oracle fast path: the exact state `v` would hold after
    /// `round` rounds, computed directly from the global network.
    ///
    /// The oracle calls this first and falls back to a
    /// ball-restricted replay of the state machine when it returns
    /// `None` (the default). Implementations must return exactly the
    /// state the message-passing execution would produce — the runtime
    /// equivalence tests enforce this.
    fn project(&self, g: &Graph, ids: &IdAssignment, v: Vertex, round: u32) -> Option<Self::State> {
        let _ = (g, ids, v, round);
        None
    }
}

/// The blanket adapter: every [`Decider`] is a [`LocalAlgorithm`] whose
/// state and message are both the [`LocalView`] — the full-information
/// protocol. The oracle shortcuts it through [`oracle_view`]
/// (provably the same views, one BFS instead of per-edge merges).
impl<D: Decider> LocalAlgorithm for D {
    type State = LocalView;
    type Message = LocalView;
    type Output = D::Output;

    fn init(&self, ctx: &NodeCtx) -> LocalView {
        LocalView::initial(ctx.id)
    }

    fn send(&self, state: &LocalView, _round: u32) -> LocalView {
        state.clone()
    }

    fn receive(&self, state: &mut LocalView, _round: u32, incoming: &[&LocalView]) {
        for msg in incoming {
            state.learn_edge(state.center_id(), msg.center_id());
            state.merge(msg);
        }
        state.advance_round();
    }

    fn decide(&self, state: &LocalView, _round: u32) -> Option<D::Output> {
        Decider::decide(self, state)
    }

    fn message_bits(&self, msg: &LocalView, id_bits: u32) -> u64 {
        msg.size_bits(id_bits)
    }

    fn project(&self, g: &Graph, ids: &IdAssignment, v: Vertex, round: u32) -> Option<LocalView> {
        Some(oracle_view(g, ids, v, round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DegreeAlgo;
    impl Decider for DegreeAlgo {
        type Output = usize;
        fn decide(&self, view: &LocalView) -> Option<usize> {
            (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
        }
    }

    #[test]
    fn adapter_receive_matches_manual_merge() {
        // One round of the adapter on a path 0-1-2, centered at 1.
        let ids = IdAssignment::sequential(3);
        let algo = DegreeAlgo;
        let mut state = LocalAlgorithm::init(&algo, &NodeCtx { id: ids.id_of(1) });
        let (left, right) = (LocalView::initial(ids.id_of(0)), LocalView::initial(ids.id_of(2)));
        algo.receive(&mut state, 1, &[&left, &right]);
        assert_eq!(state.rounds(), 1);
        assert_eq!(state.vertex_ids(), &[0, 1, 2]);
        assert!(state.contains_edge(0, 1) && state.contains_edge(1, 2));
        assert_eq!(LocalAlgorithm::decide(&algo, &state, 1), Some(2));
    }

    #[test]
    fn adapter_projection_is_the_oracle_view() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let ids = IdAssignment::shuffled(5, 3);
        let algo = DegreeAlgo;
        for v in 0..5 {
            for k in 0..3 {
                let projected = algo.project(&g, &ids, v, k).expect("adapter projects");
                assert_eq!(projected, oracle_view(&g, &ids, v, k), "v={v} k={k}");
            }
        }
    }

    #[test]
    fn adapter_message_bits_match_view_size() {
        let algo = DegreeAlgo;
        let v = LocalView::from_parts(0, 1, vec![0, 1, 2], vec![(0, 1), (0, 2)]);
        assert_eq!(algo.message_bits(&v, 10), v.size_bits(10));
    }
}

//! # lmds-localsim
//!
//! A deterministic synchronous **LOCAL-model** simulator with
//! first-class round state machines and two execution engines.
//!
//! The LOCAL model (Linial): the network is an undirected graph;
//! vertices are processors with unique `O(log n)`-bit identifiers;
//! computation proceeds in synchronous rounds; in each round every
//! vertex exchanges unbounded messages with its neighbors and performs
//! arbitrary local computation. The complexity measure is the number of
//! rounds.
//!
//! The crate is layered:
//!
//! * [`LocalAlgorithm`] — a per-vertex round state machine with explicit
//!   typed messages (`init → (send, receive, decide?)* → decide`). This
//!   is the execution contract every distributed algorithm implements.
//! * [`Decider`] — the view-function special case: a function from the
//!   [`LocalView`] (everything a vertex can know after `k` rounds) to a
//!   decision. A blanket adapter makes every `Decider` a
//!   `LocalAlgorithm` running the full-information protocol, so
//!   adaptive algorithms stay one `fn` long.
//! * Two engines, selected by [`RuntimeKind`]:
//!   [`MessagePassingRuntime`] (faithful synchronous message passing,
//!   bits accounted, under an optional seeded [`FaultConfig`]: drops,
//!   crash-stop vertices, bounded skew; each round's phases sharded,
//!   messages lent rather than copied) and [`OracleRuntime`] (states
//!   computed directly via projection or ball replay, with pooled
//!   scratch). Both take the automatic [`lmds_graph::par`] worker
//!   count, and their results do not depend on it. The four
//!   kind names are aliases: `message-passing` and `faulty` select
//!   message passing, `oracle` and `sharded-oracle` the oracle.
//! * [`IdPolicy`] / [`IdAssignment`] — the identifier-assignment axis:
//!   sequential, seeded-shuffled, or degree-adversarial permutations.
//!
//! The fundamental fact the oracle is built around: after `k`
//! rounds a vertex `v` can know exactly the identifiers of `N^k[v]` and
//! all edges incident to `N^{k-1}[v]`, and nothing more — so a vertex's
//! state is computable from its `k`-ball alone, either by projecting
//! the view directly ([`oracle_view`]) or by replaying the state
//! machine inside the ball. Both engines are bit-identical on
//! deterministic algorithms; the [`RunResult`] additionally reports
//! decision rounds, the decided-at histogram, and — on the
//! message-passing engine — measured message bits
//! ([`MessageAccounting`]).
//!
//! # Example
//!
//! ```
//! use lmds_graph::Graph;
//! use lmds_localsim::{
//!     Decider, IdAssignment, LocalView, MessageAccounting, MessagePassingRuntime,
//!     OracleRuntime,
//! };
//!
//! /// Decide the degree: needs 1 round (vertices start without it).
//! struct DegreeAlgo;
//! impl Decider for DegreeAlgo {
//!     type Output = usize;
//!     fn decide(&self, view: &LocalView) -> Option<usize> {
//!         (view.rounds() >= 1).then(|| view.neighbors_of(view.center_id()).len())
//!     }
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let ids = IdAssignment::sequential(4);
//! let res = OracleRuntime.run(&g, &ids, &DegreeAlgo, 16).unwrap();
//! assert_eq!(res.rounds, 1);
//! assert_eq!(res.outputs, vec![1, 2, 2, 1]);
//! // The oracle computed states without exchanging messages:
//! assert_eq!(res.messages, MessageAccounting::NotApplicable);
//! // The message-passing engine measures real bits, bit-identically:
//! let mp = MessagePassingRuntime::default().run(&g, &ids, &DegreeAlgo, 16).unwrap();
//! assert_eq!(mp.outputs, res.outputs);
//! assert!(mp.messages.total_bits().unwrap() > 0);
//! ```

pub mod algorithm;
pub mod fault;
pub mod ids;
pub mod runtime;
pub mod view;

pub use algorithm::{LocalAlgorithm, NodeCtx};
pub use fault::{
    CrashPolicy, DropPolicy, FaultConfig, FaultReport, FaultyRun, ParseFaultError, MAX_SKEW,
};
pub use ids::{IdAssignment, IdPolicy};
pub use runtime::{
    oracle_view, MessageAccounting, MessagePassingRuntime, OracleRuntime, RunResult, RuntimeError,
    RuntimeKind,
};
pub use view::LocalView;

/// A LOCAL algorithm expressed as a view-to-decision function.
///
/// `decide` is called after every round (including round 0, when the
/// view contains only the vertex itself). Returning `Some` fixes the
/// node's output; the runtime keeps the node relaying messages
/// afterwards (as a real network would) but records its decision round.
///
/// Implementations must be deterministic functions of the view — this
/// is what makes the engines interchangeable. Every `Decider` is a
/// [`LocalAlgorithm`] through the blanket adapter in
/// [`algorithm`]: state and message are both the view (the
/// full-information protocol), and the oracle shortcuts it through
/// [`oracle_view`].
pub trait Decider: Sync {
    /// Per-node output type.
    type Output: Clone + Send;

    /// Decide from the current view, or return `None` to wait a round.
    fn decide(&self, view: &LocalView) -> Option<Self::Output>;
}

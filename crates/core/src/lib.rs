//! # lmds-core
//!
//! The paper's algorithms, in both centralized-reference and distributed
//! (LOCAL) form:
//!
//! * **Algorithm 1 / Theorem 4.1** ([`algorithm1()`]) — the
//!   `O_t(1)`-round constant-approximation for Minimum Dominating Set on
//!   `K_{2,t}`-minor-free graphs: true-twin reduction → all vertices in
//!   `m_{3.2}`-local minimal 1-cuts → all interesting vertices of
//!   `m_{3.3}`-local minimal 2-cuts → exact brute force on the residual
//!   bounded-diameter components.
//! * **Algorithm 2 / Theorem 4.3** — the same pipeline parameterized by
//!   an asymptotic-dimension control function ([`radii`]).
//! * **Theorem 4.4** ([`theorem44`]) — the 3-round `(2t−1)`-approximation
//!   (`D_2` of the twin-free quotient), plus its `t`-approximation
//!   Minimum Vertex Cover analogue.
//! * **MVC variant of Algorithm 1** ([`mvc`]) — take *all* local-2-cut
//!   vertices instead of only interesting ones (§4 closing remark).
//! * **Folklore baselines** ([`baselines`]) — the other implementable
//!   rows of Table 1.
//!
//! Every distributed algorithm runs on the `lmds-localsim` engines:
//! the explicit-round algorithms (Theorem 4.4 and the folklore rows) as
//! native [`lmds_localsim::LocalAlgorithm`] round state machines with
//! typed messages, the adaptive Algorithm 1 family as
//! [`lmds_localsim::Decider`] view functions — each property-tested to
//! coincide with its centralized reference on the same identifier
//! assignment.

pub mod algorithm1;
pub mod algorithm2;
pub mod analysis;
pub mod baselines;
pub mod bipartite_minor;
pub mod distributed;
pub mod dynamic;
pub mod forest;
pub mod local_cuts;
pub mod mvc;
pub mod radii;
pub mod theorem44;

pub use algorithm1::{algorithm1, algorithm1_with, Algorithm1Output, PipelineOptions};
pub use algorithm2::algorithm2;
pub use dynamic::{DynamicSolver, DynamicStats};
pub use radii::Radii;
pub use theorem44::{theorem44_mds, theorem44_mvc};

//! # lmds-api
//!
//! The unified service-facing API of the workspace: one [`Solver`]
//! trait, a [`SolverRegistry`] naming every algorithm under a stable
//! string key, and a [`BatchRunner`] that fans solver sets across many
//! instances on a thread pool.
//!
//! Everything upstream of this crate (graph substrate, the paper's
//! algorithms, the LOCAL simulator, workload generators) is exposed
//! downstream (experiments, the `reproduce` binary, examples, service
//! frontends) exclusively through three types:
//!
//! * [`Instance`] — graph + identifier assignment + optional ground
//!   truth,
//! * [`SolveConfig`] — problem ([`Problem::MinDominatingSet`] or
//!   [`Problem::MinVertexCover`]), [`ExecutionMode`], the LOCAL
//!   [`ScenarioConfig`] (identifier [`IdPolicy`], round cap, fault
//!   plan), radii, ablation options,
//! * [`Solution`] — vertex set, validity [`Certificate`], measured
//!   ratio, round count, [`MessageStats`] (message-bit accounting +
//!   decided-at histogram), wall time, and [`PipelineDiagnostics`].
//!
//! Distributed solvers are **registry-native**: every
//! `ExecutionMode::Local(kind)` solve runs a first-class
//! `lmds_localsim::LocalAlgorithm` (native typed-message state machines
//! for the explicit-round algorithms, view deciders for the adaptive
//! pipeline) on the engine `kind` names — faithful message passing
//! (optionally under a seeded fault plan) or the oracle, pooled on
//! per-thread scratch workspaces. Without faults both engines produce
//! bit-identical solutions.
//!
//! # Quickstart
//!
//! ```
//! use lmds_api::{ExecutionMode, Instance, SolveConfig, SolverRegistry};
//!
//! let registry = SolverRegistry::with_defaults();
//! let instance = Instance::shuffled("demo", lmds_gen::basic::cycle(12), 7);
//!
//! // Same call shape for every algorithm, centralized or simulated.
//! let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE).measure_ratio(true);
//! let sol = registry.solve("mds/theorem44", &instance, &cfg).unwrap();
//! assert!(sol.is_valid());
//! assert_eq!(sol.rounds, Some(3));
//! assert!(sol.ratio().unwrap() >= 1.0);
//!
//! // Every distributed run carries its LOCAL execution profile: the
//! // oracle backend exchanges no messages but reports when each vertex
//! // decided.
//! let stats = sol.messages.as_ref().unwrap();
//! assert_eq!(stats.max_message_bits(), None);
//! assert_eq!(stats.decided_at.iter().sum::<usize>(), instance.n());
//!
//! // Enumerate what is available.
//! assert!(registry.keys().len() >= 8);
//! ```

pub mod batch;
pub mod config;
pub mod dynamic;
pub mod instance;
pub mod registry;
pub mod solution;
pub mod solver;
pub mod view;

pub use batch::{BatchJob, BatchRecord, BatchRunner};
pub use config::{ExecutionMode, Problem, ScenarioConfig, SolveConfig, DEFAULT_OPT_BUDGET};
pub use dynamic::DynamicInstance;
pub use instance::{GroundTruth, Instance};
pub use registry::{SolverDescriptor, SolverRegistry};
pub use solution::{
    Certificate, Degradation, MessageStats, Optimum, PipelineDiagnostics, Solution, VerifyError,
};
pub use solver::{SolveError, Solver};
pub use view::{SolutionView, SolveConfigView, ViewError};

// The LOCAL-scenario vocabulary (including the fault-injection knobs),
// re-exported so API consumers need not depend on the simulator crate
// directly.
pub use lmds_localsim::{
    CrashPolicy, DropPolicy, FaultConfig, FaultReport, IdPolicy, MessageAccounting, RuntimeKind,
};

// The exact-engine backend knob ([`SolveConfig::exact_backend`]),
// re-exported likewise from the graph substrate.
pub use lmds_graph::exact::ExactBackend;

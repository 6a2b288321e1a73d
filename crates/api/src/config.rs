//! The uniform solve configuration: problem, execution mode, LOCAL
//! scenario (identifier policy, round cap, fault plan), radii,
//! ablation options — one builder shared by every solver.

use lmds_asdim::ControlFunction;
use lmds_core::{PipelineOptions, Radii};
use lmds_graph::ExactBackend;
use lmds_localsim::{FaultConfig, IdPolicy, RuntimeKind};

/// The optimization problem an [`crate::Solver`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Minimum Dominating Set.
    MinDominatingSet,
    /// Minimum Vertex Cover.
    MinVertexCover,
}

impl Problem {
    /// The stable key prefix used by registry keys (`mds/...`,
    /// `mvc/...`).
    pub fn key_prefix(self) -> &'static str {
        match self {
            Problem::MinDominatingSet => "mds",
            Problem::MinVertexCover => "mvc",
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Problem::MinDominatingSet => write!(f, "MDS"),
            Problem::MinVertexCover => write!(f, "MVC"),
        }
    }
}

/// How a solver executes: the centralized reference, or a LOCAL
/// simulation on the engine a [`RuntimeKind`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Centralized reference implementation (no simulator).
    Centralized,
    /// LOCAL simulation on the engine the kind names.
    Local(RuntimeKind),
}

impl ExecutionMode {
    /// LOCAL simulation with oracle state computation (fast; no message
    /// accounting).
    pub const LOCAL_ORACLE: ExecutionMode = ExecutionMode::Local(RuntimeKind::Oracle);
    /// Faithful synchronous message passing (message bits accounted).
    pub const LOCAL_MESSAGE_PASSING: ExecutionMode =
        ExecutionMode::Local(RuntimeKind::MessagePassing);
    /// The oracle engine under its `sharded-oracle` name: same engine,
    /// same outputs as [`ExecutionMode::LOCAL_ORACLE`] (the oracle
    /// picks its worker count itself).
    pub const LOCAL_SHARDED: ExecutionMode = ExecutionMode::Local(RuntimeKind::ShardedOracle);
    /// The message-passing engine under the scenario's [`FaultConfig`]
    /// (drops, crash-stop vertices, bounded skew), with the fault
    /// report attached to the solution. Same outputs as
    /// [`ExecutionMode::LOCAL_MESSAGE_PASSING`] when the plan is empty.
    pub const LOCAL_FAULTY: ExecutionMode = ExecutionMode::Local(RuntimeKind::Faulty);

    /// All modes, in the order batch sweeps iterate them.
    pub const ALL: [ExecutionMode; 5] = [
        ExecutionMode::Centralized,
        ExecutionMode::LOCAL_ORACLE,
        ExecutionMode::LOCAL_MESSAGE_PASSING,
        ExecutionMode::LOCAL_SHARDED,
        ExecutionMode::LOCAL_FAULTY,
    ];

    /// Whether this mode runs on the LOCAL simulator (and therefore
    /// reports a round count and [`crate::MessageStats`]).
    pub fn is_distributed(self) -> bool {
        matches!(self, ExecutionMode::Local(_))
    }

    /// The engine kind, when distributed.
    pub fn runtime(self) -> Option<RuntimeKind> {
        match self {
            ExecutionMode::Centralized => None,
            ExecutionMode::Local(kind) => Some(kind),
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Centralized => write!(f, "centralized"),
            ExecutionMode::Local(kind) => write!(f, "local-{kind}"),
        }
    }
}

/// The LOCAL scenario knobs: how identifiers are assigned, how many
/// rounds the simulation may take, and which faults it injects. Ignored
/// by centralized runs. Worker counts are not a knob: the engines take
/// them from the automatic [`lmds_graph::par::workers`] policy, and no
/// count changes any output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScenarioConfig {
    /// Identifier-assignment override: `None` uses the instance's own
    /// assignment, `Some(policy)` re-assigns per [`IdPolicy`]
    /// (sequential, seeded-shuffled, or degree-adversarial).
    pub id_policy: Option<IdPolicy>,
    /// Upper bound on simulated rounds; `None` ⟹ a solver-specific
    /// safe default.
    pub round_cap: Option<u32>,
    /// The fault plan for [`ExecutionMode::LOCAL_FAULTY`] runs: seeded
    /// message drops, crash-stop vertices, bounded round-asynchrony.
    /// An inactive (all-zero) plan is the default; an *active* plan on
    /// any other mode is rejected as unsupported options.
    pub fault: FaultConfig,
}

/// The uniform configuration every [`crate::Solver::solve`] call takes.
///
/// Built fluently:
///
/// ```
/// use lmds_api::{ExecutionMode, IdPolicy, SolveConfig};
/// use lmds_core::Radii;
///
/// let cfg = SolveConfig::mds()
///     .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
///     .id_policy(IdPolicy::Adversarial { seed: 7 })
///     .round_cap(64)
///     .radii(Radii::practical(2, 3))
///     .measure_ratio(true);
/// assert!(cfg.measure_ratio);
/// assert_eq!(cfg.scenario.round_cap, Some(64));
/// ```
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Which problem to solve; solvers reject a mismatch.
    pub problem: Problem,
    /// Execution mode; solvers reject unsupported modes.
    pub mode: ExecutionMode,
    /// The LOCAL scenario (id policy, round cap, fault plan).
    pub scenario: ScenarioConfig,
    /// Pipeline radii for the Algorithm 1/2 family (ignored by the
    /// 3-round and folklore solvers). [`SolveConfig::radii`] and
    /// [`SolveConfig::control`] set the same knob — the last call wins
    /// for every pipeline solver.
    pub radii: Radii,
    /// Ablation switches for the Algorithm 1 pipeline.
    pub options: PipelineOptions,
    /// Control function for Algorithm 2 (`None` ⟹ Algorithm 2 uses
    /// the explicit [`SolveConfig::radii`], like Algorithm 1).
    pub control: Option<ControlFunction>,
    /// Whether to measure the approximation ratio against an exact
    /// optimum / certified bound after solving.
    pub measure_ratio: bool,
    /// Branch-and-bound node budget for optimum measurement and for the
    /// exact solvers.
    pub opt_budget: u64,
    /// Which [`ExactBackend`] the `mds/exact` / `mvc/exact` solvers run
    /// (reduction layer + branch and bound, tree-decomposition DP, or
    /// the naive oracle). [`ExactBackend::Auto`] picks per residual
    /// component.
    pub exact_backend: ExactBackend,
}

/// Default branch-and-bound budget (matches the bench harness).
pub const DEFAULT_OPT_BUDGET: u64 = 3_000_000;

impl SolveConfig {
    /// A fresh config for the given problem (centralized, practical
    /// radii `(2, 3)`, paper-default options and scenario, no ratio
    /// measurement).
    pub fn new(problem: Problem) -> Self {
        SolveConfig {
            problem,
            mode: ExecutionMode::Centralized,
            scenario: ScenarioConfig::default(),
            radii: Radii::practical(2, 3),
            options: PipelineOptions::default(),
            control: None,
            measure_ratio: false,
            opt_budget: DEFAULT_OPT_BUDGET,
            exact_backend: ExactBackend::Auto,
        }
    }

    /// Shorthand for [`SolveConfig::new`] with
    /// [`Problem::MinDominatingSet`].
    pub fn mds() -> Self {
        Self::new(Problem::MinDominatingSet)
    }

    /// Shorthand for [`SolveConfig::new`] with
    /// [`Problem::MinVertexCover`].
    pub fn mvc() -> Self {
        Self::new(Problem::MinVertexCover)
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the whole LOCAL scenario.
    pub fn scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.scenario = scenario;
        self
    }

    /// Overrides the identifier assignment for distributed runs.
    pub fn id_policy(mut self, policy: IdPolicy) -> Self {
        self.scenario.id_policy = Some(policy);
        self
    }

    /// Caps the number of simulated rounds.
    pub fn round_cap(mut self, cap: u32) -> Self {
        self.scenario.round_cap = Some(cap);
        self
    }

    /// Sets the fault plan for [`ExecutionMode::LOCAL_FAULTY`] runs.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.scenario.fault = fault;
        self
    }

    /// Sets the pipeline radii explicitly. Clears any control function
    /// so the radii/control knob stays consistent across solvers (last
    /// setter wins).
    pub fn radii(mut self, radii: Radii) -> Self {
        self.radii = radii;
        self.control = None;
        self
    }

    /// Sets the ablation options.
    pub fn options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the Algorithm 2 control function (also derives the radii
    /// from it, as Theorem 4.3 prescribes).
    pub fn control(mut self, f: ControlFunction) -> Self {
        self.radii = Radii::from_control(&f);
        self.control = Some(f);
        self
    }

    /// Enables or disables ratio measurement.
    pub fn measure_ratio(mut self, yes: bool) -> Self {
        self.measure_ratio = yes;
        self
    }

    /// Sets the optimum-measurement budget.
    pub fn opt_budget(mut self, budget: u64) -> Self {
        self.opt_budget = budget;
        self
    }

    /// Selects the exact-engine backend for the exact solvers.
    ///
    /// ```
    /// use lmds_api::{ExactBackend, SolveConfig};
    ///
    /// let cfg = SolveConfig::mds().exact_backend(ExactBackend::Treewidth);
    /// assert_eq!(cfg.exact_backend, ExactBackend::Treewidth);
    /// assert_eq!(SolveConfig::mds().exact_backend, ExactBackend::Auto);
    /// ```
    pub fn exact_backend(mut self, backend: ExactBackend) -> Self {
        self.exact_backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SolveConfig::mvc()
            .mode(ExecutionMode::LOCAL_SHARDED)
            .round_cap(7)
            .opt_budget(10)
            .id_policy(IdPolicy::Sequential);
        assert_eq!(cfg.problem, Problem::MinVertexCover);
        assert_eq!(cfg.mode, ExecutionMode::Local(lmds_localsim::RuntimeKind::ShardedOracle));
        assert_eq!(cfg.scenario.round_cap, Some(7));
        assert_eq!(cfg.scenario.id_policy, Some(IdPolicy::Sequential));
        assert_eq!(cfg.opt_budget, 10);
    }

    #[test]
    fn control_derives_radii() {
        let f = ControlFunction::Affine { a: 1, b: 0, dim: 1 };
        let cfg = SolveConfig::mds().control(f);
        assert_eq!(cfg.radii, Radii::from_control(&f));
    }

    #[test]
    fn radii_and_control_are_one_knob_last_setter_wins() {
        let f = ControlFunction::Affine { a: 1, b: 0, dim: 1 };
        // control then radii: explicit radii win, control is cleared.
        let cfg = SolveConfig::mds().control(f).radii(Radii::practical(2, 3));
        assert_eq!(cfg.control, None);
        assert_eq!(cfg.radii, Radii::practical(2, 3));
        // radii then control: control wins and re-derives the radii.
        let cfg2 = SolveConfig::mds().radii(Radii::practical(2, 3)).control(f);
        assert_eq!(cfg2.control, Some(f));
        assert_eq!(cfg2.radii, Radii::from_control(&f));
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(Problem::MinDominatingSet.to_string(), "MDS");
        assert_eq!(ExecutionMode::Centralized.to_string(), "centralized");
        assert_eq!(ExecutionMode::LOCAL_ORACLE.to_string(), "local-oracle");
        assert_eq!(ExecutionMode::LOCAL_MESSAGE_PASSING.to_string(), "local-message-passing");
        assert_eq!(ExecutionMode::LOCAL_SHARDED.to_string(), "local-sharded-oracle");
        assert_eq!(ExecutionMode::LOCAL_FAULTY.to_string(), "local-faulty");
        assert_eq!(Problem::MinVertexCover.key_prefix(), "mvc");
    }

    #[test]
    fn mode_classification() {
        assert!(!ExecutionMode::Centralized.is_distributed());
        assert_eq!(ExecutionMode::Centralized.runtime(), None);
        for mode in [
            ExecutionMode::LOCAL_ORACLE,
            ExecutionMode::LOCAL_MESSAGE_PASSING,
            ExecutionMode::LOCAL_SHARDED,
            ExecutionMode::LOCAL_FAULTY,
        ] {
            assert!(mode.is_distributed());
            assert!(mode.runtime().is_some());
        }
        assert_eq!(ExecutionMode::ALL.len(), 5);
    }

    #[test]
    fn fault_builder_threads_the_plan_through_the_scenario() {
        use lmds_localsim::DropPolicy;
        let fault = FaultConfig {
            seed: 3,
            drop: DropPolicy::Bernoulli { per_mille: 100 },
            ..FaultConfig::default()
        };
        let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_FAULTY).fault(fault);
        assert_eq!(cfg.scenario.fault, fault);
        assert!(!SolveConfig::mds().scenario.fault.is_active(), "default plan is inert");
    }
}

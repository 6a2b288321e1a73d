//! The [`Solver`] trait and its implementations: every algorithm in the
//! workspace behind one `solve(&Instance, &SolveConfig) -> Solution`
//! contract.

use crate::{
    ExecutionMode, Instance, MessageStats, Optimum, PipelineDiagnostics, Problem, Solution,
    SolveConfig,
};
use lmds_core::distributed::{
    Algorithm1Decider, MvcAlgorithm1Decider, RegularMvcLocal, TakeAllLocal, Theorem44Local,
    Theorem44MvcLocal, TreesFolkloreLocal,
};
use lmds_core::mvc::algorithm1_mvc;
use lmds_core::theorem44::{theorem44_mds, theorem44_mvc};
use lmds_core::{algorithm1_with, baselines, PipelineOptions, Radii};
use lmds_graph::Vertex;
use lmds_localsim::{
    FaultReport, LocalAlgorithm, MessagePassingRuntime, OracleRuntime, RuntimeError, RuntimeKind,
};
use std::time::Instant;

/// Why a solve call failed.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// No solver is registered under the requested key.
    UnknownSolver {
        /// The key that was looked up.
        key: String,
        /// Every key the registry does know, so the error message can
        /// steer the caller to a valid one.
        known: Vec<&'static str>,
    },
    /// The config's problem does not match the solver's.
    UnsupportedProblem {
        /// The solver's key.
        solver: &'static str,
        /// What the config asked for.
        requested: Problem,
    },
    /// The solver cannot run under the requested execution mode.
    UnsupportedMode {
        /// The solver's key.
        solver: &'static str,
        /// What the config asked for.
        requested: ExecutionMode,
    },
    /// The solver cannot honor part of the configuration.
    UnsupportedOptions {
        /// The solver's key.
        solver: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// An exact solver exhausted its search budget.
    BudgetExhausted {
        /// The solver's key.
        solver: &'static str,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The LOCAL simulation failed (round cap, malformed instance).
    /// Fault-injected runs attach the [`FaultReport`] accumulated up to
    /// the failure, so a crash-stalled run still names which vertices
    /// fell silent.
    Runtime(RuntimeError, Option<FaultReport>),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::UnknownSolver { key, known } => {
                write!(f, "no solver registered as {key:?} (known solvers: {})", known.join(", "))
            }
            SolveError::UnsupportedProblem { solver, requested } => {
                write!(f, "solver {solver} does not solve {requested}")
            }
            SolveError::UnsupportedMode { solver, requested } => {
                write!(f, "solver {solver} does not support {requested} execution")
            }
            SolveError::UnsupportedOptions { solver, reason } => {
                write!(f, "solver {solver}: {reason}")
            }
            SolveError::BudgetExhausted { solver, budget } => {
                write!(f, "solver {solver} exhausted its search budget of {budget} nodes")
            }
            SolveError::Runtime(e, fault) => {
                write!(f, "LOCAL runtime error: {e}")?;
                if let Some(r) = fault {
                    write!(
                        f,
                        " (fault run: {} messages dropped, {} crashed, {} silent)",
                        r.messages_dropped,
                        r.crashed.len(),
                        r.silent.len()
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Runtime(e, _) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for SolveError {
    fn from(e: RuntimeError) -> Self {
        SolveError::Runtime(e, None)
    }
}

impl SolveError {
    /// The exceeded round cap, when this error is a
    /// [`RuntimeError::RoundLimitExceeded`] — the retry-with-a-higher-cap
    /// hook for registry callers.
    pub fn round_limit(&self) -> Option<u32> {
        match self {
            SolveError::Runtime(RuntimeError::RoundLimitExceeded { limit, .. }, _) => Some(*limit),
            _ => None,
        }
    }

    /// The fault report a failed fault-injected run accumulated, when
    /// this error came out of a [`RuntimeKind::Faulty`] simulation.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        match self {
            SolveError::Runtime(_, fault) => fault.as_ref(),
            _ => None,
        }
    }
}

/// A uniform algorithm: every MDS/MVC algorithm in the workspace
/// implements this one trait, and all consumers (experiments, the
/// `reproduce` binary, examples, batch sweeps) invoke algorithms only
/// through it.
pub trait Solver: Send + Sync {
    /// Stable registry key, `"<problem>/<algorithm>"`
    /// (e.g. `"mds/algorithm1"`).
    fn key(&self) -> &'static str;

    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// The problem this solver targets.
    fn problem(&self) -> Problem;

    /// Where in the paper (or folklore) the algorithm comes from.
    fn paper_ref(&self) -> &'static str;

    /// The execution modes this solver supports.
    fn modes(&self) -> &'static [ExecutionMode];

    /// Solves `inst` under `cfg`, returning the structured solution.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on problem/mode/config mismatch or simulator
    /// failure; never panics on well-formed instances.
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError>;
}

/// All four modes (shared constant for solvers with full support).
const ALL_MODES: &[ExecutionMode] = &ExecutionMode::ALL;

/// Centralized only (exact solvers).
const CENTRALIZED_ONLY: &[ExecutionMode] = &[ExecutionMode::Centralized];

/// Validates problem + mode, in every solver's preamble.
fn check(
    solver: &'static str,
    problem: Problem,
    modes: &'static [ExecutionMode],
    cfg: &SolveConfig,
) -> Result<(), SolveError> {
    if cfg.problem != problem {
        return Err(SolveError::UnsupportedProblem { solver, requested: cfg.problem });
    }
    if !modes.contains(&cfg.mode) {
        return Err(SolveError::UnsupportedMode { solver, requested: cfg.mode });
    }
    Ok(())
}

/// A generous round cap for the adaptive Algorithm 1 deciders: view
/// margin + residual-component reach + slack.
fn adaptive_round_cap(radii: Radii, n: usize) -> u32 {
    radii.one_cut.max(2 * radii.two_cut) + 5 + n as u32 + 10
}

/// What a distributed run hands back to `finish`: vertices, rounds,
/// the LOCAL execution profile, and the fault report (faulty runtime
/// only).
type LocalRun = (Vec<Vertex>, Option<u32>, Option<MessageStats>, Option<FaultReport>);

/// The grace budget a fault run grants the completeness-gated native
/// state machines: `None` (strict, wait for full evidence) outside
/// fault runs, the plan's standard budget inside them.
fn fault_grace(cfg: &SolveConfig) -> Option<u32> {
    let fault = cfg.scenario.fault;
    fault.is_active().then(|| fault.grace())
}

/// The effective round cap: an explicit [`ScenarioConfig::round_cap`]
/// (even a stalling one — the regression tests rely on small explicit
/// caps tripping), or the solver default widened by the fault plan's
/// grace-and-skew headroom so default fault runs terminate.
fn local_round_cap(cfg: &SolveConfig, default: u32) -> u32 {
    let fault = cfg.scenario.fault;
    cfg.scenario
        .round_cap
        .unwrap_or(default.saturating_add(fault.grace()).saturating_add(fault.skew))
}

/// Runs a boolean [`LocalAlgorithm`] under the config's LOCAL scenario:
/// resolves the engine from the mode, applies the identifier policy
/// (instance ids unless overridden), and converts the result to
/// (vertices, rounds, message stats, fault report).
///
/// The message-passing engine runs the scenario's [`FaultConfig`];
/// crashed-undecided vertices are *silent* — absent from the vertex set
/// and named in the report rather than failing the run. The report is
/// attached under `local-faulty` only, and an active fault plan on any
/// other kind is rejected.
///
/// [`FaultConfig`]: lmds_localsim::FaultConfig
fn run_local<A: LocalAlgorithm<Output = bool>>(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    algo: &A,
    cap: u32,
) -> Result<LocalRun, SolveError> {
    let kind = cfg
        .mode
        .runtime()
        .unwrap_or_else(|| unreachable!("run_local is only called for ExecutionMode::Local"));
    let faulty = kind == RuntimeKind::Faulty;
    if cfg.scenario.fault.is_active() && !faulty {
        return Err(SolveError::UnsupportedOptions {
            solver,
            reason: format!(
                "fault plan \"{}\" requires the local-faulty mode, not local-{kind}",
                cfg.scenario.fault
            ),
        });
    }
    let scenario_ids;
    let ids = match cfg.scenario.id_policy {
        Some(policy) => {
            scenario_ids = policy.assign(&inst.graph);
            &scenario_ids
        }
        None => &inst.ids,
    };
    if !kind.measures_messages() {
        let res = OracleRuntime.run(&inst.graph, ids, algo, cap)?;
        let vertices = res.outputs.iter().enumerate().filter_map(|(v, &b)| b.then_some(v));
        let stats = MessageStats { accounting: res.messages, decided_at: res.decided_histogram() };
        return Ok((vertices.collect(), Some(res.rounds), Some(stats), None));
    }
    let run = MessagePassingRuntime { fault: cfg.scenario.fault }
        .run_with_report(&inst.graph, ids, algo, cap)
        .map_err(|(e, report)| SolveError::Runtime(e, faulty.then_some(report)))?;
    let vertices =
        run.outputs.iter().enumerate().filter_map(|(v, o)| (*o == Some(true)).then_some(v));
    let stats = MessageStats { accounting: run.messages, decided_at: run.decided_histogram() };
    Ok((vertices.collect(), Some(run.rounds), Some(stats), faulty.then_some(run.report)))
}

/// Attaches a measured optimum when the config asks for one and ground
/// truth did not already provide it.
fn measure_optimum(inst: &Instance, cfg: &SolveConfig, sol: &mut Solution) {
    if !cfg.measure_ratio || sol.optimum.is_some() {
        return;
    }
    let rep = match sol.problem {
        Problem::MinDominatingSet => {
            lmds_core::analysis::mds_report(&inst.graph, sol.size(), cfg.opt_budget)
        }
        Problem::MinVertexCover => {
            lmds_core::analysis::vc_report(&inst.graph, sol.size(), cfg.opt_budget)
        }
    };
    sol.optimum = Some(Optimum {
        value: rep.opt,
        exact: rep.kind == lmds_core::analysis::OptimumKind::Exact,
    });
}

/// Shared tail of every solve: assemble, measure, stamp wall time.
#[allow(clippy::too_many_arguments)]
fn finish(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    started: Instant,
    vertices: Vec<Vertex>,
    rounds: Option<u32>,
    messages: Option<MessageStats>,
    diagnostics: Option<PipelineDiagnostics>,
) -> Solution {
    let mut sol = Solution::assemble(
        solver,
        inst,
        cfg.problem,
        cfg.mode,
        vertices,
        rounds,
        messages,
        started.elapsed(),
    );
    sol.diagnostics = diagnostics;
    measure_optimum(inst, cfg, &mut sol);
    sol
}

/// [`finish`] for distributed runs: unpacks a [`LocalRun`] and attaches
/// the fault report next to the message stats.
fn finish_local(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    started: Instant,
    run: LocalRun,
) -> Solution {
    let (vertices, rounds, messages, fault) = run;
    let mut sol = finish(solver, inst, cfg, started, vertices, rounds, messages, None);
    sol.fault = fault;
    sol
}

/// [`finish`] for the exact solvers: the result *is* the optimum, so
/// attach it directly instead of re-running the search under
/// `measure_ratio`.
fn finish_exact(
    solver: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    started: Instant,
    vertices: Vec<Vertex>,
) -> Solution {
    let mut sol = Solution::assemble(
        solver,
        inst,
        cfg.problem,
        cfg.mode,
        vertices,
        None,
        None,
        started.elapsed(),
    );
    sol.optimum = Some(Optimum { value: sol.size(), exact: true });
    sol
}

// ---------------------------------------------------------------------
// MDS solvers
// ---------------------------------------------------------------------

/// The shared solve body of the Algorithm 1/2 pipeline family:
/// centralized run with diagnostics, or the adaptive LOCAL decider at
/// the given radii.
fn solve_pipeline(
    key: &'static str,
    inst: &Instance,
    cfg: &SolveConfig,
    radii: Radii,
) -> Result<Solution, SolveError> {
    let started = Instant::now();
    if cfg.mode == ExecutionMode::Centralized {
        let out = algorithm1_with(&inst.graph, &inst.ids, radii, cfg.options);
        let diagnostics = PipelineDiagnostics {
            kept: out.kept,
            x_set: out.x_set,
            i_set: out.i_set,
            u_set: out.u_set,
            brute_selected: out.brute_selected,
            residual_components: out.residual_components,
        };
        return Ok(finish(key, inst, cfg, started, out.solution, None, None, Some(diagnostics)));
    }
    if cfg.options != PipelineOptions::default() {
        return Err(SolveError::UnsupportedOptions {
            solver: key,
            reason: "ablation options are centralized-only (the LOCAL decider runs the \
                     paper-default pipeline)"
                .into(),
        });
    }
    let cap = local_round_cap(cfg, adaptive_round_cap(radii, inst.n()));
    let decider = Algorithm1Decider { radii };
    let run = run_local(key, inst, cfg, &decider, cap)?;
    Ok(finish_local(key, inst, cfg, started, run))
}

/// Algorithm 1 / Theorem 4.1: the `O_t(1)`-round constant-approximation
/// pipeline (twin reduction → local 1-cuts → interesting 2-cuts → exact
/// brute force on bounded residuals).
pub struct Algorithm1Solver;

impl Solver for Algorithm1Solver {
    fn key(&self) -> &'static str {
        "mds/algorithm1"
    }
    fn name(&self) -> &'static str {
        "Algorithm 1 pipeline"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "Theorem 4.1"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        solve_pipeline(self.key(), inst, cfg, cfg.radii)
    }
}

/// Algorithm 2 / Theorem 4.3: the same pipeline with radii derived from
/// an asymptotic-dimension control function ([`SolveConfig::control`]).
/// Without a control function it degenerates to Algorithm 1's explicit
/// radii, as the builder's last-setter-wins semantics prescribe.
pub struct Algorithm2Solver;

impl Solver for Algorithm2Solver {
    fn key(&self) -> &'static str {
        "mds/algorithm2"
    }
    fn name(&self) -> &'static str {
        "Algorithm 2 (control-function pipeline)"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "Theorem 4.3"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let radii = cfg.control.map_or(cfg.radii, |f| Radii::from_control(&f));
        solve_pipeline(self.key(), inst, cfg, radii)
    }
}

/// Theorem 4.4: the 3-round `(2t−1)`-approximation (`D₂` of the
/// twin-free quotient).
pub struct Theorem44MdsSolver;

impl Solver for Theorem44MdsSolver {
    fn key(&self) -> &'static str {
        "mds/theorem44"
    }
    fn name(&self) -> &'static str {
        "Theorem 4.4 (3-round D₂)"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "Theorem 4.4"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let sol = theorem44_mds(&inst.graph, &inst.ids);
            return Ok(finish(self.key(), inst, cfg, started, sol, None, None, None));
        }
        let cap = local_round_cap(cfg, 10);
        let algo = Theorem44Local { grace: fault_grace(cfg) };
        let run = run_local(self.key(), inst, cfg, &algo, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// Table 1 trees row: the folklore 2-round 3-approximation (degree ≥ 2
/// plus small-component rules).
pub struct TreesFolkloreSolver;

impl Solver for TreesFolkloreSolver {
    fn key(&self) -> &'static str {
        "mds/trees-folklore"
    }
    fn name(&self) -> &'static str {
        "trees folklore (degree ≥ 2)"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1 (trees row, folklore)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let sol = baselines::trees_folklore(&inst.graph, &inst.ids);
            return Ok(finish(self.key(), inst, cfg, started, sol, None, None, None));
        }
        let cap = local_round_cap(cfg, 10);
        let algo = TreesFolkloreLocal { grace: fault_grace(cfg) };
        let run = run_local(self.key(), inst, cfg, &algo, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// Table 1 `K_{1,t}` row: every vertex joins at round 0
/// (`Δ ≤ t−1 ⟹ n ≤ t·MDS`).
pub struct TakeAllSolver;

impl Solver for TakeAllSolver {
    fn key(&self) -> &'static str {
        "mds/take-all"
    }
    fn name(&self) -> &'static str {
        "take all (0 rounds)"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1 (K_{1,t} row, folklore)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let sol = baselines::take_all(&inst.graph);
            return Ok(finish(self.key(), inst, cfg, started, sol, None, None, None));
        }
        let cap = local_round_cap(cfg, 5);
        let run = run_local(self.key(), inst, cfg, &TakeAllLocal, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// Converts an exact-engine failure into the solver-level error.
fn map_exact_error(
    solver: &'static str,
    cfg: &SolveConfig,
    e: lmds_graph::exact::ExactError,
) -> SolveError {
    match e {
        lmds_graph::exact::ExactError::BudgetExhausted { .. } => {
            SolveError::BudgetExhausted { solver, budget: cfg.opt_budget }
        }
        lmds_graph::exact::ExactError::Infeasible => SolveError::UnsupportedOptions {
            solver,
            reason: "whole-graph exact instances are always feasible".into(),
        },
    }
}

/// Exact MDS through the multi-backend
/// [`ExactEngine`](lmds_graph::exact::ExactEngine): reduction rules,
/// then branch and bound or the tree-decomposition DP per residual
/// component — selected by [`SolveConfig::exact_backend`]
/// (budget-capped).
pub struct ExactMdsSolver;

impl Solver for ExactMdsSolver {
    fn key(&self) -> &'static str {
        "mds/exact"
    }
    fn name(&self) -> &'static str {
        "exact MDS (reduce + branch & bound / treewidth DP)"
    }
    fn problem(&self) -> Problem {
        Problem::MinDominatingSet
    }
    fn paper_ref(&self) -> &'static str {
        "baseline (exact)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        CENTRALIZED_ONLY
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        let sol = lmds_graph::exact::with_thread_engine(|e| {
            e.solve_mds(&inst.graph, cfg.exact_backend, cfg.opt_budget)
        })
        .map_err(|e| map_exact_error(self.key(), cfg, e))?;
        Ok(finish_exact(self.key(), inst, cfg, started, sol))
    }
}

// ---------------------------------------------------------------------
// MVC solvers
// ---------------------------------------------------------------------

/// Theorem 4.4's MVC variant: degree ≥ 2 plus smaller-id endpoints of
/// isolated edges (`t`-approximation).
pub struct Theorem44MvcSolver;

impl Solver for Theorem44MvcSolver {
    fn key(&self) -> &'static str {
        "mvc/theorem44"
    }
    fn name(&self) -> &'static str {
        "Theorem 4.4 MVC variant"
    }
    fn problem(&self) -> Problem {
        Problem::MinVertexCover
    }
    fn paper_ref(&self) -> &'static str {
        "Theorem 4.4 (MVC extension)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let sol = theorem44_mvc(&inst.graph, &inst.ids);
            return Ok(finish(self.key(), inst, cfg, started, sol, None, None, None));
        }
        let cap = local_round_cap(cfg, 10);
        let algo = Theorem44MvcLocal { grace: fault_grace(cfg) };
        let run = run_local(self.key(), inst, cfg, &algo, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// The MVC variant of Algorithm 1 (§4 closing remark): take *all*
/// local-2-cut vertices, then exact vertex cover per residual component
/// of uncovered edges.
pub struct Algorithm1MvcSolver;

impl Solver for Algorithm1MvcSolver {
    fn key(&self) -> &'static str {
        "mvc/algorithm1"
    }
    fn name(&self) -> &'static str {
        "Algorithm 1 MVC variant (take-all 2-cuts)"
    }
    fn problem(&self) -> Problem {
        Problem::MinVertexCover
    }
    fn paper_ref(&self) -> &'static str {
        "§4 closing remark"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let out = algorithm1_mvc(&inst.graph, &inst.ids, cfg.radii);
            let diagnostics = PipelineDiagnostics {
                kept: inst.graph.vertices().collect(),
                x_set: out.x_set,
                i_set: out.two_cut_set,
                u_set: Vec::new(),
                brute_selected: Vec::new(),
                residual_components: out.residual_components,
            };
            return Ok(finish(
                self.key(),
                inst,
                cfg,
                started,
                out.solution,
                None,
                None,
                Some(diagnostics),
            ));
        }
        let cap = local_round_cap(cfg, adaptive_round_cap(cfg.radii, inst.n()));
        let decider = MvcAlgorithm1Decider { radii: cfg.radii };
        let run = run_local(self.key(), inst, cfg, &decider, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// Folklore 2-approximation for MVC on regular graphs: every
/// non-isolated vertex joins (1 round).
pub struct RegularMvcSolver;

impl Solver for RegularMvcSolver {
    fn key(&self) -> &'static str {
        "mvc/regular-take-all"
    }
    fn name(&self) -> &'static str {
        "regular-graph take-all MVC"
    }
    fn problem(&self) -> Problem {
        Problem::MinVertexCover
    }
    fn paper_ref(&self) -> &'static str {
        "§1 (folklore)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        ALL_MODES
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        if cfg.mode == ExecutionMode::Centralized {
            let sol = baselines::regular_mvc_take_all(&inst.graph);
            return Ok(finish(self.key(), inst, cfg, started, sol, None, None, None));
        }
        let cap = local_round_cap(cfg, 5);
        let run = run_local(self.key(), inst, cfg, &RegularMvcLocal, cap)?;
        Ok(finish_local(self.key(), inst, cfg, started, run))
    }
}

/// Exact MVC through the multi-backend
/// [`ExactEngine`](lmds_graph::exact::ExactEngine) (reduction rules +
/// branch and bound / treewidth DP, selected by
/// [`SolveConfig::exact_backend`]; budget-capped).
pub struct ExactMvcSolver;

impl Solver for ExactMvcSolver {
    fn key(&self) -> &'static str {
        "mvc/exact"
    }
    fn name(&self) -> &'static str {
        "exact MVC (reduce + branch & bound / treewidth DP)"
    }
    fn problem(&self) -> Problem {
        Problem::MinVertexCover
    }
    fn paper_ref(&self) -> &'static str {
        "baseline (exact)"
    }
    fn modes(&self) -> &'static [ExecutionMode] {
        CENTRALIZED_ONLY
    }
    fn solve(&self, inst: &Instance, cfg: &SolveConfig) -> Result<Solution, SolveError> {
        check(self.key(), self.problem(), self.modes(), cfg)?;
        let started = Instant::now();
        let sol = lmds_graph::exact::with_thread_engine(|e| {
            e.solve_mvc(&inst.graph, cfg.exact_backend, cfg.opt_budget)
        })
        .map_err(|e| map_exact_error(self.key(), cfg, e))?;
        Ok(finish_exact(self.key(), inst, cfg, started, sol))
    }
}

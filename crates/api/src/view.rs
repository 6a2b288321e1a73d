//! Serializable wire views of the API types.
//!
//! Service frontends (the `lmds-serve` daemon, report emitters) need a
//! flat, string-keyed picture of [`SolveConfig`] and [`Solution`] that
//! survives a trip through JSON or CSV without dragging a serializer
//! into this crate. The views here are plain data:
//!
//! * [`SolveConfigView`] — every externally-settable config knob as
//!   strings/numbers/options, with [`SolveConfigView::try_into_config`]
//!   validating and materializing a real [`SolveConfig`] (typed
//!   [`ViewError`]s name the offending field),
//! * [`SolutionView`] — the transport summary of a [`Solution`]
//!   (vertices, validity, rounds, message bits, wall time, ratio),
//! * `FromStr` implementations for [`Problem`] and [`ExecutionMode`]
//!   that invert their `Display` forms, so the wire vocabulary and the
//!   report vocabulary are the same strings.

use crate::{ExecutionMode, Problem, Solution, SolveConfig};
use lmds_core::Radii;
use lmds_graph::ExactBackend;
use lmds_localsim::{IdPolicy, RuntimeKind};
use std::str::FromStr;

/// Why a view could not be turned into a real config: a field name and
/// a human-readable reason (the serve layer maps this to a 4xx
/// envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewError {
    /// The view field that was rejected.
    pub field: &'static str,
    /// What was wrong with it.
    pub reason: String,
}

impl ViewError {
    fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ViewError { field, reason: reason.into() }
    }
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ViewError {}

impl FromStr for Problem {
    type Err = String;

    /// Inverts [`Problem::key_prefix`] (`"mds"` / `"mvc"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mds" => Ok(Problem::MinDominatingSet),
            "mvc" => Ok(Problem::MinVertexCover),
            other => Err(format!("unknown problem {other:?} (expected \"mds\" or \"mvc\")")),
        }
    }
}

impl FromStr for ExecutionMode {
    type Err = String;

    /// Inverts the `Display` form (`"centralized"`, `"local-oracle"`,
    /// `"local-message-passing"`, `"local-sharded-oracle"`,
    /// `"local-faulty"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "centralized" => Ok(ExecutionMode::Centralized),
            "local-oracle" => Ok(ExecutionMode::Local(RuntimeKind::Oracle)),
            "local-message-passing" => Ok(ExecutionMode::Local(RuntimeKind::MessagePassing)),
            "local-sharded-oracle" => Ok(ExecutionMode::Local(RuntimeKind::ShardedOracle)),
            "local-faulty" => Ok(ExecutionMode::Local(RuntimeKind::Faulty)),
            other => Err(format!(
                "unknown execution mode {other:?} (expected one of: {})",
                ExecutionMode::ALL.map(|m| m.to_string()).join(", ")
            )),
        }
    }
}

/// A flat, transport-friendly picture of [`SolveConfig`].
///
/// Every field is optional-with-default so a client can send only what
/// it wants to override; [`SolveConfigView::try_into_config`] validates
/// the whole view at once. The string vocabularies are exactly the
/// `Display` forms of the typed knobs.
///
/// ```
/// use lmds_api::{ExecutionMode, Problem, SolveConfigView};
///
/// let view = SolveConfigView {
///     mode: Some("local-oracle".into()),
///     round_cap: Some(64),
///     ..SolveConfigView::default()
/// };
/// let cfg = view.try_into_config(Problem::MinDominatingSet).unwrap();
/// assert_eq!(cfg.mode, ExecutionMode::LOCAL_ORACLE);
/// assert_eq!(cfg.scenario.round_cap, Some(64));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveConfigView {
    /// Problem key prefix (`"mds"` / `"mvc"`); `None` ⟹ the caller's
    /// default (a service infers it from the solver key).
    pub problem: Option<String>,
    /// Execution mode in `Display` form; `None` ⟹ centralized.
    pub mode: Option<String>,
    /// Identifier policy (`"sequential"`, `"shuffled"`,
    /// `"adversarial"`); `None` ⟹ the instance's own assignment.
    pub id_policy: Option<String>,
    /// Seed for the shuffled/adversarial policies.
    pub id_seed: Option<u64>,
    /// LOCAL round cap.
    pub round_cap: Option<u32>,
    /// Pipeline radii `(one_cut, two_cut)`.
    pub radii: Option<(u32, u32)>,
    /// Exact-engine backend in `Display` form (`"auto"`,
    /// `"branch-and-bound"`, `"treewidth"`, `"naive"`).
    pub exact_backend: Option<String>,
    /// Branch-and-bound node budget.
    pub opt_budget: Option<u64>,
    /// Whether to measure the approximation ratio.
    pub measure_ratio: bool,
    /// Fault plan for `"local-faulty"` runs, in the
    /// [`FaultConfig`](lmds_localsim::FaultConfig) `Display` grammar
    /// (e.g. `"seed=7;drop=bernoulli:150;skew=1"`). `None` ⟹ no
    /// faults; inert plans canonicalize to `None` on echo.
    pub fault: Option<String>,
}

impl SolveConfigView {
    /// Captures the externally-settable knobs of an existing config
    /// (the inverse of [`SolveConfigView::try_into_config`], for
    /// echoing a job's effective configuration back to a client).
    pub fn from_config(cfg: &SolveConfig) -> Self {
        let (id_policy, id_seed) = match cfg.scenario.id_policy {
            None => (None, None),
            Some(IdPolicy::Sequential) => (Some("sequential".to_string()), None),
            Some(IdPolicy::Shuffled { seed }) => (Some("shuffled".to_string()), Some(seed)),
            Some(IdPolicy::Adversarial { seed }) => (Some("adversarial".to_string()), Some(seed)),
        };
        SolveConfigView {
            problem: Some(cfg.problem.key_prefix().to_string()),
            mode: Some(cfg.mode.to_string()),
            id_policy,
            id_seed,
            round_cap: cfg.scenario.round_cap,
            radii: Some((cfg.radii.one_cut, cfg.radii.two_cut)),
            exact_backend: Some(cfg.exact_backend.to_string()),
            opt_budget: Some(cfg.opt_budget),
            measure_ratio: cfg.measure_ratio,
            fault: cfg.scenario.fault.is_active().then(|| cfg.scenario.fault.to_string()),
        }
    }

    /// Validates the view and materializes a [`SolveConfig`].
    /// `default_problem` fills an absent [`SolveConfigView::problem`]
    /// (services derive it from the solver key's prefix).
    ///
    /// # Errors
    ///
    /// A [`ViewError`] naming the first offending field.
    pub fn try_into_config(&self, default_problem: Problem) -> Result<SolveConfig, ViewError> {
        let problem = match &self.problem {
            None => default_problem,
            Some(s) => s.parse().map_err(|e: String| ViewError::new("problem", e))?,
        };
        let mut cfg = SolveConfig::new(problem);
        if let Some(mode) = &self.mode {
            cfg.mode = mode.parse().map_err(|e: String| ViewError::new("mode", e))?;
        }
        if let Some(policy) = &self.id_policy {
            let seed = self.id_seed.unwrap_or(0);
            cfg.scenario.id_policy = Some(match policy.as_str() {
                "sequential" => IdPolicy::Sequential,
                "shuffled" => IdPolicy::Shuffled { seed },
                "adversarial" => IdPolicy::Adversarial { seed },
                other => {
                    return Err(ViewError::new(
                        "id_policy",
                        format!(
                            "unknown policy {other:?} (expected \"sequential\", \"shuffled\", or \
                             \"adversarial\")"
                        ),
                    ))
                }
            });
        } else if self.id_seed.is_some() {
            return Err(ViewError::new("id_seed", "id_seed given without an id_policy"));
        }
        cfg.scenario.round_cap = self.round_cap;
        if let Some((one_cut, two_cut)) = self.radii {
            if one_cut < 1 || two_cut < 2 {
                return Err(ViewError::new(
                    "radii",
                    format!(
                        "radii ({one_cut}, {two_cut}) out of range (need one_cut ≥ 1, two_cut ≥ 2)"
                    ),
                ));
            }
            cfg.radii = Radii::practical(one_cut, two_cut);
        }
        if let Some(backend) = &self.exact_backend {
            cfg.exact_backend =
                ExactBackend::from_str(backend).map_err(|e| ViewError::new("exact_backend", e))?;
        }
        if let Some(budget) = self.opt_budget {
            cfg.opt_budget = budget;
        }
        cfg.measure_ratio = self.measure_ratio;
        if let Some(fault) = &self.fault {
            cfg.scenario.fault = fault
                .parse::<lmds_localsim::FaultConfig>()
                .map_err(|e| ViewError::new("fault", e.to_string()))?;
        }
        Ok(cfg)
    }
}

/// The transport summary of a [`Solution`]: everything a service
/// client needs, in flat owned fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionView {
    /// Registry key of the producing solver.
    pub solver: String,
    /// Problem key prefix (`"mds"` / `"mvc"`).
    pub problem: String,
    /// Execution mode in `Display` form.
    pub mode: String,
    /// `|S|`.
    pub size: usize,
    /// The selected vertex set (canonical: sorted, deduplicated).
    pub vertices: Vec<usize>,
    /// Whether the validity certificate checked out.
    pub valid: bool,
    /// Round complexity, for distributed runs.
    pub rounds: Option<u32>,
    /// Total message bits, when the runtime measured them.
    pub total_message_bits: Option<u64>,
    /// Largest single message in bits, when measured.
    pub max_message_bits: Option<u64>,
    /// Wall-clock solve time in microseconds.
    pub wall_micros: u64,
    /// Measured approximation ratio, when an optimum was attached.
    pub ratio: Option<f64>,
    /// The optimum it was measured against: `(value, exact)`.
    pub optimum: Option<(usize, bool)>,
    /// Messages dropped by the fault plan (faulty runs only).
    pub fault_messages_dropped: Option<u64>,
    /// Vertices the fault plan crashed (faulty runs only).
    pub fault_crashed: Option<Vec<usize>>,
    /// Crashed vertices that never decided (faulty runs only).
    pub fault_silent: Option<Vec<usize>>,
    /// Maximum delivery staleness observed, in rounds (faulty runs
    /// only).
    pub fault_max_staleness: Option<u32>,
}

impl From<&Solution> for SolutionView {
    fn from(sol: &Solution) -> Self {
        SolutionView {
            solver: sol.solver.clone(),
            problem: sol.problem.key_prefix().to_string(),
            mode: sol.mode.to_string(),
            size: sol.size(),
            vertices: sol.vertices.clone(),
            valid: sol.is_valid(),
            rounds: sol.rounds,
            total_message_bits: sol.messages.as_ref().and_then(|m| m.total_message_bits()),
            max_message_bits: sol.messages.as_ref().and_then(|m| m.max_message_bits()),
            wall_micros: sol.wall.as_micros().min(u64::MAX as u128) as u64,
            ratio: sol.ratio(),
            optimum: sol.optimum.map(|o| (o.value, o.exact)),
            fault_messages_dropped: sol.fault.as_ref().map(|r| r.messages_dropped),
            fault_crashed: sol.fault.as_ref().map(|r| r.crashed.clone()),
            fault_silent: sol.fault.as_ref().map(|r| r.silent.clone()),
            fault_max_staleness: sol.fault.as_ref().map(|r| r.max_staleness),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    #[test]
    fn problem_and_mode_round_trip_their_display_forms() {
        for p in [Problem::MinDominatingSet, Problem::MinVertexCover] {
            assert_eq!(p.key_prefix().parse::<Problem>().unwrap(), p);
        }
        for m in ExecutionMode::ALL {
            assert_eq!(m.to_string().parse::<ExecutionMode>().unwrap(), m);
        }
        assert!("MDS".parse::<Problem>().is_err(), "display form is not the wire form");
        assert!("oracle".parse::<ExecutionMode>().is_err());
    }

    #[test]
    fn empty_view_yields_defaults() {
        let cfg = SolveConfigView::default().try_into_config(Problem::MinVertexCover).unwrap();
        assert_eq!(cfg.problem, Problem::MinVertexCover);
        assert_eq!(cfg.mode, ExecutionMode::Centralized);
        assert_eq!(cfg.scenario.id_policy, None);
        assert!(!cfg.measure_ratio);
    }

    #[test]
    fn full_view_round_trips_through_config() {
        let view = SolveConfigView {
            problem: Some("mds".into()),
            mode: Some("local-sharded-oracle".into()),
            id_policy: Some("adversarial".into()),
            id_seed: Some(9),
            round_cap: Some(32),
            radii: Some((3, 4)),
            exact_backend: Some("treewidth".into()),
            opt_budget: Some(1234),
            measure_ratio: true,
            fault: Some("seed=9;drop=bernoulli:150;skew=1".into()),
        };
        let cfg = view.try_into_config(Problem::MinVertexCover).unwrap();
        assert_eq!(cfg.problem, Problem::MinDominatingSet, "explicit problem beats the default");
        assert_eq!(cfg.mode, ExecutionMode::LOCAL_SHARDED);
        assert_eq!(cfg.scenario.id_policy, Some(IdPolicy::Adversarial { seed: 9 }));
        assert_eq!(cfg.radii, Radii::practical(3, 4));
        assert_eq!(cfg.exact_backend, ExactBackend::Treewidth);
        assert!(cfg.scenario.fault.is_active());
        assert_eq!(SolveConfigView::from_config(&cfg), view, "from_config inverts the view");
    }

    #[test]
    fn inert_fault_plans_canonicalize_to_absent_on_echo() {
        // A seed alone injects nothing, so it must not perturb the wire
        // form (or any fingerprint derived from it).
        let view = SolveConfigView { fault: Some("seed=42".into()), ..SolveConfigView::default() };
        let cfg = view.try_into_config(Problem::MinDominatingSet).unwrap();
        assert!(!cfg.scenario.fault.is_active());
        assert_eq!(SolveConfigView::from_config(&cfg).fault, None);
    }

    #[test]
    fn view_errors_name_the_field() {
        let bad = |v: SolveConfigView| v.try_into_config(Problem::MinDominatingSet).unwrap_err();
        assert_eq!(
            bad(SolveConfigView { mode: Some("warp".into()), ..Default::default() }).field,
            "mode"
        );
        assert_eq!(
            bad(SolveConfigView { problem: Some("sat".into()), ..Default::default() }).field,
            "problem"
        );
        assert_eq!(
            bad(SolveConfigView { id_policy: Some("chaotic".into()), ..Default::default() }).field,
            "id_policy"
        );
        assert_eq!(
            bad(SolveConfigView { id_seed: Some(1), ..Default::default() }).field,
            "id_seed"
        );
        let e = bad(SolveConfigView { radii: Some((0, 1)), ..Default::default() });
        assert_eq!(e.field, "radii");
        assert!(e.to_string().contains("radii"), "{e}");
        assert_eq!(
            bad(SolveConfigView { exact_backend: Some("oracle".into()), ..Default::default() })
                .field,
            "exact_backend"
        );
        assert_eq!(
            bad(SolveConfigView { fault: Some("drop=always".into()), ..Default::default() }).field,
            "fault"
        );
    }

    #[test]
    fn solution_view_captures_the_summary() {
        let registry = crate::SolverRegistry::with_defaults();
        let inst = Instance::sequential("p8", lmds_gen::basic::path(8)).with_mds_optimum(3);
        let cfg = SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING);
        let sol = registry.solve("mds/theorem44", &inst, &cfg).unwrap();
        let view = SolutionView::from(&sol);
        assert_eq!(view.solver, "mds/theorem44");
        assert_eq!(view.problem, "mds");
        assert_eq!(view.mode, "local-message-passing");
        assert_eq!(view.size, sol.size());
        assert_eq!(view.vertices, sol.vertices);
        assert!(view.valid);
        assert_eq!(view.rounds, Some(3));
        assert!(view.total_message_bits.is_some(), "message passing measures bits");
        assert_eq!(view.optimum, Some((3, true)));
        assert!(view.ratio.unwrap() >= 1.0);
    }
}

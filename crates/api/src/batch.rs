//! The batch engine: fan a set of solvers across many instances on a
//! thread pool, deterministically.

use crate::{Instance, Solution, SolveConfig, SolveError, SolverRegistry};
use lmds_graph::par;

/// One unit of batch work: solver key + config, applied to one instance
/// of the batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Registry key of the solver to run.
    pub solver: String,
    /// The configuration to run it under.
    pub config: SolveConfig,
}

impl BatchJob {
    /// A job for `solver` under `config`.
    pub fn new(solver: impl Into<String>, config: SolveConfig) -> Self {
        BatchJob { solver: solver.into(), config }
    }
}

/// The outcome of one (job × instance) cell.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Name of the instance.
    pub instance: String,
    /// Solver key.
    pub solver: String,
    /// The solve outcome.
    pub result: Result<Solution, SolveError>,
}

/// Fans (job × instance) cells across worker threads, as many as the
/// [`par::workers`] policy grants (the machine's parallelism, capped at
/// 8; a cell is a whole solve, so a single one clears the grain).
/// Output order is deterministic — `records[j * instances.len() + i]`
/// is job `j` on instance `i` — regardless of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchRunner;

impl BatchRunner {
    /// A runner sized to the machine by the [`par::workers`] policy.
    pub fn new() -> Self {
        BatchRunner
    }

    /// Runs every job against every instance. Errors are per-record
    /// (an unknown key or unsupported mode fails that cell only).
    ///
    /// Each worker thread owns a pooled `lmds_graph::Scratch` (the
    /// thread-local pool behind every ball/component/domination query),
    /// pre-sized here to the largest instance of the batch — so the
    /// solver loop reuses one set of traversal buffers per worker
    /// instead of allocating per call. Distributed jobs share the same
    /// pools: the oracle's per-vertex ball queries run on the worker's
    /// warmed scratch, or, when the oracle spreads a large instance
    /// over workers of its own, on theirs, warmed once per solve.
    pub fn run(
        &self,
        registry: &SolverRegistry,
        jobs: &[BatchJob],
        instances: &[Instance],
    ) -> Vec<BatchRecord> {
        let max_n = instances.iter().map(Instance::n).max().unwrap_or(0);
        let cells = jobs.len() * instances.len();
        par::drain(
            cells,
            par::workers(cells, 1),
            || lmds_graph::scratch::with_thread_scratch(|s| s.reserve(max_n)),
            |_, cell| {
                let (job, inst) =
                    (&jobs[cell / instances.len()], &instances[cell % instances.len()]);
                let result = registry.solve(&job.solver, inst, &job.config);
                // Every batch solution passes the full certificate
                // recheck in debug builds.
                #[cfg(debug_assertions)]
                if let Ok(sol) = &result {
                    if let Err(e) = sol.verify(inst) {
                        panic!(
                            "batch solution {}/{} failed verification: {e}",
                            job.solver, inst.name
                        );
                    }
                }
                BatchRecord { instance: inst.name.clone(), solver: job.solver.clone(), result }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionMode, Problem};

    fn corpus() -> Vec<Instance> {
        vec![
            Instance::shuffled("path12", lmds_gen::basic::path(12), 1),
            Instance::shuffled("cycle9", lmds_gen::basic::cycle(9), 2),
            Instance::shuffled("tree14", lmds_gen::trees::random_tree(14, 3), 3),
        ]
    }

    #[test]
    fn cross_product_order_is_deterministic() {
        let registry = SolverRegistry::with_defaults();
        let jobs = vec![
            BatchJob::new("mds/theorem44", SolveConfig::mds()),
            BatchJob::new(
                "mds/trees-folklore",
                SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE),
            ),
        ];
        let instances = corpus();
        let a = par::with_workers(4, || BatchRunner::new().run(&registry, &jobs, &instances));
        let b = par::with_workers(1, || BatchRunner::new().run(&registry, &jobs, &instances));
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.instance, y.instance);
            assert_eq!(x.solver, y.solver);
            let (sx, sy) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
            assert_eq!(sx.vertices, sy.vertices, "thread count must not change results");
        }
        // Row-major: job 0 covers the instances first.
        assert_eq!(a[0].solver, "mds/theorem44");
        assert_eq!(a[0].instance, "path12");
        assert_eq!(a[3].solver, "mds/trees-folklore");
    }

    #[test]
    fn per_cell_errors_do_not_poison_the_batch() {
        let registry = SolverRegistry::with_defaults();
        let jobs = vec![
            BatchJob::new("mds/unknown", SolveConfig::mds()),
            BatchJob::new("mds/theorem44", SolveConfig::mds()),
        ];
        let instances = corpus();
        let records = BatchRunner::new().run(&registry, &jobs, &instances);
        assert_eq!(records.len(), 6);
        assert!(records[..3].iter().all(|r| r.result.is_err()));
        assert!(records[3..].iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn batch_solutions_are_valid_across_modes() {
        let registry = SolverRegistry::with_defaults();
        let mut jobs = Vec::new();
        for mode in
            [ExecutionMode::Centralized, ExecutionMode::LOCAL_ORACLE, ExecutionMode::LOCAL_SHARDED]
        {
            jobs.push(BatchJob::new("mds/algorithm1", SolveConfig::mds().mode(mode)));
            jobs.push(BatchJob::new("mvc/theorem44", SolveConfig::mvc().mode(mode)));
        }
        let instances = corpus();
        for rec in BatchRunner::new().run(&registry, &jobs, &instances) {
            let sol = rec.result.unwrap_or_else(|e| panic!("{}/{}: {e}", rec.solver, rec.instance));
            assert!(sol.is_valid(), "{}/{}", rec.solver, rec.instance);
            assert_eq!(
                sol.problem,
                if rec.solver.starts_with("mds") {
                    Problem::MinDominatingSet
                } else {
                    Problem::MinVertexCover
                }
            );
        }
    }
}

//! `central-scale`: `mds/algorithm1`, centralized, radii (2,3), on one
//! `scale_instance` of [`N`] vertices. The interesting-2-cut sweep does
//! most of the work here.

use crate::pipeline::{pipeline_layers, timed_solve, traced_algorithm1, wire_timings};
use crate::report::{coverage, median, metric, Tally};
use crate::trace::{RunTotals, Tracer};
use crate::{Measured, Outcome, RunConfig, RADII};
use lmds_api::{Instance, SolutionView, SolveConfig, SolverRegistry};
use std::time::Instant;

/// Vertices of the generated instance.
pub const N: usize = 300_000;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The named layers whose self times must cover most of `solve_s`.
const COVERED: &[&str] = &[
    "graph.twins_s",
    "graph.induced_s",
    "core.one_cut_s",
    "core.interesting_s",
    "core.masks_s",
    "core.residual_components_s",
    "core.exact_residual_s",
    "api.registry_overhead_s",
    "api.verify_s",
];

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut m = Measured::default();
    let mut gen_s = Vec::new();
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take());
        let t = Instant::now();
        let g = lmds_gen::scale_instance(N, cfg.seed);
        gen_s.push(t.elapsed().as_secs_f64());
        inst = Some(Instance::shuffled("central-scale", g, cfg.seed));
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let inst = inst.expect("at least one set-up repetition");
    let registry = SolverRegistry::with_defaults();
    let solve_cfg = SolveConfig::mds().radii(RADII);

    // Warm-up solve: fills thread-local engines; its set is the
    // reference every later solve must reproduce.
    let Some((reference, _)) =
        timed_solve(&registry, "mds/algorithm1", &inst, &solve_cfg, &mut tally)
    else {
        return Outcome { tally, ..Outcome::default() };
    };
    m.set_size = reference.size();
    m.lower_bound = crate::packing::packing_lower_bound(&inst.graph);

    let tr = Tracer::new(cfg.trace, Instant::now());
    let mut counts = Default::default();
    let started = Instant::now();
    let deadline = started + cfg.seconds;
    let mut run = 0u64;
    while m.solve_s.is_empty() || Instant::now() < deadline {
        if let Some((sol, s)) =
            timed_solve(&registry, "mds/algorithm1", &inst, &solve_cfg, &mut tally)
        {
            tally.check(sol.vertices == reference.vertices, || {
                "repeated solve returned a different set".to_string()
            });
            m.solve_s.push(s);
            m.latency_ms.push(s * 1e3);
        }
        if cfg.trace {
            run += 1;
            tr.set_run(run);
            counts = traced_algorithm1(&tr, &registry, &inst, RADII, &mut tally).1;
        }
    }
    m.loop_s = started.elapsed().as_secs_f64();
    m.ops = m.solve_s.len();

    if !cfg.trace {
        return Outcome { metrics: m.metrics(), tally, spans: Vec::new() };
    }
    let spans = tr.into_spans();
    let totals = RunTotals::from_spans(&spans);
    let mut metrics = pipeline_layers(&totals, counts);
    metrics.push(metric("gen.scale_instance_s", median(&gen_s), "s"));
    metrics.extend(wire_timings(&SolutionView::from(&reference), 5, &mut tally));
    let solve_s = median(&m.solve_s);
    let traced = totals.median_over("api.registry_solve", |r| {
        totals.at("api.registry_solve", r) + totals.at("api.verify", r)
    });
    metrics.push(metric("trace.overhead_s", traced - solve_s, "s"));
    metrics.push(coverage(&metrics, COVERED, solve_s, &mut tally));
    Outcome { tally, metrics, spans }
}

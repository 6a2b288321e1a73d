//! The traced replay of Algorithm 1 through its public pieces, shared by
//! every workload's traced run, and the wire-encoding timings.

use crate::report::{median, metric, Metric, Tally};
use crate::trace::{RunTotals, Tracer};
use lmds_api::{Instance, Solution, SolutionView, SolveConfig, SolverRegistry};
use lmds_core::algorithm1::{pipeline_state, residual_components, solve_component};
use lmds_core::{local_cuts, Radii};
use lmds_graph::{InducedSubgraph, Vertex};
use lmds_serve::{json, proto};
use std::time::Instant;

/// One registry solve plus verification, timed; `None` (and a failure
/// in `tally`) when either fails.
pub fn timed_solve(
    registry: &SolverRegistry,
    key: &str,
    inst: &Instance,
    cfg: &SolveConfig,
    tally: &mut Tally,
) -> Option<(Solution, f64)> {
    let t = Instant::now();
    let sol = registry.solve(key, inst, cfg);
    let verified = sol
        .as_ref()
        .map_err(ToString::to_string)
        .and_then(|s| s.verify(inst).map_err(|e| e.to_string()));
    let elapsed = t.elapsed().as_secs_f64();
    tally.check(verified.is_ok(), || format!("{key} on {}: {verified:?}", inst.name));
    verified.ok().and(sol.ok()).map(|s| (s, elapsed))
}

/// Set sizes of one replay: twin quotient, `X`, `I`, `U`, residual
/// components.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineCounts {
    /// Vertices kept by the twin reduction.
    pub kept: usize,
    /// `|X|`.
    pub x: usize,
    /// `|I|`.
    pub i: usize,
    /// `|U|`.
    pub u: usize,
    /// Number of residual components.
    pub residual: usize,
    /// Largest residual component.
    pub residual_max: usize,
}

impl PipelineCounts {
    /// Adds another graph's counts (largest component: the maximum).
    pub fn add(&mut self, other: PipelineCounts) {
        self.kept += other.kept;
        self.x += other.x;
        self.i += other.i;
        self.u += other.u;
        self.residual += other.residual;
        self.residual_max = self.residual_max.max(other.residual_max);
    }
}

/// One traced pass: the registry solve and its verification, the direct
/// `algorithm1` call, then the pipeline replayed piece by piece. Checks
/// that the replay's masks match `pipeline_state` and that the replayed
/// set equals both the registry's and the direct call's set. Returns the
/// registry's set (empty when the solve failed) and the replay's counts.
pub fn traced_algorithm1(
    tr: &Tracer,
    registry: &SolverRegistry,
    inst: &Instance,
    radii: Radii,
    tally: &mut Tally,
) -> (Vec<Vertex>, PipelineCounts) {
    let g = &inst.graph;
    let cfg = SolveConfig::mds().radii(radii);
    let sol = match tr.span("api.registry_solve", || registry.solve("mds/algorithm1", inst, &cfg)) {
        Ok(sol) => sol,
        Err(e) => {
            tally.fail(format!("{}: registry solve failed: {e}", inst.name));
            return (Vec::new(), PipelineCounts::default());
        }
    };
    let verified = tr.span("api.verify", || sol.verify(inst));
    tally.check(verified.is_ok(), || format!("{}: {verified:?}", inst.name));
    let direct = tr.span("core.algorithm1", || lmds_core::algorithm1(g, &inst.ids, radii));

    let ids: Vec<u64> = g.vertices().map(|v| inst.ids.id_of(v)).collect();
    let (set, counts) = tr.span("core.replay", || {
        let classes = tr.span("graph.twins", || lmds_graph::twins::twin_classes(g));
        let mut kept_mask = vec![false; g.n()];
        for class in &classes {
            if let Some(&rep) = class.iter().min_by_key(|&&v| ids[v]) {
                kept_mask[rep] = true;
            }
        }
        let kept: Vec<Vertex> = g.vertices().filter(|&v| kept_mask[v]).collect();
        let reduced = tr.span("graph.induced", || InducedSubgraph::new(g, &kept));
        let rg = &reduced.graph;
        let x = tr.span("core.one_cut", || {
            local_cuts::with_thread_engine(|e| e.one_cut_mask(rg, radii.one_cut))
        });
        let i = tr.span("core.interesting", || {
            local_cuts::with_thread_engine(|e| e.interesting_mask(rg, radii.two_cut))
        });
        let state = tr.span("core.pipeline_state", || pipeline_state(g, &ids, radii));
        tally.check(state.kept_mask == kept_mask && state.x == x && state.i == i, || {
            format!("{}: replayed masks differ from pipeline_state", inst.name)
        });
        let comps = tr.span("core.residual_components", || residual_components(&state));
        let mut set: Vec<Vertex> = Vec::new();
        for comp in &comps {
            set.extend(tr.span("core.exact_residual", || solve_component(&state, &ids, comp)));
        }
        let rn = state.reduced.graph.n();
        set.extend((0..rn).filter(|&v| state.s[v]).map(|v| state.reduced.to_host(v)));
        set.sort_unstable();
        set.dedup();
        let counts = PipelineCounts {
            kept: rn,
            x: state.x.iter().filter(|&&b| b).count(),
            i: state.i.iter().filter(|&&b| b).count(),
            u: state.u.iter().filter(|&&b| b).count(),
            residual: comps.len(),
            residual_max: comps.iter().map(Vec::len).max().unwrap_or(0),
        };
        (set, counts)
    });
    tally.check(set == sol.vertices && set == direct.solution, || {
        format!("{}: replayed set differs from the registry's", inst.name)
    });
    (sol.vertices, counts)
}

/// Per-layer metrics of the Algorithm 1 replay: the median over runs of
/// each piece's self time, with `core.masks_s` as `pipeline_state` minus
/// its separately timed pieces and `api.registry_overhead_s` as the
/// registry solve minus the direct `algorithm1` call.
pub fn pipeline_layers(totals: &RunTotals, counts: PipelineCounts) -> Vec<Metric> {
    let at = |name: &str, run: u64| totals.at(name, run);
    let per_run = |f: &dyn Fn(u64) -> f64| totals.median_over("core.pipeline_state", f);
    let pieces = ["graph.twins", "graph.induced", "core.one_cut", "core.interesting"];
    vec![
        metric("graph.twins_s", per_run(&|r| at("graph.twins", r)), "s"),
        metric("graph.induced_s", per_run(&|r| at("graph.induced", r)), "s"),
        metric("core.one_cut_s", per_run(&|r| at("core.one_cut", r)), "s"),
        metric("core.interesting_s", per_run(&|r| at("core.interesting", r)), "s"),
        metric(
            "core.masks_s",
            per_run(&|r| {
                at("core.pipeline_state", r) - pieces.iter().map(|p| at(p, r)).sum::<f64>()
            }),
            "s",
        ),
        metric("core.residual_components_s", per_run(&|r| at("core.residual_components", r)), "s"),
        metric("core.exact_residual_s", per_run(&|r| at("core.exact_residual", r)), "s"),
        metric(
            "api.registry_overhead_s",
            per_run(&|r| at("api.registry_solve", r) - at("core.algorithm1", r)),
            "s",
        ),
        metric("api.verify_s", per_run(&|r| at("api.verify", r)), "s"),
        metric("graph.kept_count", counts.kept as f64, "count"),
        metric("core.x_count", counts.x as f64, "count"),
        metric("core.i_count", counts.i as f64, "count"),
        metric("core.u_count", counts.u as f64, "count"),
        metric("core.residual_count", counts.residual as f64, "count"),
        metric("core.residual_max", counts.residual_max as f64, "vertices"),
    ]
}

/// Times `proto::render_solution` + `Value::render` and `json::parse` on
/// one solution, as a response body would carry it: median over `reps`
/// repetitions, in ms, plus the body size in KB. Checks that the parsed
/// body round-trips through `proto::parse_solution`.
pub fn wire_timings(view: &SolutionView, reps: usize, tally: &mut Tally) -> Vec<Metric> {
    let mut render = Vec::new();
    let mut parse = Vec::new();
    let mut body = String::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        body = std::hint::black_box(proto::render_solution(view).render());
        render.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let doc = std::hint::black_box(json::parse(&body));
        parse.push(t.elapsed().as_secs_f64() * 1e3);
        let back = doc.map_err(|e| e.to_string()).and_then(|d| proto::parse_solution(&d));
        tally.check(back.as_ref().is_ok_and(|b| b.vertices == view.vertices), || {
            format!("rendered solution does not parse back: {:?}", back.err())
        });
    }
    vec![
        metric("serve.render_ms", median(&render), "ms"),
        metric("serve.parse_ms", median(&parse), "ms"),
        metric("serve.response_kb", body.len() as f64 / 1024.0, "KB"),
    ]
}

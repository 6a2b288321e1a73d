//! `local-views`: `mds/algorithm1` in `local-oracle` mode at radii (2,3)
//! on a `scale_instance` of [`N_VIEWS`] vertices, so the pipeline runs
//! as thousands of calls on small view graphs, plus `mds/theorem44` on
//! the message-passing engine on a `scale_instance` of [`N_MESSAGES`].
//!
//! The Algorithm 1 graph has a fixed structure ([`VIEWS_STRUCTURE_SEED`])
//! and takes its identifiers from the workload seed: at this size the
//! LOCAL solve time varies by about a fifth between generator seeds,
//! more than any regression bound could absorb, while identifiers move
//! it by under one percent. The Theorem 4.4 graph is generated from the
//! workload seed.

use crate::pipeline::{timed_solve, traced_algorithm1, wire_timings};
use crate::report::{coverage, median, metric, Tally};
use crate::trace::{RunTotals, Tracer};
use crate::{derive_seed, Measured, Outcome, RunConfig, RADII};
use lmds_api::{ExecutionMode, Instance, SolutionView, SolveConfig, SolverRegistry};
use lmds_core::distributed::Algorithm1Decider;
use lmds_graph::Vertex;
use lmds_localsim::{oracle_view, Decider};
use std::time::Instant;

/// Vertices of the Algorithm 1 instance.
pub const N_VIEWS: usize = 400;
/// Vertices of the Theorem 4.4 instance.
pub const N_MESSAGES: usize = 100_000;
/// Generator seed of the Algorithm 1 instance's structure.
pub const VIEWS_STRUCTURE_SEED: u64 = 0;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The named layers whose self times must cover most of `solve_s`.
const COVERED: &[&str] = &[
    "localsim.view_s",
    "core.decide_s",
    "localsim.messaging_s",
    "core.theorem44_s",
    "api.verify_s",
];

/// What the replayed oracle schedule did.
#[derive(Debug, Default)]
struct Schedule {
    set: Vec<Vertex>,
    views: usize,
    view_n_max: usize,
    decided_round_max: u32,
}

/// Replays the oracle runtime's schedule through the public calls: each
/// round, every undecided vertex gets its exact view from
/// `oracle_view` and runs `Algorithm1Decider::decide` on it.
fn replay_schedule(tr: &Tracer, inst: &Instance, cap: u32, tally: &mut Tally) -> Schedule {
    let (g, ids) = (&inst.graph, &inst.ids);
    let decider = Algorithm1Decider { radii: RADII };
    let mut out = Schedule::default();
    let mut undecided: Vec<Vertex> = g.vertices().collect();
    let mut round = 0u32;
    while !undecided.is_empty() {
        if round > cap {
            tally
                .fail(format!("replay: {} vertices undecided after {cap} rounds", undecided.len()));
            break;
        }
        let mut still = Vec::new();
        for &v in &undecided {
            let view = tr.span("localsim.view", || oracle_view(g, ids, v, round));
            out.views += 1;
            out.view_n_max = out.view_n_max.max(view.vertex_ids().len());
            match tr.span("core.decide", || decider.decide(&view)) {
                Some(chosen) => {
                    if chosen {
                        out.set.push(v);
                    }
                    out.decided_round_max = round;
                }
                None => still.push(v),
            }
        }
        undecided = still;
        round += 1;
    }
    out.set.sort_unstable();
    out
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut m = Measured::default();
    let mut gen_s = Vec::new();
    let mut insts = None;
    for _ in 0..SETUP_REPS {
        drop(insts.take());
        let t = Instant::now();
        let small = lmds_gen::scale_instance(N_VIEWS, VIEWS_STRUCTURE_SEED);
        let big = lmds_gen::scale_instance(N_MESSAGES, derive_seed(cfg.seed, 1));
        gen_s.push(t.elapsed().as_secs_f64());
        insts = Some((
            Instance::shuffled("local-views/algorithm1", small, cfg.seed),
            Instance::shuffled("local-views/theorem44", big, derive_seed(cfg.seed, 2)),
        ));
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (small, big) = insts.expect("at least one set-up repetition");
    let registry = SolverRegistry::with_defaults();
    let alg1_central = SolveConfig::mds().radii(RADII);
    let alg1_local = alg1_central.clone().mode(ExecutionMode::LOCAL_ORACLE);
    let t44_central = SolveConfig::mds();
    let t44_oracle = t44_central.clone().mode(ExecutionMode::LOCAL_ORACLE);
    let t44_messages = t44_central.clone().mode(ExecutionMode::LOCAL_MESSAGE_PASSING);

    // Centralized references the LOCAL runs must reproduce.
    let central_alg1 = timed_solve(&registry, "mds/algorithm1", &small, &alg1_central, &mut tally);
    let central_t44 = timed_solve(&registry, "mds/theorem44", &big, &t44_central, &mut tally);
    let (Some((central_alg1, _)), Some((central_t44, _))) = (central_alg1, central_t44) else {
        return Outcome { tally, ..Outcome::default() };
    };
    // Both answers count: `set_size` is |S| of Algorithm 1 plus |S| of
    // Theorem 4.4, over the two graphs' packing bounds.
    m.set_size = central_alg1.size() + central_t44.size();
    m.lower_bound = crate::packing::packing_lower_bound(&small.graph)
        + crate::packing::packing_lower_bound(&big.graph);

    // One LOCAL pass: both solves, verified, compared with the
    // centralized sets. The first pass warms up and is not timed.
    let pass = |tally: &mut Tally| {
        let t = Instant::now();
        let a = timed_solve(&registry, "mds/algorithm1", &small, &alg1_local, tally);
        let b = timed_solve(&registry, "mds/theorem44", &big, &t44_messages, tally);
        let elapsed = t.elapsed().as_secs_f64();
        let (Some((a, _)), Some((b, _))) = (a, b) else { return None };
        tally.check(a.vertices == central_alg1.vertices, || {
            "local-oracle algorithm1 set differs from the centralized set".to_string()
        });
        tally.check(b.vertices == central_t44.vertices, || {
            "message-passing theorem44 set differs from the centralized set".to_string()
        });
        Some((a, b, elapsed))
    };
    let Some((first_a, first_b, _)) = pass(&mut tally) else {
        return Outcome { tally, ..Outcome::default() };
    };

    let tr = Tracer::new(cfg.trace, Instant::now());
    let mut schedule = Schedule::default();
    let mut counts = Default::default();
    let started = Instant::now();
    let deadline = started + cfg.seconds;
    let mut run = 0u64;
    while m.solve_s.is_empty() || Instant::now() < deadline {
        if let Some((_, _, s)) = pass(&mut tally) {
            m.solve_s.push(s);
            m.latency_ms.push(s * 1e3);
        }
        if cfg.trace {
            run += 1;
            tr.set_run(run);
            let cap = first_a.rounds.unwrap_or(0) + 1;
            schedule = tr.span("localsim.replay", || replay_schedule(&tr, &small, cap, &mut tally));
            tally.check(schedule.set == first_a.vertices, || {
                "replayed oracle schedule set differs from the registry's".to_string()
            });
            let b = tr.span("api.theorem44_messages", || {
                registry.solve("mds/theorem44", &big, &t44_messages)
            });
            let verified = tr.span("api.verify", || b.as_ref().map(|b| b.verify(&big)));
            tally.check(matches!(verified, Ok(Ok(()))), || format!("theorem44: {verified:?}"));
            let o = tr.span("api.theorem44_oracle", || {
                registry.solve("mds/theorem44", &big, &t44_oracle)
            });
            tally.check(o.is_ok_and(|o| o.vertices == central_t44.vertices), || {
                "oracle theorem44 set differs from the centralized set".to_string()
            });
            counts = traced_algorithm1(&tr, &registry, &small, RADII, &mut tally).1;
        }
    }
    m.loop_s = started.elapsed().as_secs_f64();
    m.ops = m.solve_s.len();

    if !cfg.trace {
        return Outcome { metrics: m.metrics(), tally, spans: Vec::new() };
    }
    let spans = tr.into_spans();
    let totals = RunTotals::from_spans(&spans);
    let med = |f: &dyn Fn(u64) -> f64| totals.median_over("localsim.replay", f);
    let at = |name: &str, run: u64| totals.at(name, run);
    let mut metrics = crate::pipeline::pipeline_layers(&totals, counts);
    metrics.push(metric("gen.scale_instance_s", median(&gen_s), "s"));
    metrics.push(metric("localsim.view_s", med(&|r| at("localsim.view", r)), "s"));
    metrics.push(metric("core.decide_s", med(&|r| at("core.decide", r)), "s"));
    metrics.push(metric("localsim.views", schedule.views as f64, "count"));
    metrics.push(metric(
        "localsim.decided_per_view",
        small.n() as f64 / schedule.views.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric("localsim.view_n_max", schedule.view_n_max as f64, "vertices"));
    metrics.push(metric(
        "localsim.decided_round_max",
        f64::from(schedule.decided_round_max),
        "rounds",
    ));
    metrics.push(metric("localsim.rounds", f64::from(first_a.rounds.unwrap_or(0)), "rounds"));
    let bits = first_b.messages.as_ref().and_then(|s| s.total_message_bits()).unwrap_or(0);
    metrics.push(metric("localsim.message_bits", bits as f64, "bits"));
    let oracle = |r| at("api.theorem44_oracle", r);
    let messaging = med(&|r| at("api.theorem44_messages", r) - oracle(r));
    metrics.push(metric("localsim.messaging_s", messaging, "s"));
    metrics.push(metric("core.theorem44_s", med(&oracle), "s"));
    metrics.extend(wire_timings(&SolutionView::from(&first_b), 5, &mut tally));

    let solve_s = median(&m.solve_s);
    let traced = med(&|r| {
        ["localsim.replay", "localsim.view", "core.decide", "api.theorem44_messages", "api.verify"]
            .iter()
            .map(|name| at(name, r))
            .sum()
    });
    metrics.push(metric("trace.overhead_s", traced - solve_s, "s"));
    metrics.push(coverage(&metrics, COVERED, solve_s, &mut tally));
    Outcome { tally, metrics, spans }
}

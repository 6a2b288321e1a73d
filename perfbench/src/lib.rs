//! End-to-end and per-layer benchmark of the lmds workspace.
//!
//! Three workloads, each built from a seed given on the command line:
//!
//! * [`central`] — `mds/algorithm1` at radii (2,3), centralized, on one
//!   large scale-family instance;
//! * [`local`] — the same pipeline as many small LOCAL view solves, plus
//!   Theorem 4.4 on the message-passing engine;
//! * [`serve`] — an in-process `lmds-serve` daemon under a closed loop
//!   of keep-alive clients.
//!
//! An untraced run reports the end-to-end metrics ([`E2E_METRICS`]); a
//! traced run records spans around the public calls into each layer and
//! reports the per-layer metrics ([`LAYER_METRICS`]). `README.md` beside
//! this crate defines every metric per workload.

pub mod central;
pub mod local;
pub mod packing;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod trace;

use report::{median, metric, quantile, tail_quantile, Metric, Tally};
use std::time::Duration;

/// The radii every Algorithm 1 solve of the benchmark uses.
pub const RADII: lmds_core::Radii = lmds_core::Radii { one_cut: 2, two_cut: 3 };

/// End-to-end metrics, printed by every untraced run, with their units.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("set_size", "vertices"),
    ("ratio_bound", "ratio"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_share", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run, with their units. A
/// layer the workload does not run reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("gen.scale_instance_s", "s"),
    ("graph.twins_s", "s"),
    ("graph.induced_s", "s"),
    ("core.one_cut_s", "s"),
    ("core.interesting_s", "s"),
    ("core.masks_s", "s"),
    ("core.residual_components_s", "s"),
    ("core.exact_residual_s", "s"),
    ("api.registry_overhead_s", "s"),
    ("api.verify_s", "s"),
    ("graph.kept_count", "count"),
    ("core.x_count", "count"),
    ("core.i_count", "count"),
    ("core.u_count", "count"),
    ("core.residual_count", "count"),
    ("core.residual_max", "vertices"),
    ("localsim.view_s", "s"),
    ("core.decide_s", "s"),
    ("localsim.views", "count"),
    ("localsim.decided_per_view", "ratio"),
    ("localsim.view_n_max", "vertices"),
    ("localsim.decided_round_max", "rounds"),
    ("localsim.rounds", "rounds"),
    ("localsim.messaging_s", "s"),
    ("core.theorem44_s", "s"),
    ("localsim.message_bits", "bits"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.patch_ms", "ms"),
    ("serve.put_ms", "ms"),
    ("serve.solver_ms", "ms"),
    ("serve.wait_and_wire_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.response_kb", "KB"),
    ("serve.cache_hit_share", "fraction"),
    ("serve.components_reused", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
];

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["central-scale", "local-views", "serve-mix"];

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed; the same seed generates the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// What one run produced: the tally of attempts, the metrics it
/// measured, and its spans (traced runs only).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempts and failures.
    pub tally: Tally,
    /// Measured metrics (end-to-end or per-layer, by run kind).
    pub metrics: Vec<Metric>,
    /// Recorded spans.
    pub spans: Vec<trace::Span>,
}

/// A sub-seed for input `tag` of a workload seeded with `seed`
/// (SplitMix64 finalizer, so nearby seeds give unrelated inputs).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed.wrapping_add(tag.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The end-to-end measurements every workload reports; success share
/// and peak memory are added when the run ends.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up times, one per repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Solve times (Instance to verified Solution), in seconds.
    pub solve_s: Vec<f64>,
    /// `|S|` of the workload's reference answer.
    pub set_size: usize,
    /// The packing lower bound for the same graph(s).
    pub lower_bound: usize,
    /// Operations completed in the measured loop.
    pub ops: usize,
    /// Wall time of the measured loop, in seconds.
    pub loop_s: f64,
    /// Per-operation latency, in ms.
    pub latency_ms: Vec<f64>,
}

impl Measured {
    /// The end-to-end metrics this run measured.
    pub fn metrics(&self) -> Vec<Metric> {
        let tail = tail_quantile(self.latency_ms.len());
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("solve_s", median(&self.solve_s), "s"),
            metric("set_size", self.set_size as f64, "vertices"),
            metric("ratio_bound", self.set_size as f64 / self.lower_bound.max(1) as f64, "ratio"),
            metric("rps", self.ops as f64 / self.loop_s.max(1e-9), "1/s"),
            metric("latency_p50_ms", median(&self.latency_ms), "ms"),
            metric("latency_p99_ms", quantile(&self.latency_ms, tail), "ms"),
        ]
    }
}

/// Completes a run's metric list: adds success share and peak memory to
/// an untraced run, fills the layers a traced run did not touch with 0,
/// and orders everything as listed.
pub fn finish_metrics(outcome: &Outcome, trace: bool) -> Vec<Metric> {
    let mut measured = outcome.metrics.clone();
    let list = if trace { LAYER_METRICS } else { E2E_METRICS };
    if !trace {
        measured.push(metric("success_share", 1.0 - outcome.tally.fail_share(), "fraction"));
        measured.push(metric("peak_rss_mb", report::peak_rss_mb(), "MB"));
    }
    list.iter()
        .map(|&(name, unit)| {
            let found = measured.iter().find(|m| m.name == name);
            debug_assert!(found.is_none_or(|m| m.unit == unit), "unit of {name}");
            metric(name, found.map_or(0.0, |m| m.value), unit)
        })
        .collect()
}

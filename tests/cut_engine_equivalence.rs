//! Equivalence suite for the shared-work [`CutEngine`]: on the full
//! generator corpus, every engine sweep must reproduce the naive
//! Definition-2.1 reference predicates **bit for bit** — the engine is
//! a pure performance rebuild, never a behavior change.
//!
//! Covered per graph × radius (radii 1–6):
//! * `X`: [`CutEngine::one_cut_mask`] vs [`local_cuts::is_local_one_cut`]
//! * `I`: [`CutEngine::interesting_mask`] vs [`local_cuts::is_interesting`]
//! * pairs: [`CutEngine::two_cuts`] vs the naive all-pairs
//!   [`local_cuts::is_local_two_cut`] enumeration
//! * endpoints: [`CutEngine::two_cut_endpoint_mask`] vs the pair union
//!
//! plus the structural invariants of `local_two_cuts` (ordering, dedup,
//! symmetry of the underlying predicate).
//!
//! [`CutEngine`]: lmds_core::local_cuts::CutEngine
//! [`CutEngine::one_cut_mask`]: lmds_core::local_cuts::CutEngine::one_cut_mask
//! [`CutEngine::interesting_mask`]: lmds_core::local_cuts::CutEngine::interesting_mask
//! [`CutEngine::two_cuts`]: lmds_core::local_cuts::CutEngine::two_cuts
//! [`CutEngine::two_cut_endpoint_mask`]: lmds_core::local_cuts::CutEngine::two_cut_endpoint_mask
//! [`local_cuts::is_local_one_cut`]: lmds_core::local_cuts::is_local_one_cut
//! [`local_cuts::is_interesting`]: lmds_core::local_cuts::is_interesting
//! [`local_cuts::is_local_two_cut`]: lmds_core::local_cuts::is_local_two_cut

use lmds_core::local_cuts::{self, CutEngine};
use lmds_gen::ding::AugmentationSpec;
use lmds_graph::Graph;

/// The generator corpus: every family the experiments draw from, at
/// sizes where the naive reference stays affordable.
fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("cycle5".into(), lmds_gen::basic::cycle(5)),
        ("cycle6".into(), lmds_gen::basic::cycle(6)),
        ("cycle13".into(), lmds_gen::basic::cycle(13)),
        ("path12".into(), lmds_gen::basic::path(12)),
        ("theta".into(), Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])),
        ("subdivided_k23".into(), lmds_gen::adversarial::subdivided_k2t(3)),
        ("subdivided_k25".into(), lmds_gen::adversarial::subdivided_k2t(5)),
        ("clique_pendants5".into(), lmds_gen::adversarial::clique_with_pendants(5)),
        ("clique_pendants8".into(), lmds_gen::adversarial::clique_with_pendants(8)),
        ("strip6".into(), lmds_gen::ding::strip(6)),
        ("strip8".into(), lmds_gen::ding::strip(8)),
        ("fan5".into(), lmds_gen::ding::fan(5)),
        ("fan6".into(), lmds_gen::ding::fan(6)),
        (
            "disconnected".into(),
            Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)]),
        ),
    ];
    for seed in 0..2u64 {
        out.push((
            format!("augmentation_s{seed}"),
            AugmentationSpec::standard(5, 2, 2, seed).generate(),
        ));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(18, seed),
        ));
        // The fan/strip chain family the central-scale benchmark runs.
        out.push((format!("scale300_s{seed}"), lmds_gen::ding::scale_instance(300, seed)));
    }
    out
}

#[test]
fn engine_x_set_matches_naive_reference() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let mask = engine.one_cut_mask(&g, r);
            for v in g.vertices() {
                assert_eq!(mask[v], local_cuts::is_local_one_cut(&g, v, r), "{name} r={r} v={v}");
            }
        }
    }
}

#[test]
fn engine_interesting_set_matches_naive_reference() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let mask = engine.interesting_mask(&g, r);
            for v in g.vertices() {
                assert_eq!(mask[v], local_cuts::is_interesting(&g, v, r), "{name} r={r} v={v}");
            }
        }
    }
}

#[test]
fn engine_two_cuts_match_naive_all_pairs_enumeration() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let pairs = engine.two_cuts(&g, r);
            let mut naive = Vec::new();
            for u in g.vertices() {
                for v in (u + 1)..g.n() {
                    if local_cuts::is_local_two_cut(&g, u, v, r) {
                        naive.push((u, v));
                    }
                }
            }
            assert_eq!(pairs, naive, "{name} r={r}");
            // Endpoint mask is exactly the pair union.
            let endpoints = engine.two_cut_endpoint_mask(&g, r);
            let mut union = vec![false; g.n()];
            for &(a, b) in &naive {
                union[a] = true;
                union[b] = true;
            }
            assert_eq!(endpoints, union, "{name} r={r}");
        }
    }
}

#[test]
fn local_two_cuts_ordering_dedup_and_symmetry_invariants() {
    for (name, g) in corpus() {
        for r in [2u32, 4] {
            let pairs = local_cuts::local_two_cuts(&g, r);
            // Strictly lexicographically increasing ⟹ sorted + dedup'd.
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{name} r={r}: {pairs:?}");
            for &(u, v) in &pairs {
                assert!(u < v, "{name} r={r}: unnormalized pair ({u},{v})");
                // The predicate is symmetric in its endpoints.
                assert!(local_cuts::is_local_two_cut(&g, v, u, r), "{name} r={r} ({v},{u})");
            }
        }
    }
}

#[test]
fn engine_whole_graph_queries_match_module_functions() {
    // The public set-level functions are engine-backed; pin them to the
    // naive per-vertex filters once more at the integration level.
    for (name, g) in corpus() {
        for r in [1u32, 3] {
            let by_filter: Vec<usize> =
                g.vertices().filter(|&v| local_cuts::is_local_one_cut(&g, v, r)).collect();
            assert_eq!(local_cuts::local_one_cut_vertices(&g, r), by_filter, "{name} r={r}");
            let by_filter: Vec<usize> =
                g.vertices().filter(|&v| local_cuts::is_interesting(&g, v, r)).collect();
            assert_eq!(local_cuts::interesting_vertices(&g, r), by_filter, "{name} r={r}");
        }
    }
}

#[test]
fn engine_sharded_path_matches_naive_on_large_graphs() {
    // Graphs past the ball grain take the automatic multi-worker sweep
    // on multi-core hosts; outputs must still be identical to the naive
    // reference. (Worker-count invariance at forced counts is the
    // `algorithm1::tests::sharded_phases_match_sequential` property.)
    let mut engine = CutEngine::new();
    let big: Vec<(String, Graph)> = vec![
        ("cycle700".into(), lmds_gen::basic::cycle(700)),
        ("path800".into(), lmds_gen::basic::path(800)),
        ("caterpillar700".into(), lmds_gen::basic::caterpillar(700, 1)),
    ];
    for (name, g) in big {
        assert!(g.n() >= lmds_graph::par::BALL_GRAIN, "{name} must reach the ball grain");
        for r in [2u32, 3] {
            let one = engine.one_cut_mask(&g, r);
            let interesting = engine.interesting_mask(&g, r);
            for v in [0usize, 1, g.n() / 2, g.n() - 1] {
                assert_eq!(one[v], local_cuts::is_local_one_cut(&g, v, r), "{name} r={r} v={v}");
                assert_eq!(
                    interesting[v],
                    local_cuts::is_interesting(&g, v, r),
                    "{name} r={r} v={v}"
                );
            }
            // Full-set check against the (cheap on these sparse graphs)
            // naive filters.
            let naive_one: Vec<usize> =
                g.vertices().filter(|&v| local_cuts::is_local_one_cut(&g, v, r)).collect();
            assert_eq!(
                one.iter().enumerate().filter_map(|(v, &m)| m.then_some(v)).collect::<Vec<_>>(),
                naive_one,
                "{name} r={r}"
            );
        }
    }
}

//! Property-style tests on the core invariants, run over a
//! deterministic corpus of seeded random structured inputs (the
//! workspace is dependency-free, so no proptest; the corpus plays the
//! same role with reproducible failures).

use lmds_core::{algorithm1, theorem44_mds, theorem44_mvc, Radii};
use lmds_gen::rng::SmallRng;
use lmds_graph::dominating::{exact_mds, is_dominating_set};
use lmds_graph::vertex_cover::is_vertex_cover;
use lmds_graph::Graph;
use lmds_localsim::IdAssignment;

/// A random connected graph: a random tree plus a few extra edges
/// (stays sparse; sizes kept small so exact solvers finish).
fn sparse_connected_graph(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(4..18);
    let extra = rng.gen_range(0..6);
    let mut g = lmds_gen::trees::random_tree(n, seed);
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// The shared corpus of sparse connected graphs with per-case id seeds.
fn corpus() -> Vec<(u64, Graph)> {
    (0..48).map(|seed| (seed, sparse_connected_graph(seed))).collect()
}

fn tree_corpus() -> Vec<(u64, Graph)> {
    (0..32)
        .map(|seed| {
            let n = 2 + (seed as usize * 7) % 28;
            (seed, lmds_gen::trees::random_tree(n, seed))
        })
        .collect()
}

fn outerplanar_corpus() -> Vec<(u64, Graph)> {
    (0..24)
        .map(|seed| {
            let n = 5 + (seed as usize) % 9;
            (seed, lmds_gen::outerplanar::random_maximal_outerplanar(n, seed))
        })
        .collect()
}

#[test]
fn theorem44_always_dominates() {
    for (seed, g) in corpus() {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let sol = theorem44_mds(&g, &ids);
        assert!(is_dominating_set(&g, &sol), "seed={seed}");
    }
}

#[test]
fn theorem44_mvc_always_covers() {
    for (seed, g) in corpus() {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let sol = theorem44_mvc(&g, &ids);
        assert!(is_vertex_cover(&g, &sol), "seed={seed}");
    }
}

#[test]
fn algorithm1_always_dominates() {
    for (seed, g) in corpus() {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let out = algorithm1(&g, &ids, Radii::practical(2, 2));
        assert!(is_dominating_set(&g, &out.solution), "seed={seed}");
    }
}

#[test]
fn twin_reduction_preserves_mds() {
    for (seed, g) in corpus() {
        let red = lmds_graph::twins::TwinReduction::compute(&g);
        assert_eq!(exact_mds(&g).len(), exact_mds(&red.reduced.graph).len(), "seed={seed}");
    }
}

#[test]
fn trees_ratio_bounds_hold() {
    for (seed, g) in tree_corpus() {
        // Trees are K_{2,2}-minor-free: Theorem 4.4 gives 2t−1 = 3.
        let ids = IdAssignment::shuffled(g.n(), seed);
        let sol = theorem44_mds(&g, &ids);
        let opt = lmds_graph::dominating::tree_mds(&g).unwrap().len().max(1);
        assert!(sol.len() <= 3 * opt, "seed={seed}: |D2| = {} > 3·{}", sol.len(), opt);
        // MVC variant: ratio ≤ t = 2.
        let cover = theorem44_mvc(&g, &ids);
        let vc_opt = lmds_graph::vertex_cover::exact_vertex_cover(&g).len();
        assert!(cover.len() <= 2 * vc_opt.max(1), "seed={seed}");
    }
}

#[test]
fn exact_mds_is_minimal_and_dominating() {
    for (seed, g) in corpus() {
        let sol = exact_mds(&g);
        assert!(is_dominating_set(&g, &sol), "seed={seed}");
        // No single vertex can be dropped.
        for i in 0..sol.len() {
            let mut smaller = sol.clone();
            smaller.remove(i);
            assert!(!is_dominating_set(&g, &smaller), "seed={seed}");
        }
        // Ore's bound (Lemma 5.16) when there are no isolated vertices.
        if lmds_graph::properties::min_degree(&g) >= 1 {
            assert!(2 * sol.len() <= g.n(), "seed={seed}");
        }
    }
}

#[test]
fn local_cuts_at_full_radius_match_global() {
    for (seed, g) in corpus() {
        let r = g.n() as u32;
        let local = lmds_core::local_cuts::local_one_cut_vertices(&g, r);
        let global = lmds_graph::articulation::articulation_points(&g);
        assert_eq!(local, global, "seed={seed}");
    }
}

#[test]
fn oracle_views_match_message_passing() {
    // The core simulator invariant, on random graphs.
    use lmds_localsim::runtime::oracle_view;
    use lmds_localsim::LocalView;
    for (seed, g) in corpus().into_iter().step_by(3) {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let n = g.n();
        let mut views: Vec<LocalView> = (0..n).map(|v| LocalView::initial(ids.id_of(v))).collect();
        for k in 1..=3u32 {
            let snapshot = views.clone();
            for (v, view) in views.iter_mut().enumerate() {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    view.learn_edge(ids.id_of(v), ids.id_of(u));
                    let s = snapshot[u].clone();
                    view.merge(&s);
                }
                view.advance_round();
            }
            for (v, view) in views.iter().enumerate() {
                assert_eq!(view, &oracle_view(&g, &ids, v, k), "seed={seed} v={v} k={k}");
            }
        }
    }
}

#[test]
fn two_packing_lower_bounds_exact() {
    for (seed, g) in corpus() {
        let packing = lmds_graph::dominating::two_packing(&g);
        assert!(packing.len() <= exact_mds(&g).len(), "seed={seed}");
    }
}

#[test]
fn asdim_layered_cover_is_valid_on_trees() {
    for (seed, g) in tree_corpus() {
        for r in 1u32..4 {
            let cover = lmds_asdim::layered_cover(&g, r);
            // Valid cover with O(r) weak diameter on trees.
            assert!(lmds_asdim::verify_cover(&g, &cover, r, 6 * r).is_ok(), "seed={seed} r={r}");
        }
    }
}

// ---------------------------------------------------------------------
// Structure-theory invariants (SPQR, treewidth, minors, cut forests).
// ---------------------------------------------------------------------

#[test]
fn spqr_displays_every_minimal_two_cut() {
    // Proposition 5.7 on random maximal outerplanar graphs.
    for (seed, g) in outerplanar_corpus() {
        let tree = lmds_graph::spqr::SpqrTree::compute(&g);
        let mut displayed = tree.displayed_pairs();
        displayed.extend(tree.s_node_nonadjacent_pairs());
        displayed.sort_unstable();
        displayed.dedup();
        for cut in lmds_graph::two_cuts::minimal_two_cuts(&g) {
            assert!(displayed.contains(&cut), "seed={seed}: cut {cut:?} missing");
        }
    }
}

#[test]
fn min_fill_decomposition_is_always_valid() {
    for (seed, g) in corpus() {
        let td = lmds_graph::treewidth::min_fill_decomposition(&g);
        assert!(td.validate(&g).is_ok(), "seed={seed}");
        // Outerplanar-ish sparse graphs stay narrow.
        assert!(td.width() < g.n().max(1), "seed={seed}");
    }
}

#[test]
fn treewidth_dp_matches_branch_and_bound() {
    for (seed, g) in corpus() {
        if let Some(dp) = lmds_graph::treewidth::treewidth_mds_size(&g, 8) {
            assert_eq!(dp, exact_mds(&g).len(), "seed={seed}");
        }
    }
}

#[test]
fn minor_number_is_subgraph_monotone() {
    for (seed, g) in corpus().into_iter().step_by(2) {
        // Removing an edge cannot create a larger K_{2,t} minor.
        let full = lmds_graph::minor::max_k2_minor(&g, 30_000_000);
        if !full.is_exact() {
            continue; // budget; skip rare heavy cases
        }
        let mut h = g.clone();
        if let Some((u, v)) = g.edges().next() {
            h.remove_edge(u, v);
            let sub = lmds_graph::minor::max_k2_minor(&h, 30_000_000);
            if sub.is_exact() {
                assert!(sub.value() <= full.value(), "seed={seed}");
            }
        }
    }
}

#[test]
fn interesting_cut_families_are_legal() {
    for (seed, g) in outerplanar_corpus() {
        let forest = lmds_core::forest::interesting_cut_families(&g);
        let report = lmds_core::forest::verify_families(&g, &forest, g.n() as u32);
        assert!(report.families_used <= 3, "seed={seed}");
        assert!(report.noncrossing, "seed={seed}");
        assert!(report.displayed <= report.interesting, "seed={seed}");
    }
}

#[test]
fn mvc_distributed_matches_centralized() {
    use lmds_core::distributed::MvcAlgorithm1Decider;
    use lmds_localsim::OracleRuntime;
    let radii = Radii::practical(2, 2);
    for (seed, g) in corpus().into_iter().step_by(2) {
        let ids = IdAssignment::shuffled(g.n(), seed);
        let decider = MvcAlgorithm1Decider { radii };
        let res = OracleRuntime.run(&g, &ids, &decider, (2 * g.n() + 40) as u32).unwrap();
        let dist: Vec<usize> =
            res.outputs.iter().enumerate().filter_map(|(v, &b)| b.then_some(v)).collect();
        let central = lmds_core::mvc::algorithm1_mvc(&g, &ids, radii);
        assert_eq!(dist, central.solution, "seed={seed}");
    }
}

/// The three build paths of the scale PR must agree graph-for-graph:
/// the bulk CSR constructor ([`Graph::from_edges`]), the incremental
/// [`DynamicGraph`] path (both the per-op splice tier and the bulk
/// rebuild tier), and the zero-copy snapshot round trip. Adjacency is
/// canonically sorted, so `==` is structural equality.
#[test]
fn bulk_splice_and_snapshot_builds_agree() {
    use lmds_graph::dynamic::SPLICE_LIMIT;
    use lmds_graph::io::{from_snapshot, to_snapshot};
    use lmds_graph::{DynamicGraph, GraphUpdate};

    let mut cases: Vec<(String, Graph)> = corpus()
        .into_iter()
        .map(|(seed, g)| (format!("sparse#{seed}"), g))
        .chain(outerplanar_corpus().into_iter().map(|(seed, g)| (format!("outerplanar#{seed}"), g)))
        .collect();
    cases.push(("scale_instance(600)".into(), lmds_gen::ding::scale_instance(600, 9)));
    cases.push(("augmentation(8,4,3)".into(), {
        use lmds_gen::ding::AugmentationSpec;
        AugmentationSpec::standard(8, 4, 3, 21).generate()
    }));

    for (name, bulk) in &cases {
        // Edge stream of the reference graph (u < v once per edge).
        let edges: Vec<(usize, usize)> = bulk
            .vertices()
            .flat_map(|u| {
                bulk.neighbors(u)
                    .iter()
                    .map(move |&w| (u, w as usize))
                    .filter(|&(u, w)| u < w)
                    .collect::<Vec<_>>()
            })
            .collect();

        // Dynamic rebuild tier: one batch holding every op.
        let mut batch: Vec<GraphUpdate> = vec![GraphUpdate::AddVertex; bulk.n()];
        batch.extend(edges.iter().map(|&(u, v)| GraphUpdate::InsertEdge(u, v)));
        let mut dg = DynamicGraph::new(Graph::from_edges(0, &[]));
        dg.apply(&batch).unwrap_or_else(|e| panic!("{name}: bulk batch: {e}"));
        assert_eq!(dg.graph(), bulk, "{name}: dynamic bulk rebuild differs from from_edges");

        // Dynamic splice tier: batches small enough to stay under
        // SPLICE_LIMIT so each op goes through the per-op CSR splice.
        let mut dg = DynamicGraph::new(Graph::from_edges(0, &[]));
        dg.apply(&vec![GraphUpdate::AddVertex; bulk.n()])
            .unwrap_or_else(|e| panic!("{name}: add vertices: {e}"));
        for chunk in edges.chunks(SPLICE_LIMIT.saturating_sub(1).max(1)) {
            let ops: Vec<GraphUpdate> =
                chunk.iter().map(|&(u, v)| GraphUpdate::InsertEdge(u, v)).collect();
            dg.apply(&ops).unwrap_or_else(|e| panic!("{name}: splice batch: {e}"));
        }
        assert_eq!(dg.graph(), bulk, "{name}: dynamic splice path differs from from_edges");

        // Zero-copy snapshot round trip.
        let snap = to_snapshot(bulk).unwrap_or_else(|e| panic!("{name}: to_snapshot: {e}"));
        let back = from_snapshot(&snap).unwrap_or_else(|e| panic!("{name}: from_snapshot: {e}"));
        assert_eq!(&back, bulk, "{name}: snapshot round trip differs");
    }
}

/// The u32-compact row format caps vertex counts at `u32::MAX`; a
/// larger `n` must be a typed error from the fallible constructor, not
/// an attempted 34 GB offsets allocation (or a silent wrap on the
/// infallible path).
#[test]
fn vertex_counts_beyond_u32_are_rejected() {
    use lmds_graph::{GraphError, MAX_VERTICES};
    let too_many = MAX_VERTICES + 1;
    match Graph::try_from_edges(too_many, std::iter::empty()) {
        Err(GraphError::TooManyVertices { n }) => assert_eq!(n, too_many),
        other => panic!("expected TooManyVertices, got {other:?}"),
    }
    // The boundary itself is representable (but far too large to build
    // here); just below the cap the constructor must not reject for
    // size reasons — probe with a tiny n to pin the accept path.
    assert!(Graph::try_from_edges(3, [(0usize, 1usize)].into_iter()).is_ok());
}

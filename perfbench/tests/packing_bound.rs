//! The packing lower bound never exceeds the exact minimum dominating
//! set, on every small generator family.

use lmds_api::{Instance, SolveConfig, SolverRegistry};
use lmds_graph::Graph;
use lmds_perfbench::packing::packing_lower_bound;

fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("path13".into(), lmds_gen::basic::path(13)),
        ("cycle12".into(), lmds_gen::basic::cycle(12)),
        ("star9".into(), lmds_gen::basic::star(9)),
        ("spider3x4".into(), lmds_gen::basic::spider(3, 4)),
        ("caterpillar6x2".into(), lmds_gen::basic::caterpillar(6, 2)),
        ("complete7".into(), lmds_gen::basic::complete(7)),
        ("grid4x4".into(), lmds_gen::basic::grid(4, 4)),
        ("k2_5".into(), lmds_gen::basic::complete_bipartite(2, 5)),
        ("strip5".into(), lmds_gen::ding::strip(5)),
        ("fan6".into(), lmds_gen::ding::fan(6)),
        ("clique_pendants6".into(), lmds_gen::adversarial::clique_with_pendants(6)),
        ("subdivided_k2t4".into(), lmds_gen::adversarial::subdivided_k2t(4)),
        ("c6".into(), lmds_gen::adversarial::c6()),
        ("long_cycle21".into(), lmds_gen::adversarial::long_cycle(21)),
        ("theta_ring4x2".into(), lmds_gen::composite::theta_ring(4, 2)),
        ("theta_chain3x2".into(), lmds_gen::composite::theta_chain(3, 2)),
        ("necklace3x5".into(), lmds_gen::composite::necklace(3, 5)),
        ("fan_caterpillar4x3".into(), lmds_gen::composite::fan_caterpillar(4, 3)),
        ("kary_tree2d3".into(), lmds_gen::trees::complete_kary_tree(2, 3)),
        ("broom5x4".into(), lmds_gen::trees::broom(5, 4)),
    ];
    for seed in 0..4u64 {
        out.push((format!("tree_s{seed}"), lmds_gen::trees::random_tree(17, seed)));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(14, seed),
        ));
        out.push((
            format!("outerplanar_sparse_s{seed}"),
            lmds_gen::outerplanar::random_outerplanar(16, 30, seed),
        ));
        out.push((format!("gnp_s{seed}"), lmds_gen::random::gnp(14, 20, seed)));
        out.push((format!("scale40_s{seed}"), lmds_gen::scale_instance(40, seed)));
    }
    out
}

#[test]
fn packing_bound_never_exceeds_the_exact_optimum() {
    let registry = SolverRegistry::with_defaults();
    for (name, g) in corpus() {
        let bound = packing_lower_bound(&g);
        let inst = Instance::sequential(name.as_str(), g);
        let exact = registry.solve("mds/exact", &inst, &SolveConfig::mds()).expect("exact solve");
        assert!(bound <= exact.size(), "{name}: bound {bound} > MDS {}", exact.size());
        assert!(bound >= 1 || inst.n() == 0, "{name}: a nonempty graph packs one vertex");
    }
}

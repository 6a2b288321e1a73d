//! The depth-scoped pipeline the Algorithm-1 deciders run on their LOCAL
//! views must agree with the full-view pipeline wherever a decider reads
//! it, and must leave every decision unchanged.
//!
//! For every vertex of the generator corpus (trees, caterpillars,
//! spiders, brooms, outerplanar graphs, the fan/strip chain family and
//! the adversarial cases), at radii (1,2), (2,2), (2,3) and (3,4), and
//! for every round `k ∈ margin..=margin+5` of its oracle view:
//!
//! * scoped `S` equals full-view `S` at depth `≤ k − margin`, and is
//!   `false` (unknown) beyond;
//! * scoped `U` equals full-view `U` at depth `≤ k − margin − 2`;
//! * [`Algorithm1Decider`] and [`MvcAlgorithm1Decider`] return what the
//!   full-view reference deciders below return.
//!
//! The reference deciders are the unscoped decision rules: the same
//! trust arithmetic over masks computed on the whole view.

use lmds_core::algorithm1::{
    pipeline_state, pipeline_state_around, residual_components, solve_component,
};
use lmds_core::distributed::{Algorithm1Decider, MvcAlgorithm1Decider};
use lmds_core::local_cuts::CutEngine;
use lmds_core::Radii;
use lmds_graph::{bfs, ExactBackend, Graph};
use lmds_localsim::{oracle_view, Decider, IdAssignment, LocalView};

const RADII: [(u32, u32); 4] = [(1, 2), (2, 2), (2, 3), (3, 4)];

fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("random_tree", lmds_gen::trees::random_tree(50, 3)),
        ("random_tree_b", lmds_gen::trees::random_tree(40, 8)),
        ("caterpillar", lmds_gen::basic::caterpillar(16, 2)),
        ("spider", lmds_gen::basic::spider(5, 7)),
        ("broom", lmds_gen::trees::broom(16, 8)),
        ("max_outerplanar", lmds_gen::outerplanar::random_maximal_outerplanar(36, 4)),
        ("outerplanar", lmds_gen::outerplanar::random_outerplanar(44, 50, 6)),
        ("cycle", lmds_gen::basic::cycle(24)),
        ("strip", lmds_gen::ding::strip(10)),
        ("fan", lmds_gen::ding::fan(8)),
        ("theta_ring", lmds_gen::composite::theta_ring(4, 2)),
        ("clique_pendants", lmds_gen::adversarial::clique_with_pendants(5)),
        ("scale", lmds_gen::scale_instance(60, 2)),
    ]
}

fn margin(radii: Radii) -> i64 {
    i64::from(radii.one_cut.max(2 * radii.two_cut)) + 2
}

/// The Algorithm-1 decision rule on the full-view pipeline.
fn full_view_algorithm1(radii: Radii, view: &LocalView) -> Option<bool> {
    let (k, margin) = (i64::from(view.rounds()), margin(radii));
    if k < margin {
        return None;
    }
    let (vg, vids) = view.to_graph();
    let center = view.center_index();
    let dist = bfs::bfs_distances(&vg, center);
    let state = pipeline_state(&vg, &vids, radii);
    if !state.kept_mask[center] {
        return Some(false);
    }
    let cr = state.reduced.from_host(center).expect("kept center is in the quotient");
    if state.s[cr] {
        return Some(true);
    }
    if k < margin + 2 {
        return None;
    }
    if state.u[cr] {
        return Some(false);
    }
    let limit = k - margin - 3;
    if limit < 0 {
        return None;
    }
    let comp = residual_components(&state)
        .into_iter()
        .find(|c| c.binary_search(&cr).is_ok())
        .expect("center is in some residual component");
    let trusted = |w: usize| dist[state.reduced.to_host(w)].is_some_and(|d| i64::from(d) <= limit);
    if !comp.iter().all(|&w| trusted(w)) {
        return None;
    }
    Some(solve_component(&state, &vids, &comp).contains(&center))
}

/// The MVC Algorithm-1 decision rule on full-view masks.
fn full_view_mvc(radii: Radii, view: &LocalView) -> Option<bool> {
    let (k, margin) = (i64::from(view.rounds()), margin(radii));
    if k < margin + 1 {
        return None;
    }
    let (vg, vids) = view.to_graph();
    let center = view.center_index();
    let dist = bfs::bfs_distances(&vg, center);
    let mut engine = CutEngine::new();
    let one = engine.one_cut_mask(&vg, radii.one_cut);
    let two = engine.two_cut_endpoint_mask(&vg, radii.two_cut);
    let in_s: Vec<bool> = one.into_iter().zip(two).map(|(a, b)| a || b).collect();
    if in_s[center] {
        return Some(true);
    }
    if vg.neighbors(center).iter().all(|&u| in_s[u as usize]) {
        return Some(false);
    }
    let limit = k - margin - 2;
    if limit < 0 {
        return None;
    }
    // The center's component of uncovered edges, which must lie within
    // the trusted depth.
    let trusted = |w: usize| dist[w].is_some_and(|d| i64::from(d) <= limit);
    let mut comp = vec![center];
    let mut seen = vec![false; vg.n()];
    seen[center] = true;
    let mut stack = vec![center];
    while let Some(u) = stack.pop() {
        for &w in vg.neighbors(u) {
            let w = w as usize;
            if !in_s[w] && !in_s[u] && !seen[w] {
                seen[w] = true;
                if !trusted(w) {
                    return None;
                }
                comp.push(w);
                stack.push(w);
            }
        }
    }
    comp.sort_by_key(|&v| vids[v]);
    let index_of = |w: usize| comp.iter().position(|&c| c == w);
    let mut edges = Vec::new();
    for (li, &v) in comp.iter().enumerate() {
        for &w in vg.neighbors(v) {
            match index_of(w as usize) {
                Some(lj) if li < lj && !in_s[v] && !in_s[w as usize] => edges.push((li, lj)),
                _ => {}
            }
        }
    }
    let local = Graph::from_edges(comp.len(), &edges);
    let cover = lmds_graph::exact::with_thread_engine(|e| {
        e.solve_mvc(&local, ExactBackend::Auto, u64::MAX)
    })
    .expect("unbounded budget");
    Some(cover.contains(&index_of(center).expect("center is in its component")))
}

#[test]
fn scoped_statuses_match_the_full_view_where_the_deciders_read_them() {
    let (mut checked_s, mut checked_u, mut solved) = (0usize, 0usize, 0usize);
    for (name, g) in corpus() {
        let ids = IdAssignment::shuffled(g.n(), g.n() as u64);
        for (r1, r2) in RADII {
            let radii = Radii::practical(r1, r2);
            let margin = margin(radii);
            let (alg1, mvc) = (Algorithm1Decider { radii }, MvcAlgorithm1Decider { radii });
            for v in g.vertices() {
                for k in margin..=margin + 5 {
                    let view = oracle_view(&g, &ids, v, k as u32);
                    let at = format!("{name} ({r1},{r2}) v={v} k={k}");
                    let (vg, vids) = view.to_graph();
                    let center = view.center_index();
                    let dist = bfs::bfs_distances(&vg, center);
                    let depth = k - margin;
                    let full = pipeline_state(&vg, &vids, radii);
                    let scoped = pipeline_state_around(&vg, &vids, radii, center, depth as u32);
                    assert_eq!(scoped.kept_mask, full.kept_mask, "{at}");
                    for w in 0..full.reduced.graph.n() {
                        let d =
                            i64::from(dist[full.reduced.to_host(w)].expect("views are connected"));
                        if d <= depth {
                            assert_eq!(scoped.s[w], full.s[w], "{at}: S at depth {d}");
                            checked_s += 1;
                        } else {
                            assert!(!scoped.s[w], "{at}: S known at depth {d} > {depth}");
                        }
                        if d <= depth - 2 {
                            assert_eq!(scoped.u[w], full.u[w], "{at}: U at depth {d}");
                            checked_u += 1;
                        }
                    }
                    let got = alg1.decide(&view);
                    assert_eq!(got, full_view_algorithm1(radii, &view), "{at}: algorithm1");
                    assert_eq!(mvc.decide(&view), full_view_mvc(radii, &view), "{at}: mvc");
                    // Decided by solving its residual component.
                    let residual = full
                        .reduced
                        .from_host(center)
                        .is_some_and(|cr| got.is_some() && !full.s[cr] && !full.u[cr]);
                    solved += usize::from(residual);
                }
            }
        }
    }
    // The sweep reaches the residual-component branch, not just S.
    assert!(checked_s > 0 && checked_u > 0 && solved > 0, "{checked_s} {checked_u} {solved}");
}

//! Algorithm 1 (Theorem 4.1) and its Algorithm 2 generalization
//! (Theorem 4.3): the constant-approximation pipeline.
//!
//! Pipeline on input `G` with radii `(r₁, r₂) = (m_{3.2}, m_{3.3})`:
//!
//! 1. **Twin reduction** — replace `G` by its true-twin-less quotient
//!    `R`, keeping the minimum-*identifier* vertex of each class (the
//!    identifier, not the index, so the distributed version computes the
//!    same quotient).
//! 2. **`X`** — all vertices of `R` in `r₁`-local minimal 1-cuts.
//! 3. **`I`** — all `r₂`-interesting vertices of `r₂`-local minimal
//!    2-cuts of `R`.
//! 4. **Brute force** — with `S = X ∪ I`, `U = {u ∈ N[S] : N[u] ⊆ N[S]}`
//!    (dominated vertices with no undominated neighbor), every component
//!    `C` of `R − (S ∪ U)` solves `MDS(R, C ∖ N[S])` exactly; candidates
//!    automatically lie inside `C`.
//!
//! The output always dominates `G` (for *any* radii); the theoretical
//! radii are what the proved ratio requires. All tie-breaking is by
//! identifier so the centralized reference and the LOCAL deciders in
//! [`crate::distributed`] produce identical sets.

use crate::local_cuts;
use crate::radii::Radii;
use lmds_graph::{par, ExactBackend, FixedBitSet, Graph, InducedSubgraph, Vertex};
use lmds_localsim::IdAssignment;

/// Everything the pipeline computes, exposed for the lemma-level
/// experiments (Lemmas 3.2, 3.3, 4.2 all measure intermediate sets).
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    /// The returned dominating set (host vertices, sorted).
    pub solution: Vec<Vertex>,
    /// Vertices kept by the twin reduction (host, sorted).
    pub kept: Vec<Vertex>,
    /// `X`: local-1-cut vertices of the quotient (host, sorted).
    pub x_set: Vec<Vertex>,
    /// `I`: interesting local-2-cut vertices of the quotient (host,
    /// sorted).
    pub i_set: Vec<Vertex>,
    /// `U`: dominated vertices with no undominated neighbor (host,
    /// sorted).
    pub u_set: Vec<Vertex>,
    /// Residual components of `R − (S ∪ U)` (host vertices, each
    /// sorted).
    pub residual_components: Vec<Vec<Vertex>>,
    /// Vertices added by the brute-force step (host, sorted).
    pub brute_selected: Vec<Vertex>,
}

/// Per-vertex masks over the twin-free quotient `R`, the shared state of
/// the centralized pipeline and the distributed deciders.
#[derive(Debug, Clone)]
pub struct PipelineState {
    /// Indexed by input-graph vertex: kept by twin reduction?
    pub kept_mask: Vec<bool>,
    /// The quotient `R` (host = the input graph of `pipeline_state`).
    pub reduced: InducedSubgraph,
    /// `R`-local masks.
    pub x: Vec<bool>,
    /// `R`-local: interesting vertices.
    pub i: Vec<bool>,
    /// `R`-local: `S = X ∪ I`.
    pub s: Vec<bool>,
    /// `R`-local: dominated by `S` (`N_R[S]`).
    pub dominated: Vec<bool>,
    /// `R`-local: `U`.
    pub u: Vec<bool>,
}

/// Ablation switches for [`algorithm1_with`]: each disables one design
/// decision of the paper's pipeline so its contribution can be measured
/// (the `ablation` benches and E10 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Step 1: collapse true twins first (paper default `true`).
    pub twin_reduction: bool,
    /// Step 3: take only *interesting* 2-cut vertices (`true`, paper) or
    /// every local-2-cut vertex (`false` — correct but ω(MDS) on the
    /// clique-with-pendants family).
    pub interesting_filter: bool,
    /// Step 4: exact brute force (`true`, paper) or the greedy cover
    /// heuristic (`false`).
    pub exact_brute: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { twin_reduction: true, interesting_filter: true, exact_brute: true }
    }
}

/// Computes the twin reduction and the `X`/`I`/`S`/dominated/`U` masks
/// on `g` with identifier-based tie-breaking.
///
/// `ids[v]` is the identifier of vertex `v`; the functions here only
/// ever *compare* identifiers.
pub fn pipeline_state(g: &Graph, ids: &[u64], radii: Radii) -> PipelineState {
    pipeline_state_with(g, ids, radii, PipelineOptions::default())
}

/// [`pipeline_state`] with ablation switches.
pub fn pipeline_state_with(
    g: &Graph,
    ids: &[u64],
    radii: Radii,
    opts: PipelineOptions,
) -> PipelineState {
    assert_eq!(g.n(), ids.len(), "one identifier per vertex");
    // Twin classes; keep minimum-id member.
    let mut kept_mask = vec![true; g.n()];
    if opts.twin_reduction {
        kept_mask.fill(false);
        for class in lmds_graph::twins::twin_classes(g) {
            let rep =
                class.iter().copied().min_by_key(|&v| ids[v]).expect("twin classes are nonempty");
            kept_mask[rep] = true;
        }
    }
    let kept: Vec<Vertex> = g.vertices().filter(|&v| kept_mask[v]).collect();
    let reduced = InducedSubgraph::new(g, &kept);
    let rg = &reduced.graph;
    let rn = rg.n();

    // Both masks ride the shared-work CutEngine (only candidate pairs
    // profiled, each once; sharded per-vertex passes on large
    // quotients).
    let (x, i) = local_cuts::with_thread_engine(|engine| {
        let x = engine.one_cut_mask(rg, radii.one_cut);
        let i = if opts.interesting_filter {
            engine.interesting_mask(rg, radii.two_cut)
        } else {
            engine.two_cut_endpoint_mask(rg, radii.two_cut)
        };
        (x, i)
    });
    let s: Vec<bool> = (0..rn).map(|v| x[v] || i[v]).collect();
    let (dominated, u) = domination_masks(rg, &s);
    PipelineState { kept_mask, reduced, x, i, s, dominated, u }
}

/// Computes the dominated mask `N_R[S]` and the `U` filter (distance-≤2
/// information from `S`) over the quotient `rg`. The dominated mask is
/// built as packed bitsets — [`par::fold`] workers scatter into private
/// shards that merge by word-wise OR — and `U` is filled per vertex, so
/// the result is independent of worker count and schedule.
fn domination_masks(rg: &Graph, s: &[bool]) -> (Vec<bool>, Vec<bool>) {
    let rn = rg.n();
    let workers = par::workers(rn, par::SWEEP_GRAIN);
    let dominated_bits = par::fold(
        rn,
        workers,
        || FixedBitSet::zeros(rn),
        |bits, v| {
            if s[v] {
                bits.set(v);
                for &w in rg.neighbors(v) {
                    bits.set(w as usize);
                }
            }
        },
        |mut acc, part| {
            acc.union_with(&part);
            acc
        },
    );
    let mut u = vec![false; rn];
    par::fill(
        &mut u,
        workers,
        || (),
        |_, v| {
            dominated_bits.contains(v)
                && !s[v]
                && rg.neighbors(v).iter().all(|&w| dominated_bits.contains(w as usize))
        },
    );
    (dominated_bits.to_bools(), u)
}

/// Solves one residual component exactly and canonically: the instance
/// is built with vertices ordered by identifier, so every node of the
/// component reconstructs the identical optimum.
///
/// `comp` is given in `R`-local indices; the result is in host indices
/// of the graph `pipeline_state` ran on.
pub fn solve_component(state: &PipelineState, ids: &[u64], comp: &[Vertex]) -> Vec<Vertex> {
    solve_component_with(state, ids, comp, true)
}

/// [`solve_component`] with a switch between the exact solver (paper)
/// and the greedy heuristic (ablation).
pub fn solve_component_with(
    state: &PipelineState,
    ids: &[u64],
    comp: &[Vertex],
    exact: bool,
) -> Vec<Vertex> {
    let rg = &state.reduced.graph;
    let targets_r: Vec<Vertex> = comp.iter().copied().filter(|&v| !state.dominated[v]).collect();
    if targets_r.is_empty() {
        return Vec::new();
    }
    // Canonical ordering: component sorted by identifier. Membership
    // is a binary search over a sorted copy plus a dense rank Vec — no
    // hashing on this hot loop, and (like the old HashMap index) any
    // input order of `comp` works.
    let mut order: Vec<Vertex> = comp.to_vec();
    order.sort_by_key(|&v| ids[state.reduced.to_host(v)]);
    let mut sorted: Vec<Vertex> = comp.to_vec();
    sorted.sort_unstable();
    let mut rank = vec![0usize; sorted.len()];
    for (li, &v) in order.iter().enumerate() {
        let j = sorted.binary_search(&v).expect("order permutes comp");
        rank[j] = li;
    }
    let index_of = |w: Vertex| sorted.binary_search(&w).ok().map(|j| rank[j]);
    let mut local_edges = Vec::new();
    for (li, &v) in order.iter().enumerate() {
        for &w in rg.neighbors(v) {
            if let Some(lj) = index_of(w as Vertex) {
                if li < lj {
                    local_edges.push((li, lj));
                }
            }
        }
    }
    let local = Graph::from_edges(order.len(), &local_edges);
    let targets_local: Vec<Vertex> =
        targets_r.iter().map(|v| index_of(*v).expect("targets lie inside the component")).collect();
    let sol_local = if exact {
        // The multi-backend exact engine (reductions + B&B/treewidth
        // DP), through the thread-local arena pool: the adaptive LOCAL
        // deciders re-solve many small components per simulation, and
        // every node must reconstruct the identical optimum — the
        // engine is deterministic per instance, so the canonical
        // id-ordered encoding above guarantees that.
        lmds_graph::exact::with_thread_engine(|e| {
            e.solve_b_dominating(&local, &targets_local, None, ExactBackend::Auto, u64::MAX)
        })
        .expect("component instance is feasible: targets dominate themselves")
    } else {
        lmds_graph::dominating::greedy_b_dominating(&local, &targets_local, None)
    };
    sol_local.into_iter().map(|li| state.reduced.to_host(order[li])).collect()
}

/// Solves every residual component (sorted, deduped union of the
/// per-component exact solutions, in host indices). Components are
/// independent exact instances of uneven size, so [`par::drain`] hands
/// them out one at a time (each worker on its own thread-local exact
/// engine); the final sort erases the claim order.
fn solve_residuals(
    state: &PipelineState,
    ids: &[u64],
    comps: &[Vec<Vertex>],
    exact: bool,
) -> Vec<Vertex> {
    let workers = par::workers(state.reduced.graph.n(), par::BALL_GRAIN);
    let mut selected: Vec<Vertex> = par::drain(
        comps.len(),
        workers,
        || (),
        |_, k| solve_component_with(state, ids, &comps[k], exact),
    )
    .concat();
    selected.sort_unstable();
    selected.dedup();
    selected
}

/// The residual components of `R − (S ∪ U)` in `R`-local indices.
pub fn residual_components(state: &PipelineState) -> Vec<Vec<Vertex>> {
    let rg = &state.reduced.graph;
    let removed: Vec<bool> = (0..rg.n()).map(|v| state.s[v] || state.u[v]).collect();
    lmds_graph::connectivity::components_avoiding(rg, &removed)
}

/// Algorithm 1 / Algorithm 2, centralized reference.
///
/// Use [`Radii::theoretical`] for the paper's parameterization or
/// [`Radii::practical`] for simulable-scale sweeps; the output is a
/// dominating set of `g` either way.
pub fn algorithm1(g: &Graph, ids: &IdAssignment, radii: Radii) -> Algorithm1Output {
    algorithm1_with(g, ids, radii, PipelineOptions::default())
}

/// [`algorithm1`] with ablation switches (see [`PipelineOptions`]).
pub fn algorithm1_with(
    g: &Graph,
    ids: &IdAssignment,
    radii: Radii,
    opts: PipelineOptions,
) -> Algorithm1Output {
    let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
    let state = pipeline_state_with(g, &id_vec, radii, opts);
    let rg_n = state.reduced.graph.n();
    let to_host = |mask: &[bool]| -> Vec<Vertex> {
        (0..rg_n).filter(|&v| mask[v]).map(|v| state.reduced.to_host(v)).collect()
    };
    let x_set = to_host(&state.x);
    let i_set = to_host(&state.i);
    let u_set = to_host(&state.u);
    let kept: Vec<Vertex> = g.vertices().filter(|&v| state.kept_mask[v]).collect();

    let comps = residual_components(&state);
    let brute_selected = solve_residuals(&state, &id_vec, &comps, opts.exact_brute);

    let mut solution: Vec<Vertex> = Vec::new();
    solution.extend(&x_set);
    solution.extend(&i_set);
    solution.extend(&brute_selected);
    solution.sort_unstable();
    solution.dedup();

    let residual_host: Vec<Vec<Vertex>> = comps
        .iter()
        .map(|c| {
            let mut h: Vec<Vertex> = c.iter().map(|&v| state.reduced.to_host(v)).collect();
            h.sort_unstable();
            h
        })
        .collect();

    Algorithm1Output {
        solution,
        kept,
        x_set,
        i_set,
        u_set,
        residual_components: residual_host,
        brute_selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::dominating::{exact_mds, is_dominating_set};
    use lmds_graph::GraphBuilder;

    fn seq(n: usize) -> IdAssignment {
        IdAssignment::sequential(n)
    }

    fn run(g: &Graph, r1: u32, r2: u32) -> Algorithm1Output {
        algorithm1(g, &seq(g.n()), Radii::practical(r1, r2))
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn output_dominates_on_structured_graphs() {
        let graphs = vec![
            cycle(12),
            lmds_gen::basic::path(15),
            lmds_gen::basic::star(6),
            lmds_gen::ding::strip(5),
            lmds_gen::ding::fan(4),
            lmds_gen::adversarial::clique_with_pendants(5),
            lmds_gen::outerplanar::random_maximal_outerplanar(12, 3),
        ];
        for g in &graphs {
            for (r1, r2) in [(1, 2), (2, 3), (3, 5)] {
                let out = run(g, r1, r2);
                assert!(
                    is_dominating_set(g, &out.solution),
                    "not dominating: {g:?} radii ({r1},{r2})"
                );
            }
        }
    }

    #[test]
    fn long_cycle_takes_all_local_one_cuts() {
        // With a small radius every vertex of a long cycle is an X
        // vertex — solution = everything (the cautionary example for why
        // the *theoretical* radius matters for the ratio).
        let g = cycle(20);
        let out = run(&g, 2, 2);
        assert_eq!(out.x_set.len(), 20);
        // With the ball wrapping radius, no local 1-cuts: the cycle is
        // solved by brute force on bounded components... but a full
        // cycle has no cuts at all, so S = ∅ and one residual component.
        let out2 = run(&g, 10, 10);
        assert!(out2.x_set.is_empty());
        // ... but every vertex of a long cycle is *interesting* at the
        // wrapping radius (C_{≥6} behaves like the C6 example in §5.3),
        // so the solution is still all of V. The ratio is rescued only
        // by Lemma 3.2/3.3's counting at the theoretical radius, which
        // exceeds n here — on graphs this small the cycle is simply a
        // constant-size instance.
        assert_eq!(out2.i_set.len(), 20);
        assert!(is_dominating_set(&g, &out2.solution));
    }

    #[test]
    fn clique_pendant_family_stays_near_optimal() {
        // MDS = 1; the interesting-vertex filter must keep the solution
        // O(1) even though Θ(n) vertices sit in 2-cuts.
        for n in [4, 6, 8] {
            let g = lmds_gen::adversarial::clique_with_pendants(n);
            let out = run(&g, 3, 4);
            assert!(is_dominating_set(&g, &out.solution));
            assert!(out.solution.len() <= 5, "n={n}: solution {:?}", out.solution);
        }
    }

    #[test]
    fn twin_reduction_uses_ids() {
        // Triangle: all three are true twins; the kept vertex must be
        // the minimum-*identifier* one.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let ids = IdAssignment::from_ids(vec![5, 1, 9]);
        let out = algorithm1(&g, &ids, Radii::practical(2, 2));
        assert_eq!(out.kept, vec![1]);
        assert!(is_dominating_set(&g, &out.solution));
        assert_eq!(out.solution, vec![1]);
    }

    #[test]
    fn residual_components_have_bounded_diameter_on_strips() {
        // Lemma 4.2's content: on a long strip, local cuts chop the
        // residual into pieces whose diameter is O(radius), not O(n).
        let g = lmds_gen::ding::strip(20);
        let out = run(&g, 2, 3);
        for comp in &out.residual_components {
            let sub = lmds_graph::InducedSubgraph::new(&g, comp);
            if let Some(d) = lmds_graph::bfs::diameter(&sub.graph) {
                assert!(d <= 16, "component diameter {d} too large");
            }
        }
        assert!(is_dominating_set(&g, &out.solution));
    }

    #[test]
    fn solution_members_partition_consistently() {
        let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 2, 7).generate();
        let out = run(&g, 2, 3);
        assert!(is_dominating_set(&g, &out.solution));
        // X, I ⊆ solution; brute ⊆ solution.
        for &v in out.x_set.iter().chain(&out.i_set).chain(&out.brute_selected) {
            assert!(out.solution.binary_search(&v).is_ok());
        }
        // U is disjoint from S.
        for &v in &out.u_set {
            assert!(out.x_set.binary_search(&v).is_err());
            assert!(out.i_set.binary_search(&v).is_err());
        }
    }

    #[test]
    fn ablations_stay_correct_but_degrade() {
        // Every ablation still returns a dominating set; the
        // interesting-filter ablation blows up on the clique+pendants
        // family exactly as §4 predicts.
        let g = lmds_gen::adversarial::clique_with_pendants(7);
        let ids = seq(g.n());
        let radii = Radii::practical(3, 4);
        let full = algorithm1(&g, &ids, radii);
        for opts in [
            PipelineOptions { twin_reduction: false, ..Default::default() },
            PipelineOptions { interesting_filter: false, ..Default::default() },
            PipelineOptions { exact_brute: false, ..Default::default() },
        ] {
            let out = algorithm1_with(&g, &ids, radii, opts);
            assert!(is_dominating_set(&g, &out.solution), "{opts:?}");
        }
        let no_filter = algorithm1_with(
            &g,
            &ids,
            radii,
            PipelineOptions { interesting_filter: false, ..Default::default() },
        );
        assert!(
            no_filter.solution.len() > full.solution.len(),
            "dropping the interesting filter must cost on this family: {} vs {}",
            no_filter.solution.len(),
            full.solution.len()
        );
    }

    #[test]
    fn greedy_brute_never_beats_exact() {
        let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 2, 4).generate();
        let ids = seq(g.n());
        let radii = Radii::practical(2, 3);
        let exact = algorithm1(&g, &ids, radii);
        let greedy = algorithm1_with(
            &g,
            &ids,
            radii,
            PipelineOptions { exact_brute: false, ..Default::default() },
        );
        assert!(is_dominating_set(&g, &greedy.solution));
        assert!(greedy.solution.len() >= exact.solution.len());
    }

    #[test]
    fn sharded_phases_match_sequential() {
        // Every data-parallel phase, forced through `par::with_workers`
        // to each worker count (bypassing the grains, so these small
        // graphs take the multi-worker paths on any host), must
        // reproduce the one-worker result exactly; the oracle likewise
        // at each worker count.
        use crate::distributed::Algorithm1Decider;
        use crate::local_cuts::CutEngine;
        use lmds_graph::twins::twin_representatives;
        use lmds_localsim::OracleRuntime;
        let radii = Radii::practical(2, 3);
        let phases = |g: &Graph, ids: &IdAssignment| {
            let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
            let state = pipeline_state(g, &id_vec, radii);
            let mut engine = CutEngine::new();
            let out = algorithm1(g, ids, radii);
            (
                twin_representatives(g),
                engine.one_cut_mask(g, radii.one_cut),
                engine.interesting_mask(g, radii.two_cut),
                engine.two_cut_endpoint_mask(g, radii.two_cut),
                (state.dominated, state.u),
                (out.residual_components, out.brute_selected),
            )
        };
        let graphs = [
            lmds_gen::scale_instance(120, 1),
            lmds_gen::ding::AugmentationSpec::standard(8, 4, 3, 21).generate(),
            cycle(40),
            lmds_gen::adversarial::clique_with_pendants(6),
        ];
        for (seed, g) in graphs.iter().enumerate() {
            let ids = IdAssignment::shuffled(g.n(), seed as u64);
            let reference = par::with_workers(1, || phases(g, &ids));
            if seed == 0 {
                assert!(reference.5 .0.len() > 1, "several residual components to drain");
            }
            let decider = Algorithm1Decider { radii };
            let oracle = OracleRuntime.run(g, &ids, &decider, 200).expect("oracle run decides");
            for workers in [1, 2, 4, 7] {
                let got = par::with_workers(workers, || phases(g, &ids));
                assert!(got == reference, "graph {seed}: workers={workers} changed a phase");
                let sharded =
                    par::with_workers(workers, || OracleRuntime.run(g, &ids, &decider, 200))
                        .expect("sharded run decides");
                assert_eq!(sharded.outputs, oracle.outputs, "graph {seed}: threads={workers}");
                assert_eq!(
                    sharded.decided_at, oracle.decided_at,
                    "graph {seed}: threads={workers}"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g0 = Graph::new(0);
        let out = algorithm1(&g0, &seq(0), Radii::practical(1, 2));
        assert!(out.solution.is_empty());
        let g1 = Graph::new(1);
        let out = algorithm1(&g1, &seq(1), Radii::practical(1, 2));
        assert_eq!(out.solution, vec![0]);
        let g2 = Graph::from_edges(2, &[(0, 1)]);
        let out = algorithm1(&g2, &seq(2), Radii::practical(1, 2));
        assert!(is_dominating_set(&g2, &out.solution));
        assert_eq!(out.solution.len(), 1);
    }

    #[test]
    fn theoretical_radii_reduce_to_whole_graph_brute_on_small_inputs() {
        // On C5 no vertex is a local 1-cut at wrapping radius and no
        // vertex is interesting (§5.3: C_k with k ≤ 5 has none), so the
        // brute-force step solves the whole graph exactly.
        let g = cycle(5);
        let out = algorithm1(&g, &seq(5), Radii::theoretical(2));
        assert!(out.x_set.is_empty());
        assert!(out.i_set.is_empty());
        assert_eq!(out.solution.len(), exact_mds(&g).len());
    }
}

//! Local cuts (Definition 2.1) and interesting vertices (§3.2).
//!
//! * `{v}` is an **`r`-local minimal 1-cut** iff `v` is a cut vertex of
//!   `G[N^r[v]]`.
//! * `{u, v}` (with `d_G(u,v) ≤ r`) is an **`r`-local minimal 2-cut**
//!   iff it is a minimal 2-cut of `H = G[N^r[u] ∪ N^r[v]]`.
//! * `v` is **`r`-interesting** iff some `r`-local minimal 2-cut
//!   `c = {u, v}` has `N[v] ⊄ N[u]` and at least two components of
//!   `H − c` each contain a vertex non-adjacent to `u`.
//!
//! Two implementations live here:
//!
//! * The **[`CutEngine`]** — the production path. One engine run
//!   computes every per-vertex ball exactly once, evaluates each
//!   unordered candidate pair `{u, v}` exactly once (both
//!   interestingness orientations fall out of a single
//!   [`pair_profile_within`](lmds_graph::two_cuts::pair_profile_within)
//!   component scan of `H − {u, v}`, with no subgraph ever
//!   materialized), and shards the per-vertex outer loops through
//!   [`lmds_graph::par`] on large graphs. All whole-graph queries
//!   ([`local_one_cut_vertices`], [`local_two_cuts`],
//!   [`interesting_vertices`]) and the Algorithm 1 pipeline ride it via
//!   the thread-local [`with_thread_engine`] pool.
//! * The **naive reference predicates** ([`is_local_one_cut`],
//!   [`is_local_two_cut`], [`is_interesting_via`], [`is_interesting`]) —
//!   direct transcriptions of Definition 2.1/§3.2 that extract each
//!   subgraph explicitly. They are the correctness oracle: the
//!   equivalence suite (`tests/cut_engine_equivalence.rs`) asserts the
//!   engine matches them bit-for-bit across the generator corpus, so
//!   engine outputs are byte-identical to the pre-engine ones.
//!
//! The distributed algorithms recompute the same predicates from node
//! views and are tested to agree.

use lmds_graph::bfs;
use lmds_graph::par;
use lmds_graph::scratch::Scratch;
use lmds_graph::two_cuts;
use lmds_graph::{Graph, InducedSubgraph, SubsetScratch, Vertex};
use std::cell::RefCell;

/// The shared-work engine behind every Definition-2.1 predicate sweep.
///
/// What is shared within one run, and why the outputs cannot drift from
/// the naive reference:
///
/// * **Balls once.** Every `N^r[v]` is computed once into a flat CSR-ish
///   index; the naive path re-derives balls per pair and re-checks
///   `d(u, v)` with a full-graph BFS, but "`d(u, v) ≤ r`" is exactly
///   "`v ∈ N^r[u]`" — a lookup in the index, same predicate.
/// * **Pairs once.** `{u, v}` and `{v, u}` name the same cut `H`; the
///   engine scans `H − {u, v}` once and reads off both interestingness
///   orientations (witness components non-adjacent to `u` mark `v`, and
///   vice versa), where the naive path rebuilds `H` up to four times.
/// * **No subgraphs.** Minimality and witness counts come from
///   [`two_cuts::pair_profile_within`] /
///   [`articulation::is_cut_vertex_within`](lmds_graph::articulation::is_cut_vertex_within),
///   which traverse `G` restricted to an epoch-marked member set —
///   no `InducedSubgraph` construction, no per-pair allocation.
/// * **Sharding is observation-free.** The per-vertex outer loops run
///   through [`lmds_graph::par`]: the 1-cut mask is filled per vertex,
///   and each pair-sweep worker marks a private monotone mask that is
///   OR-merged, so the result is independent of the worker count and
///   schedule.
///
/// A `CutEngine` holds only the ball index of its last run (the
/// traversal buffers live in a per-thread pool, so every sweep worker
/// has its own); it holds no graph state between runs and may serve
/// graphs of different sizes back to back.
///
/// **Memory profile:** the pair sweeps hold every ball of the run at
/// once — `O(Σ_v |N^r[v]|)` words. That is the deliberate trade of
/// this engine (balls are the shared work), sized for the paper's
/// regime: minor-free graphs at small local radii, where balls are
/// bounded. At radii near the diameter, or on dense graphs, the index
/// degenerates to `Θ(n²)` — the same regime where the predicates
/// themselves are quadratic; keep such runs to analysis-scale inputs
/// (as the pre-engine implementations also required).
#[derive(Debug, Default)]
pub struct CutEngine {
    /// Flat per-vertex ball index for the current radius-`r` run.
    ball_offsets: Vec<usize>,
    ball_verts: Vec<Vertex>,
}

/// The traversal buffers one sweep worker reuses across vertices.
#[derive(Debug, Default)]
struct SweepBuffers {
    scratch: Scratch,
    subset: SubsetScratch,
    /// Merge buffer for `H = N^r[u] ∪ N^r[v]`.
    merged: Vec<Vertex>,
    /// Single-ball buffer.
    ball: Vec<Vertex>,
}

impl SweepBuffers {
    fn one_cut_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        bfs::ball_of_set_into(g, &mut self.scratch, &[v], r, &mut self.ball);
        lmds_graph::articulation::is_cut_vertex_within(g, &mut self.subset, &self.ball, v)
    }
}

/// What the pair sweep records into the mask.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PairMode {
    /// Mark `v` iff interesting via some friend (the §3.2 filter).
    Interesting,
    /// Mark both endpoints of every local minimal 2-cut.
    Endpoints,
}

impl CutEngine {
    /// A fresh engine (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The mask of `r`-local minimal 1-cut vertices: `mask[v]` iff `v`
    /// is a cut vertex of `G[N^r[v]]`. Equals [`is_local_one_cut`] per
    /// vertex.
    pub fn one_cut_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        let mut mask = vec![false; g.n()];
        let workers = par::workers(g.n(), par::BALL_GRAIN);
        par::fill(&mut mask, workers, || (), |_, v| with_sweep_buffers(|b| b.one_cut_at(g, v, r)));
        mask
    }

    /// The mask of `r`-interesting vertices. Equals [`is_interesting`]
    /// per vertex.
    pub fn interesting_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        self.pair_mask(g, r, PairMode::Interesting)
    }

    /// The mask of vertices lying in *some* `r`-local minimal 2-cut
    /// (both endpoints, no interestingness filter — the MVC variant's
    /// `S` contribution and the `interesting_filter: false` ablation).
    pub fn two_cut_endpoint_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        self.pair_mask(g, r, PairMode::Endpoints)
    }

    /// All `r`-local minimal 2-cuts as `(u, v)` pairs with `u < v`,
    /// sorted — [`local_two_cuts`]' engine. Every qualifying pair is
    /// evaluated (no early exit), each exactly once.
    pub fn two_cuts(&mut self, g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
        self.compute_balls(g, r);
        let ball = |w: Vertex| &self.ball_verts[self.ball_offsets[w]..self.ball_offsets[w + 1]];
        with_sweep_buffers(|b| {
            let mut out = Vec::new();
            for u in g.vertices() {
                for &v in ball(u) {
                    if v <= u {
                        continue;
                    }
                    merge_sorted(ball(u), ball(v), &mut b.merged);
                    let profile = two_cuts::pair_profile_within(g, &mut b.subset, &b.merged, u, v);
                    if profile.is_minimal_two_cut() {
                        out.push((u, v));
                    }
                }
            }
            out
        })
    }

    /// Fills the flat ball index for radius `r`.
    fn compute_balls(&mut self, g: &Graph, r: u32) {
        self.ball_offsets.clear();
        self.ball_verts.clear();
        self.ball_offsets.push(0);
        with_sweep_buffers(|b| {
            for v in g.vertices() {
                bfs::ball_of_set_into(g, &mut b.scratch, &[v], r, &mut b.ball);
                self.ball_verts.extend_from_slice(&b.ball);
                self.ball_offsets.push(self.ball_verts.len());
            }
        });
    }

    /// The shared pair sweep: every unordered pair `{u, v}` with
    /// `d(u, v) ≤ r` (read off the ball index) evaluated once. Pairs
    /// whose both endpoints are already marked are skipped — marking is
    /// monotone, so this prunes work without changing the result.
    fn pair_mask(&mut self, g: &Graph, r: u32, mode: PairMode) -> Vec<bool> {
        self.compute_balls(g, r);
        let n = g.n();
        let (offsets, verts) = (&self.ball_offsets, &self.ball_verts);
        par::fold(
            n,
            par::workers(n, par::BALL_GRAIN),
            || vec![false; n],
            |mask, u| with_sweep_buffers(|b| scan_pairs_for(g, offsets, verts, b, u, mode, mask)),
            |mut acc, part| {
                for (m, p) in acc.iter_mut().zip(part) {
                    *m |= p;
                }
                acc
            },
        )
    }
}

/// One outer-loop step of the pair sweep: all pairs `{u, v}` with
/// `v ∈ N^r[u]`, `v > u`, marked into the worker's `mask`.
fn scan_pairs_for(
    g: &Graph,
    ball_offsets: &[usize],
    ball_verts: &[Vertex],
    buffers: &mut SweepBuffers,
    u: Vertex,
    mode: PairMode,
    mask: &mut [bool],
) {
    let ball = |w: Vertex| &ball_verts[ball_offsets[w]..ball_offsets[w + 1]];
    for &v in ball(u) {
        if v <= u || (mask[u] && mask[v]) {
            continue;
        }
        merge_sorted(ball(u), ball(v), &mut buffers.merged);
        let profile = two_cuts::pair_profile_within(g, &mut buffers.subset, &buffers.merged, u, v);
        if !profile.is_minimal_two_cut() {
            continue;
        }
        match mode {
            PairMode::Endpoints => {
                mask[u] = true;
                mask[v] = true;
            }
            PairMode::Interesting => {
                // v is interesting via friend u: ≥ 2 witness components
                // non-adjacent to u, and N[v] ⊄ N[u]; symmetrically for u.
                if !mask[v]
                    && profile.witnesses_nonadj_a >= 2
                    && !g.closed_neighborhood_subset(v, u)
                {
                    mask[v] = true;
                }
                if !mask[u]
                    && profile.witnesses_nonadj_b >= 2
                    && !g.closed_neighborhood_subset(u, v)
                {
                    mask[u] = true;
                }
            }
        }
    }
}

/// Merges two sorted vertex lists into `out` (cleared first), dropping
/// duplicates.
fn merge_sorted(a: &[Vertex], b: &[Vertex], out: &mut Vec<Vertex>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

thread_local! {
    static ENGINE_POOL: RefCell<CutEngine> = RefCell::new(CutEngine::new());
    static SWEEP_POOL: RefCell<SweepBuffers> = RefCell::new(SweepBuffers::default());
}

/// Runs `f` with this thread's pooled [`CutEngine`] — the same pattern
/// as [`lmds_graph::scratch::with_thread_scratch`]. The adaptive LOCAL
/// deciders call the pipeline once per vertex per round; the pool makes
/// those calls reuse one ball index per thread. Falls back to a fresh
/// engine if the pooled one is already borrowed (nested call), with
/// identical results.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut CutEngine) -> R) -> R {
    ENGINE_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut e) => f(&mut e),
        Err(_) => f(&mut CutEngine::new()),
    })
}

/// Runs `f` with this thread's pooled sweep buffers: the caller's warm
/// ones when a sweep runs inline, each worker's own otherwise. Falls
/// back to fresh buffers on a nested borrow.
fn with_sweep_buffers<R>(f: impl FnOnce(&mut SweepBuffers) -> R) -> R {
    SWEEP_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut b) => f(&mut b),
        Err(_) => f(&mut SweepBuffers::default()),
    })
}

// ---------------------------------------------------------------------
// Whole-graph queries (engine-backed).
// ---------------------------------------------------------------------

/// All vertices forming `r`-local minimal 1-cuts, sorted.
/// Engine-backed; equals filtering by [`is_local_one_cut`].
pub fn local_one_cut_vertices(g: &Graph, r: u32) -> Vec<Vertex> {
    with_thread_engine(|e| mask_to_vertices(&e.one_cut_mask(g, r)))
}

/// All `r`-local minimal 2-cuts of `g`, as `(u, v)` pairs with `u < v`,
/// sorted. Engine-backed: each unordered pair within distance `r` is
/// profiled exactly once, with no subgraph construction. Quadratic in
/// ball sizes (and the engine holds all balls at once) — intended for
/// the bounded-ball radii of the pipeline and the analysis
/// experiments.
pub fn local_two_cuts(g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
    with_thread_engine(|e| e.two_cuts(g, r))
}

/// All `r`-interesting vertices, sorted. Engine-backed; equals
/// filtering by [`is_interesting`].
pub fn interesting_vertices(g: &Graph, r: u32) -> Vec<Vertex> {
    with_thread_engine(|e| mask_to_vertices(&e.interesting_mask(g, r)))
}

/// The sorted vertex list a boolean mask denotes (crate-shared so
/// every mask consumer converts the same way).
pub(crate) fn mask_to_vertices(mask: &[bool]) -> Vec<Vertex> {
    mask.iter().enumerate().filter_map(|(v, &m)| m.then_some(v)).collect()
}

// ---------------------------------------------------------------------
// Naive reference predicates (Definition 2.1 / §3.2 verbatim). These
// extract every subgraph explicitly; the equivalence suite pins the
// engine to them.
// ---------------------------------------------------------------------

/// Whether `{v}` is an `r`-local minimal 1-cut of `g`. Naive reference:
/// extracts `G[N^r[v]]` and runs the full lowpoint DFS.
pub fn is_local_one_cut(g: &Graph, v: Vertex, r: u32) -> bool {
    let sub = InducedSubgraph::new(g, &bfs::ball(g, v, r));
    let local = sub.from_host(v).expect("center is in its own ball");
    lmds_graph::articulation::cut_structure(&sub.graph).is_articulation[local]
}

/// Whether `{u, v}` is an `r`-local minimal 2-cut of `g`. Naive
/// reference: capped-BFS distance check, then the three `separates`
/// passes on the extracted `H`.
pub fn is_local_two_cut(g: &Graph, u: Vertex, v: Vertex, r: u32) -> bool {
    if u == v || bfs::distance_capped(g, u, v, r).is_none() {
        return false;
    }
    let h = cut_neighborhood(g, u, v, r);
    let (lu, lv) = (h.from_host(u).expect("u in its ball"), h.from_host(v).expect("v in its ball"));
    two_cuts::is_minimal_two_cut(&h.graph, lu, lv)
}

/// `H = G[N^r[u] ∪ N^r[v]]` with host mapping.
fn cut_neighborhood(g: &Graph, u: Vertex, v: Vertex, r: u32) -> InducedSubgraph {
    InducedSubgraph::new(g, &bfs::ball_of_set(g, &[u, v], r))
}

/// Whether `v` is `r`-interesting *via* the specific friend `u`
/// (assumes nothing; checks the local-2-cut condition too). Naive
/// reference.
pub fn is_interesting_via(g: &Graph, v: Vertex, u: Vertex, r: u32) -> bool {
    if !is_local_two_cut(g, u, v, r) {
        return false;
    }
    // N[v] ⊈ N[u] in G (equivalently within the ball, since r ≥ 1).
    if g.closed_neighborhood_subset(v, u) {
        return false;
    }
    // ≥ 2 components of H − {u,v} each containing a vertex non-adjacent
    // to u.
    let h = cut_neighborhood(g, u, v, r);
    let (lu, lv) = (h.from_host(u).unwrap(), h.from_host(v).unwrap());
    let comps = two_cuts::components_attached(&h.graph, lu, lv);
    let mut witnesses = 0;
    for comp in comps {
        if comp.iter().any(|&w| !h.graph.has_edge(w, lu) && w != lu) {
            witnesses += 1;
            if witnesses >= 2 {
                return true;
            }
        }
    }
    false
}

/// Whether `v` is `r`-interesting (some friend works). Naive reference.
pub fn is_interesting(g: &Graph, v: Vertex, r: u32) -> bool {
    bfs::ball(g, v, r).into_iter().any(|u| u != v && is_interesting_via(g, v, u, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.path(&vs);
        b.build()
    }

    #[test]
    fn long_cycle_every_vertex_is_local_one_cut() {
        // The paper's cautionary example: on C_n with r < ~n/2, every
        // vertex is an r-local 1-cut but no global 1-cut exists.
        let g = cycle(20);
        for r in [1u32, 3, 5] {
            assert_eq!(local_one_cut_vertices(&g, r).len(), 20, "r={r}");
        }
        // Once the ball wraps around, no vertex is a local 1-cut.
        assert!(local_one_cut_vertices(&g, 10).is_empty());
        assert!(local_one_cut_vertices(&g, 100).is_empty());
    }

    #[test]
    fn global_radius_matches_global_cuts() {
        let g = path(7);
        let local = local_one_cut_vertices(&g, 100);
        let global = lmds_graph::articulation::articulation_points(&g);
        assert_eq!(local, global);
    }

    #[test]
    fn local_one_cuts_decrease_with_radius() {
        // Monotonicity (paper §2): no r-local cuts ⟹ no r'-local cuts
        // for r' > r. Equivalently, the set shrinks as r grows.
        let g = cycle(16);
        let mut prev = usize::MAX;
        for r in 1..=9 {
            let c = local_one_cut_vertices(&g, r).len();
            assert!(c <= prev, "r={r}");
            prev = c;
        }
    }

    #[test]
    fn local_two_cuts_on_cycle() {
        let g = cycle(12);
        // With a small radius the joint ball is a *path*, where each
        // singleton already separates — so no pair is a *minimal* local
        // 2-cut. (This is why Algorithm 1 takes local 1-cuts first.)
        assert!(local_two_cuts(&g, 3).is_empty());
        // Once balls wrap around (r ≥ 6), H = C12: minimal 2-cuts are
        // exactly the non-adjacent pairs.
        let global = local_two_cuts(&g, 6);
        assert_eq!(global.len(), 12 * 9 / 2);
        assert!(global.contains(&(0, 2)));
        assert!(!global.contains(&(0, 1)));
        assert_eq!(local_two_cuts(&g, 100), global);
    }

    #[test]
    fn local_two_cuts_on_subdivided_hubs() {
        // Hubs 0,1 joined by three length-3 paths: {0,1} is a local
        // minimal 2-cut already at radius 2 (d(0,1) = 3 > 2 fails) —
        // use radius 3.
        let g = lmds_gen::adversarial::subdivided_k2t(3);
        assert!(is_local_two_cut(&g, 0, 1, 3));
        assert!(local_two_cuts(&g, 3).contains(&(0, 1)));
    }

    #[test]
    fn c6_opposite_cuts_are_interesting() {
        // §5.3: on C6, the cuts {0,3}, {1,4}, {2,5} are interesting at
        // global radius (both sides contain a vertex non-adjacent to the
        // friend and neighborhoods are incomparable).
        let g = cycle(6);
        for v in 0..6 {
            assert!(is_interesting(&g, v, 100), "vertex {v}");
            assert!(is_interesting_via(&g, v, (v + 3) % 6, 100));
        }
    }

    #[test]
    fn c4_has_no_interesting_vertices() {
        // On C4 each 2-cut {u, v} has both components being single
        // vertices adjacent to u — no two witnesses non-adjacent to u.
        let g = cycle(4);
        assert!(interesting_vertices(&g, 100).is_empty());
    }

    #[test]
    fn c5_has_no_interesting_vertices() {
        // On C5, a 2-cut {u,v} at distance 2 splits into a single vertex
        // (adjacent to both) and an edge; only one component carries a
        // non-neighbor of u. (Paper: G = C_k with k ≤ 5 has no
        // interesting vertices.)
        let g = cycle(5);
        assert!(interesting_vertices(&g, 100).is_empty());
    }

    #[test]
    fn clique_pendant_hub_filtering() {
        // The §4 example: clique vertices v ≠ u sit in minimal 2-cuts
        // {0, v} but must NOT be interesting via 0 at global radius:
        // the pendant component is adjacent to the hub 0, and the rest of
        // the clique is adjacent to 0 too, so at most one witness
        // component has a vertex non-adjacent to the *friend* — and in
        // fact N[x_{uv}]-style checks kill these cuts.
        let g = lmds_gen::adversarial::clique_with_pendants(6);
        let n_interesting = interesting_vertices(&g, 100).len();
        let mds = lmds_graph::dominating::exact_mds(&g).len();
        assert_eq!(mds, 1);
        // Lemma 3.3 promises O(MDS); the whole point of the example is
        // that this stays tiny while #2-cut-vertices is ~n.
        let two_cut_vertices: std::collections::HashSet<usize> =
            lmds_graph::two_cuts::minimal_two_cuts(&g)
                .into_iter()
                .flat_map(|(a, b)| [a, b])
                .collect();
        assert!(two_cut_vertices.len() >= 6);
        assert!(n_interesting <= 44 * mds, "interesting = {n_interesting}, mds = {mds}");
        assert!(n_interesting < two_cut_vertices.len());
    }

    #[test]
    fn theta_graph_interesting() {
        // Hubs 0,1 with three length-2 paths: cut {0,1} has three
        // components {2},{3},{4}, each a single vertex *adjacent to both*
        // — so no witness non-adjacent to the friend; not interesting.
        let g = Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]);
        assert!(!is_interesting_via(&g, 0, 1, 100));
        // Subdividing the paths creates non-adjacent witnesses.
        let g2 = lmds_gen::adversarial::subdivided_k2t(3);
        assert!(is_interesting_via(&g2, 0, 1, 100));
        assert!(is_interesting_via(&g2, 1, 0, 100));
    }

    #[test]
    fn engine_matches_reference_on_module_corpus() {
        // The full equivalence suite lives in
        // tests/cut_engine_equivalence.rs; this is the in-crate smoke
        // version across all four query kinds.
        let graphs =
            vec![cycle(12), path(9), lmds_gen::adversarial::subdivided_k2t(3), cycle(6), cycle(4)];
        let mut engine = CutEngine::new();
        for g in &graphs {
            for r in [1u32, 2, 3, 6] {
                let one = engine.one_cut_mask(g, r);
                let interesting = engine.interesting_mask(g, r);
                let endpoints = engine.two_cut_endpoint_mask(g, r);
                let pairs = engine.two_cuts(g, r);
                let mut endpoint_ref = vec![false; g.n()];
                let mut pair_ref = Vec::new();
                for u in g.vertices() {
                    assert_eq!(one[u], is_local_one_cut(g, u, r), "one-cut v={u} r={r} {g:?}");
                    assert_eq!(
                        interesting[u],
                        is_interesting(g, u, r),
                        "interesting v={u} r={r} {g:?}"
                    );
                    for v in (u + 1)..g.n() {
                        if is_local_two_cut(g, u, v, r) {
                            pair_ref.push((u, v));
                            endpoint_ref[u] = true;
                            endpoint_ref[v] = true;
                        }
                    }
                }
                assert_eq!(pairs, pair_ref, "pairs r={r} {g:?}");
                assert_eq!(endpoints, endpoint_ref, "endpoints r={r} {g:?}");
            }
        }
    }

    #[test]
    fn local_two_cut_requires_distance() {
        let g = path(10);
        // Distance 5 > r = 3 → not an r-local 2-cut even though they
        // separate globally.
        assert!(!is_local_two_cut(&g, 2, 7, 3));
    }
}

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
//!   computes, per vertex `u`, a small **candidate set** `C(u)` of
//!   possible cut partners (the filter lemma below), profiles each
//!   unordered pair with `v ∈ C(u)` and `u ∈ C(v)` exactly once (both
//!   interestingness orientations fall out of a single
//!   [`pair_profile_within`](lmds_graph::two_cuts::pair_profile_within)
//!   component scan of `H − {u, v}`, with no subgraph ever
//!   materialized), and shards both per-vertex passes through
//!   [`lmds_graph::par`] on large graphs. All whole-graph queries
//!   ([`local_one_cut_vertices`], [`local_two_cuts`],
//!   [`interesting_vertices`]) and the Algorithm 1 pipeline ride it via
//!   [`with_thread_engine`].
//! * The **naive reference predicates** ([`is_local_one_cut`],
//!   [`is_local_two_cut`], [`is_interesting_via`], [`is_interesting`]) —
//!   direct transcriptions of Definition 2.1/§3.2 that extract each
//!   subgraph explicitly. They are the correctness oracle: the
//!   equivalence suite (`tests/cut_engine_equivalence.rs`) asserts the
//!   engine matches them bit-for-bit across the generator corpus, so
//!   engine outputs are byte-identical to the pre-engine ones.
//!
//! # The candidate filter
//!
//! Let `L_u = G[N^r[u] ∖ {u}]` be the punctured ball of `u`, and let
//! `{u, v}` be an `r`-local minimal 2-cut with host `H`. Every vertex
//! of `H` has a shortest path to `u` or `v` inside `H`, so every
//! component of `H − {u, v}` touches `u` or `v`; minimality leaves at
//! least two components, each touching both. `L_u − v` is a subgraph of
//! `H − {u, v}`, so its components are finer, and therefore
//! **`N(u) ∖ {v}` meets at least two components of `L_u − v`**. The
//! candidate set `C(u)` is the set of `v ∈ L_u` passing this test; it
//! falls out of one lowpoint DFS over `L_u` (see `BallDfs`). A pair is
//! profiled only if `v ∈ C(u)` and `u ∈ C(v)`; every other pair is
//! provably not a local minimal 2-cut, so the filter changes no output.
//!
//! The distributed algorithms recompute the same predicates from node
//! views and are tested to agree.

use lmds_graph::bfs;
use lmds_graph::par;
use lmds_graph::scratch::Scratch;
use lmds_graph::two_cuts::{self, PairProfile};
use lmds_graph::{Graph, InducedSubgraph, SubsetScratch, Vertex};
use std::cell::RefCell;

/// The shared-work engine behind every Definition-2.1 predicate sweep.
///
/// What is shared within one run, and why the outputs cannot drift from
/// the naive reference:
///
/// * **Candidates first.** One pass computes every candidate set `C(v)`
///   (the [module-level filter lemma](self#the-candidate-filter)) into a
///   flat index. Every `w ∈ C(v)` lies in `N^r[v] ∖ {v}`, so the pairs
///   the sweep visits satisfy "`d(u, v) ≤ r`" by construction, and every
///   pair it skips provably fails the 2-cut predicate.
/// * **Pairs once.** `{u, v}` and `{v, u}` name the same cut `H`; the
///   engine scans `H − {u, v}` once and reads off both interestingness
///   orientations (witness components non-adjacent to `u` mark `v`, and
///   vice versa), where the naive path rebuilds `H` up to four times.
/// * **No subgraphs.** Minimality and witness counts come from
///   [`two_cuts::pair_profile_within`] /
///   [`articulation::is_cut_vertex_within`](lmds_graph::articulation::is_cut_vertex_within),
///   which traverse `G` restricted to an epoch-marked member set —
///   no `InducedSubgraph` construction, no per-pair allocation.
/// * **Sharding is observation-free.** The per-vertex passes run
///   through [`lmds_graph::par`]: the 1-cut mask is filled per vertex,
///   the candidate index is folded over contiguous vertex ranges and
///   concatenated in order, and each pair-sweep worker marks a private
///   monotone mask that is OR-merged (or collects its own pairs, which
///   concatenate in sorted order), so the result is independent of the
///   worker count and schedule.
///
/// A `CutEngine` holds no state between runs (the traversal buffers
/// live in a per-thread pool, so every sweep worker has its own), and
/// may serve graphs of different sizes back to back.
///
/// **Memory profile:** a pair sweep holds its candidate index —
/// `O(Σ_v |C(v)|)` words, against `O(Σ_v |N^r[v]|)` for a ball index
/// (about a quarter of it on the scale family at `r = 3`) — and frees
/// it before returning. Balls and cut neighbourhoods are rebuilt
/// transiently per vertex and per profiled pair. The predicates
/// themselves are quadratic in ball sizes, so at radii near the
/// diameter, or on dense graphs, keep runs to analysis-scale inputs
/// (as the pre-engine implementations also required).
#[derive(Debug, Default)]
pub struct CutEngine;

/// The candidate sets `C(v)` of one radius-`r` run, flat: `C(v)` is
/// `verts[ends[v - 1]..ends[v]]` (from 0 for `v = 0`), sorted.
struct CandidateIndex {
    ends: Vec<usize>,
    verts: Vec<Vertex>,
}

impl CandidateIndex {
    /// One pass over the vertices, folded over contiguous ranges and
    /// concatenated in order.
    fn build(g: &Graph, r: u32) -> Self {
        let n = g.n();
        let (ends, verts) = par::fold(
            n,
            par::workers(n, par::BALL_GRAIN),
            || (Vec::new(), Vec::new()),
            |(ends, verts), u| {
                with_sweep_buffers(|b| b.dfs.candidates_into(g, u, r, verts));
                ends.push(verts.len());
            },
            |(mut ends, mut verts), (part_ends, part_verts)| {
                let base = verts.len();
                ends.extend(part_ends.into_iter().map(|e| e + base));
                verts.extend(part_verts);
                (ends, verts)
            },
        );
        Self { ends, verts }
    }

    /// `C(v)`, sorted.
    fn candidates(&self, v: Vertex) -> &[Vertex] {
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        &self.verts[start..self.ends[v]]
    }

    /// Whether the sweep profiles `{u, v}`: `v ∈ C(u)` and `u ∈ C(v)`.
    fn admits(&self, u: Vertex, v: Vertex) -> bool {
        self.candidates(u).binary_search(&v).is_ok() && self.candidates(v).binary_search(&u).is_ok()
    }
}

/// The traversal buffers one sweep worker reuses across vertices.
#[derive(Debug, Default)]
struct SweepBuffers {
    scratch: Scratch,
    subset: SubsetScratch,
    /// A ball `N^r[v]` or a cut neighbourhood `N^r[{u, v}]`.
    ball: Vec<Vertex>,
    dfs: BallDfs,
}

impl SweepBuffers {
    fn one_cut_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        bfs::ball_of_set_into(g, &mut self.scratch, &[v], r, &mut self.ball);
        lmds_graph::articulation::is_cut_vertex_within(g, &mut self.subset, &self.ball, v)
    }

    /// The component profile of `H − {u, v}`, `H = G[N^r[{u, v}]]`.
    fn profile(&mut self, g: &Graph, u: Vertex, v: Vertex, r: u32) -> PairProfile {
        bfs::ball_of_set_unsorted_into(g, &mut self.scratch, &[u, v], r, &mut self.ball);
        two_cuts::pair_profile_within(g, &mut self.subset, &self.ball, u, v)
    }
}

/// The lowpoint DFS over a punctured ball `L_u = G[N^r[u] ∖ {u}]` that
/// yields the candidate set `C(u)`.
///
/// Each component of `L_u` contains a neighbour of `u` (the last step
/// of a shortest path to `u`), so the DFS is rooted at neighbours of
/// `u` and counts the `u`-neighbours in every subtree. For a vertex `w`
/// of `L_u`, the components of `L_u − w` holding a `u`-neighbour are:
/// the other components of `L_u`; within `w`'s own component, each
/// child subtree `x` with `low[x] ≥ disc[w]` holding one; and, unless
/// `w` is a root, the rest of the component, which holds the root.
/// `w ∈ C(u)` iff that count is at least two.
///
/// The ball is gathered breadth-first into `ball` (so the neighbours of
/// `u` come first); vertex-indexed state is epoch-stamped and reused
/// across calls, and the per-vertex DFS state is indexed by position in
/// `ball`.
#[derive(Debug, Default)]
struct BallDfs {
    epoch: u32,
    /// `(epoch, position)` per vertex: `v` was reached by the current
    /// search iff the epoch is current; `u` itself has position
    /// [`CENTER`].
    slot: Vec<(u32, u32)>,
    /// `L_u`'s vertices in breadth-first order.
    ball: Vec<Vertex>,
    /// Per position in `ball`.
    nodes: Vec<DfsNode>,
    /// DFS stack: position and the next neighbour index to scan.
    stack: Vec<(usize, usize)>,
}

/// The [`BallDfs::slot`] position marking the ball's center.
const CENTER: u32 = u32::MAX;

/// The DFS state of one vertex `w` of `L_u`.
#[derive(Debug, Default, Clone, Copy)]
struct DfsNode {
    /// Discovery time (0 = undiscovered) and lowpoint.
    disc: u32,
    low: u32,
    /// `u`-neighbours in the DFS subtree of `w`.
    hits: u32,
    /// Components of `L_u − w` holding a `u`-neighbour, counted within
    /// `w`'s own component of `L_u`.
    pieces: u32,
}

impl BallDfs {
    /// Appends `C(u)`, sorted, to `out`.
    fn candidates_into(&mut self, g: &Graph, u: Vertex, r: u32, out: &mut Vec<Vertex>) {
        if self.slot.len() < g.n() {
            self.slot.resize(g.n(), (0, 0));
        }
        if self.epoch == u32::MAX {
            self.slot.fill((0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.ball.clear();
        self.nodes.clear();
        if r == 0 {
            return;
        }
        // Breadth-first, layer by layer: layer 1 is N(u).
        self.slot[u] = (epoch, CENTER);
        for &w in g.neighbors(u) {
            self.slot[w as usize] = (epoch, self.ball.len() as u32);
            self.ball.push(w as Vertex);
            self.nodes.push(DfsNode { hits: 1, ..DfsNode::default() });
        }
        let degree = self.ball.len();
        let mut layer = 0..degree;
        for _ in 1..r {
            let next = layer.end;
            for i in layer {
                for &y in g.neighbors(self.ball[i]) {
                    if self.slot[y as usize].0 != epoch {
                        self.slot[y as usize] = (epoch, self.ball.len() as u32);
                        self.ball.push(y as Vertex);
                        self.nodes.push(DfsNode::default());
                    }
                }
            }
            layer = next..self.ball.len();
        }
        let (slot, ball, nodes) = (&self.slot, &self.ball, &mut self.nodes);
        let position = |w: u32| match slot[w as usize] {
            (e, i) if e == epoch && i != CENTER => Some(i as usize),
            _ => None,
        };
        let (mut time, mut components) = (0u32, 0u32);
        for root in 0..degree {
            if nodes[root].disc != 0 {
                continue;
            }
            components += 1;
            time += 1;
            nodes[root].disc = time;
            nodes[root].low = time;
            self.stack.push((root, 0));
            'dfs: while let Some(&(x, next)) = self.stack.last() {
                let nbrs = g.neighbors(ball[x]);
                let mut low = nodes[x].low;
                for (i, y) in nbrs.iter().enumerate().skip(next) {
                    let Some(y) = position(*y) else { continue };
                    let disc = nodes[y].disc;
                    if disc == 0 {
                        nodes[x].low = low;
                        self.stack.last_mut().expect("x is on the stack").1 = i + 1;
                        time += 1;
                        // `pieces` starts at 1: the rest of the component,
                        // which holds the root.
                        nodes[y] =
                            DfsNode { disc: time, low: time, hits: nodes[y].hits, pieces: 1 };
                        self.stack.push((y, 0));
                        continue 'dfs;
                    }
                    low = low.min(disc);
                }
                nodes[x].low = low;
                self.stack.pop();
                if let Some(&(p, _)) = self.stack.last() {
                    let child = nodes[x];
                    let parent = &mut nodes[p];
                    parent.low = parent.low.min(child.low);
                    parent.hits += child.hits;
                    if child.low >= parent.disc && child.hits > 0 {
                        parent.pieces += 1;
                    }
                }
            }
        }
        let first = out.len();
        out.extend(
            ball.iter()
                .zip(nodes.iter())
                .filter(|(_, n)| n.pieces + components >= 3)
                .map(|(&v, _)| v),
        );
        out[first..].sort_unstable();
    }
}

impl CutEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        Self
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
        mark_cuts(g, r, |mask, u, v, profile| {
            // v is interesting via friend u: ≥ 2 witness components
            // non-adjacent to u, and N[v] ⊄ N[u]; symmetrically for u.
            if !mask[v] && profile.witnesses_nonadj_a >= 2 && !g.closed_neighborhood_subset(v, u) {
                mask[v] = true;
            }
            if !mask[u] && profile.witnesses_nonadj_b >= 2 && !g.closed_neighborhood_subset(u, v) {
                mask[u] = true;
            }
        })
    }

    /// The mask of vertices lying in *some* `r`-local minimal 2-cut
    /// (both endpoints, no interestingness filter — the MVC variant's
    /// `S` contribution and the `interesting_filter: false` ablation).
    pub fn two_cut_endpoint_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        mark_cuts(g, r, |mask, u, v, _| {
            mask[u] = true;
            mask[v] = true;
        })
    }

    /// All `r`-local minimal 2-cuts as `(u, v)` pairs with `u < v`,
    /// sorted — [`local_two_cuts`]' engine. Every candidate pair is
    /// profiled (no early exit), each exactly once.
    pub fn two_cuts(&mut self, g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
        // Workers own contiguous ranges of `u` and concatenate left to
        // right, so the pairs arrive sorted.
        sweep_cuts(
            g,
            r,
            Vec::new,
            |_, _, _| false,
            |cuts, u, v, _| cuts.push((u, v)),
            |mut acc, part| {
                acc.extend(part);
                acc
            },
        )
    }
}

/// A pair sweep whose accumulator is a monotone vertex mask: pairs
/// whose both endpoints are already marked are skipped, which prunes
/// work without changing the result.
fn mark_cuts(
    g: &Graph,
    r: u32,
    mark: impl Fn(&mut Vec<bool>, Vertex, Vertex, &PairProfile) + Sync,
) -> Vec<bool> {
    let n = g.n();
    sweep_cuts(
        g,
        r,
        || vec![false; n],
        |mask, u, v| mask[u] && mask[v],
        mark,
        |mut acc, part| {
            for (m, p) in acc.iter_mut().zip(part) {
                *m |= p;
            }
            acc
        },
    )
}

/// The shared pair sweep: every unordered pair `{u, v}`, `u < v`,
/// with `v ∈ C(u)` and `u ∈ C(v)` that `skip` does not rule out is
/// profiled once, and `on_cut` folds each local minimal 2-cut into
/// the worker's accumulator. Workers own contiguous ranges of `u`;
/// `merge` combines their accumulators left to right.
fn sweep_cuts<A: Send>(
    g: &Graph,
    r: u32,
    init: impl Fn() -> A + Sync,
    skip: impl Fn(&A, Vertex, Vertex) -> bool + Sync,
    on_cut: impl Fn(&mut A, Vertex, Vertex, &PairProfile) + Sync,
    merge: impl FnMut(A, A) -> A,
) -> A {
    let index = CandidateIndex::build(g, r);
    let n = g.n();
    par::fold(
        n,
        par::workers(n, par::BALL_GRAIN),
        init,
        |acc, u| {
            with_sweep_buffers(|b| {
                for &v in index.candidates(u) {
                    if v <= u || skip(acc, u, v) || !index.admits(u, v) {
                        continue;
                    }
                    let profile = b.profile(g, u, v, r);
                    if profile.is_minimal_two_cut() {
                        on_cut(acc, u, v, &profile);
                    }
                }
            })
        },
        merge,
    )
}

thread_local! {
    static SWEEP_POOL: RefCell<SweepBuffers> = RefCell::new(SweepBuffers::default());
}

/// Runs `f` with a [`CutEngine`]. The engine holds no state between
/// runs, so this is plain `f(&mut CutEngine)`; it is kept as the one
/// call shape every whole-graph query and pipeline phase uses.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut CutEngine) -> R) -> R {
    f(&mut CutEngine)
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
/// sorted. Engine-backed: each unordered candidate pair (see the
/// [module-level filter](self#the-candidate-filter)) is profiled exactly
/// once, with no subgraph construction. Quadratic in ball sizes —
/// intended for the bounded-ball radii of the pipeline and the analysis
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
    fn candidate_filter_rejects_only_non_cuts() {
        // Stronger than mask equality (a wrongly skipped pair can hide
        // behind a vertex marked through another pair): every pair within
        // distance r that the filter rejects must fail the naive 2-cut
        // predicate.
        let mut graphs =
            vec![cycle(12), path(9), lmds_gen::adversarial::subdivided_k2t(3), cycle(6), cycle(4)];
        graphs.extend((0..2).map(|seed| lmds_gen::ding::scale_instance(300, seed)));
        let (mut rejected, mut admitted) = (0usize, 0usize);
        for g in &graphs {
            for r in 1..=6u32 {
                let index = CandidateIndex::build(g, r);
                for u in g.vertices() {
                    for v in bfs::ball(g, u, r).into_iter().filter(|&v| v > u) {
                        if index.admits(u, v) {
                            admitted += 1;
                        } else {
                            rejected += 1;
                            assert!(
                                !is_local_two_cut(g, u, v, r),
                                "filter rejected the local 2-cut ({u},{v}) at r={r} on n={}",
                                g.n()
                            );
                        }
                    }
                }
            }
        }
        // The filter must actually filter on this corpus.
        assert!(rejected > admitted, "rejected {rejected}, admitted {admitted}");
    }

    #[test]
    fn local_two_cut_requires_distance() {
        let g = path(10);
        // Distance 5 > r = 3 → not an r-local 2-cut even though they
        // separate globally.
        assert!(!is_local_two_cut(&g, 2, 7, 3));
    }
}

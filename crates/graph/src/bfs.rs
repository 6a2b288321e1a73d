//! Breadth-first traversal and metric queries: distances, balls `N^r[v]`,
//! diameter, radius, and weak diameter.
//!
//! Balls are the central object of the paper: an `r`-round LOCAL algorithm
//! is exactly a function of `G[N^r[v]]` (plus identifiers), so every
//! "local" notion (local cuts, locally-`C` classes, …) is phrased in terms
//! of [`ball`] / [`ball_of_set`].
//!
//! The ball queries come in two forms: convenience wrappers ([`ball`],
//! [`ball_of_set`], [`distance`]) that draw a [`Scratch`] from the
//! thread-local pool, and explicit `_into` variants that thread a caller
//! scratch and output buffer for fully allocation-free loops. Work is
//! O(|ball|), not O(n): the scratch's epoch marks replace the
//! `vec![None; n]` distance array a fresh-buffer BFS would need.

use crate::graph::{Graph, Vertex};
use crate::scratch::{with_thread_scratch, Scratch};
use std::collections::VecDeque;

/// BFS distances from `src`; `None` for unreachable vertices.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Graph, src: Vertex) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.n()];
    dist[src] = Some(0);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u].unwrap();
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Multi-source BFS distances: distance from the nearest source.
pub fn multi_source_distances(g: &Graph, sources: &[Vertex]) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.n()];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s].is_none() {
            dist[s] = Some(0);
            q.push_back(s);
        }
    }
    while let Some(u) = q.pop_front() {
        let du = dist[u].unwrap();
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// The distance between `u` and `v`, or `None` if disconnected.
/// Early-exit BFS through the thread-pooled [`Scratch`].
pub fn distance(g: &Graph, u: Vertex, v: Vertex) -> Option<u32> {
    with_thread_scratch(|s| distance_with(g, s, u, v))
}

/// [`distance`] through an explicit [`Scratch`].
pub fn distance_with(g: &Graph, scratch: &mut Scratch, u: Vertex, v: Vertex) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    scratch.begin(g.n());
    scratch.visit(u);
    scratch.dist[u] = 0;
    scratch.queue.push(u);
    let mut head = 0;
    while head < scratch.queue.len() {
        let x = scratch.queue[head];
        head += 1;
        let dx = scratch.dist[x];
        for &y in g.neighbors(x) {
            let y = y as Vertex;
            if scratch.visit(y) {
                if y == v {
                    return Some(dx + 1);
                }
                scratch.dist[y] = dx + 1;
                scratch.queue.push(y);
            }
        }
    }
    None
}

/// The distance between `u` and `v` **if it is at most `cap`**, else
/// `None` (disconnected pairs are `None` too). The BFS never expands
/// past depth `cap`, so the work is O(|`N^cap[u]`|) instead of O(n + m) —
/// the right query for "is `d(u, v) ≤ r`?" checks like the local-2-cut
/// distance precondition. Thread-pooled [`Scratch`].
pub fn distance_capped(g: &Graph, u: Vertex, v: Vertex, cap: u32) -> Option<u32> {
    with_thread_scratch(|s| distance_capped_with(g, s, u, v, cap))
}

/// [`distance_capped`] through an explicit [`Scratch`].
pub fn distance_capped_with(
    g: &Graph,
    scratch: &mut Scratch,
    u: Vertex,
    v: Vertex,
    cap: u32,
) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    if cap == 0 {
        return None;
    }
    scratch.begin(g.n());
    scratch.visit(u);
    scratch.dist[u] = 0;
    scratch.queue.push(u);
    let mut head = 0;
    while head < scratch.queue.len() {
        let x = scratch.queue[head];
        head += 1;
        let dx = scratch.dist[x];
        if dx == cap {
            break; // queue is in distance order; nothing closer remains
        }
        for &y in g.neighbors(x) {
            let y = y as Vertex;
            if scratch.visit(y) {
                if y == v {
                    return Some(dx + 1);
                }
                scratch.dist[y] = dx + 1;
                scratch.queue.push(y);
            }
        }
    }
    None
}

/// The ball `N^r[v]`: all vertices at distance at most `r` from `v`,
/// sorted ascending. Runs through the thread-pooled [`Scratch`] in
/// O(|ball|) work.
pub fn ball(g: &Graph, v: Vertex, r: u32) -> Vec<Vertex> {
    with_thread_scratch(|s| {
        let mut out = Vec::new();
        ball_of_set_into(g, s, &[v], r, &mut out);
        out
    })
}

/// The ball `N^r[S]` around a set `S`, sorted ascending.
///
/// `r = 0` returns `S` itself (deduplicated, sorted).
pub fn ball_of_set(g: &Graph, set: &[Vertex], r: u32) -> Vec<Vertex> {
    with_thread_scratch(|s| {
        let mut out = Vec::new();
        ball_of_set_into(g, s, set, r, &mut out);
        out
    })
}

/// [`ball`] through an explicit [`Scratch`].
pub fn ball_with(g: &Graph, scratch: &mut Scratch, v: Vertex, r: u32) -> Vec<Vertex> {
    let mut out = Vec::new();
    ball_of_set_into(g, scratch, &[v], r, &mut out);
    out
}

/// The fully reusable ball query: clears `out`, then fills it with
/// `N^r[set]` sorted ascending, using `scratch` for the visited epochs,
/// queue, and distances. The workhorse of [`ball`] / [`ball_of_set`] and
/// of allocation-free caller loops.
pub fn ball_of_set_into(
    g: &Graph,
    scratch: &mut Scratch,
    set: &[Vertex],
    r: u32,
    out: &mut Vec<Vertex>,
) {
    ball_of_set_unsorted_into(g, scratch, set, r, out);
    out.sort_unstable();
}

/// [`ball_of_set_into`] without the final sort: `out` holds `N^r[set]`
/// in breadth-first order, for callers that only need the members.
pub fn ball_of_set_unsorted_into(
    g: &Graph,
    scratch: &mut Scratch,
    set: &[Vertex],
    r: u32,
    out: &mut Vec<Vertex>,
) {
    out.clear();
    scratch.begin(g.n());
    for &s in set {
        if scratch.visit(s) {
            scratch.dist[s] = 0;
            scratch.queue.push(s);
            out.push(s);
        }
    }
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        let du = scratch.dist[u];
        if du == r {
            continue;
        }
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if scratch.visit(v) {
                scratch.dist[v] = du + 1;
                out.push(v);
                scratch.queue.push(v);
            }
        }
    }
}

/// The ball `N^r[v]` with distances: `(u, d(v, u))` pairs sorted by
/// vertex. One traversal serves both the "outer" and "inner" radius of a
/// LOCAL view (the simulator's hot path). Scratch distances stay valid
/// for the whole epoch, so this is [`ball_of_set_into`] plus a lookup.
pub fn ball_with_distances(g: &Graph, v: Vertex, r: u32) -> Vec<(Vertex, u32)> {
    with_thread_scratch(|scratch| {
        let mut verts = Vec::new();
        ball_of_set_into(g, scratch, &[v], r, &mut verts);
        verts.into_iter().map(|u| (u, scratch.dist[u])).collect()
    })
}

/// Diameter of the graph.
///
/// Returns `None` if the graph is disconnected or empty (the diameter is
/// then conventionally infinite/undefined). Runs `n` BFS traversals.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.vertices() {
        let d = bfs_distances(g, v);
        let mut ecc = 0;
        for dv in &d {
            match dv {
                Some(x) => ecc = ecc.max(*x),
                None => return None,
            }
        }
        best = best.max(ecc);
    }
    Some(best)
}

/// Radius of the graph: `min_v ecc(v)`. `None` if disconnected or empty.
pub fn radius(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let mut best = u32::MAX;
    for v in g.vertices() {
        let d = bfs_distances(g, v);
        let mut ecc = 0;
        for dv in &d {
            match dv {
                Some(x) => ecc = ecc.max(*x),
                None => return None,
            }
        }
        best = best.min(ecc);
    }
    Some(best)
}

/// Weak diameter of `set` in `g`: the largest distance **in `g`** between
/// two vertices of `set` (paper, §2). Returns `None` if two vertices of
/// the set are in different components of `g`, `Some(0)` for sets of size
/// ≤ 1.
pub fn weak_diameter(g: &Graph, set: &[Vertex]) -> Option<u32> {
    let mut best = 0;
    for (i, &u) in set.iter().enumerate() {
        let d = bfs_distances(g, u);
        for &v in &set[i + 1..] {
            match d[v] {
                Some(x) => best = best.max(x),
                None => return None,
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.path(&vs);
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(distance(&g, 0, 4), Some(4));
        assert_eq!(distance(&g, 2, 2), Some(0));
    }

    #[test]
    fn distances_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance(&g, 0, 3), None);
        assert_eq!(bfs_distances(&g, 0)[3], None);
    }

    #[test]
    fn distance_capped_agrees_with_distance_up_to_the_cap() {
        let g = path(8);
        for u in 0..8 {
            for v in 0..8 {
                let full = distance(&g, u, v);
                for cap in 0..=8u32 {
                    let expect = full.filter(|&d| d <= cap);
                    assert_eq!(distance_capped(&g, u, v, cap), expect, "u={u} v={v} cap={cap}");
                }
            }
        }
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance_capped(&disc, 0, 3, 100), None);
        assert_eq!(distance_capped(&disc, 2, 2, 0), Some(0));
    }

    #[test]
    fn ball_on_cycle() {
        let g = cycle(8);
        assert_eq!(ball(&g, 0, 0), vec![0]);
        assert_eq!(ball(&g, 0, 1), vec![0, 1, 7]);
        assert_eq!(ball(&g, 0, 2), vec![0, 1, 2, 6, 7]);
        assert_eq!(ball(&g, 0, 4), (0..8).collect::<Vec<_>>());
        assert_eq!(ball(&g, 0, 100), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ball_of_set_merges() {
        let g = path(7);
        assert_eq!(ball_of_set(&g, &[0, 6], 1), vec![0, 1, 5, 6]);
        assert_eq!(ball_of_set(&g, &[3], 2), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn unsorted_ball_is_breadth_first() {
        let g = path(7);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_unsorted_into(&g, &mut s, &[3, 6], 2, &mut out);
        assert_eq!(out, vec![3, 6, 2, 4, 5, 1]);
    }

    #[test]
    fn diameter_radius_path_cycle() {
        assert_eq!(diameter(&path(5)), Some(4));
        assert_eq!(radius(&path(5)), Some(2));
        assert_eq!(diameter(&cycle(8)), Some(4));
        assert_eq!(radius(&cycle(8)), Some(4));
        let disc = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&disc), None);
        assert_eq!(radius(&disc), None);
    }

    #[test]
    fn weak_diameter_uses_host_distances() {
        // On a cycle C8, the set {0, 4} has weak diameter 4 (host
        // distance), even though the induced subgraph on {0,4} is edgeless.
        let g = cycle(8);
        assert_eq!(weak_diameter(&g, &[0, 4]), Some(4));
        assert_eq!(weak_diameter(&g, &[0]), Some(0));
        assert_eq!(weak_diameter(&g, &[]), Some(0));
        let disc = Graph::from_edges(2, &[]);
        assert_eq!(weak_diameter(&disc, &[0, 1]), None);
    }

    #[test]
    fn multi_source() {
        let g = path(6);
        let d = multi_source_distances(&g, &[0, 5]);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn ball_with_distances_matches_ball_and_bfs() {
        let g = cycle(9);
        for v in [0usize, 4] {
            for r in [0u32, 1, 2, 5] {
                let wd = ball_with_distances(&g, v, r);
                let verts: Vec<Vertex> = wd.iter().map(|&(u, _)| u).collect();
                assert_eq!(verts, ball(&g, v, r), "v={v} r={r}");
                let full = bfs_distances(&g, v);
                for &(u, d) in &wd {
                    assert_eq!(Some(d), full[u], "v={v} r={r} u={u}");
                }
            }
        }
    }

    #[test]
    fn one_scratch_across_different_graphs_matches_fresh_buffers() {
        // The satellite contract: two consecutive BFS queries on
        // *different* graphs through one scratch must equal fresh-buffer
        // runs (no stale marks, no stale distances, no size confusion).
        let big = cycle(12);
        let small = path(5);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&big, &mut s, &[0], 3, &mut out);
        assert_eq!(out, ball(&big, 0, 3));
        ball_of_set_into(&small, &mut s, &[4], 2, &mut out);
        assert_eq!(out, vec![2, 3, 4]);
        ball_of_set_into(&big, &mut s, &[6, 7], 1, &mut out);
        assert_eq!(out, vec![5, 6, 7, 8]);
        assert_eq!(distance_with(&small, &mut s, 0, 4), Some(4));
        assert_eq!(distance_with(&big, &mut s, 0, 6), Some(6));
        assert_eq!(distance_with(&Graph::from_edges(4, &[(0, 1), (2, 3)]), &mut s, 0, 3), None);
    }

    #[test]
    fn stale_visited_marks_are_caught_by_epochs() {
        // Run a query that visits everything, then a small-radius query
        // around a previously-visited vertex: with a stale-visited bug
        // the second ball would come back empty or partial.
        let g = cycle(8);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&g, &mut s, &[0], 100, &mut out);
        assert_eq!(out.len(), 8);
        ball_of_set_into(&g, &mut s, &[4], 1, &mut out);
        assert_eq!(out, vec![3, 4, 5]);
    }
}

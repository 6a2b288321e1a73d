//! True-twin classes and the canonical twin-free quotient.
//!
//! Both of the paper's algorithms begin by replacing `G` with "the
//! true-twin-less graph associated to `G`": a largest induced subgraph
//! without true twins (`N[u] = N[v]`). Keeping the minimum-index vertex
//! of each twin class makes the quotient canonical and, in the LOCAL
//! model, computable in 2 rounds (each vertex learns `N[u]` for all its
//! neighbors and drops out if a smaller-ID twin exists).
//!
//! The key invariant (used in both Theorem 4.1 and Theorem 4.4) is
//! `MDS(G⁻) = MDS(G)`, tested here and property-tested downstream.

use crate::graph::{Graph, Vertex};
use crate::par;
use crate::scratch::{with_thread_scratch, Scratch};
use crate::subgraph::InducedSubgraph;

/// SplitMix64 finalizer: the per-element mixer of the commutative
/// neighborhood hash.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The partition of `V(G)` into true-twin classes.
///
/// Every vertex is in exactly one class; non-twin vertices form singleton
/// classes. Classes are sorted internally and ordered by their minimum
/// vertex.
pub fn twin_classes(g: &Graph) -> Vec<Vec<Vertex>> {
    with_thread_scratch(|s| twin_classes_with(g, s))
}

/// [`twin_classes`] through an explicit [`Scratch`]: the representative
/// array of [`twin_representatives_with`] expanded into explicit
/// classes.
pub fn twin_classes_with(g: &Graph, scratch: &mut Scratch) -> Vec<Vec<Vertex>> {
    let n = g.n();
    let rep = twin_representatives_with(g, scratch);
    // One ascending sweep builds the classes ordered by minimum member
    // (the scratch queue doubles as the rep → class-index table).
    scratch.queue.clear();
    scratch.queue.resize(n, usize::MAX);
    let mut classes: Vec<Vec<Vertex>> = Vec::new();
    for (v, &r) in rep.iter().enumerate() {
        if scratch.queue[r] == usize::MAX {
            scratch.queue[r] = classes.len();
            classes.push(Vec::new());
        }
        classes[scratch.queue[r]].push(v);
    }
    classes
}

/// `rep[v]` = the minimum vertex of `v`'s true-twin class (so `v` is a
/// kept representative iff `rep[v] == v`). This is the allocation-lean
/// core of the twin reduction.
pub fn twin_representatives(g: &Graph) -> Vec<Vertex> {
    with_thread_scratch(|s| twin_representatives_with(g, s))
}

/// [`twin_representatives`] through an explicit [`Scratch`].
///
/// Two vertices share a closed neighborhood iff they are true twins (or
/// identical), so the grouping hashes `N[v]` straight off the CSR
/// neighbor slices (a commutative 64-bit sum — no per-vertex key
/// allocation), sorts vertices by hash, and confirms each collision run
/// with the exact slice comparison [`Graph::are_true_twins`]. A class is
/// never split across hash runs, and runs are scanned in ascending
/// vertex order, so the first member seen of each class is its minimum.
pub fn twin_representatives_with(g: &Graph, scratch: &mut Scratch) -> Vec<Vertex> {
    let n = g.n();
    let mut rep: Vec<Vertex> = (0..n).collect();
    if n == 0 {
        return rep;
    }
    if scratch.key.len() < n {
        scratch.key.resize(n, 0);
    }
    fill_neighborhood_keys(g, &mut scratch.key[..n]);
    // The scratch queue doubles as the hash-sorted vertex order.
    scratch.queue.clear();
    scratch.queue.extend(0..n);
    let keys = &scratch.key;
    scratch.queue.sort_unstable_by_key(|&v| keys[v]);
    let order = &mut scratch.queue;
    let mut run_reps: Vec<Vertex> = Vec::new();
    let mut i = 0;
    while i < n {
        let run_key = keys[order[i]];
        let mut j = i;
        while j < n && keys[order[j]] == run_key {
            j += 1;
        }
        if j - i > 1 {
            let run = &mut order[i..j];
            run.sort_unstable();
            run_reps.clear();
            for &v in run.iter() {
                match run_reps.iter().find(|&&r| g.are_true_twins(r, v)) {
                    Some(&r) => rep[v] = r,
                    None => run_reps.push(v),
                }
            }
        }
        i = j;
    }
    rep
}

/// Fills `keys[v]` with the commutative closed-neighborhood hash of `v`
/// for every `v < keys.len()`. Each key reads only its own CSR row, so
/// the [`par::fill`] split leaves the keys identical for every worker
/// count.
fn fill_neighborhood_keys(g: &Graph, keys: &mut [u64]) {
    let workers = par::workers(keys.len(), par::SWEEP_GRAIN);
    par::fill(
        keys,
        workers,
        || (),
        |_, v| {
            let mut h = mix(v as u64);
            for &u in g.neighbors(v) {
                h = h.wrapping_add(mix(u as u64));
            }
            h
        },
    );
}

/// The canonical twin-free reduction of a graph.
#[derive(Debug, Clone)]
pub struct TwinReduction {
    /// The quotient: `G` induced on the minimum vertex of every twin
    /// class.
    pub reduced: InducedSubgraph,
    /// `representative[v]` is the kept host vertex of `v`'s twin class.
    pub representative: Vec<Vertex>,
}

impl TwinReduction {
    /// Computes the canonical twin-free quotient of `g` straight from
    /// the representative array (no intermediate class lists).
    pub fn compute(g: &Graph) -> Self {
        let representative = twin_representatives(g);
        let kept: Vec<Vertex> = g.vertices().filter(|&v| representative[v] == v).collect();
        let reduced = InducedSubgraph::new(g, &kept);
        TwinReduction { reduced, representative }
    }

    /// Lifts a dominating set of the reduced graph (given in *host*
    /// vertex indices) back to the original graph. Because every dropped
    /// vertex is a true twin of its kept representative, the same set
    /// dominates `G`; this is the identity, provided callers work in host
    /// indices. Exposed for symmetry and documentation.
    pub fn lift(&self, host_set: &[Vertex]) -> Vec<Vertex> {
        crate::canonical_set(host_set.to_vec())
    }
}

/// Whether `g` contains no pair of true twins.
pub fn is_twin_free(g: &Graph) -> bool {
    twin_representatives(g).iter().enumerate().all(|(v, &r)| r == v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominating::{exact_mds, is_dominating_set};

    #[test]
    fn sharded_key_fill_matches_sequential() {
        // The parallel fill must be observation-free: identical keys for
        // every worker count (forced here, since the automatic policy
        // resolves to one worker below the sweep grain).
        let g = crate::Graph::from_edges(
            101,
            &(0..100).map(|i| (i, i + 1)).chain([(0, 50), (3, 97)]).collect::<Vec<_>>(),
        );
        let mut seq = vec![0u64; g.n()];
        par::with_workers(1, || fill_neighborhood_keys(&g, &mut seq));
        for workers in [2, 4, 7] {
            let mut sharded = vec![0u64; g.n()];
            par::with_workers(workers, || fill_neighborhood_keys(&g, &mut sharded));
            assert_eq!(seq, sharded, "workers={workers}");
        }
    }

    #[test]
    fn triangle_collapses_to_single_vertex() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let classes = twin_classes(&g);
        assert_eq!(classes, vec![vec![0, 1, 2]]);
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 1);
        assert_eq!(red.representative, vec![0, 0, 0]);
    }

    #[test]
    fn path_is_twin_free() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_twin_free(&g));
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 4);
    }

    #[test]
    fn k4_minus_edge_has_one_twin_pair() {
        // K4 minus edge {0,3}: vertices 1 and 2 are adjacent to everything
        // (including each other) → true twins. 0 and 3 are false twins.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let classes = twin_classes(&g);
        assert!(classes.contains(&vec![1, 2]));
        assert!(classes.contains(&vec![0]));
        assert!(classes.contains(&vec![3]));
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 3);
        assert_eq!(red.representative[2], 1);
    }

    #[test]
    fn mds_preserved_by_reduction() {
        // Paper §2: MDS(G⁻) = MDS(G). Check on several graphs.
        let graphs = vec![
            Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            // Two triangles joined by an edge.
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
        ];
        for g in &graphs {
            let red = TwinReduction::compute(g);
            let mds_g = exact_mds(g).len();
            let mds_r = exact_mds(&red.reduced.graph).len();
            assert_eq!(mds_g, mds_r, "MDS changed under twin reduction for {g:?}");
            // A reduced-graph optimum dominates the original graph.
            let sol_host = red.reduced.set_to_host(&exact_mds(&red.reduced.graph));
            assert!(is_dominating_set(g, &red.lift(&sol_host)));
        }
    }

    #[test]
    fn quotient_is_twin_free() {
        let graphs = vec![
            Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ];
        for g in &graphs {
            let red = TwinReduction::compute(g);
            assert!(is_twin_free(&red.reduced.graph), "{g:?}");
        }
    }
}

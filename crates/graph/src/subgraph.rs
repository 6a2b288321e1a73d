//! Induced subgraphs with vertex mappings back to the host graph.

use crate::graph::{Graph, Vertex};

/// Sentinel for "host vertex not in the subgraph" in the inverse map.
const ABSENT: usize = usize::MAX;

/// An induced subgraph `G[S]` together with the mapping between its own
/// vertex indices (`0..|S|`) and the host graph's vertices.
///
/// # Example
///
/// ```
/// use lmds_graph::{Graph, InducedSubgraph};
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let sub = InducedSubgraph::new(&g, &[1, 2, 3]);
/// assert_eq!(sub.graph.n(), 3);
/// assert_eq!(sub.graph.m(), 2);
/// assert_eq!(sub.to_host(0), 1);
/// assert_eq!(sub.from_host(3), Some(2));
/// assert_eq!(sub.from_host(4), None);
/// ```
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced subgraph, on vertices `0..|S|`.
    pub graph: Graph,
    /// `to_host[i]` is the host vertex for subgraph vertex `i`
    /// (sorted ascending).
    to_host: Vec<Vertex>,
    /// Inverse mapping: `from_host[v]` is the subgraph index of host
    /// vertex `v`, or `ABSENT` (sentinel, half the footprint of an
    /// `Option` per entry — this array is sized to the *host* graph).
    from_host: Vec<usize>,
}

impl InducedSubgraph {
    /// Builds `G[S]`. `s` may be unsorted and contain duplicates; it is
    /// canonicalized first.
    ///
    /// # Panics
    ///
    /// Panics if a vertex of `s` is out of range for `g`.
    pub fn new(g: &Graph, s: &[Vertex]) -> Self {
        let verts = crate::canonical_set(s.to_vec());
        let mut from_host = vec![ABSENT; g.n()];
        for (i, &v) in verts.iter().enumerate() {
            from_host[v] = i;
        }
        // Collect local arcs, then bulk-build the CSR store once —
        // incremental insertion would splice the flat arrays per edge.
        let mut arcs = Vec::new();
        for (i, &v) in verts.iter().enumerate() {
            for &u in g.neighbors(v) {
                let j = from_host[u as usize];
                if j != ABSENT && i < j {
                    arcs.push((i, j));
                }
            }
        }
        let sub = Graph::from_arcs_unchecked(verts.len(), &arcs);
        InducedSubgraph { graph: sub, to_host: verts, from_host }
    }

    /// Host vertex corresponding to subgraph vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn to_host(&self, i: Vertex) -> Vertex {
        self.to_host[i]
    }

    /// Subgraph index of host vertex `v`, if `v` is in the subgraph.
    pub fn from_host(&self, v: Vertex) -> Option<Vertex> {
        match self.from_host.get(v) {
            Some(&i) if i != ABSENT => Some(i),
            _ => None,
        }
    }

    /// The host vertices of the subgraph, sorted ascending.
    pub fn host_vertices(&self) -> &[Vertex] {
        &self.to_host
    }

    /// Maps a set of subgraph vertices to host vertices (sorted).
    pub fn set_to_host(&self, s: &[Vertex]) -> Vec<Vertex> {
        crate::canonical_set(s.iter().map(|&i| self.to_host[i]))
    }

    /// Maps a set of host vertices into subgraph indices, dropping
    /// vertices not present (sorted).
    pub fn set_from_host(&self, s: &[Vertex]) -> Vec<Vertex> {
        crate::canonical_set(s.iter().filter_map(|&v| self.from_host(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn induced_cycle_segment() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(6);
        b.cycle(&vs);
        let g = b.build();
        let sub = InducedSubgraph::new(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.n(), 3);
        assert_eq!(sub.graph.m(), 2); // the chord 0-2 does not exist in C6
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(1, 2));
        assert!(!sub.graph.has_edge(0, 2));
    }

    #[test]
    fn mapping_roundtrip() {
        let g = Graph::from_edges(6, &[(0, 3), (3, 5), (5, 1)]);
        let sub = InducedSubgraph::new(&g, &[5, 3, 1]);
        assert_eq!(sub.host_vertices(), &[1, 3, 5]);
        for i in 0..3 {
            assert_eq!(sub.from_host(sub.to_host(i)), Some(i));
        }
        assert_eq!(sub.set_to_host(&[0, 2]), vec![1, 5]);
        assert_eq!(sub.set_from_host(&[5, 0, 1]), vec![0, 2]);
    }

    #[test]
    fn duplicates_are_canonicalized() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let sub = InducedSubgraph::new(&g, &[1, 1, 0]);
        assert_eq!(sub.graph.n(), 2);
        assert!(sub.graph.has_edge(0, 1));
    }
}

//! Simple structural properties: degrees, regularity, forests.

use crate::graph::{Graph, Vertex};

/// Maximum degree `Δ(G)`; 0 for the empty graph.
pub fn max_degree(g: &Graph) -> usize {
    g.vertices().map(|v| g.degree(v)).max().unwrap_or(0)
}

/// Minimum degree `δ(G)`; 0 for the empty graph.
pub fn min_degree(g: &Graph) -> usize {
    g.vertices().map(|v| g.degree(v)).min().unwrap_or(0)
}

/// Whether all degrees are equal (vacuously true when `n ≤ 1`).
pub fn is_regular(g: &Graph) -> bool {
    max_degree(g) == min_degree(g)
}

/// All isolated vertices, sorted.
pub fn isolated_vertices(g: &Graph) -> Vec<Vertex> {
    g.vertices().filter(|&v| g.degree(v) == 0).collect()
}

/// Whether the graph is acyclic (a forest): `m = n − #components`.
pub fn is_forest(g: &Graph) -> bool {
    g.m() + crate::connectivity::num_components(g) == g.n()
}

/// Whether the graph is a tree: connected and acyclic.
pub fn is_tree(g: &Graph) -> bool {
    g.n() > 0 && crate::connectivity::is_connected(g) && is_forest(g)
}

/// Whether the graph is a simple cycle `C_n` (connected, 2-regular).
pub fn is_cycle_graph(g: &Graph) -> bool {
    g.n() >= 3 && crate::connectivity::is_connected(g) && g.vertices().all(|v| g.degree(v) == 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn degrees() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(max_degree(&g), 3);
        assert_eq!(min_degree(&g), 1);
        assert!(!is_regular(&g));
    }

    #[test]
    fn regular_cycle() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(5);
        b.cycle(&vs);
        let g = b.build();
        assert!(is_regular(&g));
        assert!(is_cycle_graph(&g));
        assert!(!is_forest(&g));
    }

    #[test]
    fn forests_and_trees() {
        let t = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert!(is_tree(&t));
        assert!(is_forest(&t));
        let f = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(is_forest(&f));
        assert!(!is_tree(&f));
        let c = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(!is_forest(&c));
    }

    #[test]
    fn isolated() {
        let g = Graph::from_edges(4, &[(1, 2)]);
        assert_eq!(isolated_vertices(&g), vec![0, 3]);
    }
}

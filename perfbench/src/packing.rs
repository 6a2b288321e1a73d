//! The quality oracle behind `ratio_bound`: a greedy closed-neighbourhood
//! packing, which is a lower bound on the minimum dominating set.
//!
//! If the closed neighbourhoods `N[p]` of the vertices `p ∈ P` are
//! pairwise disjoint, every dominating set holds a vertex of each `N[p]`
//! (something must dominate `p`), so `|P| ≤ MDS`. The greedy pass visits
//! vertices by increasing degree, since a small `N[p]` blocks few later
//! candidates, and takes a vertex when no vertex of its closed
//! neighbourhood is covered yet. Bucketing by degree and touching each
//! neighbourhood at most twice keeps it O(n + m).

use lmds_graph::Graph;

/// Size of a greedy closed-neighbourhood packing of `g`: a lower bound
/// on the minimum dominating set.
pub fn packing_lower_bound(g: &Graph) -> usize {
    let n = g.n();
    let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
    let mut start = vec![0usize; max_deg + 2];
    for v in g.vertices() {
        start[g.degree(v) + 1] += 1;
    }
    for d in 1..start.len() {
        start[d] += start[d - 1];
    }
    let mut order = vec![0usize; n];
    for v in g.vertices() {
        let d = g.degree(v);
        order[start[d]] = v;
        start[d] += 1;
    }
    let mut covered = vec![false; n];
    let mut packed = 0;
    for &v in &order {
        if covered[v] || g.neighbors(v).iter().any(|&w| covered[w as usize]) {
            continue;
        }
        covered[v] = true;
        for &w in g.neighbors(v) {
            covered[w as usize] = true;
        }
        packed += 1;
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cases() {
        assert_eq!(packing_lower_bound(&Graph::new(0)), 0);
        assert_eq!(packing_lower_bound(&Graph::new(3)), 3);
        assert_eq!(packing_lower_bound(&lmds_gen::basic::path(7)), 3);
        assert_eq!(packing_lower_bound(&lmds_gen::basic::star(5)), 1);
    }
}

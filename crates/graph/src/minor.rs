//! Exact `K_{2,t}`-minor detection.
//!
//! `G` contains a `K_{2,t}` minor iff there are two disjoint connected
//! "hub" branch sets `A, B` and `t` pairwise-disjoint connected "petal"
//! branch sets, each disjoint from `A ∪ B` and adjacent to both hubs.
//! For fixed `(A, B)` the maximum number of petals equals the maximum
//! number of vertex-disjoint paths in `G − (A ∪ B)` from `X` (vertices
//! adjacent to `A`) to `Y` (vertices adjacent to `B`) — a petal contains
//! an `X`–`Y` path, and every `X`–`Y` path is a petal. By Menger this is
//! a unit-vertex-capacity max-flow.
//!
//! We therefore enumerate connected hub pairs (exponential, with an
//! explicit budget — intended for the small instances used to validate
//! generators) and take the max over flow values. A polynomial
//! single-vertex-hub heuristic is provided for larger graphs.

use crate::errors::GraphError;
use crate::graph::{Graph, Vertex};

/// Result of a budgeted minor search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinorAnswer {
    /// The search completed; the value is exact.
    Exact(usize),
    /// The budget ran out; the value is a lower bound only.
    LowerBound(usize),
}

impl MinorAnswer {
    /// The numeric value, exact or not.
    pub fn value(&self) -> usize {
        match *self {
            MinorAnswer::Exact(v) | MinorAnswer::LowerBound(v) => v,
        }
    }

    /// Whether the answer is exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, MinorAnswer::Exact(_))
    }
}

/// The largest `t` such that `G` has a `K_{2,t}` minor (0 if none, which
/// happens only when no two disjoint connected sets are joined by a
/// path).
///
/// `budget` bounds the number of hub-pair evaluations; when exhausted a
/// [`MinorAnswer::LowerBound`] is returned.
pub fn max_k2_minor(g: &Graph, budget: u64) -> MinorAnswer {
    let mut state = Search { g, budget, used: 0, best: 0, target: usize::MAX };
    let complete = state.run();
    if complete {
        MinorAnswer::Exact(state.best)
    } else {
        MinorAnswer::LowerBound(state.best)
    }
}

/// Whether `G` contains a `K_{2,t}` minor, with early exit.
///
/// # Errors
///
/// Returns [`GraphError::BudgetExhausted`] if the search budget ran out
/// before an answer was certain.
pub fn has_k2t_minor(g: &Graph, t: usize, budget: u64) -> Result<bool, GraphError> {
    if t == 0 {
        return Ok(true);
    }
    let mut state = Search { g, budget, used: 0, best: 0, target: t };
    let complete = state.run();
    if state.best >= t {
        Ok(true)
    } else if complete {
        Ok(false)
    } else {
        Err(GraphError::BudgetExhausted { what: "K_{2,t} minor search" })
    }
}

/// Whether `G` is `K_{2,t}`-minor-free (see [`has_k2t_minor`]).
///
/// # Errors
///
/// Propagates budget exhaustion.
pub fn is_k2t_minor_free(g: &Graph, t: usize, budget: u64) -> Result<bool, GraphError> {
    has_k2t_minor(g, t, budget).map(|h| !h)
}

struct Search<'g> {
    g: &'g Graph,
    budget: u64,
    used: u64,
    best: usize,
    target: usize,
}

impl<'g> Search<'g> {
    /// Returns `true` if the enumeration completed within budget.
    fn run(&mut self) -> bool {
        let n = self.g.n();
        // Enumerate connected sets A with minimum vertex `a`; then
        // connected sets B ⊆ V∖A with minimum vertex > a is NOT valid
        // (hubs are unordered but B's minimum may be below a's non-minimum
        // members); instead require min(B) > min(A) to break symmetry.
        let mut in_a = vec![false; n];
        for a in 0..n {
            let mut excluded = vec![false; n];
            excluded[..a].fill(true); // min(A) = a
            in_a[a] = true;
            let frontier: Vec<Vertex> = self
                .g
                .neighbors(a)
                .iter()
                .map(|&v| v as Vertex)
                .filter(|&v| !excluded[v])
                .collect();
            let done = self.extend_a(a, &mut in_a, frontier, &mut excluded);
            in_a[a] = false;
            if !done {
                return false;
            }
            if self.best >= self.target {
                return true;
            }
        }
        true
    }

    fn extend_a(
        &mut self,
        min_a: Vertex,
        in_a: &mut Vec<bool>,
        frontier: Vec<Vertex>,
        excluded: &mut Vec<bool>,
    ) -> bool {
        // Current A is a complete connected set: try all Bs against it.
        if !self.enumerate_b(min_a, in_a) {
            return false;
        }
        if self.best >= self.target {
            return true;
        }
        // Branch on frontier vertices: include each (one at a time,
        // excluding it for later branches to avoid duplicates).
        let mut newly_excluded = Vec::new();
        let mut ok = true;
        for (i, &v) in frontier.iter().enumerate() {
            if excluded[v] || in_a[v] {
                continue;
            }
            in_a[v] = true;
            let mut nf: Vec<Vertex> =
                frontier[i + 1..].iter().copied().filter(|&u| !excluded[u] && !in_a[u]).collect();
            nf.extend(
                self.g
                    .neighbors(v)
                    .iter()
                    .map(|&u| u as Vertex)
                    .filter(|&u| !excluded[u] && !in_a[u]),
            );
            ok = self.extend_a(min_a, in_a, nf, excluded);
            in_a[v] = false;
            if !ok || self.best >= self.target {
                break;
            }
            excluded[v] = true;
            newly_excluded.push(v);
        }
        for v in newly_excluded {
            excluded[v] = false;
        }
        ok
    }

    fn enumerate_b(&mut self, min_a: Vertex, in_a: &[bool]) -> bool {
        let n = self.g.n();
        let mut in_b = vec![false; n];
        for b in (min_a + 1)..n {
            if in_a[b] {
                continue;
            }
            let mut excluded: Vec<bool> = in_a.to_vec();
            excluded[..b].fill(true); // min(B) = b, and B avoids A
            in_b[b] = true;
            let frontier: Vec<Vertex> = self
                .g
                .neighbors(b)
                .iter()
                .map(|&v| v as Vertex)
                .filter(|&v| !excluded[v])
                .collect();
            let done = self.extend_b(in_a, &mut in_b, frontier, &mut excluded);
            in_b[b] = false;
            if !done {
                return false;
            }
            if self.best >= self.target {
                return true;
            }
        }
        true
    }

    fn extend_b(
        &mut self,
        in_a: &[bool],
        in_b: &mut Vec<bool>,
        frontier: Vec<Vertex>,
        excluded: &mut Vec<bool>,
    ) -> bool {
        self.used += 1;
        if self.used > self.budget {
            return false;
        }
        // Evaluate the (A, B) pair.
        let n = self.g.n();
        let a_set: Vec<Vertex> = (0..n).filter(|&v| in_a[v]).collect();
        let b_set: Vec<Vertex> = (0..n).filter(|&v| in_b[v]).collect();
        let mut blocked = vec![false; n];
        for &v in a_set.iter().chain(&b_set) {
            blocked[v] = true;
        }
        let petals = count_petals(self.g, &a_set, &b_set, &blocked);
        self.best = self.best.max(petals);
        if self.best >= self.target {
            return true;
        }
        let mut newly_excluded = Vec::new();
        let mut ok = true;
        for (i, &v) in frontier.iter().enumerate() {
            if excluded[v] || in_b[v] {
                continue;
            }
            in_b[v] = true;
            let mut nf: Vec<Vertex> =
                frontier[i + 1..].iter().copied().filter(|&u| !excluded[u] && !in_b[u]).collect();
            nf.extend(
                self.g
                    .neighbors(v)
                    .iter()
                    .map(|&u| u as Vertex)
                    .filter(|&u| !excluded[u] && !in_b[u]),
            );
            ok = self.extend_b(in_a, in_b, nf, excluded);
            in_b[v] = false;
            if !ok || self.best >= self.target {
                break;
            }
            excluded[v] = true;
            newly_excluded.push(v);
        }
        for v in newly_excluded {
            excluded[v] = false;
        }
        ok
    }
}

/// Maximum number of vertex-disjoint petals for hubs `(a_set, b_set)`:
/// max vertex-disjoint paths from `N(A)` to `N(B)` inside
/// `G − (A ∪ B)` (`blocked` marks `A ∪ B`).
fn count_petals(g: &Graph, a_set: &[Vertex], b_set: &[Vertex], blocked: &[bool]) -> usize {
    let n = g.n();
    let mut in_x = vec![false; n];
    let mut in_y = vec![false; n];
    for &a in a_set {
        for &u in g.neighbors(a) {
            if !blocked[u as usize] {
                in_x[u as usize] = true;
            }
        }
    }
    for &b in b_set {
        for &u in g.neighbors(b) {
            if !blocked[u as usize] {
                in_y[u as usize] = true;
            }
        }
    }
    if !in_x.iter().any(|&x| x) || !in_y.iter().any(|&y| y) {
        return 0;
    }
    // Unit-vertex-capacity max flow with node splitting:
    // node v_in = 2v, v_out = 2v+1; source = 2n, sink = 2n+1.
    let mut flow = FlowNet::new(2 * n + 2);
    let (source, sink) = (2 * n, 2 * n + 1);
    for v in 0..n {
        if blocked[v] {
            continue;
        }
        flow.add_edge(2 * v, 2 * v + 1, 1);
        if in_x[v] {
            flow.add_edge(source, 2 * v, 1);
        }
        if in_y[v] {
            flow.add_edge(2 * v + 1, sink, 1);
        }
    }
    for (u, v) in g.edges() {
        if !blocked[u] && !blocked[v] {
            flow.add_edge(2 * u + 1, 2 * v, 1);
            flow.add_edge(2 * v + 1, 2 * u, 1);
        }
    }
    flow.max_flow(source, sink)
}

/// Minimal augmenting-path max-flow for the unit-capacity networks above.
struct FlowNet {
    to: Vec<Vec<usize>>, // edge indices per node
    head: Vec<usize>,    // edge -> target node
    cap: Vec<i32>,       // edge -> residual capacity
}

impl FlowNet {
    fn new(n: usize) -> Self {
        FlowNet { to: vec![Vec::new(); n], head: Vec::new(), cap: Vec::new() }
    }

    fn add_edge(&mut self, u: usize, v: usize, c: i32) {
        let e = self.head.len();
        self.head.push(v);
        self.cap.push(c);
        self.to[u].push(e);
        self.head.push(u);
        self.cap.push(0);
        self.to[v].push(e + 1);
    }

    fn max_flow(&mut self, s: usize, t: usize) -> usize {
        let mut total = 0;
        loop {
            // BFS for an augmenting path.
            let mut pred: Vec<Option<usize>> = vec![None; self.to.len()];
            let mut q = std::collections::VecDeque::new();
            q.push_back(s);
            let mut found = false;
            'bfs: while let Some(u) = q.pop_front() {
                for &e in &self.to[u] {
                    let v = self.head[e];
                    if self.cap[e] > 0 && pred[v].is_none() && v != s {
                        pred[v] = Some(e);
                        if v == t {
                            found = true;
                            break 'bfs;
                        }
                        q.push_back(v);
                    }
                }
            }
            if !found {
                return total;
            }
            // Augment by 1 (unit capacities).
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path edge");
                self.cap[e] -= 1;
                self.cap[e ^ 1] += 1;
                v = self.head[e ^ 1];
            }
            total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    const BUDGET: u64 = 2_000_000;

    fn k2t(t: usize) -> Graph {
        // hubs 0, 1; petals 2..2+t.
        let mut g = Graph::new(2 + t);
        for p in 0..t {
            g.add_edge(0, 2 + p);
            g.add_edge(1, 2 + p);
        }
        g
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn k2t_contains_itself() {
        for t in 1..=4 {
            let g = k2t(t);
            let ans = max_k2_minor(&g, BUDGET);
            assert!(ans.is_exact());
            assert_eq!(ans.value(), t, "K_{{2,{t}}}");
            assert!(has_k2t_minor(&g, t, BUDGET).unwrap());
            assert!(!has_k2t_minor(&g, t + 1, BUDGET).unwrap());
        }
    }

    #[test]
    fn trees_have_no_k22_minor() {
        let trees = vec![
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
            Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
        ];
        for t in &trees {
            assert!(is_k2t_minor_free(t, 2, BUDGET).unwrap(), "{t:?}");
            assert_eq!(max_k2_minor(t, BUDGET).value(), 1);
        }
    }

    #[test]
    fn cycles_are_exactly_k22() {
        for n in 4..=8 {
            let g = cycle(n);
            let ans = max_k2_minor(&g, BUDGET);
            assert_eq!(ans.value(), 2, "C_{n}");
            assert!(!has_k2t_minor(&g, 3, BUDGET).unwrap());
        }
        // Triangle has only K_{2,1}.
        assert_eq!(max_k2_minor(&cycle(3), BUDGET).value(), 1);
    }

    #[test]
    fn k4_is_k23_free() {
        let mut g = Graph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(max_k2_minor(&g, BUDGET).value(), 2);
        assert!(is_k2t_minor_free(&g, 3, BUDGET).unwrap());
    }

    #[test]
    fn wheel_w5_contains_k23() {
        // Center 5, rim 0..4. Hubs = two rim vertices at distance 2;
        // petals: the shared rim neighbor, the center, and the far arc.
        let mut g = cycle(5);
        let c = g.add_vertex();
        for r in 0..5 {
            g.add_edge(c, r);
        }
        assert!(has_k2t_minor(&g, 3, BUDGET).unwrap());
        assert_eq!(max_k2_minor(&g, BUDGET).value(), 3);
    }

    #[test]
    fn multi_vertex_hubs_are_found() {
        // Caterpillar hub: path w1-w2-w3-w4 (vertices 0..4), one petal
        // P_i (vertices 4..8) hanging off each w_i, and a single second
        // hub b (vertex 8) adjacent to every petal. The K_{2,4} minor
        // needs the whole path as one hub branch set; no pair of single
        // vertices admits 4 internally disjoint connections.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3), // path
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7), // petals on the path
                (4, 8),
                (5, 8),
                (6, 8),
                (7, 8), // petals to hub b
            ],
        );
        let exact = max_k2_minor(&g, BUDGET);
        assert!(exact.is_exact());
        assert_eq!(exact.value(), 4);
    }

    #[test]
    fn budget_exhaustion_reports_lower_bound() {
        let g = cycle(8);
        match max_k2_minor(&g, 1) {
            MinorAnswer::LowerBound(_) => {}
            MinorAnswer::Exact(_) => panic!("budget of 1 cannot complete"),
        }
        assert!(has_k2t_minor(&g, 3, 1).is_err());
    }

    #[test]
    fn disconnected_graph() {
        // Minor must live within one component: two disjoint C4s still
        // only give K_{2,2}.
        let mut g = cycle(4);
        let h = cycle(4);
        g.disjoint_union(&h);
        assert_eq!(max_k2_minor(&g, BUDGET).value(), 2);
    }
}

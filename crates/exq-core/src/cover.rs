//! The constraint graph and weighted vertex-cover solvers (§4.2).
//!
//! Enforcing a set of association SCs means choosing, per constraint, one of
//! its two endpoint paths to encrypt. Modeling endpoint paths as weighted
//! vertices (weight = encryption cost) and constraints as edges turns
//! optimal secure encryption scheme selection into minimum weighted vertex
//! cover — which is how the paper proves NP-hardness (Theorem 4.2, reduction
//! from VERTEX COVER).
//!
//! Three solvers are provided:
//!
//! * [`solve_exact`] — branch-and-bound exact minimum (the `opt` scheme of
//!   §7.1; constraint graphs are small, so exponential worst case is fine);
//! * [`solve_clarkson`] — Clarkson's modified greedy 2-approximation \[10\]
//!   (the `app` scheme);
//! * [`solve_matching`] — the classic maximal-matching 2-approximation,
//!   kept as an ablation baseline.

use crate::constraints::{subtree_len, SecurityConstraint};
use exq_xml::TreeView;
use exq_xpath::{eval, Path};
use std::collections::HashMap;

/// A vertex: an absolute endpoint path plus its encryption cost.
#[derive(Debug, Clone)]
pub struct CoverVertex {
    pub path: Path,
    /// Encryption cost: total subtree size of all bound nodes, plus one
    /// decoy node per bound leaf (the |S| metric of Definition 4.1).
    pub weight: u64,
    /// How many document nodes the path binds.
    pub bound_nodes: usize,
}

/// The constraint graph (Figure 8): a vertex per distinct association
/// endpoint, an edge per association SC.
#[derive(Debug, Clone, Default)]
pub struct ConstraintGraph {
    pub vertices: Vec<CoverVertex>,
    pub edges: Vec<(usize, usize)>,
}

impl ConstraintGraph {
    /// Builds the graph from the association SCs in `constraints`, weighting
    /// vertices by their encryption cost on `doc`. Node-type SCs do not
    /// appear in the graph (they are unconditionally encrypted).
    pub fn build(doc: &impl TreeView, constraints: &[SecurityConstraint]) -> ConstraintGraph {
        let mut g = ConstraintGraph::default();
        let mut index: HashMap<String, usize> = HashMap::new();
        for sc in constraints {
            let Some((p1, p2)) = sc.endpoint_paths() else {
                continue;
            };
            let a = g.intern_vertex(doc, &mut index, p1);
            let b = g.intern_vertex(doc, &mut index, p2);
            if a != b && !g.edges.contains(&(a, b)) && !g.edges.contains(&(b, a)) {
                g.edges.push((a, b));
            }
        }
        g
    }

    fn intern_vertex(
        &mut self,
        doc: &impl TreeView,
        index: &mut HashMap<String, usize>,
        path: Path,
    ) -> usize {
        let key = path.to_string();
        if let Some(&i) = index.get(&key) {
            return i;
        }
        let bound = eval(doc, &path);
        let weight: u64 = bound
            .iter()
            .map(|&n| subtree_len(doc, n) as u64 + 1) // +1 models the decoy
            .sum();
        let v = CoverVertex {
            path,
            // A path binding nothing still costs a token amount so the
            // solvers have a total order.
            weight: weight.max(1),
            bound_nodes: bound.len(),
        };
        let i = self.vertices.len();
        self.vertices.push(v);
        index.insert(key, i);
        i
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total weight of a cover.
    pub fn cover_weight(&self, cover: &[usize]) -> u64 {
        cover.iter().map(|&v| self.vertices[v].weight).sum()
    }

    /// Does `cover` touch every edge?
    pub fn is_cover(&self, cover: &[usize]) -> bool {
        self.edges
            .iter()
            .all(|&(a, b)| cover.contains(&a) || cover.contains(&b))
    }
}

/// Exact minimum-weight vertex cover by branch and bound over edges.
pub fn solve_exact(g: &ConstraintGraph) -> Vec<usize> {
    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut chosen = vec![false; g.vertices.len()];
    branch(g, 0, 0, &mut chosen, &mut best);
    let mut cover = best.map(|(_, c)| c).unwrap_or_default();
    cover.sort_unstable();
    cover
}

fn branch(
    g: &ConstraintGraph,
    edge_idx: usize,
    weight: u64,
    chosen: &mut Vec<bool>,
    best: &mut Option<(u64, Vec<usize>)>,
) {
    if best.as_ref().is_some_and(|(bw, _)| weight >= *bw) {
        return; // bound
    }
    // Find the next uncovered edge.
    let mut i = edge_idx;
    while i < g.edges.len() {
        let (a, b) = g.edges[i];
        if !chosen[a] && !chosen[b] {
            break;
        }
        i += 1;
    }
    if i == g.edges.len() {
        let cover: Vec<usize> = chosen
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| c.then_some(v))
            .collect();
        if best.as_ref().is_none_or(|(bw, _)| weight < *bw) {
            *best = Some((weight, cover));
        }
        return;
    }
    let (a, b) = g.edges[i];
    for v in [a, b] {
        chosen[v] = true;
        branch(g, i + 1, weight + g.vertices[v].weight, chosen, best);
        chosen[v] = false;
    }
}

/// Clarkson's modified greedy for weighted vertex cover (2-approximation):
/// repeatedly take the vertex minimizing residual-weight / residual-degree,
/// charging its ratio to the neighbors.
pub fn solve_clarkson(g: &ConstraintGraph) -> Vec<usize> {
    let n = g.vertices.len();
    let mut residual_w: Vec<f64> = g.vertices.iter().map(|v| v.weight as f64).collect();
    let mut alive_edges: Vec<(usize, usize)> = g.edges.clone();
    let mut cover = Vec::new();
    let mut in_cover = vec![false; n];
    while !alive_edges.is_empty() {
        let mut degree = vec![0usize; n];
        for &(a, b) in &alive_edges {
            degree[a] += 1;
            degree[b] += 1;
        }
        let v = (0..n)
            .filter(|&v| !in_cover[v] && degree[v] > 0)
            .min_by(|&x, &y| {
                let rx = residual_w[x] / degree[x] as f64;
                let ry = residual_w[y] / degree[y] as f64;
                rx.partial_cmp(&ry).unwrap()
            })
            .expect("alive edge implies an uncovered endpoint");
        let ratio = residual_w[v] / degree[v] as f64;
        for &(a, b) in &alive_edges {
            if a == v {
                residual_w[b] -= ratio;
            } else if b == v {
                residual_w[a] -= ratio;
            }
        }
        in_cover[v] = true;
        cover.push(v);
        alive_edges.retain(|&(a, b)| a != v && b != v);
    }
    cover.sort_unstable();
    cover
}

/// Maximal-matching 2-approximation (unweighted flavor): for each uncovered
/// edge, take both endpoints.
pub fn solve_matching(g: &ConstraintGraph) -> Vec<usize> {
    let mut in_cover = vec![false; g.vertices.len()];
    for &(a, b) in &g.edges {
        if !in_cover[a] && !in_cover[b] {
            in_cover[a] = true;
            in_cover[b] = true;
        }
    }
    in_cover
        .iter()
        .enumerate()
        .filter_map(|(v, &c)| c.then_some(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_xml::Document;

    fn doc() -> Document {
        Document::parse(
            r#"<hospital>
                <patient><pname>Betty</pname><SSN>763895</SSN>
                  <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat></patient>
                <patient><pname>Matt</pname><SSN>276543</SSN>
                  <treat><disease>leukemia</disease><doctor>Brown</doctor></treat>
                  <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat></patient>
               </hospital>"#,
        )
        .unwrap()
    }

    fn constraints() -> Vec<SecurityConstraint> {
        [
            "//patient:(/pname, /SSN)",
            "//patient:(/pname, //disease)",
            "//treat:(/disease, /doctor)",
        ]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn graph_shape() {
        let d = doc();
        let g = ConstraintGraph::build(&d, &constraints());
        // endpoints: patient/pname, patient/SSN, patient//disease,
        // treat/disease, treat/doctor
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 3);
        // weights reflect document counts: pname binds 2 nodes (subtree 2 each +1 decoy)
        let pname = g
            .vertices
            .iter()
            .find(|v| v.path.to_string() == "//patient/pname")
            .unwrap();
        assert_eq!(pname.bound_nodes, 2);
        assert_eq!(pname.weight, 2 * 3);
    }

    #[test]
    fn node_type_scs_excluded() {
        let d = doc();
        let scs = vec![SecurityConstraint::parse("//treat").unwrap()];
        let g = ConstraintGraph::build(&d, &scs);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(solve_exact(&g).is_empty());
    }

    #[test]
    fn exact_is_a_cover_and_minimal() {
        let d = doc();
        let g = ConstraintGraph::build(&d, &constraints());
        let c = solve_exact(&g);
        assert!(g.is_cover(&c));
        // Brute-force verify minimality over all subsets.
        let n = g.vertex_count();
        let best = (0u32..1 << n)
            .filter_map(|mask| {
                let set: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                g.is_cover(&set).then(|| g.cover_weight(&set))
            })
            .min()
            .unwrap();
        assert_eq!(g.cover_weight(&c), best);
    }

    #[test]
    fn clarkson_within_twice_optimal() {
        let d = doc();
        let g = ConstraintGraph::build(&d, &constraints());
        let opt = g.cover_weight(&solve_exact(&g));
        let app = solve_clarkson(&g);
        assert!(g.is_cover(&app));
        assert!(g.cover_weight(&app) <= 2 * opt);
    }

    #[test]
    fn matching_is_a_cover() {
        let d = doc();
        let g = ConstraintGraph::build(&d, &constraints());
        let m = solve_matching(&g);
        assert!(g.is_cover(&m));
    }

    #[test]
    fn random_graphs_agree_on_coverness() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..9);
            let mut g = ConstraintGraph::default();
            for i in 0..n {
                g.vertices.push(CoverVertex {
                    path: Path::parse(&format!("//v{i}")).unwrap(),
                    weight: rng.gen_range(1..50),
                    bound_nodes: 1,
                });
            }
            for a in 0..n {
                for b in a + 1..n {
                    if rng.gen_bool(0.4) {
                        g.edges.push((a, b));
                    }
                }
            }
            let exact = solve_exact(&g);
            let clarkson = solve_clarkson(&g);
            let matching = solve_matching(&g);
            assert!(g.is_cover(&exact));
            assert!(g.is_cover(&clarkson));
            assert!(g.is_cover(&matching));
            assert!(g.cover_weight(&exact) <= g.cover_weight(&clarkson));
            assert!(g.cover_weight(&clarkson) <= 2 * g.cover_weight(&exact));
        }
    }

    #[test]
    fn empty_graph() {
        let g = ConstraintGraph::default();
        assert!(solve_exact(&g).is_empty());
        assert!(solve_clarkson(&g).is_empty());
        assert!(solve_matching(&g).is_empty());
        assert!(g.is_cover(&[]));
    }

    #[test]
    fn shared_endpoint_dedup() {
        // Two SCs sharing an endpoint produce 3 vertices, 2 edges.
        let d = doc();
        let scs = vec![
            SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
            SecurityConstraint::parse("//patient:(/pname, //doctor)").unwrap(),
        ];
        let g = ConstraintGraph::build(&d, &scs);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        // Optimal cover is the shared pname vertex alone if cheapest.
        let c = solve_exact(&g);
        assert!(g.is_cover(&c));
    }
}

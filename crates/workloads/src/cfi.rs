//! Cai–Fürer–Immerman construction.
//!
//! Theorem 7.7 of the paper appeals to the structures of Cai, Fürer and
//! Immerman \[11\]: a sequence of pairs Gₙ, Hₙ of graphs that (i) are **not**
//! isomorphic, (ii) can be told apart in polynomial (indeed linear) time once
//! an ordering of the vertices is available, but (iii) agree on all sentences
//! of counting logic with a bounded number of variables — equivalently, are
//! indistinguishable by bounded-dimensional Weisfeiler–Leman refinement.
//! This is what separates (FO(wo≤) + LFP + count), and the hom-based language
//! of Proposition 7.6, from order-independent P.
//!
//! This module reconstructs the standard CFI gadget construction over an
//! arbitrary connected base graph:
//!
//! * for every base vertex `v` with incident edges `E(v)`, one *middle*
//!   vertex `m_{v,S}` per even-cardinality subset `S ⊆ E(v)`;
//! * for every incident pair `(v, e)`, two *port* vertices `a_{v,e}` ("1")
//!   and `b_{v,e}` ("0");
//! * gadget edges `m_{v,S} — a_{v,e}` when `e ∈ S` and `m_{v,S} — b_{v,e}`
//!   when `e ∉ S`;
//! * for every base edge `e = {u, v}`: the straight connection
//!   `a_{u,e}—a_{v,e}, b_{u,e}—b_{v,e}`, or the *twisted* connection
//!   `a_{u,e}—b_{v,e}, b_{u,e}—a_{v,e}`.
//!
//! Over a connected base graph, two CFI graphs are isomorphic iff their
//! numbers of twisted edges have the same parity; the canonical pair is
//! therefore (zero twists, one twist). Over a cycle the pair is exactly the
//! classic "one long cycle vs. two shorter cycles" example, non-isomorphic
//! and linear-time distinguishable by counting connected components, yet
//! 1-WL-equivalent; over 3-regular base graphs such as K₄ even 2-WL cannot
//! tell the pair apart.

use std::collections::BTreeMap;

use crate::wl::ColoredGraph;

/// An undirected base graph for the CFI construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseGraph {
    /// Number of vertices.
    pub n: usize,
    /// Undirected edges, each stored once with u < v.
    pub edges: Vec<(usize, usize)>,
}

impl BaseGraph {
    /// Builds a base graph from an edge list (normalised, deduplicated).
    pub fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut es: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n && u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        es.sort_unstable();
        es.dedup();
        BaseGraph { n, edges: es }
    }

    /// The cycle Cₙ.
    pub fn cycle(n: usize) -> Self {
        BaseGraph::new(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// The complete graph K₄ (3-regular, treewidth 3) — the smallest base
    /// graph for which the CFI pair defeats 2-WL.
    pub fn k4() -> Self {
        BaseGraph::new(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    /// The 3-regular prism graph (two triangles joined by a matching).
    pub fn prism() -> Self {
        BaseGraph::new(
            6,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        )
    }

    /// Incident edge indices of vertex `v`.
    pub fn incident(&self, v: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a == v || b == v)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Names of the vertices of a CFI graph, kept so experiments can relate the
/// built graph back to the construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfiVertex {
    /// A middle vertex `m_{v,S}`: base vertex and the even subset of incident
    /// edge indices.
    Middle {
        /// Base vertex.
        base: usize,
        /// Even-cardinality subset of incident edge indices, sorted.
        subset: Vec<usize>,
    },
    /// A port vertex `a_{v,e}` (polarity true) or `b_{v,e}` (polarity false).
    Port {
        /// Base vertex.
        base: usize,
        /// Base edge index.
        edge: usize,
        /// `true` for the "a" (1) port, `false` for the "b" (0) port.
        polarity: bool,
    },
}

/// A constructed CFI graph together with its provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfiGraph {
    /// The underlying plain graph (for WL refinement and isomorphism tests).
    pub graph: ColoredGraph,
    /// Vertex provenance, indexed like `graph`'s vertices.
    pub vertices: Vec<CfiVertex>,
    /// Indices of the base edges that were twisted.
    pub twisted_edges: Vec<usize>,
}

impl CfiGraph {
    /// Parity of the number of twists — the isomorphism invariant.
    pub fn twist_parity(&self) -> bool {
        self.twisted_edges.len() % 2 == 1
    }

    /// Number of connected components of the CFI graph — a linear-time,
    /// order-using invariant that distinguishes the cycle-based pairs.
    pub fn connected_components(&self) -> usize {
        let n = self.graph.n;
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for &v in &self.graph.adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components
    }
}

/// Builds the CFI graph over `base` with the given set of twisted base-edge
/// indices.
pub fn cfi_graph(base: &BaseGraph, twisted_edges: &[usize]) -> CfiGraph {
    let mut vertices: Vec<CfiVertex> = Vec::new();
    let mut port_index: BTreeMap<(usize, usize, bool), usize> = BTreeMap::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // Create ports for every (vertex, incident edge).
    for v in 0..base.n {
        for e in base.incident(v) {
            for polarity in [true, false] {
                let idx = vertices.len();
                vertices.push(CfiVertex::Port {
                    base: v,
                    edge: e,
                    polarity,
                });
                port_index.insert((v, e, polarity), idx);
            }
        }
    }

    // Create middle vertices for every even subset of incident edges and
    // wire them to the ports.
    for v in 0..base.n {
        let inc = base.incident(v);
        let d = inc.len();
        for mask in 0..(1usize << d) {
            if (mask.count_ones() % 2) != 0 {
                continue;
            }
            let subset: Vec<usize> = inc
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let m_idx = vertices.len();
            vertices.push(CfiVertex::Middle {
                base: v,
                subset: subset.clone(),
            });
            for &e in &inc {
                let polarity = subset.contains(&e);
                let p_idx = port_index[&(v, e, polarity)];
                edges.push((m_idx, p_idx));
            }
        }
    }

    // Connect ports across base edges, twisting where requested.
    for (e_idx, &(u, v)) in base.edges.iter().enumerate() {
        let twisted = twisted_edges.contains(&e_idx);
        let a_u = port_index[&(u, e_idx, true)];
        let b_u = port_index[&(u, e_idx, false)];
        let a_v = port_index[&(v, e_idx, true)];
        let b_v = port_index[&(v, e_idx, false)];
        if twisted {
            edges.push((a_u, b_v));
            edges.push((b_u, a_v));
        } else {
            edges.push((a_u, a_v));
            edges.push((b_u, b_v));
        }
    }

    let graph = ColoredGraph::from_edges(vertices.len(), edges);
    CfiGraph {
        graph,
        vertices,
        twisted_edges: twisted_edges.to_vec(),
    }
}

/// The canonical CFI pair over a base graph: the untwisted graph Gₙ and the
/// graph Hₙ with exactly one twisted edge. Over a connected base graph the
/// two are never isomorphic (odd twist-parity difference).
pub fn cfi_pair(base: &BaseGraph) -> (CfiGraph, CfiGraph) {
    let untwisted = cfi_graph(base, &[]);
    let twisted = cfi_graph(base, &[0]);
    (untwisted, twisted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl::{isomorphic, wl1_equivalent, wl2_equivalent};

    #[test]
    fn base_graph_helpers() {
        let c4 = BaseGraph::cycle(4);
        assert_eq!(c4.edges.len(), 4);
        assert_eq!(c4.incident(0).len(), 2);
        let k4 = BaseGraph::k4();
        assert_eq!(k4.edges.len(), 6);
        for v in 0..4 {
            assert_eq!(k4.incident(v).len(), 3);
        }
        let prism = BaseGraph::prism();
        assert_eq!(prism.edges.len(), 9);
        for v in 0..6 {
            assert_eq!(prism.incident(v).len(), 3);
        }
    }

    #[test]
    fn gadget_sizes_match_construction() {
        // Over a cycle (degree 2): per vertex, 2 middles + 4 ports = 6.
        let (g, h) = cfi_pair(&BaseGraph::cycle(5));
        assert_eq!(g.graph.n, 5 * 6);
        assert_eq!(h.graph.n, 5 * 6);
        // Over K4 (degree 3): per vertex, 4 middles + 6 ports = 10.
        let (g, _) = cfi_pair(&BaseGraph::k4());
        assert_eq!(g.graph.n, 4 * 10);
        // Edge counts agree between the twisted and untwisted versions.
        let (g, h) = cfi_pair(&BaseGraph::cycle(4));
        assert_eq!(g.graph.edge_count(), h.graph.edge_count());
    }

    #[test]
    fn twist_parity_recorded() {
        let base = BaseGraph::cycle(4);
        assert!(!cfi_graph(&base, &[]).twist_parity());
        assert!(cfi_graph(&base, &[0]).twist_parity());
        assert!(!cfi_graph(&base, &[0, 2]).twist_parity());
    }

    #[test]
    fn cycle_pair_is_wl1_equivalent_but_not_isomorphic() {
        let (g, h) = cfi_pair(&BaseGraph::cycle(4));
        assert!(wl1_equivalent(&g.graph, &h.graph));
        // The order-using linear-time invariant — connected components —
        // tells them apart…
        assert_ne!(g.connected_components(), h.connected_components());
        // …so they cannot be isomorphic.
        assert!(!isomorphic(&g.graph, &h.graph));
    }

    #[test]
    fn even_twists_over_cycle_are_isomorphic_to_untwisted() {
        let base = BaseGraph::cycle(4);
        let g = cfi_graph(&base, &[]);
        let g2 = cfi_graph(&base, &[0, 1]);
        assert_eq!(g.connected_components(), g2.connected_components());
        assert!(isomorphic(&g.graph, &g2.graph));
    }

    #[test]
    fn k4_pair_defeats_wl1_and_wl2() {
        let (g, h) = cfi_pair(&BaseGraph::k4());
        assert!(wl1_equivalent(&g.graph, &h.graph));
        assert!(wl2_equivalent(&g.graph, &h.graph));
        // Non-isomorphism follows from the odd twist parity (CFI theorem);
        // the brute-force check is infeasible here precisely because the
        // colour classes are so large — which is the point of the example.
        assert_ne!(g.twist_parity(), h.twist_parity());
    }

    #[test]
    fn ports_and_middles_counted() {
        let (g, _) = cfi_pair(&BaseGraph::cycle(3));
        let ports = g
            .vertices
            .iter()
            .filter(|v| matches!(v, CfiVertex::Port { .. }))
            .count();
        let middles = g
            .vertices
            .iter()
            .filter(|v| matches!(v, CfiVertex::Middle { .. }))
            .count();
        assert_eq!(ports, 3 * 2 * 2);
        assert_eq!(middles, 3 * 2);
        // Every middle subset has even cardinality.
        for v in &g.vertices {
            if let CfiVertex::Middle { subset, .. } = v {
                assert_eq!(subset.len() % 2, 0);
            }
        }
    }

    #[test]
    fn components_of_cycle_cfi() {
        // The untwisted CFI graph over a cycle splits into two components;
        // the twisted one is a single component (the classic long-cycle
        // example).
        let (g, h) = cfi_pair(&BaseGraph::cycle(5));
        assert_eq!(g.connected_components(), 2);
        assert_eq!(h.connected_components(), 1);
    }
}

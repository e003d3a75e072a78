//! The macro data-flow graph structure.
//!
//! A deliberately small DAG representation: nodes carry a primitive kind,
//! operand dimensions and a human-readable label; edges express data
//! dependencies. The scheduler and synthesizer only need topological order,
//! per-node costs and critical paths, so no general graph library is pulled
//! in.

use crate::node::{node_cost, Dims, NodeKind};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within one [`MDfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One node of the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Primitive operation kind.
    pub kind: NodeKind,
    /// Operand dimensions.
    pub dims: Dims,
    /// Human-readable role, e.g. `"schur.WUinvWt"`.
    pub label: String,
}

/// A macro data-flow graph.
#[derive(Debug, Clone, Default)]
pub struct MDfg {
    nodes: Vec<Node>,
    /// Adjacency: edges[i] = successors of node i.
    edges: Vec<Vec<usize>>,
    /// Reverse adjacency for in-degree queries.
    redges: Vec<Vec<usize>>,
}

impl MDfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, dims: Dims, label: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            kind,
            dims,
            label: label.into(),
        });
        self.edges.push(Vec::new());
        self.redges.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a dependency edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range or on a self-edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.0 < self.nodes.len() && to.0 < self.nodes.len());
        assert_ne!(from, to, "self-edges are not allowed");
        self.edges[from.0].push(to.0);
        self.redges[to.0].push(from.0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Iterator over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Topological order of the nodes.
    ///
    /// # Errors
    ///
    /// Returns `Err(offending_id)` with some node on a cycle when the graph
    /// is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NodeId> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self.redges.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(NodeId(i));
            for &s in &self.edges[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            Err(NodeId(stuck))
        }
    }

    /// Total arithmetic cost of the whole graph.
    pub fn total_cost(&self) -> u64 {
        self.nodes.iter().map(|n| node_cost(n.kind, n.dims)).sum()
    }

    /// Histogram of node kinds (how many of each primitive the graph uses).
    pub fn kind_histogram(&self) -> HashMap<NodeKind, usize> {
        let mut h = HashMap::new();
        for n in &self.nodes {
            *h.entry(n.kind).or_insert(0) += 1;
        }
        h
    }
}

impl fmt::Display for MDfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "M-DFG ({} nodes)", self.nodes.len())?;
        for (i, n) in self.nodes.iter().enumerate() {
            let succ: Vec<String> = self.edges[i].iter().map(|s| s.to_string()).collect();
            writeln!(
                f,
                "  [{i}] {} {:?} '{}' -> [{}]",
                n.kind,
                (n.dims.rows, n.dims.cols, n.dims.inner),
                n.label,
                succ.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (MDfg, [NodeId; 4]) {
        // a → b, a → c, b → d, c → d
        let mut g = MDfg::new();
        let a = g.add_node(NodeKind::VJac, Dims::rect(10, 0), "a");
        let b = g.add_node(NodeKind::MatMul, Dims::product(4, 4, 4), "b");
        let c = g.add_node(NodeKind::MatMul, Dims::product(8, 8, 8), "c");
        let d = g.add_node(NodeKind::MatSub, Dims::square(4), "d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn topo_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn cycle_detected() {
        let mut g = MDfg::new();
        let a = g.add_node(NodeKind::MatMul, Dims::product(2, 2, 2), "a");
        let b = g.add_node(NodeKind::MatMul, Dims::product(2, 2, 2), "b");
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(g.topo_order().is_err());
    }

    #[test]
    fn total_cost_sums_every_node() {
        let (g, _) = diamond();
        assert_eq!(g.total_cost(), 600 + 64 + 512 + 16);
    }

    #[test]
    fn histogram_counts_kinds() {
        let (g, _) = diamond();
        let h = g.kind_histogram();
        assert_eq!(h[&NodeKind::MatMul], 2);
        assert_eq!(h[&NodeKind::VJac], 1);
    }

    #[test]
    #[should_panic(expected = "self-edges")]
    fn self_edge_rejected() {
        let mut g = MDfg::new();
        let a = g.add_node(NodeKind::MatTp, Dims::square(2), "a");
        g.add_edge(a, a);
    }
}

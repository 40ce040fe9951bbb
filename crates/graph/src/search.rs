//! Allocation-free searches over [`CsrGraph`] with reusable scratch state.
//!
//! A search that allocates `vec![f64::INFINITY; n]`, `vec![None; n]` and a
//! fresh heap on every query pays for those allocations on every one of
//! the hundreds of thousands of queries a batch analysis issues over the
//! same few-hundred-node graph. [`SearchState`] keeps the arrays alive
//! across queries and resets only the entries the previous search touched
//! (a "touched list"), making per-query setup O(nodes settled), not
//! O(graph).
//!
//! Three search flavours share one core loop:
//!
//! * [`csr_shortest_path_tree`] — full single-source tree;
//! * [`csr_dijkstra`] / [`csr_dijkstra_filtered`] — s→t queries that stop
//!   the moment the target settles, optionally pruned by an ALT landmark
//!   bound ([`Landmarks`]);
//! * [`bidirectional_dijkstra`] — simultaneous forward/backward search
//!   meeting in the middle; exact minimum cost, but **cost-only** callers
//!   should use it (ties may resolve to a different equal-cost path than
//!   the unidirectional engine).
//!
//! DESIGN.md §10 spells out why the early exit and the ALT pruning return
//! byte-identical paths to a full-tree search (the property tests pin this
//! against a full-tree reference engine): once a node settles its
//! distance and predecessor are final, and a pruned relaxation can never
//! be part of the target's predecessor chain (the margin in
//! [`prune_margin`] covers float rounding in the landmark bound).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CsrGraph, EdgeId, GraphError, Landmarks, NodeId, Path};

/// A total-ordering wrapper for finite non-negative `f64` costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sentinel for "no predecessor" in the flat prev arrays.
const NONE: u32 = u32::MAX;

/// Reusable scratch for the CSR searches: distance/predecessor arrays, the
/// binary heap, and the touched list that makes resets cheap.
///
/// One `SearchState` serves any number of sequential queries (even over
/// different graphs); it is not `Sync` — parallel batches keep one per
/// worker chunk.
#[derive(Debug, Default)]
pub struct SearchState {
    dist: Vec<f64>,
    prev_edge: Vec<u32>,
    prev_node: Vec<u32>,
    /// Node ids whose entries the last search dirtied.
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
}

impl SearchState {
    /// A fresh scratch; arrays grow lazily to the largest graph searched.
    pub fn new() -> SearchState {
        SearchState::default()
    }

    /// Resets dirty entries from the previous search and ensures capacity
    /// for an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev_edge.resize(n, NONE);
            self.prev_node.resize(n, NONE);
        }
        for &t in &self.touched {
            self.dist[t as usize] = f64::INFINITY;
            self.prev_edge[t as usize] = NONE;
            self.prev_node[t as usize] = NONE;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Cost of the cheapest path found to `n` by the last search, or
    /// `f64::INFINITY` if unreached (including out-of-bounds ids).
    pub fn distance(&self, n: NodeId) -> f64 {
        self.dist.get(n.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// The last tree edge into `n` and the node it leaves from, as found by
    /// the last search; `None` for the source, unreached nodes and
    /// out-of-bounds ids. Following it from any reached node walks the
    /// same chain [`SearchState::path_to`] reconstructs.
    pub fn predecessor(&self, n: NodeId) -> Option<(EdgeId, NodeId)> {
        match self.prev_edge.get(n.index()) {
            Some(&e) if e != NONE => Some((EdgeId(e), NodeId(self.prev_node[n.index()]))),
            _ => None,
        }
    }

    /// Reconstructs the cheapest path found to `target` by the last
    /// search, or `None` if unreached.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target);
        if !cost.is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target.index();
        while self.prev_edge[cur] != NONE {
            edges.push(EdgeId(self.prev_edge[cur]));
            nodes.push(NodeId(self.prev_node[cur]));
            cur = self.prev_node[cur] as usize;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }
}

/// Slack added to the ALT pruning bound so float rounding in the landmark
/// lookup can never prune a relaxation that exact arithmetic would keep.
#[inline]
fn prune_margin(ub: f64) -> f64 {
    1e-9 + 1e-12 * ub
}

/// The shared search core. `target = None` builds a full tree; otherwise
/// the loop stops when `target` settles. `banned` masks nodes/edges (see
/// [`csr_dijkstra_filtered`]); `lm` enables ALT pruning toward `target`.
fn run(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    target: Option<NodeId>,
    cost: &mut dyn FnMut(EdgeId) -> f64,
    banned: Option<(&[bool], &[bool])>,
    lm: Option<&Landmarks>,
) -> Result<(), GraphError> {
    let n = csr.node_count();
    if source.index() >= n {
        return Err(GraphError::NodeOutOfBounds {
            index: source.0,
            nodes: n,
        });
    }
    st.begin(n);
    st.dist[source.index()] = 0.0;
    st.touched.push(source.0);
    st.heap.push(Reverse((OrdF64(0.0), source.0)));
    let alt = match (lm, target) {
        (Some(l), Some(t)) => Some((l, t)),
        _ => None,
    };
    while let Some(Reverse((OrdF64(d), nu))) = st.heap.pop() {
        if d > st.dist[nu as usize] {
            continue; // stale entry
        }
        if let Some(t) = target {
            if nu == t.0 {
                break; // target settled: its distance and chain are final
            }
        }
        if let Some((l, t)) = alt {
            // The node was pushed before the upper bound tightened; if the
            // landmark bound now rules it out, skip the expansion.
            let ub = st.dist[t.index()];
            if ub.is_finite() && d + l.lower_bound(NodeId(nu), t) > ub + prune_margin(ub) {
                continue;
            }
        }
        let (eids, tgts) = csr.neighbors_raw(NodeId(nu));
        for i in 0..eids.len() {
            let e = EdgeId(eids[i]);
            let c = cost(e);
            if c.is_nan() || c < 0.0 {
                return Err(GraphError::InvalidCost { edge: e });
            }
            if let Some((bn, be)) = banned {
                let (u, v) = csr.endpoints(e);
                if be.get(e.index()).copied().unwrap_or(false)
                    || bn.get(u.index()).copied().unwrap_or(false)
                    || bn.get(v.index()).copied().unwrap_or(false)
                {
                    continue;
                }
            }
            if c.is_infinite() {
                continue;
            }
            let m = tgts[i] as usize;
            let nd = d + c;
            if nd < st.dist[m] {
                if let Some((l, t)) = alt {
                    let ub = st.dist[t.index()];
                    if ub.is_finite()
                        && nd + l.lower_bound(NodeId(tgts[i]), t) > ub + prune_margin(ub)
                    {
                        continue;
                    }
                }
                if st.dist[m].is_infinite() {
                    st.touched.push(tgts[i]);
                }
                st.dist[m] = nd;
                st.prev_edge[m] = e.0;
                st.prev_node[m] = nu;
                st.heap.push(Reverse((OrdF64(nd), tgts[i])));
            }
        }
    }
    Ok(())
}

/// Full single-source tree into `st`. Read results with
/// [`SearchState::distance`] / [`SearchState::path_to`].
///
/// Costs must be non-negative; a NaN or negative cost is an
/// [`GraphError::InvalidCost`] the first time its edge is relaxed.
/// `f64::INFINITY` is allowed and treated as "edge absent".
pub fn csr_shortest_path_tree(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<(), GraphError> {
    run(csr, st, source, None, &mut cost, None, None)
}

/// Cheapest `source → target` path, or `Ok(None)` if disconnected.
/// Stops as soon as `target` settles; the returned path (nodes, edges,
/// cost bits) is exactly what the full tree of [`csr_shortest_path_tree`]
/// reconstructs for `target`.
pub fn csr_dijkstra(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<Option<Path>, GraphError> {
    if target.index() >= csr.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: csr.node_count(),
        });
    }
    run(csr, st, source, Some(target), &mut cost, None, None)?;
    Ok(st.path_to(target))
}

/// Like [`csr_dijkstra`] with node/edge masks: banned nodes and edges
/// (and edges touching a banned node) are skipped, and a banned source
/// gives `Ok(None)`. Masks may be shorter than the graph (missing entries
/// are unbanned).
///
/// `lm` adds optional ALT pruning via a [`Landmarks`] table built over the
/// *same* cost function. Landmark bounds stay admissible under masks —
/// masking can only lengthen true distances — so the pruned search returns
/// the same path the unpruned one would.
#[allow(clippy::too_many_arguments)]
pub fn csr_dijkstra_filtered(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    banned_nodes: &[bool],
    banned_edges: &[bool],
    lm: Option<&Landmarks>,
) -> Result<Option<Path>, GraphError> {
    if banned_nodes.get(source.index()).copied().unwrap_or(false) {
        return Ok(None);
    }
    let in_bounds = target.index() < csr.node_count();
    run(
        csr,
        st,
        source,
        in_bounds.then_some(target),
        &mut cost,
        Some((banned_nodes, banned_edges)),
        lm,
    )?;
    if !in_bounds {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: csr.node_count(),
        });
    }
    Ok(st.path_to(target))
}

/// Bidirectional Dijkstra: forward from `source` and backward from
/// `target` (the graph is undirected, so both directions relax the same
/// half-edges), alternating on the cheaper frontier and stopping once the
/// frontiers prove no cheaper meeting exists.
///
/// The returned cost is the exact minimum. The *path* is one cheapest
/// path, but equal-cost ties may resolve differently than
/// [`csr_dijkstra`], and the cost is summed as `forward half + backward
/// half` (a different float association than a left-to-right fold). Use
/// this engine for cost-only questions — e.g. "is there a strictly
/// cheaper alternate?" over integer-valued risk costs, where every
/// summation order is exact.
pub fn bidirectional_dijkstra(
    csr: &CsrGraph,
    fwd: &mut SearchState,
    bwd: &mut SearchState,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<Option<Path>, GraphError> {
    let n = csr.node_count();
    if target.index() >= n {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: n,
        });
    }
    if source.index() >= n {
        return Err(GraphError::NodeOutOfBounds {
            index: source.0,
            nodes: n,
        });
    }
    if source == target {
        return Ok(Some(Path {
            nodes: vec![source],
            edges: Vec::new(),
            cost: 0.0,
        }));
    }
    fwd.begin(n);
    bwd.begin(n);
    fwd.dist[source.index()] = 0.0;
    fwd.touched.push(source.0);
    fwd.heap.push(Reverse((OrdF64(0.0), source.0)));
    bwd.dist[target.index()] = 0.0;
    bwd.touched.push(target.0);
    bwd.heap.push(Reverse((OrdF64(0.0), target.0)));

    let mut best = f64::INFINITY;
    let mut meet: Option<u32> = None;
    loop {
        let top = |h: &BinaryHeap<Reverse<(OrdF64, u32)>>| {
            h.peek().map_or(f64::INFINITY, |Reverse((OrdF64(d), _))| *d)
        };
        let (tf, tb) = (top(&fwd.heap), top(&bwd.heap));
        // No meeting can beat `best` once the frontiers together exceed it
        // (covers both-heaps-empty too: INFINITY >= anything).
        if tf + tb >= best {
            break;
        }
        let (this, other) = if tf <= tb {
            (&mut *fwd, &mut *bwd)
        } else {
            (&mut *bwd, &mut *fwd)
        };
        let Some(Reverse((OrdF64(d), nu))) = this.heap.pop() else {
            break;
        };
        if d > this.dist[nu as usize] {
            continue; // stale entry
        }
        let (eids, tgts) = csr.neighbors_raw(NodeId(nu));
        for i in 0..eids.len() {
            let e = EdgeId(eids[i]);
            let c = cost(e);
            if c.is_nan() || c < 0.0 {
                return Err(GraphError::InvalidCost { edge: e });
            }
            if c.is_infinite() {
                continue;
            }
            let m = tgts[i] as usize;
            let nd = d + c;
            // Meeting check against the opposite frontier.
            let through = nd + other.dist[m];
            if through < best {
                best = through;
                meet = Some(tgts[i]);
            }
            if nd < this.dist[m] {
                if this.dist[m].is_infinite() {
                    this.touched.push(tgts[i]);
                }
                this.dist[m] = nd;
                this.prev_edge[m] = e.0;
                this.prev_node[m] = nu;
                this.heap.push(Reverse((OrdF64(nd), tgts[i])));
            }
        }
    }
    let Some(meet) = meet else {
        return Ok(None);
    };
    // Forward half source→meet, then the backward chain meet→target.
    let Some(mut path) = fwd.path_to(NodeId(meet)) else {
        return Ok(None);
    };
    let mut cur = meet as usize;
    while bwd.prev_edge[cur] != NONE {
        path.edges.push(EdgeId(bwd.prev_edge[cur]));
        path.nodes.push(NodeId(bwd.prev_node[cur]));
        cur = bwd.prev_node[cur] as usize;
    }
    path.cost = best;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiGraph;

    /// a(0) -1- b(1) -1- c(2) -1- d(3); a -5- d direct.
    fn g() -> MultiGraph<(), f64> {
        let mut g = MultiGraph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ns[0], ns[1], 1.0);
        g.add_edge(ns[1], ns[2], 1.0);
        g.add_edge(ns[2], ns[3], 1.0);
        g.add_edge(ns[0], ns[3], 5.0);
        g
    }

    /// `csr_dijkstra` over `g` with its edge weights and a fresh scratch.
    fn shortest(g: &MultiGraph<(), f64>, s: u32, t: u32) -> Result<Option<Path>, GraphError> {
        csr_dijkstra(
            &g.to_csr(),
            &mut SearchState::new(),
            NodeId(s),
            NodeId(t),
            |e| *g.edge(e),
        )
    }

    #[test]
    fn finds_cheapest_path() {
        let g = g();
        let p = shortest(&g, 0, 3).unwrap().unwrap();
        assert_eq!(p.cost, 3.0);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(p.is_valid_in(&g));
    }

    #[test]
    fn parallel_edge_choice_prefers_cheaper() {
        let mut g = g();
        let cheap = g.add_edge(NodeId(0), NodeId(3), 0.5);
        let p = shortest(&g, 0, 3).unwrap().unwrap();
        assert_eq!(p.cost, 0.5);
        assert_eq!(p.edges, vec![cheap]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = g();
        let lonely = g.add_node(());
        assert!(shortest(&g, 0, lonely.0).unwrap().is_none());
    }

    #[test]
    fn source_to_self_is_trivial() {
        let g = g();
        let p = shortest(&g, 2, 2).unwrap().unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn infinite_cost_masks_edge() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        // Mask the b-c edge: the path must take the direct a-d edge.
        let p = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| {
            if e == EdgeId(1) {
                f64::INFINITY
            } else {
                *g.edge(e)
            }
        })
        .unwrap()
        .unwrap();
        assert_eq!(p.hops(), 1);
        assert_eq!(p.cost, 5.0);
    }

    #[test]
    fn tree_distances_are_consistent() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        csr_shortest_path_tree(&csr, &mut st, NodeId(0), |e| *g.edge(e)).unwrap();
        assert_eq!(st.distance(NodeId(0)), 0.0);
        assert_eq!(st.distance(NodeId(2)), 2.0);
        assert_eq!(st.distance(NodeId(3)), 3.0);
        assert_eq!(st.distance(NodeId(42)), f64::INFINITY);
        let p = st.path_to(NodeId(2)).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(2));
    }

    #[test]
    fn predecessor_walk_matches_path_to() {
        let mut g = g();
        let lonely = g.add_node(());
        let csr = g.to_csr();
        let mut st = SearchState::new();
        assert!(csr_shortest_path_tree(&csr, &mut st, NodeId(0), |e| *g.edge(e)).is_ok());
        assert_eq!(st.predecessor(NodeId(0)), None, "the source has none");
        assert_eq!(st.predecessor(lonely), None, "unreached");
        assert_eq!(st.predecessor(NodeId(42)), None, "out of bounds");
        for t in 0..4u32 {
            let Some(p) = st.path_to(NodeId(t)) else {
                panic!("0->{t} unreached");
            };
            let (mut nodes, mut edges, mut cur) = (vec![NodeId(t)], Vec::new(), NodeId(t));
            while let Some((e, from)) = st.predecessor(cur) {
                edges.push(e);
                nodes.push(from);
                cur = from;
            }
            nodes.reverse();
            edges.reverse();
            assert_eq!((nodes, edges), (p.nodes, p.edges), "0->{t}");
        }
    }

    #[test]
    fn csr_dijkstra_matches_full_tree() {
        let g = g();
        let csr = g.to_csr();
        let (mut st, mut tree) = (SearchState::new(), SearchState::new());
        for s in 0..4u32 {
            csr_shortest_path_tree(&csr, &mut tree, NodeId(s), |e| *g.edge(e)).unwrap();
            for t in 0..4u32 {
                let p = csr_dijkstra(&csr, &mut st, NodeId(s), NodeId(t), |e| *g.edge(e)).unwrap();
                assert_eq!(p, tree.path_to(NodeId(t)), "{s}->{t}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_queries() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let first = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| *g.edge(e))
            .unwrap()
            .unwrap();
        // A second, unrelated query must not see the first one's state.
        let second = csr_dijkstra(&csr, &mut st, NodeId(3), NodeId(0), |e| *g.edge(e))
            .unwrap()
            .unwrap();
        assert_eq!(first.cost, second.cost);
        let again = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| *g.edge(e))
            .unwrap()
            .unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn filtered_edge_mask_matches_infinite_cost() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let mut banned_edges = vec![false; g.edge_count()];
        banned_edges[1] = true;
        let masked = csr_dijkstra_filtered(
            &csr,
            &mut st,
            NodeId(0),
            NodeId(3),
            |e| *g.edge(e),
            &[],
            &banned_edges,
            None,
        )
        .unwrap();
        let infinite = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| {
            if banned_edges[e.index()] {
                f64::INFINITY
            } else {
                *g.edge(e)
            }
        })
        .unwrap();
        assert_eq!(masked, infinite);
        assert_eq!(masked.unwrap().edges, vec![EdgeId(3)]);
    }

    #[test]
    fn filtered_banned_node_forces_detour() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let mut banned_nodes = vec![false; g.node_count()];
        banned_nodes[1] = true; // ban b: must take the direct a-d edge
        let p = csr_dijkstra_filtered(
            &csr,
            &mut st,
            NodeId(0),
            NodeId(3),
            |e| *g.edge(e),
            &banned_nodes,
            &vec![false; g.edge_count()],
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!(p.cost, 5.0);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn filtered_banned_edges_respected() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let mut banned_edges = vec![false; g.edge_count()];
        banned_edges[3] = true; // ban direct a-d
        banned_edges[1] = true; // ban b-c: now unreachable
        let p = csr_dijkstra_filtered(
            &csr,
            &mut st,
            NodeId(0),
            NodeId(3),
            |e| *g.edge(e),
            &vec![false; g.node_count()],
            &banned_edges,
            None,
        )
        .unwrap();
        assert!(p.is_none());
    }

    #[test]
    fn filtered_banned_source_is_none_and_oob_ids_error() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let mut banned_nodes = vec![false; g.node_count()];
        banned_nodes[0] = true;
        let r = csr_dijkstra_filtered(
            &csr,
            &mut st,
            NodeId(0),
            NodeId(3),
            |e| *g.edge(e),
            &banned_nodes,
            &vec![false; g.edge_count()],
            None,
        )
        .unwrap();
        assert!(r.is_none());
        let r = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(42), |e| *g.edge(e));
        assert!(matches!(r, Err(GraphError::NodeOutOfBounds { .. })));
        let r = csr_dijkstra(&csr, &mut st, NodeId(42), NodeId(0), |e| *g.edge(e));
        assert!(matches!(r, Err(GraphError::NodeOutOfBounds { .. })));
        let r = csr_shortest_path_tree(&csr, &mut st, NodeId(42), |_| 1.0);
        assert!(matches!(r, Err(GraphError::NodeOutOfBounds { .. })));
    }

    #[test]
    fn invalid_costs_error() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        for bad in [-1.0, f64::NAN] {
            let r = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |_| bad);
            assert!(matches!(r, Err(GraphError::InvalidCost { .. })), "{bad}");
            let r = csr_shortest_path_tree(&csr, &mut st, NodeId(0), |_| bad);
            assert!(matches!(r, Err(GraphError::InvalidCost { .. })), "{bad}");
        }
        let mut bwd = SearchState::new();
        let r = bidirectional_dijkstra(&csr, &mut st, &mut bwd, NodeId(0), NodeId(3), |_| f64::NAN);
        assert!(matches!(r, Err(GraphError::InvalidCost { .. })));
    }

    #[test]
    fn bidirectional_finds_exact_minimum() {
        let g = g();
        let csr = g.to_csr();
        let (mut st, mut fwd, mut bwd) =
            (SearchState::new(), SearchState::new(), SearchState::new());
        for s in 0..4u32 {
            for t in 0..4u32 {
                let uni =
                    csr_dijkstra(&csr, &mut st, NodeId(s), NodeId(t), |e| *g.edge(e)).unwrap();
                let bi =
                    bidirectional_dijkstra(&csr, &mut fwd, &mut bwd, NodeId(s), NodeId(t), |e| {
                        *g.edge(e)
                    })
                    .unwrap();
                match (uni, bi) {
                    (Some(u), Some(b)) => {
                        assert!((u.cost - b.cost).abs() < 1e-9, "{s}->{t}");
                        assert!(b.is_valid_in(&g), "{s}->{t}: {:?}", b.nodes);
                        assert_eq!(b.source(), NodeId(s));
                        assert_eq!(b.target(), NodeId(t));
                    }
                    (None, None) => {}
                    (u, b) => panic!("{s}->{t}: {u:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn bidirectional_handles_disconnection() {
        let mut g = g();
        let lonely = g.add_node(());
        let csr = g.to_csr();
        let (mut fwd, mut bwd) = (SearchState::new(), SearchState::new());
        let r = bidirectional_dijkstra(&csr, &mut fwd, &mut bwd, NodeId(0), lonely, |e| *g.edge(e))
            .unwrap();
        assert!(r.is_none());
    }
}

//! The constructed fiber-map model.
//!
//! This is the paper's artifact: nodes (cities), long-haul links (one per
//! provider per conduit), and conduits (physical trenches with tenant
//! lists). Unlike the ground truth in `intertubes-atlas`, everything here is
//! *reconstructed* from published maps and public records, with provenance
//! and validation status attached.

use intertubes_geo::{GeoPoint, Polyline};
use intertubes_graph::{MultiGraph, NodeId};
use intertubes_records::RowHintKey;
use serde::{Deserialize, Serialize};

/// Index of a node in a [`FiberMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MapNodeId(pub u32);

/// Index of a conduit in a [`FiberMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MapConduitId(pub u32);

impl MapNodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MapConduitId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which pipeline step introduced an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// From a geocoded provider map (step 1).
    Step1,
    /// Snapped from a POP-only provider map (step 3).
    Step3,
}

/// A city node in the constructed map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapNode {
    /// `"City, ST"` label.
    pub label: String,
    /// Geocoded location (from the public gazetteer).
    pub location: GeoPoint,
}

/// How a tenant was attributed to a conduit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TenancySource {
    /// The provider's own published map shows the link.
    PublishedMap,
    /// Inferred from public records (steps 2/4).
    Records,
}

/// One tenant entry on a conduit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tenancy {
    /// Provider name.
    pub isp: String,
    /// Attribution source.
    pub source: TenancySource,
}

/// A physical conduit in the constructed map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapConduit {
    /// One endpoint.
    pub a: MapNodeId,
    /// The other endpoint.
    pub b: MapNodeId,
    /// Reconstructed geometry (representative published geometry for step-1
    /// conduits; ROW-snapped geometry for step-3 conduits).
    pub geometry: Polyline,
    /// Tenants, sorted by provider name, deduplicated.
    pub tenants: Vec<Tenancy>,
    /// Introducing step.
    pub provenance: Provenance,
    /// Whether steps 2/4 found documentary support for the conduit.
    pub validated: bool,
    /// Majority right-of-way evidence from the records, if any.
    pub row: Option<RowHintKey>,
}

impl MapConduit {
    /// Number of distinct tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Whether `isp` rents fiber here.
    pub fn has_tenant(&self, isp: &str) -> bool {
        self.tenants.iter().any(|t| t.isp == isp)
    }
}

/// The long-haul definition from §2: a link qualifies if it spans at least
/// 30 miles, or connects population centers of ≥ 100 000 people, or is
/// shared by at least 2 providers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LongHaulPolicy {
    /// Minimum span in miles (paper: 30).
    pub min_miles: f64,
    /// Minimum endpoint population (paper: 100 000).
    pub min_population: u32,
    /// Minimum number of sharing providers (paper: 2).
    pub min_providers: usize,
}

impl Default for LongHaulPolicy {
    fn default() -> Self {
        LongHaulPolicy {
            min_miles: 30.0,
            min_population: 100_000,
            min_providers: 2,
        }
    }
}

impl LongHaulPolicy {
    /// Applies the paper's disjunctive definition.
    pub fn qualifies(&self, span_km: f64, pop_a: u32, pop_b: u32, providers: usize) -> bool {
        const KM_PER_MILE: f64 = 1.609_344;
        span_km >= self.min_miles * KM_PER_MILE
            || (pop_a >= self.min_population && pop_b >= self.min_population)
            || providers >= self.min_providers
    }
}

/// The constructed long-haul fiber map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FiberMap {
    /// City nodes.
    pub nodes: Vec<MapNode>,
    /// Physical conduits.
    pub conduits: Vec<MapConduit>,
}

impl FiberMap {
    /// Finds a node by label.
    pub fn find_node(&self, label: &str) -> Option<MapNodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| MapNodeId(i as u32))
    }

    /// Finds or creates a node.
    pub fn ensure_node(&mut self, label: &str, location: GeoPoint) -> MapNodeId {
        if let Some(id) = self.find_node(label) {
            return id;
        }
        let id = MapNodeId(self.nodes.len() as u32);
        self.nodes.push(MapNode {
            label: label.to_string(),
            location,
        });
        id
    }

    /// Total long-haul links: one per (provider, conduit) tenancy — the
    /// paper's link-counting convention.
    pub fn link_count(&self) -> usize {
        self.conduits.iter().map(|c| c.tenants.len()).sum()
    }

    /// All conduits joining two nodes (parallel conduits are distinct).
    pub fn conduits_between(&self, a: MapNodeId, b: MapNodeId) -> Vec<MapConduitId> {
        self.conduits
            .iter()
            .enumerate()
            .filter(|(_, c)| (c.a == a && c.b == b) || (c.a == b && c.b == a))
            .map(|(i, _)| MapConduitId(i as u32))
            .collect()
    }

    /// Distinct provider names present in the map, sorted.
    pub fn providers(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .conduits
            .iter()
            .flat_map(|c| c.tenants.iter().map(|t| t.isp.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Per-provider (node count, link count), the paper's Table 1 quantity.
    pub fn provider_counts(&self, isp: &str) -> (usize, usize) {
        let mut nodes: Vec<MapNodeId> = Vec::new();
        let mut links = 0usize;
        for c in &self.conduits {
            if c.has_tenant(isp) {
                links += 1;
                nodes.push(c.a);
                nodes.push(c.b);
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        (nodes.len(), links)
    }

    /// Builds the conduit multigraph: node ids equal map node indices, and
    /// edges are added in conduit order, so edge ids *and* edge payloads
    /// both equal conduit indices (consumers mask conduit `i` by setting
    /// `banned_edges[i]` directly). Used by the risk and mitigation crates.
    pub fn graph(&self) -> MultiGraph<MapNodeId, MapConduitId> {
        let mut g = MultiGraph::with_capacity(self.nodes.len(), self.conduits.len());
        for i in 0..self.nodes.len() {
            g.add_node(MapNodeId(i as u32));
        }
        for (i, c) in self.conduits.iter().enumerate() {
            g.add_edge(NodeId(c.a.0), NodeId(c.b.0), MapConduitId(i as u32));
        }
        g
    }
}

/// Every conduit between each node pair, indexed once for repeated
/// lookups: [`ConduitPairIndex::between`] returns exactly what
/// [`FiberMap::conduits_between`] returns (the same ids, ascending), in
/// O(log degree) instead of a scan over every conduit.
#[derive(Debug, Clone)]
pub struct ConduitPairIndex {
    /// `offsets[u]..offsets[u + 1]` spans node `u`'s entries.
    offsets: Vec<usize>,
    /// Per entry: the conduit's far endpoint, ascending within a node.
    far: Vec<u32>,
    /// Per entry: the conduit, ascending within a (node, far endpoint) run.
    conduits: Vec<MapConduitId>,
}

impl ConduitPairIndex {
    /// Indexes `map`'s conduits by endpoint pair.
    pub fn new(map: &FiberMap) -> ConduitPairIndex {
        // (node, far endpoint, conduit), once per direction; a self-loop
        // is one entry, as `conduits_between(a, a)` lists it once.
        let mut entries: Vec<(u32, u32, MapConduitId)> = Vec::with_capacity(2 * map.conduits.len());
        for (i, c) in map.conduits.iter().enumerate() {
            let id = MapConduitId(i as u32);
            entries.push((c.a.0, c.b.0, id));
            if c.a != c.b {
                entries.push((c.b.0, c.a.0, id));
            }
        }
        entries.sort_unstable();
        let nodes = entries
            .last()
            .map_or(0, |e| e.0 as usize + 1)
            .max(map.nodes.len());
        let mut offsets = vec![0usize; nodes + 1];
        for e in &entries {
            offsets[e.0 as usize + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        ConduitPairIndex {
            offsets,
            far: entries.iter().map(|e| e.1).collect(),
            conduits: entries.iter().map(|e| e.2).collect(),
        }
    }

    /// All conduits joining `a` and `b`, ascending by id.
    pub fn between(&self, a: MapNodeId, b: MapNodeId) -> &[MapConduitId] {
        let (Some(&lo), Some(&hi)) = (self.offsets.get(a.index()), self.offsets.get(a.index() + 1))
        else {
            return &[];
        };
        let far = &self.far[lo..hi];
        let start = far.partition_point(|&f| f < b.0);
        let end = far.partition_point(|&f| f <= b.0);
        &self.conduits[lo + start..lo + end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new_unchecked(lat, lon)
    }

    fn tenancy(isp: &str) -> Tenancy {
        Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        }
    }

    fn sample_map() -> FiberMap {
        let mut m = FiberMap::default();
        let a = m.ensure_node("Dallas, TX", p(32.78, -96.80));
        let b = m.ensure_node("Houston, TX", p(29.76, -95.37));
        let c = m.ensure_node("Austin, TX", p(30.27, -97.74));
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(p(32.78, -96.80), p(29.76, -95.37)),
            tenants: vec![tenancy("AT&T"), tenancy("Sprint")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(p(32.78, -96.80), p(29.76, -95.37)),
            tenants: vec![tenancy("Verizon")],
            provenance: Provenance::Step3,
            validated: false,
            row: None,
        });
        m.conduits.push(MapConduit {
            a: c,
            b,
            geometry: Polyline::straight(p(30.27, -97.74), p(29.76, -95.37)),
            tenants: vec![tenancy("AT&T")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    #[test]
    fn ensure_node_deduplicates() {
        let mut m = FiberMap::default();
        let a = m.ensure_node("Dallas, TX", p(32.78, -96.80));
        let b = m.ensure_node("Dallas, TX", p(32.78, -96.80));
        assert_eq!(a, b);
        assert_eq!(m.nodes.len(), 1);
    }

    #[test]
    fn link_counting_is_per_tenancy() {
        let m = sample_map();
        assert_eq!(m.link_count(), 4);
        assert_eq!(m.provider_counts("AT&T"), (3, 2));
        assert_eq!(m.provider_counts("Verizon"), (2, 1));
        assert_eq!(m.provider_counts("Nobody"), (0, 0));
    }

    #[test]
    fn parallel_conduits_are_distinct() {
        let m = sample_map();
        let a = m.find_node("Dallas, TX").unwrap();
        let b = m.find_node("Houston, TX").unwrap();
        assert_eq!(m.conduits_between(a, b).len(), 2);
        assert_eq!(m.conduits_between(b, a).len(), 2);
    }

    #[test]
    fn pair_index_matches_conduits_between() {
        let mut m = sample_map();
        // A self-loop and a node no conduit touches.
        let austin = MapNodeId(2);
        m.conduits.push(MapConduit {
            b: austin,
            ..m.conduits[2].clone()
        });
        m.ensure_node("Waco, TX", p(31.55, -97.15));
        let index = ConduitPairIndex::new(&m);
        for a in 0..m.nodes.len() as u32 + 1 {
            for b in 0..m.nodes.len() as u32 + 1 {
                let (a, b) = (MapNodeId(a), MapNodeId(b));
                assert_eq!(index.between(a, b), m.conduits_between(a, b), "{a:?}-{b:?}");
            }
        }
        assert_eq!(index.between(austin, austin), [MapConduitId(3)]);
    }

    #[test]
    fn providers_sorted_unique() {
        let m = sample_map();
        assert_eq!(m.providers(), vec!["AT&T", "Sprint", "Verizon"]);
    }

    #[test]
    fn graph_mirrors_structure() {
        let m = sample_map();
        let g = m.graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges_between(NodeId(0), NodeId(1)).count(), 2);
    }

    #[test]
    fn long_haul_policy_is_disjunctive() {
        let p = LongHaulPolicy::default();
        // Long span alone qualifies.
        assert!(p.qualifies(60.0, 10, 10, 1));
        // Big endpoints alone qualify.
        assert!(p.qualifies(5.0, 200_000, 150_000, 1));
        // Sharing alone qualifies.
        assert!(p.qualifies(5.0, 10, 10, 2));
        // None of the three: not long-haul.
        assert!(!p.qualifies(5.0, 10, 10, 1));
        // 30 miles ≈ 48.3 km boundary.
        assert!(p.qualifies(48.3, 10, 10, 1));
        assert!(!p.qualifies(48.2, 10, 10, 1));
    }
}

//! Overlaying observed traceroutes onto the constructed physical map
//! (§4.3): conduit popularity as a traffic proxy, direction-classified
//! top-conduit tables (Tables 2/3), per-provider conduit usage (Table 4),
//! and the additional-provider inference behind Fig. 9.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use intertubes_atlas::World;
use intertubes_degrade::{DegradationAction, DegradationPolicy, DegradationReport};
use intertubes_geo::GeoPoint;
use intertubes_graph::{csr_dijkstra, CsrGraph, EdgeId, MultiGraph, NodeId, SearchState};
use intertubes_map::{ConduitPairIndex, FiberMap, MapConduitId, MapNodeId};
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::ProbeError;

/// Probe direction, classified from endpoint geolocations as in the paper
/// ("classified based on geolocation information for source/destination
/// hops").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// West-origin, east-bound (Table 2).
    WestToEast,
    /// East-origin, west-bound (Table 3).
    EastToWest,
    /// Predominantly north–south.
    Meridional,
}

/// Classifies a probe's direction from its endpoints.
pub fn classify_direction(src: &GeoPoint, dst: &GeoPoint) -> Direction {
    let dlon = dst.lon - src.lon;
    let dlat = dst.lat - src.lat;
    if dlon.abs() < dlat.abs() {
        Direction::Meridional
    } else if dlon > 0.0 {
        Direction::WestToEast
    } else {
        Direction::EastToWest
    }
}

/// The overlay result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overlay {
    /// Total probe traversals per map conduit.
    pub conduit_freq: Vec<u64>,
    /// West→east traversals per conduit.
    pub west_east: Vec<u64>,
    /// East→west traversals per conduit.
    pub east_west: Vec<u64>,
    /// Providers observed (via DNS hints) crossing each conduit.
    pub observed_isps: Vec<BTreeSet<String>>,
    /// Conduits observed carrying each provider's traffic.
    pub isp_conduits: BTreeMap<String, BTreeSet<u32>>,
    /// Traces successfully overlaid.
    pub overlaid: usize,
    /// Traces skipped (no resolvable hop pair).
    pub skipped: usize,
}

/// One row of a top-conduit table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConduitRow {
    /// Endpoint label.
    pub a: String,
    /// Endpoint label.
    pub b: String,
    /// Probe count.
    pub probes: u64,
}

impl Overlay {
    /// An all-zero overlay over `n` conduits — the identity element of
    /// [`Overlay::merge`].
    pub fn empty(n: usize) -> Overlay {
        Overlay {
            conduit_freq: vec![0; n],
            west_east: vec![0; n],
            east_west: vec![0; n],
            observed_isps: vec![BTreeSet::new(); n],
            isp_conduits: BTreeMap::new(),
            overlaid: 0,
            skipped: 0,
        }
    }

    /// Merges another shard's accumulators into this one.
    ///
    /// Every field is a sum, a set union, or a union of BTree-ordered
    /// maps of set unions — all associative and commutative — so the
    /// merged overlay is independent of shard boundaries and merge order.
    /// This is the determinism contract the parallel overlay relies on
    /// (DESIGN.md §7); `tests/properties.rs` checks it.
    pub fn merge(&mut self, other: &Overlay) {
        assert_eq!(
            self.conduit_freq.len(),
            other.conduit_freq.len(),
            "overlay shards must cover the same map"
        );
        for (a, b) in self.conduit_freq.iter_mut().zip(&other.conduit_freq) {
            *a += b;
        }
        for (a, b) in self.west_east.iter_mut().zip(&other.west_east) {
            *a += b;
        }
        for (a, b) in self.east_west.iter_mut().zip(&other.east_west) {
            *a += b;
        }
        for (a, b) in self.observed_isps.iter_mut().zip(&other.observed_isps) {
            a.extend(b.iter().cloned());
        }
        for (isp, conduits) in &other.isp_conduits {
            self.isp_conduits
                .entry(isp.clone())
                .or_default()
                .extend(conduits.iter().copied());
        }
        self.overlaid += other.overlaid;
        self.skipped += other.skipped;
    }

    /// The top-`n` conduits for a direction (the paper's Tables 2/3), or
    /// overall when `direction` is `None`.
    pub fn top_conduits(
        &self,
        map: &FiberMap,
        direction: Option<Direction>,
        n: usize,
    ) -> Vec<ConduitRow> {
        let freq = match direction {
            Some(Direction::WestToEast) => &self.west_east,
            Some(Direction::EastToWest) => &self.east_west,
            _ => &self.conduit_freq,
        };
        let mut order: Vec<usize> = (0..freq.len()).collect();
        order.sort_by(|&x, &y| freq[y].cmp(&freq[x]));
        order
            .into_iter()
            .take_while(|&i| freq[i] > 0)
            .take(n)
            .map(|i| {
                let c = &map.conduits[i];
                ConduitRow {
                    a: map.nodes[c.a.index()].label.clone(),
                    b: map.nodes[c.b.index()].label.clone(),
                    probes: freq[i],
                }
            })
            .collect()
    }

    /// Providers ranked by number of conduits observed carrying their
    /// traffic (Table 4).
    pub fn isp_usage_ranking(&self) -> Vec<(String, usize)> {
        let mut rows: Vec<(String, usize)> = self
            .isp_conduits
            .iter()
            .map(|(isp, conduits)| (isp.clone(), conduits.len()))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Tenant counts per conduit: `(map_only, map_plus_observed)` — the two
    /// CDFs of Fig. 9.
    pub fn tenant_counts(&self, map: &FiberMap) -> Vec<(usize, usize)> {
        map.conduits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let base = c.tenant_count();
                let mut all: BTreeSet<&str> = c.tenants.iter().map(|t| t.isp.as_str()).collect();
                for isp in &self.observed_isps[i] {
                    all.insert(isp.as_str());
                }
                (base, all.len())
            })
            .collect()
    }
}

/// Overlays a campaign onto a constructed map.
///
/// Consecutive resolved hops are mapped onto map conduits: directly when the
/// hop pair is conduit-adjacent, otherwise along the km-shortest path in the
/// map (gaps arise from MPLS tunnels and geolocation failures).
///
/// Equivalent to [`overlay_campaign_checked`] under the lenient policy,
/// with the degradation report discarded.
pub fn overlay_campaign(world: &World, map: &FiberMap, campaign: &Campaign) -> Overlay {
    match overlay_campaign_checked(world, map, campaign, DegradationPolicy::Lenient) {
        Ok((overlay, _)) => overlay,
        // The lenient policy never returns an error by construction.
        Err(e) => unreachable!("lenient overlay cannot fail: {e}"),
    }
}

/// Overlays a campaign onto a constructed map with explicit degradation
/// control.
///
/// Traces whose src/dst city ids fall outside the world's gazetteer (a
/// data-corruption symptom: real campaigns hit this via stale geolocation
/// databases) are dropped and counted (`"endpoint-out-of-range"`) under
/// [`DegradationPolicy::Lenient`], or abort with
/// [`ProbeError::EndpointOutOfRange`] under strict. Hops pointing at
/// unknown cities are treated as unresolved, exactly like geolocation
/// failures. Clean campaigns produce an overlay identical to
/// [`overlay_campaign`]'s and an empty report.
pub fn overlay_campaign_checked(
    world: &World,
    map: &FiberMap,
    campaign: &Campaign,
    policy: DegradationPolicy,
) -> Result<(Overlay, DegradationReport), ProbeError> {
    let chunk = intertubes_parallel::chunk_len(campaign.traces.len());
    overlay_campaign_with_chunk_size(world, map, campaign, policy, chunk)
}

/// [`overlay_campaign_checked`] with an explicit shard size.
///
/// Traces are processed in contiguous chunks of `chunk_size`, one shard
/// per task, and the per-shard accumulators are merged with
/// [`Overlay::merge`]. Because the merge is associative and commutative,
/// the result is identical for every `chunk_size` — the property tests
/// exercise this directly with adversarial shard boundaries.
pub fn overlay_campaign_with_chunk_size(
    world: &World,
    map: &FiberMap,
    campaign: &Campaign,
    policy: DegradationPolicy,
    chunk_size: usize,
) -> Result<(Overlay, DegradationReport), ProbeError> {
    let mut span = intertubes_obs::stage("overlay");
    span.items("traces", campaign.traces.len());
    let graph = map.graph();
    let csr = graph.to_csr();
    // Per-edge km, summed once instead of on every relaxation.
    let km: Vec<f64> = graph
        .edge_ids()
        .map(|e| map.conduits[graph.edge(e).index()].geometry.length_km())
        .collect();
    // Label → map node.
    let node_of: HashMap<&str, MapNodeId> = map
        .nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| (nd.label.as_str(), MapNodeId(i as u32)))
        .collect();
    // City id → map node (via label).
    let city_to_node: Vec<Option<MapNodeId>> = world
        .cities
        .iter()
        .map(|c| node_of.get(c.label().as_str()).copied())
        .collect();

    // Shard fan-out: contiguous trace chunks, each with its own
    // accumulators, search scratch and gap cache (the cache only memoizes
    // deterministic shortest-path results, so per-shard caches cannot
    // change any output).
    let pairs = ConduitPairIndex::new(map);
    let routing = GapRouting {
        pairs: &pairs,
        graph: &graph,
        csr: &csr,
        km: &km,
    };
    let shards: Vec<Result<(Overlay, ShardCounts), ProbeError>> =
        intertubes_parallel::par_chunks_map(
            &campaign.traces,
            chunk_size.max(1),
            |offset, traces| {
                overlay_shard(world, map, &routing, &city_to_node, traces, offset, policy)
            },
        );

    // Merge barrier. Shards cover ascending trace ranges, so the first
    // error in shard order is the lowest-index error — the same one the
    // serial loop would abort on under the strict policy.
    let mut overlay = Overlay::empty(map.conduits.len());
    let mut counts = ShardCounts::default();
    for shard in shards {
        let (part, c) = match shard {
            Ok(v) => v,
            Err(e) => {
                span.failed();
                return Err(e);
            }
        };
        overlay.merge(&part);
        counts.bad_endpoints += c.bad_endpoints;
        counts.direct_pairs += c.direct_pairs;
        counts.gap_pairs += c.gap_pairs;
    }
    let bad_endpoints = counts.bad_endpoints;
    let mut report = DegradationReport::new();
    report.note(
        "probes.overlay",
        DegradationAction::Dropped,
        "endpoint-out-of-range",
        bad_endpoints,
    );
    span.items("overlaid", overlay.overlaid);
    span.items("skipped", overlay.skipped);
    span.items("bad_endpoints", bad_endpoints);
    span.items("direct_pairs", counts.direct_pairs);
    span.items("gap_pairs", counts.gap_pairs);
    if bad_endpoints > 0 {
        span.degraded();
    }
    Ok((overlay, report))
}

/// The read-only map view hop pairs resolve against: the conduit pair
/// index for adjacent hops, and for gap filling the map graph (for edge →
/// conduit payloads), its frozen CSR form and the per-edge km costs.
struct GapRouting<'a> {
    pairs: &'a ConduitPairIndex,
    graph: &'a MultiGraph<MapNodeId, MapConduitId>,
    csr: &'a CsrGraph,
    km: &'a [f64],
}

/// Per-shard tallies that do not depend on shard boundaries, summed at the
/// merge barrier.
#[derive(Debug, Default)]
struct ShardCounts {
    /// Traces dropped for out-of-range endpoints.
    bad_endpoints: usize,
    /// Hop pairs resolved to one conduit joining them.
    direct_pairs: usize,
    /// Hop pairs with no joining conduit, gap-filled along a map path.
    gap_pairs: usize,
}

/// Overlays one contiguous shard of traces; `offset` is the shard's first
/// global trace index (used for strict-mode error reporting).
fn overlay_shard(
    world: &World,
    map: &FiberMap,
    routing: &GapRouting<'_>,
    city_to_node: &[Option<MapNodeId>],
    traces: &[crate::campaign::Traceroute],
    offset: usize,
    policy: DegradationPolicy,
) -> Result<(Overlay, ShardCounts), ProbeError> {
    let n = map.conduits.len();
    let GapRouting {
        pairs,
        graph,
        csr,
        km,
    } = *routing;
    let mut st = SearchState::new();
    let mut gap_cache: HashMap<(u32, u32), Option<Vec<MapConduitId>>> = HashMap::new();

    let mut conduit_freq = vec![0u64; n];
    let mut west_east = vec![0u64; n];
    let mut east_west = vec![0u64; n];
    let mut observed_isps: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut isp_conduits: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    let mut overlaid = 0usize;
    let mut skipped = 0usize;
    let mut counts = ShardCounts::default();

    for (local, t) in traces.iter().enumerate() {
        let ti = offset + local;
        let endpoints = (
            world.cities.get(t.src.index()),
            world.cities.get(t.dst.index()),
        );
        let (Some(src_city), Some(dst_city)) = endpoints else {
            if policy.is_strict() {
                let city = if endpoints.0.is_none() { t.src.0 } else { t.dst.0 };
                return Err(ProbeError::EndpointOutOfRange {
                    trace: ti,
                    city,
                    cities: world.cities.len(),
                });
            }
            counts.bad_endpoints += 1;
            continue;
        };
        let dir = classify_direction(&src_city.location, &dst_city.location);
        // Resolved hop sequence with hints. An out-of-range hop city is
        // indistinguishable from a geolocation failure: unresolved.
        let resolved: Vec<(MapNodeId, Option<&str>)> = t
            .hops
            .iter()
            .filter_map(|h| {
                let city = h.city?;
                let node = city_to_node.get(city.index()).copied().flatten()?;
                Some((node, h.isp_hint.as_deref()))
            })
            .collect();
        if resolved.len() < 2 {
            skipped += 1;
            continue;
        }
        let mut any = false;
        for pair in resolved.windows(2) {
            let ((u, hint_u), (v, hint_v)) = (pair[0], pair[1]);
            if u == v {
                continue;
            }
            // Conduits for this hop pair: direct conduit or map-path.
            let direct = pairs.between(u, v);
            // Prefer a conduit whose tenants include the hinted operator;
            // fall back to the busiest.
            let hinted = hint_u.or(hint_v);
            let chosen = hinted
                .and_then(|h| {
                    direct
                        .iter()
                        .find(|c| map.conduits[c.index()].has_tenant(h))
                })
                .or_else(|| {
                    direct
                        .iter()
                        .max_by_key(|c| map.conduits[c.index()].tenant_count())
                });
            let conduits: &[MapConduitId] = if let Some(chosen) = chosen {
                counts.direct_pairs += 1;
                std::slice::from_ref(chosen)
            } else {
                counts.gap_pairs += 1;
                let key = (u.0.min(v.0), u.0.max(v.0));
                // A search error (non-finite edge cost) means the map
                // region is unusable for gap-filling: same as no path.
                let path = gap_cache.entry(key).or_insert_with(|| {
                    csr_dijkstra(csr, &mut st, NodeId(u.0), NodeId(v.0), |e: EdgeId| {
                        km[e.index()]
                    })
                    .unwrap_or(None)
                    .map(|p| p.edges.iter().map(|e| *graph.edge(*e)).collect())
                });
                match path {
                    Some(p) => p,
                    None => continue,
                }
            };
            for cid in conduits {
                let i = cid.index();
                conduit_freq[i] += 1;
                match dir {
                    Direction::WestToEast => west_east[i] += 1,
                    Direction::EastToWest => east_west[i] += 1,
                    Direction::Meridional => {}
                }
                // Owned names are only allocated the first time a provider
                // is seen on a conduit (or at all).
                for hint in [hint_u, hint_v].into_iter().flatten() {
                    if !observed_isps[i].contains(hint) {
                        observed_isps[i].insert(hint.to_string());
                    }
                    match isp_conduits.get_mut(hint) {
                        Some(seen) => {
                            seen.insert(i as u32);
                        }
                        None => {
                            isp_conduits.insert(hint.to_string(), BTreeSet::from([i as u32]));
                        }
                    }
                }
                any = true;
            }
        }
        if any {
            overlaid += 1;
        } else {
            skipped += 1;
        }
    }
    Ok((
        Overlay {
            conduit_freq,
            west_east,
            east_west,
            observed_isps,
            isp_conduits,
            overlaid,
            skipped,
        },
        counts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, ProbeConfig};
    use intertubes_map::{build_map, PipelineConfig};
    use intertubes_records::{generate_corpus, CorpusConfig};

    fn setup() -> (World, FiberMap, Overlay) {
        let w = World::reference();
        let corpus = generate_corpus(&w, &CorpusConfig::default());
        let built = build_map(
            &w.publish_maps(),
            &corpus,
            &w.cities,
            &w.roads,
            &w.rails,
            &PipelineConfig::default(),
        );
        let campaign = run_campaign(
            &w,
            &ProbeConfig {
                probes: 20_000,
                ..ProbeConfig::default()
            },
        );
        let overlay = overlay_campaign(&w, &built.map, &campaign);
        (w, built.map, overlay)
    }

    #[test]
    fn direction_classifier() {
        let sf = GeoPoint::new_unchecked(37.77, -122.42);
        let nyc = GeoPoint::new_unchecked(40.71, -74.01);
        let miami = GeoPoint::new_unchecked(25.76, -80.19);
        assert_eq!(classify_direction(&sf, &nyc), Direction::WestToEast);
        assert_eq!(classify_direction(&nyc, &sf), Direction::EastToWest);
        assert_eq!(classify_direction(&nyc, &miami), Direction::Meridional);
    }

    #[test]
    fn overlay_covers_most_traces() {
        let (_, _, ov) = setup();
        assert!(
            ov.overlaid * 10 > ov.skipped,
            "overlaid {} skipped {}",
            ov.overlaid,
            ov.skipped
        );
        assert!(ov.conduit_freq.iter().sum::<u64>() > 10_000);
    }

    #[test]
    fn top_conduit_tables_are_ordered_and_directional() {
        let (_, map, ov) = setup();
        for dir in [Direction::WestToEast, Direction::EastToWest] {
            let rows = ov.top_conduits(&map, Some(dir), 20);
            assert!(!rows.is_empty());
            for w in rows.windows(2) {
                assert!(w[0].probes >= w[1].probes);
            }
        }
        let all = ov.top_conduits(&map, None, 20);
        assert!(all[0].probes >= ov.top_conduits(&map, Some(Direction::WestToEast), 1)[0].probes);
    }

    #[test]
    fn level3_tops_isp_usage() {
        let (_, _, ov) = setup();
        let ranking = ov.isp_usage_ranking();
        assert!(!ranking.is_empty());
        let pos = ranking.iter().position(|(n, _)| n == "Level 3").unwrap();
        assert!(
            pos <= 2,
            "Level 3 should top Table 4, found at {pos}: {:?}",
            &ranking[..5.min(ranking.len())]
        );
    }

    #[test]
    fn unpublished_isps_enter_table4() {
        let (_, _, ov) = setup();
        let ranking = ov.isp_usage_ranking();
        let names: Vec<&str> = ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"SoftLayer") || names.contains(&"MFN"),
            "traceroute-only carriers should appear: {names:?}"
        );
    }

    #[test]
    fn fig9_overlay_only_increases_tenancy() {
        let (_, map, ov) = setup();
        let counts = ov.tenant_counts(&map);
        let mut grew = 0usize;
        for (base, with) in &counts {
            assert!(with >= base);
            grew += (with > base) as usize;
        }
        assert!(
            grew > counts.len() / 10,
            "overlay should reveal extra ISPs on some conduits ({grew})"
        );
        // Mean shift matches the paper's qualitative claim: risk is only
        // greater when traffic is considered.
        let mean_base: f64 =
            counts.iter().map(|(b, _)| *b as f64).sum::<f64>() / counts.len() as f64;
        let mean_with: f64 =
            counts.iter().map(|(_, w)| *w as f64).sum::<f64>() / counts.len() as f64;
        assert!(mean_with > mean_base);
    }
}

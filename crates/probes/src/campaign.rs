//! Synthetic traceroute campaigns (the paper's §4.3 measurement input).
//!
//! The paper overlays 4.9 M Edgescope traceroutes — probes launched from
//! BitTorrent clients in residential networks — onto the physical map. We
//! simulate the same measurement: clients in population-weighted cities
//! probe destinations across the country; each probe's layer-3 path is an
//! access-ISP segment, a transit segment, and (usually) a far-side access
//! segment, routed over the carriers' ground-truth conduit footprints.
//!
//! Measurement imperfections are modelled explicitly:
//! * **MPLS tunnels** hide the interior hops of a transit segment (the
//!   paper argues, citing its own MPLS study, that the frequency is low
//!   enough not to bias the overlay — the default rate matches).
//! * **Geolocation failures** leave hops unresolved.
//! * **DNS naming hints** (airport codes and carrier tags in interface
//!   names) identify a hop's operator only part of the time.

use intertubes_atlas::{CityId, IspTier, World};
use intertubes_graph::{csr_shortest_path_tree, CsrGraph, EdgeId, NodeId, SearchState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Number of traceroutes to launch (paper: 4.9 M over 3 months; default
    /// is CI-friendly and the harness sweeps it).
    pub probes: usize,
    /// Campaign RNG seed (combined with the world seed).
    pub seed: u64,
    /// Probability that a transit segment traverses an MPLS tunnel, hiding
    /// its interior hops.
    pub mpls_rate: f64,
    /// Probability that a hop cannot be geolocated.
    pub geolocation_failure_rate: f64,
    /// Probability that a hop's interface name reveals its operator.
    pub dns_hint_rate: f64,
    /// Probability that a single-carrier route is used when available
    /// (otherwise access + transit composition).
    pub single_carrier_rate: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            probes: 200_000,
            seed: 2014, // the campaign window in the paper: Jan–Mar 2014
            mpls_rate: 0.2,
            geolocation_failure_rate: 0.08,
            dns_hint_rate: 0.7,
            single_carrier_rate: 0.3,
        }
    }
}

/// One observed traceroute hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hop {
    /// Geolocated city, if resolution succeeded.
    pub city: Option<CityId>,
    /// Operator revealed by DNS naming hints, if parseable (provider name).
    pub isp_hint: Option<String>,
}

/// One observed traceroute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traceroute {
    /// Source city (client geolocation — assumed reliable, as in the paper).
    pub src: CityId,
    /// Destination city.
    pub dst: CityId,
    /// Observed hops, source side first.
    pub hops: Vec<Hop>,
}

/// A full campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    /// Parameters used.
    pub config: ProbeConfig,
    /// The traceroutes.
    pub traces: Vec<Traceroute>,
    /// Probes that could not be routed (no carrier combination reaches).
    pub unrouted: usize,
}

/// Sentinel for "no tree edge" in a cached predecessor array: the tree's
/// source, or a city the provider cannot reach from it.
const NO_EDGE: u32 = u32::MAX;

/// Per-provider routing state over the ground-truth conduit graph.
struct CarrierTable<'w> {
    world: &'w World,
    /// The conduit graph, frozen once for every provider's searches.
    csr: CsrGraph,
    /// Per-edge conduit length, km.
    km: Vec<f64>,
    /// Search scratch shared by every tree build.
    st: SearchState,
    /// For each provider: banned-edge mask (edges outside the footprint).
    banned: Vec<Vec<bool>>,
    /// For each provider: whether it touches each city.
    presence: Vec<Vec<bool>>,
    /// Provider weights for access selection (per city aggregated lazily).
    access_weight: Vec<f64>,
    /// Provider weights for transit selection.
    transit_weight: Vec<f64>,
    /// Shortest-path trees within each provider's footprint, slot
    /// `provider * cities + source`, built on first use: the tree edge
    /// into each city, or [`NO_EDGE`]. Empty until built.
    trees: Vec<Vec<u32>>,
    /// Per source city: every city ordered by distance from it, then by
    /// index. Empty until first needed.
    nearest: Vec<Vec<u32>>,
    /// The last route walked, reused across queries.
    leg: Leg,
    /// Route queries answered, trees built and peering cities looked up.
    route_calls: usize,
    trees_built: usize,
    peering_lookups: usize,
}

/// One provider's leg of a route: the city chain and the conduits joining
/// it (`edges[i]` joins `nodes[i]` and `nodes[i + 1]`).
#[derive(Debug, Default, PartialEq)]
struct Leg {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl<'w> CarrierTable<'w> {
    fn new(world: &'w World) -> Self {
        let n_edges = world.system.graph.edge_count();
        let n_cities = world.cities.len();
        let mut banned = Vec::new();
        let mut presence = Vec::new();
        let mut access_weight = Vec::new();
        let mut transit_weight = Vec::new();
        for (i, fp) in world.footprints.iter().enumerate() {
            let mut b = vec![true; n_edges];
            let mut p = vec![false; n_cities];
            for c in &fp.conduits {
                // Conduit ids equal edge ids by construction in the atlas.
                b[c.index()] = false;
                let cd = world.system.conduit(*c);
                p[cd.a.index()] = true;
                p[cd.b.index()] = true;
            }
            banned.push(b);
            presence.push(p);
            let profile = &world.roster[i];
            // Edgescope probes originate in residential networks: cable and
            // regional access providers dominate the first mile, tier-1
            // carriers dominate transit.
            let links = profile.target_links as f64;
            access_weight.push(match profile.tier {
                IspTier::Cable => 6.0 * links,
                IspTier::Regional => 2.0 * links,
                IspTier::Tier1 => 0.5 * links,
            });
            transit_weight.push(match profile.tier {
                IspTier::Tier1 => 3.0 * links,
                IspTier::Regional => 1.0 * links,
                IspTier::Cable => 0.4 * links,
            });
        }
        let g = &world.system.graph;
        CarrierTable {
            world,
            csr: g.to_csr(),
            km: g
                .edge_ids()
                .map(|e| world.system.conduit(*g.edge(e)).length_km)
                .collect(),
            st: SearchState::new(),
            trees: vec![Vec::new(); banned.len() * n_cities],
            nearest: vec![Vec::new(); n_cities],
            banned,
            presence,
            access_weight,
            transit_weight,
            leg: Leg::default(),
            route_calls: 0,
            trees_built: 0,
            peering_lookups: 0,
        }
    }

    /// Shortest km-path within provider `isp`'s footprint, or `None` if
    /// `dst` is unreachable. The leg lives until the next query.
    ///
    /// Walks the cached tree of `(isp, src)`. An s→t search that stops when
    /// `dst` settles returns exactly the chain the full tree holds for
    /// `dst` (DESIGN.md §10), so one tree per source answers every
    /// destination with the same path.
    fn route(&mut self, isp: usize, src: CityId, dst: CityId) -> Option<&Leg> {
        self.route_calls += 1;
        let n = self.world.cities.len();
        let slot = isp * n + src.index();
        if self.trees[slot].is_empty() {
            let (banned, km) = (&self.banned[isp], &self.km);
            let st = &mut self.st;
            self.trees[slot] = match csr_shortest_path_tree(&self.csr, st, NodeId(src.0), |e| {
                if banned[e.index()] {
                    f64::INFINITY
                } else {
                    km[e.index()]
                }
            }) {
                Ok(()) => (0..n as u32)
                    .map(|c| st.predecessor(NodeId(c)).map_or(NO_EDGE, |(e, _)| e.0))
                    .collect(),
                // Conduit lengths are finite and non-negative, so the search
                // cannot fail; a failed tree reads as "unreachable" like a
                // missing path.
                Err(_) => vec![NO_EDGE; n],
            };
            self.trees_built += 1;
        }
        let (tree, Leg { nodes, edges }) = (&self.trees[slot], &mut self.leg);
        let mut cur = NodeId(dst.0);
        nodes.clear();
        edges.clear();
        nodes.push(cur);
        while tree[cur.index()] != NO_EDGE {
            let e = EdgeId(tree[cur.index()]);
            cur = self.csr.other_endpoint(e, cur);
            edges.push(e);
            nodes.push(cur);
        }
        if cur.0 != src.0 {
            return None;
        }
        nodes.reverse();
        edges.reverse();
        Some(&self.leg)
    }

    /// The city nearest `src` where both providers are present, ties to
    /// the lower city index.
    fn peering(&mut self, access: usize, transit: usize, src: CityId) -> Option<CityId> {
        self.peering_lookups += 1;
        let order = &mut self.nearest[src.index()];
        if order.is_empty() {
            let cities = &self.world.cities;
            let src_loc = cities[src.index()].location;
            let d: Vec<f64> = cities
                .iter()
                .map(|c| c.location.distance_km(&src_loc))
                .collect();
            *order = (0..cities.len() as u32).collect();
            // Distances are finite, so this is the order in which a strict
            // `<` scan by index would meet each city as a new minimum.
            order.sort_by(|&a, &b| d[a as usize].total_cmp(&d[b as usize]).then(a.cmp(&b)));
        }
        let (a, t) = (&self.presence[access], &self.presence[transit]);
        order
            .iter()
            .find(|&&ci| a[ci as usize] && t[ci as usize])
            .map(|&ci| CityId(ci))
    }

    fn weighted_pick(
        &self,
        rng: &mut StdRng,
        weights: &[f64],
        filter: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let total: f64 = weights
            .iter()
            .enumerate()
            .filter(|(i, _)| filter(*i))
            .map(|(_, w)| *w)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = rng.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if !filter(i) {
                continue;
            }
            if x < *w {
                return Some(i);
            }
            x -= w;
        }
        None
    }
}

/// City-level route plus the provider owning each hop-to-hop segment.
struct PlannedRoute {
    cities: Vec<CityId>,
    /// Owner of the segment entering `cities[i+1]` (len = cities.len()-1).
    owners: Vec<usize>,
    /// Range of hop indices inside an MPLS tunnel, if the transit segment
    /// got tunnelled.
    tunnel: Option<(usize, usize)>,
}

fn extend_route(route: &mut PlannedRoute, leg: &Leg, owner: usize) {
    let start = if route.cities.is_empty() { 0 } else { 1 };
    for n in &leg.nodes[start..] {
        route.cities.push(CityId(n.0));
    }
    for _ in &leg.edges {
        route.owners.push(owner);
    }
}

/// Runs a campaign over the world.
pub fn run_campaign(world: &World, cfg: &ProbeConfig) -> Campaign {
    campaign_with(&mut CarrierTable::new(world), cfg)
}

/// [`run_campaign`] over a caller-owned table, whose route trees outlive
/// the campaign.
fn campaign_with(table: &mut CarrierTable<'_>, cfg: &ProbeConfig) -> Campaign {
    let world = table.world;
    let mut span = intertubes_obs::stage("probes.campaign");
    span.items("probes", cfg.probes);
    let mut rng = StdRng::seed_from_u64(world.config.seed ^ cfg.seed.rotate_left(17));
    // Population-weighted city sampler.
    let total_pop: f64 = world.cities.iter().map(|c| c.population as f64).sum();
    let mut cumulative = Vec::with_capacity(world.cities.len());
    let mut acc = 0.0;
    for c in &world.cities {
        acc += c.population as f64 / total_pop;
        cumulative.push(acc);
    }
    let sample_city = |rng: &mut StdRng| -> CityId {
        let x: f64 = rng.gen();
        CityId(
            cumulative
                .partition_point(|&c| c < x)
                .min(world.cities.len() - 1) as u32,
        )
    };

    let mut traces = Vec::with_capacity(cfg.probes);
    let mut unrouted = 0usize;
    for _ in 0..cfg.probes {
        let src = sample_city(&mut rng);
        let dst = sample_city(&mut rng);
        if src == dst {
            unrouted += 1;
            continue;
        }
        // A client retries with a different carrier combination when a
        // first-choice combination cannot reach the destination.
        let mut planned = None;
        for _ in 0..6 {
            if let Some(r) = plan_route(table, &mut rng, cfg, src, dst) {
                planned = Some(r);
                break;
            }
        }
        let Some(route) = planned else {
            unrouted += 1;
            continue;
        };
        traces.push(observe(route, &mut rng, cfg, world));
    }
    span.items("traces", traces.len());
    span.items("unrouted", unrouted);
    span.items("route_calls", table.route_calls);
    span.items("trees_built", table.trees_built);
    span.items("peering_lookups", table.peering_lookups);
    Campaign {
        config: *cfg,
        traces,
        unrouted,
    }
}

/// Plans a city-level route: single carrier, or access→transit(→access).
fn plan_route(
    table: &mut CarrierTable<'_>,
    rng: &mut StdRng,
    cfg: &ProbeConfig,
    src: CityId,
    dst: CityId,
) -> Option<PlannedRoute> {
    // Option A: one carrier covers both ends.
    if rng.gen_bool(cfg.single_carrier_rate) {
        if let Some(isp) = table.weighted_pick(rng, &table.transit_weight, |i| {
            table.presence[i][src.index()] && table.presence[i][dst.index()]
        }) {
            if let Some(p) = table.route(isp, src, dst) {
                let mut route = PlannedRoute {
                    cities: Vec::new(),
                    owners: Vec::new(),
                    tunnel: None,
                };
                extend_route(&mut route, p, isp);
                return Some(route);
            }
        }
    }
    // Option B: access at the source, transit across, access at the far end
    // when the transit carrier does not reach the destination city.
    let access = table.weighted_pick(rng, &table.access_weight, |i| {
        table.presence[i][src.index()]
    })?;
    let transit = table.weighted_pick(rng, &table.transit_weight, |i| {
        i != access && table.presence[i][dst.index()]
    })?;
    // Handoff: the access provider routes to the nearest city shared with
    // the transit provider (approximated by trying the destination first,
    // then a few of the transit provider's cities near the source).
    let mut route = PlannedRoute {
        cities: Vec::new(),
        owners: Vec::new(),
        tunnel: None,
    };
    if table.presence[access][dst.index()] && rng.gen_bool(0.25) {
        // Access carrier happens to haul all the way (regional probe).
        let p = table.route(access, src, dst)?;
        extend_route(&mut route, p, access);
        return Some(route);
    }
    // Find a peering city: a city where both access and transit are present.
    let peering = table.peering(access, transit, src)?;
    extend_route(&mut route, table.route(access, src, peering)?, access);
    let transit_start = route.cities.len().saturating_sub(1);
    extend_route(&mut route, table.route(transit, peering, dst)?, transit);
    if rng.gen_bool(cfg.mpls_rate) && route.cities.len() > transit_start + 2 {
        route.tunnel = Some((transit_start + 1, route.cities.len() - 2));
    }
    Some(route)
}

/// Converts a planned route into an observed traceroute, applying MPLS
/// hiding, geolocation failures and DNS-hint sampling.
fn observe(route: PlannedRoute, rng: &mut StdRng, cfg: &ProbeConfig, world: &World) -> Traceroute {
    let src = route.cities[0];
    let dst = *route.cities.last().expect("route has cities");
    let mut hops = Vec::with_capacity(route.cities.len());
    for (i, city) in route.cities.iter().enumerate() {
        if let Some((lo, hi)) = route.tunnel {
            if i >= lo && i <= hi {
                continue; // hop hidden inside an MPLS tunnel
            }
        }
        let resolved = !rng.gen_bool(cfg.geolocation_failure_rate);
        // The owner of the segment *entering* this hop labels its interface;
        // the first hop belongs to the first segment's owner.
        let owner = if i == 0 {
            route.owners.first()
        } else {
            route.owners.get(i - 1)
        };
        let hint = owner.and_then(|&o| {
            if rng.gen_bool(cfg.dns_hint_rate) {
                Some(world.roster[o].name.clone())
            } else {
                None
            }
        });
        hops.push(Hop {
            city: resolved.then_some(*city),
            isp_hint: hint,
        });
    }
    Traceroute { src, dst, hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_graph::csr_dijkstra_filtered;

    /// The linear scan the sorted peering order replaced: the first city,
    /// by index, at strictly minimal distance from `src`.
    fn peering_scan(
        table: &CarrierTable<'_>,
        access: usize,
        transit: usize,
        src: CityId,
    ) -> Option<CityId> {
        let src_loc = table.world.cities[src.index()].location;
        let mut best: Option<(CityId, f64)> = None;
        for ci in 0..table.world.cities.len() {
            if table.presence[access][ci] && table.presence[transit][ci] {
                let d = table.world.cities[ci].location.distance_km(&src_loc);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((CityId(ci as u32), d));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    #[test]
    fn tree_routes_match_filtered_dijkstra() {
        let w = World::reference();
        let mut table = CarrierTable::new(&w);
        let cfg = ProbeConfig {
            probes: 600,
            ..ProbeConfig::default()
        };
        campaign_with(&mut table, &cfg);
        assert!(table.trees_built > 100, "{} trees", table.trees_built);
        // Every destination of every tree the campaign built, including the
        // source itself and cities outside the provider's footprint.
        let n = w.cities.len();
        let mut st = SearchState::new();
        let (mut trivial, mut unreachable) = (0usize, 0usize);
        for slot in 0..table.trees.len() {
            if table.trees[slot].is_empty() {
                continue;
            }
            let (isp, src) = (slot / n, CityId((slot % n) as u32));
            for dst in (0..n as u32).map(CityId) {
                let Ok(want) = csr_dijkstra_filtered(
                    &table.csr,
                    &mut st,
                    NodeId(src.0),
                    NodeId(dst.0),
                    |e| table.km[e.index()],
                    &[],
                    &table.banned[isp],
                    None,
                ) else {
                    panic!("conduit lengths are valid costs");
                };
                let want = want.map(|p| Leg {
                    nodes: p.nodes,
                    edges: p.edges,
                });
                trivial += want.as_ref().is_some_and(|l| l.edges.is_empty()) as usize;
                unreachable += want.is_none() as usize;
                let got = table.route(isp, src, dst);
                assert_eq!(got, want.as_ref(), "provider {isp}: {src:?} -> {dst:?}");
            }
        }
        assert_eq!(trivial, table.trees_built, "src == dst once per tree");
        assert!(
            unreachable > 0,
            "footprints should leave cities unreachable"
        );
    }

    #[test]
    fn sorted_peering_matches_linear_scan() {
        let w = World::reference();
        let mut table = CarrierTable::new(&w);
        let mut rng = StdRng::seed_from_u64(13);
        let providers = table.presence.len();
        let mut found = 0usize;
        for _ in 0..2_500 {
            let access = rng.gen_range(0..providers);
            let transit = rng.gen_range(0..providers);
            let src = CityId(rng.gen_range(0..w.cities.len() as u32));
            let want = peering_scan(&table, access, transit, src);
            assert_eq!(
                table.peering(access, transit, src),
                want,
                "access {access}, transit {transit}, {src:?}"
            );
            found += want.is_some() as usize;
        }
        assert!(found > 1_000, "only {found} triples have a peering city");
        assert_eq!(table.peering_lookups, 2_500);
    }

    fn small_campaign() -> (World, Campaign) {
        let w = World::reference();
        let cfg = ProbeConfig {
            probes: 3_000,
            ..ProbeConfig::default()
        };
        let c = run_campaign(&w, &cfg);
        (w, c)
    }

    #[test]
    fn campaign_routes_most_probes() {
        let (_, c) = small_campaign();
        assert!(c.traces.len() > 2_000, "only {} routed", c.traces.len());
        assert!(c.unrouted < 1_000, "{} unrouted", c.unrouted);
    }

    #[test]
    fn hops_form_plausible_paths() {
        let (w, c) = small_campaign();
        for t in c.traces.iter().take(200) {
            assert!(t.hops.len() >= 2, "trace with {} hops", t.hops.len());
            // Consecutive resolved hops must be conduit-adjacent or have a
            // hidden gap (MPLS/geoloc) between them — verify adjacency holds
            // for immediately consecutive resolved hops.
            let cities: Vec<CityId> = t.hops.iter().filter_map(|h| h.city).collect();
            for wpair in cities.windows(2) {
                if wpair[0] == wpair[1] {
                    continue;
                }
                // Not strictly adjacent if noise removed hops between; just
                // check both are real cities.
                assert!(wpair[0].index() < w.cities.len());
                assert!(wpair[1].index() < w.cities.len());
            }
        }
    }

    #[test]
    fn first_hop_is_usually_source_city() {
        let (_, c) = small_campaign();
        let mut at_src = 0;
        let mut total = 0;
        for t in &c.traces {
            if let Some(city) = t.hops[0].city {
                total += 1;
                at_src += (city == t.src) as usize;
            }
        }
        assert!(at_src == total, "first resolved hop must be the source");
    }

    #[test]
    fn hints_reference_roster_names() {
        let (w, c) = small_campaign();
        let names: std::collections::HashSet<&str> =
            w.roster.iter().map(|p| p.name.as_str()).collect();
        let mut hinted = 0usize;
        for t in &c.traces {
            for h in &t.hops {
                if let Some(hint) = &h.isp_hint {
                    assert!(names.contains(hint.as_str()), "unknown hint {hint}");
                    hinted += 1;
                }
            }
        }
        assert!(hinted > 1_000, "hints too rare: {hinted}");
    }

    #[test]
    fn unpublished_carriers_appear_in_hints() {
        let (_, c) = small_campaign();
        let softlayer = c
            .traces
            .iter()
            .flat_map(|t| t.hops.iter())
            .filter(|h| h.isp_hint.as_deref() == Some("SoftLayer"))
            .count();
        assert!(softlayer > 0, "SoftLayer should carry some probes");
    }

    #[test]
    fn deterministic() {
        let w = World::reference();
        let cfg = ProbeConfig {
            probes: 500,
            ..ProbeConfig::default()
        };
        let a = run_campaign(&w, &cfg);
        let b = run_campaign(&w, &cfg);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn mpls_hides_hops() {
        let w = World::reference();
        let base = ProbeConfig {
            probes: 2_000,
            mpls_rate: 0.0,
            ..ProbeConfig::default()
        };
        let tunnelled = ProbeConfig {
            probes: 2_000,
            mpls_rate: 0.9,
            ..ProbeConfig::default()
        };
        let h0: usize = run_campaign(&w, &base)
            .traces
            .iter()
            .map(|t| t.hops.len())
            .sum();
        let h1: usize = run_campaign(&w, &tunnelled)
            .traces
            .iter()
            .map(|t| t.hops.len())
            .sum();
        assert!(
            h1 < h0,
            "heavy MPLS should hide hops: {h1} observed vs {h0} without tunnels"
        );
    }
}

//! What-if analysis: apply a mitigation plan to the constructed map and
//! re-run the §4 risk assessment on the upgraded infrastructure — closing
//! the loop the paper leaves open between §5's proposals and §4's metrics.

use intertubes_map::{FiberMap, MapConduit, MapConduitId, Provenance, Tenancy, TenancySource};
use intertubes_risk::RiskMatrix;
use serde::{Deserialize, Serialize};

use crate::augmentation::AugmentationReport;

/// Before/after comparison of the §4.2 headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// Conduits added by the plan.
    pub conduits_added: usize,
    /// Fraction of conduits shared by ≥ 4 providers, before.
    pub ge4_before: f64,
    /// Fraction of conduits shared by ≥ 4 providers, after.
    pub ge4_after: f64,
    /// Highest tenant count on any conduit, before.
    pub max_sharing_before: u16,
    /// Highest tenant count on any conduit, after.
    pub max_sharing_after: u16,
    /// Mean per-provider average shared risk, before.
    pub mean_avg_risk_before: f64,
    /// Mean per-provider average shared risk, after.
    pub mean_avg_risk_after: f64,
}

/// Materializes an augmentation plan: clones the map, adds each new conduit
/// as a parallel trench, and moves half of the relieved conduit's tenants
/// (alphabetically — deterministic) into it.
pub fn apply_augmentation(map: &FiberMap, plan: &AugmentationReport) -> FiberMap {
    let mut out = map.clone();
    for add in &plan.added {
        let src_idx = add.parallels.index();
        let (a, b, geometry) = {
            let src = &out.conduits[src_idx];
            (src.a, src.b, src.geometry.offset_parallel(7.0))
        };
        // Split tenants: movers take the new trench.
        let tenants = out.conduits[src_idx].tenants.clone();
        let half = tenants.len() / 2;
        let (stay, go) = tenants.split_at(tenants.len() - half);
        out.conduits[src_idx].tenants = stay.to_vec();
        out.conduits.push(MapConduit {
            a,
            b,
            geometry,
            tenants: go
                .iter()
                .map(|t| Tenancy {
                    isp: t.isp.clone(),
                    source: TenancySource::PublishedMap,
                })
                .collect(),
            provenance: Provenance::Step3,
            validated: false,
            row: None,
        });
    }
    out
}

/// Before/after comparison of the §4.2 headline metrics under a conduit
/// cut (the destructive dual of [`what_if`]'s augmentation: instead of
/// adding trenches, a set of existing conduits is severed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutReport {
    /// Conduits severed by the cut.
    pub conduits_cut: usize,
    /// Providers that lost at least one tenancy, in roster order.
    pub affected_isps: Vec<String>,
    /// Total (conduit, provider) tenancies severed among the tracked
    /// providers.
    pub links_lost: usize,
    /// Fraction of surviving conduits shared by ≥ 4 providers, before.
    pub ge4_before: f64,
    /// Fraction of surviving conduits shared by ≥ 4 providers, after.
    pub ge4_after: f64,
    /// Highest tenant count on any conduit, before.
    pub max_sharing_before: u16,
    /// Highest tenant count on any conduit, after.
    pub max_sharing_after: u16,
    /// Mean per-provider average shared risk, before.
    pub mean_avg_risk_before: f64,
    /// Mean per-provider average shared risk, after.
    pub mean_avg_risk_after: f64,
}

/// The §4.2 sharing profile of a frozen map, built once so every cut
/// report is a scan over it: the de-duplicated roster, each provider's
/// conduit ids (ascending), and the per-conduit share counts, with
/// [`RiskMatrix::build`]'s lenient semantics (duplicate roster names
/// dropped, first occurrence wins).
///
/// A cut only removes conduits, and a surviving conduit's share count
/// depends only on its own tenants, so every "after" metric is the
/// "before" metric restricted to the survivors — same terms, same order,
/// same bytes as rebuilding the profile over a severed copy of the map.
/// Opens no obs stage span: reports are computed from serving worker
/// threads, where spans are forbidden by the DESIGN.md §8 contract.
#[derive(Debug)]
pub struct CutBaseline {
    /// De-duplicated provider roster, in first-occurrence order.
    roster: Vec<String>,
    /// `conduits_of[i]`: conduit ids `roster[i]` is a tenant of, ascending.
    conduits_of: Vec<Vec<usize>>,
    /// `shared[c]`: roster providers sharing conduit `c`.
    shared: Vec<u16>,
}

impl CutBaseline {
    /// Profiles `map` against the roster `isps`.
    pub fn new(map: &FiberMap, isps: &[String]) -> CutBaseline {
        let mut roster: Vec<String> = Vec::with_capacity(isps.len());
        for isp in isps {
            if !roster.contains(isp) {
                roster.push(isp.clone());
            }
        }
        let mut shared = vec![0u16; map.conduits.len()];
        let conduits_of: Vec<Vec<usize>> = roster
            .iter()
            .map(|isp| {
                let mut mine = Vec::new();
                for (c, conduit) in map.conduits.iter().enumerate() {
                    if conduit.has_tenant(isp) {
                        shared[c] += 1;
                        mine.push(c);
                    }
                }
                mine
            })
            .collect();
        CutBaseline {
            roster,
            conduits_of,
            shared,
        }
    }

    /// Fraction of the kept conduits shared by ≥ 4 providers (§4.2).
    fn frac_ge4(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let mut kept = 0usize;
        let mut ge4 = 0usize;
        for (c, &s) in self.shared.iter().enumerate() {
            if keep(c) {
                kept += 1;
                ge4 += usize::from(s >= 4);
            }
        }
        ge4 as f64 / kept.max(1) as f64
    }

    /// Highest share count on any kept conduit.
    fn max_sharing(&self, keep: impl Fn(usize) -> bool) -> u16 {
        self.shared
            .iter()
            .enumerate()
            .filter(|&(c, _)| keep(c))
            .map(|(_, &s)| s)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-provider average shared risk over the kept conduits, as
    /// [`mean_avg_risk`]: providers left with no conduit are skipped.
    fn mean_avg_risk(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for cs in &self.conduits_of {
            let len = cs.iter().filter(|&&c| keep(c)).count();
            if len == 0 {
                continue;
            }
            total += cs
                .iter()
                .filter(|&&c| keep(c))
                .map(|&c| self.shared[c] as f64)
                .sum::<f64>()
                / len as f64;
            n += 1;
        }
        total / n.max(1) as f64
    }

    /// Runs the before/after comparison for a conduit cut. Duplicate and
    /// out-of-range ids are ignored.
    ///
    /// Safe to call from worker threads: unlike [`what_if`] it opens no
    /// obs stage span — only associative counters, which merge
    /// identically at any thread count.
    pub fn report(&self, cut: &[MapConduitId]) -> CutReport {
        intertubes_obs::counter("mitigation.whatif_cut_calls", 1);
        let mut in_cut = vec![false; self.shared.len()];
        for id in cut {
            if let Some(s) = in_cut.get_mut(id.index()) {
                *s = true;
            }
        }
        let mut links_lost = 0usize;
        let mut affected_isps = Vec::new();
        for (isp, cs) in self.roster.iter().zip(&self.conduits_of) {
            let lost = cs.iter().filter(|&&c| in_cut[c]).count();
            links_lost += lost;
            if lost > 0 {
                affected_isps.push(isp.clone());
            }
        }
        let all = |_: usize| true;
        let survives = |c: usize| !in_cut[c];
        CutReport {
            conduits_cut: in_cut.iter().filter(|&&s| s).count(),
            affected_isps,
            links_lost,
            ge4_before: self.frac_ge4(all),
            ge4_after: self.frac_ge4(survives),
            max_sharing_before: self.max_sharing(all),
            max_sharing_after: self.max_sharing(survives),
            mean_avg_risk_before: self.mean_avg_risk(all),
            mean_avg_risk_after: self.mean_avg_risk(survives),
        }
    }
}

/// Runs the before/after comparison for a conduit cut against a baseline
/// profiled on the spot; callers answering many cuts over one map keep a
/// [`CutBaseline`] instead.
pub fn what_if_cut(map: &FiberMap, isps: &[String], cut: &[MapConduitId]) -> CutReport {
    CutBaseline::new(map, isps).report(cut)
}

fn mean_avg_risk(rm: &RiskMatrix) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for i in 0..rm.isp_count() {
        let cs = rm.conduits_of(i);
        if cs.is_empty() {
            continue;
        }
        total += cs.iter().map(|&c| rm.shared[c] as f64).sum::<f64>() / cs.len() as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// Runs the before/after comparison for an augmentation plan.
pub fn what_if(map: &FiberMap, isps: &[String], plan: &AugmentationReport) -> WhatIfReport {
    let mut span = intertubes_obs::stage("mitigation.whatif");
    span.items("conduits_added", plan.added.len());
    let before = RiskMatrix::build(map, isps);
    let upgraded = apply_augmentation(map, plan);
    let after = RiskMatrix::build(&upgraded, isps);
    let frac_ge4 = |rm: &RiskMatrix| {
        rm.shared.iter().filter(|&&s| s >= 4).count() as f64 / rm.conduit_count() as f64
    };
    WhatIfReport {
        conduits_added: plan.added.len(),
        ge4_before: frac_ge4(&before),
        ge4_after: frac_ge4(&after),
        max_sharing_before: before.shared.iter().copied().max().unwrap_or(0),
        max_sharing_after: after.shared.iter().copied().max().unwrap_or(0),
        mean_avg_risk_before: mean_avg_risk(&before),
        mean_avg_risk_after: mean_avg_risk(&after),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augmentation::AddedConduit;
    use crate::robustness::heaviest_conduits;
    use intertubes_atlas::World;
    use intertubes_geo::{GeoPoint, Polyline};
    use intertubes_map::{build_map, MapConduitId, PipelineConfig};
    use intertubes_records::{generate_corpus, CorpusConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Materializes a conduit cut: clones the map and removes every
    /// conduit in `cut`. Duplicate and out-of-range ids are ignored;
    /// surviving conduits keep their relative order.
    fn apply_cut(map: &FiberMap, cut: &[MapConduitId]) -> FiberMap {
        let mut sever = vec![false; map.conduits.len()];
        for id in cut {
            if let Some(s) = sever.get_mut(id.index()) {
                *s = true;
            }
        }
        let mut out = map.clone();
        let mut keep = sever.iter().map(|&s| !s);
        out.conduits.retain(|_| keep.next().unwrap_or(true));
        out
    }

    /// The clone-and-rebuild cut report [`CutBaseline::report`] must
    /// reproduce byte for byte: profile the map, profile a severed clone
    /// of it, and count lost tenancies by scanning every cut conduit's
    /// tenant list.
    fn reference_what_if_cut(map: &FiberMap, isps: &[String], cut: &[MapConduitId]) -> CutReport {
        let before = CutBaseline::new(map, isps);
        let after = CutBaseline::new(&apply_cut(map, cut), isps);
        let mut in_cut = vec![false; map.conduits.len()];
        for id in cut {
            if let Some(s) = in_cut.get_mut(id.index()) {
                *s = true;
            }
        }
        let mut links_lost = 0usize;
        let mut seen: Vec<&String> = Vec::with_capacity(isps.len());
        let affected_isps: Vec<String> = isps
            .iter()
            .filter(|isp| {
                if seen.contains(isp) {
                    return false;
                }
                seen.push(isp);
                let lost = map
                    .conduits
                    .iter()
                    .zip(&in_cut)
                    .filter(|(c, &s)| s && c.has_tenant(isp))
                    .count();
                links_lost += lost;
                lost > 0
            })
            .cloned()
            .collect();
        let frac_ge4 = |p: &CutBaseline| {
            p.shared.iter().filter(|&&s| s >= 4).count() as f64 / p.shared.len().max(1) as f64
        };
        CutReport {
            conduits_cut: in_cut.iter().filter(|&&s| s).count(),
            affected_isps,
            links_lost,
            ge4_before: frac_ge4(&before),
            ge4_after: frac_ge4(&after),
            max_sharing_before: before.shared.iter().copied().max().unwrap_or(0),
            max_sharing_after: after.shared.iter().copied().max().unwrap_or(0),
            mean_avg_risk_before: before.mean_avg_risk(|_| true),
            mean_avg_risk_after: after.mean_avg_risk(|_| true),
        }
    }

    /// Asserts the baseline's report serializes to the reference's bytes.
    fn assert_matches_reference(
        map: &FiberMap,
        isps: &[String],
        baseline: &CutBaseline,
        cut: &[MapConduitId],
    ) {
        let fast = serde_json::to_string(&baseline.report(cut)).ok();
        let slow = serde_json::to_string(&reference_what_if_cut(map, isps, cut)).ok();
        assert!(fast.is_some(), "cut {cut:?} does not serialize");
        assert_eq!(fast, slow, "cut {cut:?}");
    }

    fn toy_map() -> FiberMap {
        let mut m = FiberMap::default();
        let a = m.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
        let b = m.ensure_node("B, XX", GeoPoint::new_unchecked(40.0, -98.0));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -100.0),
                GeoPoint::new_unchecked(40.0, -98.0),
            )
            .densify(40.0)
            .unwrap(),
            tenants: vec![t("W"), t("X"), t("Y"), t("Z")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    fn plan() -> AugmentationReport {
        AugmentationReport {
            added: vec![AddedConduit {
                parallels: MapConduitId(0),
                a: "A, XX".into(),
                b: "B, XX".into(),
                row_km: 180.0,
                srr: 8.0,
            }],
            isps: vec!["W".into(), "X".into(), "Y".into(), "Z".into()],
            improvement: vec![vec![0.5]; 4],
        }
    }

    #[test]
    fn applying_plan_splits_tenants() {
        let m = toy_map();
        let upgraded = apply_augmentation(&m, &plan());
        assert_eq!(upgraded.conduits.len(), 2);
        assert_eq!(upgraded.conduits[0].tenant_count(), 2);
        assert_eq!(upgraded.conduits[1].tenant_count(), 2);
        // No tenancy lost or duplicated.
        assert_eq!(upgraded.link_count(), m.link_count());
        // The new trench is geographically parallel, not identical.
        let sep = midpoint_separation(&upgraded);
        assert!(sep > 2.0, "parallel trench separation {sep} km");
    }

    /// Separation between the midpoints of the toy map's two conduits.
    fn midpoint_separation(m: &FiberMap) -> f64 {
        let p1 = m.conduits[0].geometry.point_at_fraction(0.5);
        let p2 = m.conduits[1].geometry.point_at_fraction(0.5);
        p1.distance_km(&p2)
    }

    #[test]
    fn what_if_reduces_max_sharing() {
        let m = toy_map();
        let isps: Vec<String> = ["W", "X", "Y", "Z"].iter().map(|s| s.to_string()).collect();
        let report = what_if(&m, &isps, &plan());
        assert_eq!(report.conduits_added, 1);
        assert_eq!(report.max_sharing_before, 4);
        assert_eq!(report.max_sharing_after, 2);
        assert!(report.mean_avg_risk_after < report.mean_avg_risk_before);
        assert!(report.ge4_after < report.ge4_before);
    }

    /// A second toy map with two conduits so a cut leaves survivors.
    fn toy_map_two() -> FiberMap {
        let mut m = toy_map();
        let b = m.find_node("B, XX").unwrap();
        let c = m.ensure_node("C, XX", GeoPoint::new_unchecked(40.0, -96.0));
        m.conduits.push(MapConduit {
            a: b,
            b: c,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -98.0),
                GeoPoint::new_unchecked(40.0, -96.0),
            )
            .densify(40.0)
            .unwrap(),
            tenants: vec![
                Tenancy {
                    isp: "W".into(),
                    source: TenancySource::PublishedMap,
                },
                Tenancy {
                    isp: "X".into(),
                    source: TenancySource::PublishedMap,
                },
            ],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    #[test]
    fn apply_cut_removes_only_named_conduits() {
        let m = toy_map_two();
        let severed = apply_cut(&m, &[MapConduitId(0)]);
        assert_eq!(severed.conduits.len(), 1);
        assert_eq!(severed.conduits[0].tenant_count(), 2);
        // Duplicates and out-of-range ids are ignored.
        let same = apply_cut(&m, &[MapConduitId(0), MapConduitId(0), MapConduitId(99)]);
        assert_eq!(same.conduits.len(), 1);
        // Empty cut is the identity.
        assert_eq!(apply_cut(&m, &[]).conduits.len(), 2);
    }

    #[test]
    fn what_if_cut_reports_affected_isps_and_risk_drop() {
        let m = toy_map_two();
        let isps: Vec<String> = ["W", "X", "Y", "Z"].iter().map(|s| s.to_string()).collect();
        let report = what_if_cut(&m, &isps, &[MapConduitId(0)]);
        assert_eq!(report.conduits_cut, 1);
        assert_eq!(report.affected_isps, vec!["W", "X", "Y", "Z"]);
        assert_eq!(report.links_lost, 4);
        assert_eq!(report.max_sharing_before, 4);
        assert_eq!(report.max_sharing_after, 2);
        assert!(report.ge4_after < report.ge4_before);
    }

    #[test]
    fn sharing_profile_matches_risk_matrix_semantics() {
        let m = toy_map_two();
        // Duplicate roster entry: both paths must drop it (first wins).
        let isps: Vec<String> = ["W", "X", "W", "Y", "Z", "Q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rm = RiskMatrix::build(&m, &isps);
        let profile = CutBaseline::new(&m, &isps);
        assert_eq!(profile.shared, rm.shared);
        for (i, cs) in profile.conduits_of.iter().enumerate() {
            assert_eq!(cs, &rm.conduits_of(i), "provider {i}");
        }
        assert_eq!(profile.mean_avg_risk(|_| true), mean_avg_risk(&rm));
    }

    #[test]
    fn empty_cut_is_identity() {
        let m = toy_map_two();
        let isps: Vec<String> = ["W", "X"].iter().map(|s| s.to_string()).collect();
        let report = what_if_cut(&m, &isps, &[]);
        assert_eq!(report.conduits_cut, 0);
        assert!(report.affected_isps.is_empty());
        assert_eq!(report.links_lost, 0);
        assert_eq!(report.max_sharing_before, report.max_sharing_after);
        assert_eq!(report.mean_avg_risk_before, report.mean_avg_risk_after);
    }

    #[test]
    fn empty_plan_is_identity() {
        let m = toy_map();
        let isps: Vec<String> = ["W", "X"].iter().map(|s| s.to_string()).collect();
        let empty = AugmentationReport {
            added: vec![],
            isps: isps.clone(),
            improvement: vec![vec![], vec![]],
        };
        let report = what_if(&m, &isps, &empty);
        assert_eq!(report.conduits_added, 0);
        assert_eq!(report.max_sharing_before, report.max_sharing_after);
        assert_eq!(report.mean_avg_risk_before, report.mean_avg_risk_after);
    }

    #[test]
    fn baseline_reports_match_clone_and_rebuild_on_reference_map() {
        let w = World::reference();
        let corpus = generate_corpus(&w, &CorpusConfig::default());
        let map = build_map(
            &w.publish_maps(),
            &corpus,
            &w.cities,
            &w.roads,
            &w.rails,
            &PipelineConfig::default(),
        )
        .map;
        let isps: Vec<String> = w
            .roster
            .iter()
            .take(intertubes_atlas::MAPPED_ISPS)
            .map(|p| p.name.clone())
            .collect();
        let baseline = CutBaseline::new(&map, &isps);
        let n = map.conduits.len() as u32;
        let ids = |cs: &[u32]| cs.iter().map(|&c| MapConduitId(c)).collect::<Vec<_>>();
        for c in 0..n {
            assert_matches_reference(&map, &isps, &baseline, &ids(&[c]));
        }
        let top = heaviest_conduits(&RiskMatrix::build(&map, &isps), 24);
        for (i, &p) in top.iter().enumerate() {
            for &q in &top[i + 1..] {
                assert_matches_reference(&map, &isps, &baseline, &[p, q]);
            }
        }
        // Random cuts of 1–40 ids drawn past the end of the map, so
        // duplicates and out-of-range ids both occur.
        let mut rng = StdRng::seed_from_u64(0x5EED_C075);
        for _ in 0..2_000 {
            let len = rng.gen_range(1..=40usize);
            let cut: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n + n / 8)).collect();
            assert_matches_reference(&map, &isps, &baseline, &ids(&cut));
        }
        assert_matches_reference(&map, &isps, &baseline, &[]);
        let all: Vec<u32> = (0..n).collect();
        assert_matches_reference(&map, &isps, &baseline, &ids(&all));
    }

    #[test]
    fn baseline_reports_match_clone_and_rebuild_on_toy_roster_edge_cases() {
        let m = toy_map_two();
        // "W" is listed twice, "Q" holds no conduit, and "Y"/"Z" ride
        // only conduit 0, so cutting it strands them entirely.
        let isps: Vec<String> = ["W", "Y", "W", "Q", "Z", "X"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let baseline = CutBaseline::new(&m, &isps);
        let cuts: [&[u32]; 7] = [&[], &[0], &[1], &[0, 1], &[1, 0, 1], &[0, 7], &[9]];
        for cut in cuts {
            let cut: Vec<MapConduitId> = cut.iter().map(|&c| MapConduitId(c)).collect();
            assert_matches_reference(&m, &isps, &baseline, &cut);
        }
        let stranded = baseline.report(&[MapConduitId(0)]);
        assert_eq!(stranded.affected_isps, vec!["W", "Y", "Z", "X"]);
        assert_eq!(stranded.links_lost, 4);
    }
}

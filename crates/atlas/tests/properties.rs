//! Property-based tests for the synthetic-world substrates.

use intertubes_atlas::{gabriel_pairs, knn_pairs, load_cities, City};
use intertubes_geo::GeoPoint;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mk_cities(points: Vec<(f64, f64)>) -> Vec<City> {
    points
        .into_iter()
        .enumerate()
        .map(|(i, (lat, lon))| City {
            name: format!("P{i}"),
            state: "XX".into(),
            location: GeoPoint::new_unchecked(lat, lon),
            population: 100_000,
        })
        .collect()
}

/// Distinct CONUS points (coincident points break Gabriel assumptions).
fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((26.0f64..48.0, -122.0f64..-70.0), 3..14).prop_filter(
        "points must be pairwise distinct-ish",
        |pts| {
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    if (pts[i].0 - pts[j].0).abs() < 0.05 && (pts[i].1 - pts[j].1).abs() < 0.05 {
                        return false;
                    }
                }
            }
            true
        },
    )
}

/// The Gabriel definition tested literally, O(n³): `(u, v)` is a pair
/// unless some third point, tried in index order, lies inside the circle
/// with diameter `uv`.
fn gabriel_brute_force(cities: &[City]) -> Vec<(usize, usize)> {
    let n = cities.len();
    let mut out = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let mid = cities[u].location.midpoint(&cities[v].location);
            let r = cities[u].location.distance_km(&cities[v].location) / 2.0;
            let blocked =
                (0..n).any(|w| w != u && w != v && cities[w].location.distance_km(&mid) < r - 1e-9);
            if !blocked {
                out.push((u, v));
            }
        }
    }
    out
}

/// Points on a coarse 2° lattice: duplicates and cocircular quadruples
/// (every lattice rectangle) are the common case, not the exception.
fn arb_lattice_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0u8..6, 0u8..6), 3..30).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(i, j)| (30.0 + 2.0 * i as f64, -100.0 + 2.0 * j as f64))
            .collect()
    })
}

#[test]
fn gabriel_matches_brute_force_on_reference_gazetteer() {
    let cities = load_cities();
    assert_eq!(gabriel_pairs(&cities), gabriel_brute_force(&cities));
}

#[test]
fn gabriel_matches_brute_force_on_seeded_degenerate_sets() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3usize..40);
        let mut points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(26.0..48.0), rng.gen_range(-122.0..-70.0)))
            .collect();
        // Exact duplicates of existing points.
        for _ in 0..rng.gen_range(1usize..5) {
            let i = rng.gen_range(0..points.len());
            points.push(points[i]);
        }
        // A ring of cocircular points plus its centre, so diametral pairs
        // of the ring have other ring points on their circle's boundary.
        let centre =
            GeoPoint::new_unchecked(rng.gen_range(30.0..44.0), rng.gen_range(-115.0..-80.0));
        let radius = rng.gen_range(50.0..400.0);
        points.push((centre.lat, centre.lon));
        for k in 0..8 {
            let p = centre.destination(45.0 * k as f64, radius);
            points.push((p.lat, p.lon));
        }
        let cities = mk_cities(points);
        assert_eq!(
            gabriel_pairs(&cities),
            gabriel_brute_force(&cities),
            "seed {seed}"
        );
    }
}

/// Union-find connectivity over index pairs.
fn connected(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        parent[ru] = rv;
    }
    let r0 = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == r0)
}

proptest! {
    #[test]
    fn gabriel_nearest_first_matches_brute_force(points in arb_lattice_points()) {
        let cities = mk_cities(points);
        prop_assert_eq!(gabriel_pairs(&cities), gabriel_brute_force(&cities));
    }

    #[test]
    fn gabriel_graph_is_connected_and_supersets_nn(points in arb_points()) {
        let cities = mk_cities(points);
        let pairs = gabriel_pairs(&cities);
        prop_assert!(connected(cities.len(), &pairs), "Gabriel graph must be connected");
        // Contains every point's nearest neighbour.
        for e in knn_pairs(&cities, 1) {
            prop_assert!(pairs.contains(&e), "NN pair {e:?} missing");
        }
    }

    #[test]
    fn gabriel_edges_have_empty_diametral_circles(points in arb_points()) {
        let cities = mk_cities(points);
        let pairs = gabriel_pairs(&cities);
        for (u, v) in pairs {
            let mid = cities[u].location.midpoint(&cities[v].location);
            let r = cities[u].location.distance_km(&cities[v].location) / 2.0;
            for (w, c) in cities.iter().enumerate() {
                if w == u || w == v {
                    continue;
                }
                prop_assert!(
                    c.location.distance_km(&mid) >= r - 1e-6,
                    "point {w} inside the diametral circle of ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn knn_pairs_are_normalized_and_bounded(points in arb_points(), k in 1usize..4) {
        let cities = mk_cities(points);
        let pairs = knn_pairs(&cities, k);
        for (u, v) in &pairs {
            prop_assert!(u < v, "pairs must be normalized");
            prop_assert!(*v < cities.len());
        }
        // Each node appears in at least min(k, n-1) pairs.
        for i in 0..cities.len() {
            let deg = pairs.iter().filter(|(u, v)| *u == i || *v == i).count();
            prop_assert!(deg >= k.min(cities.len() - 1));
        }
        // Deduplicated.
        let mut sorted = pairs.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pairs.len());
    }
}

mod config_sweep {
    use intertubes_atlas::{tenant_counts, ConduitConfig, World, WorldConfig};

    #[test]
    fn conduit_target_is_respected_across_targets() {
        for target in [480usize, 542, 600] {
            let cfg = WorldConfig {
                seed: 99,
                conduits: ConduitConfig {
                    target_conduits: target,
                    ..ConduitConfig::default()
                },
            };
            let w = World::generate(cfg);
            let got = w.system.conduits.len();
            assert!(
                (got as i64 - target as i64).unsigned_abs() <= 3,
                "target {target}, got {got}"
            );
            // Tenancy calibration still lands.
            let counts = tenant_counts(&w.system, w.mapped_footprints());
            let ge2 = counts.iter().filter(|&&c| c >= 2).count() as f64 / counts.len() as f64;
            assert!(ge2 > 0.75, "target {target}: ge2 {ge2}");
        }
    }

    #[test]
    fn higher_rail_preference_means_more_rail_conduits() {
        use intertubes_atlas::RowType;
        let count_rail = |pref: f64| {
            let cfg = WorldConfig {
                seed: 5,
                conduits: ConduitConfig {
                    rail_preference: pref,
                    ..ConduitConfig::default()
                },
            };
            let w = World::generate(cfg);
            w.system
                .conduits
                .iter()
                .filter(|c| c.row == RowType::Rail)
                .count()
        };
        let low = count_rail(0.05);
        let high = count_rail(0.7);
        assert!(
            high > low * 2,
            "rail preference must matter: {low} vs {high}"
        );
    }
}

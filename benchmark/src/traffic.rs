//! The benchmark's own seeded query generator.
//!
//! The traffic mirrors the documented interactive mix of the serving layer
//! (30 % IspRisk, 15 % Similarity, 30 % Latency, 15 % TopShared with
//! k in 4..16, 10 % CutImpact over 1–3 of the 24 most-shared conduits), but
//! the benchmark owns the code: a change to the program's own workload
//! generator cannot change what the benchmark sends.

use intertubes::serve::{Query, StudySnapshot};

/// How many of the most-shared conduits CutImpact queries draw from.
pub const CUT_POOL: usize = 24;

/// The query families the generator emits, in metric-name order.
pub const FAMILIES: [&str; 5] = [
    "isp_risk",
    "similarity",
    "latency",
    "top_shared",
    "cut_impact",
];

/// The splitmix64 step (Vigna's public-domain constants).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the workload seed and a label.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut state = seed;
    for b in label.bytes() {
        state ^= u64::from(b);
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// What the generator draws from: provider names, conduit-joined city
/// pairs and the cut pool.
#[derive(Debug, Clone)]
pub struct TrafficPool {
    pub isps: Vec<String>,
    pub pairs: Vec<(String, String)>,
    pub cut_pool: Vec<u32>,
}

impl TrafficPool {
    /// The pool of a frozen snapshot: its providers, the endpoint labels of
    /// its path-index pairs, and its most-shared conduits (ties by id).
    pub fn from_snapshot(snap: &StudySnapshot) -> TrafficPool {
        let label = |node: u32| snap.map.nodes[node as usize].label.clone();
        let pairs = snap
            .paths
            .pairs
            .iter()
            .map(|p| (label(p.a), label(p.b)))
            .collect();
        let shared = &snap.risk.shared;
        let mut cut_pool: Vec<u32> = (0..shared.len() as u32).collect();
        cut_pool.sort_by(|&x, &y| shared[y as usize].cmp(&shared[x as usize]).then(x.cmp(&y)));
        cut_pool.truncate(CUT_POOL);
        TrafficPool {
            isps: snap.isps.clone(),
            pairs,
            cut_pool,
        }
    }
}

/// The family index (into [`FAMILIES`]) of a generated query.
pub fn family_index(q: &Query) -> Option<usize> {
    match q {
        Query::IspRisk { .. } => Some(0),
        Query::Similarity { .. } => Some(1),
        Query::Latency { .. } => Some(2),
        Query::TopShared { .. } => Some(3),
        Query::CutImpact { .. } => Some(4),
        _ => None,
    }
}

/// `n` queries drawn from `pool`; the same `(pool, n, seed)` always gives
/// the same queries.
pub fn generate(pool: &TrafficPool, n: usize, seed: u64) -> Vec<Query> {
    fn pick(len: usize, state: &mut u64) -> usize {
        (splitmix64(state) % len.max(1) as u64) as usize
    }
    let mut state = seed;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = splitmix64(&mut state) % 100;
        let q = if roll < 30 {
            Query::IspRisk {
                isp: pool.isps[pick(pool.isps.len(), &mut state)].clone(),
            }
        } else if roll < 45 {
            Query::Similarity {
                isp: pool.isps[pick(pool.isps.len(), &mut state)].clone(),
            }
        } else if roll < 75 {
            let (a, b) = pool.pairs[pick(pool.pairs.len(), &mut state)].clone();
            Query::Latency { a, b }
        } else if roll < 90 {
            Query::TopShared {
                k: 4 + pick(12, &mut state),
            }
        } else {
            let count = 1 + pick(3, &mut state);
            let conduits = (0..count)
                .map(|_| pool.cut_pool[pick(pool.cut_pool.len(), &mut state)])
                .collect();
            Query::CutImpact { conduits }
        };
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented share of each family, in percent, in [`FAMILIES`] order.
    const SHARES_PCT: [u64; 5] = [30, 15, 30, 15, 10];

    fn pool() -> TrafficPool {
        TrafficPool {
            isps: (0..20).map(|i| format!("isp{i}")).collect(),
            pairs: (0..300)
                .map(|i| (format!("a{i}"), format!("b{i}")))
                .collect(),
            cut_pool: (100..124).collect(),
        }
    }

    #[test]
    fn same_seed_gives_the_same_queries() {
        let p = pool();
        assert_eq!(generate(&p, 2_000, 7), generate(&p, 2_000, 7));
    }

    #[test]
    fn different_seeds_give_different_queries() {
        let p = pool();
        assert_ne!(generate(&p, 2_000, 7), generate(&p, 2_000, 8));
        assert_ne!(derive_seed(7, "traffic"), derive_seed(8, "traffic"));
        assert_ne!(derive_seed(7, "traffic"), derive_seed(7, "scenario"));
    }

    #[test]
    fn family_shares_match_the_documented_mix() {
        let p = pool();
        let n = 40_000;
        for seed in [1u64, 2, 3] {
            let mut counts = [0usize; 5];
            for q in generate(&p, n, seed) {
                counts[family_index(&q).expect("generated family")] += 1;
            }
            for (f, &c) in counts.iter().enumerate() {
                let share = 100.0 * c as f64 / n as f64;
                let want = SHARES_PCT[f] as f64;
                assert!(
                    (share - want).abs() < 1.0,
                    "{}: {share:.2} % vs {want} %",
                    FAMILIES[f]
                );
            }
        }
    }

    #[test]
    fn parameters_stay_in_range() {
        let p = pool();
        for q in generate(&p, 5_000, 11) {
            match q {
                Query::TopShared { k } => assert!((4..16).contains(&k)),
                Query::CutImpact { conduits } => {
                    assert!((1..=3).contains(&conduits.len()));
                    assert!(conduits.iter().all(|c| p.cut_pool.contains(c)));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn splitmix64_matches_reference_sequence() {
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }
}

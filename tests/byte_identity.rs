//! The byte-identity goldens for the whole study pipeline and for the
//! serving layer's cut what-ifs.
//!
//! Performance work on any stage (world generation, map construction, the
//! probe campaign, the overlay, the path index, the encoder) must leave the
//! serving snapshot of the default study byte-for-byte unchanged. This pins
//! the FNV-1a-64 digest of that container — the same bytes `intertubes
//! snapshot <path>` writes at the default seed — so a changed byte fails
//! here instead of needing a manual `cmp` against an older build. A second
//! digest pins the `CutImpact` answers over that snapshot, so work on the
//! query engine is held to the same standard.
//!
//! A digest only moves on a deliberate output change; update it in the
//! same commit that changes the output, and say why.

use std::sync::OnceLock;

use intertubes::serve::{fnv1a64, Query, QueryEngine, StudySnapshot};
use intertubes::{Study, StudyConfig};

/// `fnv1a64` of the default study's snapshot with a 10 000-probe overlay.
const DEFAULT_SNAPSHOT_FNV: &str = "2570a2b4c9014f21";

/// `fnv1a64` of the newline-joined canonical `CutImpact` answers of
/// [`cut_impact_answers_are_pinned`] over that snapshot.
const CUT_IMPACT_FNV: &str = "08f95f2cac29fc51";

fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::new(StudyConfig::default()).snapshot(Some(10_000)))
}

#[test]
fn default_study_snapshot_bytes_are_pinned() {
    let digest = snapshot()
        .to_bytes()
        .map(|bytes| format!("{:016x}", fnv1a64(&bytes)));
    assert_eq!(digest.as_deref(), Ok(DEFAULT_SNAPSHOT_FNV));
}

/// Every single-conduit cut, then every pair of the 24 most-shared
/// conduits (share count descending, id ascending).
#[test]
fn cut_impact_answers_are_pinned() {
    let engine = QueryEngine::new(snapshot().clone());
    let shared = &snapshot().risk.shared;
    let n = shared.len() as u32;
    let mut top: Vec<u32> = (0..n).collect();
    top.sort_by(|&x, &y| shared[y as usize].cmp(&shared[x as usize]).then(x.cmp(&y)));
    top.truncate(24);
    let mut cuts: Vec<Vec<u32>> = (0..n).map(|c| vec![c]).collect();
    for (i, &p) in top.iter().enumerate() {
        cuts.extend(top[i + 1..].iter().map(|&q| vec![p, q]));
    }
    assert_eq!(cuts.len(), n as usize + 24 * 23 / 2);
    let answers: Vec<String> = cuts
        .into_iter()
        .map(|conduits| {
            engine
                .answer(&Query::CutImpact { conduits })
                .to_canonical_json()
        })
        .collect();
    let digest = format!("{:016x}", fnv1a64(answers.join("\n").as_bytes()));
    assert_eq!(digest, CUT_IMPACT_FNV);
}

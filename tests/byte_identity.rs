//! The byte-identity golden for the whole study pipeline.
//!
//! Performance work on any stage (world generation, map construction, the
//! probe campaign, the overlay, the path index, the encoder) must leave the
//! serving snapshot of the default study byte-for-byte unchanged. This pins
//! the FNV-1a-64 digest of that container — the same bytes `intertubes
//! snapshot <path>` writes at the default seed — so a changed byte fails
//! here instead of needing a manual `cmp` against an older build.
//!
//! The digest only moves on a deliberate output change; update it in the
//! same commit that changes the output, and say why.

use intertubes::serve::fnv1a64;
use intertubes::{Study, StudyConfig};

/// `fnv1a64` of the default study's snapshot with a 10 000-probe overlay.
const DEFAULT_SNAPSHOT_FNV: &str = "2570a2b4c9014f21";

#[test]
fn default_study_snapshot_bytes_are_pinned() {
    let digest = Study::new(StudyConfig::default())
        .snapshot(Some(10_000))
        .to_bytes()
        .map(|bytes| format!("{:016x}", fnv1a64(&bytes)));
    assert_eq!(digest.as_deref(), Ok(DEFAULT_SNAPSHOT_FNV));
}

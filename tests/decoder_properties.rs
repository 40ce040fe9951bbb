//! Never-panic batteries for the decoders of untrusted bytes: wire frames,
//! snapshot containers (and their section locator), and fault/scenario
//! plan JSON.
//!
//! Each decoder gets two kinds of input: arbitrary bytes, and single-byte
//! mutations or truncations of a valid encoding. Every case must come back
//! as `Ok` or a typed error; a panic fails the test. Where the outcome is
//! certain (a truncated encoding can never decode), the battery asserts it.

use std::sync::OnceLock;

use intertubes::faults::FaultPlan;
use intertubes::net::{decode_frame, encode_frame, Frame, FrameReader, WireError};
use intertubes::scenario::ScenarioPlan;
use intertubes::serve::{fnv1a64, section_bounds, SnapshotError, StudySnapshot};
use intertubes::Study;
use proptest::prelude::*;

fn arb_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// Arbitrary bytes, up to `max` long.
fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(arb_byte(), 0..max)
}

/// A single-byte mutation: a position (taken modulo the input length) and
/// the byte written there.
fn arb_mutation() -> impl Strategy<Value = (usize, u8)> {
    (0usize..usize::MAX, arb_byte())
}

fn mutate(bytes: &[u8], (at, byte): (usize, u8)) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let at = at % out.len();
        out[at] = byte;
    }
    out
}

/// Pops frames until the reader wants more bytes or reports an error.
/// Every `Ok(Some)` consumes bytes, so the loop terminates.
fn drain(reader: &mut FrameReader) -> Result<Vec<Frame>, WireError> {
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}

fn valid_frame() -> Vec<u8> {
    let frame = Frame::request(
        "tenant-a",
        "world-1",
        42,
        "{\"TopShared\":{\"k\":4}}".into(),
    );
    encode_frame(&frame).unwrap_or_default()
}

fn reference_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        Study::reference()
            .snapshot(Some(200))
            .to_bytes()
            .unwrap_or_default()
    })
}

/// Replaces the header's payload checksum with the one `bytes` now carry,
/// so a mutated payload gets past the checksum into the JSON decoder.
fn restamp_payload_checksum(bytes: &mut [u8]) {
    let Some(bounds) = section_bounds(bytes) else {
        return;
    };
    let (payload_start, payload_end) = bounds.payload;
    let sum = format!("{:016x}", fnv1a64(&bytes[payload_start..payload_end]));
    // The header spells it `"checksum":"<16 hex digits>"`.
    let tag = b"\"checksum\":\"";
    let (header_start, header_end) = bounds.header;
    if let Some(at) = bytes[header_start..header_end]
        .windows(tag.len())
        .position(|w| w == tag)
    {
        let at = header_start + at + tag.len();
        bytes[at..at + 16].copy_from_slice(sum.as_bytes());
    }
}

fn fault_plan_texts() -> Vec<String> {
    FaultPlan::built_in_scenarios()
        .into_iter()
        .map(|(_, plan)| plan.to_json())
        .collect()
}

fn scenario_plan_texts() -> Vec<String> {
    ScenarioPlan::built_in_scenarios()
        .into_iter()
        .map(|(_, plan)| plan.to_json())
        .collect()
}

#[test]
fn the_valid_encodings_decode() {
    let mut reader = FrameReader::new();
    reader.feed(&valid_frame());
    assert!(matches!(drain(&mut reader), Ok(frames) if frames.len() == 1));
    let mut bytes = reference_snapshot().to_vec();
    restamp_payload_checksum(&mut bytes);
    assert_eq!(
        bytes,
        reference_snapshot(),
        "restamping a clean payload is a no-op"
    );
    assert!(StudySnapshot::from_bytes(&bytes).is_ok());
    for text in fault_plan_texts() {
        assert!(FaultPlan::from_json(&text).is_ok(), "{text}");
    }
    for text in scenario_plan_texts() {
        assert!(ScenarioPlan::from_json(&text).is_ok(), "{text}");
    }
}

proptest! {
    #[test]
    fn frame_decoders_never_panic_on_arbitrary_bytes(
        bytes in arb_bytes(256),
        split in 0usize..256,
    ) {
        let _ = decode_frame(&bytes);
        // Fed in two arbitrary pieces, as non-blocking reads deliver them.
        let split = split.min(bytes.len());
        let mut reader = FrameReader::new();
        reader.feed(&bytes[..split]);
        let first = drain(&mut reader);
        if first.is_ok() {
            reader.feed(&bytes[split..]);
            let _ = drain(&mut reader);
        }
    }

    #[test]
    fn frame_decoders_never_panic_on_mutated_frames(
        mutation in arb_mutation(),
        cut in 0usize..usize::MAX,
    ) {
        let valid = valid_frame();
        let mutated = mutate(&valid, mutation);
        let _ = decode_frame(&mutated[4..]);
        let mut reader = FrameReader::new();
        reader.feed(&mutated);
        let _ = drain(&mut reader);

        let cut = cut % valid.len();
        prop_assert!(cut < 4 || decode_frame(&valid[4..cut]).is_err());
        let mut reader = FrameReader::new();
        reader.feed(&valid[..cut]);
        let popped = drain(&mut reader);
        prop_assert!(!matches!(popped, Ok(ref frames) if !frames.is_empty()));
    }

    #[test]
    fn snapshot_decoder_never_panics_on_arbitrary_bytes(
        bytes in arb_bytes(512),
        magic in 0u8..2,
    ) {
        let _ = StudySnapshot::from_bytes(&bytes);
        let _ = section_bounds(&bytes);
        if magic == 1 {
            // Get past the magic check into the header length and header.
            let mut framed = reference_snapshot()[..8].to_vec();
            framed.extend_from_slice(&bytes);
            let _ = StudySnapshot::from_bytes(&framed);
            let _ = section_bounds(&framed);
        }
    }

    #[test]
    fn snapshot_decoder_never_panics_on_mutated_containers(
        (at, byte) in arb_mutation(),
        near_header in 0u8..2,
        cut in 0usize..usize::MAX,
    ) {
        let valid = reference_snapshot();
        // Half the mutations land in the magic, length prefix and header,
        // where the container's structure lives.
        let at = if near_header == 1 { at % 512 } else { at };
        let mutated = mutate(valid, (at, byte));
        let _ = StudySnapshot::from_bytes(&mutated);
        let _ = section_bounds(&mutated);
        // The same mutation with the payload checksum restamped, so the
        // corrupt payload reaches the JSON decoder.
        let header_end = section_bounds(valid).map_or(0, |b| b.header.1);
        if at % valid.len() >= header_end {
            let mut restamped = mutated.clone();
            restamp_payload_checksum(&mut restamped);
            let decoded = StudySnapshot::from_bytes(&restamped);
            prop_assert!(!matches!(decoded, Err(SnapshotError::ChecksumMismatch { .. })));
        }
        let cut = cut % valid.len();
        prop_assert!(StudySnapshot::from_bytes(&valid[..cut]).is_err());
    }

    #[test]
    fn plan_decoders_never_panic_on_arbitrary_text(bytes in arb_bytes(256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = FaultPlan::from_json(&text);
        let _ = ScenarioPlan::from_json(&text);
    }

    #[test]
    fn plan_decoders_never_panic_on_mutated_plans(
        which in 0usize..64,
        mutation in arb_mutation(),
        cut in 0usize..usize::MAX,
    ) {
        let faults = fault_plan_texts();
        let text = &faults[which % faults.len()];
        let _ = FaultPlan::from_json(&String::from_utf8_lossy(&mutate(text.as_bytes(), mutation)));
        let cut = cut % text.len();
        let truncated = FaultPlan::from_json(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
        prop_assert!(cut >= text.trim_end().len() || truncated.is_err());

        let scenarios = scenario_plan_texts();
        let text = &scenarios[which % scenarios.len()];
        let _ = ScenarioPlan::from_json(&String::from_utf8_lossy(&mutate(text.as_bytes(), mutation)));
        let cut = cut % text.len();
        let truncated = ScenarioPlan::from_json(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
        prop_assert!(cut >= text.trim_end().len() || truncated.is_err());
    }
}

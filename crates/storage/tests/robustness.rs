//! Decode robustness: truncated or corrupted snapshot bytes must decode
//! to an error — never a panic, never out-of-bounds access, and never a
//! silently different document.
//!
//! The always-on tests below are a seeded, deterministic sweep: every
//! section boundary of a real BLM2 image (± a couple of bytes), a dense
//! prefix schedule, and a few hundred pseudo-random single-byte flips.
//! The `proptest`-gated module at the bottom widens the same properties
//! to arbitrary generated documents and arbitrary corruption once the
//! external crate is restored (see the workspace note on the feature).

use blossom_storage::format::{DIR_ENTRY_LEN, HEADER_LEN};
use blossom_storage::{load, snapshot, EncodeOptions};
use blossom_xml::{writer, TagIndex};
use blossom_xmlgen::{generate, Dataset};

/// SplitMix64 — the same tiny generator the document generator uses, so
/// the corruption schedule is seeded and reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A mid-size document with text, attributes, and recursion, its BLM2
/// image (with the succinct section), and its canonical serialization.
fn fixture() -> (Vec<u8>, String) {
    let doc = generate(Dataset::D4Treebank, 1_500, 0xFACADE);
    let index = TagIndex::build(&doc);
    let stats = doc.stats();
    let bytes =
        snapshot::encode(&doc, &index, &stats, EncodeOptions { succinct: true }).unwrap();
    (bytes, writer::to_string(&doc))
}

/// Every `(offset, len)` pair from the section directory, parsed
/// directly off the wire so the sweep covers exactly what's on disk.
fn extents(bytes: &[u8]) -> Vec<(usize, usize)> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = HEADER_LEN + i * DIR_ENTRY_LEN;
            let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            (offset, len)
        })
        .collect()
}

#[test]
fn truncation_at_every_section_boundary_errors() {
    let (bytes, _) = fixture();
    let mut cuts: Vec<usize> = (0..=HEADER_LEN + 2).collect();
    for (offset, len) in extents(&bytes) {
        for cut in [offset.saturating_sub(2), offset, offset + 2, (offset + len).saturating_sub(2), offset + len, offset + len + 2] {
            if cut < bytes.len() {
                cuts.push(cut);
            }
        }
    }
    // A dense prefix schedule between the boundaries, too.
    cuts.extend((0..bytes.len()).step_by(97));
    for cut in cuts {
        let err = snapshot::open_bytes(&bytes[..cut]);
        assert!(err.is_err(), "prefix of {cut}/{} bytes decoded", bytes.len());
        let msg = err.unwrap_err().to_string();
        assert!(!msg.contains('\n'), "multi-line error at cut {cut}: {msg}");
    }
    // The untruncated image still opens (the sweep isn't vacuous).
    snapshot::open_bytes(&bytes).unwrap();
}

#[test]
fn byte_flips_in_every_section_payload_are_detected() {
    let (bytes, _) = fixture();
    // First, middle, and last byte of every payload: all are covered by
    // that section's checksum, so a flip must be a hard decode error.
    for (offset, len) in extents(&bytes) {
        if len == 0 {
            continue;
        }
        for pos in [offset, offset + len / 2, offset + len - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                snapshot::open_bytes(&corrupt).is_err(),
                "flip at {pos} (section @{offset}+{len}) went undetected"
            );
        }
    }
    // Directory bytes are covered by the header's directory checksum.
    for pos in (HEADER_LEN..HEADER_LEN + DIR_ENTRY_LEN * 3).step_by(5) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        assert!(snapshot::open_bytes(&corrupt).is_err(), "directory flip at {pos} undetected");
    }
}

#[test]
fn random_corruption_never_panics_or_changes_the_document() {
    let (bytes, canonical) = fixture();
    let mut rng = Rng(0xC0FFEE);
    for trial in 0..400 {
        let mut corrupt = bytes.clone();
        let pos = (rng.next() as usize) % corrupt.len();
        let bit = 1u8 << (rng.next() % 8);
        corrupt[pos] ^= bit;
        // Either the corruption is detected, or it landed in alignment
        // padding no section covers — then the document must be intact.
        if let Ok(snap) = snapshot::open_bytes(&corrupt) {
            assert_eq!(
                writer::to_string(&snap.doc),
                canonical,
                "trial {trial}: undetected flip at byte {pos} changed the document"
            );
        }
    }
}

#[test]
fn structural_only_opens_never_panic_on_corruption() {
    // `OpenMode::Map` trades payload checksums for lazy paging, so a
    // corrupt file may open — but decoding, navigating, and serializing
    // it must still never panic or read out of bounds, and truncation
    // is always caught (the header's file length and every extent are
    // structural).
    let (bytes, _) = fixture();
    let dir = std::env::temp_dir().join(format!("blossom-robust-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.blm2");

    for cut in (0..bytes.len()).step_by(211) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            snapshot::open_path(&path, blossom_storage::OpenMode::Map).is_err(),
            "mapped open accepted a {cut}-byte prefix"
        );
    }

    let mut rng = Rng(0x5AFE);
    for _ in 0..120 {
        let mut corrupt = bytes.clone();
        let pos = (rng.next() as usize) % corrupt.len();
        corrupt[pos] ^= 1u8 << (rng.next() % 8);
        std::fs::write(&path, &corrupt).unwrap();
        // No panic is the property; an Ok snapshot must additionally
        // survive a full serialization walk (every text access runs its
        // per-piece bounds and UTF-8 checks here).
        if let Ok(snap) = snapshot::open_path(&path, blossom_storage::OpenMode::Map) {
            let _ = writer::to_string(&snap.doc);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_headers_error_cleanly() {
    let (bytes, _) = fixture();
    // (byte range, replacement) pairs attacking each header field.
    let attacks: &[(usize, &[u8])] = &[
        (0, b"BLM9"),                          // wrong magic
        (4, &u32::MAX.to_le_bytes()),          // absurd version
        (8, &1_000_000u32.to_le_bytes()),      // section count over MAX_SECTIONS
        (8, &0u32.to_le_bytes()),              // no sections at all
        (16, &u64::MAX.to_le_bytes()),         // node count overflow
        (16, &0u64.to_le_bytes()),             // empty document
        (40, &1u64.to_le_bytes()),             // file length mismatch
        (48, &0xDEAD_BEEFu64.to_le_bytes()),   // directory checksum mismatch
    ];
    for (at, patch) in attacks {
        let mut corrupt = bytes.clone();
        corrupt[*at..*at + patch.len()].copy_from_slice(patch);
        let err = snapshot::open_bytes(&corrupt).unwrap_err().to_string();
        assert!(!err.contains('\n'), "multi-line header error: {err}");
    }
    // And a handful of tiny garbage inputs through the sniffing loader.
    for garbage in [&b""[..], b"B", b"BLM2", b"<not xml", &[0xFFu8; 64][..]] {
        assert!(load::loaded_from_bytes(garbage, "garbage").is_err());
    }
}

/// Widened, generator-driven versions of the properties above. Gated:
/// requires the external `proptest` crate — restore the dev-dependency
/// and build with `--features proptest`.
#[cfg(feature = "proptest")]
mod widened {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary documents, arbitrary truncation points.
        #[test]
        fn any_truncation_errors((nodes, seed, frac) in (200usize..3_000, any::<u64>(), 0.0f64..1.0)) {
            let doc = generate(Dataset::D4Treebank, nodes, seed);
            let index = TagIndex::build(&doc);
            let bytes = snapshot::encode(&doc, &index, &doc.stats(),
                EncodeOptions { succinct: seed % 2 == 0 }).unwrap();
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(cut == bytes.len() || snapshot::open_bytes(&bytes[..cut]).is_err());
        }

        /// Arbitrary multi-byte corruption: detected, or document intact.
        #[test]
        fn any_corruption_is_detected_or_harmless(
            (nodes, seed, flips) in (200usize..2_000, any::<u64>(), prop::collection::vec((any::<usize>(), any::<u8>()), 1..8)),
        ) {
            let doc = generate(Dataset::D1Recursive, nodes, seed);
            let index = TagIndex::build(&doc);
            let bytes = snapshot::encode(&doc, &index, &doc.stats(),
                EncodeOptions { succinct: true }).unwrap();
            let canonical = writer::to_string(&doc);
            let mut corrupt = bytes.clone();
            for (pos, mask) in flips {
                let at = pos % corrupt.len();
                corrupt[at] ^= mask | 1;
            }
            if let Ok(snap) = snapshot::open_bytes(&corrupt) {
                prop_assert_eq!(writer::to_string(&snap.doc), canonical);
            }
        }
    }
}

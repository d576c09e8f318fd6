//! Corpus fuzz tests for the durable-cache segment format
//! (`SegmentStore::parse` / `CacheCodec::parse` / `SegmentStore::render`), in the same
//! idiom as `corpus_profiles.rs`.
//!
//! The segment parser's contract is stricter than "total": besides
//! never panicking on any byte soup, it must *classify* damage. A
//! prefix of a valid file (a crash mid-append) is **torn** — the intact
//! prefix loads and the tail is reported, because throwing away good
//! simulations over a torn tail would defeat the cache. Anything else —
//! a flipped bit under the CRC, garbled framing mid-file, a wrong
//! header — is **bit rot** and fails the whole file with a diagnostic,
//! because a file that lies once cannot be trusted twice.
//!
//! The committed seeds are real artifacts: `segment_warm.seg` was
//! written by an actual daemon run, and the torn/bit-rot variants are
//! byte-surgery on it (a truncated tail; one flipped payload bit).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use hi_core::{parse_fault_suite, ExploreCheckpoint};
use hi_serve::{
    frame_entry, parse_profiles, CacheCodec, CachedOutcome, Codec, FramedLoad, JobRecord,
    SegmentStore,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("corpus file {} unreadable: {e}", path.display()))
}

/// `SegmentStore::parse` must return — Ok or Err — on `bytes`, never panic.
fn parse_survives(context: &str, bytes: &[u8]) -> Result<FramedLoad<CachedOutcome>, String> {
    catch_unwind(AssertUnwindSafe(|| SegmentStore::parse(bytes)))
        .unwrap_or_else(|_| panic!("segment parser panicked on {context}"))
}

#[test]
fn the_wellformed_seed_parses_and_roundtrips() {
    let bytes = corpus_bytes("segment_warm.seg");
    let load = SegmentStore::parse(&bytes).expect("the committed warm segment is valid");
    assert!(load.torn.is_none(), "{:?}", load.torn);
    assert!(load.items.len() >= 8, "suspiciously small seed");
    // Render-parse roundtrip is byte-identical: the seed really is in
    // canonical form, so compaction rewrites are stable.
    let rendered = SegmentStore::render(load.key, &load.items);
    assert_eq!(rendered, bytes);
}

#[test]
fn the_torn_seed_keeps_its_intact_prefix() {
    let warm = SegmentStore::parse(&corpus_bytes("segment_warm.seg")).unwrap();
    let torn = SegmentStore::parse(&corpus_bytes("segment_torn.seg"))
        .expect("a torn tail is recoverable, not fatal");
    let note = torn.torn.expect("the tear must be reported");
    assert!(note.contains("torn"), "{note}");
    assert_eq!(torn.key, warm.key);
    assert_eq!(
        torn.items.len(),
        warm.items.len() - 1,
        "exactly the final, half-written entry is lost"
    );
    assert_eq!(torn.items, warm.items[..warm.items.len() - 1]);
}

#[test]
fn the_bit_rot_seed_is_rejected_whole() {
    let err = SegmentStore::parse(&corpus_bytes("segment_bit_rot.seg"))
        .expect_err("a CRC mismatch mid-file is bit rot, not a tear");
    assert!(err.contains("crc"), "diagnostic must name the check: {err}");
}

#[test]
fn truncation_at_every_byte_never_panics_and_never_misloads() {
    let bytes = corpus_bytes("segment_warm.seg");
    let full = SegmentStore::parse(&bytes).unwrap();
    // Clean cut points: after the key line and after each framed entry.
    // A cut exactly there is indistinguishable from a complete shorter
    // file — the append-only format's one honest blind spot. Everywhere
    // else, a cut MUST be flagged torn.
    let mut boundaries = vec![];
    let mut edge = bytes
        .windows(1)
        .enumerate()
        .filter(|(_, w)| w == b"\n")
        .map(|(i, _)| i + 1)
        .nth(1)
        .expect("header and key lines exist");
    boundaries.push(edge);
    for entry in &full.items {
        edge += frame_entry(&CacheCodec::render(entry)).len();
        boundaries.push(edge);
    }
    for cut in 0..bytes.len() {
        let load = parse_survives(&format!("truncation at byte {cut}"), &bytes[..cut]);
        if let Ok(load) = load {
            // Whatever survives a cut must be a *prefix* of the truth —
            // never a reordering, never an invented entry — and a cut
            // off a frame boundary must be flagged torn.
            assert!(load.items.len() <= full.items.len());
            assert_eq!(load.items, full.items[..load.items.len()], "cut {cut}");
            assert!(
                load.torn.is_some() || boundaries.contains(&cut),
                "silent data loss at cut {cut}"
            );
        }
    }
    // And the empty file is a torn (empty) segment, not an error: a
    // crash can land exactly between create and first write.
    let load = SegmentStore::parse(b"").unwrap();
    assert!(load.items.is_empty());
}

#[test]
fn every_single_bit_flip_under_the_crc_is_caught() {
    let bytes = corpus_bytes("segment_warm.seg");
    let full = SegmentStore::parse(&bytes).unwrap();
    // CRC-32 detects every single-bit error, so flipping any one bit of
    // any payload byte must fail the file — exhaustively, not sampled.
    // Payload bytes are exactly the rendered entry lines.
    let mut covered = 0usize;
    let mut cursor = 0usize;
    for entry in &full.items {
        let payload = CacheCodec::render(entry);
        let start = bytes[cursor..]
            .windows(payload.len())
            .position(|w| w == payload.as_bytes())
            .map(|p| p + cursor)
            .expect("payload bytes present verbatim in the file");
        for offset in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[start + offset] ^= 1 << bit;
                let context = format!("bit {bit} of payload byte {offset}");
                assert!(
                    parse_survives(&context, &mutated).is_err(),
                    "undetected corruption: {context}"
                );
                covered += 1;
            }
        }
        cursor = start + payload.len();
    }
    assert!(covered >= 8 * 8 * 69, "flip sweep lost its coverage");
}

#[test]
fn megabyte_entries_error_without_panicking_or_preallocating() {
    let key = 0x42u64;
    let header = format!("hi-serve cache segment v1\nkey {key:016x}\n");

    // A megabyte of garbage with a *correct* CRC: framing passes, the
    // payload parser must still produce a typed error.
    let garbage = "z".repeat(1 << 20);
    let mut bytes = header.clone().into_bytes();
    bytes.extend_from_slice(&frame_entry(&garbage));
    let err = parse_survives("a megabyte garbage entry", &bytes).unwrap_err();
    assert!(err.contains("entry 0"), "diagnostic names the entry: {err}");

    // A robust entry declaring a billion scenarios but carrying none:
    // must fail on the missing fields, not allocate first.
    let mut bytes = header.clone().into_bytes();
    bytes.extend_from_slice(&frame_entry("r 00000000000002b0 1000000000 0 0 0"));
    let err = parse_survives("a scenario-count bomb", &bytes).unwrap_err();
    assert!(err.contains("missing field"), "{err}");

    // A declared entry length in the megabytes with only a few bytes
    // behind it is a torn tail (EOF inside the entry), kept recoverable.
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(b"entry 1048576 00000000\nshort");
    let load = parse_survives("a declared-length bomb", &bytes).unwrap();
    assert!(load.torn.is_some());
    assert!(load.items.is_empty());
}

#[test]
fn crlf_segments_are_rejected_not_misread() {
    // The segment format is byte-framed LF; a CRLF transcription shifts
    // every offset, so it must be refused outright rather than partially
    // loaded (unlike the *line*-oriented profile format, which accepts
    // CRLF). A tool that "helpfully" converts line endings corrupts the
    // cache, and the parser must say so.
    let bytes = corpus_bytes("segment_warm.seg");
    let crlf: Vec<u8> = bytes
        .iter()
        .flat_map(|&b| {
            if b == b'\n' {
                vec![b'\r', b'\n']
            } else {
                vec![b]
            }
        })
        .collect();
    let verdict = parse_survives("a CRLF-converted segment", &crlf);
    match verdict {
        Err(_) => {}
        Ok(load) => assert!(
            load.items.is_empty() && load.torn.is_some(),
            "a CRLF segment must not half-load: {load:?}"
        ),
    }
}

#[test]
fn segments_cross_feed_into_every_other_parser_as_typed_errors() {
    let segment = corpus_bytes("segment_warm.seg");
    let text = String::from_utf8(segment.clone()).expect("the seed is ASCII");

    // A segment fed to the text parsers: typed errors, no panics.
    let profile = catch_unwind(AssertUnwindSafe(|| parse_profiles(&text)))
        .expect("profile parser panicked on a segment");
    assert!(profile.is_err());
    let record = catch_unwind(AssertUnwindSafe(|| JobRecord::from_text(&text)))
        .expect("record parser panicked on a segment");
    assert!(record.is_err());
    let ck = catch_unwind(AssertUnwindSafe(|| ExploreCheckpoint::from_text(&text)))
        .expect("checkpoint parser panicked on a segment");
    assert!(ck.is_err());
    let suite = catch_unwind(AssertUnwindSafe(|| parse_fault_suite(&text)))
        .expect("suite parser panicked on a segment");
    assert!(suite.is_err());

    // And every *other* corpus format fed to the segment parser: a
    // checkpoint, a record, a profile and a fault suite all miss the
    // header and fail with the expected-header diagnostic.
    for name in [
        "profile_demo.profile",
        "record_done.rec",
        "record_torn.rec",
        "record_bit_rot.rec",
        "xfeed_checkpoint_v2.ck",
        "xfeed_suite_demo.suite",
    ] {
        let err = parse_survives(name, &corpus_bytes(name)).unwrap_err();
        assert!(err.contains("not a cache segment"), "{name}: {err}");
    }
}

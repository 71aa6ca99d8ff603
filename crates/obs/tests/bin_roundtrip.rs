//! Adversarial decoder tests for the binary trace format: [`decode_trace`]
//! must return a *scoped* error — frame index plus byte offset — and never
//! panic, whatever bytes it is handed. Corruption is generated
//! deterministically (a hand-rolled LCG, no third-party fuzzer) so
//! failures replay exactly.

use cmvrp_obs::bin::BIN_VERSION;
use cmvrp_obs::{decode_trace, is_binary_trace, BinSink, DropReason, Event, MsgKind};
use cmvrp_obs::{jsonl_events, load_trace_bytes, Sink, StaticSink};

/// One event of every variant, with annotated and unannotated message
/// forms, negative coordinates, and span names that need escaping in
/// JSON: quotes, backslashes, and control characters.
fn samples() -> Vec<Event> {
    vec![
        Event::FleetProvisioned {
            t: 0,
            vehicles: 144,
            capacity: 40,
        },
        Event::MsgSent {
            t: 3,
            from: 1,
            to: 2,
            kind: None,
        },
        Event::MsgSent {
            t: 3,
            from: 1,
            to: 2,
            kind: Some(MsgKind::Query),
        },
        Event::MsgDelivered {
            t: 5,
            from: 1,
            to: 2,
            delay: 2,
            kind: Some(MsgKind::Reply),
        },
        Event::MsgDropped {
            t: 5,
            from: 0,
            to: 9,
            reason: DropReason::Lost,
            kind: Some(MsgKind::Heartbeat),
        },
        Event::MsgDropped {
            t: 6,
            from: 0,
            to: 9,
            reason: DropReason::RecipientCrashed,
            kind: None,
        },
        Event::JobArrived {
            t: 9,
            seq: 0,
            pos: vec![5, -5],
        },
        Event::JobServed {
            t: 9,
            seq: 0,
            vehicle: 60,
            cost: 1,
        },
        Event::DiffusionStarted {
            t: 10,
            initiator: 60,
            generation: 0,
        },
        Event::DiffusionCompleted {
            t: 14,
            initiator: 60,
            generation: 0,
            found: true,
        },
        Event::ReplacementCycle {
            t: 15,
            vehicle: 61,
            dest: vec![5, 5],
            dist: 3,
        },
        Event::HeartbeatMissed {
            t: 20,
            watcher: 3,
            peer: 4,
        },
        Event::ProcessCrashed { t: 7, proc: 11 },
        Event::PhaseSpan {
            name: "we\"ird\\name".into(),
            start_ns: 12,
            end_ns: 456,
        },
        Event::PhaseSpan {
            name: "two\nlines\tand\u{1}".into(),
            start_ns: 12,
            end_ns: 456,
        },
        Event::RoundProfile {
            round: 42,
            worker: 1,
            workers: 2,
            busy_ns: 120_000,
            barrier_wait_ns: -1,
            merge_ns: 900,
            sink_ns: 450,
            events: 17,
            steals: 2,
        },
    ]
}

fn encode(events: &[Event]) -> Vec<u8> {
    let mut sink = BinSink::new(Vec::new());
    for ev in events {
        sink.record(ev);
    }
    sink.flush_events();
    assert!(sink.is_enabled());
    const { assert!(<BinSink<Vec<u8>> as StaticSink>::ENABLED) };
    sink.into_writer().unwrap()
}

#[test]
fn every_variant_roundtrips() {
    let events = samples();
    let bytes = encode(&events);
    assert!(is_binary_trace(&bytes));
    assert_eq!(decode_trace(&bytes).unwrap(), events);
}

#[test]
fn jsonl_and_binary_encodings_agree() {
    // The convert path: JSONL line → Event → binary → Event → JSONL line
    // must reproduce the original line byte for byte.
    let lines: Vec<String> = samples().iter().map(Event::to_json).collect();
    let parsed: Vec<Event> = lines.iter().map(|l| Event::from_json(l).unwrap()).collect();
    let back = decode_trace(&encode(&parsed)).unwrap();
    let relines: Vec<String> = back.iter().map(Event::to_json).collect();
    assert_eq!(relines, lines);
}

#[test]
fn binary_to_jsonl_to_binary_is_byte_identical() {
    // The `trace convert` path in the other direction: the loader's JSONL
    // holds one line per event, and re-encoding it reproduces the bytes.
    let bytes = encode(&samples());
    let loaded = load_trace_bytes(&bytes).unwrap();
    assert_eq!(loaded.events, samples().len());
    assert_eq!(loaded.text.lines().count(), samples().len());
    let events: Vec<Event> = jsonl_events(loaded.text.lines())
        .map(|item| item.unwrap().2)
        .collect();
    assert_eq!(encode(&events), bytes);
}

#[test]
fn empty_trace_is_just_the_header() {
    let bytes = encode(&[]);
    assert_eq!(bytes.len(), 5);
    assert_eq!(decode_trace(&bytes).unwrap(), Vec::new());
}

#[test]
fn bad_magic_is_a_header_error() {
    let err = decode_trace(b"NOPE\x01rest").unwrap_err();
    assert_eq!(err.frame, 0);
    assert_eq!(err.offset, 0);
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn truncated_header_is_a_header_error() {
    for n in 0..5 {
        let err = decode_trace(&b"CMVB\x01"[..n]).unwrap_err();
        assert_eq!(err.frame, 0, "prefix of {n} bytes");
        assert!(err.to_string().contains("header"), "{err}");
    }
}

#[test]
fn future_version_is_refused_by_name() {
    let err = decode_trace(b"CMVB\x63").unwrap_err();
    assert_eq!(err.frame, 0);
    assert_eq!(err.offset, 4);
    assert!(err.to_string().contains("version 99"), "{err}");
}

#[test]
fn every_truncation_errors_with_scope_and_never_panics() {
    let events = samples();
    let bytes = encode(&events);
    for n in 5..bytes.len() {
        // A cut can only land cleanly between frames (fewer events) or
        // inside one (scoped error); it can never invent events.
        match decode_trace(&bytes[..n]) {
            Ok(decoded) => assert!(decoded.len() < events.len(), "prefix of {n} bytes"),
            Err(e) => {
                assert!(e.frame >= 1, "prefix of {n}: {e}");
                assert!(e.offset <= n, "prefix of {n}: {e}");
            }
        }
    }
}

#[test]
fn corrupt_length_prefix_is_scoped_to_its_frame() {
    let events = samples();
    let bytes = encode(&events);
    // The first frame starts right after the 5-byte header; replace its
    // one-byte length prefix with a varint claiming ~2^62 bytes.
    let mut corrupt = bytes[..5].to_vec();
    corrupt.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f]);
    corrupt.extend_from_slice(&bytes[6..]);
    let err = decode_trace(&corrupt).unwrap_err();
    assert_eq!(err.frame, 1);
    assert_eq!(err.offset, 5);
    assert!(err.to_string().contains("exceeds remaining"), "{err}");

    // A zero-length frame is equally corrupt (every payload has a tag).
    let mut zero = bytes[..5].to_vec();
    zero.push(0);
    let err = decode_trace(&zero).unwrap_err();
    assert_eq!(err.frame, 1);
    assert!(err.to_string().contains("empty frame"), "{err}");
}

#[test]
fn unknown_tag_is_scoped_to_its_frame() {
    let bytes = encode(&samples()[..2]);
    let mut corrupt = bytes.clone();
    // Frame 1: [len][tag ...]; the tag is the byte after the 1-byte length.
    corrupt[6] = 0xEE;
    let err = decode_trace(&corrupt).unwrap_err();
    assert_eq!(err.frame, 1);
    assert!(err.to_string().contains("unknown event tag"), "{err}");
}

/// Deterministic byte-flip fuzzing: whatever we do to the stream, the
/// decoder must hand back events or a scoped error, never panic: a header
/// error names frame 0, a frame error a real frame, and every reported
/// offset lies inside the input.
#[test]
fn random_byte_flips_never_panic() {
    let events = samples();
    let clean = encode(&events);
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..2000 {
        let mut bytes = clean.clone();
        for _ in 0..=(rng() % 3) {
            let i = (rng() % bytes.len() as u64) as usize;
            bytes[i] ^= (rng() % 255 + 1) as u8;
        }
        if let Err(e) = decode_trace(&bytes) {
            let header_ok = is_binary_trace(&bytes) && bytes[4] <= BIN_VERSION;
            assert_eq!(e.frame == 0, !header_ok, "{e}");
            assert!(e.offset <= bytes.len(), "{e}");
        }
    }
}

/// Same discipline against truly arbitrary garbage, not flips of a valid
/// trace.
#[test]
fn random_garbage_never_panics() {
    let mut state: u64 = 42;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..2000 {
        let len = (rng() % 64) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| (rng() & 0xff) as u8).collect();
        // Half the time, give it a valid header so the frame scanner runs.
        if rng() % 2 == 0 && bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"CMVB");
            bytes[4] = 1;
        }
        if let Err(e) = decode_trace(&bytes) {
            assert!(e.offset <= bytes.len(), "{e}");
        }
    }
}

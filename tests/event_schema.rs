//! The trace event schema pinned byte for byte: for one sample of every
//! case, the exact JSONL line and the exact CMVB frame each encoder
//! writes, that both decode back to the sample, and the exact error text
//! each decoder returns for the inputs it must refuse. Round-trip tests
//! alone would pass a change that moved a field in an encoder and its
//! decoder alike; these do not. The last test checks the crate docs'
//! schema table against the pinned lines, so a field added to the schema
//! and left out of the docs (or the other way round) fails here.

use cmvrp::obs::bin::BIN_MAGIC;
use cmvrp::obs::{
    diff_traces, load_trace_bytes, BinReader, BinSink, DropReason, Event, FrameError, LoadedTrace,
    MsgKind, Sink,
};

/// A whole CMVB trace, decoded frame by frame.
fn decode(bytes: &[u8]) -> Result<Vec<Event>, FrameError> {
    BinReader::open(bytes)?.collect()
}

/// One JSONL line, loaded as a trace.
fn jsonl(line: &str) -> LoadedTrace {
    load_trace_bytes(format!("{line}\n").as_bytes()).unwrap()
}

/// The samples of `crates/obs/tests/bin_roundtrip.rs`: every variant, the
/// message `kind` absent and present, both drop reasons, negative
/// coordinates and durations, and span names that JSON must escape. Each
/// comes with its JSONL line and its CMVB frame (length prefix, tag,
/// fields).
fn pinned() -> Vec<(Event, &'static str, &'static [u8])> {
    vec![
        (
            Event::FleetProvisioned {
                t: 0,
                vehicles: 144,
                capacity: 40,
            },
            r#"{"ev":"fleet_provisioned","t":0,"vehicles":144,"capacity":40}"#,
            &[5, 10, 0, 144, 1, 40],
        ),
        (
            Event::MsgSent {
                t: 3,
                from: 1,
                to: 2,
                kind: None,
            },
            r#"{"ev":"msg_sent","t":3,"from":1,"to":2}"#,
            &[5, 1, 3, 1, 2, 0],
        ),
        (
            Event::MsgSent {
                t: 3,
                from: 1,
                to: 2,
                kind: Some(MsgKind::Query),
            },
            r#"{"ev":"msg_sent","t":3,"from":1,"to":2,"kind":"query"}"#,
            &[5, 1, 3, 1, 2, 1],
        ),
        (
            Event::MsgDelivered {
                t: 5,
                from: 1,
                to: 2,
                delay: 2,
                kind: Some(MsgKind::Reply),
            },
            r#"{"ev":"msg_delivered","t":5,"from":1,"to":2,"delay":2,"kind":"reply"}"#,
            &[6, 2, 5, 1, 2, 2, 2],
        ),
        (
            Event::MsgDropped {
                t: 5,
                from: 0,
                to: 9,
                reason: DropReason::Lost,
                kind: Some(MsgKind::Heartbeat),
            },
            r#"{"ev":"msg_dropped","t":5,"from":0,"to":9,"reason":"lost","kind":"heartbeat"}"#,
            &[6, 3, 5, 0, 9, 0, 4],
        ),
        (
            Event::MsgDropped {
                t: 6,
                from: 0,
                to: 9,
                reason: DropReason::RecipientCrashed,
                kind: None,
            },
            r#"{"ev":"msg_dropped","t":6,"from":0,"to":9,"reason":"crashed"}"#,
            &[6, 3, 6, 0, 9, 1, 0],
        ),
        (
            Event::JobArrived {
                t: 9,
                seq: 0,
                pos: vec![5, -5],
            },
            r#"{"ev":"job_arrived","t":9,"seq":0,"pos":[5,-5]}"#,
            &[6, 4, 9, 0, 2, 10, 9],
        ),
        (
            Event::JobServed {
                t: 9,
                seq: 0,
                vehicle: 60,
                cost: 1,
            },
            r#"{"ev":"job_served","t":9,"seq":0,"vehicle":60,"cost":1}"#,
            &[5, 5, 9, 0, 60, 1],
        ),
        (
            Event::DiffusionStarted {
                t: 10,
                initiator: 60,
                generation: 0,
            },
            r#"{"ev":"diffusion_started","t":10,"initiator":60,"generation":0}"#,
            &[4, 6, 10, 60, 0],
        ),
        (
            Event::DiffusionCompleted {
                t: 14,
                initiator: 60,
                generation: 0,
                found: true,
            },
            r#"{"ev":"diffusion_completed","t":14,"initiator":60,"generation":0,"found":true}"#,
            &[5, 7, 14, 60, 0, 1],
        ),
        (
            Event::ReplacementCycle {
                t: 15,
                vehicle: 61,
                dest: vec![5, 5],
                dist: 3,
            },
            r#"{"ev":"replacement_cycle","t":15,"vehicle":61,"dest":[5,5],"dist":3}"#,
            &[7, 8, 15, 61, 2, 10, 10, 3],
        ),
        (
            Event::HeartbeatMissed {
                t: 20,
                watcher: 3,
                peer: 4,
            },
            r#"{"ev":"heartbeat_missed","t":20,"watcher":3,"peer":4}"#,
            &[4, 9, 20, 3, 4],
        ),
        (
            Event::ProcessCrashed { t: 7, proc: 11 },
            r#"{"ev":"process_crashed","t":7,"proc":11}"#,
            &[3, 11, 7, 11],
        ),
        (
            Event::PhaseSpan {
                name: "we\"ird\\name".into(),
                start_ns: 12,
                end_ns: 456,
            },
            r#"{"ev":"phase_span","name":"we\"ird\\name","start_ns":12,"end_ns":456}"#,
            &[
                16, 12, 11, b'w', b'e', b'"', b'i', b'r', b'd', b'\\', b'n', b'a', b'm', b'e', 12,
                200, 3,
            ],
        ),
        (
            Event::PhaseSpan {
                name: "two\nlines\tand\u{1}".into(),
                start_ns: 12,
                end_ns: 456,
            },
            r#"{"ev":"phase_span","name":"two\nlines\tand\u0001","start_ns":12,"end_ns":456}"#,
            &[
                19, 12, 14, b't', b'w', b'o', b'\n', b'l', b'i', b'n', b'e', b's', b'\t', b'a',
                b'n', b'd', 1, 12, 200, 3,
            ],
        ),
        (
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
            concat!(
                r#"{"ev":"round_profile","round":42,"worker":1,"workers":2,"busy_ns":120000,"#,
                r#""barrier_wait_ns":-1,"merge_ns":900,"sink_ns":450,"events":17,"steals":2}"#
            ),
            &[14, 13, 42, 1, 2, 128, 211, 14, 1, 136, 14, 132, 7, 17, 2],
        ),
    ]
}

/// A CMVB trace: the 5-byte header, then `frames` as given.
fn cmvb(frames: &[&[u8]]) -> Vec<u8> {
    let mut bytes = BIN_MAGIC.to_vec();
    bytes.push(1);
    for frame in frames {
        bytes.extend_from_slice(frame);
    }
    bytes
}

#[test]
fn every_sample_writes_its_pinned_line_and_frame() {
    for (ev, line, frame) in pinned() {
        assert_eq!(ev.to_json(), line);
        let mut sink = BinSink::new(Vec::new());
        sink.record(&ev);
        assert_eq!(sink.into_writer().unwrap(), cmvb(&[frame]), "{line}");
    }
}

#[test]
fn every_pinned_line_and_frame_decodes_to_its_sample() {
    for (ev, line, frame) in pinned() {
        assert_eq!(Event::from_json(line).as_ref(), Ok(&ev), "{line}");
        assert_eq!(decode(&cmvb(&[frame])), Ok(vec![ev]), "{line}");
    }
    // All frames in one trace, read by the trace reader as the samples,
    // numbered by frame, and printed as the JSONL lines.
    let (events, lines): (Vec<Event>, Vec<&str>) =
        pinned().into_iter().map(|(ev, line, _)| (ev, line)).unzip();
    let frames: Vec<&[u8]> = pinned().into_iter().map(|(_, _, frame)| frame).collect();
    let bytes = cmvb(&frames);
    assert_eq!(decode(&bytes), Ok(events.clone()));
    let loaded = load_trace_bytes(&bytes).unwrap();
    let read: Result<Vec<(usize, Event)>, _> = loaded.events().collect();
    assert_eq!(
        read,
        Ok(events.into_iter().zip(1..).map(|(e, n)| (n, e)).collect())
    );
    let printed = loaded.render(1..=lines.len()).unwrap();
    assert_eq!(printed.into_values().collect::<Vec<_>>(), lines);
}

#[test]
fn jsonl_decoders_name_what_they_refuse() {
    let cases = [
        (r#"{"ev":"wat","t":1}"#, r#"unknown event kind "wat""#),
        (
            r#"{"ev":"msg_dropped","t":6,"from":0,"to":9,"reason":"melted"}"#,
            r#"unknown drop reason "melted""#,
        ),
        (
            r#"{"ev":"msg_sent","t":3,"from":1,"to":2,"kind":"telegram"}"#,
            r#"unknown msg kind "telegram""#,
        ),
        (
            r#"{"ev":"job_served","t":9,"seq":0,"cost":1}"#,
            r#"missing field "vehicle""#,
        ),
        (r#"{"t":9}"#, r#"missing field "ev""#),
    ];
    for (line, msg) in cases {
        assert_eq!(Event::from_json(line), Err(msg.to_string()), "{line}");
        let first = jsonl(line).events().next().unwrap();
        assert_eq!(first, Err((1, msg.to_string())), "{line}");
        // `trace diff` reads a line only where the two traces differ.
        let other = r#"{"ev":"process_crashed","t":7,"proc":11}"#;
        let err = diff_traces(&jsonl(line), &jsonl(other), 0).unwrap_err();
        assert_eq!(err.to_string(), format!("trace A, line 1: {msg}"));
    }
}

#[test]
fn cmvb_decoders_name_frame_offset_and_byte() {
    // A good 6-byte frame first, so the bad one is frame 2 and its tag
    // byte sits at offset 12; each error is reported just past the byte.
    let good: &[u8] = &[5, 1, 3, 1, 2, 0];
    let cases: [(&[u8], usize, &str); 3] = [
        (&[2, 99, 0], 13, "unknown event tag 99"),
        (&[5, 1, 3, 1, 2, 9], 17, "unknown msg-kind byte 9"),
        (&[6, 3, 6, 0, 9, 7, 0], 17, "unknown drop-reason byte 7"),
    ];
    for (bad, offset, msg) in cases {
        let bytes = cmvb(&[good, bad]);
        let want = FrameError {
            frame: 2,
            offset,
            msg: msg.to_string(),
        };
        assert_eq!(decode(&bytes), Err(want));
        assert_eq!(
            load_trace_bytes(&bytes),
            Err(format!("frame 2 at byte {offset}: {msg}"))
        );
    }
}

/// The keys of one flat JSON line, in order.
fn keys(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut chars = line.chars().peekable();
    let mut current: Option<String> = None;
    while let Some(c) = chars.next() {
        match (&mut current, c) {
            (None, '"') => current = Some(String::new()),
            (Some(s), '\\') => {
                s.push(c);
                s.extend(chars.next());
            }
            (Some(_), '"') => {
                let s = current.take().unwrap();
                if chars.peek() == Some(&':') {
                    keys.push(s);
                }
            }
            (Some(s), _) => s.push(c),
            (None, _) => {}
        }
    }
    keys
}

#[test]
fn crate_docs_list_every_kind_with_its_pinned_keys() {
    let docs = include_str!("../crates/obs/src/lib.rs");
    let rows: Vec<(&str, &str)> = docs
        .lines()
        .filter_map(|l| l.strip_prefix("//! | `"))
        .filter_map(|l| {
            let (kind, rest) = l.split_once("` | `")?;
            let (fields, _) = rest.split_once("` |")?;
            Some((kind, fields))
        })
        .collect();
    // The message kinds whose pinned lines carry the optional `kind`.
    let annotated: Vec<&str> = pinned()
        .iter()
        .filter(|(_, line, _)| keys(line).iter().any(|k| k == "kind"))
        .map(|(ev, _, _)| ev.kind())
        .collect();
    let mut kinds: Vec<&str> = Vec::new();
    for (ev, line, _) in pinned() {
        let keys = keys(line);
        assert_eq!(keys[0], "ev", "{line}");
        let kind = ev.kind();
        let listed = rows
            .iter()
            .find(|(k, _)| *k == kind)
            .unwrap_or_else(|| panic!("the schema table has no row for {kind}"))
            .1;
        let required: Vec<&str> = keys[1..]
            .iter()
            .map(String::as_str)
            .filter(|k| *k != "kind")
            .collect();
        let mut want = required.join(", ");
        if annotated.contains(&kind) {
            want.push_str("[, kind]");
        }
        assert_eq!(listed, want, "schema table row for {kind} vs {line}");
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    let mut documented: Vec<&str> = rows.iter().map(|(k, _)| *k).collect();
    documented.sort_unstable();
    kinds.sort_unstable();
    assert_eq!(documented, kinds, "the schema table lists other kinds");
    assert_eq!(kinds.len(), 13);
}

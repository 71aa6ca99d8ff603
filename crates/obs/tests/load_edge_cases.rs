//! Edge cases for the encoding-sniffing trace loader: every truncation
//! and corruption shape must come back as a scoped error message, never a
//! panic, both from bytes and through the filesystem path.

use cmvrp_obs::{load_trace, load_trace_bytes, TraceEncoding};

fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cmvrp_obs_load_{name}"));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn zero_byte_file_is_a_scoped_error() {
    let err = load_trace_bytes(b"").unwrap_err();
    assert!(err.contains("empty file"), "{err}");
    let path = tmp("empty.jsonl", b"");
    let err = load_trace(path.to_str().unwrap()).unwrap_err();
    // Through the path API the error is prefixed with the file name.
    assert!(err.contains("empty.jsonl"), "{err}");
    assert!(err.contains("empty file"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_shorter_than_the_magic_is_a_scoped_error() {
    // Every strict prefix of the CMVB magic: too short to classify as
    // binary, not valid JSONL either.
    for len in 1..4 {
        let err = load_trace_bytes(&b"CMVB"[..len]).unwrap_err();
        assert!(
            err.contains("truncated binary trace"),
            "prefix len {len}: {err}"
        );
    }
    let path = tmp("short.bin", b"CM");
    let err = load_trace(path.to_str().unwrap()).unwrap_err();
    assert!(err.contains("truncated binary trace"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trailing_partial_line_is_a_scoped_error() {
    // A crash mid-write leaves an unterminated, unparseable last line.
    let bytes = b"{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n{\"ev\":\"job_ser";
    let err = load_trace_bytes(bytes).unwrap_err();
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("trailing partial line"), "{err}");
    let path = tmp("partial.jsonl", bytes);
    let err = load_trace(path.to_str().unwrap()).unwrap_err();
    assert!(err.contains("partial.jsonl"), "{err}");
    assert!(err.contains("line 2"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unterminated_but_parseable_last_line_is_accepted() {
    // A writer that omits the final newline still produced a whole event.
    let bytes = b"{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}";
    let loaded = load_trace_bytes(bytes).unwrap();
    assert_eq!(loaded.events, 1);
    assert_eq!(loaded.encoding, TraceEncoding::Jsonl);
    assert_eq!(loaded.events().count(), 1, "the last line is read");
}

#[test]
fn missing_file_error_names_the_path() {
    let err = load_trace("/nonexistent/cmvrp_x.jsonl").unwrap_err();
    assert!(err.contains("cmvrp_x.jsonl"), "{err}");
}

#[test]
fn non_utf8_bytes_are_a_scoped_error_not_a_panic() {
    let err = load_trace_bytes(&[0xff, 0xfe, 0xfd]).unwrap_err();
    assert!(!err.is_empty());
}

#[test]
fn binary_trace_reads_as_its_events() {
    use cmvrp_obs::{BinSink, Event, Sink};
    let mut sink = BinSink::new(Vec::new());
    sink.record(&Event::JobArrived {
        t: 1,
        seq: 0,
        pos: vec![3, 4],
    });
    sink.record(&Event::JobServed {
        t: 1,
        seq: 0,
        vehicle: 9,
        cost: 1,
    });
    let bytes = sink.into_writer().unwrap();
    let loaded = load_trace_bytes(&bytes).unwrap();
    assert_eq!(loaded.encoding, TraceEncoding::Binary);
    assert_eq!(loaded.events, 2);
    assert!(
        loaded.header().contains("encoding CMVB"),
        "{}",
        loaded.header()
    );
    let first = loaded.events().next().unwrap().unwrap();
    assert_eq!(first.0, 1, "frames are numbered like lines");
    assert_eq!(first.1.kind(), "job_arrived");
}

#[test]
fn truncated_binary_body_is_a_scoped_error() {
    use cmvrp_obs::{BinSink, Event, Sink};
    let mut sink = BinSink::new(Vec::new());
    sink.record(&Event::JobArrived {
        t: 1,
        seq: 0,
        pos: vec![3, 4],
    });
    let bytes = sink.into_writer().unwrap();
    // Chop the last frame in half: decode must fail cleanly.
    let err = load_trace_bytes(&bytes[..bytes.len() - 2]).unwrap_err();
    assert!(!err.is_empty());
}

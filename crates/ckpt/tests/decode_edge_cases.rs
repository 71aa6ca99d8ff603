//! Edge cases for the `CMVC` checkpoint decoder: every truncation and
//! corruption shape must come back as a scoped `FrameError`, never a
//! panic, both from bytes and through the filesystem path.

use cmvrp_ckpt::{
    decode_checkpoint, encode_checkpoint, read_checkpoint, write_checkpoint, CKPT_MAGIC,
    CKPT_VERSION,
};
use cmvrp_engine::{CheckpointPolicy, EngineCheckpoint, ExecConfig, ShardCheckpoint};
use cmvrp_net::TransportSnapshot;
use cmvrp_obs::{Histogram, JsonlSink, DEFAULT_BUCKETS};
use cmvrp_online::OnlineConfig;
use cmvrp_scenario::Scenario;

fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cmvrp_ckpt_{name}"));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// A minimal but real checkpoint (no shards) for corruption tests.
fn sample_bytes() -> Vec<u8> {
    encode_checkpoint(&EngineCheckpoint {
        fingerprint: 0x1234_5678_9abc_def0,
        rounds_completed: 3,
        next_epoch: 17,
        trace_events: 44,
        threads: 2,
        checked: false,
        shards: vec![],
    })
}

/// A checkpoint with `n` small shards (every frame length fits one byte).
fn sharded_bytes(n: u64) -> Vec<u8> {
    let mut delay_hist = Histogram::with_bounds(&DEFAULT_BUCKETS);
    let mut counts = vec![0; DEFAULT_BUCKETS.len() + 1];
    counts[..2].copy_from_slice(&[1, 2]);
    delay_hist.restore_state(&counts, 3, 4, 2).unwrap();
    let shard = |now| ShardCheckpoint {
        transport: TransportSnapshot {
            now,
            seq: 1,
            rng_state: 7,
            total_sent: 0,
            total_delivered: 0,
            total_lost: 0,
            total_to_crashed: 0,
            queue_depth_max: 0,
            delay_hist: delay_hist.clone(),
        },
        released: 5,
        served: 5,
        unserved: 0,
        replacements: 0,
        failed_replacements: 0,
        cubes: vec![vec![0, -3]],
        pair_active: vec![(vec![0, -3], 1, 2)],
        vehicles: vec![],
    };
    encode_checkpoint(&EngineCheckpoint {
        shards: (0..n).map(shard).collect(),
        ..decode_checkpoint(&sample_bytes()).unwrap()
    })
}

#[test]
fn zero_byte_file_is_a_scoped_error() {
    let err = decode_checkpoint(b"").unwrap_err();
    assert_eq!(err.frame, 0);
    assert_eq!(err.msg, "truncated header: 0 bytes, need 5");
    let path = tmp("empty.cmvc", b"");
    let err = read_checkpoint(&path).unwrap_err();
    // Through the path API the error is prefixed with the file name.
    assert!(err.contains("empty.cmvc"), "{err}");
    assert!(err.contains("truncated header"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_shorter_than_the_magic_is_a_scoped_error() {
    // Every strict prefix of the CMVC header is a header error, not a
    // panic — including prefixes of the magic itself.
    for len in 1..5 {
        let err = decode_checkpoint(&sample_bytes()[..len]).unwrap_err();
        assert_eq!(err.frame, 0, "prefix len {len}");
        assert_eq!(err.msg, format!("truncated header: {len} bytes, need 5"));
    }
}

#[test]
fn wrong_magic_is_a_scoped_error() {
    // A binary *trace* handed to the checkpoint reader must say so.
    let err = decode_checkpoint(b"CMVB\x01").unwrap_err();
    assert_eq!(err.frame, 0);
    assert!(err.msg.contains("bad magic"), "{}", err.msg);
    assert!(
        err.msg.contains("CMVC") || err.msg.contains("67"),
        "{}",
        err.msg
    );
}

#[test]
fn version_from_the_future_is_a_scoped_error() {
    let mut bytes = sample_bytes();
    bytes[4] = CKPT_VERSION + 1;
    let err = decode_checkpoint(&bytes).unwrap_err();
    assert_eq!(err.frame, 0);
    assert_eq!(err.offset, 4);
    assert_eq!(
        err.msg,
        format!(
            "format version {} is newer than supported version {CKPT_VERSION}",
            CKPT_VERSION + 1
        )
    );
}

#[test]
fn truncated_frame_mid_varint_is_a_scoped_error() {
    // A multi-byte length varint whose continuation bit promises more
    // bytes than the file has: a crash mid-write of the length itself.
    let mut bytes = CKPT_MAGIC.to_vec();
    bytes.push(CKPT_VERSION);
    bytes.push(0x80); // "length continues" … and then nothing
    let err = decode_checkpoint(&bytes).unwrap_err();
    assert_eq!(err.frame, 1);
    assert_eq!(err.msg, "truncated frame length");
}

#[test]
fn truncated_payload_is_a_scoped_error() {
    // Chop the run frame's payload mid-field.
    let bytes = sample_bytes();
    let err = decode_checkpoint(&bytes[..bytes.len() - 1]).unwrap_err();
    assert_eq!(err.frame, 1);
    assert!(
        err.msg.contains("exceeds remaining") || err.msg.contains("payload truncated"),
        "{}",
        err.msg
    );
}

#[test]
fn empty_frame_is_a_scoped_error() {
    let mut bytes = CKPT_MAGIC.to_vec();
    bytes.push(CKPT_VERSION);
    bytes.push(0); // zero-length frame
    let err = decode_checkpoint(&bytes).unwrap_err();
    assert_eq!(err.frame, 1);
    assert_eq!(err.msg, "empty frame");
}

#[test]
fn unknown_schedule_byte_is_a_scoped_error() {
    let mut bytes = sample_bytes();
    // The schedule byte sits right before the trailing checked byte and
    // shard count in the run frame; find it by decoding a mutant at every
    // position until the error names it (robust to varint widths).
    let mut seen = false;
    for i in 6..bytes.len() {
        let keep = bytes[i];
        bytes[i] = 9;
        if let Err(e) = decode_checkpoint(&bytes) {
            if e.msg.contains("unknown schedule byte 9") {
                assert_eq!(e.frame, 1);
                seen = true;
            }
        }
        bytes[i] = keep;
    }
    assert!(seen, "no mutation produced a schedule error");
}

/// Checkpoints on disk may hold 1 or 2 in the run frame's reserved byte
/// (the byte after `threads`): a checkpoint that reads back as 1 or 2
/// decodes to the same `EngineCheckpoint` as one holding 0, and its
/// resumed tail still stitches onto the head into the one-shot trace.
#[test]
fn reserved_byte_one_or_two_decodes_and_resumes() {
    let (bounds, _, jobs) = Scenario::from_spec("clusters:grid=12,k=3,jobs=180,seed=9")
        .unwrap()
        .generate(1)
        .unwrap();
    let online = OnlineConfig::default();
    let exec = ExecConfig::new().threads(2);
    let traced = |exec: ExecConfig, resume: Option<&EngineCheckpoint>| {
        let mut sink = JsonlSink::new(Vec::new());
        let mut saved = Vec::new();
        exec.execute_with_checkpoints(bounds, &jobs, online, &mut sink, resume, &mut |c| {
            saved.push(c)
        })
        .unwrap();
        (sink.into_writer().unwrap(), saved)
    };
    let (full, _) = traced(exec, None);
    let (head, mut saved) = traced(
        exec.checkpoint(CheckpointPolicy {
            every: None,
            stop_at: Some(4),
        }),
        None,
    );
    let ckpt = saved.pop().expect("stop round checkpoints");
    let bytes = encode_checkpoint(&ckpt);
    // The run frame ends with the reserved byte, the checked byte and the
    // shard count; its payload and the shard count each fit one varint
    // byte here.
    let run_frame_end = 6 + bytes[5] as usize;
    let reserved = run_frame_end - 3;
    assert_eq!(bytes[reserved], 0);
    assert_eq!(bytes[run_frame_end - 1] as usize, ckpt.shards.len());
    for byte in [1u8, 2] {
        let mut old = bytes.clone();
        old[reserved] = byte;
        let decoded = decode_checkpoint(&old).unwrap();
        assert_eq!(decoded, ckpt, "reserved byte {byte}");
        let (tail, _) = traced(exec, Some(&decoded));
        assert_eq!(
            [head.clone(), tail].concat(),
            full,
            "reserved byte {byte}: stitched trace diverges"
        );
    }
}

#[test]
fn write_then_read_roundtrips_through_the_path_api() {
    let dir = std::env::temp_dir().join(format!("cmvrp_ckpt_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.cmvc");
    let ckpt = decode_checkpoint(&sample_bytes()).unwrap();
    write_checkpoint(&path, &ckpt).unwrap();
    assert_eq!(read_checkpoint(&path).unwrap(), ckpt);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_shard_frames_name_the_frame_that_is_missing() {
    let bytes = sharded_bytes(3);
    assert_eq!(decode_checkpoint(&bytes).unwrap().shards.len(), 3);
    // Frame 1 is the run frame; shard i is frame i + 2.
    let run_end = 6 + usize::from(bytes[5]);
    let err = decode_checkpoint(&bytes[..run_end]).unwrap_err();
    assert_eq!((err.frame, err.offset), (2, run_end));
    assert_eq!(err.msg, "checkpoint ends after 0 of 3 shard frames");
    let shard_end = run_end + 1 + usize::from(bytes[run_end]);
    let err = decode_checkpoint(&bytes[..shard_end]).unwrap_err();
    assert_eq!((err.frame, err.offset), (3, shard_end));
    assert_eq!(err.msg, "checkpoint ends after 1 of 3 shard frames");
}

/// Deterministic byte flips of a real checkpoint, then plain garbage
/// (half of it behind a valid header): the decoder returns a checkpoint or
/// a scoped error whose offset lies inside the input, and never panics.
#[test]
fn random_corruption_is_a_scoped_error() {
    let clean = sharded_bytes(2);
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..4000 {
        let bytes: Vec<u8> = if round % 2 == 0 {
            let mut bytes = clean.clone();
            for _ in 0..=(rng() % 3) {
                let i = (rng() % bytes.len() as u64) as usize;
                bytes[i] ^= (rng() % 255 + 1) as u8;
            }
            bytes
        } else {
            let mut bytes: Vec<u8> = (0..rng() % 96).map(|_| (rng() & 0xff) as u8).collect();
            if rng() % 2 == 0 && bytes.len() >= 5 {
                bytes[..4].copy_from_slice(&CKPT_MAGIC);
                bytes[4] = CKPT_VERSION;
            }
            bytes
        };
        if let Err(e) = decode_checkpoint(&bytes) {
            assert!(e.offset <= bytes.len(), "{e}");
            assert!(!e.msg.is_empty());
        }
    }
}

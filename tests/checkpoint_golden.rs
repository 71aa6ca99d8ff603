//! The `CMVC` checkpoint bytes, pinned: `tests/data/golden_clusters_round4*.cmvc`
//! are the round-4 checkpoints of the resume oracle in `scripts/check.sh`
//! (`cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 --threads=3
//! --checkpoint=F --stop-at-round=4`, plain and `--monitored`). A fresh run
//! must encode to the same bytes, the decoder and encoder must be inverse
//! on them, and resuming from them must stream exactly the uninterrupted
//! run's trace after round 4 — so a checkpoint written by an older build
//! still resumes. A golden edited so that it still decodes but no longer
//! fits the run is refused with an error naming the shard and the record,
//! and one with a flipped byte resumes or is refused, never panics.

use cmvrp::ckpt::{decode_checkpoint, encode_checkpoint, inspect};
use cmvrp::grid::GridBounds;
use cmvrp::obs::{Histogram, JsonlSink, NullSink, VecSink, DEFAULT_BUCKETS};
use cmvrp::online::OnlineConfig;
use cmvrp::workloads::JobSequence;
use cmvrp::{
    CheckpointPolicy, EngineCheckpoint, EngineError, ExecConfig, Scenario, ShardedOnlineSim,
};

const SPEC: &str = "clusters:grid=12,k=3,jobs=180,seed=9";
const PLAIN: &[u8] = include_bytes!("data/golden_clusters_round4.cmvc");
const MONITORED: &[u8] = include_bytes!("data/golden_clusters_round4_monitored.cmvc");

/// The two goldens with the `--monitored` flag each was written under.
fn goldens() -> [(&'static str, bool, &'static [u8]); 2] {
    [("plain", false, PLAIN), ("monitored", true, MONITORED)]
}

/// The inputs `cmvrp simulate` derives from the spec at the default seed.
fn inputs(monitored: bool) -> (GridBounds<2>, JobSequence<2>, OnlineConfig) {
    let online = OnlineConfig {
        monitored,
        ..OnlineConfig::default()
    };
    let (bounds, _, jobs) = Scenario::from_spec(SPEC)
        .expect("spec parses")
        .generate(online.seed)
        .expect("workload fits grid");
    (bounds, jobs, online)
}

/// One run on three workers: its JSONL trace and every checkpoint the
/// policy asked for.
fn run(
    monitored: bool,
    policy: CheckpointPolicy,
    resume: Option<&EngineCheckpoint>,
) -> (Vec<u8>, Vec<EngineCheckpoint>) {
    let (bounds, jobs, online) = inputs(monitored);
    let mut sink = JsonlSink::new(Vec::new());
    let mut saved = Vec::new();
    ExecConfig::new()
        .threads(3)
        .checkpoint(policy)
        .execute_with_checkpoints(bounds, &jobs, online, &mut sink, resume, &mut |c| {
            saved.push(c)
        })
        .expect("run");
    (sink.into_writer().expect("flush"), saved)
}

fn stop_at_4() -> CheckpointPolicy {
    CheckpointPolicy {
        every: None,
        stop_at: Some(4),
    }
}

#[test]
fn round4_checkpoints_encode_to_the_goldens() {
    for (label, monitored, golden) in goldens() {
        let (_, saved) = run(monitored, stop_at_4(), None);
        assert_eq!(saved.len(), 1, "{label}: the stop round checkpoints once");
        let ckpt = &saved[0];
        assert_eq!(ckpt.rounds_completed, 4, "{label}");
        assert_eq!(ckpt.shards.len(), 4, "{label}");
        let text = inspect(ckpt);
        assert!(
            text.contains("fleet: 8 cubes, 72 vehicles"),
            "{label}: {text}"
        );
        let bytes = encode_checkpoint(ckpt);
        assert!(
            bytes == golden,
            "{label}: a fresh run encodes {} bytes that differ from the {}-byte golden",
            bytes.len(),
            golden.len()
        );
    }
    assert_eq!((PLAIN.len(), MONITORED.len()), (2_495, 3_130));
    // Only the monitored golden carries §3.2.5 ring sections.
    for (label, monitored, golden) in goldens() {
        let ckpt = decode_checkpoint(golden).expect("golden decodes");
        let ringed = ckpt
            .shards
            .iter()
            .flat_map(|s| &s.vehicles)
            .any(|v| v.watch.is_some());
        assert_eq!(ringed, monitored, "{label}");
    }
}

#[test]
fn goldens_decode_then_encode_to_themselves() {
    for (label, _, golden) in goldens() {
        let ckpt = decode_checkpoint(golden).expect("golden decodes");
        assert!(
            encode_checkpoint(&ckpt) == golden,
            "{label}: decode then encode changed the bytes"
        );
    }
}

#[test]
fn resuming_a_golden_streams_the_uninterrupted_tail() {
    for (label, monitored, golden) in goldens() {
        let ckpt = decode_checkpoint(golden).expect("golden decodes");
        let (full, _) = run(monitored, CheckpointPolicy::default(), None);
        let (head, _) = run(monitored, stop_at_4(), None);
        let (tail, _) = run(monitored, CheckpointPolicy::default(), Some(&ckpt));
        let lines = |b: &[u8]| b.iter().filter(|&&c| c == b'\n').count() as u64;
        assert_eq!(lines(&head), ckpt.trace_events, "{label}");
        assert!(
            [head, tail].concat() == full,
            "{label}: the resumed tail does not stitch onto the round-4 head"
        );
    }
}

/// Five edits of shard 1 of `ckpt` that decode cleanly but do not fit the
/// run, each with the record its refusal must name.
fn misfits(ckpt: &EngineCheckpoint) -> Vec<(EngineCheckpoint, String)> {
    let shard = &ckpt.shards[1];
    let (id, cube) = (shard.vehicles[0].id, &shard.cubes[0]);
    let (pair_cube, pair) = (&shard.pair_active[0].0, shard.pair_active[0].1);
    let edit = |f: &dyn Fn(&mut cmvrp::engine::ShardCheckpoint)| {
        let mut edited = ckpt.clone();
        f(&mut edited.shards[1]);
        edited
    };
    vec![
        (
            edit(&|s| s.vehicles[0].neighbors.push(1_000_000)),
            format!("vehicle {id}: neighbor 1000000 is not a vehicle of this shard"),
        ),
        (
            edit(&|s| s.vehicles[0].pos.push(0)),
            format!("vehicle {id}: position has 3 coordinates, not 2"),
        ),
        (
            edit(&|s| s.vehicles[0].pos = vec![100, 100]),
            format!("vehicle {id}: position (100,100) lies outside the vehicle's cube"),
        ),
        (
            edit(&|s| s.cubes[0].push(0)),
            format!("cube {:?} has 3 coordinates, not 2", [cube[0], cube[1], 0]),
        ),
        (
            edit(&|s| s.pair_active[0].2 = 1_000_000),
            format!(
                "pairing of cube {pair_cube:?}, pair {pair}: vehicle 1000000 \
                 is not a vehicle of this shard"
            ),
        ),
    ]
}

#[test]
fn resume_refuses_a_golden_edited_to_not_fit_the_run() {
    for (label, monitored, golden) in goldens() {
        let (bounds, jobs, online) = inputs(monitored);
        for (edited, record) in misfits(&decode_checkpoint(golden).expect("golden decodes")) {
            let reread = decode_checkpoint(&encode_checkpoint(&edited)).expect("edit decodes");
            let err = ShardedOnlineSim::<2, VecSink>::resume(bounds, &jobs, online, &reread)
                .err()
                .unwrap_or_else(|| panic!("{label}: resumed despite {record}"));
            let expected = EngineError::CheckpointMismatch {
                shard: 1,
                record: record.clone(),
            };
            assert_eq!(err, expected, "{label}");
            assert!(
                err.to_string().contains(&format!("shard 1: {record}")),
                "{err}"
            );
        }
    }
}

#[test]
fn a_delay_histogram_with_an_extra_bucket_is_refused_naming_its_frame() {
    let mut ckpt = decode_checkpoint(PLAIN).expect("golden decodes");
    let mut bounds = DEFAULT_BUCKETS.to_vec();
    bounds.push(8192);
    ckpt.shards[1].transport.delay_hist = Histogram::with_bounds(&bounds);
    let err = decode_checkpoint(&encode_checkpoint(&ckpt)).unwrap_err();
    // Frame 1 is the run frame; shard i is frame i + 2.
    assert_eq!(err.frame, 3, "{err}");
    assert_eq!(
        err.msg,
        "delay histogram: 15 bucket counts for a histogram with 14 buckets"
    );
}

/// `CMVC` has no checksum, so a flipped byte inside a shard frame reaches
/// resume whenever the frame still decodes: the run must then go on or be
/// refused, never panic. Fixed-seed flips of both goldens.
#[test]
fn byte_flipped_goldens_resume_or_are_refused() {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for (label, monitored, golden) in goldens() {
        let (bounds, jobs, online) = inputs(monitored);
        // The run frame's length fits one varint byte; shard frames follow.
        let shards_start = 6 + usize::from(golden[5]);
        let (mut resumed, mut refused) = (0, 0);
        for _ in 0..200 {
            let mut bytes = golden.to_vec();
            let at = shards_start + rng() as usize % (bytes.len() - shards_start);
            bytes[at] ^= (rng() % 255 + 1) as u8;
            let Ok(ckpt) = decode_checkpoint(&bytes) else {
                continue;
            };
            let exec = ExecConfig::new();
            match exec.execute_with_checkpoints(
                bounds,
                &jobs,
                online,
                &mut NullSink,
                Some(&ckpt),
                &mut |_| {},
            ) {
                Ok(_) => resumed += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            resumed > 0 && refused > 0,
            "{label}: {resumed} resumed, {refused} refused"
        );
    }
}

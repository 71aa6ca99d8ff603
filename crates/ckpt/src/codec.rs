//! The `CMVC` checkpoint format: [`EngineCheckpoint`] on disk.
//!
//! A checkpoint file is:
//!
//! ```text
//! magic "CMVC" (4 bytes) | version (1 byte) | run frame | shard frame*
//! frame := varint(payload_len) | payload
//! ```
//!
//! The run frame carries the whole-run header (input fingerprint, round /
//! epoch / trace cursors, the execution-shape stamp, and the shard
//! count); each shard frame carries one [`ShardCheckpoint`] with its
//! vehicles inline, then — only when some vehicle has any — the §3.2.5
//! ring section: one record per vehicle with ring state (global id, watch
//! target, report-to, tick counter, heartbeat misses). Unmonitored runs
//! therefore write the same layout as before the ring existed, and a file
//! without the section reads back with every ring empty. The frame layer
//! — varints, zigzag, arrays, the header check, frame iteration and the
//! scoped [`FrameError`] — is [`cmvrp_obs::frame`], shared with the `CMVB`
//! trace format. This module adds only the field lists: optional values
//! are a tag byte (0 = absent, 1 = present), enums one byte each, and the
//! one `u128` field (`delay_sum`) is split into low/high `u64` halves.
//! Extra frames after the last shard are ignored, like trailing bytes
//! inside the run frame.
//!
//! [`write_checkpoint`] is atomic — the bytes go to a `.tmp` sibling
//! which is then renamed over the destination — so a crash mid-write
//! leaves the previous snapshot intact, which is what makes
//! checkpoint-cadence fault recovery sound.

use cmvrp_engine::{EngineCheckpoint, ShardCheckpoint, VehicleCheckpoint};
use cmvrp_obs::frame::{self, put_frame, put_i64s, put_u64, put_u64s, Cursor, FrameError};
use cmvrp_online::WorkState;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The four magic bytes opening every checkpoint file.
pub const CKPT_MAGIC: [u8; 4] = *b"CMVC";

/// The format version this build writes and the highest it reads.
pub const CKPT_VERSION: u8 = 1;

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_opt_pair(buf: &mut Vec<u8>, v: &Option<(u64, u64)>) {
    match v {
        None => buf.push(0),
        Some((a, b)) => {
            buf.push(1);
            put_u64(buf, *a);
            put_u64(buf, *b);
        }
    }
}

fn put_opt_pos(buf: &mut Vec<u8>, v: &Option<Vec<i64>>) {
    match v {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            put_i64s(buf, p);
        }
    }
}

fn work_byte(w: WorkState) -> u8 {
    match w {
        WorkState::Idle => 0,
        WorkState::Active => 1,
        WorkState::Done => 2,
    }
}

fn opt_pair(c: &mut Cursor<'_>) -> Result<Option<(u64, u64)>, FrameError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some((c.u64()?, c.u64()?))),
        other => Err(c.err(format!("bad option tag {other}"))),
    }
}

fn opt_pos(c: &mut Cursor<'_>) -> Result<Option<Vec<i64>>, FrameError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.i64s()?)),
        other => Err(c.err(format!("bad option tag {other}"))),
    }
}

/// The run frame's reserved byte after `threads`: written as 0, read as
/// 0–2 because checkpoints already on disk may hold 1 or 2 there.
fn reserved(c: &mut Cursor<'_>) -> Result<(), FrameError> {
    match c.u8()? {
        0..=2 => Ok(()),
        other => Err(c.err(format!("unknown schedule byte {other}"))),
    }
}

fn work(c: &mut Cursor<'_>) -> Result<WorkState, FrameError> {
    match c.u8()? {
        0 => Ok(WorkState::Idle),
        1 => Ok(WorkState::Active),
        2 => Ok(WorkState::Done),
        other => Err(c.err(format!("unknown work-state byte {other}"))),
    }
}

// ---- encode ----

fn encode_vehicle(buf: &mut Vec<u8>, v: &VehicleCheckpoint) {
    put_u64(buf, v.global_id);
    put_i64s(buf, &v.pos);
    buf.push(work_byte(v.work));
    put_u64(buf, v.energy_used);
    put_u64(buf, v.moves);
    put_u64(buf, v.serves);
    put_opt_pair(buf, &v.claimed_by);
    put_opt_pos(buf, &v.summon_dest);
    put_bool(buf, v.failed_search);
    put_opt_pos(buf, &v.arrived);
    put_u64s(buf, &v.neighbors);
    for &c in &v.msg_counts {
        put_u64(buf, c);
    }
    put_u64(buf, v.diffusions.0);
    put_u64(buf, v.diffusions.1);
    put_u64(buf, v.diffusions.2);
    put_opt_pair(buf, &v.engine_init);
    put_u64(buf, v.engine_next_generation);
}

/// Whether a vehicle carries §3.2.5 ring state worth a ring record.
fn has_ring(v: &VehicleCheckpoint) -> bool {
    v.watch.is_some() || v.report_to.is_some() || v.ticks > 0 || v.heartbeat_misses > 0
}

fn encode_ring(buf: &mut Vec<u8>, v: &VehicleCheckpoint) {
    put_u64(buf, v.global_id);
    match &v.watch {
        None => buf.push(0),
        Some((peer, pos, seen)) => {
            buf.push(1);
            put_u64(buf, *peer);
            put_i64s(buf, pos);
            put_u64(buf, *seen);
        }
    }
    match v.report_to {
        None => buf.push(0),
        Some(watcher) => {
            buf.push(1);
            put_u64(buf, watcher);
        }
    }
    put_u64(buf, v.ticks);
    put_u64(buf, v.heartbeat_misses);
}

fn encode_shard(buf: &mut Vec<u8>, s: &ShardCheckpoint) {
    put_u64(buf, s.now);
    put_u64(buf, s.seq);
    put_u64(buf, s.rng_state);
    put_u64(buf, s.total_sent);
    put_u64(buf, s.total_delivered);
    put_u64(buf, s.total_lost);
    put_u64(buf, s.total_to_crashed);
    put_u64(buf, s.queue_depth_max);
    put_u64s(buf, &s.delay_counts);
    put_u64(buf, s.delay_count);
    put_u64(buf, s.delay_sum as u64);
    put_u64(buf, (s.delay_sum >> 64) as u64);
    put_u64(buf, s.delay_max);
    put_u64(buf, s.released);
    put_u64(buf, s.served);
    put_u64(buf, s.unserved);
    put_u64(buf, s.replacements);
    put_u64(buf, s.failed_replacements);
    put_u64(buf, s.cubes.len() as u64);
    for cube in &s.cubes {
        put_i64s(buf, cube);
    }
    put_u64(buf, s.pair_active.len() as u64);
    for (cube, idx, vid) in &s.pair_active {
        put_i64s(buf, cube);
        put_u64(buf, *idx);
        put_u64(buf, *vid);
    }
    put_u64(buf, s.vehicles.len() as u64);
    for v in &s.vehicles {
        encode_vehicle(buf, v);
    }
    let ring: Vec<&VehicleCheckpoint> = s.vehicles.iter().filter(|v| has_ring(v)).collect();
    if !ring.is_empty() {
        put_u64(buf, ring.len() as u64);
        for v in ring {
            encode_ring(buf, v);
        }
    }
}

/// Encodes a checkpoint into the `CMVC` byte format.
pub fn encode_checkpoint(ckpt: &EngineCheckpoint) -> Vec<u8> {
    let mut out = frame::header(CKPT_MAGIC, CKPT_VERSION).to_vec();
    let mut buf = Vec::new();
    put_u64(&mut buf, ckpt.fingerprint);
    put_u64(&mut buf, ckpt.rounds_completed);
    put_u64(&mut buf, ckpt.next_epoch);
    put_u64(&mut buf, ckpt.trace_events);
    put_u64(&mut buf, ckpt.threads);
    buf.push(0); // reserved
    put_bool(&mut buf, ckpt.checked);
    put_u64(&mut buf, ckpt.shards.len() as u64);
    put_frame(&mut out, &buf);
    for shard in &ckpt.shards {
        buf.clear();
        encode_shard(&mut buf, shard);
        put_frame(&mut out, &buf);
    }
    out
}

// ---- decode ----

fn decode_vehicle(c: &mut Cursor<'_>) -> Result<VehicleCheckpoint, FrameError> {
    Ok(VehicleCheckpoint {
        global_id: c.u64()?,
        pos: c.i64s()?,
        work: work(c)?,
        energy_used: c.u64()?,
        moves: c.u64()?,
        serves: c.u64()?,
        claimed_by: opt_pair(c)?,
        summon_dest: opt_pos(c)?,
        failed_search: c.bool()?,
        arrived: opt_pos(c)?,
        neighbors: c.u64s()?,
        msg_counts: [c.u64()?, c.u64()?, c.u64()?, c.u64()?],
        diffusions: (c.u64()?, c.u64()?, c.u64()?),
        engine_init: opt_pair(c)?,
        engine_next_generation: c.u64()?,
        watch: None,
        report_to: None,
        ticks: 0,
        heartbeat_misses: 0,
    })
}

/// Reads one ring record into its vehicle, found by global id among the
/// shard's vehicles (sorted by global id, as the engine writes them).
fn decode_ring(c: &mut Cursor<'_>, vehicles: &mut [VehicleCheckpoint]) -> Result<(), FrameError> {
    let id = c.u64()?;
    let watch = match c.u8()? {
        0 => None,
        1 => Some((c.u64()?, c.i64s()?, c.u64()?)),
        other => return Err(c.err(format!("bad option tag {other}"))),
    };
    let report_to = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        other => return Err(c.err(format!("bad option tag {other}"))),
    };
    let (ticks, heartbeat_misses) = (c.u64()?, c.u64()?);
    let at = vehicles
        .binary_search_by_key(&id, |v| v.global_id)
        .map_err(|_| c.err(format!("ring record for unknown vehicle {id}")))?;
    let v = &mut vehicles[at];
    v.watch = watch;
    v.report_to = report_to;
    v.ticks = ticks;
    v.heartbeat_misses = heartbeat_misses;
    Ok(())
}

/// Reads one shard frame; fields are read in struct order, then the ring
/// section when the frame has one.
fn decode_shard(c: &mut Cursor<'_>) -> Result<ShardCheckpoint, FrameError> {
    let mut shard = ShardCheckpoint {
        now: c.u64()?,
        seq: c.u64()?,
        rng_state: c.u64()?,
        total_sent: c.u64()?,
        total_delivered: c.u64()?,
        total_lost: c.u64()?,
        total_to_crashed: c.u64()?,
        queue_depth_max: c.u64()?,
        delay_counts: c.u64s()?,
        delay_count: c.u64()?,
        delay_sum: u128::from(c.u64()?) | (u128::from(c.u64()?) << 64),
        delay_max: c.u64()?,
        released: c.u64()?,
        served: c.u64()?,
        unserved: c.u64()?,
        replacements: c.u64()?,
        failed_replacements: c.u64()?,
        cubes: c.array(Cursor::i64s)?,
        pair_active: c.array(|c| Ok((c.i64s()?, c.u64()?, c.u64()?)))?,
        vehicles: c.array(decode_vehicle)?,
    };
    if !c.at_end() {
        c.array(|c| decode_ring(c, &mut shard.vehicles))?;
    }
    Ok(shard)
}

/// Decodes a `CMVC` byte stream back into an [`EngineCheckpoint`].
/// Never panics: corrupt or truncated input comes back as a scoped
/// [`FrameError`]. Trailing bytes inside a frame and extra frames after
/// the last shard are ignored (append-tolerant schema evolution).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<EngineCheckpoint, FrameError> {
    let mut file = Cursor::open(bytes, CKPT_MAGIC, CKPT_VERSION)?;
    let mut run = file
        .next_frame()
        .unwrap_or_else(|| Err(file.missing("missing run frame")))?;
    let fingerprint = run.u64()?;
    let rounds_completed = run.u64()?;
    let next_epoch = run.u64()?;
    let trace_events = run.u64()?;
    let threads = run.u64()?;
    reserved(&mut run)?;
    let checked = run.bool()?;
    let n_shards = run.usize()?;
    let mut shards = Vec::with_capacity(n_shards.min(1 << 16));
    for i in 0..n_shards {
        let mut shard = file.next_frame().unwrap_or_else(|| {
            Err(file.missing(format!(
                "checkpoint ends after {i} of {n_shards} shard frames"
            )))
        })?;
        shards.push(decode_shard(&mut shard)?);
    }
    Ok(EngineCheckpoint {
        fingerprint,
        rounds_completed,
        next_epoch,
        trace_events,
        threads,
        checked,
        shards,
    })
}

// ---- file I/O ----

/// Writes `ckpt` to `path` atomically: the bytes go to a `.tmp` sibling
/// which is fsync'd-by-close and renamed over the destination, so readers
/// (and crash recovery) only ever see a complete checkpoint.
pub fn write_checkpoint(path: &Path, ckpt: &EngineCheckpoint) -> io::Result<()> {
    let bytes = encode_checkpoint(ckpt);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)
}

/// Reads and decodes a checkpoint file; errors are prefixed with the path
/// so callers can surface them verbatim.
pub fn read_checkpoint(path: &Path) -> Result<EngineCheckpoint, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    decode_checkpoint(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders a human-readable summary of a checkpoint — the `cmvrp ckpt
/// inspect` view.
pub fn inspect(ckpt: &EngineCheckpoint) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checkpoint at round {} (next epoch {}, {} trace events)",
        ckpt.rounds_completed, ckpt.next_epoch, ckpt.trace_events
    );
    let _ = writeln!(out, "fingerprint: {:#018x}", ckpt.fingerprint);
    let _ = writeln!(
        out,
        "written under: --threads={}{}",
        ckpt.threads,
        if ckpt.checked { " --check" } else { "" }
    );
    let (mut released, mut served, mut unserved) = (0u64, 0u64, 0u64);
    let (mut cubes, mut vehicles, mut active) = (0usize, 0usize, 0usize);
    for s in &ckpt.shards {
        released += s.released;
        served += s.served;
        unserved += s.unserved;
        cubes += s.cubes.len();
        vehicles += s.vehicles.len();
        active += s
            .vehicles
            .iter()
            .filter(|v| v.work == WorkState::Active)
            .count();
    }
    let _ = writeln!(
        out,
        "jobs: {released} released, {served} served, {unserved} unserved"
    );
    let _ = writeln!(
        out,
        "fleet: {cubes} cubes, {vehicles} vehicles ({active} active)"
    );
    let _ = writeln!(out, "shards: {}", ckpt.shards.len());
    let _ = writeln!(out, "  id  clock  cubes  vehicles  released  served");
    for (i, s) in ckpt.shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>2}  {:>5}  {:>5}  {:>8}  {:>8}  {:>6}",
            i,
            s.now,
            s.cubes.len(),
            s.vehicles.len(),
            s.released,
            s.served
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineCheckpoint {
        EngineCheckpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            rounds_completed: 7,
            next_epoch: 41,
            trace_events: 129,
            threads: 2,
            checked: true,
            shards: vec![
                ShardCheckpoint {
                    now: 40,
                    seq: 311,
                    rng_state: u64::MAX - 1,
                    total_sent: 100,
                    total_delivered: 98,
                    total_lost: 1,
                    total_to_crashed: 1,
                    queue_depth_max: 9,
                    delay_counts: vec![3, 0, 5, 90],
                    delay_count: 98,
                    delay_sum: (u128::from(u64::MAX)) + 7,
                    delay_max: 6,
                    released: 12,
                    served: 11,
                    unserved: 0,
                    replacements: 2,
                    failed_replacements: 1,
                    cubes: vec![vec![-3, 0], vec![0, 6]],
                    pair_active: vec![(vec![-3, 0], 1, 17)],
                    vehicles: vec![VehicleCheckpoint {
                        global_id: 17,
                        pos: vec![-2, 1],
                        work: WorkState::Active,
                        energy_used: 5,
                        moves: 3,
                        serves: 2,
                        claimed_by: Some((9, 4)),
                        summon_dest: None,
                        failed_search: true,
                        arrived: Some(vec![-3, 0]),
                        neighbors: vec![9, 18, 25],
                        msg_counts: [4, 3, 2, 0],
                        diffusions: (1, 1, 1),
                        engine_init: Some((17, 2)),
                        engine_next_generation: 3,
                        watch: Some((18, vec![-2, 2], 4)),
                        report_to: Some(25),
                        ticks: 6,
                        heartbeat_misses: 1,
                    }],
                },
                ShardCheckpoint {
                    now: 38,
                    seq: 0,
                    rng_state: 1,
                    total_sent: 0,
                    total_delivered: 0,
                    total_lost: 0,
                    total_to_crashed: 0,
                    queue_depth_max: 0,
                    delay_counts: vec![],
                    delay_count: 0,
                    delay_sum: 0,
                    delay_max: 0,
                    released: 0,
                    served: 0,
                    unserved: 0,
                    replacements: 0,
                    failed_replacements: 0,
                    cubes: vec![],
                    pair_active: vec![],
                    vehicles: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrips_exactly() {
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&bytes).expect("decode"), ckpt);
    }

    #[test]
    fn trailing_payload_bytes_are_ignored() {
        // Append-tolerance: a future writer may add fields to the end of
        // the run frame; this reader must skip them.
        let ckpt = sample();
        let mut bytes = encode_checkpoint(&EngineCheckpoint {
            shards: vec![],
            ..ckpt.clone()
        });
        // Rebuild with two extra bytes in the run frame payload.
        let mut grown = Vec::new();
        grown.extend_from_slice(&bytes[..4]);
        grown.push(bytes[4]);
        let old_len = bytes[5] as usize; // single-byte varint for this size
        grown.push((old_len + 2) as u8);
        grown.extend_from_slice(&bytes[6..6 + old_len]);
        grown.extend_from_slice(&[0xAA, 0xBB]);
        bytes = grown;
        let decoded = decode_checkpoint(&bytes).expect("decode with trailing bytes");
        assert_eq!(decoded.fingerprint, ckpt.fingerprint);
    }

    #[test]
    fn extra_frames_after_the_last_shard_are_ignored() {
        let ckpt = sample();
        let mut bytes = encode_checkpoint(&ckpt);
        bytes.extend_from_slice(&[3, 1, 2, 3]); // one extra 3-byte frame
        assert_eq!(decode_checkpoint(&bytes).expect("decode"), ckpt);
    }

    /// `ckpt` with every vehicle's ring state cleared.
    fn without_rings(mut ckpt: EngineCheckpoint) -> EngineCheckpoint {
        for v in ckpt.shards.iter_mut().flat_map(|s| &mut s.vehicles) {
            v.watch = None;
            v.report_to = None;
            v.ticks = 0;
            v.heartbeat_misses = 0;
        }
        ckpt
    }

    #[test]
    fn the_ring_section_is_written_only_when_a_vehicle_has_ring_state() {
        let plain = without_rings(sample());
        let plain_bytes = encode_checkpoint(&plain);
        assert_eq!(decode_checkpoint(&plain_bytes).expect("decode"), plain);
        // The sample's one ringed vehicle adds exactly one ring section.
        let mut ring = Vec::new();
        put_u64(&mut ring, 1);
        encode_ring(&mut ring, &sample().shards[0].vehicles[0]);
        let ringed_bytes = encode_checkpoint(&sample());
        assert_eq!(ringed_bytes.len(), plain_bytes.len() + ring.len());
    }

    #[test]
    fn a_ring_record_for_an_unknown_vehicle_is_a_scoped_error() {
        let mut ckpt = without_rings(sample());
        ckpt.shards.truncate(1);
        let bytes = encode_checkpoint(&ckpt);
        let mut payload = Vec::new();
        encode_shard(&mut payload, &ckpt.shards[0]);
        let mut frame = Vec::new();
        put_frame(&mut frame, &payload);
        let mut stranger = sample().shards[0].vehicles[0].clone();
        stranger.global_id = 99;
        put_u64(&mut payload, 1);
        encode_ring(&mut payload, &stranger);
        let mut bad = bytes[..bytes.len() - frame.len()].to_vec();
        put_frame(&mut bad, &payload);
        let err = decode_checkpoint(&bad).unwrap_err();
        assert_eq!(err.frame, 2);
        assert!(err.msg.contains("unknown vehicle 99"), "{err}");
    }

    #[test]
    fn missing_shard_frames_are_a_scoped_error() {
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt);
        // Chop the file right after the run frame.
        let run_frame_end = 6 + bytes[5] as usize;
        let err = decode_checkpoint(&bytes[..run_frame_end]).unwrap_err();
        assert!(err.msg.contains("0 of 2 shard frames"), "{err}");
    }

    #[test]
    fn inspect_summarizes_the_run() {
        let text = inspect(&sample());
        assert!(text.contains("round 7"), "{text}");
        assert!(
            text.contains("written under: --threads=2 --check\n"),
            "{text}"
        );
        assert!(text.contains("2 cubes, 1 vehicles (1 active)"), "{text}");
    }

    #[test]
    fn file_roundtrip_is_atomic_over_existing_snapshots() {
        let dir = std::env::temp_dir().join(format!("cmvc-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.cmvc");
        let first = sample();
        write_checkpoint(&path, &first).expect("write");
        let mut second = sample();
        second.rounds_completed = 9;
        write_checkpoint(&path, &second).expect("overwrite");
        assert_eq!(read_checkpoint(&path).expect("read"), second);
        assert!(!path.with_extension("cmvc.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#![warn(missing_docs)]

//! Checkpoint/resume subsystem for the sharded engine.
//!
//! Two halves:
//!
//! * [`codec`] — the `CMVC` on-disk checkpoint format: the field lists of
//!   [`cmvrp_engine::EngineCheckpoint`] over the frame module it shares
//!   with the `CMVB` trace format ([`cmvrp_obs::frame`]: magic + version
//!   header, varint-length-prefixed frames, scoped decode errors,
//!   append-tolerant payloads), written atomically via a temp file and
//!   rename so a crash mid-write never corrupts the last good snapshot.
//! * [`campaign`] — a panel runner: parse a spec of named `cmvrp
//!   simulate` runs (sectioned like scenario files, and read by the same
//!   lexer), execute them with per-run checkpointing,
//!   retry failed or killed runs from their last checkpoint with bounded
//!   exponential backoff, and park runs that exhaust their retries in a
//!   dead-letter list persisted next to the checkpoints.
//!
//! The contract underneath both: a checkpoint taken at round `k` and
//! resumed produces a trace tail byte-identical to the uninterrupted
//! run's, so concatenating the head and tail traces equals the one-shot
//! trace (see `cmvrp-engine`'s resume tests and `cmvrp trace diff`).

pub mod campaign;
pub mod codec;

pub use campaign::{
    load_state, parse_spec, run_campaign, save_state, AttemptOutcome, Executor, ProcessExecutor,
    RunRecord, RunSpec,
};
pub use codec::{
    decode_checkpoint, encode_checkpoint, inspect, read_checkpoint, write_checkpoint, CKPT_MAGIC,
    CKPT_VERSION,
};

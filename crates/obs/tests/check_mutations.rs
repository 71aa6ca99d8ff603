//! Mutation tests for the invariant monitors: each test takes a trace that
//! `trace check` accepts, applies one targeted corruption, and asserts the
//! checker rejects it **naming the right invariant and the right line**.
//! A monitor that accepts its own mutation is a dead monitor — these tests
//! are what keeps the catalog in `cmvrp_obs::check` honest.
//!
//! Two fixture sources:
//! * a hand-built 20-line trace (`base()`) where every line number is
//!   known exactly, and
//! * the committed golden trace under `tests/data/`, mutated textually,
//!   so the end-to-end JSONL schema stays covered too.

use cmvrp_obs::{check_trace, load_trace_bytes, CheckReport, Event, MergeChecker, TraceChecker};

/// A minimal clean trace exercising every monitor: a served job, one full
/// Dijkstra–Scholten search (2 queries, 2 replies, zero deficit at
/// completion), the replacement arrival it summons, and a heartbeat pair
/// on one channel (the FIFO reorder target).
fn base() -> Vec<String> {
    [
        r#"{"ev":"fleet_provisioned","t":0,"vehicles":4,"capacity":10}"#, // 1
        r#"{"ev":"job_arrived","t":0,"seq":0,"pos":[1,1]}"#,              // 2
        r#"{"ev":"job_served","t":0,"seq":0,"vehicle":1,"cost":2}"#,      // 3
        r#"{"ev":"diffusion_started","t":1,"initiator":1,"generation":0}"#, // 4
        r#"{"ev":"msg_sent","t":1,"from":1,"to":2,"kind":"query"}"#,      // 5
        r#"{"ev":"msg_sent","t":1,"from":1,"to":3,"kind":"query"}"#,      // 6
        r#"{"ev":"msg_delivered","t":2,"from":1,"to":2,"delay":1,"kind":"query"}"#, // 7
        r#"{"ev":"msg_sent","t":2,"from":2,"to":1,"kind":"reply"}"#,      // 8
        r#"{"ev":"msg_delivered","t":3,"from":1,"to":3,"delay":2,"kind":"query"}"#, // 9
        r#"{"ev":"msg_sent","t":3,"from":3,"to":1,"kind":"reply"}"#,      // 10
        r#"{"ev":"msg_delivered","t":4,"from":2,"to":1,"delay":2,"kind":"reply"}"#, // 11
        r#"{"ev":"msg_delivered","t":5,"from":3,"to":1,"delay":2,"kind":"reply"}"#, // 12
        r#"{"ev":"diffusion_completed","t":5,"initiator":1,"generation":0,"found":true}"#, // 13
        r#"{"ev":"replacement_cycle","t":6,"vehicle":3,"dest":[1,1],"dist":3}"#, // 14
        r#"{"ev":"msg_sent","t":6,"from":0,"to":2,"kind":"heartbeat"}"#,  // 15
        r#"{"ev":"msg_sent","t":7,"from":0,"to":2,"kind":"heartbeat"}"#,  // 16
        r#"{"ev":"msg_delivered","t":8,"from":0,"to":2,"delay":2,"kind":"heartbeat"}"#, // 17
        r#"{"ev":"msg_delivered","t":9,"from":0,"to":2,"delay":2,"kind":"heartbeat"}"#, // 18
        r#"{"ev":"job_arrived","t":9,"seq":1,"pos":[1,1]}"#,              // 19
        r#"{"ev":"job_served","t":9,"seq":1,"vehicle":3,"cost":2}"#,      // 20
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

fn check(lines: &[String]) -> CheckReport {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let trace = load_trace_bytes(text.as_bytes()).expect("trace must load");
    check_trace(&trace, None).expect("trace must parse")
}

/// Asserts the report rejects the trace with a violation of `invariant`
/// anchored at 1-based `line`.
#[track_caller]
fn assert_rejects(report: &CheckReport, invariant: &str, line: usize) {
    assert!(
        !report.is_clean(),
        "mutation was accepted: expected [{invariant}] at line {line}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == invariant && v.line == line),
        "expected [{invariant}] at line {line}, got: {:#?}",
        report.violations
    );
}

#[test]
fn base_trace_is_clean() {
    let report = check(&base());
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.events, 20);
    // Every monitor could run: kinds are annotated and capacity is known.
    assert_eq!(report.active, cmvrp_obs::INVARIANTS.to_vec());
}

/// Reordering a FIFO pair: the two heartbeat deliveries on channel 0->2
/// come back swapped. The first delivery then matches the older send and
/// its delay no longer adds up.
#[test]
fn fifo_pair_reorder_rejected() {
    let mut t = base();
    t.swap(16, 17); // 1-based lines 17 and 18
    assert_rejects(&check(&t), "channel-fifo", 17);
}

/// Dropping a reply signal: the second reply delivery to the initiator
/// vanishes, so the computation completes with deficit 1.
#[test]
fn dropped_signal_return_rejected() {
    let mut t = base();
    t[11] = String::new(); // blank 1-based line 12 (line numbering is kept)
    assert_rejects(&check(&t), "ds-deficit", 13);
}

/// Overspending the battery: the replacement vehicle's second job is
/// re-priced so its lifetime energy (3 relocation + 9 service) exceeds
/// the provisioned capacity of 10.
#[test]
fn battery_overspend_rejected() {
    let mut t = base();
    t[19] = t[19].replace("\"cost\":2", "\"cost\":9");
    assert_rejects(&check(&t), "capacity", 20);
}

/// Delivering to a crashed process: process 2 crashes in place of the
/// second heartbeat send, yet a delivery to it still follows.
#[test]
fn delivery_to_crashed_process_rejected() {
    let mut t = base();
    t[15] = r#"{"ev":"process_crashed","t":7,"proc":2}"#.to_string();
    assert_rejects(&check(&t), "crash-silence", 17);
}

/// Simulation time running backwards.
#[test]
fn clock_regression_rejected() {
    let mut t = base();
    t[18] = t[18].replace("\"t\":9", "\"t\":3");
    assert_rejects(&check(&t), "clock", 19);
}

/// Serving the same job twice.
#[test]
fn double_serve_rejected() {
    let mut t = base();
    t[19] = t[19].replace("\"seq\":1", "\"seq\":0");
    assert_rejects(&check(&t), "job-ledger", 20);
}

/// A replacement arrival whose search never succeeded.
#[test]
fn replacement_without_successful_search_rejected() {
    let mut t = base();
    t[12] = t[12].replace("\"found\":true", "\"found\":false");
    assert_rejects(&check(&t), "replacement-liveness", 14);
}

/// A phase span that ends before it starts.
#[test]
fn inverted_span_rejected() {
    let mut t = base();
    t.push(r#"{"ev":"phase_span","name":"route","start_ns":10,"end_ns":5}"#.to_string());
    assert_rejects(&check(&t), "span", 21);
}

// ---- flight-recorder (round_profile) mutations ----

/// The base trace with a two-round, two-worker flight-recorder tail
/// appended (lines 21–24), as `simulate --threads=2 --profile` writes it.
fn base_with_profiles() -> Vec<String> {
    let mut t = base();
    t.extend(
        [
            r#"{"ev":"round_profile","round":1,"worker":0,"workers":2,"busy_ns":100,"barrier_wait_ns":5,"merge_ns":3,"sink_ns":2,"events":4,"steals":0}"#, // 21
            r#"{"ev":"round_profile","round":1,"worker":1,"workers":2,"busy_ns":90,"barrier_wait_ns":15,"merge_ns":3,"sink_ns":2,"events":4,"steals":1}"#, // 22
            r#"{"ev":"round_profile","round":2,"worker":0,"workers":2,"busy_ns":80,"barrier_wait_ns":9,"merge_ns":2,"sink_ns":1,"events":3,"steals":0}"#, // 23
            r#"{"ev":"round_profile","round":2,"worker":1,"workers":2,"busy_ns":85,"barrier_wait_ns":4,"merge_ns":2,"sink_ns":1,"events":3,"steals":0}"#, // 24
        ]
        .into_iter()
        .map(String::from),
    );
    t
}

#[test]
fn profiled_base_trace_is_clean() {
    let report = check(&base_with_profiles());
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.events, 24);
    assert_eq!(report.active, cmvrp_obs::INVARIANTS.to_vec());
}

/// A negative duration in one sample: wall-clock cannot run backwards, so
/// a sign flip is recorder corruption, not measurement noise.
#[test]
fn negative_profile_duration_rejected() {
    let mut t = base_with_profiles();
    t[21] = t[21].replace("\"busy_ns\":90", "\"busy_ns\":-90");
    assert_rejects(&check(&t), "profile", 22);
}

/// A worker id outside the pool the sample itself declares.
#[test]
fn profile_worker_out_of_range_rejected() {
    let mut t = base_with_profiles();
    t[22] = t[22].replace("\"worker\":0", "\"worker\":7");
    assert_rejects(&check(&t), "profile", 23);
}

/// A worker's round number running backwards: the coordinator emits
/// strictly increasing rounds, so a regression means samples were lost,
/// duplicated, or reordered.
#[test]
fn non_monotone_profile_round_rejected() {
    let mut t = base_with_profiles();
    t[23] = t[23].replace("\"round\":2", "\"round\":1");
    assert_rejects(&check(&t), "profile", 24);
}

// ---- inline (per-shard) agreement with the offline checker ----

/// Replays `lines` through a shard-configured [`TraceChecker`] —
/// capacity seeded, gap-tolerant job ledger, no `fleet_provisioned`
/// header — exactly how the sharded engine configures each shard's
/// checker — and returns the invariant names it reports.
fn inline_shard_violations(lines: &[String]) -> Vec<&'static str> {
    let mut checker = TraceChecker::new();
    checker.set_capacity(10);
    checker.allow_seq_gaps();
    for line in lines {
        if line.trim().is_empty() || line.contains("\"ev\":\"fleet_provisioned\"") {
            continue;
        }
        checker.observe(&Event::from_json(line).expect("event must parse"));
    }
    checker.finish();
    checker.violations().iter().map(|v| v.invariant).collect()
}

/// Every shard-visible mutation above must be rejected by the inline
/// per-shard checker with the **same invariant name** the offline
/// `trace check` reports — `simulate --threads=N --check` and a later
/// offline pass over the written trace must never disagree on what broke.
#[test]
fn inline_shard_checker_agrees_with_offline_on_shard_visible_mutations() {
    type Mutation = fn(&mut Vec<String>);
    let mutations: Vec<(&'static str, Mutation)> = vec![
        ("channel-fifo", |t| t.swap(16, 17)),
        ("ds-deficit", |t| t[11] = String::new()),
        ("capacity", |t| {
            t[19] = t[19].replace("\"cost\":2", "\"cost\":9")
        }),
        ("crash-silence", |t| {
            t[15] = r#"{"ev":"process_crashed","t":7,"proc":2}"#.to_string()
        }),
        ("clock", |t| t[18] = t[18].replace("\"t\":9", "\"t\":3")),
        ("job-ledger", |t| {
            t[19] = t[19].replace("\"seq\":1", "\"seq\":0")
        }),
        ("replacement-liveness", |t| {
            t[12] = t[12].replace("\"found\":true", "\"found\":false")
        }),
        ("span", |t| {
            t.push(r#"{"ev":"phase_span","name":"route","start_ns":10,"end_ns":5}"#.to_string())
        }),
    ];
    for (invariant, mutate) in mutations {
        let mut t = base();
        mutate(&mut t);
        let offline = check(&t);
        assert!(
            offline.violations.iter().any(|v| v.invariant == invariant),
            "offline checker missed [{invariant}]: {:#?}",
            offline.violations
        );
        let inline = inline_shard_violations(&t);
        assert!(
            inline.contains(&invariant),
            "inline shard checker missed [{invariant}], got {inline:?}"
        );
    }
}

/// The one corruption the gap-tolerant shard view *cannot* see — a forward
/// jump in the globally assigned sequence numbers — is exactly what the
/// merge-time checker exists for.
#[test]
fn seq_gap_mutation_is_caught_at_the_merge_not_the_shard() {
    let mut t = base();
    t[18] = t[18].replace("\"seq\":1", "\"seq\":5");
    t[19] = t[19].replace("\"seq\":1", "\"seq\":5");
    // Shard-local view: strictly increasing, gaps allowed — accepted.
    assert_eq!(inline_shard_violations(&t), Vec::<&str>::new());
    // Merge view: arrivals must come out contiguous — rejected.
    let mut merge = MergeChecker::new();
    for line in &t {
        merge.observe(&Event::from_json(line).expect("event must parse"));
    }
    assert!(
        merge
            .violations()
            .iter()
            .any(|v| v.invariant == "job-ledger"),
        "{:#?}",
        merge.violations()
    );
}

// ---- golden-trace mutations (end-to-end over the committed fixture) ----

fn golden() -> Vec<String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/golden_point.jsonl"
    );
    std::fs::read_to_string(path)
        .expect("golden trace missing; regenerate with scripts/check.sh")
        .lines()
        .map(String::from)
        .collect()
}

#[test]
fn golden_trace_is_clean() {
    let t = golden();
    let report = check(&t);
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.events as usize, t.len());
    assert_eq!(report.active, cmvrp_obs::INVARIANTS.to_vec());
}

/// Swapping the first send with the first delivery puts a delivery on the
/// wire before anything was sent on that channel.
#[test]
fn golden_send_delivery_swap_rejected() {
    let mut t = golden();
    let i = t
        .iter()
        .position(|l| l.contains("\"ev\":\"msg_sent\""))
        .unwrap();
    let j = t
        .iter()
        .position(|l| l.contains("\"ev\":\"msg_delivered\""))
        .unwrap();
    assert!(i < j);
    t.swap(i, j);
    assert_rejects(&check(&t), "channel-fifo", i + 1);
}

/// Re-pricing one real job far beyond the provisioned capacity.
#[test]
fn golden_overspend_rejected() {
    let mut t = golden();
    let i = t
        .iter()
        .position(|l| l.contains("\"ev\":\"job_served\""))
        .unwrap();
    t[i] = t[i].replace("\"cost\":1", "\"cost\":99999");
    assert_ne!(t[i], golden()[i], "mutation must change the line");
    assert_rejects(&check(&t), "capacity", i + 1);
}

/// A violation detected by `check_trace` must arrive with its causal
/// chain: the happens-before ancestors of the offending event, so the
/// report explains *how the run got there*, not just where it broke.
#[test]
fn golden_violation_carries_its_causal_chain() {
    let mut t = golden();
    // Re-serve a replacement-summoned job so the chain is non-trivial:
    // move sent -> move delivered -> replacement cycle -> arrival -> serve.
    let i = t
        .iter()
        .position(|l| l.contains("\"ev\":\"job_served\"") && l.contains("\"seq\":101"))
        .unwrap();
    let dup = t[i].clone();
    t.insert(i + 1, dup);
    let report = check(&t);
    assert_rejects(&report, "job-ledger", i + 2);
    let v = report
        .violations
        .iter()
        .find(|v| v.invariant == "job-ledger")
        .unwrap();
    assert!(!v.chain.is_empty(), "violation arrived without a chain");
    let chain = v.chain.join("\n");
    assert!(chain.contains("\"kind\":\"move\""), "{chain}");
    assert!(chain.contains("replacement_cycle"), "{chain}");
    assert!(chain.contains("\"seq\":101"), "{chain}");
    // The rendered violation shows the chain to the user.
    assert!(v.to_string().contains("caused by:"), "{v}");
}

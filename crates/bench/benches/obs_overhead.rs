//! Bench: observability overhead — the same default on-line run through
//! every sink flavor, so the `simulate --check` cost is a measured number
//! rather than a guess. Every run goes through `ExecConfig` on one worker,
//! as `cmvrp simulate` runs it; a checked run gives every shard a
//! buffering sink and a `TraceChecker` over each round's events, and the
//! merged stream a merge-time checker, so its overhead includes the
//! buffering and the merge that an unchecked, untraced run skips. Writes `BENCH_obs.json` at the repo root
//! with the checked-vs-unchecked overhead delta in the notes (skipped in
//! `--quick` mode so test glue never clobbers the committed snapshot);
//! `--baseline=PATH` pairs every row with a snapshot another build of this
//! bench wrote, so the `trace_write/*` encoder rows and the `trace_read/*`
//! decoder rows compare across commits.

use cmvrp_bench::default_workloads;
use cmvrp_bench::harness::Harness;
use cmvrp_engine::{ExecConfig, Execution};
use cmvrp_grid::GridBounds;
use cmvrp_obs::{
    load_trace_bytes, replay, BinReader, BinSink, Event, JsonlSink, NullSink, RingSink, Sink,
    TraceChecker, VecSink,
};
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, spatial, JobSequence, Ordering};
use std::hint::black_box;
use std::io::Write;

/// One run on one worker, checked inline when `check` is set (the verdict
/// must be clean).
fn run(
    check: bool,
    bounds: GridBounds<2>,
    jobs: &JobSequence<2>,
    config: OnlineConfig,
    sink: &mut dyn Sink,
) -> Execution {
    let run = ExecConfig::new()
        .check(check)
        .execute(bounds, jobs, config, sink)
        .expect("engine run");
    if let Some(verdict) = &run.check {
        assert!(verdict.is_clean(), "{:?}", verdict.violations);
    }
    run
}

/// Least-noise paired estimate of the `--check` overhead on one workload:
/// alternate the two modes run-by-run so both see the same machine-load
/// epochs, and take min-of-samples on each side.
fn paired_overhead(
    bounds: GridBounds<2>,
    jobs: &JobSequence<2>,
    config: OnlineConfig,
    reps: usize,
) -> (u64, u64) {
    let mut null_best = u64::MAX;
    let mut check_best = u64::MAX;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        black_box(run(false, bounds, jobs, config, &mut NullSink));
        null_best = null_best.min(t.elapsed().as_nanos() as u64);
        let t = std::time::Instant::now();
        black_box(run(true, bounds, jobs, config, &mut NullSink));
        check_best = check_best.min(t.elapsed().as_nanos() as u64);
    }
    (null_best, check_best)
}

/// Paired min-of-samples comparison of the two trace encodings: write the
/// same captured event stream to a discarding writer through each sink,
/// alternating run-by-run so both see the same machine-load epochs.
fn paired_trace_write(events: &[Event], reps: usize) -> (u64, u64) {
    let mut jsonl_best = u64::MAX;
    let mut bin_best = u64::MAX;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let mut sink = JsonlSink::new(std::io::sink());
        for ev in events {
            sink.record(ev);
        }
        sink.flush_events();
        black_box(sink.written());
        jsonl_best = jsonl_best.min(t.elapsed().as_nanos() as u64);
        let t = std::time::Instant::now();
        let mut sink = BinSink::new(std::io::sink());
        for ev in events {
            sink.record(ev);
        }
        sink.flush_events();
        black_box(sink.written());
        bin_best = bin_best.min(t.elapsed().as_nanos() as u64);
    }
    (jsonl_best, bin_best)
}

fn main() {
    let mut h = Harness::start("obs_overhead");
    h.set_samples(10);
    let bounds = GridBounds::square(16);
    let demand = spatial::point(&bounds, 600);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 9);
    let config = OnlineConfig::default();

    h.bench("full_run/null_sink", || {
        let report = run(false, bounds, &jobs, config, &mut NullSink).report;
        assert_eq!(report.unserved, 0);
        black_box(report);
    });
    h.bench("full_run/check_sink", || {
        let report = run(true, bounds, &jobs, config, &mut NullSink).report;
        assert_eq!(report.unserved, 0);
        black_box(report);
    });
    h.bench("full_run/ring_sink", || {
        let mut sink = RingSink::new(4096);
        let report = run(false, bounds, &jobs, config, &mut sink).report;
        black_box((report, sink.len()));
    });
    // Isolate the validator from the emit path: replay a captured event
    // stream straight through a TraceChecker.
    let events = {
        let mut sink = VecSink::new();
        run(false, bounds, &jobs, config, &mut sink);
        sink.drain()
    };
    h.bench("checker_only/replay", || {
        let mut checker = TraceChecker::new();
        for ev in &events {
            checker.observe(ev);
        }
        checker.finish();
        assert!(checker.is_clean(), "{:?}", checker.violations());
        black_box(checker.events());
    });
    h.bench("full_run/jsonl_sink_devnull", || {
        let mut sink = JsonlSink::new(std::io::sink());
        let report = run(false, bounds, &jobs, config, &mut sink).report;
        sink.flush_events();
        black_box((report, sink.written()));
    });
    // Encoder-only comparison: the captured event stream through each
    // trace encoding into a discarding writer, reported as events/s.
    let n_events = events.len() as u64;
    h.bench_with_items("trace_write/jsonl_devnull", n_events, || {
        let mut sink = JsonlSink::new(std::io::sink());
        for ev in &events {
            sink.record(ev);
        }
        sink.flush_events();
        black_box(sink.written());
    });
    h.bench_with_items("trace_write/bin_devnull", n_events, || {
        let mut sink = BinSink::new(std::io::sink());
        for ev in &events {
            sink.record(ev);
        }
        sink.flush_events();
        black_box(sink.written());
    });
    // The read path of the `cmvrp serve` trace op: CMVB decoded frame by
    // frame, each event rendered into one reused line on its way into a
    // writer.
    let cmvb = {
        let mut sink = BinSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        sink.into_writer().expect("in-memory write")
    };
    h.bench_with_items("trace_read/cmvb_to_jsonl", n_events, || {
        let mut out = std::io::sink();
        let mut line = String::with_capacity(128);
        for ev in BinReader::open(&cmvb).expect("own trace") {
            line.clear();
            ev.expect("own frame").append_json(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes()).expect("discarding write");
        }
        black_box(line.len());
    });
    // The read path of every `cmvrp trace` subcommand: one pass of the
    // trace reader over a loaded trace, each event folded into the replay
    // summary (`trace stats`), in each encoding.
    let jsonl = {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        sink.into_writer().expect("in-memory write")
    };
    for (name, bytes) in [
        ("trace_read/cmvb_events", &cmvb),
        ("trace_read/jsonl_events", &jsonl),
    ] {
        let trace = load_trace_bytes(bytes).expect("own trace");
        h.bench_with_items(name, n_events, || {
            let summary = replay::summarize(trace.events()).expect("own trace");
            assert_eq!(summary.events, n_events);
            black_box(summary);
        });
    }

    let mut notes: Vec<(&str, String)> = vec![
        (
            "stress_workload",
            "point:grid=16,demand=600 shuffled seed=9".to_string(),
        ),
        (
            "target",
            "check_sink overhead < 10% vs null_sink on the default workload panel".to_string(),
        ),
        (
            "measures",
            "ExecConfig::new().check(true) vs ExecConfig::new() into a NullSink, one worker: \
             checking adds per-shard buffering sinks, the round-barrier merge and the \
             monitors"
                .to_string(),
        ),
    ];
    // The overhead deltas are computed from paired sampling, not the table
    // above (see `paired_overhead`). Two numbers: the headline figure over
    // the E5/E7 default workload panel (what `--check` costs on the runs
    // users actually make), and the message-dense point-source stress
    // workload above, where nearly every event is a message and the
    // checker's per-message ledger work is proportionally largest.
    if !h.is_quick() {
        let mut panel_null = 0u64;
        let mut panel_check = 0u64;
        for w in default_workloads() {
            let (b, demand) = w.generate().expect("workload fits grid");
            let j = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
            let (null_ns, check_ns) = paired_overhead(b, &j, config, 60);
            panel_null += null_ns;
            panel_check += check_ns;
        }
        let panel_pct = (panel_check as f64 - panel_null as f64) / panel_null as f64 * 100.0;
        notes.push(("check_overhead_pct", format!("{panel_pct:.1}")));
        println!("panel overhead: null {panel_null} ns, check {panel_check} ns -> {panel_pct:.1}%");

        let (null_ns, check_ns) = paired_overhead(bounds, &jobs, config, 100);
        let stress_pct = (check_ns as f64 - null_ns as f64) / null_ns as f64 * 100.0;
        notes.push(("check_overhead_stress_pct", format!("{stress_pct:.1}")));
        println!("stress overhead: null {null_ns} ns, check {check_ns} ns -> {stress_pct:.1}%");

        // Binary-vs-JSONL trace encoding: paired min-of-samples events/s
        // on each side, plus the byte cost per event of each encoding.
        let (jsonl_ns, bin_ns) = paired_trace_write(&events, 200);
        let per_sec = |ns: u64| events.len() as f64 / (ns as f64 / 1e9);
        let speedup = jsonl_ns as f64 / bin_ns as f64;
        notes.push((
            "trace_write_jsonl_events_per_sec",
            format!("{:.0}", per_sec(jsonl_ns)),
        ));
        notes.push((
            "trace_write_bin_events_per_sec",
            format!("{:.0}", per_sec(bin_ns)),
        ));
        notes.push(("bin_speedup_vs_jsonl", format!("{speedup:.1}x")));
        let jsonl_bytes = {
            let mut sink = JsonlSink::new(Vec::new());
            for ev in &events {
                sink.record(ev);
            }
            sink.flush_events();
            sink.into_writer().expect("in-memory write").len()
        };
        let bin_bytes = {
            let mut sink = BinSink::new(Vec::new());
            for ev in &events {
                sink.record(ev);
            }
            sink.flush_events();
            sink.into_writer().expect("in-memory write").len()
        };
        notes.push((
            "jsonl_bytes_per_event",
            format!("{:.1}", jsonl_bytes as f64 / events.len() as f64),
        ));
        notes.push((
            "bin_bytes_per_event",
            format!("{:.1}", bin_bytes as f64 / events.len() as f64),
        ));
        println!(
            "trace write: jsonl {jsonl_ns} ns ({:.0} ev/s, {:.1} B/ev), bin {bin_ns} ns \
             ({:.0} ev/s, {:.1} B/ev) -> {speedup:.1}x",
            per_sec(jsonl_ns),
            jsonl_bytes as f64 / events.len() as f64,
            per_sec(bin_ns),
            bin_bytes as f64 / events.len() as f64,
        );
    }
    let baseline = h.baseline_notes();
    notes.extend(baseline.iter().map(|(k, v)| (k.as_str(), v.clone())));
    // `cargo bench` runs with the package dir as cwd; anchor the snapshot
    // at the workspace root so it lands next to BENCH.md.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    if let Err(e) = h.write_snapshot(&out, &notes) {
        eprintln!("warning: could not write {}: {e}", out.display());
    }
    h.finish();
}

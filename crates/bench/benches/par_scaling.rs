//! Bench: parallel scaling of the sharded engine at 1/2/4/8 workers on
//! the same workloads, reported as events/sec alongside wall-clock.
//! Writes `BENCH_par.json` at the repo root; the notes carry an
//! events/s-per-worker scaling-efficiency row per workload (min of
//! samples, with the order of worker counts rotated between repetitions
//! so no count always runs first), the sparse-memory evidence from a
//! million-vehicle grid, and a peak-RSS
//! comparison of the streaming round-barrier merge against the old
//! buffer-everything drain (each measured in its own subprocess, so the
//! `VmHWM` high-water marks don't contaminate each other), and a
//! `serve` saturation panel: concurrent wire sessions driving the
//! line-delimited JSON server, reported as jobs/s at each session count
//! with events/s and the serving process' peak RSS in the notes.
//! `--baseline=PATH` pairs every row with a snapshot another build of this
//! bench wrote.

use cmvrp_bench::harness::{peak_rss_kb, Harness};
use cmvrp_engine::{ExecConfig, ShardedOnlineSim};
use cmvrp_grid::GridBounds;
use cmvrp_obs::{JsonlSink, NullSink, Sink, VecSink};
use cmvrp_online::OnlineConfig;
use cmvrp_serve::{ServeConfig, Server};
use cmvrp_workloads::{arrivals, spatial, JobSequence, Ordering, WorkloadConfig};
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SERVE_SESSIONS: [usize; 3] = [1, 2, 4];
const SERVE_JOBS: u64 = 400;

fn jobs_for(cfg: &WorkloadConfig) -> (GridBounds<2>, JobSequence<2>) {
    let (bounds, demand) = cfg.generate().expect("workload fits grid");
    (
        bounds,
        arrivals::from_demand(&demand, Ordering::Shuffled, 7),
    )
}

/// Events in the run's trace (identical for every worker count).
fn event_count(bounds: GridBounds<2>, jobs: &JobSequence<2>) -> u64 {
    let mut sink = VecSink::new();
    let exec = ExecConfig::new()
        .execute(bounds, jobs, OnlineConfig::default(), &mut sink)
        .expect("count run");
    assert_eq!(exec.report.unserved, 0);
    sink.len() as u64
}

/// One untraced run on `exec`, timed by the caller.
fn run_sharded(exec: &ExecConfig, bounds: GridBounds<2>, jobs: &JobSequence<2>) {
    let mut sim = ShardedOnlineSim::<2>::new(bounds, jobs, OnlineConfig::default());
    let report = sim.run(exec, &mut NullSink);
    assert_eq!(report.unserved, 0);
    black_box(report);
}

/// Min-of-samples wall-clock at every worker count. Repetition `r` starts
/// at the `r`-th worker count and wraps around, so no count always runs
/// first.
fn scaling_samples(
    bounds: GridBounds<2>,
    jobs: &JobSequence<2>,
    reps: usize,
) -> [u64; WORKER_COUNTS.len()] {
    let mut best = [u64::MAX; WORKER_COUNTS.len()];
    for rep in 0..reps {
        for k in 0..WORKER_COUNTS.len() {
            let i = (rep + k) % WORKER_COUNTS.len();
            let exec = ExecConfig::new().threads(WORKER_COUNTS[i]);
            let t = std::time::Instant::now();
            run_sharded(&exec, bounds, jobs);
            best[i] = best[i].min(t.elapsed().as_nanos() as u64);
        }
    }
    best
}

/// The long point-source workload for the peak-RSS comparison: one hot
/// cube, enough demand that the merged trace dwarfs the simulator state.
fn rss_workload() -> (GridBounds<2>, JobSequence<2>) {
    let bounds = GridBounds::<2>::square(16);
    let demand = spatial::point(&bounds, 30_000);
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    (bounds, jobs)
}

/// Child mode for the peak-RSS comparison (`--rss=streaming|buffered`):
/// runs the workload on the 2-worker sharded engine, either streaming the
/// merged trace straight to a discarding writer (the round-barrier merge
/// holds at most one round's events) or first accumulating the whole
/// merged trace in memory and serializing afterwards — the shape of the
/// pre-streaming pipeline. Prints this process' `VmHWM` so the parent can
/// compare high-water marks that never shared an address space.
fn rss_child(mode: &str) {
    let (bounds, jobs) = rss_workload();
    let config = OnlineConfig::default();
    let engine = ExecConfig::new().threads(2);
    let events = match mode {
        "streaming" => {
            let mut sink = JsonlSink::new(std::io::sink());
            let exec = engine
                .execute(bounds, &jobs, config, &mut sink)
                .expect("streaming run");
            assert_eq!(exec.report.unserved, 0);
            sink.written()
        }
        "buffered" => {
            let mut sink = VecSink::new();
            let exec = engine
                .execute(bounds, &jobs, config, &mut sink)
                .expect("buffered run");
            assert_eq!(exec.report.unserved, 0);
            let events = sink.len() as u64;
            let mut out = JsonlSink::new(std::io::sink());
            for ev in sink.drain() {
                out.record(&ev);
            }
            out.flush_events();
            events
        }
        other => panic!("unknown --rss mode {other:?}"),
    };
    let kb = peak_rss_kb().expect("VmHWM (Linux procfs)");
    println!("peak_rss_kb={kb} events={events}");
}

/// The client script for one saturation session: open a live session
/// provisioned for `jobs` point-source arrivals, inject them all, drain,
/// close. Every job sits at the grid center, so sessions are independent
/// and the server's work scales linearly with the job count.
fn serve_script(session: &str, jobs: u64) -> String {
    let mut s = format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\
         \"workload\":\"point:grid=11,demand={jobs}\",\"threads\":2,\
         \"preload\":false}}\n"
    );
    for _ in 0..jobs {
        s.push_str(&format!(
            "{{\"op\":\"inject\",\"session\":\"{session}\",\"job\":[5,5]}}\n"
        ));
    }
    s.push_str(&format!(
        "{{\"op\":\"advance\",\"session\":\"{session}\"}}\n"
    ));
    s.push_str(&format!("{{\"op\":\"close\",\"session\":\"{session}\"}}\n"));
    s
}

/// The `"events"` count from the close response (the line that also
/// carries `"served"`).
fn close_events(text: &str) -> u64 {
    let line = text
        .lines()
        .rev()
        .find(|l| l.contains("\"served\":"))
        .expect("close response");
    let at = line.find("\"events\":").expect("events field") + "\"events\":".len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("event count")
}

/// One saturation round: a fresh server on an ephemeral port serving
/// exactly `sessions` connections, each connection a client thread
/// injecting `jobs_per` jobs over the wire and draining its session.
/// Returns the total trace events the server reported across sessions.
fn serve_round(sessions: usize, jobs_per: u64) -> u64 {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 1,
        connections: sessions as u64,
    })
    .expect("bind server");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::scope(|scope| {
        let host = scope.spawn(move || server.run().expect("serve"));
        let clients: Vec<_> = (0..sessions)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let script = serve_script(&format!("s{i}"), jobs_per);
                    let mut out = Vec::new();
                    let mut input = std::io::Cursor::new(script.into_bytes());
                    cmvrp_serve::send(&addr, &mut input, &mut out).expect("client send");
                    let text = String::from_utf8(out).expect("utf8 responses");
                    assert!(text.contains(&format!("\"served\":{jobs_per}")), "{text}");
                    close_events(&text)
                })
            })
            .collect();
        let events = clients.into_iter().map(|c| c.join().expect("client")).sum();
        host.join().expect("server thread");
        events
    })
}

/// Child mode for the serve saturation panel (`--serve-sat=SxJ`): runs
/// the S-session round three times in this otherwise-idle process and
/// prints the best wall-clock, the per-round event total, and `VmHWM`,
/// so the parent's own allocations never inflate the reported RSS.
fn serve_sat_child(spec: &str) {
    let (s, j) = spec.split_once('x').expect("SxJ spec");
    let sessions: usize = s.parse().expect("session count");
    let jobs_per: u64 = j.parse().expect("jobs per session");
    let mut best_ns = u64::MAX;
    let mut events = 0u64;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        events = serve_round(sessions, jobs_per);
        best_ns = best_ns.min(t.elapsed().as_nanos() as u64);
    }
    let kb = peak_rss_kb().expect("VmHWM (Linux procfs)");
    println!("ns={best_ns} events={events} peak_rss_kb={kb}");
}

/// Parent side of the saturation panel: one subprocess per session
/// count, returning `(sessions, best_ns, events, peak_kb)` rows.
fn serve_saturation() -> Vec<(usize, u64, u64, u64)> {
    let exe = std::env::current_exe().expect("current exe");
    let mut rows = Vec::new();
    for sessions in SERVE_SESSIONS {
        let out = std::process::Command::new(&exe)
            .arg(format!("--serve-sat={sessions}x{SERVE_JOBS}"))
            .output()
            .expect("spawn serve-sat child");
        assert!(
            out.status.success(),
            "serve-sat child s{sessions} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("ns="))
            .expect("serve-sat child output");
        let mut ns = 0u64;
        let mut events = 0u64;
        let mut kb = 0u64;
        for field in line.split_whitespace() {
            if let Some(v) = field.strip_prefix("ns=") {
                ns = v.parse().expect("ns");
            } else if let Some(v) = field.strip_prefix("events=") {
                events = v.parse().expect("events");
            } else if let Some(v) = field.strip_prefix("peak_rss_kb=") {
                kb = v.parse().expect("kb");
            }
        }
        rows.push((sessions, ns, events, kb));
    }
    rows
}

/// Parent side: run each mode in its own subprocess and return
/// `(mode, peak_kb, events)` per mode.
fn rss_compare() -> Vec<(String, u64, u64)> {
    let exe = std::env::current_exe().expect("current exe");
    let mut rows = Vec::new();
    for mode in ["buffered", "streaming"] {
        let out = std::process::Command::new(&exe)
            .arg(format!("--rss={mode}"))
            .output()
            .expect("spawn rss child");
        assert!(
            out.status.success(),
            "rss child {mode} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("peak_rss_kb="))
            .expect("rss child output");
        let mut kb = 0u64;
        let mut events = 0u64;
        for field in line.split_whitespace() {
            if let Some(v) = field.strip_prefix("peak_rss_kb=") {
                kb = v.parse().expect("kb");
            } else if let Some(v) = field.strip_prefix("events=") {
                events = v.parse().expect("events");
            }
        }
        rows.push((mode.to_string(), kb, events));
    }
    rows
}

fn main() {
    if let Some(mode) = std::env::args().find_map(|a| a.strip_prefix("--rss=").map(String::from)) {
        rss_child(&mode);
        return;
    }
    if let Some(spec) =
        std::env::args().find_map(|a| a.strip_prefix("--serve-sat=").map(String::from))
    {
        serve_sat_child(&spec);
        return;
    }
    let mut h = Harness::start("par_scaling");
    h.set_samples(8);
    // Flag oversubscribed worker counts up front: on a small host the wN
    // columns beyond host_cpus measure scheduling overhead, not speedup.
    for threads in WORKER_COUNTS {
        h.warn_if_oversubscribed(threads);
    }

    // Two scaling workloads on a 64×64 grid (4096 vehicles): spread-out
    // uniform demand (many active cubes, balanced shards) and zipf
    // clusters (diffusion-heavy, imbalanced shards).
    let panel = [
        (
            "uniform64",
            WorkloadConfig::Uniform {
                grid: 64,
                jobs: 4000,
                seed: 7,
            },
        ),
        (
            "clusters64",
            WorkloadConfig::Clusters {
                grid: 64,
                clusters: 8,
                jobs: 6000,
                seed: 7,
            },
        ),
    ];

    for (label, cfg) in &panel {
        let (bounds, jobs) = jobs_for(cfg);
        let shard_events = event_count(bounds, &jobs);
        for threads in WORKER_COUNTS {
            h.bench_with_items(&format!("{label}/sharded_w{threads}"), shard_events, || {
                run_sharded(&ExecConfig::new().threads(threads), bounds, &jobs);
            });
        }
    }

    // The sparse-memory headline: a million-vehicle grid, timed at 4
    // workers (one active cube — this measures the sparse bookkeeping
    // floor, not parallelism). Items are merged trace events, as in every
    // other row.
    let bounds_1m = GridBounds::<2>::square(1024);
    let demand_1m = spatial::point(&bounds_1m, 2000);
    let jobs_1m = arrivals::from_demand(&demand_1m, Ordering::Shuffled, 7);
    let mut materialized = 0u64;
    h.set_samples(3);
    h.bench_with_items(
        "point1024/sharded_w4",
        event_count(bounds_1m, &jobs_1m),
        || {
            let mut sim = ShardedOnlineSim::<2>::new(bounds_1m, &jobs_1m, OnlineConfig::default());
            let report = sim.run(&ExecConfig::new().threads(4), &mut NullSink);
            assert_eq!(report.unserved, 0);
            materialized = sim.materialized_vehicles();
            black_box(report);
        },
    );

    // The serve saturation panel: N concurrent wire sessions, each
    // injecting its whole point workload over TCP and draining. Items =
    // injected jobs, so the harness rate column reads as jobs/s through
    // the full protocol stack (parse, inject, round barriers, trace).
    for sessions in SERVE_SESSIONS {
        h.bench_with_items(
            &format!("serve/s{sessions}x{SERVE_JOBS}"),
            sessions as u64 * SERVE_JOBS,
            || {
                black_box(serve_round(sessions, SERVE_JOBS));
            },
        );
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut notes: Vec<(&str, String)> = vec![
        (
            "methodology",
            "min-of-samples per worker count; the order of worker counts rotates \
             between repetitions so no count always runs first"
                .to_string(),
        ),
        ("host_cpus", host_cpus.to_string()),
        (
            "reading",
            format!(
                "wN>1 adds OS threads, which can only pay off when host_cpus > 1 (this host: \
                 {host_cpus}) — on fewer CPUs than workers the wN columns measure \
                 round-barrier overhead, honestly; rerun on a multi-core host for the \
                 parallel headline"
            ),
        ),
    ];
    if !h.is_quick() {
        for (label, cfg) in &panel {
            let (bounds, jobs) = jobs_for(cfg);
            // Events/s-per-worker relative to the same engine's
            // single-worker run (perfect scaling = 100% at every width).
            let best_ns = scaling_samples(bounds, &jobs, 8);
            for (&threads, &ns) in WORKER_COUNTS.iter().zip(&best_ns) {
                println!("{label}: w{threads} {ns} ns");
            }
            let base = best_ns[0] as f64;
            notes.push((
                match *label {
                    "uniform64" => "uniform64_scaling_efficiency",
                    _ => "clusters64_scaling_efficiency",
                },
                WORKER_COUNTS
                    .iter()
                    .zip(&best_ns)
                    .map(|(&t, &ns)| {
                        // events/s-per-worker relative to w1: t1/(N*tN).
                        format!("w{t}={:.0}%", 100.0 * base / (t as f64 * ns as f64))
                    })
                    .collect::<Vec<_>>()
                    .join(" "),
            ));
        }
        notes.push((
            "scaling_efficiency_methodology",
            "events/s-per-worker, normalized to the same engine at w1 (100% = perfect \
             scaling); min of 8 repetitions, the order of worker counts rotated per \
             repetition"
                .to_string(),
        ));
        notes.push((
            "point1024_materialized_vehicles",
            format!("{materialized} of 1048576 (grid 1024x1024, point d=2000)"),
        ));
        // Streaming vs buffered peak RSS, one subprocess per mode so the
        // VmHWM high-water marks are independent.
        let rss = rss_compare();
        for (mode, kb, events) in &rss {
            println!("rss {mode}: peak {kb} kB over {events} events");
            notes.push((
                match mode.as_str() {
                    "buffered" => "rss_buffered_peak_kb",
                    _ => "rss_streaming_peak_kb",
                },
                format!("{kb} ({events} merged events)"),
            ));
        }
        // Serve saturation: each session count in its own subprocess so
        // the VmHWM rows are per-panel, not cumulative.
        for (sessions, ns, events, kb) in serve_saturation() {
            let secs = ns as f64 / 1e9;
            let jobs = sessions as u64 * SERVE_JOBS;
            println!("serve s{sessions}: {jobs} jobs in {secs:.3}s, {events} events, peak {kb} kB");
            notes.push((
                match sessions {
                    1 => "serve_saturation_s1",
                    2 => "serve_saturation_s2",
                    _ => "serve_saturation_s4",
                },
                format!(
                    "sessions={sessions} jobs/s={:.0} events/s={:.0} peak_rss_kb={kb}",
                    jobs as f64 / secs,
                    events as f64 / secs
                ),
            ));
        }
        notes.push((
            "serve_saturation_methodology",
            format!(
                "each row its own subprocess (best of 3 rounds): N wire clients, one live \
                 session each, injecting point:grid=11,demand={SERVE_JOBS} job-by-job over TCP \
                 then draining; jobs/s counts injected jobs, events/s counts merged trace \
                 events, peak_rss_kb is the serving process' VmHWM. Each session runs a \
                 2-worker engine, so s>1 rows oversubscribe a single CPU (this host: see \
                 host_cpus) and measure protocol+scheduling overhead there, not parallel \
                 serving capacity"
            ),
        ));
        notes.push((
            "rss_methodology",
            "VmHWM per mode in its own subprocess; workload point:grid=16,demand=30000, \
             sharded engine at 2 workers; buffered = accumulate whole merged trace in a \
             VecSink then serialize (the pre-streaming pipeline shape), streaming = \
             round-barrier merge straight into a discarding JSONL writer. Absolute kB are \
             host-dependent; the comparison is the point."
                .to_string(),
        ));
    }
    let baseline = h.baseline_notes();
    notes.extend(baseline.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_par.json");
    if let Err(e) = h.write_snapshot(&out, &notes) {
        eprintln!("warning: could not write {}: {e}", out.display());
    }
    h.finish();
}

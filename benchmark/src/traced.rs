//! The traced pass: the CLI's and the server's call sequences replayed in
//! process through the same public layer functions, each call wrapped in a
//! [`Span`], so the end-to-end time splits into per-layer self times.
//!
//! Differences from the measured program, all deliberate: the run captures
//! its events into memory (with the engine's per-round profile on) and
//! encodes or checks them afterwards, so stepping, encoding and checking
//! time apart; the server's wire layer is absent, since the wire
//! latencies are measured from the client instead; and the Becker and
//! Gørtz–Nagarajan baselines `scenario run` reports are not replayed.

use crate::workloads::{Batch, Encoding, Live};
use cmvrp_engine::ExecConfig;
use cmvrp_grid::{DemandMap, GridBounds};
use cmvrp_obs::{BinSink, Event, JsonlSink, Sink, Span, TraceChecker, VecSink};
use cmvrp_online::OnlineConfig;
use cmvrp_workloads::{arrivals, Ordering};
use std::collections::BTreeMap;
use std::path::Path;

/// The root span of one pass; everything the program would do nests in it.
const ROOT: &str = "run";

/// Spans named `probe.*` time a layer standalone, outside the root span,
/// so they count towards no coverage.
const PROBE_PROVISION: &str = "probe.online.provision";
const PROBE_OMEGA_C: &str = "probe.core.omega_c";

/// Span name → the per-layer metric reporting its self time in seconds.
const TIMED: [(&str, &str); 12] = [
    ("workloads.generate", "workloads.generate_s"),
    (PROBE_PROVISION, "online.provision_s"),
    (PROBE_OMEGA_C, "core.omega_c_s"),
    ("engine.build", "engine.build_s"),
    ("engine.advance", "engine.advance_s"),
    ("engine.finish", "engine.finish_s"),
    ("engine.query", "engine.query_s"),
    ("obs.cmvb_encode", "obs.cmvb_encode_s"),
    ("obs.jsonl_encode", "obs.jsonl_encode_s"),
    ("obs.check", "obs.check_s"),
    ("obs.to_json", "obs.to_json_s"),
    ("core.omega_star", "core.omega_star_s"),
];

/// Spans recorded in memory as `phase_span` events.
#[derive(Debug, Default)]
pub struct Ledger {
    sink: VecSink,
}

impl Ledger {
    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = Span::begin(name);
        let out = f();
        span.end(&mut self.sink);
        out
    }

    fn close(&mut self, span: Span) {
        span.end(&mut self.sink);
    }

    /// The recorded `phase_span` events.
    pub fn spans(&self) -> &[Event] {
        self.sink.events()
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it that spans nested inside it cover. Spans come from one
/// thread, so two spans are either nested or disjoint.
pub fn self_times(spans: &[Event]) -> BTreeMap<String, u64> {
    let mut ivs: Vec<(&str, u64, u64)> = spans
        .iter()
        .filter_map(|ev| match ev {
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            } => Some((name.as_str(), *start_ns, *end_ns)),
            _ => None,
        })
        .collect();
    // Parents sort before the children they contain.
    ivs.sort_by_key(|&(_, start, end)| (start, std::cmp::Reverse(end)));
    let mut covered = vec![0u64; ivs.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in 0..ivs.len() {
        let (_, start, end) = ivs[i];
        while let Some(&top) = open.last() {
            if start >= ivs[top].1 && end <= ivs[top].2 {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            covered[parent] += end - start;
        }
        open.push(i);
    }
    let mut out = BTreeMap::new();
    for (i, &(name, start, end)) in ivs.iter().enumerate() {
        *out.entry(name.to_string()).or_insert(0) += (end - start).saturating_sub(covered[i]);
    }
    out
}

/// What a traced pass produced: its spans, the per-layer metric values,
/// and the facts the correctness gates compare against the CLI's output.
#[derive(Debug, Default)]
pub struct Pass {
    pub ledger: Ledger,
    pub layers: Vec<(&'static str, f64)>,
    /// Duration of the root span, in seconds.
    pub wall_s: f64,
    pub served: u64,
    pub unserved: u64,
    /// Protocol events (the engine's profile samples excluded).
    pub events: u64,
    pub omega_c: String,
    pub omega_star: Option<String>,
    /// `TraceChecker`'s verdict over the stream, when the workload checks.
    pub check_clean: Option<bool>,
}

impl Pass {
    /// Adds the span-derived layers, the root span's duration and the share
    /// of it the layer spans cover.
    fn finish(&mut self, injected: u64) {
        let selfs = self_times(self.ledger.spans());
        let ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
        for (span, metric) in TIMED {
            self.layers.push((metric, ns(span) / 1e9));
        }
        if injected > 0 {
            self.layers
                .push(("engine.inject_ns", ns("engine.inject") / injected as f64));
        }
        self.wall_s = self
            .ledger
            .spans()
            .iter()
            .find_map(|ev| match ev {
                Event::PhaseSpan {
                    name,
                    start_ns,
                    end_ns,
                } if name == ROOT => Some((end_ns - start_ns) as f64 / 1e9),
                _ => None,
            })
            .unwrap_or(0.0);
        if self.wall_s > 0.0 {
            let coverage = 1.0 - ns(ROOT) / 1e9 / self.wall_s;
            self.layers.push(("trace.coverage", coverage));
        }
    }

    /// Adds the engine's profile samples as stepping and merge time, and
    /// counts the protocol events.
    fn profile(&mut self, events: &[Event]) {
        let (mut busy, mut merge) = (0i64, 0i64);
        for ev in events {
            if let Event::RoundProfile {
                busy_ns, merge_ns, ..
            } = ev
            {
                busy += busy_ns;
                merge += merge_ns;
            }
        }
        self.events = protocol(events).count() as u64;
        self.layers.extend([
            ("engine.stepping_s", busy as f64 / 1e9),
            ("engine.merge_s", merge as f64 / 1e9),
            ("engine.events", self.events as f64),
        ]);
    }

    fn report(&mut self, run: &cmvrp_engine::Execution, rounds: u64) {
        let report = &run.report;
        self.served = report.served;
        self.unserved = report.unserved;
        self.omega_c = report.omega_c.to_string();
        self.layers.extend([
            ("engine.rounds", rounds as f64),
            ("online.replacements", report.replacements as f64),
            (
                "online.failed_replacements",
                report.failed_replacements as f64,
            ),
            ("net.messages", report.messages as f64),
            ("net.diffusions", report.diffusions as f64),
        ]);
    }

    /// Times provisioning and ω_c standalone, outside the root span.
    fn probes(&mut self, bounds: &GridBounds<2>, demand: &DemandMap<2>, online: &OnlineConfig) {
        self.ledger.time(PROBE_PROVISION, || {
            cmvrp_online::provision(bounds, demand, online)
        });
        self.ledger
            .time(PROBE_OMEGA_C, || cmvrp_core::omega_c(bounds, demand));
    }
}

/// The events the program writes: everything but the profile samples the
/// traced pass asks the engine for.
fn protocol(events: &[Event]) -> impl Iterator<Item = &Event> {
    events
        .iter()
        .filter(|ev| !matches!(ev, Event::RoundProfile { .. }))
}

/// The engine as the CLI and the server run it on this benchmark, plus the
/// per-round profile that splits stepping from merging.
fn engine() -> ExecConfig {
    ExecConfig::new().threads(1).profile(true)
}

/// Records the protocol events into a freshly created file sink and
/// flushes it.
fn encode<S: Sink>(
    created: std::io::Result<S>,
    events: &[Event],
    finish: impl FnOnce(S) -> std::io::Result<u64>,
) -> Result<(), String> {
    let mut sink = created.map_err(|e| format!("cannot create the traced output: {e}"))?;
    for ev in protocol(events) {
        sink.record(ev);
    }
    finish(sink)
        .map(|_| ())
        .map_err(|e| format!("writing the traced output: {e}"))
}

/// Replays one batch run — `cmvrp simulate` or `cmvrp scenario run` — and
/// writes the trace it would write to `trace_out`.
pub fn batch(b: &Batch, trace_out: &Path) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let root = Span::begin(ROOT);
    let (bounds, demand, jobs) = pass.ledger.time("workloads.generate", || {
        let (bounds, demand) = b.demand.generate().map_err(|e| e.to_string())?;
        let jobs = b.arrivals.sequence(&demand);
        Ok::<_, String>((bounds, demand, jobs))
    })?;
    let online = OnlineConfig {
        seed: b.seed,
        ..OnlineConfig::default()
    };
    let mut session = pass
        .ledger
        .time("engine.build", || engine().build(bounds, &jobs, online))
        .map_err(|e| e.to_string())?;
    let mut capture = VecSink::new();
    let step = pass
        .ledger
        .time("engine.advance", || session.drain(&mut capture));
    let run = pass.ledger.time("engine.finish", || session.finish());
    let events = capture.drain();
    let bytes_metric = match &b.trace {
        Some((Encoding::Cmvb, _)) => {
            pass.ledger.time("obs.cmvb_encode", || {
                encode(BinSink::create(trace_out), &events, BinSink::finish)
            })?;
            Some("obs.cmvb_bytes_per_event")
        }
        Some((Encoding::Jsonl, _)) => {
            pass.ledger.time("obs.jsonl_encode", || {
                encode(JsonlSink::create(trace_out), &events, JsonlSink::finish)
            })?;
            Some("obs.jsonl_bytes_per_event")
        }
        None => None,
    };
    if b.check {
        let clean = pass.ledger.time("obs.check", || {
            let mut checker = TraceChecker::new();
            for ev in protocol(&events) {
                checker.observe(ev);
            }
            checker.finish();
            checker.is_clean()
        });
        pass.check_clean = Some(clean);
    }
    pass.report(&run, step.rounds);
    if b.report {
        let star = pass.ledger.time("core.omega_star", || {
            cmvrp_core::omega_star(&bounds, &demand)
        });
        let omega_c = pass
            .ledger
            .time("core.omega_c", || cmvrp_core::omega_c(&bounds, &demand));
        pass.omega_c = omega_c.to_string();
        pass.omega_star = Some(star.value.to_string());
        pass.layers
            .push(("core.omega_star_steps", star.radius_steps as f64));
    }
    pass.ledger.close(root);
    pass.profile(&events);
    if let Some(metric) = bytes_metric {
        let bytes = std::fs::metadata(trace_out)
            .map_err(|e| format!("cannot stat {}: {e}", trace_out.display()))?
            .len();
        pass.layers
            .push((metric, bytes as f64 / pass.events.max(1) as f64));
    }
    pass.probes(&bounds, &demand, &online);
    pass.finish(0);
    Ok(pass)
}

/// Replays one `cmvrp serve` session as the server executes it: open,
/// inject every job with a drain and a query after each batch, format the
/// trace, close.
pub fn live(l: &Live) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let root = Span::begin(ROOT);
    // The planning jobs, as the `open` op derives them from its spec.
    let (bounds, demand, jobs) = pass.ledger.time("workloads.generate", || {
        let (bounds, demand) = l.demand.generate().map_err(|e| e.to_string())?;
        let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, l.seed);
        Ok::<_, String>((bounds, demand, jobs))
    })?;
    let online = OnlineConfig {
        seed: l.seed,
        ..OnlineConfig::default()
    };
    let mut session = pass
        .ledger
        .time("engine.build", || {
            engine().build_live(bounds, &jobs, online)
        })
        .map_err(|e| e.to_string())?;
    let mut sink = VecSink::new();
    let mut rounds = 0;
    for batch in l.jobs.chunks(l.batch) {
        pass.ledger
            .time("engine.inject", || {
                batch.iter().try_for_each(|&job| session.inject(job))
            })
            .map_err(|e| e.to_string())?;
        rounds += pass
            .ledger
            .time("engine.advance", || session.drain(&mut sink))
            .rounds;
        pass.ledger
            .time("engine.query", || std::hint::black_box(session.report()));
    }
    let events = sink.drain();
    pass.ledger.time("obs.to_json", || {
        std::hint::black_box(
            protocol(&events)
                .map(|ev| ev.to_json().len())
                .sum::<usize>(),
        )
    });
    let run = pass.ledger.time("engine.finish", || session.finish());
    pass.ledger.close(root);
    pass.report(&run, rounds);
    pass.profile(&events);
    pass.probes(&bounds, &demand, &online);
    pass.finish(l.jobs.len() as u64);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64) -> Event {
        Event::PhaseSpan {
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let spans = [
            span("run", 0, 100),
            span("a", 10, 40),
            span("a.inner", 15, 25),
            span("b", 40, 90),
            span("probe", 120, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["run"], 20);
        assert_eq!(selfs["a"], 20);
        assert_eq!(selfs["a.inner"], 10);
        assert_eq!(selfs["b"], 50);
        assert_eq!(selfs["probe"], 10);
    }
}

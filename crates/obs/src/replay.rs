//! Trace replay: rebuild a run's headline numbers from its JSONL trace
//! alone.
//!
//! `cmvrp trace stats <trace>` uses this to check that a trace is
//! self-contained — served/unserved job counts, message-wave totals, and
//! the delay distribution must all be derivable without rerunning the
//! simulator.

use crate::event::{DropReason, Event};
use crate::metrics::Histogram;
use std::collections::BTreeMap;

/// Aggregate counts reconstructed from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplaySummary {
    /// Total events parsed.
    pub events: u64,
    /// `msg_sent` events.
    pub msgs_sent: u64,
    /// `msg_delivered` events.
    pub msgs_delivered: u64,
    /// `msg_dropped` with reason `lost`.
    pub msgs_lost: u64,
    /// `msg_dropped` with reason `crashed`.
    pub msgs_to_crashed: u64,
    /// `job_arrived` events.
    pub jobs_arrived: u64,
    /// `job_served` events.
    pub jobs_served: u64,
    /// Total energy charged across `job_served` events.
    pub energy: u64,
    /// `diffusion_started` events.
    pub diffusions_started: u64,
    /// `diffusion_completed` events.
    pub diffusions_completed: u64,
    /// `diffusion_completed` events with `found: true`.
    pub diffusions_found: u64,
    /// `replacement_cycle` events.
    pub replacement_cycles: u64,
    /// `heartbeat_missed` events.
    pub heartbeat_misses: u64,
    /// `process_crashed` events.
    pub crashes: u64,
    /// Fleet size from the last `fleet_provisioned` event, if any.
    pub fleet_vehicles: Option<u64>,
    /// Battery capacity `W` from the last `fleet_provisioned` event.
    pub fleet_capacity: Option<u64>,
    /// `round_profile` flight-recorder samples.
    pub round_profiles: u64,
    /// Largest simulation time stamped on any event.
    pub last_t: u64,
    /// Delivery-delay histogram over `msg_delivered` events, if any.
    pub delay_hist: Option<Histogram>,
    /// Total nanoseconds per phase-span name.
    pub span_ns: BTreeMap<String, u64>,
}

impl ReplaySummary {
    /// Jobs that arrived but were never served.
    pub fn jobs_unserved(&self) -> u64 {
        self.jobs_arrived.saturating_sub(self.jobs_served)
    }

    /// Renders the summary as `(name, value)` rows for table output,
    /// in a stable order.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = vec![
            ("events".into(), self.events.to_string()),
            ("msgs_sent".into(), self.msgs_sent.to_string()),
            ("msgs_delivered".into(), self.msgs_delivered.to_string()),
            ("msgs_lost".into(), self.msgs_lost.to_string()),
            ("msgs_to_crashed".into(), self.msgs_to_crashed.to_string()),
            ("jobs_arrived".into(), self.jobs_arrived.to_string()),
            ("jobs_served".into(), self.jobs_served.to_string()),
            ("jobs_unserved".into(), self.jobs_unserved().to_string()),
            ("energy".into(), self.energy.to_string()),
            (
                "diffusions_started".into(),
                self.diffusions_started.to_string(),
            ),
            (
                "diffusions_completed".into(),
                self.diffusions_completed.to_string(),
            ),
            ("diffusions_found".into(), self.diffusions_found.to_string()),
            (
                "replacement_cycles".into(),
                self.replacement_cycles.to_string(),
            ),
            ("heartbeat_misses".into(), self.heartbeat_misses.to_string()),
            ("crashes".into(), self.crashes.to_string()),
            ("last_t".into(), self.last_t.to_string()),
        ];
        if self.round_profiles > 0 {
            rows.push(("round_profiles".into(), self.round_profiles.to_string()));
        }
        if let Some(v) = self.fleet_vehicles {
            rows.push(("fleet_vehicles".into(), v.to_string()));
        }
        if let Some(w) = self.fleet_capacity {
            rows.push(("fleet_capacity".into(), w.to_string()));
        }
        if let Some(h) = &self.delay_hist {
            rows.push(("msg_delay.mean".into(), format!("{:.2}", h.mean())));
            rows.push(("msg_delay.max".into(), h.max().to_string()));
        }
        for (name, ns) in &self.span_ns {
            rows.push((format!("span.{name}.ns"), ns.to_string()));
        }
        rows
    }

    /// Folds one event into the summary.
    pub fn absorb(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::MsgSent { t, .. } => {
                self.msgs_sent += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::MsgDelivered { t, delay, .. } => {
                self.msgs_delivered += 1;
                self.last_t = self.last_t.max(*t);
                self.delay_hist
                    .get_or_insert_with(|| Histogram::with_bounds(&crate::metrics::DEFAULT_BUCKETS))
                    .observe(*delay);
            }
            Event::MsgDropped { t, reason, .. } => {
                match reason {
                    DropReason::Lost => self.msgs_lost += 1,
                    DropReason::RecipientCrashed => self.msgs_to_crashed += 1,
                }
                self.last_t = self.last_t.max(*t);
            }
            Event::JobArrived { t, .. } => {
                self.jobs_arrived += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::JobServed { t, cost, .. } => {
                self.jobs_served += 1;
                self.energy += cost;
                self.last_t = self.last_t.max(*t);
            }
            Event::DiffusionStarted { t, .. } => {
                self.diffusions_started += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::DiffusionCompleted { t, found, .. } => {
                self.diffusions_completed += 1;
                if *found {
                    self.diffusions_found += 1;
                }
                self.last_t = self.last_t.max(*t);
            }
            Event::ReplacementCycle { t, .. } => {
                self.replacement_cycles += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::HeartbeatMissed { t, .. } => {
                self.heartbeat_misses += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::FleetProvisioned {
                t,
                vehicles,
                capacity,
            } => {
                self.fleet_vehicles = Some(*vehicles);
                self.fleet_capacity = Some(*capacity);
                self.last_t = self.last_t.max(*t);
            }
            Event::ProcessCrashed { t, .. } => {
                self.crashes += 1;
                self.last_t = self.last_t.max(*t);
            }
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            } => {
                let entry = self.span_ns.entry(name.clone()).or_insert(0);
                *entry += end_ns.saturating_sub(*start_ns);
            }
            Event::RoundProfile { .. } => {
                self.round_profiles += 1;
            }
        }
    }
}

/// Summarizes a trace from its JSONL lines; blank lines are skipped.
///
/// # Errors
///
/// Returns `(1-based line number, parse error)` for the first malformed
/// line.
pub fn summarize<'a, I>(lines: I) -> Result<ReplaySummary, (usize, String)>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut summary = ReplaySummary::default();
    for item in crate::event::jsonl_events(lines) {
        summary.absorb(&item?.2);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Event> {
        vec![
            Event::FleetProvisioned {
                t: 0,
                vehicles: 16,
                capacity: 9,
            },
            Event::JobArrived {
                t: 1,
                seq: 0,
                pos: vec![2, 2],
            },
            Event::MsgSent {
                t: 1,
                from: 0,
                to: 1,
                kind: None,
            },
            Event::MsgDelivered {
                t: 3,
                from: 0,
                to: 1,
                delay: 2,
                kind: None,
            },
            Event::MsgSent {
                t: 3,
                from: 1,
                to: 0,
                kind: None,
            },
            Event::MsgDropped {
                t: 4,
                from: 1,
                to: 0,
                reason: DropReason::Lost,
                kind: None,
            },
            Event::JobArrived {
                t: 5,
                seq: 1,
                pos: vec![0, 0],
            },
            Event::JobServed {
                t: 5,
                seq: 1,
                vehicle: 7,
                cost: 3,
            },
            Event::DiffusionStarted {
                t: 6,
                initiator: 7,
                generation: 0,
            },
            Event::DiffusionCompleted {
                t: 9,
                initiator: 7,
                generation: 0,
                found: true,
            },
            Event::ReplacementCycle {
                t: 12,
                vehicle: 8,
                dest: vec![2, 2],
                dist: 4,
            },
            Event::ProcessCrashed { t: 13, proc: 3 },
            Event::HeartbeatMissed {
                t: 14,
                watcher: 2,
                peer: 3,
            },
            Event::PhaseSpan {
                name: "solve".into(),
                start_ns: 100,
                end_ns: 350,
            },
            Event::PhaseSpan {
                name: "solve".into(),
                start_ns: 400,
                end_ns: 450,
            },
        ]
    }

    #[test]
    fn summarize_reconstructs_counts() {
        let lines: Vec<String> = trace().iter().map(Event::to_json).collect();
        let s = summarize(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(s.events, 15);
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.msgs_delivered, 1);
        assert_eq!(s.msgs_lost, 1);
        assert_eq!(s.msgs_to_crashed, 0);
        assert_eq!(s.jobs_arrived, 2);
        assert_eq!(s.jobs_served, 1);
        assert_eq!(s.jobs_unserved(), 1);
        assert_eq!(s.energy, 3);
        assert_eq!(s.diffusions_started, 1);
        assert_eq!(s.diffusions_completed, 1);
        assert_eq!(s.diffusions_found, 1);
        assert_eq!(s.replacement_cycles, 1);
        assert_eq!(s.heartbeat_misses, 1);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.fleet_vehicles, Some(16));
        assert_eq!(s.fleet_capacity, Some(9));
        assert_eq!(s.last_t, 14);
        assert_eq!(s.delay_hist.as_ref().unwrap().count(), 1);
        assert_eq!(s.span_ns.get("solve"), Some(&300));
    }

    #[test]
    fn blank_lines_skipped_bad_lines_located() {
        let good = Event::MsgSent {
            t: 0,
            from: 0,
            to: 1,
            kind: None,
        }
        .to_json();
        let s = summarize(vec![good.as_str(), "", "  "]).unwrap();
        assert_eq!(s.events, 1);
        let err = summarize(vec![good.as_str(), "", "nope"]).unwrap_err();
        assert_eq!(err.0, 3);
    }

    #[test]
    fn malformed_first_line_is_line_one() {
        // Line numbers are 1-based everywhere: the very first line must be
        // reported as line 1, not 0.
        let err = summarize(vec!["not json"]).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn rows_include_spans_and_delays() {
        let lines: Vec<String> = trace().iter().map(Event::to_json).collect();
        let s = summarize(lines.iter().map(String::as_str)).unwrap();
        let rows = s.rows();
        assert!(rows.iter().any(|(n, v)| n == "span.solve.ns" && v == "300"));
        assert!(rows.iter().any(|(n, _)| n == "msg_delay.mean"));
        assert!(rows.iter().any(|(n, v)| n == "jobs_unserved" && v == "1"));
    }
}

//! Heartbeat failure detection (§3.2.5).
//!
//! For scenarios 2 and 3 of the thesis — done vehicles that fail to initiate
//! a diffusing computation, and a constant number of vehicles breaking down
//! outright — each active vehicle carries a "monitoring" pointer to one
//! neighbor and that neighbor sends periodic `existing` messages. When the
//! monitored vehicle stays silent past a timeout, the monitor initiates the
//! replacement computation on its behalf.
//!
//! [`HeartbeatMonitor`] is the timing half of that scheme: it records
//! arrival times of `existing` messages and reports which monitored peers
//! have gone silent.

use crate::sim::ProcessId;
use std::collections::BTreeMap;

/// Tracks the last time each monitored peer was heard from.
///
/// # Examples
///
/// ```
/// use cmvrp_net::HeartbeatMonitor;
///
/// let mut hb = HeartbeatMonitor::new(10);
/// hb.watch(3, 0);
/// hb.record(3, 5);
/// assert!(hb.expired(14).is_empty());
/// assert_eq!(hb.expired(16), vec![3]); // silent since t=5, timeout 10
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeartbeatMonitor {
    timeout: u64,
    last_seen: BTreeMap<ProcessId, u64>,
}

impl HeartbeatMonitor {
    /// Creates a monitor that declares a peer suspect after `timeout` time
    /// units of silence.
    ///
    /// # Panics
    ///
    /// Panics if `timeout == 0`.
    pub fn new(timeout: u64) -> Self {
        assert!(timeout > 0, "timeout must be positive");
        HeartbeatMonitor {
            timeout,
            last_seen: BTreeMap::new(),
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Begins monitoring `peer`, treating `now` as its last sign of life.
    pub fn watch(&mut self, peer: ProcessId, now: u64) {
        self.last_seen.insert(peer, now);
    }

    /// Stops monitoring `peer` (e.g. after it was replaced).
    pub fn unwatch(&mut self, peer: ProcessId) {
        self.last_seen.remove(&peer);
    }

    /// When `peer` was last heard from, if it is monitored.
    pub fn last_seen(&self, peer: ProcessId) -> Option<u64> {
        self.last_seen.get(&peer).copied()
    }

    /// Whether `peer` is currently monitored.
    pub fn is_watching(&self, peer: ProcessId) -> bool {
        self.last_seen.contains_key(&peer)
    }

    /// Records an `existing` message from `peer` at time `now`. Ignored for
    /// peers not being watched.
    pub fn record(&mut self, peer: ProcessId, now: u64) {
        if let Some(t) = self.last_seen.get_mut(&peer) {
            *t = (*t).max(now);
        }
    }

    /// Peers silent for strictly longer than the timeout at time `now`, in
    /// ascending id order.
    pub fn expired(&self, now: u64) -> Vec<ProcessId> {
        self.last_seen
            .iter()
            .filter(|(_, &seen)| now > seen + self.timeout)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Number of monitored peers.
    pub fn len(&self) -> usize {
        self.last_seen.len()
    }

    /// Whether no peers are monitored.
    pub fn is_empty(&self) -> bool {
        self.last_seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peer_not_expired() {
        let mut hb = HeartbeatMonitor::new(5);
        hb.watch(1, 100);
        assert!(hb.expired(105).is_empty());
        assert_eq!(hb.expired(106), vec![1]);
    }

    #[test]
    fn record_refreshes() {
        let mut hb = HeartbeatMonitor::new(5);
        hb.watch(1, 0);
        hb.record(1, 10);
        assert!(hb.expired(15).is_empty());
        assert_eq!(hb.expired(16), vec![1]);
    }

    #[test]
    fn record_never_goes_backwards() {
        let mut hb = HeartbeatMonitor::new(5);
        hb.watch(1, 10);
        hb.record(1, 3); // late/stale message
        assert!(hb.expired(15).is_empty());
    }

    #[test]
    fn unwatched_peer_ignored() {
        let mut hb = HeartbeatMonitor::new(5);
        hb.record(7, 100);
        assert!(hb.is_empty());
        assert!(hb.expired(1000).is_empty());
    }

    #[test]
    fn multiple_peers_sorted() {
        let mut hb = HeartbeatMonitor::new(2);
        hb.watch(5, 0);
        hb.watch(2, 0);
        hb.watch(9, 10);
        assert_eq!(hb.expired(5), vec![2, 5]);
        assert_eq!(hb.len(), 3);
    }

    #[test]
    fn unwatch_removes() {
        let mut hb = HeartbeatMonitor::new(2);
        hb.watch(1, 0);
        hb.unwatch(1);
        assert!(!hb.is_watching(1));
        assert!(hb.expired(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timeout_rejected() {
        let _ = HeartbeatMonitor::new(0);
    }
}

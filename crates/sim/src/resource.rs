//! Shared-resource models.
//!
//! The fabric bottlenecks in the paper — PCIe links, IOH directions,
//! the 10 GbE wire — are all "serve bytes in FIFO order at a fixed
//! rate, plus a fixed per-transaction overhead". [`BandwidthServer`]
//! captures exactly that: callers submit a transaction at the current
//! virtual time and get back its completion time; queueing delay is
//! implicit in the server's `next_free` horizon.

use crate::time::{transfer_ns, Time};

/// A FIFO store-and-forward server with a byte rate and a fixed
/// per-transaction overhead.
///
/// Completion of a transaction submitted at `now` is
/// `max(now, next_free) + overhead + bytes/rate`, and the server is
/// busy until then. This is the classic M/G/1-style service abstraction
/// used for every link in the simulated machine.
///
/// A server can carry a trace label ([`BandwidthServer::set_trace`]);
/// labelled servers emit one `fabric`-category span per transaction
/// when that category is enabled, covering exactly the service
/// interval (queueing shows up as the gap before the span starts).
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    /// Service rate in bits per second.
    bits_per_sec: u64,
    /// Fixed cost per transaction (DMA setup, PCIe TLP overheads...).
    overhead: Time,
    /// Earliest instant the server can start a new transaction.
    next_free: Time,
    /// Total bytes served.
    bytes_served: u64,
    /// Trace span name; `None` keeps the server silent.
    trace_name: Option<&'static str>,
    /// Trace lane (instance index: IOH number, port number...).
    trace_lane: u32,
}

impl BandwidthServer {
    /// A server with `bits_per_sec` capacity and `overhead` ns fixed
    /// cost per transaction.
    pub fn new(bits_per_sec: u64, overhead: Time) -> Self {
        assert!(bits_per_sec > 0, "a link must have positive capacity");
        BandwidthServer {
            bits_per_sec,
            overhead,
            next_free: 0,
            bytes_served: 0,
            trace_name: None,
            trace_lane: 0,
        }
    }

    /// Label this server for tracing: `name` becomes the span name
    /// (e.g. `"ioh.d2h"`, `"wire.rx"`), `lane` the instance index.
    pub fn set_trace(&mut self, name: &'static str, lane: u32) {
        self.trace_name = Some(name);
        self.trace_lane = lane;
    }

    /// The configured rate in bits per second.
    pub fn bits_per_sec(&self) -> u64 {
        self.bits_per_sec
    }

    /// Submit a transaction of `bytes` at time `now`; returns its
    /// completion time and occupies the server until then.
    pub fn submit(&mut self, now: Time, bytes: u64) -> Time {
        let start = self.next_free.max(now);
        let service = self.overhead + transfer_ns(bytes, self.bits_per_sec);
        let done = start + service;
        self.next_free = done;
        self.bytes_served += bytes;
        if let Some(name) = self.trace_name {
            ps_trace::complete(
                ps_trace::Category::Fabric,
                name,
                self.trace_lane,
                start,
                done,
                || vec![("bytes", bytes), ("wait", start - now)],
            );
        }
        done
    }

    /// Occupy the server for `ns` without moving any bytes — a
    /// retried transaction holding the link (fault injection). The
    /// hold starts when the server next frees up and delays every
    /// later transaction by `ns`; returns when the hold ends.
    pub fn stall(&mut self, now: Time, ns: Time) -> Time {
        let start = self.next_free.max(now);
        let done = start + ns;
        self.next_free = done;
        if let Some(name) = self.trace_name {
            ps_trace::complete(
                ps_trace::Category::Fabric,
                name,
                self.trace_lane,
                start,
                done,
                || vec![("bytes", 0), ("wait", start - now)],
            );
        }
        done
    }

    /// Queueing delay a transaction submitted at `now` would incur
    /// before service starts.
    pub fn backlog_delay(&self, now: Time) -> Time {
        self.next_free.saturating_sub(now)
    }

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{GIGA, MICROS};

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = BandwidthServer::new(8 * GIGA, 0);
        // 1000 bytes at 8 Gbps = 1 us.
        assert_eq!(s.submit(0, 1000), MICROS);
    }

    #[test]
    fn fifo_backlog_accumulates() {
        let mut s = BandwidthServer::new(8 * GIGA, 0);
        let t1 = s.submit(0, 1000);
        let t2 = s.submit(0, 1000);
        assert_eq!(t1, MICROS);
        assert_eq!(t2, 2 * MICROS);
        assert_eq!(s.backlog_delay(0), 2 * MICROS);
    }

    #[test]
    fn overhead_is_charged_per_transaction() {
        let mut s = BandwidthServer::new(8 * GIGA, 500);
        let t1 = s.submit(0, 1000);
        assert_eq!(t1, MICROS + 500);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut s = BandwidthServer::new(8 * GIGA, 0);
        s.submit(0, 1000);
        // Submit long after the first completes: starts fresh.
        let t = s.submit(10 * MICROS, 1000);
        assert_eq!(t, 11 * MICROS);
    }
}

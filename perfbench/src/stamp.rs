//! A benchmark-side [`TrafficSource`] wrapper that stamps the wall clock
//! as the simulation pulls packets.
//!
//! The simulator pulls packets in simulated-time order as it advances, so
//! the wall time between two pulls is the host time the simulator spent on
//! the packets in between. Stamps every [`STAMP_EVERY`] packets are grouped
//! into chunks of 1% of the run afterwards; a chunk's wall ns per packet
//! exposes stalls such as expiry sweeps or reorder-timeout storms that an
//! average hides.

use std::time::Instant;

use albatross_workload::{PacketDesc, TrafficSource};

/// Packets between two wall-clock stamps.
pub const STAMP_EVERY: u64 = 256;

/// Wraps a source, counting packets and stamping the wall clock.
pub struct StampedSource<'a> {
    inner: &'a mut dyn TrafficSource,
    pulled: u64,
    stamps: Vec<Instant>,
    /// When set, every inner `next_packet` call is timed on its own (the
    /// traced run's `workload` layer); off in the end-to-end run.
    time_calls: bool,
    source_ns: u64,
}

impl<'a> StampedSource<'a> {
    /// Wraps `inner`. The first stamp is taken now.
    pub fn new(inner: &'a mut dyn TrafficSource, time_calls: bool) -> Self {
        Self {
            inner,
            pulled: 0,
            stamps: vec![Instant::now()],
            time_calls,
            source_ns: 0,
        }
    }

    /// Packets the wrapped source produced.
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Wall ns spent inside the wrapped source (0 unless `time_calls`).
    pub fn source_ns(&self) -> u64 {
        self.source_ns
    }

    /// Closes the run: takes the final stamp at `end` and returns the wall
    /// ns per packet of every chunk of ~1% of the packets.
    pub fn chunk_ns_per_pkt(mut self, end: Instant) -> Vec<f64> {
        self.stamps.push(end);
        chunk_rates(&self.stamps, self.pulled, STAMP_EVERY)
    }
}

impl TrafficSource for StampedSource<'_> {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let p = if self.time_calls {
            let t0 = Instant::now();
            let p = self.inner.next_packet();
            self.source_ns += t0.elapsed().as_nanos() as u64;
            p
        } else {
            self.inner.next_packet()
        };
        if p.is_some() {
            self.pulled += 1;
            if self.pulled.is_multiple_of(STAMP_EVERY) {
                self.stamps.push(Instant::now());
            }
        }
        p
    }
}

/// Groups stamps taken every `every` packets (plus a final stamp after the
/// last of `total` packets) into chunks of about 1% of `total` and returns
/// each chunk's wall ns per packet.
pub fn chunk_rates(stamps: &[Instant], total: u64, every: u64) -> Vec<f64> {
    if stamps.len() < 2 || total == 0 {
        return Vec::new();
    }
    // Stamp i (i < len-1) was taken after i·every packets; the last one
    // after `total`.
    let pkts_at = |i: usize| -> u64 {
        if i == stamps.len() - 1 {
            total
        } else {
            i as u64 * every
        }
    };
    let per_chunk = ((total / 100) / every).max(1) as usize;
    let mut out = Vec::new();
    let mut i = 0;
    while i < stamps.len() - 1 {
        let j = (i + per_chunk).min(stamps.len() - 1);
        // A tail shorter than half a chunk joins this chunk rather than
        // being reported as a chunk of a handful of packets.
        let j = if stamps.len() - 1 - j < per_chunk / 2 {
            stamps.len() - 1
        } else {
            j
        };
        let pkts = pkts_at(j) - pkts_at(i);
        if pkts > 0 {
            let ns = stamps[j].duration_since(stamps[i]).as_nanos() as f64;
            out.push(ns / pkts as f64);
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chunks_cover_every_packet_once() {
        let t0 = Instant::now();
        // 100 stamps every 10 packets, 10 ns apart → 1 ns per packet.
        let mut stamps: Vec<Instant> = (0..100)
            .map(|i| t0 + Duration::from_nanos(i * 10))
            .collect();
        stamps.push(t0 + Duration::from_nanos(1_000));
        let rates = chunk_rates(&stamps, 1_000, 10);
        assert_eq!(rates.len(), 100);
        assert!(rates.iter().all(|r| (r - 1.0).abs() < 1e-9));
    }
}

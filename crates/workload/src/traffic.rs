//! Traffic sources: deterministic streams of [`PacketDesc`]s.
//!
//! All sources yield packets in non-decreasing time order; the
//! [`MergedSource`] combinator interleaves any number of them, which is how
//! multi-tenant scenarios (Fig. 13/14's four tenants) are assembled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use albatross_sim::{SimRng, SimTime};

use crate::flowgen::FlowSet;
use crate::PacketDesc;

/// A pull-based packet stream in time order.
pub trait TrafficSource {
    /// The next packet, or `None` when the stream ends.
    fn next_packet(&mut self) -> Option<PacketDesc>;
}

/// Constant-rate traffic spread uniformly over a flow set.
#[derive(Debug)]
pub struct ConstantRateSource {
    flows: FlowSet,
    interval_ns: u64,
    len_bytes: u32,
    next_time: SimTime,
    end: SimTime,
    counter: usize,
    rng: SimRng,
    randomize_flow: bool,
}

impl ConstantRateSource {
    /// Creates a source emitting `pps` packets/s from `start` to `end`,
    /// cycling flows round-robin (deterministic).
    ///
    /// The interval between packets is `1e9 / pps` rounded down to whole
    /// nanoseconds, so a rate that does not divide 1e9 comes out higher
    /// than asked: 48 Mpps gives a 20 ns interval, which is 50 Mpps.
    ///
    /// # Panics
    /// Panics if `pps` is zero.
    pub fn new(flows: FlowSet, pps: u64, len_bytes: u32, start: SimTime, end: SimTime) -> Self {
        assert!(pps > 0, "rate must be positive");
        Self {
            flows,
            interval_ns: 1_000_000_000 / pps,
            len_bytes,
            next_time: start,
            end,
            counter: 0,
            rng: SimRng::seed_from(0),
            randomize_flow: false,
        }
    }

    /// Picks flows uniformly at random instead of round-robin (better model
    /// of many independent senders).
    pub fn with_random_flows(mut self, seed: u64) -> Self {
        self.rng = SimRng::seed_from(seed);
        self.randomize_flow = true;
        self
    }
}

impl TrafficSource for ConstantRateSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        if self.next_time >= self.end {
            return None;
        }
        let tuple = if self.randomize_flow {
            self.flows.sample(&mut self.rng)
        } else {
            self.flows.flow(self.counter)
        };
        let desc = PacketDesc {
            time: self.next_time,
            tuple,
            vni: self.flows.vni(),
            len_bytes: self.len_bytes,
            protocol: false,
        };
        self.counter += 1;
        self.next_time += self.interval_ns;
        Some(desc)
    }
}

/// Poisson arrivals over a flow set (random inter-arrival, random flow).
#[derive(Debug)]
pub struct PoissonSource {
    flows: FlowSet,
    mean_interval_ns: f64,
    len_bytes: u32,
    now: SimTime,
    end: SimTime,
    rng: SimRng,
}

impl PoissonSource {
    /// Creates a Poisson source with mean rate `pps`.
    ///
    /// # Panics
    /// Panics if `pps` is not positive.
    pub fn new(
        flows: FlowSet,
        pps: f64,
        len_bytes: u32,
        start: SimTime,
        end: SimTime,
        seed: u64,
    ) -> Self {
        assert!(pps > 0.0, "rate must be positive");
        Self {
            flows,
            mean_interval_ns: 1e9 / pps,
            len_bytes,
            now: start,
            end,
            rng: SimRng::seed_from(seed),
        }
    }
}

impl TrafficSource for PoissonSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let gap = self.rng.exponential(self.mean_interval_ns).max(1.0) as u64;
        let t = self.now + gap;
        if t >= self.end {
            return None;
        }
        self.now = t;
        Some(PacketDesc {
            time: t,
            tuple: self.flows.sample(&mut self.rng),
            vni: self.flows.vni(),
            len_bytes: self.len_bytes,
            protocol: false,
        })
    }
}

/// Piecewise-constant rate: `(from_time, pps)` steps. Rate 0 pauses the
/// stream. This is Fig. 8's heavy-hitter ramp and Fig. 13/14's tenant-1
/// step (4 Mpps → 34 Mpps at t=15 s).
#[derive(Debug)]
pub struct RampSource {
    flows: FlowSet,
    /// Sorted `(start_time, pps)` steps.
    steps: Vec<(SimTime, u64)>,
    len_bytes: u32,
    now: SimTime,
    end: SimTime,
    counter: usize,
}

impl RampSource {
    /// Creates a ramp source.
    ///
    /// # Panics
    /// Panics when `steps` is empty or unsorted.
    pub fn new(flows: FlowSet, steps: Vec<(SimTime, u64)>, len_bytes: u32, end: SimTime) -> Self {
        assert!(!steps.is_empty(), "need at least one rate step");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "steps must be time-sorted"
        );
        let now = steps[0].0;
        Self {
            flows,
            steps,
            len_bytes,
            now,
            end,
            counter: 0,
        }
    }

    fn rate_at(&self, t: SimTime) -> u64 {
        self.steps
            .iter()
            .rev()
            .find(|(from, _)| *from <= t)
            .map(|&(_, pps)| pps)
            .unwrap_or(0)
    }

    /// Next step boundary strictly after `t`.
    fn next_boundary(&self, t: SimTime) -> Option<SimTime> {
        self.steps
            .iter()
            .map(|&(from, _)| from)
            .find(|&from| from > t)
    }
}

impl TrafficSource for RampSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        loop {
            if self.now >= self.end {
                return None;
            }
            let pps = self.rate_at(self.now);
            if pps == 0 {
                // Jump to the next boundary (or finish).
                self.now = self.next_boundary(self.now)?;
                continue;
            }
            let desc = PacketDesc {
                time: self.now,
                tuple: self.flows.flow(self.counter),
                vni: self.flows.vni(),
                len_bytes: self.len_bytes,
                protocol: false,
            };
            self.counter += 1;
            self.now += 1_000_000_000 / pps;
            return Some(desc);
        }
    }
}

/// Time-ordered merge of heterogeneous sources.
pub struct MergedSource {
    sources: Vec<Box<dyn TrafficSource>>,
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    staged: Vec<Option<PacketDesc>>,
    seq: u64,
}

impl MergedSource {
    /// Merges `sources` into one time-ordered stream.
    pub fn new(sources: Vec<Box<dyn TrafficSource>>) -> Self {
        let mut m = Self {
            staged: (0..sources.len()).map(|_| None).collect(),
            heap: BinaryHeap::new(),
            sources,
            seq: 0,
        };
        for i in 0..m.sources.len() {
            m.pull(i);
        }
        m
    }

    fn pull(&mut self, i: usize) {
        if let Some(desc) = self.sources[i].next_packet() {
            self.heap.push(Reverse((desc.time, self.seq, i)));
            self.seq += 1;
            self.staged[i] = Some(desc);
        }
    }
}

impl TrafficSource for MergedSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let Reverse((_, _, i)) = self.heap.pop()?;
        let desc = self.staged[i].take().expect("staged packet present");
        self.pull(i);
        Some(desc)
    }
}

/// Drains a source into a vector (test/small-scenario helper).
pub fn collect(source: &mut dyn TrafficSource) -> Vec<PacketDesc> {
    std::iter::from_fn(|| source.next_packet()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(n: usize, vni: u32) -> FlowSet {
        FlowSet::generate(n, Some(vni), 42)
    }

    #[test]
    fn constant_rate_spacing_and_count() {
        let mut s = ConstantRateSource::new(
            flows(4, 1),
            1_000_000, // 1 Mpps → 1 µs spacing
            256,
            SimTime::ZERO,
            SimTime::from_micros(100),
        );
        let pkts = collect(&mut s);
        assert_eq!(pkts.len(), 100);
        assert_eq!(pkts[1].time - pkts[0].time, 1_000);
        assert_eq!(pkts[0].vni, Some(1));
        // Round-robin over the 4 flows.
        assert_eq!(pkts[0].tuple, pkts[4].tuple);
        assert_ne!(pkts[0].tuple, pkts[1].tuple);
    }

    #[test]
    fn constant_rate_interval_rounds_down_to_whole_nanoseconds() {
        // 1e9 / 48e6 = 20.83 ns → 20 ns: 500 packets per 10 µs, not 480.
        let mut s = ConstantRateSource::new(
            flows(4, 1),
            48_000_000,
            256,
            SimTime::ZERO,
            SimTime::from_micros(10),
        );
        let pkts = collect(&mut s);
        assert_eq!(pkts[1].time - pkts[0].time, 20);
        assert_eq!(pkts.len(), 500);
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let mut s = PoissonSource::new(
            flows(100, 1),
            100_000.0,
            256,
            SimTime::ZERO,
            SimTime::from_secs(1),
            7,
        );
        let pkts = collect(&mut s);
        assert!(
            (90_000..110_000).contains(&pkts.len()),
            "got {} packets",
            pkts.len()
        );
        assert!(pkts.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn ramp_changes_rate_at_boundaries() {
        let mut s = RampSource::new(
            flows(1, 1),
            vec![(SimTime::ZERO, 1_000), (SimTime::from_secs(1), 10_000)],
            256,
            SimTime::from_secs(2),
        );
        let pkts = collect(&mut s);
        let first_sec = pkts
            .iter()
            .filter(|p| p.time < SimTime::from_secs(1))
            .count();
        let second_sec = pkts.len() - first_sec;
        assert!((990..=1_010).contains(&first_sec), "{first_sec}");
        assert!((9_900..=10_100).contains(&second_sec), "{second_sec}");
    }

    #[test]
    fn ramp_with_zero_rate_pauses() {
        let mut s = RampSource::new(
            flows(1, 1),
            vec![(SimTime::ZERO, 0), (SimTime::from_secs(1), 1_000)],
            256,
            SimTime::from_secs(2),
        );
        let pkts = collect(&mut s);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.time >= SimTime::from_secs(1)));
    }

    #[test]
    fn merged_source_is_time_ordered_and_complete() {
        let a = ConstantRateSource::new(
            flows(2, 1),
            1_000,
            256,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        let b = ConstantRateSource::new(
            flows(2, 2),
            2_000,
            256,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        let mut m = MergedSource::new(vec![Box::new(a), Box::new(b)]);
        let pkts = collect(&mut m);
        assert_eq!(pkts.len(), 3_000);
        assert!(pkts.windows(2).all(|w| w[0].time <= w[1].time));
        let t1 = pkts.iter().filter(|p| p.vni == Some(1)).count();
        assert_eq!(t1, 1_000);
    }

    #[test]
    fn empty_merge_ends_immediately() {
        let mut m = MergedSource::new(vec![]);
        assert!(m.next_packet().is_none());
    }
}

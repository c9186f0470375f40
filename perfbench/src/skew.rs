//! The `tenant_skew` traffic source: Zipf-skewed tenants, and Zipf-skewed
//! flows inside each tenant, at a constant aggregate packet rate.
//!
//! It lives in the benchmark so the program under test sees only the
//! packets. Every tuple is a pure function of `(seed, tenant rank, flow
//! rank)`, so the same seed always yields the same packet stream.

use std::net::Ipv4Addr;

use albatross_packet::{FiveTuple, IpProtocol};
use albatross_sim::rng::Zipf;
use albatross_sim::{SimRng, SimTime};
use albatross_workload::{PacketDesc, TrafficSource};

/// Constant-rate source drawing `(tenant, flow)` pairs from two Zipf laws.
#[derive(Debug)]
pub struct ZipfSkewSource {
    tenants: Zipf,
    flows: Zipf,
    rng: SimRng,
    salt: u64,
    gap_ns: u64,
    next: SimTime,
    end: SimTime,
    len_bytes: u32,
}

impl ZipfSkewSource {
    /// `pps` packets per second from time zero to `end` over `tenants`
    /// tenants (exponent `tenant_s`), each with `flows_per_tenant` flows
    /// (exponent `flow_s`).
    ///
    /// # Panics
    /// Panics when `pps` is zero or a population is empty.
    pub fn new(
        seed: u64,
        pps: u64,
        end: SimTime,
        tenants: usize,
        tenant_s: f64,
        flows_per_tenant: usize,
        flow_s: f64,
    ) -> Self {
        assert!(pps > 0, "rate must be positive");
        Self {
            tenants: Zipf::new(tenants, tenant_s),
            flows: Zipf::new(flows_per_tenant, flow_s),
            rng: SimRng::seed_from(seed ^ 0x7E4A_4E75),
            salt: splat(seed),
            gap_ns: 1_000_000_000 / pps,
            next: SimTime::ZERO,
            end,
            len_bytes: 256,
        }
    }

    /// The VNI of the tenant of Zipf rank `rank` (rank 0 is the heaviest).
    pub fn vni_of_rank(rank: usize) -> u32 {
        10_000 + rank as u32
    }

    fn tuple(&self, tenant: usize, flow: usize) -> FiveTuple {
        let h = splat(self.salt ^ ((tenant as u64) << 32) ^ flow as u64);
        FiveTuple {
            src_ip: Ipv4Addr::from(0x0A00_0000 | (h as u32 & 0x00FF_FFFF)),
            dst_ip: Ipv4Addr::from(0xAC10_0000 | ((h >> 24) as u32 & 0x000F_FFFF)),
            src_port: 1024 + ((h >> 44) as u16 % 60_000),
            // The tenant rank sits in the destination port so two tenants
            // never share a tuple.
            dst_port: 1024 + tenant as u16,
            protocol: IpProtocol::Udp,
        }
    }
}

impl TrafficSource for ZipfSkewSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        if self.next >= self.end {
            return None;
        }
        let time = self.next;
        self.next = time + self.gap_ns;
        let tenant = self.tenants.sample(&mut self.rng);
        let flow = self.flows.sample(&mut self.rng);
        Some(PacketDesc {
            time,
            tuple: self.tuple(tenant, flow),
            vni: Some(Self::vni_of_rank(tenant)),
            len_bytes: self.len_bytes,
            protocol: false,
        })
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub(crate) fn splat(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_heavy_head() {
        let end = SimTime::from_millis(1);
        let a: Vec<_> = albatross_workload::traffic::collect(&mut ZipfSkewSource::new(
            3, 10_000_000, end, 100, 1.2, 50, 1.0,
        ));
        let b: Vec<_> = albatross_workload::traffic::collect(&mut ZipfSkewSource::new(
            3, 10_000_000, end, 100, 1.2, 50, 1.0,
        ));
        assert_eq!(a, b);
        assert_eq!(a.len(), 10_000);
        let top = a
            .iter()
            .filter(|p| p.vni == Some(ZipfSkewSource::vni_of_rank(0)))
            .count();
        assert!(top > a.len() / 10, "rank 0 carries a heavy share: {top}");
    }
}

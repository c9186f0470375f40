//! Integration across the NIC pipeline's modules: classification,
//! priority queuing, SR-IOV steering, DMA accounting and session offload
//! working together the way Fig. 1 composes them.

use albatross_fpga::dma::DmaEngine;
use albatross_fpga::pkt::{DeliveryMode, NicPacket};
use albatross_fpga::pktdir::{PacketClass, PktDir};
use albatross_fpga::prio::PriorityQueues;
use albatross_fpga::resource::production_pipeline_ledger;
use albatross_fpga::sriov::SriovAllocator;
use albatross_fpga::tier::TierConfig;
use albatross_packet::flow::IpProtocol;
use albatross_packet::FiveTuple;
use albatross_sim::SimTime;

fn tuple(dst_port: u16, proto: IpProtocol) -> FiveTuple {
    FiveTuple {
        src_ip: "10.0.0.1".parse().unwrap(),
        dst_ip: "10.0.0.2".parse().unwrap(),
        src_port: 40_000,
        dst_port,
        protocol: proto,
    }
}

#[test]
fn bfd_survives_a_data_flood_through_the_priority_path() {
    // pkt_dir classifies, the priority queues isolate: a BFD stream at
    // 50 ms intervals stays alive while data traffic overruns the queues.
    let dir = PktDir::production_default();
    let mut queues = PriorityQueues::new(64, 256);
    let mut bfd = albatross_bgp_free_bfd();

    let mut id = 0u64;
    for ms in 0..1_000u64 {
        let now = SimTime::from_millis(ms);
        // 20 data packets per ms — far beyond the drain rate below.
        for _ in 0..20 {
            id += 1;
            let mut pkt = NicPacket::data(id, tuple(80, IpProtocol::Udp), Some(1), 256, now);
            assert_eq!(dir.classify(&mut pkt), PacketClass::Plb);
            queues.push(pkt);
        }
        // One BFD packet every 50 ms.
        if ms % 50 == 0 {
            id += 1;
            let mut pkt = NicPacket::data(id, tuple(3784, IpProtocol::Udp), None, 64, now);
            assert_eq!(dir.classify(&mut pkt), PacketClass::Priority);
            pkt.protocol = true;
            queues.push(pkt);
        }
        // Drain only 5 packets per ms (overloaded CPU).
        for _ in 0..5 {
            if let Some(p) = queues.pop() {
                if p.protocol {
                    bfd.on_packet(now);
                }
            }
        }
        assert!(!bfd.check(now), "BFD must never detect failure at ms {ms}");
    }
    assert_eq!(queues.priority_drops(), 0);
    assert!(queues.data_drops() > 0, "the flood must have overflowed");
}

// Small local helper so this crate's test doesn't depend on albatross-bgp:
// a minimal 3-miss/50 ms detector mirroring bfd::BfdSession's contract.
struct MiniBfd {
    last_rx: SimTime,
    up: bool,
}
fn albatross_bgp_free_bfd() -> MiniBfd {
    MiniBfd {
        last_rx: SimTime::ZERO,
        up: false,
    }
}
impl MiniBfd {
    fn on_packet(&mut self, now: SimTime) {
        self.last_rx = now;
        self.up = true;
    }
    fn check(&mut self, now: SimTime) -> bool {
        self.up && now.saturating_since(self.last_rx) > 150_000_000
    }
}

#[test]
fn vf_steering_and_dma_accounting_compose() {
    // Two pods get VFs; VLAN-steered packets are charged to DMA with the
    // right byte counts per delivery mode.
    let mut sriov = SriovAllocator::new(8);
    let vfs_a = sriov.allocate_pod(1, 8).unwrap();
    let vfs_b = sriov.allocate_pod(2, 8).unwrap();
    assert_ne!(vfs_a[0].vlan, vfs_b[0].vlan);
    // The switch tags pod A's VLAN: resolve it back.
    let vf = sriov.vf_for_vlan(vfs_a[0].vlan).unwrap();
    assert_eq!(vf, vfs_a[0].id);

    let mut dma = DmaEngine::production();
    let full = NicPacket::data(1, tuple(80, IpProtocol::Udp), Some(1), 8_542, SimTime::ZERO);
    // The full-packet path must be the default, or the comparison below
    // silently measures two header-only transfers.
    assert_eq!(full.delivery, DeliveryMode::FullPacket);
    let mut split = full.clone();
    split.id = 2;
    split.delivery = DeliveryMode::HeaderOnly;
    let lat_full = dma.transfer_rx(&full);
    let lat_split = dma.transfer_rx(&split);
    assert!(lat_split < lat_full, "header-only DMA must be faster");
    assert_eq!(dma.bytes_rx(), 8_542 + 64);
}

#[test]
fn offload_fits_alongside_the_production_pipeline() {
    // Register the future-work session table (the FPGA tier of the
    // production co-offload hierarchy) on top of Tab. 5's modules: it must
    // fit the real device.
    let mut ledger = production_pipeline_ledger();
    ledger
        .register(
            "session_offload",
            30_000,
            TierConfig::production().fpga_bram_bits(),
        )
        .expect("offload table must fit the BRAM headroom");
    assert!(ledger.bram_utilization() < 1.0);
    assert!(ledger.lut_utilization() < 1.0);
}

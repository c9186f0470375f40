//! §7 future-work ablation — FPGA session offloading for write-heavy
//! stateful NFs.
//!
//! The paper's plan: "offload the sessions to FPGAs to improve Albatross's
//! ability to handle stateful NFs". This harness implements and evaluates
//! it: a write-heavy session NF (per-packet counters) under PLB pays a
//! coherence transfer per shared write on the CPU; with the session table
//! in FPGA BRAM the per-packet CPU cost drops to the base processing cost
//! and the NF scales with cores again. Offload capacity is bounded, so a
//! Zipf flow population shows the fast/slow split: hot flows offloaded,
//! the tail falling back to the CPU.
//!
//! The offload table is the pod's unbudgeted [`FlowStateEngine`]: one
//! oracle packet per hot flow fills it, so every cold flow takes the slow
//! path.

use albatross_bench::ExperimentReport;
use albatross_fpga::tier::TierConfig;
use albatross_gateway::flowstate::{FlowStateConfig, FlowStateEngine, FlowVerdict};
use albatross_packet::flow::IpProtocol;
use albatross_packet::FiveTuple;
use albatross_sim::rng::Zipf;
use albatross_sim::{SimRng, SimTime};

/// Uncontended per-packet NF cost, ns.
const T_BASE_NS: f64 = 50.0;
/// One cross-core coherence transfer, ns (same model as
/// `ablation_stateful_nf`).
const T_COHERENCE_NS: f64 = 80.0;

fn flow(i: usize) -> FiveTuple {
    FiveTuple {
        src_ip: std::net::Ipv4Addr::from(0x0A00_0000 + i as u32),
        dst_ip: "10.255.0.1".parse().unwrap(),
        src_port: 1024 + (i % 50_000) as u16,
        dst_port: 443,
        protocol: IpProtocol::Tcp,
    }
}

/// Throughput of a `cores`-core pod running the write-heavy NF, in Mpps,
/// given the fraction of packets whose state write stays on the CPU.
fn nf_mpps(cores: usize, cpu_write_frac: f64) -> f64 {
    let per_pkt = T_BASE_NS + cpu_write_frac * (cores as f64 - 1.0) * T_COHERENCE_NS;
    cores as f64 / per_pkt * 1e3
}

fn main() {
    if !albatross_bench::bench_enabled("ablation_session_offload") {
        return;
    }
    let mut rep = ExperimentReport::new(
        "§7 future-work",
        "FPGA session offloading for write-heavy stateful NFs (implemented extension)",
    );

    // Drive a Zipf flow population through a capacity-bounded offload
    // engine: ctrl cores install the hottest flows.
    let n_flows = 200_000usize;
    let capacity = 50_000usize;
    let mut engine = FlowStateEngine::new(&FlowStateConfig {
        capacity,
        idle_timeout: SimTime::from_secs(60),
        install_budget: None,
        ..FlowStateConfig::production()
    });
    let t0 = SimTime::ZERO;
    for i in 0..capacity {
        let verdict = engine.on_packet(&flow(i), t0);
        assert!(verdict == FlowVerdict::Installed, "hot flows fit");
    }
    let zipf = Zipf::new(n_flows, 1.0);
    let mut rng = SimRng::seed_from(0x00FF_10AD);
    let packets = 2_000_000u64;
    let mut offloaded = 0u64;
    for p in 0..packets {
        let rank = zipf.sample(&mut rng);
        let now = SimTime::from_nanos(p * 500);
        if engine.on_packet(&flow(rank), now) == FlowVerdict::Resident {
            offloaded += 1;
        }
    }
    let hit = offloaded as f64 / packets as f64;
    // The oracle installs are not traffic: the engine's hit rate counts
    // resident hits against slow-path misses only.
    let s = engine.stats();
    let engine_hit = s.hits as f64 / (s.hits + s.deferred) as f64;
    rep.row(
        "offload hit rate (50K of 200K Zipf flows installed)",
        "hot flows dominate -> high hardware hit rate",
        format!("{:.1}% of packets metered in BRAM", hit * 100.0),
        format!("engine-reported {:.1}%", engine_hit * 100.0),
    );
    // The FPGA tier of the production hierarchy; the DPU tier is not BRAM.
    let bram_bits = TierConfig::production().fpga_bram_bits() as f64;
    rep.row(
        "BRAM cost of 256K-session production sizing",
        "fits the Tab. 5 headroom (55.5% BRAM free)",
        format!(
            "{:.1} Mbit ({:.1}% of device)",
            bram_bits / 1e6,
            bram_bits / 265e6 * 100.0
        ),
        "",
    );

    // NF throughput with and without offload, same contention model as
    // the stateful-NF ablation.
    let mut no_off = Vec::new();
    let mut with_off = Vec::new();
    for &cores in &[1usize, 2, 4, 8] {
        let baseline = nf_mpps(cores, 1.0);
        let offloadd = nf_mpps(cores, 1.0 - hit);
        no_off.push((cores as f64, baseline));
        with_off.push((cores as f64, offloadd));
        rep.row(
            format!("{cores} core(s): write-heavy NF Mpps (CPU state vs offloaded)"),
            "",
            format!("{baseline:.1} vs {offloadd:.1}"),
            "",
        );
    }
    let base_scale = no_off.last().expect("rows").1 / no_off[0].1;
    let off_scale = with_off.last().expect("rows").1 / with_off[0].1;
    rep.row(
        "8-core scaling (CPU state vs offloaded)",
        "offload restores near-linear scaling",
        format!("{base_scale:.2}x vs {off_scale:.2}x"),
        if off_scale > 2.0 * base_scale {
            "shape match"
        } else {
            "SHAPE MISMATCH"
        },
    );
    rep.series("write_heavy_cpu_mpps_vs_cores", no_off);
    rep.series("write_heavy_offloaded_mpps_vs_cores", with_off);
    rep.print();
}

//! `offload_tiers` — Zipf sweep of the dynamic FPGA/DPU/CPU co-offload
//! hierarchy (DESIGN.md §4h).
//!
//! The static session-offload ablation pins one point: 50K of 200K Zipf
//! flows pre-installed by an oracle meter 89.1% (0.8915) of packets in
//! BRAM. This harness generalizes that point into a *policy frontier*: the
//! tiered engine discovers elephants online (no oracle), places them
//! under token-bucketed install budgets, and spills the discovery band
//! into a DPU table when the BRAM runs out.
//!
//! Gates, in order:
//!
//! 1. **Exactness / determinism** — every arm is seeded; the anchor arm
//!    runs twice and its canonical stat line (floats as raw bits) must be
//!    byte-identical. The `RESULT` lines printed at the end are diffed
//!    again across two full bench runs by `scripts/ci.sh`.
//! 2. **Pinned-point generalization** — at the pinned 50K-session BRAM
//!    footprint (plus the DPU spill tier) and a generous install budget,
//!    the online hierarchy must reach a 89.2% hit rate — stricter than
//!    the static oracle's 89.1%.
//! 3. **The budget knob moves the frontier** — a starved install budget
//!    must visibly cost hit rate and show up as deferred installs; a
//!    generous one must recover the frontier.
//! 4. **The DPU tier earns its latency** — at a small BRAM footprint,
//!    adding the DPU spill tier must beat the FPGA-only engine.

use albatross_bench::ExperimentReport;
use albatross_fpga::tier::{InstallBudget, TierConfig, TierStats, TieredSessionEngine};
use albatross_packet::flow::IpProtocol;
use albatross_packet::FiveTuple;
use albatross_sim::rng::Zipf;
use albatross_sim::{SimRng, SimTime};

fn flow(rank: usize) -> FiveTuple {
    FiveTuple {
        src_ip: std::net::Ipv4Addr::from(0x0A00_0000 + rank as u32),
        dst_ip: "10.255.0.1".parse().unwrap(),
        src_port: 1024 + (rank % 50_000) as u16,
        dst_port: 443,
        protocol: IpProtocol::Tcp,
    }
}

/// Shared lifecycle knobs; capacity, budgets, sketch size and demotion
/// vary per arm.
fn tier_cfg(
    fpga_capacity: usize,
    dpu_capacity: usize,
    fpga_budget: Option<InstallBudget>,
    candidate_slots: usize,
    demote_after_windows: Option<u32>,
    window: SimTime,
) -> TierConfig {
    TierConfig {
        fpga_capacity,
        dpu_capacity,
        fpga_install_budget: fpga_budget,
        dpu_install_budget: None,
        elephant_pkts_per_window: 2,
        window,
        demote_after_windows,
        evict_on_pressure: true,
        candidate_slots,
        idle_timeout: SimTime::from_secs(30),
        dpu_pkt_ns: 2_500,
        cpu_session_ns: 80,
    }
}

/// Post-warm-up stat deltas of one arm.
struct ArmResult {
    hit: f64,
    fpga_pkts: u64,
    dpu_pkts: u64,
    cpu_pkts: u64,
    promotions: u64,
    upgrades: u64,
    deferred: u64,
}

impl ArmResult {
    /// Canonical byte-exact line (floats as raw bit patterns).
    fn canonical(&self, arm: &str) -> String {
        format!(
            "RESULT offload_tiers arm={} hit_bits={:#018x} fpga={} dpu={} cpu={} promo={} upg={} deferred={}",
            arm,
            self.hit.to_bits(),
            self.fpga_pkts,
            self.dpu_pkts,
            self.cpu_pkts,
            self.promotions,
            self.upgrades,
            self.deferred
        )
    }
}

fn delta(a: &TierStats, b: &TierStats) -> ArmResult {
    let fpga_pkts = b.fpga_pkts - a.fpga_pkts;
    let dpu_pkts = b.dpu_pkts - a.dpu_pkts;
    let cpu_pkts = b.cpu_pkts - a.cpu_pkts;
    let total = fpga_pkts + dpu_pkts + cpu_pkts;
    ArmResult {
        hit: (fpga_pkts + dpu_pkts) as f64 / total as f64,
        fpga_pkts,
        dpu_pkts,
        cpu_pkts,
        promotions: b.promotions - a.promotions,
        upgrades: b.upgrades - a.upgrades,
        deferred: b.installs_deferred() - a.installs_deferred(),
    }
}

/// Drives `warm + measure` Zipf packets at 2 Mpps through one engine and
/// returns the measured-interval deltas.
fn run_arm(cfg: TierConfig, n_flows: usize, warm: u64, measure: u64, seed: u64) -> ArmResult {
    const GAP_NS: u64 = 500;
    let zipf = Zipf::new(n_flows, 1.0);
    let mut rng = SimRng::seed_from(seed);
    let mut engine = TieredSessionEngine::new(cfg);
    let mut t = 0u64;
    for _ in 0..warm {
        let rank = zipf.sample(&mut rng);
        engine.on_packet(&flow(rank), 256, SimTime::from_nanos(t));
        t += GAP_NS;
    }
    let base = engine.stats();
    for _ in 0..measure {
        let rank = zipf.sample(&mut rng);
        engine.on_packet(&flow(rank), 256, SimTime::from_nanos(t));
        t += GAP_NS;
    }
    delta(&base, &engine.stats())
}

fn generous() -> Option<InstallBudget> {
    Some(InstallBudget {
        installs_per_sec: 1_000_000.0,
        burst: 65_536.0,
    })
}

fn main() {
    if !albatross_bench::bench_enabled("offload_tiers") {
        return;
    }
    let mut rep = ExperimentReport::new(
        "co-offload hierarchy",
        "dynamic FPGA/DPU/CPU tier placement: Zipf sweep of hit rate vs install budget",
    );
    let mut results: Vec<(String, ArmResult)> = Vec::new();

    // -- Gate 1+2: the pinned static point, discovered online -------------
    // Static pin: 50K of 200K Zipf(1.0) flows oracle-installed = 89.1% of
    // packets metered in BRAM; the gate asks for 89.2%, a hair stricter.
    // Same BRAM footprint here, but the engine must *find* the elephants
    // itself; the DPU absorbs the discovery band.
    // Sticky residency for the anchor (demotion off): the 200K hardware
    // slots cover the population, so placement converges to "every flow
    // that ever proved itself an elephant" and the oracle gap closes.
    let anchor_cfg = || {
        tier_cfg(
            50_000,
            150_000,
            generous(),
            262_144,
            None,
            SimTime::from_millis(500),
        )
    };
    let anchor = run_arm(anchor_cfg(), 200_000, 2_000_000, 2_000_000, 0x0FF1_0AD5);
    let rerun = run_arm(anchor_cfg(), 200_000, 2_000_000, 2_000_000, 0x0FF1_0AD5);
    assert_eq!(
        anchor.canonical("anchor"),
        rerun.canonical("anchor"),
        "tier placement must be bit-identical across runs"
    );
    assert!(
        anchor.hit >= 0.892,
        "online hierarchy hit rate {:.4} fell below the 89.2% gate (static oracle: 89.1%)",
        anchor.hit
    );
    rep.row(
        "anchor: 50K BRAM + 150K DPU, 200K-flow Zipf, generous budget",
        "online discovery meets the static oracle pin (>= 89.2%)",
        format!("{:.1}% of packets served in hardware", anchor.hit * 100.0),
        format!(
            "fpga {:.1}% dpu {:.1}% (oracle pin was FPGA-only)",
            anchor.fpga_pkts as f64 / (anchor.fpga_pkts + anchor.dpu_pkts + anchor.cpu_pkts) as f64
                * 100.0,
            anchor.dpu_pkts as f64 / (anchor.fpga_pkts + anchor.dpu_pkts + anchor.cpu_pkts) as f64
                * 100.0
        ),
    );
    results.push(("anchor".into(), anchor));

    // -- Gate 3: the install-budget frontier -------------------------------
    // Smaller footprint (10K BRAM, 40K flows, no DPU) swept across install
    // budgets: insertion rate — not lookup rate — is the binding resource,
    // so starving the token bucket must cost hit rate and surface as
    // deferred installs.
    let budgets: [(&str, Option<InstallBudget>); 4] = [
        (
            "budget_2k",
            Some(InstallBudget {
                installs_per_sec: 2_000.0,
                burst: 64.0,
            }),
        ),
        (
            "budget_8k",
            Some(InstallBudget {
                installs_per_sec: 8_000.0,
                burst: 256.0,
            }),
        ),
        (
            "budget_32k",
            Some(InstallBudget {
                installs_per_sec: 32_000.0,
                burst: 1_024.0,
            }),
        ),
        ("budget_unlimited", None),
    ];
    let mut frontier = Vec::new();
    for (name, budget) in budgets {
        let r = run_arm(
            tier_cfg(
                10_000,
                0,
                budget,
                65_536,
                Some(2),
                SimTime::from_millis(100),
            ),
            40_000,
            500_000,
            1_000_000,
            0x0FF1_0AD5,
        );
        rep.row(
            format!("frontier: 10K BRAM, 40K-flow Zipf, {name}"),
            "",
            format!(
                "{:.1}% hit, {} installs deferred",
                r.hit * 100.0,
                r.deferred
            ),
            "",
        );
        let rate = budget.map_or(f64::INFINITY, |b| b.installs_per_sec);
        frontier.push((rate, r.hit));
        results.push((name.to_string(), r));
    }
    let low = &results[1].1;
    let high = &results[4].1;
    assert!(
        low.deferred > 0,
        "the starved budget must defer installs (got none — the knob is dead)"
    );
    assert!(
        low.hit + 0.02 < high.hit,
        "budget knob must visibly move the frontier: {:.4} (2k/s) vs {:.4} (unlimited)",
        low.hit,
        high.hit
    );
    rep.row(
        "frontier span: 2k/s vs unlimited install budget",
        "insertion rate is the binding resource (XenoFlow)",
        format!("{:.1}% -> {:.1}% hit", low.hit * 100.0, high.hit * 100.0),
        format!(
            "{} deferred at 2k/s, {} at unlimited",
            low.deferred, high.deferred
        ),
    );
    rep.series(
        "hit_rate_vs_install_budget",
        frontier
            .iter()
            .map(|&(rate, hit)| (if rate.is_finite() { rate } else { 1e9 }, hit))
            .collect(),
    );

    // -- Gate 4: the DPU spill tier earns its detour -----------------------
    let fpga_only = run_arm(
        tier_cfg(
            4_000,
            0,
            generous(),
            65_536,
            Some(2),
            SimTime::from_millis(100),
        ),
        40_000,
        500_000,
        1_000_000,
        0x0FF1_0AD5,
    );
    let hierarchy = run_arm(
        tier_cfg(
            4_000,
            12_000,
            generous(),
            65_536,
            Some(2),
            SimTime::from_millis(100),
        ),
        40_000,
        500_000,
        1_000_000,
        0x0FF1_0AD5,
    );
    assert!(
        hierarchy.hit > fpga_only.hit,
        "the DPU tier must beat FPGA-only at equal BRAM: {:.4} vs {:.4}",
        hierarchy.hit,
        fpga_only.hit
    );
    assert!(
        hierarchy.upgrades > 0,
        "persistent elephants must upgrade DPU -> FPGA"
    );
    rep.row(
        "4K BRAM alone vs 4K BRAM + 12K DPU",
        "the spill tier catches what BRAM cannot hold",
        format!(
            "{:.1}% vs {:.1}% hit ({} DPU->FPGA upgrades)",
            fpga_only.hit * 100.0,
            hierarchy.hit * 100.0,
            hierarchy.upgrades
        ),
        "",
    );
    results.push(("fpga_only_4k".into(), fpga_only));
    results.push(("hierarchy_4k".into(), hierarchy));

    rep.print();
    // Canonical lines last: scripts/ci.sh diffs these across two runs.
    for (arm, r) in &results {
        println!("{}", r.canonical(arm));
    }
}

//! Zero-steady-state-allocation guard for the simulation loop.
//!
//! Once `PodSimulation`'s scratch buffers (the egress buffer, the timeout
//! and utilization scratch, the engine's reorder-release scratch) reach
//! their working size, pushing more packets through the datapath does not
//! touch the allocator. Strict zero is not attainable at the
//! whole-simulation level — telemetry time series and
//! tenant rate-meter windows legitimately append as simulated time passes,
//! and the event heap grows amortized — so this test measures the marginal
//! cost instead: a run 5× longer than the baseline must cost only a
//! telemetry-sized number of extra allocations, orders of magnitude below
//! one per packet.
//!
//! Lives in its own test binary because `#[global_allocator]` is
//! process-global. Every measurement counts the test thread's own
//! allocations ([`CountingAllocator::allocations`]), so neither the
//! harness nor a test running in parallel can count into a delta; the
//! pod runs single-threaded on the test thread.

use albatross::container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross::fpga::tier::{InstallBudget, TierConfig};
use albatross::gateway::flowstate::FlowStateConfig;
use albatross::gateway::services::ServiceKind;
use albatross::sim::SimTime;
use albatross::workload::{
    ConstantRateSource, FlowSet, ShortFlowKind, ShortFlowSource, TrafficSource,
};
use albatross_testkit::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The small-table pod every scenario starts from.
fn pod(service: ServiceKind) -> SimConfig {
    let mut cfg = SimConfig::new(4, service);
    cfg.table_scale = 0.001;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.seed = 97;
    cfg
}

/// Runs `cfg` on `src` for `duration` and returns `(report, allocation
/// calls during the run)`.
fn measure(cfg: SimConfig, src: &mut dyn TrafficSource, duration: SimTime) -> (SimReport, u64) {
    let before = CountingAllocator::allocations();
    let report = PodSimulation::new(cfg).run(src, duration);
    (report, CountingAllocator::allocations() - before)
}

/// `millis` of 2 Mpps over `flows` uniformly random flows.
fn random_flows(flows: usize, seed: u64, millis: u64) -> ConstantRateSource {
    let duration = SimTime::from_millis(millis);
    ConstantRateSource::new(
        FlowSet::generate(flows, Some(31), seed),
        2_000_000,
        256,
        SimTime::ZERO,
        duration,
    )
    .with_random_flows(seed + 1)
}

/// Runs the standard scenario for `millis` of simulated time.
fn run(millis: u64) -> (SimReport, u64) {
    let mut src = random_flows(2_000, 41, millis);
    measure(
        pod(ServiceKind::VpcVpc),
        &mut src,
        SimTime::from_millis(millis),
    )
}

/// Runs the CPS scenario — single-packet DNS flows through the hardware
/// flow-state frontier — for `millis` of simulated time. Every packet is a
/// fresh flow, so this drives the flow table's insert path (and the expiry
/// wheel behind it) as hard as the workload allows.
fn run_cps(millis: u64) -> (SimReport, u64) {
    let mut cfg = pod(ServiceKind::VpcInternet);
    let mut flow_state = FlowStateConfig::production();
    // Small capacity + short timeout + fast sampling so install, expiry,
    // and reclaim all cycle many times within even the shortest run — the
    // wheel's per-bucket buffers must reach working size before the
    // measured interval, or the comparison reads warm-up as steady state.
    flow_state.capacity = 4 * 1024;
    flow_state.idle_timeout = SimTime::from_millis(1);
    cfg.flow_state = Some(flow_state);
    cfg.sample_window = SimTime::from_millis(1);
    let duration = SimTime::from_millis(millis);
    let mut src = ShortFlowSource::new(ShortFlowKind::DnsUdp, 1_000_000, SimTime::ZERO, duration);
    let (report, allocs) = measure(cfg, &mut src, duration);
    assert!(
        report.flow_installs > 0,
        "precondition: the CPS run must exercise the install path"
    );
    (report, allocs)
}

/// Runs a tiered-placement pod — random flows over tiny FPGA and DPU
/// tables with tight install budgets and a 1 ms sample window — for
/// `millis` of simulated time. Flows hover around the elephant threshold
/// and idle past the timeout between packets, so promotion, demotion,
/// expiry and deferral all cycle.
fn run_tiered(millis: u64) -> (SimReport, u64) {
    let mut cfg = pod(ServiceKind::VpcInternet);
    let budget = |installs_per_sec, burst| {
        Some(InstallBudget {
            installs_per_sec,
            burst,
        })
    };
    cfg.session_tiers = Some(TierConfig {
        fpga_capacity: 6,
        dpu_capacity: 12,
        fpga_install_budget: budget(2_000.0, 2.0),
        dpu_install_budget: budget(4_000.0, 4.0),
        elephant_pkts_per_window: 4,
        window: SimTime::from_millis(1),
        demote_after_windows: Some(2),
        evict_on_pressure: true,
        candidate_slots: 16,
        idle_timeout: SimTime::from_micros(500),
        dpu_pkt_ns: 2_500,
        cpu_session_ns: 80,
    });
    cfg.sample_window = SimTime::from_millis(1);
    let mut src = random_flows(600, 43, millis);
    measure(cfg, &mut src, SimTime::from_millis(millis))
}

/// Asserts that a run 5× longer than the baseline costs only a
/// telemetry-sized number of extra allocations, and returns the long run.
fn assert_marginal_cost(path: &str, run: fn(u64) -> (SimReport, u64)) -> SimReport {
    // Warm-up run absorbs one-time lazy setup (thread-local buffers,
    // formatting machinery) so the measured runs start from steady state.
    run(2);

    let (short, allocs_short) = run(6);
    let (long, allocs_long) = run(30);

    let extra_pkts = long.offered - short.offered;
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_pkts > 20_000,
        "precondition: need a meaningful packet delta, got {extra_pkts}"
    );
    // 24 ms of extra simulated time at 2 Mpps is ~48k extra packets. If the
    // datapath allocated even once per packet the delta would be ≥ 48k; in
    // practice the delta is single-digit (telemetry time-series doublings
    // and rate-meter windows only). 200 leaves room for allocator noise
    // while still catching any per-packet allocation instantly.
    assert!(
        extra_allocs < 200,
        "{path} is allocating: {extra_allocs} extra allocations for \
         {extra_pkts} extra packets"
    );
    long
}

#[test]
fn presized_cache_stats_never_allocate_on_access() {
    use albatross::mem::SharedCache;

    // `with_cores` pre-sizes the per-core hit/miss vectors, so accesses
    // from every in-range core — including the very first from each core —
    // must be allocation-free. This is the cache-model half of the
    // steady-state promise: `SharedCache::access` sits under every table
    // lookup the datapath charges.
    let cores = 16;
    let mut cache = SharedCache::with_cores(1024 * 1024, 8, cores);
    let before = CountingAllocator::allocations();
    for round in 0..4u64 {
        for core in 0..cores {
            for line in 0..64u64 {
                cache.access(core, ((core as u64) << 20) | (line * 64) | round);
            }
        }
    }
    let after = CountingAllocator::allocations();
    assert_eq!(
        after - before,
        0,
        "pre-sized cache must not allocate on access"
    );
    assert!(cache.total_hits() + cache.total_misses() > 0);
}

#[test]
fn longer_runs_cost_only_telemetry_allocations() {
    assert_marginal_cost("steady-state datapath", run);
}

#[test]
fn cps_churn_costs_only_telemetry_allocations() {
    // The flow table, expiry wheel, and NAT shards are fixed-capacity by
    // construction, so even pure table churn — every packet a fresh flow,
    // installs and expiries cycling constantly — must not touch the
    // allocator once the wheel's per-bucket scratch reaches working size.
    assert_marginal_cost("CPS churn path", run_cps);
}

#[test]
fn tiered_placement_costs_only_telemetry_allocations() {
    // The tiered engine's tables are sized at construction, so placement
    // churn — promotions, demotions, evictions, idle expiry and budget
    // deferrals every window — must not touch the allocator either.
    let r = assert_marginal_cost("tiered placement path", run_tiered);
    assert!(
        r.tier_promotions > 0
            && r.tier_demotions > 0
            && r.tier_expired > 0
            && r.tier_installs_deferred > 0,
        "precondition: the tiered run must cycle every placement path"
    );
}

//! `cps_frontier` — the short-flow/connections-per-second frontier
//! (DESIGN.md §4i).
//!
//! Every long-flow exhibit holds flow count fixed and scales packet rate;
//! this harness scales *flow arrival* instead: single-packet DNS flows and
//! TCP connect/close churn, where the per-flow insertion path — not the
//! per-packet lookup path — is the bottleneck (the XenoFlow BlueField-3
//! finding the install-budget model is calibrated against).
//!
//! Gates, in order:
//!
//! 1. **Exactness** (untimed) — the cache-line-bucketed
//!    [`FlowTable`]-backed [`FlowStateEngine`] must produce the exact
//!    per-packet verdict sequence and counters of a reference engine built
//!    on a default-hasher `HashMap` with full-scan expiry (the shape the
//!    NAT/session tables had before the flow-table rewrite).
//! 2. **Insertion throughput** — on the pure-churn CPS workload (every
//!    packet a fresh flow, idle entries reclaimed at a sampling cadence)
//!    the flow table's insert path must sustain **>= 2x** the
//!    HashMap baseline's insertions/sec. Median of within-round ratios, so
//!    frequency drift between rounds cancels.
//! 3. **CPS ceiling vs flow lifetime** — steady-state install rate must
//!    track `min(install_budget, capacity / lifetime)`: short-lived flows
//!    are budget-bound, long-lived flows are capacity-bound.
//! 4. **Churn flood as an attack** — under a 1M-CPS DNS flood the install
//!    budget must defer the flood (not the residents): established flows
//!    stay hardware-resident for the whole attack.
//!
//! A PLB-vs-RSS exhibit on the single-packet workload rides along: with
//! one packet per flow, RSS degenerates to per-packet random placement and
//! loses its only virtue (flow affinity), while PLB keeps its shortest-
//! queue dispatch. Canonical `RESULT` lines (floats as raw bits) are
//! diffed across two full runs by `scripts/ci.sh`.

use std::collections::HashMap;
use std::hint::black_box;

use albatross_bench::ExperimentReport;
use albatross_container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross_core::engine::LbMode;
use albatross_fpga::tier::InstallBudget;
use albatross_gateway::flowstate::{FlowStateConfig, FlowStateEngine, FlowStats, FlowVerdict};
use albatross_gateway::services::ServiceKind;
use albatross_mem::{ExpiryWheel, FlowTable, InsertOutcome, WheelDecision};
use albatross_packet::FiveTuple;
use albatross_sim::{SimTime, TokenBucket};
use albatross_testkit::{BenchStats, BenchTimer};
use albatross_workload::{ShortFlowKind, ShortFlowSource, TrafficSource};

/// Inserts per timed iteration.
const BURST: usize = 64;

// ---------------------------------------------------------------------------
// Gate 1: FlowTable engine ≡ HashMap reference model
// ---------------------------------------------------------------------------

/// The pre-rewrite shape: a default-hasher `HashMap` keyed by five-tuple,
/// expired by a full scan. Same budget, same verdict rules — only the
/// storage differs.
struct BaselineEngine {
    map: HashMap<FiveTuple, SimTime>,
    budget: Option<TokenBucket>,
    capacity: usize,
    idle_timeout: SimTime,
    stats: FlowStats,
}

impl BaselineEngine {
    fn new(cfg: &FlowStateConfig) -> Self {
        Self {
            map: HashMap::new(),
            budget: cfg
                .install_budget
                .map(|b| TokenBucket::new(b.installs_per_sec, b.burst)),
            capacity: cfg.capacity,
            idle_timeout: cfg.idle_timeout,
            stats: FlowStats::default(),
        }
    }

    fn on_packet(&mut self, tuple: &FiveTuple, now: SimTime) -> FlowVerdict {
        if let Some(last) = self.map.get_mut(tuple) {
            *last = now;
            self.stats.hits += 1;
            return FlowVerdict::Resident;
        }
        if let Some(b) = &mut self.budget {
            if !b.allow_packet(now) {
                self.stats.deferred += 1;
                return FlowVerdict::SlowPath;
            }
        }
        if self.map.len() >= self.capacity {
            self.stats.deferred += 1;
            return FlowVerdict::SlowPath;
        }
        self.map.insert(*tuple, now);
        self.stats.installs += 1;
        FlowVerdict::Installed
    }

    fn expire(&mut self, now: SimTime) {
        let timeout = self.idle_timeout;
        let before = self.map.len();
        self.map
            .retain(|_, last| now.saturating_since(*last) < timeout.as_nanos());
        self.stats.expired += (before - self.map.len()) as u64;
    }
}

/// Drives the same TCP-churn stream (trains of 3 packets per flow, so both
/// hits and installs occur, plus a budget tight enough to force slow-path
/// verdicts) through both engines and demands identical verdicts and
/// counters. Expiry cadence is a 1 ms tick, like the simulation's sample
/// event. The wheel reclaims with up to one bucket-width of lag where the
/// scan is exact; churn flows never recur after expiry, so the lag is
/// invisible in verdicts — which is precisely the contract worth pinning.
fn verify_engine_matches_baseline() -> String {
    let cfg = FlowStateConfig {
        capacity: 16 * 1024,
        idle_timeout: SimTime::from_millis(4),
        install_budget: Some(InstallBudget {
            installs_per_sec: 120_000.0,
            burst: 64.0,
        }),
        install_ns: 600,
        slowpath_ns: 1_800,
    };
    let mut fast = FlowStateEngine::new(&cfg);
    let mut slow = BaselineEngine::new(&cfg);
    let end = SimTime::from_millis(50);
    let mut src = ShortFlowSource::new(
        ShortFlowKind::TcpChurn {
            pkts_per_flow: 3,
            flow_lifetime: SimTime::from_millis(2),
        },
        200_000,
        SimTime::ZERO,
        end,
    );
    let mut next_tick = 1_000_000u64;
    let mut pkts = 0u64;
    while let Some(p) = src.next_packet() {
        while p.time.as_nanos() >= next_tick {
            let tick = SimTime::from_nanos(next_tick);
            fast.expire(tick);
            slow.expire(tick);
            next_tick += 1_000_000;
        }
        let a = fast.on_packet(&p.tuple, p.time);
        let b = slow.on_packet(&p.tuple, p.time);
        assert_eq!(a, b, "verdict diverged at packet {pkts} ({:?})", p.time);
        pkts += 1;
    }
    let (f, b) = (fast.stats(), slow.stats);
    assert_eq!(f.hits, b.hits, "hit counters diverged");
    assert_eq!(f.installs, b.installs, "install counters diverged");
    assert_eq!(f.deferred, b.deferred, "deferred counters diverged");
    // Final drain far past every deadline: both tables must empty, and
    // every install must be accounted for as an expiry.
    let drain = end.saturating_add_ns(20 * cfg.idle_timeout.as_nanos());
    fast.expire(drain);
    slow.expire(drain);
    assert_eq!(fast.len(), 0, "flow table must drain");
    assert_eq!(slow.map.len(), 0, "baseline must drain");
    let f = fast.stats();
    assert_eq!(f.expired, f.installs, "install/expiry conservation");
    assert_eq!(f, slow.stats, "counters diverged after the drain");
    format!(
        "RESULT cps_frontier arm=exactness pkts={} hits={} installs={} deferred={} expired={}",
        pkts, f.hits, f.installs, f.deferred, f.expired
    )
}

// ---------------------------------------------------------------------------
// Gate 2: insertion throughput, flow table vs HashMap baseline
// ---------------------------------------------------------------------------

/// The churn working set: unique tuples, recycled only long after expiry.
/// `RING` >> live set (timeout / per-packet gap), so every insert is a
/// first-sight miss in both arms.
const RING: usize = 1 << 17;
/// Virtual nanoseconds per inserted packet (≈ 10M CPS offered).
const GAP_NS: u64 = 100;
/// Idle timeout: ~32K live entries at `GAP_NS` per insert.
const CHURN_TIMEOUT: SimTime = SimTime::from_micros(3_200);
/// Expiry cadence in bursts — the sampling-tick analogue. Both arms expire
/// equally often; only the *cost* of expiry differs (wheel drain vs full
/// scan).
const EXPIRE_EVERY: usize = 64;

fn churn_tuples() -> Vec<FiveTuple> {
    let probe = ShortFlowSource::new(
        ShortFlowKind::DnsUdp,
        1_000_000,
        SimTime::ZERO,
        SimTime::from_nanos(1),
    );
    (0..RING as u64).map(|i| probe.flow_tuple(i)).collect()
}

fn bench_flowtab_churn(timer: &BenchTimer, tuples: &[FiveTuple]) -> BenchStats {
    let mut table: FlowTable<FiveTuple, SimTime> = FlowTable::with_capacity(64 * 1024);
    let mut wheel = ExpiryWheel::for_timeout(CHURN_TIMEOUT);
    let mut base = 0usize;
    let mut t = 0u64;
    let mut iter = 0usize;
    let mut acc = 0u64;
    timer.bench("cps_frontier_flowtab", || {
        for lane in 0..BURST {
            let tuple = tuples[(base + lane) & (RING - 1)];
            t += GAP_NS;
            let now = SimTime::from_nanos(t);
            let o = table.insert(tuple, now);
            if let InsertOutcome::Created(slot) = o {
                wheel.schedule(slot, now.saturating_add_ns(CHURN_TIMEOUT.as_nanos()));
            }
            acc ^= o.slot().map_or(0, |s| u64::from(s.slot));
        }
        base = (base + BURST) & (RING - 1);
        iter += 1;
        if iter.is_multiple_of(EXPIRE_EVERY) {
            let now = SimTime::from_nanos(t);
            wheel.advance(now, |slot| match table.at(slot) {
                Some((_, last)) if now.saturating_since(*last) < CHURN_TIMEOUT.as_nanos() => {
                    WheelDecision::KeepUntil(last.saturating_add_ns(CHURN_TIMEOUT.as_nanos()))
                }
                Some(_) => {
                    table.remove_slot(slot);
                    WheelDecision::Expire
                }
                None => WheelDecision::Expire,
            });
        }
        black_box(acc)
    })
}

fn bench_hashmap_churn(timer: &BenchTimer, tuples: &[FiveTuple]) -> BenchStats {
    let mut map: HashMap<FiveTuple, SimTime> = HashMap::new();
    let mut base = 0usize;
    let mut t = 0u64;
    let mut iter = 0usize;
    let mut acc = 0u64;
    timer.bench("cps_frontier_hashmap", || {
        for lane in 0..BURST {
            let tuple = tuples[(base + lane) & (RING - 1)];
            t += GAP_NS;
            map.insert(tuple, SimTime::from_nanos(t));
            acc = acc.wrapping_add(map.len() as u64);
        }
        base = (base + BURST) & (RING - 1);
        iter += 1;
        if iter.is_multiple_of(EXPIRE_EVERY) {
            let now = SimTime::from_nanos(t);
            map.retain(|_, last| now.saturating_since(*last) < CHURN_TIMEOUT.as_nanos());
        }
        black_box(acc)
    })
}

// ---------------------------------------------------------------------------
// Gate 3: CPS ceiling vs flow lifetime
// ---------------------------------------------------------------------------

struct CeilingArm {
    predicted_cps: f64,
    measured_cps: f64,
    installs: u64,
    deferred: u64,
}

/// Offers 1M single-packet flows/sec against a small table and a 200K/s
/// install budget, sweeping the idle timeout (a single-packet flow's
/// table lifetime). Steady-state install rate is measured over the second
/// half of the run, after the table has filled and reclaim has started.
fn run_ceiling(timeout: SimTime) -> CeilingArm {
    const CAPACITY: usize = 8 * 1024;
    const BUDGET: f64 = 200_000.0;
    let cfg = FlowStateConfig {
        capacity: CAPACITY,
        idle_timeout: timeout,
        install_budget: Some(InstallBudget {
            installs_per_sec: BUDGET,
            burst: 64.0,
        }),
        install_ns: 600,
        slowpath_ns: 1_800,
    };
    let mut engine = FlowStateEngine::new(&cfg);
    let end = SimTime::from_millis(1024);
    let half = SimTime::from_millis(512);
    let mut src = ShortFlowSource::new(ShortFlowKind::DnsUdp, 1_000_000, SimTime::ZERO, end);
    let mut next_tick = 1_000_000u64;
    let mut half_installs = None;
    while let Some(p) = src.next_packet() {
        while p.time.as_nanos() >= next_tick {
            engine.expire(SimTime::from_nanos(next_tick));
            next_tick += 1_000_000;
        }
        if half_installs.is_none() && p.time >= half {
            half_installs = Some(engine.stats().installs);
        }
        engine.on_packet(&p.tuple, p.time);
    }
    let measured_window = end.saturating_since(half) as f64 / 1e9;
    let s = engine.stats();
    let measured_cps = (s.installs - half_installs.unwrap_or(0)) as f64 / measured_window;
    CeilingArm {
        predicted_cps: BUDGET.min(CAPACITY as f64 / (timeout.as_nanos() as f64 / 1e9)),
        measured_cps,
        installs: s.installs,
        deferred: s.deferred,
    }
}

// ---------------------------------------------------------------------------
// Gate 4: churn flood vs resident working set
// ---------------------------------------------------------------------------

struct FloodResult {
    resident_hits: u64,
    resident_misses: u64,
    flood_installed: u64,
    flood_deferred: u64,
}

/// 512 established flows are touched every 250 µs while a 1M-CPS DNS
/// flood hammers the install path. The budget must act as the attack
/// limiter: the flood is deferred to the slow path, the residents never
/// lose their entries.
fn run_flood() -> FloodResult {
    let cfg = FlowStateConfig {
        capacity: 4 * 1024,
        idle_timeout: SimTime::from_millis(10),
        install_budget: Some(InstallBudget {
            installs_per_sec: 50_000.0,
            burst: 32.0,
        }),
        install_ns: 600,
        slowpath_ns: 1_800,
    };
    let mut engine = FlowStateEngine::new(&cfg);
    let residents: Vec<FiveTuple> = {
        let probe = ShortFlowSource::new(
            ShortFlowKind::DnsUdp,
            1_000_000,
            SimTime::ZERO,
            SimTime::from_nanos(1),
        );
        // Offset far past the flood's index range so the sets are disjoint.
        (0..512u64).map(|i| probe.flow_tuple(1 << 40 | i)).collect()
    };
    // Warm phase: install the residents, paced under the 50K/s budget
    // (one install per 40 us stays inside the refill rate).
    for (i, r) in residents.iter().enumerate() {
        let v = engine.on_packet(r, SimTime::from_micros(40 * i as u64));
        assert_eq!(v, FlowVerdict::Installed, "warm install failed");
    }
    let start = SimTime::from_millis(22);
    let end = SimTime::from_millis(122);
    let mut src = ShortFlowSource::new(ShortFlowKind::DnsUdp, 1_000_000, start, end);
    let mut out = FloodResult {
        resident_hits: 0,
        resident_misses: 0,
        flood_installed: 0,
        flood_deferred: 0,
    };
    let mut next_touch = start.as_nanos();
    let mut touch_idx = 0usize;
    let mut next_tick = start.as_nanos() + 1_000_000;
    while let Some(p) = src.next_packet() {
        while p.time.as_nanos() >= next_tick {
            engine.expire(SimTime::from_nanos(next_tick));
            next_tick += 1_000_000;
        }
        while p.time.as_nanos() >= next_touch {
            let r = &residents[touch_idx % residents.len()];
            touch_idx += 1;
            match engine.on_packet(r, SimTime::from_nanos(next_touch)) {
                FlowVerdict::Resident => out.resident_hits += 1,
                _ => out.resident_misses += 1,
            }
            // Each resident refreshed every ~250 us: touches spaced
            // 250_000 / 512 ns apart, round-robin over the set.
            next_touch += 488;
        }
        match engine.on_packet(&p.tuple, p.time) {
            FlowVerdict::Installed => out.flood_installed += 1,
            FlowVerdict::SlowPath => out.flood_deferred += 1,
            FlowVerdict::Resident => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Exhibit: PLB vs RSS on the single-packet workload
// ---------------------------------------------------------------------------

fn run_mode(mode: LbMode) -> SimReport {
    let mut cfg = SimConfig::new(4, ServiceKind::VpcInternet);
    cfg.mode = mode;
    cfg.table_scale = 0.001;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.seed = 0xC95;
    cfg.sample_window = SimTime::from_millis(1);
    cfg.flow_state = Some(FlowStateConfig {
        capacity: 64 * 1024,
        idle_timeout: SimTime::from_millis(5),
        install_budget: Some(InstallBudget {
            installs_per_sec: 4_000_000.0,
            burst: 256.0,
        }),
        install_ns: 600,
        slowpath_ns: 1_800,
    });
    let duration = SimTime::from_millis(20);
    let mut src = ShortFlowSource::new(ShortFlowKind::DnsUdp, 2_000_000, SimTime::ZERO, duration);
    PodSimulation::new(cfg).run(&mut src, duration)
}

fn mode_result(arm: &str, r: &SimReport) -> String {
    format!(
        "RESULT cps_frontier arm={} processed={} p99_ns={} disorder_bits={:#018x} installs={} hits={} deferred={}",
        arm,
        r.processed,
        r.latency.percentile(0.99),
        r.disorder_rate().to_bits(),
        r.flow_installs,
        r.flow_hits,
        r.flow_deferred
    )
}

fn main() {
    if !albatross_bench::bench_enabled("cps_frontier") {
        return;
    }
    let mut rep = ExperimentReport::new(
        "CPS frontier",
        "short-flow churn: flow-table insertion rate as the binding resource",
    );
    let mut results: Vec<String> = Vec::new();

    // -- Gate 1: exactness, before any timing ------------------------------
    let exact = verify_engine_matches_baseline();
    println!(
        "  exactness: FlowTable engine ≡ HashMap reference \
         (verdicts, counters, conservation) on 50 ms of TCP churn"
    );
    results.push(exact);

    // -- Gate 2: insertion throughput --------------------------------------
    let tuples = churn_tuples();
    let mut timer = BenchTimer::new();
    timer.warmup = std::time::Duration::from_millis(100);
    const ROUNDS: usize = 5;
    let ips = |s: &BenchStats| BURST as f64 * 1e9 / s.median_ns;
    let mut flowtab_ips = Vec::with_capacity(ROUNDS);
    let mut hashmap_ips = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let f = ips(&bench_flowtab_churn(&timer, &tuples));
        let h = ips(&bench_hashmap_churn(&timer, &tuples));
        flowtab_ips.push(f);
        hashmap_ips.push(h);
        ratios.push(f / h);
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let f = median(&mut flowtab_ips) / 1e6;
    let h = median(&mut hashmap_ips) / 1e6;
    let speedup = median(&mut ratios);
    println!("  hashmap  churn: {h:.2} M inserts/s (default hasher, full-scan expiry)");
    println!("  flowtab  churn: {f:.2} M inserts/s (bucketed table, expiry wheel)");
    println!(
        "  insertion speedup: {speedup:.2}x median of {ROUNDS} within-round ratios \
         (gate: >= 2x)"
    );
    assert!(
        speedup >= 2.0,
        "flow-table insertion path must be >= 2x the HashMap baseline, got {speedup:.2}x"
    );
    rep.row(
        "pure churn: ~32K live flows, every insert first-sight",
        "bucketed inserts >= 2x HashMap baseline",
        format!("{speedup:.2}x ({h:.1} -> {f:.1} M inserts/s)"),
        "wall-clock; not part of the RESULT diff",
    );

    // -- Gate 3: the CPS ceiling -------------------------------------------
    let arms = [
        SimTime::from_millis(4),   // budget-bound: cap/timeout = 2.05M >> 200K
        SimTime::from_millis(64),  // capacity-bound: 128K < 200K
        SimTime::from_millis(256), // deeply capacity-bound: 32K
    ];
    for timeout in arms {
        let arm = run_ceiling(timeout);
        let err = (arm.measured_cps - arm.predicted_cps).abs() / arm.predicted_cps;
        assert!(
            err < 0.15,
            "steady-state CPS {:.0} strayed {:.1}% from the predicted ceiling {:.0} \
             (timeout {} ms)",
            arm.measured_cps,
            err * 100.0,
            arm.predicted_cps,
            timeout.as_nanos() / 1_000_000
        );
        rep.row(
            format!(
                "ceiling: 8K-entry table, 200K/s budget, {} ms lifetime",
                timeout.as_nanos() / 1_000_000
            ),
            format!(
                "min(budget, capacity/lifetime) = {:.0} CPS",
                arm.predicted_cps
            ),
            format!("{:.0} CPS sustained", arm.measured_cps),
            "",
        );
        results.push(format!(
            "RESULT cps_frontier arm=ceiling_{}ms installs={} deferred={}",
            timeout.as_nanos() / 1_000_000,
            arm.installs,
            arm.deferred
        ));
    }

    // -- Gate 4: the flood limiter -----------------------------------------
    let flood = run_flood();
    assert_eq!(
        flood.resident_misses, 0,
        "established flows must stay resident through the flood"
    );
    let denial =
        flood.flood_deferred as f64 / (flood.flood_deferred + flood.flood_installed) as f64;
    assert!(
        denial > 0.8,
        "the 50K/s budget must defer most of a 1M-CPS flood, deferred only {:.1}%",
        denial * 100.0
    );
    rep.row(
        "table-churn flood: 1M CPS against a 50K/s install budget",
        "flood deferred to slow path; residents untouched",
        format!(
            "{:.1}% of flood deferred, {} resident touches all served in hardware",
            denial * 100.0,
            flood.resident_hits
        ),
        "",
    );
    results.push(format!(
        "RESULT cps_frontier arm=flood resident_hits={} resident_misses={} flood_installed={} flood_deferred={}",
        flood.resident_hits, flood.resident_misses, flood.flood_installed, flood.flood_deferred
    ));

    // -- Exhibit: PLB vs RSS under single-packet flows ---------------------
    let plb = run_mode(LbMode::Plb);
    let rss = run_mode(LbMode::Rss);
    rep.row(
        "PLB vs RSS, 2M-CPS single-packet DNS, 4 cores",
        "flow affinity is worthless at one packet per flow",
        format!(
            "PLB p99 {:.1} us vs RSS p99 {:.1} us",
            plb.latency.percentile(0.99) as f64 / 1e3,
            rss.latency.percentile(0.99) as f64 / 1e3
        ),
        format!(
            "PLB util dispersion {:.4}, RSS {:.4}",
            plb.core_util.dispersion().mean(),
            rss.core_util.dispersion().mean()
        ),
    );
    results.push(mode_result("plb_dns", &plb));
    results.push(mode_result("rss_dns", &rss));

    rep.print();
    // Canonical lines last: scripts/ci.sh diffs these across two runs.
    for line in &results {
        println!("{line}");
    }
}

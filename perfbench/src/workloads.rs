//! The four canonical workloads: their configurations, their inputs (a pure
//! function of the seed) and the correctness checks run on every output.
//!
//! | workload      | entry point     | what it loads                              |
//! |---------------|-----------------|--------------------------------------------|
//! | `tab3_inet`   | `PodSimulation` | `mem`, `gateway.services`, RX queues, HOL   |
//! | `cps_churn`   | `PodSimulation` | `gateway.flowstate`, source pending heap    |
//! | `tenant_skew` | `PodSimulation` | `core.ratelimit`, `fpga.tier`, drop flag    |
//! | `az_drill`    | `AzSimulation`  | `container.az`, `bgp`, `sim.shard`, steering|
//!
//! Modeled values (simulated Mpps, L3 hit rate, drops, verdicts) are
//! *checks* here: each workload states the behaviour it was chosen for,
//! and a run whose output leaves those bounds is reported as incorrect.

use albatross_container::{AzConfig, AzReport, SimConfig, SimReport};
use albatross_core::RateLimiterConfig;
use albatross_fpga::pkt::DeliveryMode;
use albatross_fpga::tier::TierConfig;
use albatross_gateway::services::ServiceKind;
use albatross_gateway::FlowStateConfig;
use albatross_sim::SimTime;
use albatross_workload::{
    ConstantRateSource, FlowSet, PacketDesc, ShortFlowKind, ShortFlowSource, TrafficSource,
};

use crate::skew::{splat, ZipfSkewSource};

/// Tab. 3 VPC-Internet capacity per pod: 81.6 Mpps per 2-pod server.
pub const TAB3_INET_POD_PPS: f64 = 81.6e6 / 2.0;

/// Accepted band around [`TAB3_INET_POD_PPS`] (EXPERIMENTS.md marks the
/// row ✓: within a few percent of the paper).
pub const TAB3_BAND: f64 = 0.05;

/// The paper's L3 hit-rate range for production working sets (§4.2).
pub const L3_HIT_BAND: (f64, f64) = (0.30, 0.45);

/// A canonical workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tab. 3 VPC-Internet pod at ~1.2× capacity.
    Tab3Inet,
    /// Flow-state pod under TCP connect/close churn above the install
    /// budget.
    CpsChurn,
    /// Zipf-skewed tenants and flows through the limiter, the tiered
    /// session engine and the ACL drop flag.
    TenantSkew,
    /// The AZ drill suite on the sharded engine.
    AzDrill,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Tab3Inet,
        Workload::CpsChurn,
        Workload::TenantSkew,
        Workload::AzDrill,
    ];

    /// The name used on the command line and in the report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tab3Inet => "tab3_inet",
            Workload::CpsChurn => "cps_churn",
            Workload::TenantSkew => "tenant_skew",
            Workload::AzDrill => "az_drill",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run size: the benchmark's own, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Bench,
    /// A configuration small enough for a unit test.
    Small,
}

/// One pod workload: its configuration, horizon and seeded inputs.
#[derive(Debug, Clone)]
pub struct PodWorkload {
    /// Which workload.
    pub workload: Workload,
    /// The pod configuration.
    pub cfg: SimConfig,
    /// Virtual horizon of the run.
    pub duration: SimTime,
    seed: u64,
    size: Size,
}

impl PodWorkload {
    /// The pod workload `w` for `seed`, or `None` for `az_drill`.
    pub fn new(w: Workload, seed: u64, size: Size) -> Option<Self> {
        let small = size == Size::Small;
        let (mut cfg, duration) = match w {
            Workload::Tab3Inet => {
                let mut cfg = SimConfig::new(if small { 8 } else { 44 }, ServiceKind::VpcInternet);
                if small {
                    cfg.table_scale = 0.01;
                    cfg.cache_bytes = 8 * 1024 * 1024;
                } else {
                    cfg.warmup = SimTime::from_millis(4);
                }
                (cfg, SimTime::from_millis(if small { 2 } else { 14 }))
            }
            Workload::CpsChurn => {
                let mut cfg = SimConfig::new(8, ServiceKind::VpcInternet);
                // Production flow-state sizing and budget; the idle timeout
                // is compressed from 1 s so entries expire inside a run of
                // a few hundred simulated milliseconds.
                cfg.flow_state = Some(FlowStateConfig {
                    idle_timeout: SimTime::from_millis(20),
                    ..FlowStateConfig::production()
                });
                if small {
                    cfg.table_scale = 0.01;
                    cfg.cache_bytes = 8 * 1024 * 1024;
                }
                (cfg, SimTime::from_millis(if small { 40 } else { 250 }))
            }
            Workload::TenantSkew => {
                let mut cfg = SimConfig::new(12, ServiceKind::VpcInternet);
                cfg.rate_limiter = Some(skew_limiter());
                cfg.session_tiers = Some(TierConfig::production());
                cfg.acl_drop_modulus = Some(16);
                cfg.use_drop_flag = true;
                if small {
                    cfg.table_scale = 0.01;
                    cfg.cache_bytes = 8 * 1024 * 1024;
                }
                (cfg, SimTime::from_millis(if small { 10 } else { 30 }))
            }
            Workload::AzDrill => return None,
        };
        cfg.seed = splat(seed ^ w as u64);
        Some(Self {
            workload: w,
            cfg,
            duration,
            seed,
            size,
        })
    }

    /// Builds the workload's traffic source (flow generation included).
    pub fn source(&self) -> Box<dyn TrafficSource + Send> {
        let small = self.size == Size::Small;
        let end = self.duration;
        match self.workload {
            Workload::Tab3Inet => {
                let flows = FlowSet::generate(
                    if small { 20_000 } else { 500_000 },
                    Some(1_002),
                    splat(self.seed),
                );
                // ~1.2× the Tab. 3 per-pod capacity; the small
                // configuration's 8 cores are overloaded likewise.
                let pps = if small { 20_000_000 } else { 48_000_000 };
                Box::new(
                    ConstantRateSource::new(flows, pps, 256, SimTime::ZERO, end)
                        .with_random_flows(splat(self.seed ^ 0x5EED)),
                )
            }
            Workload::CpsChurn => {
                let src = ShortFlowSource::new(
                    ShortFlowKind::TcpChurn {
                        pkts_per_flow: 8,
                        flow_lifetime: SimTime::from_millis(4),
                    },
                    200_000,
                    SimTime::ZERO,
                    end,
                )
                .with_vni(2_000);
                Box::new(Reseeded {
                    inner: src,
                    key: splat(self.seed),
                })
            }
            Workload::TenantSkew => Box::new(ZipfSkewSource::new(
                self.seed, 16_000_000, end, 2_000, 1.5, 4_000, 1.1,
            )),
            Workload::AzDrill => unreachable!("az_drill has no single pod"),
        }
    }

    /// Runs every correctness check of this workload on `r`.
    pub fn check(&self, r: &SimReport, checks: &mut Checks) {
        check_pod_bound(&self.cfg, r, checks);
        let bench = self.size == Size::Bench;
        match self.workload {
            Workload::Tab3Inet => {
                if bench {
                    let pps = r.throughput_pps();
                    checks.check(
                        (pps / TAB3_INET_POD_PPS - 1.0).abs() <= TAB3_BAND,
                        format!(
                            "tab3_inet pod rate {:.2} Mpps outside {:.1} Mpps ± {:.0}%",
                            pps / 1e6,
                            TAB3_INET_POD_PPS / 1e6,
                            TAB3_BAND * 100.0
                        ),
                    );
                    checks.check(
                        (L3_HIT_BAND.0..=L3_HIT_BAND.1).contains(&r.cache_hit_rate),
                        format!(
                            "tab3_inet L3 hit rate {:.3} outside {:?}",
                            r.cache_hit_rate, L3_HIT_BAND
                        ),
                    );
                }
                checks.check(
                    r.processed < r.offered && r.dropped_rx_queue > 0,
                    "tab3_inet must saturate the cores (RX-queue drops)",
                );
            }
            Workload::CpsChurn => {
                checks.check(
                    r.flow_hits > 0 && r.flow_installs > 0 && r.flow_deferred > 0,
                    format!(
                        "cps_churn needs resident, installed and slow-path verdicts: {}/{}/{}",
                        r.flow_hits, r.flow_installs, r.flow_deferred
                    ),
                );
                checks.check(
                    r.flow_expired > 0,
                    "cps_churn must expire entries inside the run",
                );
                checks.check(
                    r.hol_timeouts == 0 && r.out_of_order == 0,
                    "cps_churn is underloaded: no HOL timeouts, all in order",
                );
            }
            Workload::TenantSkew => {
                checks.check(
                    2 * r.dropped_ratelimit > r.offered,
                    format!(
                        "tenant_skew: the limiter must drop most packets ({} of {})",
                        r.dropped_ratelimit, r.offered
                    ),
                );
                checks.check(
                    r.hh_promotions > 0 && r.tier_promotions > 0,
                    "tenant_skew must promote heavy hitters and elephant flows",
                );
                checks.check(
                    r.drop_flag_releases > 0 && r.drop_flag_releases <= r.dropped_acl,
                    "tenant_skew: ACL drops release their reorder slots by the drop flag",
                );
            }
            Workload::AzDrill => unreachable!(),
        }
    }
}

/// The tenant_skew limiter: the production two-stage geometry with per-
/// tenant rates scaled down so the Zipf head is far over its limit.
fn skew_limiter() -> RateLimiterConfig {
    RateLimiterConfig {
        stage1_pps: 500_000.0,
        stage2_pps: 100_000.0,
        tenant_limit_pps: 250_000.0,
        ..RateLimiterConfig::production()
    }
}

/// Pod packet bound: transmitted + every drop bucket ≤ offered, and the
/// shortfall is no more than can be in flight at the horizon (reorder
/// slots of every ordq plus the RX queues and one packet per core). With a
/// warm-up the window may also see packets offered before it, so the bound
/// holds within the same in-flight margin on both sides.
fn check_pod_bound(cfg: &SimConfig, r: &SimReport, checks: &mut Checks) {
    assert_eq!(cfg.delivery, DeliveryMode::FullPacket);
    let accounted = r.transmitted
        + r.dropped_ratelimit
        + r.dropped_ingress_full
        + r.dropped_rx_queue
        + r.dropped_acl;
    let in_flight =
        (cfg.reorder_depth * cfg.ordqs + cfg.data_cores * (cfg.rx_queue_depth + 1)) as u64;
    let excess_ok = if cfg.warmup > SimTime::ZERO {
        accounted <= r.offered + in_flight
    } else {
        accounted <= r.offered
    };
    checks.check(
        excess_ok,
        format!(
            "packet bound: accounted {accounted} > offered {}",
            r.offered
        ),
    );
    checks.check(
        r.offered.saturating_sub(accounted) <= in_flight,
        format!(
            "packet bound: shortfall {} exceeds in-flight capacity {in_flight}",
            r.offered - accounted
        ),
    );
}

/// The az_drill configuration: the canonical five-drill suite on a
/// 4-server × 2-pod AZ slice at a rate that keeps one run to about a
/// second of host time.
pub(crate) fn az_config(seed: u64, size: Size) -> AzConfig {
    let mut cfg = AzConfig::new(4, 2).with_drill_suite();
    cfg.pps = if size == Size::Small { 800 } else { 1_500 };
    cfg.flows_per_pod = 64;
    cfg.seed = splat(seed ^ Workload::AzDrill as u64);
    cfg
}

/// The configuration `AzSimulation` gives pod shard `p` (used to time the
/// AZ's memory-system set-up and to replay one AZ pod).
pub(crate) fn az_pod_config(cfg: &AzConfig, p: usize) -> SimConfig {
    let mut sc = SimConfig::new(cfg.data_cores, cfg.role.service());
    sc.table_scale = cfg.table_scale;
    sc.track_tenant_latency = true;
    sc.seed = cfg.seed.wrapping_add(7919 * (p as u64 + 1));
    sc
}

/// AZ checks: exact conservation in every window and in total, and the
/// drill contracts the suite is built around.
pub(crate) fn check_az(r: &AzReport, checks: &mut Checks) {
    for w in std::iter::once(&r.baseline).chain(&r.drills) {
        checks.check(
            w.delivered == w.offered - w.blackholed - w.vf_lost,
            format!(
                "az conservation in {}: delivered {} != {} - {} - {}",
                w.name, w.delivered, w.offered, w.blackholed, w.vf_lost
            ),
        );
    }
    let delivered: u64 = std::iter::once(&r.baseline)
        .chain(&r.drills)
        .map(|w| w.delivered)
        .sum();
    checks.check(
        delivered == r.offered() - r.blackholed() - r.vf_lost(),
        "az total conservation",
    );
    checks.check(
        r.merged.transmitted == delivered,
        "az: every delivered packet left a pod",
    );
    if let Some(crash) = r.drills.first() {
        checks.check(
            crash.convergence == SimTime::from_nanos(150_000_000 + 20_000),
            "az crash convergence = BFD detection + one withdraw",
        );
    }
    if let Some(migration) = r.drills.get(1) {
        checks.check(migration.blackholed == 0, "az migration loses no packet");
    }
}

/// Remaps a source's addresses by a seeded XOR (a bijection, so distinct
/// flows stay distinct): the same generator shape, different inputs per
/// seed.
struct Reseeded<S> {
    inner: S,
    key: u64,
}

impl<S: TrafficSource> TrafficSource for Reseeded<S> {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let mut p = self.inner.next_packet()?;
        p.tuple.src_ip = (u32::from(p.tuple.src_ip) ^ (self.key as u32 & 0x00FF_FFFF)).into();
        p.tuple.dst_ip =
            (u32::from(p.tuple.dst_ip) ^ ((self.key >> 32) as u32 & 0x0000_FFFF)).into();
        Some(p)
    }
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    run: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.run += 1;
        if !ok {
            self.failed.push(what.into());
        }
    }

    /// Checks run.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Descriptions of the checks that failed.
    pub fn failed(&self) -> &[String] {
        &self.failed
    }
}

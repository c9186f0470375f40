//! The two kinds of run: the end-to-end run (tracing off) and the traced
//! run (per-layer replay).

use std::time::{Duration, Instant};

use albatross_container::{AzSimulation, FleetConfig, PodSimulation, SimConfig, SimReport};
use albatross_gateway::services::ServiceKind;
use albatross_mem::{DramModel, MemorySystem, NumaTopology, SharedCache};
use albatross_sim::SimTime;
use albatross_workload::{FlowSet, SteerSegment, SteeredSource, TrafficSource};

use crate::fingerprint;
use crate::reference::{Reference, NOMINAL_OPS_PER_US};
use crate::replay::{MemFit, Replay, ReplayCounts};
use crate::stamp::StampedSource;
use crate::trace::{Layer, NO_PACKET};
use crate::workloads::{az_config, az_pod_config, check_az, Checks, PodWorkload, Size, Workload};
use crate::{median, quantile};

/// Root spans timed per sampled one (the traced run's sampling period).
const SAMPLE_EVERY: u64 = 8;

/// Untraced real runs the traced run times (median).
const UNTRACED_REPEATS: usize = 3;

/// Timed iterations every end-to-end run makes at least (after its
/// warm-up), whatever `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// Model fingerprint (identical for every run of one commit and seed).
    pub fingerprint: String,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `fp` as the run's fingerprint, or checks it equals the one
    /// already recorded.
    fn record_fingerprint(&mut self, fp: String) {
        if self.fingerprint.is_empty() {
            self.fingerprint = fp;
        } else {
            let same = self.fingerprint == fp;
            self.checks
                .check(same, "model fingerprint identical across iterations");
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The default execution geometry a user gets: threads = shards = the
/// host's available parallelism.
fn default_geometry() -> FleetConfig {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    FleetConfig {
        threads: n,
        shards: n,
    }
}

/// The end-to-end run. A first iteration (set-up + simulation) warms the
/// process up and runs the checks; then set-up + timed simulation repeat
/// (at least three times) while another iteration fits in `seconds`. The
/// reference kernel is timed before and after every timed iteration, and
/// the iteration's simulation timings are scaled to the nominal host speed
/// (see [`crate::reference`]). Reports medians over the timed iterations.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let iteration = |out: &mut Outcome, first: bool| {
        if w == Workload::AzDrill {
            az_iteration(seed, out, first)
        } else {
            pod_iteration(w, seed, out, first)
        }
    };
    let warm = iteration(&mut out, true);
    // The high-water mark of one set-up and run, before the reference
    // store exists: later iterations only add allocator fragmentation,
    // which varies from run to run.
    let peak_rss = peak_rss_mb();
    let mut reference = Reference::new();
    let mut speed = reference.measure();
    let mut setup = Vec::new();
    let mut pps = Vec::new();
    let mut raw_pps = Vec::new();
    let mut chunk_p90 = Vec::new();
    let mut speeds = vec![speed];
    let mut last = start.elapsed();
    while pps.len() < MIN_ITERATIONS || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        let it = iteration(&mut out, false);
        let after = reference.measure();
        last = t0.elapsed();
        // Host time scaled to the nominal host: the kernel ran at the mean
        // of its speeds just before and just after the iteration, so the
        // host ran `scale` times as fast as the nominal one.
        let scale = (speed + after) / 2.0 / NOMINAL_OPS_PER_US;
        speed = after;
        speeds.push(after);
        setup.push(it.setup_s * scale);
        raw_pps.push(it.packets as f64 / it.wall_s);
        pps.push(it.packets as f64 / (it.wall_s * scale));
        chunk_p90.push(it.chunk_p90_ns * scale);
    }
    // On az_drill a chunk is a whole drill-suite run, so the p90 is taken
    // over iterations.
    let p90 = if w == Workload::AzDrill {
        quantile(&chunk_p90, 0.9)
    } else {
        median(&chunk_p90)
    };
    let list = |v: &[f64], prec: usize| {
        v.iter()
            .map(|x| format!("{x:.prec$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "1 warm-up + {} timed iterations of {} simulated packets, {:.1} s wall",
        pps.len(),
        warm.packets,
        start.elapsed().as_secs_f64()
    ));
    out.notes.push(format!(
        "measured sim_pps per iteration: {} (median {:.0})",
        list(&raw_pps, 0),
        median(&raw_pps)
    ));
    out.notes.push(format!(
        "reference kernel, accesses per us: {} (nominal {NOMINAL_OPS_PER_US})",
        list(&speeds, 1)
    ));
    out.metric("sim_pps", median(&pps), "pkt/s");
    out.metric("chunk_ns_per_pkt_p90", p90, "ns");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out
}

/// One iteration of an end-to-end run.
struct Iteration {
    setup_s: f64,
    /// Simulated packets offered.
    packets: u64,
    /// Wall seconds of the timed simulation.
    wall_s: f64,
    /// p90 over the iteration's chunks of wall ns per packet.
    chunk_p90_ns: f64,
}

/// One pod iteration: set-up, then the timed run through the stamping
/// wrapper.
fn pod_iteration(w: Workload, seed: u64, out: &mut Outcome, first: bool) -> Iteration {
    let t0 = Instant::now();
    let spec = PodWorkload::new(w, seed, Size::Bench).expect("pod workload");
    let mut src = spec.source();
    let sim = PodSimulation::new(spec.cfg.clone());
    let setup_s = t0.elapsed().as_secs_f64();
    let mut stamped = StampedSource::new(src.as_mut(), false);
    let t1 = Instant::now();
    let report = sim.run(&mut stamped, spec.duration);
    let end = Instant::now();
    let packets = stamped.pulled();
    let chunks = stamped.chunk_ns_per_pkt(end);
    if first {
        spec.check(&report, &mut out.checks);
        out.notes.push(pod_summary(&report));
    }
    out.record_fingerprint(fingerprint::hash(&fingerprint::pod_canonical(&report)));
    Iteration {
        setup_s,
        packets,
        wall_s: end.duration_since(t1).as_secs_f64(),
        chunk_p90_ns: quantile(&chunks, 0.9),
    }
}

/// One az_drill iteration. Packets cannot be stamped inside
/// `AzSimulation`, so the whole run is one chunk.
fn az_iteration(seed: u64, out: &mut Outcome, first: bool) -> Iteration {
    let t0 = Instant::now();
    let cfg = az_config(seed, Size::Bench);
    let sim = AzSimulation::new(cfg.clone());
    // `AzSimulation::run` builds its pod shards internally; the set-up it
    // pays before the first packet is timed here by building the initial
    // pods the same way.
    let pods: Vec<PodSimulation> = (0..cfg.servers * cfg.pods_per_server)
        .map(|p| PodSimulation::new(az_pod_config(&cfg, p)))
        .collect();
    let setup = t0.elapsed().as_secs_f64();
    drop(pods);
    // Serial (1 thread × 1 shard): at the default geometry the lockstep
    // barriers make the wall time swing by a third from run to run on a
    // small host. The traced run keeps the geometry ratio as
    // `sim.shard.parallel_speedup`.
    let t1 = Instant::now();
    let report = sim.run(&FleetConfig::serial());
    let wall = t1.elapsed().as_secs_f64();
    if first {
        check_az(&report, &mut out.checks);
        out.notes.push(format!(
            "az: {} pod shards, offered {} (to pods {}), blackholed {}, vf_lost {}, {}",
            report.shards,
            report.offered(),
            report.merged.offered,
            report.blackholed(),
            report.vf_lost(),
            pod_summary(&report.merged)
        ));
    }
    out.record_fingerprint(fingerprint::hash(&fingerprint::az_canonical(&report, &cfg)));
    let packets = report.merged.offered;
    Iteration {
        setup_s: setup,
        packets,
        wall_s: wall,
        chunk_p90_ns: wall * 1e9 / packets as f64,
    }
}

fn pod_summary(r: &SimReport) -> String {
    format!(
        "model: offered {} processed {} tx {} ({:.2} Mpps) hit {:.3} drops rl/ingress/rx/acl \
         {}/{}/{}/{} hol {} flag {} p99 {} ns flow {}/{}/{} tier-hit {:.3}",
        r.offered,
        r.processed,
        r.transmitted,
        r.throughput_pps() / 1e6,
        r.cache_hit_rate,
        r.dropped_ratelimit,
        r.dropped_ingress_full,
        r.dropped_rx_queue,
        r.dropped_acl,
        r.hol_timeouts,
        r.drop_flag_releases,
        r.latency.percentile(0.99),
        r.flow_hits,
        r.flow_installs,
        r.flow_deferred,
        r.tier_offload_hit_rate(),
    )
}

/// Times an untraced real run of `cfg` over `src`; returns the report, the
/// packets pulled and the wall seconds.
fn timed_real_run(
    cfg: SimConfig,
    src: &mut dyn TrafficSource,
    duration: SimTime,
    time_source: bool,
) -> (SimReport, u64, f64, u64) {
    let sim = PodSimulation::new(cfg);
    let mut stamped = StampedSource::new(src, time_source);
    let t0 = Instant::now();
    let report = sim.run(&mut stamped, duration);
    let wall = t0.elapsed().as_secs_f64();
    (report, stamped.pulled(), wall, stamped.source_ns())
}

/// Checks that the replay's counts agree with the real run's report:
/// exactly for counters, bit for bit for the hit rate.
pub fn check_replay_matches(c: &ReplayCounts, r: &SimReport, checks: &mut Checks) {
    let pairs = [
        ("offered", c.offered, r.offered),
        ("limiter drops", c.dropped_ratelimit, r.dropped_ratelimit),
        ("processed", c.processed, r.processed),
        ("transmitted", c.transmitted, r.transmitted),
        ("acl drops", c.dropped_acl, r.dropped_acl),
        ("hol timeouts", c.hol_timeouts, r.hol_timeouts),
        ("rx drops", c.rx_drops, r.dropped_rx_queue),
        ("flow resident", c.flow_verdicts[0], r.flow_hits),
        ("flow installed", c.flow_verdicts[1], r.flow_installs),
        ("flow slow path", c.flow_verdicts[2], r.flow_deferred),
        ("tier fpga", c.tiers.fpga_pkts, r.tier_fpga_pkts),
        ("tier dpu", c.tiers.dpu_pkts, r.tier_dpu_pkts),
        ("tier cpu", c.tiers.cpu_pkts, r.tier_cpu_pkts),
        ("tier promotions", c.tiers.promotions, r.tier_promotions),
        ("flow expired", c.flow_expired, r.flow_expired),
    ];
    for (what, replay, real) in pairs {
        checks.check(
            replay == real,
            format!("replay {what} {replay} != real {real}"),
        );
    }
    let accesses = c.cache_hits + c.cache_misses;
    let hit = if accesses == 0 {
        0.0
    } else {
        c.cache_hits as f64 / accesses as f64
    };
    checks.check(
        hit.to_bits() == r.cache_hit_rate.to_bits(),
        format!("replay hit rate {hit} != real {}", r.cache_hit_rate),
    );
}

/// The traced run: per-layer metrics from the replay of the workload's
/// packets, plus the real runs they are compared with.
pub fn traced(w: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut spec = None;
    let (spec_cfg, duration, make_source, az) = if w == Workload::AzDrill {
        let (cfg, duration, make, az) = az_traced_parts(seed, &mut out);
        (cfg, duration, make, Some(az))
    } else {
        let pod = PodWorkload::new(w, seed, Size::Bench).expect("pod workload");
        let (cfg, duration) = (pod.cfg.clone(), pod.duration);
        let source_of = pod.clone();
        spec = Some(pod);
        let make: SourceFactory = Box::new(move || source_of.source() as Box<dyn TrafficSource>);
        (cfg, duration, make, None)
    };

    // Untraced real runs: the denominator of coverage and overhead
    // (median of a few).
    let mut real_walls = Vec::new();
    let mut real = None;
    for _ in 0..UNTRACED_REPEATS {
        let (report, pulled, wall, _) =
            timed_real_run(spec_cfg.clone(), make_source().as_mut(), duration, false);
        real_walls.push(wall);
        real = Some((report, pulled));
    }
    let (report, pulled) = real.expect("at least one untraced run");
    let untraced_wall = median(&real_walls);
    if let Some(spec) = &spec {
        spec.check(&report, &mut out.checks);
        out.record_fingerprint(fingerprint::hash(&fingerprint::pod_canonical(&report)));
        out.notes.push(pod_summary(&report));
    }
    let untraced_ns_per_pkt = untraced_wall * 1e9 / pulled.max(1) as f64;
    // The same run with every source call timed on its own.
    let (_, _, _, source_ns) =
        timed_real_run(spec_cfg.clone(), make_source().as_mut(), duration, true);

    // The traced replay. Room for its spans is reserved up front (a few
    // spans per packet at most), so recording never reallocates.
    let mut replay = Replay::new(spec_cfg.clone(), SAMPLE_EVERY);
    let overhead = replay.tracer.calibrate_overhead();
    replay
        .tracer
        .reserve(pulled as usize * 4 / SAMPLE_EVERY as usize + 4096);
    let t0 = Instant::now();
    let counts = replay.run(make_source().as_mut(), duration);
    let traced_wall = t0.elapsed().as_secs_f64();
    check_replay_matches(&replay.after_warmup(), &report, &mut out.checks);

    // The memory model's share of the service spans, fitted against each
    // timed call's modeled hits and misses.
    let corrected = replay.tracer.corrected_self_times();
    let samples: Vec<(f64, f64, f64)> = replay
        .service_spans
        .iter()
        .map(|&(id, h, m)| (corrected[id as usize], f64::from(h), f64::from(m)))
        .collect();
    let fit = MemFit::fit(&samples);

    let pkts = counts.offered.max(1) as f64;
    let tr = &replay.tracer;
    let selfs = tr.layer_self_ns();
    let own = |l: Layer| selfs[l.index()];
    let accesses = (counts.cache_hits + counts.cache_misses) as f64;
    let mem_ns = fit.per_hit * counts.cache_hits as f64 + fit.per_miss * counts.cache_misses as f64;
    let mem_ns_per_access = mem_ns / accesses.max(1.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // VPC-Internet is the one chain with a session-table step (the step a
    // hardware-resident flow skips).
    let session_steps = u64::from(replay.service_kind() == ServiceKind::VpcInternet);
    let lookups =
        counts.service_calls * replay.chain_len() as u64 - counts.session_skips * session_steps;
    let expire_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::FlowState && s.pkt == NO_PACKET)
        .map(|s| s.end - s.start)
        .sum();
    let fv = counts.flow_verdicts;
    let t = counts.tiers;
    let traced_total: f64 = selfs.iter().sum();

    let (mem_setup_s, speedup) = match &az {
        Some(az) => (az.mem_setup_s, az.speedup),
        None => (replay.mem_setup_s, 1.0),
    };
    out.metric("mem.ns_per_access", mem_ns_per_access, "ns");
    out.metric("mem.accesses_per_pkt", accesses / pkts, "count");
    out.metric(
        "mem.l3_hit_ratio",
        ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses),
        "ratio",
    );
    out.metric("mem.setup_s", mem_setup_s, "s");
    out.metric(
        "gateway.services.self_ns_per_pkt",
        own(Layer::Services) / pkts,
        "ns",
    );
    out.metric(
        "gateway.services.lookups_per_pkt",
        lookups as f64 / pkts,
        "count",
    );
    out.metric(
        "gateway.flowstate.ns_per_pkt",
        own(Layer::FlowState) / pkts,
        "ns",
    );
    out.metric(
        "gateway.flowstate.hit_ratio",
        ratio(fv[0], fv[0] + fv[1] + fv[2]),
        "ratio",
    );
    out.metric(
        "gateway.flowstate.expire_us_per_tick",
        expire_ns as f64 / 1e3 / counts.sample_ticks.max(1) as f64,
        "us",
    );
    out.metric("fpga.tier.ns_per_pkt", own(Layer::Tier) / pkts, "ns");
    out.metric(
        "fpga.tier.offload_hit_ratio",
        ratio(
            t.fpga_pkts + t.dpu_pkts,
            t.fpga_pkts + t.dpu_pkts + t.cpu_pkts,
        ),
        "ratio",
    );
    out.metric(
        "fpga.tier.deferred_per_kpkt",
        t.installs_deferred() as f64 * 1e3 / pkts,
        "count",
    );
    out.metric(
        "core.ratelimit.ns_per_pkt",
        own(Layer::RateLimit) / pkts,
        "ns",
    );
    out.metric(
        "core.ratelimit.pass_ratio",
        ratio(counts.offered - counts.dropped_ratelimit, counts.offered),
        "ratio",
    );
    out.metric(
        "core.engine.ingress_ns",
        own(Layer::Ingress) / tr.calls(Layer::Ingress).max(1) as f64,
        "ns",
    );
    out.metric(
        "core.engine.return_ns",
        own(Layer::Return) / tr.calls(Layer::Return).max(1) as f64,
        "ns",
    );
    out.metric(
        "core.engine.hol_timeouts_per_kpkt",
        counts.hol_timeouts as f64 * 1e3 / pkts,
        "count",
    );
    out.metric(
        "core.engine.in_order_ratio",
        ratio(counts.in_order, counts.transmitted),
        "ratio",
    );
    out.metric("fpga.dma.ns_per_pkt", own(Layer::Dma) / pkts, "ns");
    out.metric("gateway.worker.ns_per_pkt", own(Layer::Worker) / pkts, "ns");
    out.metric(
        "gateway.worker.rx_drop_ratio",
        ratio(counts.rx_drops, counts.delivered_to_cores),
        "ratio",
    );
    out.metric(
        "sim.engine.events_per_pkt",
        counts.events as f64 / pkts,
        "count",
    );
    out.metric(
        "sim.engine.ns_per_event",
        own(Layer::Engine) / counts.events.max(1) as f64,
        "ns",
    );
    out.metric("sim.shard.parallel_speedup", speedup, "x");
    out.metric(
        "workload.ns_per_pkt",
        source_ns as f64 / pulled.max(1) as f64,
        "ns",
    );
    out.metric("telemetry.ns_per_pkt", own(Layer::Telemetry) / pkts, "ns");
    out.metric(
        "trace.coverage",
        traced_total / pkts / untraced_ns_per_pkt,
        "ratio",
    );
    out.metric("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");

    // The per-layer table (self ns per packet).
    out.notes.push(format!(
        "untraced {untraced_ns_per_pkt:.1} ns/pkt, traced replay {:.1} ns/pkt, \
         {} spans (1 root in {SAMPLE_EVERY} timed)",
        traced_wall * 1e9 / pkts,
        tr.spans().len(),
    ));
    out.notes.push(format!(
        "tracer overhead subtracted: {:.1} ns per span, {:.1} ns per child in its parent",
        overhead.per_span, overhead.per_child
    ));
    out.notes.push(format!(
        "mem fit over {} timed service calls: {:.1} ns/call fixed, {:.1} ns/hit, {:.1} ns/miss",
        samples.len(),
        fit.fixed,
        fit.per_hit,
        fit.per_miss
    ));
    let mut rows: Vec<(&str, f64)> = Layer::ALL
        .iter()
        .map(|&l| (l.module(), own(l) / pkts))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in rows {
        out.notes.push(format!(
            "layer {name:<22} {ns:>9.1} ns/pkt  {:>5.1}% of untraced",
            ns / untraced_ns_per_pkt * 100.0
        ));
    }
    out.notes.push(format!(
        "  of which mem (inside gateway.services, fitted) {:.1} ns/pkt  {:.1}% of untraced",
        mem_ns / pkts,
        mem_ns / pkts / untraced_ns_per_pkt * 100.0
    ));
    out
}

/// Builds a fresh copy of a workload's packet stream.
type SourceFactory = Box<dyn Fn() -> Box<dyn TrafficSource>>;

struct AzTrace {
    mem_setup_s: f64,
    speedup: f64,
}

/// The az_drill parts of the traced run: the AZ at both geometries (for
/// the shard speedup and the fingerprint), the memory-system set-up of
/// its pods, and one representative pod to replay — a pod serving its VIP
/// undisturbed for the whole horizon, as the baseline window steers it.
fn az_traced_parts(seed: u64, out: &mut Outcome) -> (SimConfig, SimTime, SourceFactory, AzTrace) {
    let cfg = az_config(seed, Size::Bench);
    let sim = AzSimulation::new(cfg.clone());
    let t0 = Instant::now();
    let wide = sim.run(&default_geometry());
    let wide_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let serial = sim.run(&FleetConfig::serial());
    let serial_wall = t1.elapsed().as_secs_f64();
    check_az(&wide, &mut out.checks);
    let fp = fingerprint::hash(&fingerprint::az_canonical(&wide, &cfg));
    out.checks.check(
        fp == fingerprint::hash(&fingerprint::az_canonical(&serial, &cfg)),
        "az report identical at 1x1 and the default geometry",
    );
    out.record_fingerprint(fp);
    let geo = default_geometry();
    out.notes.push(format!(
        "az wall: {serial_wall:.3} s at 1x1, {wide_wall:.3} s at {}x{} (threads x shards)",
        geo.threads, geo.shards
    ));

    let pods = cfg.servers * cfg.pods_per_server;
    let t2 = Instant::now();
    for p in 0..pods {
        let pc = az_pod_config(&cfg, p);
        let topo = NumaTopology::albatross_server();
        let mem = MemorySystem::new(
            SharedCache::with_cores(pc.cache_bytes, pc.cache_ways, pc.data_cores),
            DramModel::new(pc.mem_freq_mhz),
        )
        .with_placement(&topo, pc.placement);
        std::hint::black_box(&mem);
    }
    let mem_setup_s = t2.elapsed().as_secs_f64();

    let pod_cfg = az_pod_config(&cfg, 0);
    let horizon = cfg.horizon();
    let gap_ns = pods as u64 * 1_000_000_000 / cfg.pps;
    let flows_per_pod = cfg.flows_per_pod;
    let len = cfg.len_bytes;
    let flow_seed = pod_cfg.seed ^ 0x5a5a;
    let make: SourceFactory = Box::new(move || {
        let segs = vec![SteerSegment {
            start: SimTime::ZERO,
            end: horizon,
            gap_ns,
            vni: 0,
            drop_mod: None,
        }];
        Box::new(SteeredSource::new(
            FlowSet::generate(flows_per_pod, None, flow_seed),
            len,
            segs,
        ))
    });
    (
        pod_cfg,
        cfg.duration,
        make,
        AzTrace {
            mem_setup_s,
            speedup: serial_wall / wide_wall,
        },
    )
}

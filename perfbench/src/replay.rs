//! The traced replay: a pod workload's packets driven through each layer's
//! public functions, in the order `PodSimulation` calls them, with one span
//! per call.
//!
//! The replay carries its events on an `Engine<Ev>` of its own and follows
//! `PodSimulation`'s burst loop step for step (inline arrival batching and
//! inline CPU returns included), so its counts match the real run's report
//! exactly (`tests/replay_faithfulness.rs`). It supports the configurations
//! the benchmark's workloads use: full-packet delivery and no software-stack
//! jitter.
//!
//! The memory model (`MemorySystem::read_entry`) is called from inside
//! `ServicePipeline::process*`, so its time cannot be bracketed from
//! outside. Its cache statistics give the exact modeled hits and misses of
//! every service call, and [`MemFit`] fits each timed call's self time
//! against them: the per-hit and per-miss slopes are `read_entry`'s share,
//! the intercept is the service chain's own.

use std::collections::HashMap;
use std::time::Instant;

use albatross_container::SimConfig;
use albatross_core::engine::{Egress, EgressBuf, IngressDecision, PlbEngine, PlbEngineConfig};
use albatross_core::reorder::ReorderConfig;
use albatross_core::TwoStageRateLimiter;
use albatross_fpga::dma::DmaEngine;
use albatross_fpga::pipeline::{Direction, NicPipelineLatency};
use albatross_fpga::pkt::{DeliveryMode, NicPacket};
use albatross_fpga::tier::{SessionTier, TierStats, TieredSessionEngine};
use albatross_gateway::flowstate::{FlowStateEngine, FlowVerdict};
use albatross_gateway::services::{PacketAction, ServiceKind, ServicePipeline};
use albatross_gateway::worker::DataCore;
use albatross_mem::tables::CloudGatewayTables;
use albatross_mem::{DramModel, MemorySystem, NumaBalancing, NumaTopology, SharedCache};
use albatross_sim::{Engine, SimRng, SimTime};
use albatross_telemetry::{CoreUtilization, LatencyHistogram, RateMeter, TimeSeries};
use albatross_workload::{PacketDesc, TrafficSource};

use crate::trace::{Layer, Token, Tracer, NO_PACKET};

enum Ev {
    Arrival(PacketDesc),
    Deliver {
        core: usize,
        pkt: NicPacket,
    },
    CoreDone {
        core: usize,
    },
    CpuReturn {
        pkt: NicPacket,
        action: PacketAction,
    },
    ReorderPoll,
    Sample,
    WarmupReset,
}

/// Counters of a replay, comparable with a `SimReport`.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// Packets pulled from the source.
    pub offered: u64,
    /// Dropped by the limiter.
    pub dropped_ratelimit: u64,
    /// Packets processed by data cores.
    pub processed: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// In-order transmissions.
    pub in_order: u64,
    /// ACL drops.
    pub dropped_acl: u64,
    /// Reorder head timeouts.
    pub hol_timeouts: u64,
    /// Packets handed to a core's RX queue.
    pub delivered_to_cores: u64,
    /// RX-queue tail drops.
    pub rx_drops: u64,
    /// Modeled L3 hits.
    pub cache_hits: u64,
    /// Modeled L3 misses.
    pub cache_misses: u64,
    /// Service-chain calls.
    pub service_calls: u64,
    /// Service calls whose session step was skipped (state in hardware).
    pub session_skips: u64,
    /// Flow-state verdicts: resident, installed, slow path.
    pub flow_verdicts: [u64; 3],
    /// Flow-state entries expired.
    pub flow_expired: u64,
    /// Tiered-engine statistics.
    pub tiers: TierStats,
    /// Sample ticks (expiry cadence).
    pub sample_ticks: u64,
    /// Events popped from the replay's engine (inline batching excluded,
    /// as in the real loop).
    pub events: u64,
}

/// The traced replay of one pod.
pub struct Replay {
    cfg: SimConfig,
    engine: Engine<Ev>,
    lb: PlbEngine,
    limiter: Option<TwoStageRateLimiter>,
    cores: Vec<DataCore>,
    in_flight: Vec<Option<(NicPacket, PacketAction, u64)>>,
    service: ServicePipeline,
    tiers: Option<TieredSessionEngine>,
    flow_state: Option<FlowStateEngine>,
    tables: CloudGatewayTables,
    mem: MemorySystem,
    nb: NumaBalancing,
    rng: SimRng,
    nic_latency: NicPipelineLatency,
    dma: DmaEngine,
    next_pkt_id: u64,
    latency: LatencyHistogram,
    core_util: CoreUtilization,
    tenant_delivered: HashMap<u32, RateMeter>,
    tenant_latency: HashMap<u32, LatencyHistogram>,
    hh_slot_occupancy: TimeSeries,
    poll_at: Option<SimTime>,
    egress_buf: EgressBuf,
    timeout_buf: Vec<(usize, u32)>,
    util_buf: Vec<f64>,
    counts: ReplayCounts,
    warm: Option<ReplayCounts>,
    /// The spans.
    pub tracer: Tracer,
    /// Timed service calls: (span id, modeled hits, modeled misses).
    pub service_spans: Vec<(u32, u32, u32)>,
    /// Wall seconds spent building the memory model (cache tag store and
    /// table inventory).
    pub mem_setup_s: f64,
}

impl Replay {
    /// Builds the layers for `cfg`, timing one span root in `sample_every`.
    ///
    /// # Panics
    /// Panics on configurations the replay does not mirror (header-only
    /// delivery, software-stack jitter).
    pub fn new(cfg: SimConfig, sample_every: u64) -> Self {
        assert_eq!(
            cfg.delivery,
            DeliveryMode::FullPacket,
            "replay mirrors full-packet delivery"
        );
        assert!(
            cfg.extra_jitter.is_none(),
            "replay mirrors jitter-free pods"
        );
        let t0 = Instant::now();
        let tables = CloudGatewayTables::scaled(cfg.table_scale);
        let topo = NumaTopology::albatross_server();
        let mem = MemorySystem::new(
            SharedCache::with_cores(cfg.cache_bytes, cfg.cache_ways, cfg.data_cores),
            DramModel::new(cfg.mem_freq_mhz),
        )
        .with_placement(&topo, cfg.placement);
        let mem_setup_s = t0.elapsed().as_secs_f64();
        let mut service = ServicePipeline::new(cfg.service, &tables);
        if let Some(m) = cfg.acl_drop_modulus {
            service = service.with_acl_drop_modulus(m);
        }
        let lb = PlbEngine::new(PlbEngineConfig {
            data_cores: cfg.data_cores,
            ordqs: cfg.ordqs,
            reorder: ReorderConfig {
                depth: cfg.reorder_depth,
                timeout_ns: cfg.reorder_timeout_ns,
            },
            mode: cfg.mode,
            auto_fallback_hol_timeouts: None,
        });
        Self {
            engine: Engine::new(),
            lb,
            limiter: cfg.rate_limiter.clone().map(TwoStageRateLimiter::new),
            cores: (0..cfg.data_cores)
                .map(|i| DataCore::new(i, cfg.rx_queue_depth))
                .collect(),
            in_flight: (0..cfg.data_cores).map(|_| None).collect(),
            service,
            tiers: cfg.session_tiers.clone().map(TieredSessionEngine::new),
            flow_state: if cfg.session_tiers.is_some() {
                None
            } else {
                cfg.flow_state.as_ref().map(FlowStateEngine::new)
            },
            tables,
            mem,
            nb: NumaBalancing::new(cfg.data_cores, cfg.numa_balancing),
            rng: SimRng::seed_from(cfg.seed),
            nic_latency: NicPipelineLatency::production(),
            dma: DmaEngine::production(),
            next_pkt_id: 0,
            latency: LatencyHistogram::new(),
            core_util: CoreUtilization::new(cfg.data_cores),
            tenant_delivered: HashMap::new(),
            tenant_latency: HashMap::new(),
            hh_slot_occupancy: TimeSeries::new(),
            poll_at: None,
            egress_buf: EgressBuf::with_capacity(cfg.burst.burst_size.max(1)),
            timeout_buf: Vec::with_capacity(cfg.burst.burst_size.max(1)),
            util_buf: Vec::with_capacity(cfg.data_cores),
            counts: ReplayCounts::default(),
            warm: None,
            tracer: Tracer::new(sample_every),
            service_spans: Vec::new(),
            mem_setup_s,
            cfg,
        }
    }

    /// Replays `source` to `duration`; returns the whole-run counts.
    pub fn run(&mut self, source: &mut dyn TrafficSource, duration: SimTime) -> ReplayCounts {
        let first = self.pull(source);
        if let Some(first) = first {
            self.schedule(first.time, Ev::Arrival(first));
        }
        if self.cfg.warmup > SimTime::ZERO {
            self.schedule(self.cfg.warmup, Ev::WarmupReset);
        }
        self.schedule(self.cfg.sample_window, Ev::Sample);
        let burst_size = self.cfg.burst.burst_size.max(1);
        loop {
            let pop = self.tracer.root(Layer::Engine, NO_PACKET, Some(0));
            let next = self.engine.pop_until(duration);
            self.tracer.exit(pop);
            let Some((now, ev)) = next else { break };
            self.counts.events += 1;
            match ev {
                Ev::Arrival(desc) => {
                    let root = self.tracer.root(Layer::Engine, self.next_pkt_id, Some(1));
                    self.on_arrival(desc, now);
                    let mut batched = 1;
                    while let Some(next) = self.pull(source) {
                        if next.time > duration {
                            break;
                        }
                        let inline_ok = batched < burst_size
                            && match self.engine.peek_time() {
                                None => true,
                                Some(head) => next.time < head,
                            };
                        if inline_ok {
                            self.on_arrival(next, next.time);
                            batched += 1;
                        } else {
                            self.schedule(next.time, Ev::Arrival(next));
                            break;
                        }
                    }
                    self.tracer.exit(root);
                }
                Ev::Deliver { core, pkt } => {
                    let root = self.tracer.root(Layer::Engine, pkt.id, Some(2));
                    let s = self.tracer.enter(Layer::Worker, pkt.id);
                    let _ = self.cores[core].enqueue(pkt);
                    self.tracer.exit(s);
                    self.counts.delivered_to_cores += 1;
                    self.maybe_start_core(core, now);
                    self.tracer.exit(root);
                }
                Ev::CoreDone { core } => {
                    let (pkt, action, extra_ns) = self.in_flight[core]
                        .take()
                        .expect("CoreDone without in-flight packet");
                    let root = self.tracer.root(Layer::Engine, pkt.id, Some(3));
                    let inline_return = burst_size > 1
                        && extra_ns == 0
                        && match self.engine.peek_time() {
                            None => true,
                            Some(head) => head > now,
                        };
                    if inline_return {
                        self.maybe_start_core(core, now);
                        self.on_cpu_return(pkt, action, now);
                    } else {
                        self.schedule(now + extra_ns, Ev::CpuReturn { pkt, action });
                        self.maybe_start_core(core, now);
                    }
                    self.tracer.exit(root);
                }
                Ev::CpuReturn { pkt, action } => {
                    let root = self.tracer.root(Layer::Engine, pkt.id, Some(4));
                    self.on_cpu_return(pkt, action, now);
                    self.tracer.exit(root);
                }
                Ev::ReorderPoll => {
                    let root = self.tracer.root(Layer::Engine, NO_PACKET, Some(5));
                    self.poll_at = None;
                    self.poll_and_record(now);
                    self.reap_timeouts();
                    self.schedule_poll(now);
                    self.tracer.exit(root);
                }
                Ev::Sample => {
                    // Rare: always timed, so expiry cost per tick is exact.
                    let root = self.tracer.root(Layer::Engine, NO_PACKET, None);
                    self.counts.sample_ticks += 1;
                    if let Some(t) = self.tiers.as_mut() {
                        let s = self.tracer.enter(Layer::Tier, NO_PACKET);
                        t.expire(now);
                        self.tracer.exit(s);
                    }
                    if let Some(fs) = self.flow_state.as_mut() {
                        let s = self.tracer.enter(Layer::FlowState, NO_PACKET);
                        self.counts.flow_expired += fs.expire(now) as u64;
                        self.tracer.exit(s);
                    }
                    let window = self.cfg.sample_window.as_nanos();
                    let s = self.tracer.enter(Layer::Telemetry, NO_PACKET);
                    let mut utils = std::mem::take(&mut self.util_buf);
                    utils.clear();
                    utils.extend(self.cores.iter_mut().map(|c| c.sample_utilization(window)));
                    self.core_util.sample(now.as_nanos(), &utils);
                    self.util_buf = utils;
                    if let Some(l) = self.limiter.as_ref() {
                        self.hh_slot_occupancy
                            .push(now.as_nanos(), l.promoted_count() as f64);
                    }
                    self.tracer.exit(s);
                    if now + window <= duration {
                        self.schedule(now + window, Ev::Sample);
                    }
                    self.tracer.exit(root);
                }
                Ev::WarmupReset => {
                    self.warm = Some(self.snapshot());
                    self.latency.reset();
                }
            }
        }
        let root = self.tracer.root(Layer::Engine, NO_PACKET, None);
        self.poll_and_record(duration);
        self.tracer.exit(root);
        self.snapshot()
    }

    /// Counts since the warm-up reset (the whole run without a warm-up) —
    /// the window a `SimReport` covers.
    pub fn after_warmup(&self) -> ReplayCounts {
        let end = self.snapshot();
        let Some(w) = &self.warm else { return end };
        let t = &end.tiers;
        let wt = &w.tiers;
        ReplayCounts {
            offered: end.offered - w.offered,
            dropped_ratelimit: end.dropped_ratelimit - w.dropped_ratelimit,
            processed: end.processed - w.processed,
            transmitted: end.transmitted - w.transmitted,
            in_order: end.in_order - w.in_order,
            dropped_acl: end.dropped_acl - w.dropped_acl,
            hol_timeouts: end.hol_timeouts - w.hol_timeouts,
            delivered_to_cores: end.delivered_to_cores - w.delivered_to_cores,
            rx_drops: end.rx_drops - w.rx_drops,
            // The report's hit rate covers the whole run.
            cache_hits: end.cache_hits,
            cache_misses: end.cache_misses,
            service_calls: end.service_calls - w.service_calls,
            session_skips: end.session_skips - w.session_skips,
            flow_verdicts: [0, 1, 2].map(|i| end.flow_verdicts[i] - w.flow_verdicts[i]),
            flow_expired: end.flow_expired - w.flow_expired,
            tiers: TierStats {
                fpga_pkts: t.fpga_pkts - wt.fpga_pkts,
                dpu_pkts: t.dpu_pkts - wt.dpu_pkts,
                cpu_pkts: t.cpu_pkts - wt.cpu_pkts,
                promotions: t.promotions - wt.promotions,
                ..*t
            },
            sample_ticks: end.sample_ticks - w.sample_ticks,
            events: end.events - w.events,
        }
    }

    /// The pod's service kind.
    pub fn service_kind(&self) -> ServiceKind {
        self.service.kind()
    }

    /// Lookup steps in the service chain.
    pub fn chain_len(&self) -> usize {
        self.service.chain_len()
    }

    fn snapshot(&self) -> ReplayCounts {
        let mut c = self.counts.clone();
        c.processed = self.cores.iter().map(DataCore::processed).sum();
        c.rx_drops = self.cores.iter().map(DataCore::rx_drops).sum();
        c.hol_timeouts = self.lb.total_hol_timeouts();
        c.cache_hits = self.mem.cache().total_hits();
        c.cache_misses = self.mem.cache().total_misses();
        c.tiers = self.tiers.as_ref().map(|t| t.stats()).unwrap_or_default();
        c
    }

    fn pull(&mut self, source: &mut dyn TrafficSource) -> Option<PacketDesc> {
        let s = self.tracer.enter(Layer::Workload, NO_PACKET);
        let p = source.next_packet();
        self.tracer.exit(s);
        p
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let s = self.tracer.enter(Layer::Engine, NO_PACKET);
        self.engine.schedule(at, ev);
        self.tracer.exit(s);
    }

    fn on_arrival(&mut self, desc: PacketDesc, now: SimTime) {
        self.counts.offered += 1;
        let id = self.next_pkt_id;
        if let (Some(limiter), Some(vni)) = (self.limiter.as_mut(), desc.vni) {
            let s = self.tracer.enter(Layer::RateLimit, id);
            let passed = limiter.process(vni, now, &mut self.rng).passed();
            self.tracer.exit(s);
            if !passed {
                self.counts.dropped_ratelimit += 1;
                return;
            }
        }
        self.next_pkt_id += 1;
        let mut pkt = NicPacket::data(id, desc.tuple, desc.vni, desc.len_bytes, now);
        let pre_dma_ns = self.nic_latency.total_ns(Direction::Rx) - 3_170;
        let dispatch_at = now + pre_dma_ns;
        let s = self.tracer.enter(Layer::Ingress, id);
        let decision = self.lb.ingress(&mut pkt, dispatch_at);
        self.tracer.exit(s);
        match decision {
            IngressDecision::Dropped => self.schedule_poll(now),
            IngressDecision::ToCore(core) => {
                let s = self.tracer.enter(Layer::Dma, id);
                let dma_ns = self.dma.transfer_rx(&pkt);
                self.tracer.exit(s);
                self.schedule(now + pre_dma_ns + dma_ns, Ev::Deliver { core, pkt });
                self.schedule_poll(now);
            }
        }
    }

    fn maybe_start_core(&mut self, core: usize, now: SimTime) {
        let s = self.tracer.enter(Layer::Worker, NO_PACKET);
        let next = if !self.cores[core].idle_at(now) || self.in_flight[core].is_some() {
            None
        } else {
            self.cores[core].take_next()
        };
        self.tracer.exit(s);
        let Some(pkt) = next else { return };
        let flow_hash = pkt.tuple.compact_hash();
        let (outcome, tier_ns) = match self.tiers.as_mut() {
            Some(t) => {
                let s = self.tracer.enter(Layer::Tier, pkt.id);
                let tier = t.on_packet(&pkt.tuple, pkt.len_bytes, now);
                self.tracer.exit(s);
                let in_hw = tier != SessionTier::Cpu;
                let mut o = self.process(core, flow_hash, in_hw, pkt.id);
                o.latency_ns += t_cost(self.tiers.as_ref(), tier);
                let added = self.tiers.as_ref().map_or(0, |t| t.added_latency_ns(tier));
                (o, added)
            }
            None => match self.flow_state.as_mut() {
                Some(fs) => {
                    let s = self.tracer.enter(Layer::FlowState, pkt.id);
                    let verdict = fs.on_packet(&pkt.tuple, now);
                    self.tracer.exit(s);
                    self.counts.flow_verdicts[match verdict {
                        FlowVerdict::Resident => 0,
                        FlowVerdict::Installed => 1,
                        FlowVerdict::SlowPath => 2,
                    }] += 1;
                    let mut o =
                        self.process(core, flow_hash, verdict == FlowVerdict::Resident, pkt.id);
                    o.latency_ns += self
                        .flow_state
                        .as_ref()
                        .map_or(0, |fs| fs.verdict_ns(verdict));
                    (o, 0)
                }
                None => (self.process(core, flow_hash, false, pkt.id), 0),
            },
        };
        let stall = self
            .nb
            .stall_before(core, now, self.cfg.nominal_load, &mut self.rng);
        let s = self.tracer.enter(Layer::Worker, pkt.id);
        let done = self.cores[core].begin(now, outcome.latency_ns + stall);
        self.tracer.exit(s);
        self.in_flight[core] = Some((pkt, outcome.action, tier_ns));
        self.schedule(done, Ev::CoreDone { core });
    }

    fn process(
        &mut self,
        core: usize,
        flow_hash: u64,
        session_in_hw: bool,
        pkt: u64,
    ) -> albatross_gateway::services::ProcessOutcome {
        self.counts.service_calls += 1;
        if session_in_hw {
            self.counts.session_skips += 1;
        }
        let s: Token = self.tracer.enter(Layer::Services, pkt);
        let (h0, m0) = (
            self.mem.cache().total_hits(),
            self.mem.cache().total_misses(),
        );
        let o = self.service.process_offloaded(
            core,
            flow_hash,
            session_in_hw,
            &self.tables,
            &mut self.mem,
            &mut self.rng,
        );
        self.tracer.exit(s);
        if let Some(id) = s {
            let hits = self.mem.cache().total_hits() - h0;
            let misses = self.mem.cache().total_misses() - m0;
            self.service_spans.push((id, hits as u32, misses as u32));
        }
        o
    }

    fn on_cpu_return(&mut self, mut pkt: NicPacket, action: PacketAction, now: SimTime) {
        match action {
            PacketAction::Drop => {
                self.counts.dropped_acl += 1;
                if let Some(meta) = pkt.meta.as_mut() {
                    if self.cfg.use_drop_flag {
                        meta.set_drop();
                        let mut buf = std::mem::take(&mut self.egress_buf);
                        let s = self.tracer.enter(Layer::Return, pkt.id);
                        self.lb.cpu_return_into(pkt, true, now, &mut buf);
                        self.tracer.exit(s);
                        self.record_egresses(&mut buf, now);
                        self.egress_buf = buf;
                    }
                    self.schedule_poll(now);
                }
            }
            PacketAction::Forward => {
                let pre_ns = self.nic_latency.total_ns(Direction::Tx) - 2_980;
                let s = self.tracer.enter(Layer::Dma, pkt.id);
                let tx_ns = self.dma.transfer_tx(&pkt);
                self.tracer.exit(s);
                let tx_total = pre_ns + tx_ns;
                let mut buf = std::mem::take(&mut self.egress_buf);
                let s = self.tracer.enter(Layer::Return, pkt.id);
                self.lb.cpu_return_into(pkt, true, now + tx_total, &mut buf);
                self.tracer.exit(s);
                self.record_egresses(&mut buf, now + tx_total);
                self.egress_buf = buf;
                self.schedule_poll(now);
            }
        }
        self.reap_timeouts();
    }

    fn poll_and_record(&mut self, at: SimTime) {
        let mut buf = std::mem::take(&mut self.egress_buf);
        let s = self.tracer.enter(Layer::Return, NO_PACKET);
        self.lb.poll_into(at, &mut buf);
        self.tracer.exit(s);
        self.record_egresses(&mut buf, at);
        self.egress_buf = buf;
    }

    fn reap_timeouts(&mut self) {
        // Full-packet delivery retains no payloads; the drain keeps the
        // timeout list bounded exactly as the real loop does.
        let mut buf = std::mem::take(&mut self.timeout_buf);
        let s = self.tracer.enter(Layer::Return, NO_PACKET);
        self.lb.take_timeouts_into(&mut buf);
        buf.clear();
        self.tracer.exit(s);
        self.timeout_buf = buf;
    }

    fn record_egresses(&mut self, egresses: &mut EgressBuf, at: SimTime) {
        for eg in egresses.drain() {
            let (pkt, ordered) = match eg {
                Egress::InOrder(p) => (p, true),
                Egress::OutOfOrder(p) => (p, false),
            };
            self.counts.transmitted += 1;
            if ordered {
                self.counts.in_order += 1;
            }
            let s = self.tracer.enter(Layer::Telemetry, pkt.id);
            let latency_ns = at.saturating_since(pkt.arrival);
            self.latency.record(latency_ns);
            if let Some(vni) = pkt.vni {
                let window = self.cfg.tenant_rate_window.as_nanos();
                self.tenant_delivered
                    .entry(vni)
                    .or_insert_with(|| RateMeter::new(window))
                    .record(at.as_nanos(), 1);
                if self.cfg.track_tenant_latency {
                    self.tenant_latency
                        .entry(vni)
                        .or_default()
                        .record(latency_ns);
                }
            }
            self.tracer.exit(s);
        }
    }

    fn schedule_poll(&mut self, now: SimTime) {
        let s = self.tracer.enter(Layer::Return, NO_PACKET);
        let deadline = self.lb.next_timeout();
        self.tracer.exit(s);
        let Some(deadline) = deadline else { return };
        let at = deadline.max(now);
        match self.poll_at {
            Some(t) if t <= at => {}
            _ => {
                self.poll_at = Some(at);
                self.schedule(at, Ev::ReorderPoll);
            }
        }
    }
}

fn t_cost(t: Option<&TieredSessionEngine>, tier: SessionTier) -> u64 {
    t.map_or(0, |t| t.cpu_cost_ns(tier))
}

/// Least-squares split of service-call self time into the chain's own
/// cost and the memory model's: `self_ns = fixed + per_hit·hits +
/// per_miss·misses` over the timed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemFit {
    /// Service-chain ns per call outside the memory model.
    pub fixed: f64,
    /// Host ns per modeled L3 hit.
    pub per_hit: f64,
    /// Host ns per modeled L3 miss.
    pub per_miss: f64,
}

impl MemFit {
    /// Fits `(self_ns, hits, misses)` samples. When the three-term fit
    /// gives a negative term (noise, or too little variety in the mix) it
    /// falls back to one shared per-access slope, and then to that slope
    /// through the origin.
    pub fn fit(samples: &[(f64, f64, f64)]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        // Normal equations of y = a + b·h + c·m.
        let mut m = [[0.0f64; 4]; 3];
        for &(y, h, mi) in samples {
            let x = [1.0, h, mi];
            for r in 0..3 {
                for c in 0..3 {
                    m[r][c] += x[r] * x[c];
                }
                m[r][3] += x[r] * y;
            }
        }
        if let Some([a, b, c]) = solve3(m) {
            if b >= 0.0 && c >= 0.0 && a >= 0.0 {
                return Self {
                    fixed: a,
                    per_hit: b,
                    per_miss: c,
                };
            }
        }
        // One shared per-access slope: y = a + b·(hits + misses).
        let n = samples.len() as f64;
        let (sy, sx, sxx, sxy) = samples
            .iter()
            .fold((0.0, 0.0, 0.0, 0.0), |acc, &(y, h, mi)| {
                let x = h + mi;
                (acc.0 + y, acc.1 + x, acc.2 + x * x, acc.3 + x * y)
            });
        let den = n * sxx - sx * sx;
        if den.abs() > 1e-9 {
            let b = (n * sxy - sx * sy) / den;
            let a = (sy - b * sx) / n;
            if a >= 0.0 && b >= 0.0 {
                return Self {
                    fixed: a,
                    per_hit: b,
                    per_miss: b,
                };
            }
        }
        // Through the origin: all of the call is memory-model time.
        let per = if sx > 0.0 { sy / sx } else { 0.0 };
        Self {
            fixed: 0.0,
            per_hit: per,
            per_miss: per,
        }
    }
}

/// Gaussian elimination with partial pivoting on a 3×4 augmented matrix.
fn solve3(mut m: [[f64; 4]; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let piv = (col..3).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[piv][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, piv);
        let pivot = m[col];
        for (r, row) in m.iter_mut().enumerate() {
            if r != col {
                let f = row[col] / pivot[col];
                for (x, p) in row.iter_mut().zip(pivot).skip(col) {
                    *x -= f * p;
                }
            }
        }
    }
    Some([m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_fit_recovers_exact_coefficients() {
        let samples: Vec<(f64, f64, f64)> = (0..50)
            .map(|i| {
                let (h, m) = ((i % 7) as f64, (i % 5) as f64);
                (100.0 + 20.0 * h + 150.0 * m, h, m)
            })
            .collect();
        let f = MemFit::fit(&samples);
        assert!((f.fixed - 100.0).abs() < 1e-6, "{f:?}");
        assert!((f.per_hit - 20.0).abs() < 1e-6);
        assert!((f.per_miss - 150.0).abs() < 1e-6);
    }
}

//! Dynamic FPGA/DPU/CPU co-offload hierarchy.
//!
//! A *static* fast path for session state — whatever the control plane
//! installs is offloaded, everything else falls back to the CPU — is the
//! install-on-miss flow table of `gateway::flowstate` filled by an oracle
//! (the `ablation_session_offload` bench). Hyperscale gateways (Gryphon)
//! instead *react to the traffic mix*: elephant flows are promoted into
//! scarce hardware, mice stay on the CPU, and a middle DPU tier catches
//! the overflow — larger than the FPGA's BRAM but with a per-packet
//! round-trip tax. This module is that placement engine:
//!
//! * **FPGA BRAM** — smallest, zero CPU cost, zero added latency.
//! * **DPU table** (optional) — larger capacity, adds a fixed per-packet
//!   detour latency but still spares the CPU the session write.
//! * **CPU** — unbounded, pays the per-packet coherence/session cost.
//!
//! Placement policy is the heavy-hitter lifecycle extracted from the
//! two-stage rate limiter (`albatross_sim::lifecycle`): a candidate sketch
//! counts CPU-served packets per flow per detection window; crossing the
//! elephant threshold promotes the flow into the best tier with room;
//! hardware-resident flows that stop exceeding the threshold are demoted
//! after a configurable run of conforming windows; under slot pressure the
//! least-recently-exceeding resident is evicted back to the CPU; a DPU
//! resident that proves itself an elephant again is *upgraded* into the
//! FPGA when a slot frees up.
//!
//! The XenoFlow lesson is modeled as a first-class resource: hardware
//! tables are bounded by *insertion rate*, not lookup rate, so each
//! hardware tier carries a token-bucketed install budget. A promotion that
//! finds no token is **deferred** (counted, flow stays on the CPU); the
//! sketch keeps its count, so the flow's next CPU packet retries — traffic
//! itself is the retry queue. Deferrals are part of the stat surface
//! ([`TierStats`]) right next to the hit rate, because the budget knob is
//! what moves the hit-rate/cost frontier (`offload_tiers` bench).
//!
//! Determinism: all maps are [`DetHashMap`], the sketch and eviction scans
//! are index-ordered, and expiry vacates slots in ascending slot order —
//! two same-seed runs produce byte-identical placements and counters.

use albatross_packet::FiveTuple;
use albatross_sim::det::{det_map_with_capacity, BuildDetHasher, DetHashMap};
use albatross_sim::lifecycle::{CandidateSketch, LifecycleConfig, Promotion, SlotLifecycle};
use albatross_sim::{SimTime, TokenBucket};

/// Counters the hardware maintains per offloaded session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadedCounters {
    /// Packets metered in hardware.
    pub packets: u64,
    /// Bytes metered in hardware.
    pub bytes: u64,
}

/// Which tier served (and metered) a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionTier {
    /// FPGA BRAM resident: zero CPU cost, zero added latency.
    Fpga,
    /// DPU table resident: zero CPU cost, fixed per-packet detour latency.
    Dpu,
    /// Not offloaded: the CPU pays the session write.
    Cpu,
}

/// Token-bucketed install budget of a hardware tier (XenoFlow-style: the
/// table's *insertion* bandwidth is the scarce resource).
#[derive(Debug, Clone, Copy)]
pub struct InstallBudget {
    /// Sustained installs per second.
    pub installs_per_sec: f64,
    /// Burst tolerance in installs.
    pub burst: f64,
}

/// Configuration of the tiered engine.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// FPGA BRAM session slots.
    pub fpga_capacity: usize,
    /// DPU table slots; `0` disables the DPU tier (FPGA + CPU only).
    pub dpu_capacity: usize,
    /// FPGA install budget; `None` = unlimited insertion bandwidth.
    pub fpga_install_budget: Option<InstallBudget>,
    /// DPU install budget; `None` = unlimited insertion bandwidth.
    pub dpu_install_budget: Option<InstallBudget>,
    /// CPU-served packets of one flow within one detection window that
    /// make it an elephant (promotion threshold; also the per-window
    /// hardware packet count that counts as "still exceeding").
    pub elephant_pkts_per_window: u32,
    /// Detection-window length.
    pub window: SimTime,
    /// Consecutive conforming windows after which a hardware resident is
    /// demoted back to the CPU. `None` disables demotion.
    pub demote_after_windows: Option<u32>,
    /// Evict the least-recently-exceeding resident when every hardware
    /// slot is taken and a new elephant crosses the threshold.
    pub evict_on_pressure: bool,
    /// Candidate-sketch entries tracking CPU-side suspects.
    pub candidate_slots: usize,
    /// Idle timeout for hardware residents (see [`TieredSessionEngine::expire`]).
    pub idle_timeout: SimTime,
    /// Per-packet detour latency of a DPU-served packet in ns (added to
    /// the packet's path without occupying a data core).
    pub dpu_pkt_ns: u64,
    /// Per-packet CPU cost of a non-offloaded session write in ns (the
    /// coherence tax the hardware tiers avoid).
    pub cpu_session_ns: u64,
}

impl TierConfig {
    /// Production-plausible sizing: the §7 BRAM table (256K sessions)
    /// backed by a 2M-session DPU table, insertion budgets in the
    /// 10⁵/s range (XenoFlow's NIC-insert ceiling), 1 s detection windows
    /// and a 60 s idle timeout.
    pub fn production() -> Self {
        Self {
            fpga_capacity: 256 * 1024,
            dpu_capacity: 2 * 1024 * 1024,
            fpga_install_budget: Some(InstallBudget {
                installs_per_sec: 150_000.0,
                burst: 2_048.0,
            }),
            dpu_install_budget: Some(InstallBudget {
                installs_per_sec: 400_000.0,
                burst: 8_192.0,
            }),
            elephant_pkts_per_window: 64,
            window: SimTime::from_secs(1),
            demote_after_windows: Some(3),
            evict_on_pressure: true,
            candidate_slots: 4_096,
            idle_timeout: SimTime::from_secs(60),
            dpu_pkt_ns: 2_500,
            cpu_session_ns: 80,
        }
    }

    /// BRAM bits the FPGA tier consumes for the Tab. 5-style ledger (320 b
    /// per session: key, counters, timestamp, control).
    pub fn fpga_bram_bits(&self) -> u64 {
        self.fpga_capacity as u64 * 320
    }

    /// DPU table bytes (DRAM-resident, 40 B/session: key + counters).
    pub fn dpu_table_bytes(&self) -> u64 {
        self.dpu_capacity as u64 * 40
    }
}

/// Cumulative counters of the tiered engine — the stat surface the bench
/// and `SimReport` read. Per hardware tier the conservation identity
/// `installs = live + demotions + evictions + expired (+ upgrades out of
/// the DPU)` holds at all times (pinned by the tier property suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Packets served by the FPGA tier.
    pub fpga_pkts: u64,
    /// Packets served by the DPU tier.
    pub dpu_pkts: u64,
    /// Packets served on the CPU.
    pub cpu_pkts: u64,
    /// Flows currently resident in the FPGA.
    pub fpga_live: usize,
    /// Flows currently resident in the DPU.
    pub dpu_live: usize,
    /// Installs into the FPGA table (promotions + upgrades in).
    pub fpga_installs: u64,
    /// Installs into the DPU table.
    pub dpu_installs: u64,
    /// FPGA installs deferred for lack of insertion budget.
    pub fpga_installs_deferred: u64,
    /// DPU installs deferred for lack of insertion budget.
    pub dpu_installs_deferred: u64,
    /// FPGA residents demoted after conforming windows.
    pub fpga_demotions: u64,
    /// DPU residents demoted after conforming windows.
    pub dpu_demotions: u64,
    /// FPGA residents evicted under slot pressure.
    pub fpga_evictions: u64,
    /// DPU residents evicted under slot pressure.
    pub dpu_evictions: u64,
    /// FPGA installs refused (full table, eviction disabled).
    pub fpga_refused: u64,
    /// DPU installs refused (full table, eviction disabled).
    pub dpu_refused: u64,
    /// FPGA residents reclaimed by idle expiry.
    pub fpga_expired: u64,
    /// DPU residents reclaimed by idle expiry.
    pub dpu_expired: u64,
    /// CPU→hardware promotions performed.
    pub promotions: u64,
    /// DPU→FPGA upgrades performed.
    pub upgrades: u64,
}

impl TierStats {
    /// Total installs deferred for lack of insertion budget.
    pub fn installs_deferred(&self) -> u64 {
        self.fpga_installs_deferred + self.dpu_installs_deferred
    }
}

/// One hardware table: placement lifecycle + session entries + install
/// budget.
#[derive(Debug)]
struct HwTable {
    lifecycle: SlotLifecycle<FiveTuple>,
    map: DetHashMap<FiveTuple, HwEntry>,
    budget: Option<TokenBucket>,
    /// Expiry-sweep scratch, reused every tick so the sweep never
    /// allocates once it reaches working size.
    idle: Vec<(usize, FiveTuple)>,
    pkts: u64,
    installs: u64,
    deferred: u64,
    expired: u64,
}

#[derive(Debug, Clone, Copy)]
struct HwEntry {
    slot: usize,
    counters: OffloadedCounters,
    last_active: SimTime,
    /// Packets served this detection window (lazily reset via `seen_seq`).
    window_pkts: u32,
    /// Window sequence `window_pkts` belongs to.
    seen_seq: u64,
}

impl HwTable {
    fn new(capacity: usize, budget: Option<InstallBudget>, cfg: &TierConfig) -> Self {
        Self {
            lifecycle: SlotLifecycle::new(LifecycleConfig {
                slots: capacity,
                // The engine-level sketch tracks CPU suspects; the
                // per-table sketch is unused.
                candidate_slots: 1,
                promote_threshold: u32::MAX,
                window: cfg.window,
                demote_after_windows: cfg.demote_after_windows,
                evict_on_pressure: cfg.evict_on_pressure,
            }),
            map: det_map_with_capacity(capacity),
            budget: budget.map(|b| TokenBucket::new(b.installs_per_sec, b.burst)),
            idle: Vec::new(),
            pkts: 0,
            installs: 0,
            deferred: 0,
            expired: 0,
        }
    }

    /// Consumes an install token (always true with no budget configured).
    fn allow_install(&mut self, now: SimTime) -> bool {
        self.budget.as_mut().is_none_or(|b| b.allow_packet(now))
    }

    fn free_slots(&self) -> usize {
        self.lifecycle.free_slots()
    }

    /// Installs `flow`, evicting under pressure when configured. `false`
    /// means the table was full with eviction disabled (counted refused).
    fn install(&mut self, flow: FiveTuple, counters: OffloadedCounters, now: SimTime) -> bool {
        match self.lifecycle.promote(flow) {
            Promotion::Installed { slot, evicted } => {
                if let Some(victim) = evicted {
                    self.map.remove(&victim);
                }
                self.map.insert(
                    flow,
                    HwEntry {
                        slot,
                        counters,
                        last_active: now,
                        window_pkts: 0,
                        seen_seq: self.lifecycle.window_seq(),
                    },
                );
                self.installs += 1;
                true
            }
            Promotion::Refused => false,
        }
    }

    /// Per-packet hit path. `Some(crossed)` when resident; `crossed` is
    /// true exactly when this packet pushed the flow's per-window count to
    /// the elephant threshold (the "still exceeding" edge).
    fn hit(&mut self, flow: &FiveTuple, bytes: u32, now: SimTime, threshold: u32) -> Option<bool> {
        let seq = self.lifecycle.window_seq();
        let e = self.map.get_mut(flow)?;
        if e.seen_seq != seq {
            e.seen_seq = seq;
            e.window_pkts = 0;
        }
        e.window_pkts += 1;
        e.counters.packets += 1;
        e.counters.bytes += u64::from(bytes);
        e.last_active = now;
        let crossed = e.window_pkts == threshold;
        let slot = e.slot;
        self.pkts += 1;
        if crossed {
            self.lifecycle.record_exceeded(slot);
        }
        Some(crossed)
    }

    /// Window roll: demoted residents leave the session map too.
    fn roll(&mut self, now: SimTime) {
        let map = &mut self.map;
        self.lifecycle.roll_window(now, |flow, _slot| {
            map.remove(&flow);
        });
    }

    /// Removes `flow` for a tier upgrade (not a demotion): returns its
    /// counters so the higher tier continues metering where this one
    /// stopped.
    fn remove_for_upgrade(&mut self, flow: &FiveTuple) -> Option<OffloadedCounters> {
        let e = self.map.remove(flow)?;
        self.lifecycle.vacate(e.slot);
        Some(e.counters)
    }

    /// Ages out idle residents. Slots are vacated in ascending slot order,
    /// so the free-list state after an expiry sweep is independent of the
    /// session map's internal layout.
    fn expire(&mut self, now: SimTime, timeout: SimTime) -> usize {
        let cutoff = timeout.as_nanos();
        self.idle.clear();
        self.idle.extend(
            self.map
                .iter()
                .filter(|(_, e)| now.saturating_since(e.last_active) > cutoff)
                .map(|(f, e)| (e.slot, *f)),
        );
        self.idle.sort_unstable_by_key(|&(slot, _)| slot);
        for &(slot, flow) in &self.idle {
            self.map.remove(&flow);
            self.lifecycle.vacate(slot);
        }
        self.expired += self.idle.len() as u64;
        self.idle.len()
    }
}

/// Entries per candidate-sketch bank: one hardware CAM row's worth of
/// parallel comparators.
const SKETCH_BANK_SLOTS: usize = 64;

/// The three-tier placement engine. See the module docs.
#[derive(Debug)]
pub struct TieredSessionEngine {
    cfg: TierConfig,
    fpga: HwTable,
    dpu: Option<HwTable>,
    /// CPU-side elephant sketch, hash-banked: `candidate_slots` total
    /// entries split into [`SKETCH_BANK_SLOTS`]-entry CAM banks indexed by
    /// a deterministic flow hash. Banking keeps the per-packet scan at one
    /// bank while the slot pool scales to large flow populations — a flat
    /// CAM of the same size would be stolen empty by mice between two
    /// appearances of a mid-rank elephant.
    sketch: Vec<CandidateSketch<FiveTuple>>,
    sketch_window_start: SimTime,
    cpu_pkts: u64,
    promotions: u64,
    upgrades: u64,
}

impl TieredSessionEngine {
    /// Builds the engine from `cfg`.
    ///
    /// # Panics
    /// Panics on zero FPGA capacity, zero sketch slots or a zero elephant
    /// threshold.
    pub fn new(cfg: TierConfig) -> Self {
        assert!(cfg.fpga_capacity > 0, "FPGA tier needs capacity");
        assert!(cfg.candidate_slots > 0, "sketch needs slots");
        assert!(cfg.elephant_pkts_per_window > 0, "threshold must be >= 1");
        Self {
            fpga: HwTable::new(cfg.fpga_capacity, cfg.fpga_install_budget, &cfg),
            dpu: (cfg.dpu_capacity > 0)
                .then(|| HwTable::new(cfg.dpu_capacity, cfg.dpu_install_budget, &cfg)),
            sketch: if cfg.candidate_slots <= SKETCH_BANK_SLOTS {
                vec![CandidateSketch::new(cfg.candidate_slots)]
            } else {
                let banks = cfg.candidate_slots.div_ceil(SKETCH_BANK_SLOTS);
                (0..banks)
                    .map(|_| CandidateSketch::new(SKETCH_BANK_SLOTS))
                    .collect()
            },
            sketch_window_start: SimTime::ZERO,
            cpu_pkts: 0,
            promotions: 0,
            upgrades: 0,
            cfg,
        }
    }

    /// The per-packet hot path: rolls detection windows, serves the packet
    /// from the best resident tier, and — on the CPU path — counts the
    /// flow towards promotion, promoting it when it crosses the elephant
    /// threshold and a budget token is available.
    pub fn on_packet(&mut self, flow: &FiveTuple, bytes: u32, now: SimTime) -> SessionTier {
        self.roll_windows(now);
        let threshold = self.cfg.elephant_pkts_per_window;
        if self.fpga.hit(flow, bytes, now, threshold).is_some() {
            return SessionTier::Fpga;
        }
        if let Some(crossed) = self
            .dpu
            .as_mut()
            .and_then(|d| d.hit(flow, bytes, now, threshold))
        {
            // A DPU resident proving itself an elephant again moves up as
            // soon as the FPGA has a free slot and an install token; its
            // counters move with it. This packet was still DPU-served.
            if crossed && self.fpga.free_slots() > 0 && self.fpga.allow_install(now) {
                let counters = self
                    .dpu
                    .as_mut()
                    .and_then(|d| d.remove_for_upgrade(flow))
                    .expect("hit implies resident");
                let installed = self.fpga.install(*flow, counters, now);
                debug_assert!(installed, "free slot was checked");
                self.upgrades += 1;
            }
            return SessionTier::Dpu;
        }
        self.cpu_pkts += 1;
        if self.sketch_sample(flow) >= threshold {
            self.try_promote(*flow, now);
        }
        SessionTier::Cpu
    }

    /// Counts one CPU-served packet of `flow` in its sketch bank and
    /// returns the updated per-window count.
    fn sketch_sample(&mut self, flow: &FiveTuple) -> u32 {
        use std::hash::BuildHasher;
        let bank = if self.sketch.len() == 1 {
            0
        } else {
            (BuildDetHasher.hash_one(flow) % self.sketch.len() as u64) as usize
        };
        self.sketch[bank].sample(*flow)
    }

    /// Promotion placement: FPGA while it has room, DPU overflow next,
    /// pressure eviction in the overflow tier last. A tier with room but
    /// no install token defers (the sketch keeps the flow's count, so its
    /// next CPU packet retries — traffic is the retry queue).
    fn try_promote(&mut self, flow: FiveTuple, now: SimTime) {
        if self.fpga.free_slots() > 0 {
            if self.fpga.allow_install(now) {
                self.fpga.install(flow, OffloadedCounters::default(), now);
                self.promotions += 1;
                return;
            }
            self.fpga.deferred += 1;
            // Out of FPGA insertion budget: fall back to the DPU.
        }
        if let Some(d) = self.dpu.as_mut() {
            if d.free_slots() > 0 {
                if d.allow_install(now) {
                    d.install(flow, OffloadedCounters::default(), now);
                    self.promotions += 1;
                } else {
                    d.deferred += 1;
                }
                return;
            }
        }
        if self.fpga.free_slots() > 0 {
            // FPGA had room (only its budget was dry) and no DPU absorbed
            // the flow: nothing to evict.
            return;
        }
        // Every hardware slot is occupied: evict the least-recently-
        // exceeding resident of the overflow tier (DPU when present).
        let tier = self.dpu.as_mut().unwrap_or(&mut self.fpga);
        if tier.allow_install(now) {
            if tier.install(flow, OffloadedCounters::default(), now) {
                self.promotions += 1;
            }
            // `false` = full with eviction disabled, counted refused.
        } else {
            tier.deferred += 1;
        }
    }

    fn roll_windows(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.sketch_window_start);
        if elapsed >= self.cfg.window.as_nanos() {
            self.sketch_window_start = now;
            for bank in &mut self.sketch {
                bank.zero_counts();
            }
        }
        self.fpga.roll(now);
        if let Some(d) = self.dpu.as_mut() {
            d.roll(now);
        }
    }

    /// Ages out hardware residents idle longer than the configured
    /// timeout. The freed capacity is visible to any install at the same
    /// `SimTime` tick issued *after* this call — the caller-driven
    /// expire-then-install ordering `gateway::flowstate` pins too.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let timeout = self.cfg.idle_timeout;
        let mut n = self.fpga.expire(now, timeout);
        if let Some(d) = self.dpu.as_mut() {
            n += d.expire(now, timeout);
        }
        n
    }

    /// The tier `flow` currently resides in ([`SessionTier::Cpu`] when not
    /// offloaded).
    pub fn resident_tier(&self, flow: &FiveTuple) -> SessionTier {
        if self.fpga.map.contains_key(flow) {
            SessionTier::Fpga
        } else if self.dpu.as_ref().is_some_and(|d| d.map.contains_key(flow)) {
            SessionTier::Dpu
        } else {
            SessionTier::Cpu
        }
    }

    /// Hardware counters of `flow`, if resident (the asynchronous CPU
    /// stats pull).
    pub fn read(&self, flow: &FiveTuple) -> Option<OffloadedCounters> {
        self.fpga
            .map
            .get(flow)
            .or_else(|| self.dpu.as_ref().and_then(|d| d.map.get(flow)))
            .map(|e| e.counters)
    }

    /// CPU cost in ns of a packet served by `tier` (the session write the
    /// hardware tiers absorb).
    pub fn cpu_cost_ns(&self, tier: SessionTier) -> u64 {
        match tier {
            SessionTier::Cpu => self.cfg.cpu_session_ns,
            SessionTier::Fpga | SessionTier::Dpu => 0,
        }
    }

    /// Added (non-core-occupying) latency in ns of a packet served by
    /// `tier` — the DPU detour.
    pub fn added_latency_ns(&self, tier: SessionTier) -> u64 {
        match tier {
            SessionTier::Dpu => self.cfg.dpu_pkt_ns,
            SessionTier::Fpga | SessionTier::Cpu => 0,
        }
    }

    /// Cumulative stats snapshot.
    pub fn stats(&self) -> TierStats {
        let d = self.dpu.as_ref();
        TierStats {
            fpga_pkts: self.fpga.pkts,
            dpu_pkts: d.map_or(0, |t| t.pkts),
            cpu_pkts: self.cpu_pkts,
            fpga_live: self.fpga.map.len(),
            dpu_live: d.map_or(0, |t| t.map.len()),
            fpga_installs: self.fpga.installs,
            dpu_installs: d.map_or(0, |t| t.installs),
            fpga_installs_deferred: self.fpga.deferred,
            dpu_installs_deferred: d.map_or(0, |t| t.deferred),
            fpga_demotions: self.fpga.lifecycle.demotions(),
            dpu_demotions: d.map_or(0, |t| t.lifecycle.demotions()),
            fpga_evictions: self.fpga.lifecycle.evictions(),
            dpu_evictions: d.map_or(0, |t| t.lifecycle.evictions()),
            fpga_refused: self.fpga.lifecycle.refused(),
            dpu_refused: d.map_or(0, |t| t.lifecycle.refused()),
            fpga_expired: self.fpga.expired,
            dpu_expired: d.map_or(0, |t| t.expired),
            promotions: self.promotions,
            upgrades: self.upgrades,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::IpProtocol;

    fn flow(port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: "10.0.0.1".parse().unwrap(),
            dst_ip: "10.0.0.2".parse().unwrap(),
            src_port: port,
            dst_port: 443,
            protocol: IpProtocol::Tcp,
        }
    }

    fn small_cfg() -> TierConfig {
        TierConfig {
            fpga_capacity: 2,
            dpu_capacity: 4,
            fpga_install_budget: None,
            dpu_install_budget: None,
            elephant_pkts_per_window: 3,
            window: SimTime::from_secs(1),
            demote_after_windows: Some(2),
            evict_on_pressure: true,
            candidate_slots: 8,
            idle_timeout: SimTime::from_secs(10),
            dpu_pkt_ns: 2_000,
            cpu_session_ns: 80,
        }
    }

    /// Drives `n` packets of `f` at 1 µs spacing from `t0`, returning the
    /// tier that served the last one.
    fn drive(e: &mut TieredSessionEngine, f: &FiveTuple, n: u64, t0: SimTime) -> SessionTier {
        let mut last = SessionTier::Cpu;
        for i in 0..n {
            last = e.on_packet(f, 100, t0 + i * 1_000);
        }
        last
    }

    #[test]
    fn elephant_is_promoted_to_fpga_mice_stay_on_cpu() {
        let mut e = TieredSessionEngine::new(small_cfg());
        // Two packets: still CPU (threshold 3). Third crosses → promoted;
        // fourth is served in hardware.
        assert_eq!(drive(&mut e, &flow(1), 3, SimTime::ZERO), SessionTier::Cpu);
        assert_eq!(
            e.on_packet(&flow(1), 100, SimTime::from_micros(3)),
            SessionTier::Fpga
        );
        // A mouse (single packet) never leaves the CPU.
        assert_eq!(
            e.on_packet(&flow(9), 100, SimTime::from_micros(4)),
            SessionTier::Cpu
        );
        let s = e.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.fpga_live, 1);
        assert_eq!(e.resident_tier(&flow(1)), SessionTier::Fpga);
        // Hardware counters track the offloaded packets.
        assert_eq!(e.read(&flow(1)).unwrap().packets, 1);
    }

    #[test]
    fn overflow_elephants_land_in_dpu_then_upgrade() {
        let mut e = TieredSessionEngine::new(small_cfg());
        // Fill the 2-slot FPGA.
        drive(&mut e, &flow(1), 3, SimTime::ZERO);
        drive(&mut e, &flow(2), 3, SimTime::ZERO);
        assert_eq!(e.stats().fpga_live, 2);
        // Third elephant overflows into the DPU.
        drive(&mut e, &flow(3), 3, SimTime::ZERO);
        assert_eq!(e.resident_tier(&flow(3)), SessionTier::Dpu);
        assert_eq!(
            e.on_packet(&flow(3), 100, SimTime::from_micros(9)),
            SessionTier::Dpu
        );
        // An FPGA slot frees (idle expiry) and flow 3 keeps exceeding in a
        // later window: it upgrades into the FPGA, counters intact.
        let t = SimTime::from_secs(20); // everything idles out
        e.expire(t);
        assert_eq!(e.stats().fpga_live + e.stats().dpu_live, 0);
        drive(&mut e, &flow(3), 3, t);
        assert_eq!(e.resident_tier(&flow(3)), SessionTier::Fpga);
    }

    #[test]
    fn install_budget_defers_promotions_and_traffic_retries() {
        let mut cfg = small_cfg();
        cfg.dpu_capacity = 0;
        // 1 install/s, burst 1: the first promotion takes the only token.
        cfg.fpga_install_budget = Some(InstallBudget {
            installs_per_sec: 1.0,
            burst: 1.0,
        });
        let mut e = TieredSessionEngine::new(cfg);
        drive(&mut e, &flow(1), 3, SimTime::ZERO);
        assert_eq!(e.resident_tier(&flow(1)), SessionTier::Fpga);
        // Second elephant crosses the threshold but the bucket is empty:
        // deferred, stays on the CPU.
        drive(&mut e, &flow(2), 4, SimTime::ZERO);
        assert_eq!(e.resident_tier(&flow(2)), SessionTier::Cpu);
        let s = e.stats();
        assert!(s.fpga_installs_deferred >= 1, "deferral must be counted");
        // A second later the bucket refills; flow 2's next CPU packet
        // retries the promotion — traffic is the retry queue.
        drive(&mut e, &flow(2), 4, SimTime::from_secs(2));
        assert_eq!(e.resident_tier(&flow(2)), SessionTier::Fpga);
    }

    #[test]
    fn conforming_resident_is_demoted_back_to_cpu() {
        let mut cfg = small_cfg();
        cfg.dpu_capacity = 0;
        let mut e = TieredSessionEngine::new(cfg);
        drive(&mut e, &flow(1), 4, SimTime::ZERO);
        assert_eq!(e.resident_tier(&flow(1)), SessionTier::Fpga);
        // Two idle windows (demote_after 2), clock kept rolling by a mouse.
        e.on_packet(&flow(9), 100, SimTime::from_secs(3));
        assert_eq!(e.resident_tier(&flow(1)), SessionTier::Cpu);
        assert_eq!(e.stats().fpga_demotions, 1);
        assert_eq!(e.stats().fpga_live, 0);
    }

    #[test]
    fn pressure_evicts_least_recently_exceeding_resident() {
        let mut cfg = small_cfg();
        cfg.dpu_capacity = 0;
        cfg.demote_after_windows = None; // isolate eviction
        let mut e = TieredSessionEngine::new(cfg);
        drive(&mut e, &flow(1), 3, SimTime::ZERO);
        drive(&mut e, &flow(2), 3, SimTime::ZERO);
        // New window: flow 2 keeps exceeding, flow 1 goes quiet.
        let t = SimTime::from_millis(1_500);
        drive(&mut e, &flow(2), 3, t);
        // Third elephant: flow 1 (least recently exceeding) is evicted.
        drive(&mut e, &flow(3), 3, t);
        assert_eq!(e.resident_tier(&flow(1)), SessionTier::Cpu);
        assert_eq!(e.resident_tier(&flow(2)), SessionTier::Fpga);
        assert_eq!(e.resident_tier(&flow(3)), SessionTier::Fpga);
        assert_eq!(e.stats().fpga_evictions, 1);
    }

    #[test]
    fn expire_frees_capacity_for_same_tick_installs() {
        let mut cfg = small_cfg();
        cfg.dpu_capacity = 0;
        cfg.demote_after_windows = None;
        cfg.evict_on_pressure = false;
        let mut e = TieredSessionEngine::new(cfg);
        drive(&mut e, &flow(1), 3, SimTime::ZERO);
        drive(&mut e, &flow(2), 3, SimTime::ZERO);
        assert_eq!(e.stats().fpga_live, 2);
        // Without expiry a third elephant is refused (eviction off)…
        let t = SimTime::from_secs(20);
        // …but an expire at tick `t` frees both slots for installs at the
        // same tick.
        e.expire(t);
        drive(&mut e, &flow(3), 3, t);
        assert_eq!(e.resident_tier(&flow(3)), SessionTier::Fpga);
        assert_eq!(e.stats().fpga_expired, 2);
        assert_eq!(e.stats().fpga_refused, 0);
    }

    #[test]
    fn per_tier_costs_match_config() {
        let e = TieredSessionEngine::new(small_cfg());
        assert_eq!(e.cpu_cost_ns(SessionTier::Fpga), 0);
        assert_eq!(e.cpu_cost_ns(SessionTier::Dpu), 0);
        assert_eq!(e.cpu_cost_ns(SessionTier::Cpu), 80);
        assert_eq!(e.added_latency_ns(SessionTier::Fpga), 0);
        assert_eq!(e.added_latency_ns(SessionTier::Dpu), 2_000);
        assert_eq!(e.added_latency_ns(SessionTier::Cpu), 0);
    }

    #[test]
    fn production_fpga_tier_fits_reserved_bram() {
        let cfg = TierConfig::production();
        // Still a meaningful session table, not a toy tier.
        assert!(cfg.fpga_capacity >= 100_000);
        let device = crate::resource::FpgaDevice::albatross_production();
        let free_bits = (device.bram_bits as f64 * (1.0 - 0.445)) as u64;
        assert!(cfg.fpga_bram_bits() < free_bits);
        assert!(cfg.dpu_table_bytes() >= 64 * 1024 * 1024 / 8);
    }
}

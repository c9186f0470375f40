//! The model fingerprint: a hash over a report's counters and percentiles,
//! with every float written as its raw bits.
//!
//! A change that only speeds up the simulator must leave it unchanged; a
//! change to the cost model moves it and is judged by the bands instead.

use albatross_container::{AzConfig, AzReport, SimReport};

/// Canonical text of a pod report: every counter, the latency percentiles
/// and the hit rate as raw bits.
pub fn pod_canonical(r: &SimReport) -> String {
    let lat = &r.latency;
    let mut s = format!(
        "offered={} processed={} transmitted={} in_order={} out_of_order={} \
         drop_rl={} drop_ingress={} drop_rx={} drop_acl={} hol={} drop_flag={} \
         lat_n={} lat_min={} lat_p50={} lat_p90={} lat_p99={} lat_p999={} lat_max={} \
         hit_bits={:016x} pcie_rx={} pcie_tx={} \
         hh={}/{}/{}/{} tier={}/{}/{}/{}/{}/{}/{}/{}/{} flow={}/{}/{}/{} per_core=",
        r.offered,
        r.processed,
        r.transmitted,
        r.in_order,
        r.out_of_order,
        r.dropped_ratelimit,
        r.dropped_ingress_full,
        r.dropped_rx_queue,
        r.dropped_acl,
        r.hol_timeouts,
        r.drop_flag_releases,
        lat.count(),
        lat.min(),
        lat.percentile(0.5),
        lat.percentile(0.9),
        lat.percentile(0.99),
        lat.percentile(0.999),
        lat.max(),
        r.cache_hit_rate.to_bits(),
        r.pcie_rx_bytes,
        r.pcie_tx_bytes,
        r.hh_promotions,
        r.hh_demotions,
        r.hh_evictions,
        r.hh_promotion_refused,
        r.tier_fpga_pkts,
        r.tier_dpu_pkts,
        r.tier_cpu_pkts,
        r.tier_promotions,
        r.tier_upgrades,
        r.tier_demotions,
        r.tier_evictions,
        r.tier_expired,
        r.tier_installs_deferred,
        r.flow_hits,
        r.flow_installs,
        r.flow_deferred,
        r.flow_expired,
    );
    for p in &r.per_core_processed {
        s.push_str(&p.to_string());
        s.push(',');
    }
    s
}

/// Canonical text of an AZ report: the repository's own canonical render
/// (floats as bits) plus the merged pod counters.
pub fn az_canonical(r: &AzReport, cfg: &AzConfig) -> String {
    format!("{}\n{}", r.render(cfg), pod_canonical(&r.merged))
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn hash(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_fnv1a() {
        assert_eq!(hash(""), "cbf29ce484222325");
        assert_ne!(hash("a"), hash("b"));
    }
}

//! The traced replay must be faithful: on a small configuration of each pod
//! workload, its counts agree with the real `PodSimulation` run's report.
//!
//! Tolerance: zero. The replay follows the real loop call for call, so every
//! counter (offered, limiter drops, processed, transmitted, ACL drops, HOL
//! timeouts, RX drops, flow-state and tier verdicts) must be equal and the
//! modeled L3 hit rate identical to the bit.

use albatross_container::PodSimulation;
use albatross_perfbench::replay::Replay;
use albatross_perfbench::run::check_replay_matches;
use albatross_perfbench::workloads::{Checks, PodWorkload, Size, Workload};

fn faithful(w: Workload, seed: u64) {
    let spec = PodWorkload::new(w, seed, Size::Small).expect("pod workload");
    let report = PodSimulation::new(spec.cfg.clone()).run(spec.source().as_mut(), spec.duration);
    let mut replay = Replay::new(spec.cfg.clone(), 4);
    let whole = replay.run(spec.source().as_mut(), spec.duration);
    let mut checks = Checks::default();
    check_replay_matches(&replay.after_warmup(), &report, &mut checks);
    assert!(
        checks.failed().is_empty(),
        "{}: {:?}",
        w.name(),
        checks.failed()
    );
    assert!(checks.run() >= 15);
    assert!(whole.offered > 0 && whole.events > whole.offered / 2);
    // The small configurations still exercise what each workload is for.
    let mut workload_checks = Checks::default();
    spec.check(&report, &mut workload_checks);
    assert!(
        workload_checks.failed().is_empty(),
        "{}: {:?}",
        w.name(),
        workload_checks.failed()
    );
}

#[test]
fn tab3_inet_replay_matches_the_real_run() {
    faithful(Workload::Tab3Inet, 3);
}

#[test]
fn cps_churn_replay_matches_the_real_run() {
    faithful(Workload::CpsChurn, 3);
}

#[test]
fn tenant_skew_replay_matches_the_real_run() {
    faithful(Workload::TenantSkew, 3);
}

#[test]
fn replay_of_a_warmed_up_pod_matches_after_the_warm_up() {
    // The benchmark's tab3_inet discards a warm-up; the replay's window
    // subtraction must line up with the report's.
    let mut spec = PodWorkload::new(Workload::Tab3Inet, 5, Size::Small).expect("pod workload");
    spec.cfg.warmup = albatross_sim::SimTime::from_micros(700);
    let report = PodSimulation::new(spec.cfg.clone()).run(spec.source().as_mut(), spec.duration);
    let mut replay = Replay::new(spec.cfg.clone(), 1);
    replay.run(spec.source().as_mut(), spec.duration);
    let mut checks = Checks::default();
    check_replay_matches(&replay.after_warmup(), &report, &mut checks);
    assert!(checks.failed().is_empty(), "{:?}", checks.failed());
}

//! Property tests over the simulation substrate.

use albatross_sim::{BoundedQueue, Engine, SimTime, TokenBucket};
use albatross_testkit::prelude::*;

props! {
    #![cases(128)]

    /// The engine pops events in (time, insertion) order no matter the
    /// insertion order of timestamps.
    fn engine_pops_sorted(times in vec_of(0u64..1_000_000, 1..200)) {
        let mut e = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = e.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped.len(), times.len());
        // Sorted by time; ties by insertion index.
        for w in popped.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    /// A bounded queue conserves items: everything pushed is either
    /// popped, still queued, or counted as dropped.
    fn queue_conserves_items(ops in vec_of(any::<bool>(), 1..300), cap in 1usize..32) {
        let mut q = BoundedQueue::new(cap);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (i, &push) in ops.iter().enumerate() {
            if push {
                q.push(i);
                pushed += 1;
            } else if q.pop().is_some() {
                popped += 1;
            }
            assert!(q.len() <= cap);
        }
        assert_eq!(pushed, popped + q.len() as u64 + q.total_dropped());
        assert_eq!(q.total_enqueued() + q.total_dropped(), pushed);
    }

    /// A token bucket never passes more than rate·t + burst packets over
    /// any horizon, for any offered pattern.
    fn token_bucket_never_exceeds_allowance(
        gaps in vec_of(1u64..200_000, 1..400),
        rate in 1_000.0f64..1_000_000.0,
        burst in 1.0f64..500.0,
    ) {
        let mut b = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut passed = 0u64;
        for &gap in &gaps {
            now += gap;
            if b.allow_packet(now) {
                passed += 1;
            }
        }
        let allowance = rate * now.as_secs_f64() + burst;
        assert!(
            (passed as f64) <= allowance + 1.0,
            "passed {} > allowance {:.1}", passed, allowance
        );
    }

    /// Conversely, traffic offered strictly below the rate always passes.
    fn token_bucket_passes_conforming_traffic(
        n in 1u64..500,
        rate in 1_000.0f64..100_000.0,
    ) {
        let mut b = TokenBucket::new(rate, 32.0);
        // Offer at half the configured rate.
        let gap_ns = (2e9 / rate) as u64;
        for i in 0..n {
            let now = SimTime::from_nanos(i * gap_ns);
            assert!(b.allow_packet(now), "conforming packet {} dropped", i);
        }
    }

    /// The timing wheel pops the exact `(time, seq, event)` sequence a
    /// reference min-heap produces, for arbitrary schedules with duplicate
    /// timestamps, interleaved cancels, and pops mixed between schedules.
    /// Timestamps span the wheel window boundary (±262 µs) so near-wheel,
    /// overflow, and migration paths are all exercised.
    fn wheel_matches_reference_heap(
        times in vec_of(0u64..600_000, 1..150),
        ops in vec_of(any::<bool>(), 150),
        cancel_mask in vec_of(any::<bool>(), 150),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut e = Engine::new();
        let mut reference: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut live_ids = Vec::new();
        let mut floor = 0u64; // engine time is monotone; clamp schedules to it
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let at = floor + t;
            let id = e.schedule(SimTime::from_nanos(at), i);
            reference.push(Reverse((at, i)));
            live_ids.push((id, at, i));
            if cancel_mask[i] && !live_ids.is_empty() {
                // Cancel a pseudo-random live event (decided by the mask).
                let k = (i * 7 + t as usize) % live_ids.len();
                let (id, at, seq) = live_ids.swap_remove(k);
                e.cancel(id);
                // Rebuild the reference without that entry.
                let mut kept: Vec<_> = reference.into_vec();
                kept.retain(|&Reverse(x)| x != (at, seq));
                reference = kept.into();
            }
            if ops[i] {
                // Drain one event from both queues.
                if let Some((t_got, ev)) = e.pop() {
                    let Reverse((t_want, seq)) = reference.pop().expect("reference drained early");
                    got.push((t_got.as_nanos(), ev));
                    want.push((t_want, seq));
                    floor = t_got.as_nanos();
                    live_ids.retain(|&(_, _, s)| s != seq);
                }
            }
        }
        while let Some((t_got, ev)) = e.pop() {
            got.push((t_got.as_nanos(), ev));
        }
        while let Some(Reverse((t_want, seq))) = reference.pop() {
            want.push((t_want, seq));
        }
        assert_eq!(got, want);
    }

    /// `pop_until` yields exactly the `(time, seq)` sequence of
    /// `peek_time` followed by `pop`: two engines get the same schedules
    /// and cancels, one pops with deadlines, the other peeks and pops.
    /// Delays reach past the ~262 µs wheel window, so events and cancels
    /// sit on both sides of it, and deadlines fall between events, on them
    /// and one nanosecond before them.
    fn pop_until_matches_peek_then_pop(ops in vec_of((0u8..6, any::<u32>()), 1..400)) {
        let mut a = Engine::new();
        let mut b = Engine::new();
        let mut ids = Vec::new();
        for (seq, &(op, r)) in ops.iter().enumerate() {
            assert_eq!(a.now(), b.now());
            let now = a.now().as_nanos();
            let r = u64::from(r);
            let delay = if r & 1 == 0 { (r >> 1) % 300_000 } else { (r >> 1) % 3_000_000 };
            match op {
                0 | 1 => {
                    let at = SimTime::from_nanos(now + delay);
                    ids.push((a.schedule(at, seq), b.schedule(at, seq)));
                }
                2 if !ids.is_empty() => {
                    let (ida, idb) = ids[r as usize % ids.len()];
                    a.cancel(ida);
                    b.cancel(idb);
                }
                _ => {
                    let deadline = match (op, b.peek_time()) {
                        (4, Some(t)) => t,
                        (5, Some(t)) => SimTime::from_nanos(t.as_nanos().saturating_sub(1)),
                        _ => SimTime::from_nanos(now + delay),
                    };
                    let got = a.pop_until(deadline);
                    let want = match b.peek_time() {
                        Some(t) if t <= deadline => b.pop(),
                        _ => None,
                    };
                    assert_eq!(got, want, "deadline {deadline}");
                }
            }
            assert_eq!(a.len(), b.len());
        }
        let drain = |e: &mut Engine<usize>| std::iter::from_fn(|| e.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    /// Cancelling a subset of events removes exactly those events.
    fn engine_cancellation_is_exact(
        n in 1usize..100,
        cancel_mask in vec_of(any::<bool>(), 100),
    ) {
        let mut e = Engine::new();
        // `Iterator::map` spelled out: ranges are also testkit strategies,
        // whose blanket `map` makes the plain call ambiguous.
        let ids: Vec<_> =
            Iterator::map(0..n, |i| e.schedule(SimTime::from_nanos(i as u64), i)).collect();
        let mut expected = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                e.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        let mut got = Vec::new();
        while let Some((_, i)) = e.pop() {
            got.push(i);
        }
        assert_eq!(got, expected);
    }
}

//! Property-based tests for the simulation engine's core invariants.

use asi_sim::{SimDuration, SimRng, SimTime, Simulator};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, with schedule order
    /// breaking ties among events scheduled from outside a dispatch, no
    /// matter the insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulator::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_ps(t), i);
        }
        let mut popped = Vec::new();
        while let Some(f) = sim.next_event() {
            popped.push((f.time.as_ps(), f.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie-break order violated");
            }
        }
    }

    /// The simulator clock never goes backwards.
    #[test]
    fn simulator_clock_monotonic(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_after(SimDuration::from_ps(d), d);
        }
        let mut last = SimTime::ZERO;
        while let Some(f) = sim.next_event() {
            prop_assert!(f.time >= last);
            prop_assert_eq!(f.time, sim.now());
            last = f.time;
        }
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// Two simulators fed identical schedules produce identical traces, even
    /// when events cascade (each fired event schedules a follow-up).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        fn trace(seed: u64) -> Vec<(u64, u32)> {
            let mut rng = SimRng::new(seed);
            let mut sim = Simulator::new();
            for i in 0..20u32 {
                sim.schedule_at(SimTime::from_ps(rng.gen_below(1000)), i);
            }
            let mut out = Vec::new();
            let mut budget = 200;
            while let Some(f) = sim.next_event() {
                out.push((f.time.as_ps(), f.event));
                if budget > 0 {
                    budget -= 1;
                    let d = rng.gen_below(500);
                    sim.schedule_after(SimDuration::from_ps(d), f.event.wrapping_add(1));
                }
            }
            out
        }
        prop_assert_eq!(trace(seed), trace(seed));
    }

    /// gen_range stays within bounds for arbitrary ranges.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let v = rng.gen_range(lo, hi);
            prop_assert!(v >= lo && v <= hi);
        }
    }

    /// Quantiles are order statistics: q(0) == min, q(1) == max, and the
    /// median of a sorted odd-length set is its middle element.
    #[test]
    fn sampleset_order_statistics(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = asi_sim::SampleSet::new();
        for &x in &xs {
            s.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(s.quantile(0.0), xs[0]);
        prop_assert_eq!(s.quantile(1.0), *xs.last().unwrap());
        if xs.len() % 2 == 1 {
            prop_assert_eq!(s.median(), xs[xs.len() / 2]);
        }
    }
}

//! Property-based tests for counter-bank and sampling invariants.

use proptest::prelude::*;
use tdp_counters::{
    CounterBank, InterruptAccounting, InterruptSnapshot, InterruptSource, PerfEvent, SampleSet,
    SamplerConfig, SamplingDriver,
};

fn arb_event() -> impl Strategy<Value = PerfEvent> {
    (0..PerfEvent::count()).prop_map(|i| PerfEvent::ALL[i])
}

proptest! {
    /// A bank's read-out equals the sum of everything added since the
    /// last clear, for arbitrary add sequences.
    #[test]
    fn bank_totals_are_exact_sums(
        adds in prop::collection::vec((arb_event(), 0u64..1_000_000), 0..100),
    ) {
        let mut bank = CounterBank::default();
        bank.program(PerfEvent::ALL).unwrap();
        let mut expected = vec![0u64; PerfEvent::count()];
        for &(e, n) in &adds {
            bank.add(e, n);
            expected[e.index()] += n;
        }
        let mut set = SampleSet::empty();
        bank.read_and_clear_column(set.reset(PerfEvent::ALL.iter().copied(), 1), 1, 0);
        prop_assert_eq!(set.events(), PerfEvent::ALL);
        for &e in PerfEvent::ALL {
            prop_assert_eq!(set.total(e), Some(expected[e.index()]));
        }
        // Second read is all zeros.
        bank.read_and_clear_column(set.reset(PerfEvent::ALL.iter().copied(), 1), 1, 0);
        prop_assert!(set.counts().iter().all(|&n| n == 0));
    }

    /// The sampling driver fires exactly once per period no matter how
    /// finely time is polled.
    #[test]
    fn driver_fires_once_per_period(
        period in 10u64..2_000,
        step in 1u64..50,
        horizon_periods in 1u64..20,
    ) {
        let mut d = SamplingDriver::new(SamplerConfig {
            period_ms: period,
            max_jitter_ms: 0,
        });
        let horizon = period * horizon_periods;
        let mut fires = 0u64;
        let mut t = 0;
        while t <= horizon + period {
            if d.poll(t).is_some() {
                fires += 1;
            }
            t += step;
        }
        // Periods re-anchor at the actual (polled) fire time, so each
        // effective period is in [period, period + step).
        let min_fires = (horizon + period) / (period + step);
        prop_assert!(
            fires >= min_fires && fires <= horizon_periods + 2,
            "{fires} fires over {horizon_periods} periods (step {step})"
        );
    }

    /// Interrupt accounting: cumulative counts equal the sum of all
    /// window deltas, per CPU and source.
    #[test]
    fn interrupt_deltas_partition_cumulative(
        events in prop::collection::vec((0u8..4, 0u8..4), 0..200),
        snapshot_every in 1usize..20,
    ) {
        let mut acc = InterruptAccounting::new(4);
        let mut snap = InterruptSnapshot::default();
        let mut delta_total = 0u64;
        for (i, &(cpu, kind)) in events.iter().enumerate() {
            let source = match kind {
                0 => InterruptSource::Timer,
                1 => InterruptSource::Disk(0),
                2 => InterruptSource::Nic,
                _ => InterruptSource::Other,
            };
            acc.record(cpu, source);
            if i % snapshot_every == 0 {
                acc.snapshot_delta(&mut snap);
                delta_total += snap.total();
            }
        }
        acc.snapshot_delta(&mut snap);
        delta_total += snap.total();
        prop_assert_eq!(delta_total, events.len() as u64);
        let cumulative: u64 = (0..4u8)
            .map(|c| {
                acc.cumulative(c, InterruptSource::Timer)
                    + acc.cumulative(c, InterruptSource::Disk(0))
                    + acc.cumulative(c, InterruptSource::Nic)
                    + acc.cumulative(c, InterruptSource::Other)
            })
            .sum();
        prop_assert_eq!(cumulative, events.len() as u64);
    }
}

//! The synthetic fleet the wire integration tests share.

use tdp_counters::{PerfEvent, SampleSet};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A realistic 4-CPU machine-window over `layout`: counts scaled per
/// event so the derived rates land in each model's operating range and
/// inside the `row_is_sane` sanity bounds, drawn CPU by CPU in layout
/// order from a `(machine, seq)` seed.
///
/// A `spiked` machine runs its uop and bus rates far above the fleet —
/// a runaway workload — while staying inside every sanity cap, so the
/// row is *not* quarantined: only the anomaly detector can catch it.
pub fn synthetic_set(machine: u64, seq: u64, layout: &[PerfEvent], spiked: bool) -> SampleSet {
    const CPUS: usize = 4;
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let mut set = SampleSet::empty();
    set.seq = seq;
    let block = set.reset(layout.iter().copied(), CPUS);
    for cpu in 0..CPUS {
        for (e, &event) in layout.iter().enumerate() {
            let r = xorshift(&mut rng);
            let (scale, boost): (u64, u64) = match event {
                PerfEvent::Cycles => (2_000_000_000, 1),
                PerfEvent::HaltedCycles => (900_000_000, 1),
                PerfEvent::FetchedUops => (2_500_000_000, 4),
                PerfEvent::L3LoadMisses => (4_000_000, 5),
                PerfEvent::BusTransactionsAll => (25_000_000, 4),
                PerfEvent::DmaOtherBusTransactions => (1_500_000, 4),
                PerfEvent::InterruptsTotal => (6_000, 4),
                PerfEvent::TimerInterrupts => (2_000, 1),
                PerfEvent::DiskInterrupts => (900, 4),
                _ => (10_000, 1),
            };
            let base = scale / 2 + r % scale;
            block[e * CPUS + cpu] = if spiked { base * boost } else { base };
        }
    }
    set
}

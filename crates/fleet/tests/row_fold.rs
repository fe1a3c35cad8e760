//! A machine's row must depend on its own counter read alone: whatever
//! PMU layouts the batch ingested before, each row is bit for bit the
//! scalar reference fold ([`RowAccumulator`]) over each CPU's counts
//! in [`SampleSet::plane`] — reordered, truncated, extended or
//! duplicated event lists can never misattribute a count to the wrong
//! column.
//!
//! The deterministic tests pin the mid-stream reprogramming scenarios
//! by name; the property test drives ingestion through arbitrary
//! shuffled/subset layouts and checks bitwise agreement with the
//! reference on every row.

use proptest::prelude::*;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{col, RowAccumulator, SampleBatch, COLUMNS, ROW_EVENTS};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sample set whose CPUs all list `layout` in order, with
/// seed-derived counts large enough to produce nonzero rates.
fn set_with_layout(layout: &[PerfEvent], seed: u64, cpus: usize) -> SampleSet {
    let mut s = seed;
    set_of(layout, cpus, seed, |e| {
        let base = if layout[e] == PerfEvent::Cycles {
            1_000_000_000
        } else {
            0
        };
        base + splitmix(&mut s) % 1_000_000_000
    })
}

/// The one-second window `seq` of `cpus` CPUs over `layout`, each CPU
/// reading `count(e)` for `layout[e]`, drawn CPU by CPU.
fn set_of(
    layout: &[PerfEvent],
    cpus: usize,
    seq: u64,
    mut count: impl FnMut(usize) -> u64,
) -> SampleSet {
    let mut set = SampleSet::empty();
    set.seq = seq;
    set.time_ms = 1000;
    set.window_ms = 1000;
    let block = set.reset(layout.iter().copied(), cpus);
    for c in 0..cpus {
        for e in 0..layout.len() {
            block[e * cpus + c] = count(e);
        }
    }
    set
}

/// Seed-derived layout: a subset of all events, Fisher–Yates shuffled.
fn arbitrary_layout(seed: u64) -> Vec<PerfEvent> {
    let mut s = seed;
    let mask = splitmix(&mut s);
    let mut layout: Vec<PerfEvent> = PerfEvent::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, &e)| e)
        .collect();
    for i in (1..layout.len()).rev() {
        layout.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
    layout
}

/// Row `i` of a batch, as bits.
fn row_bits(batch: &SampleBatch, i: usize) -> [u64; COLUMNS] {
    let cols = batch.columns();
    std::array::from_fn(|k| cols[k][i].to_bits())
}

/// The reference row: [`RowAccumulator`] fed each CPU's counts from
/// [`SampleSet::plane`] (first occurrence, `None` if absent).
fn reference_row_bits(set: &SampleSet) -> [u64; COLUMNS] {
    let mut acc = RowAccumulator::new(set.num_cpus());
    for cpu in 0..set.num_cpus() {
        acc.accumulate_cpu(ROW_EVENTS.map(|e| set.plane(e).map(|p| p[cpu])));
    }
    acc.finish().map(f64::to_bits)
}

fn assert_stream_matches_reference(sets: &[SampleSet]) {
    let mut batch = SampleBatch::new();
    for set in sets {
        batch.push_sample_set(set);
    }
    for (i, set) in sets.iter().enumerate() {
        assert_eq!(
            row_bits(&batch, i),
            reference_row_bits(set),
            "sample {i}: ingested row diverged from the reference fold"
        );
    }
}

/// The canonical nine-event trickle-down programming.
const TRICKLE: [PerfEvent; 9] = [
    PerfEvent::Cycles,
    PerfEvent::HaltedCycles,
    PerfEvent::FetchedUops,
    PerfEvent::L3LoadMisses,
    PerfEvent::BusTransactionsAll,
    PerfEvent::DmaOtherBusTransactions,
    PerfEvent::InterruptsTotal,
    PerfEvent::TimerInterrupts,
    PerfEvent::DiskInterrupts,
];

#[test]
fn reordered_layout_mid_stream_invalidates_the_memo() {
    // Same events at new positions, then back again: no row may read a
    // position remembered from an earlier layout.
    let mut reversed = TRICKLE;
    reversed.reverse();
    let mut rotated = TRICKLE;
    rotated.rotate_left(4);
    assert_stream_matches_reference(&[
        set_with_layout(&TRICKLE, 1, 4),
        set_with_layout(&TRICKLE, 2, 4),
        set_with_layout(&reversed, 3, 4),
        set_with_layout(&rotated, 4, 4),
        set_with_layout(&TRICKLE, 5, 4), // back again
    ]);
}

#[test]
fn extended_layout_mid_stream_shifts_no_columns() {
    // The PMU gains extra events in front of and between the wanted
    // ones — every event position moves at once.
    let extended: Vec<PerfEvent> = [PerfEvent::TlbMisses, PerfEvent::L2Misses]
        .iter()
        .chain(TRICKLE.iter())
        .chain([PerfEvent::BranchMispredictions].iter())
        .copied()
        .collect();
    let interleaved: Vec<PerfEvent> = TRICKLE
        .iter()
        .flat_map(|&e| [e, PerfEvent::RetiredUops])
        .collect();
    // `interleaved` lists RetiredUops nine times; dedupe to keep the
    // first-occurrence rule trivially satisfied by construction.
    let mut seen = std::collections::HashSet::new();
    let interleaved: Vec<PerfEvent> = interleaved
        .into_iter()
        .filter(|e| seen.insert(*e))
        .collect();
    assert_stream_matches_reference(&[
        set_with_layout(&TRICKLE, 10, 3),
        set_with_layout(&extended, 11, 3),
        set_with_layout(&interleaved, 12, 3),
        set_with_layout(&TRICKLE, 13, 3),
    ]);
}

#[test]
fn truncated_layout_mid_stream_zeroes_missing_events_only() {
    // Events vanish (the counters were reprogrammed): their rates must read
    // zero, and surviving events must keep their true values.
    let partial = [PerfEvent::Cycles, PerfEvent::FetchedUops];
    assert_stream_matches_reference(&[
        set_with_layout(&TRICKLE, 20, 2),
        set_with_layout(&partial, 21, 2),
        set_with_layout(&TRICKLE, 22, 2),
    ]);
}

#[test]
fn oversized_layout_falls_back_without_misattribution() {
    // A 33-event list (every event, then the first 15 again): longer
    // than any real PMU programming, and full of duplicates.
    let oversized: Vec<PerfEvent> = PerfEvent::ALL
        .iter()
        .chain(PerfEvent::ALL.iter().take(15))
        .copied()
        .collect();
    assert!(oversized.len() > 32);
    assert_stream_matches_reference(&[
        set_with_layout(&oversized, 30, 2),
        set_with_layout(&oversized, 31, 2),
        set_with_layout(&TRICKLE, 32, 2),
    ]);
}

#[test]
fn duplicated_event_reads_its_first_occurrence_whatever_came_before() {
    // The first layout puts Cycles second; the next lists Cycles twice,
    // at positions 0 (1e6) and 1 (2e6). Its row must use the first
    // occurrence, as `SampleSet::plane` and the wire decoder do,
    // not the position the previous layout left Cycles at.
    let shifted: Vec<PerfEvent> = [PerfEvent::TlbMisses]
        .iter()
        .chain(TRICKLE.iter())
        .copied()
        .collect();
    let doubled_layout: Vec<PerfEvent> = [PerfEvent::Cycles]
        .iter()
        .chain(TRICKLE.iter())
        .copied()
        .collect();
    let doubled = set_of(&doubled_layout, 4, 1, |e| match doubled_layout[e] {
        PerfEvent::Cycles if e == 0 => 1_000_000,
        PerfEvent::Cycles => 2_000_000,
        PerfEvent::HaltedCycles => 250_000,
        _ => 1_000,
    });
    let sets = [set_with_layout(&shifted, 40, 4), doubled];
    assert_stream_matches_reference(&sets);

    let mut batch = SampleBatch::new();
    for set in &sets {
        batch.push_sample_set(set);
    }
    let cpu_active = 1.0 - 250_000.0 * (1.0 / 1e6);
    assert_eq!(
        batch.columns()[col::ACTIVE][1],
        cpu_active + cpu_active + cpu_active + cpu_active,
        "halted / Cycles must divide by the first Cycles count, 1e6"
    );
}

proptest! {
    /// Arbitrary streams of shuffled-subset layouts: every row agrees
    /// with the reference fold bit for bit, no matter how layouts
    /// mutate between samples.
    #[test]
    fn shuffled_layout_streams_match_fresh_extraction(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        cpus in 1usize..5,
    ) {
        let sets: Vec<SampleSet> = seeds
            .iter()
            .map(|&s| set_with_layout(&arbitrary_layout(s), s ^ 0xabcd, cpus))
            .collect();
        let mut batch = SampleBatch::new();
        for set in &sets {
            batch.push_sample_set(set);
        }
        for (i, set) in sets.iter().enumerate() {
            prop_assert_eq!(
                row_bits(&batch, i),
                reference_row_bits(set),
                "sample {} diverged", i
            );
        }
    }
}

//! Format-equivalence guarantees of the column-planar sample frames:
//! whatever the layout, CPU count or value range, ingesting a planar
//! stream produces **bit-identical** fleet rows and estimates to
//! ingesting the same windows as varint frames — batched and per-row
//! reference — and a battered planar stream degrades under exactly the same
//! clean-subset contract as the legacy format.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_wire::{
    ingest_reference_with, ingest_serial_with, FaultKind, FaultPlan, FrameKind, IngestState,
    WireEncoder,
};
use trickledown::SystemPowerModel;

/// Events a random layout draws from — trickle-down inputs plus the
/// deliberately-irrelevant alternates, so layouts of any shape appear.
const EVENT_POOL: [PerfEvent; 12] = [
    PerfEvent::Cycles,
    PerfEvent::HaltedCycles,
    PerfEvent::FetchedUops,
    PerfEvent::RetiredUops,
    PerfEvent::L2Misses,
    PerfEvent::L3LoadMisses,
    PerfEvent::TlbMisses,
    PerfEvent::BusTransactionsAll,
    PerfEvent::DmaOtherBusTransactions,
    PerfEvent::InterruptsTotal,
    PerfEvent::TimerInterrupts,
    PerfEvent::DiskInterrupts,
];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random layout: `n_events` distinct events from the pool, order
/// shuffled by `seed`.
fn random_layout(n_events: usize, seed: u64) -> Vec<PerfEvent> {
    let mut pool = EVENT_POOL.to_vec();
    let mut rng = seed | 1;
    for i in (1..pool.len()).rev() {
        pool.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
    }
    pool.truncate(n_events);
    pool
}

/// Builds one machine-window over `layout` with explicit per-CPU
/// counts: `counts[cpu][event]`.
fn set_from_counts(seq: u64, layout: &[PerfEvent], counts: &[Vec<u64>]) -> SampleSet {
    let per_cpu = counts
        .iter()
        .enumerate()
        .map(|(cpu, row)| {
            let pairs = layout.iter().copied().zip(row.iter().copied()).collect();
            CounterSample::new(CpuId::new(cpu as u8), seq, pairs)
        })
        .collect();
    SampleSet {
        time_ms: (seq + 1) * 1000,
        window_ms: 1000,
        seq,
        per_cpu,
        interrupts: InterruptSnapshot::default(),
    }
}

/// Encodes `sets` as one window in the given format.
fn encode_as(kind: FrameKind, sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::with_kind(kind);
    for (id, set) in sets.iter().enumerate() {
        enc.push_sample_set(id as u64, set).unwrap();
    }
    enc.finish()
}

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn total_bits(est: &mut FleetEstimator) -> Vec<u64> {
    est.estimate().total().iter().map(|v| v.to_bits()).collect()
}

/// Ingests `wire` serially and returns `(batch bits, estimate bits)`.
fn serial_bits(wire: &[u8], machines: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial_with(&mut IngestState::new(), wire, machines, &mut est);
    assert_eq!(rep.corrupt_frames + rep.resyncs, 0, "clean stream");
    (batch_bits(&est), total_bits(&mut est))
}

/// Ingests `wire` through the per-row reference and returns the bits.
fn reference_bits(wire: &[u8], machines: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_reference_with(&mut IngestState::new(), wire, machines, &mut est);
    assert_eq!(rep.corrupt_frames + rep.resyncs, 0, "clean stream");
    (batch_bits(&est), total_bits(&mut est))
}

/// Width-boundary constants every plane-width decision pivots on.
const BOUNDARIES: [u64; 17] = [
    0,
    (1 << 7) - 1,
    1 << 7,
    (1 << 8) - 1,
    1 << 8,
    (1 << 15) - 1,
    1 << 15,
    (1 << 16) - 1,
    1 << 16,
    (1 << 31) - 1,
    1 << 31,
    (1 << 32) - 1,
    1u64 << 32,
    // Sign-bit neighbourhood: consecutive counts drawn from here and
    // from the small classes produce CPU-over-CPU deltas at the
    // i64::MIN/i64::MAX zigzag extremes.
    (1u64 << 63) - 1,
    1u64 << 63,
    (1u64 << 63) + 1,
    u64::MAX,
];

/// A count that lands on every interesting plane-width boundary with
/// decent probability, alongside uniform draws from each width class.
fn boundary_value() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u64..21).prop_map(|(raw, pick)| match pick {
        p if (p as usize) < BOUNDARIES.len() => BOUNDARIES[p as usize],
        17 => raw & 0xff,
        18 => raw & 0xffff,
        19 => raw & 0xffff_ffff,
        _ => raw,
    })
}

proptest! {
    /// Core tentpole property: for any layout shape, CPU count and
    /// value mix — including values straddling every plane-width
    /// boundary, which induce CPU-over-CPU deltas of every zigzag
    /// width — the planar and varint encodings of the same windows
    /// ingest to bit-identical fleet rows and estimates. Besides 1–7
    /// CPUs, about one case in five is a 32- or 65-CPU frame with at
    /// least 128 delta lanes, the shape of a large server.
    #[test]
    fn planar_and_varint_ingest_bit_identically(
        machines in 1usize..6,
        shape in (0usize..9, 1usize..10).prop_map(|(c, n)| match c {
            7 => (32, n.max(5)),
            8 => (65, n.max(2)),
            c => (c + 1, n),
        }),
        layout_seed in any::<u64>(),
        values in prop::collection::vec(boundary_value(), 6 * 65 * 10),
    ) {
        let (cpus, n_events) = shape;
        let layout = random_layout(n_events, layout_seed);
        let sets: Vec<SampleSet> = (0..machines)
            .map(|m| {
                let counts: Vec<Vec<u64>> = (0..cpus)
                    .map(|cpu| {
                        (0..n_events)
                            .map(|e| values[(m * 65 + cpu) * 10 + e])
                            .collect()
                    })
                    .collect();
                set_from_counts(0, &layout, &counts)
            })
            .collect();

        let planar = encode_as(FrameKind::Planar, &sets);
        let varint = encode_as(FrameKind::Varint, &sets);
        prop_assert_eq!(
            serial_bits(&planar, machines),
            serial_bits(&varint, machines),
            "serial ingest diverged between formats"
        );
        prop_assert_eq!(
            reference_bits(&planar, machines),
            serial_bits(&varint, machines),
            "reference planar ingest diverged from serial varint ingest"
        );
    }
}

#[test]
fn width_boundary_deltas_roundtrip_bit_identically() {
    // Hand-placed CPU-over-CPU deltas at every signed width boundary:
    // ±2^7, ±2^15, ±2^31 and their neighbours, the exact points where
    // the planar encoder steps its per-plane byte width. Chains start
    // high or at zero so both underflow wrapping and plain arithmetic
    // appear.
    let deltas: [i64; 21] = [
        0,
        1,
        -1,
        (1 << 7) - 1,
        -(1 << 7),
        1 << 7,
        -(1 << 7) - 1,
        (1 << 15) - 1,
        -(1 << 15),
        1 << 15,
        -(1 << 15) - 1,
        (1 << 31) - 1,
        -(1i64 << 31),
        1 << 31,
        -(1i64 << 31) - 1,
        (1i64 << 32) - 1,
        -(1i64 << 32),
        i64::MAX,
        // The zigzag extremes: i64::MIN encodes to u64::MAX, the one
        // delta a sign-magnitude width pick would underprice.
        i64::MIN,
        i64::MIN + 1,
        -i64::MAX,
    ];
    let bases: [u64; 7] = [
        0,
        (1 << 8) - 1,
        1 << 16,
        (1 << 32) - 1,
        1 << 40,
        u64::MAX,
        1 << 63,
    ];
    let cpus = 4usize;
    // 3 deltas per 4-CPU chain; 21 deltas need 7 events, matching the
    // base list so every base width appears too.
    let layout = random_layout(7, 7);
    let counts: Vec<Vec<u64>> = (0..cpus)
        .map(|cpu| {
            (0..layout.len())
                .map(|e| {
                    let mut v = bases[e];
                    for d in deltas.iter().skip(e * 3).take(cpu) {
                        v = v.wrapping_add(*d as u64);
                    }
                    v
                })
                .collect()
        })
        .collect();
    let sets = [set_from_counts(0, &layout, &counts)];

    let planar = encode_as(FrameKind::Planar, &sets);
    let varint = encode_as(FrameKind::Varint, &sets);
    assert_eq!(
        serial_bits(&planar, 1),
        serial_bits(&varint, 1),
        "boundary deltas must decode identically in both formats"
    );
    assert_eq!(reference_bits(&planar, 1), serial_bits(&varint, 1));
}

/// The nine trickle-down input events, in [`tdp_fleet::ROW_EVENTS`]
/// order.
const NINE_EVENTS: [PerfEvent; 9] = [
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

/// A realistic in-range machine-window (the chaos leg needs rows that
/// pass the sanity policy, so degradation comes only from the plan).
fn sane_set(machine: u64, seq: u64) -> SampleSet {
    let layout = NINE_EVENTS;
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|_| {
            layout
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000_000,
                        PerfEvent::HaltedCycles => 900_000_000,
                        PerfEvent::FetchedUops => 2_500_000_000,
                        PerfEvent::L3LoadMisses => 4_000_000,
                        PerfEvent::BusTransactionsAll => 25_000_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500_000,
                        PerfEvent::InterruptsTotal => 6_000,
                        PerfEvent::TimerInterrupts => 2_000,
                        _ => 900,
                    };
                    scale / 2 + r % scale.max(1)
                })
                .collect()
        })
        .collect();
    set_from_counts(seq, &layout, &counts)
}

#[test]
fn faulted_planar_stream_upholds_the_clean_subset_invariant() {
    // The chaos contract, explicitly over planar frames: bit flips are
    // caught by the checksum, framing damage resyncs, and machines
    // untouched by any fault within the staleness horizon estimate
    // bit-identically to a fault-free planar run.
    const MACHINES: usize = 16;
    const WINDOWS: u64 = 10;
    let plan = FaultPlan::new(0x00c0_ffee);

    let mut clean_enc = WireEncoder::with_kind(FrameKind::Planar);
    let mut fault_enc = WireEncoder::with_kind(FrameKind::Planar);
    let mut clean_state = IngestState::new();
    let mut fault_state = IngestState::new();
    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut fault_est = FleetEstimator::new(SystemPowerModel::paper());
    let horizon = clean_state.policy().max_stale_windows as usize + 1;
    let mut recent: Vec<BTreeSet<u64>> = Vec::new();
    let (mut flips_seen, mut framing_seen) = (0u64, 0u64);

    for w in 0..WINDOWS {
        let encode = |enc: &mut WireEncoder| {
            for m in 0..MACHINES as u64 {
                enc.push_sample_set(m, &sane_set(m, w)).unwrap();
            }
            enc.take_bytes()
        };
        let clean_buf = encode(&mut clean_enc);
        let fault_src = encode(&mut fault_enc);
        assert_eq!(clean_buf, fault_src, "planar encoding is deterministic");

        // Window 0 delivers the layouts intact; later windows burn.
        let faulted = (w > 0).then(|| plan.apply(w, &fault_src));
        let buf = faulted
            .as_ref()
            .map_or(fault_src.clone(), |f| f.bytes.clone());
        recent.push(
            faulted
                .as_ref()
                .map(|f| f.affected.clone())
                .unwrap_or_default(),
        );

        ingest_serial_with(&mut clean_state, &clean_buf, MACHINES, &mut clean_est);
        let rep = ingest_serial_with(&mut fault_state, &buf, MACHINES, &mut fault_est);
        if let Some(f) = &faulted {
            // Every destructive fault must land in its health counter.
            flips_seen += f.count(FaultKind::BitFlip);
            framing_seen += f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
            assert!(
                rep.corrupt_frames >= f.count(FaultKind::BitFlip),
                "window {w}: bit flips slipped past the planar checksum"
            );
            assert!(
                rep.resyncs >= f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail),
                "window {w}: framing damage did not resync"
            );
            assert!(
                rep.rows_quarantined >= f.count(FaultKind::RateSpike),
                "window {w}: spiked planar rows were not quarantined"
            );
            assert!(
                rep.resets_detected + rep.duplicate_windows
                    >= f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame),
                "window {w}: sequence faults went unaccounted"
            );
        }

        let clean_e = clean_est.estimate();
        let fault_e = fault_est.estimate();
        let dirty: BTreeSet<u64> = recent
            .iter()
            .rev()
            .take(horizon)
            .flatten()
            .copied()
            .collect();
        for m in 0..MACHINES {
            if dirty.contains(&(m as u64)) {
                continue;
            }
            assert_eq!(
                fault_e.total()[m].to_bits(),
                clean_e.total()[m].to_bits(),
                "window {w}: clean machine {m} diverged under planar chaos"
            );
        }
    }
    assert!(
        flips_seen + framing_seen > 0,
        "the plan must actually have exercised checksum and resync paths"
    );
}

/// A sane machine-window whose counter magnitudes are scaled by
/// `magnitude`: rates (count / cycles) stay in the sanity envelope
/// while the planar plane widths step through entirely different
/// width-directory bytes.
fn scaled_set(machine: u64, seq: u64, magnitude: u64) -> SampleSet {
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        .wrapping_add(magnitude.wrapping_mul(0x6a09_e667_f3bc_c909))
        | 1;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|_| {
            NINE_EVENTS
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000,
                        PerfEvent::HaltedCycles => 900_000,
                        PerfEvent::FetchedUops => 2_500_000,
                        PerfEvent::L3LoadMisses => 4_000,
                        PerfEvent::BusTransactionsAll => 25_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500,
                        PerfEvent::InterruptsTotal => 600,
                        PerfEvent::TimerInterrupts => 200,
                        _ => 90,
                    };
                    let scale = scale.saturating_mul(magnitude);
                    scale / 2 + r % scale.max(1)
                })
                .collect()
        })
        .collect();
    set_from_counts(seq, &NINE_EVENTS, &counts)
}

/// The decimation × planar chaos regression: adaptive sampling
/// (phase-staggered skipped windows), a mid-run width-directory
/// change, and a window-sequence reset all land in one stream — and
/// the fused planar ingest must remain bit-identical to the varint reference leg, row
/// for row, window for window, including the held/reconstructed rows
/// of decimated machines.
#[test]
fn decimated_planar_stream_with_width_change_and_seq_reset_matches_varint() {
    const MACHINES: usize = 8;
    const WINDOWS: u64 = 24;
    /// Window where machine 3's counter magnitudes jump three decades
    /// (every plane width changes).
    const WIDTH_JUMP_AT: u64 = 10;
    /// Window where machine 5's producer reboots (window_seq restarts
    /// from 0 — the ledger re-baselines it as a reset).
    const RESET_AT: u64 = 15;

    let mut planar_enc = WireEncoder::with_kind(FrameKind::Planar);
    let mut varint_enc = WireEncoder::with_kind(FrameKind::Varint);
    // Mixed negotiated decimations: every-window, every-2nd, every-4th.
    for m in 0..MACHINES as u64 {
        let dec = [1u16, 1, 2, 2, 4, 4, 4, 1][m as usize];
        planar_enc.set_decimation(m, dec);
        varint_enc.set_decimation(m, dec);
    }

    let mut planar_state = IngestState::new();
    let mut varint_state = IngestState::new();
    let mut planar_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut varint_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut resets_seen = 0u64;

    for w in 0..WINDOWS {
        for m in 0..MACHINES as u64 {
            let seq = if m == 5 && w >= RESET_AT {
                w - RESET_AT
            } else {
                w
            };
            if !planar_enc.should_send(m, seq) {
                continue;
            }
            let magnitude = if m == 3 && w >= WIDTH_JUMP_AT {
                1_000_000
            } else {
                1_000
            };
            let set = scaled_set(m, seq, magnitude);
            planar_enc.push_sample_set(m, &set).unwrap();
            varint_enc.push_sample_set(m, &set).unwrap();
        }
        let planar_buf = planar_enc.take_bytes();
        let varint_buf = varint_enc.take_bytes();

        let planar_rep =
            ingest_serial_with(&mut planar_state, &planar_buf, MACHINES, &mut planar_est);
        let varint_rep =
            ingest_serial_with(&mut varint_state, &varint_buf, MACHINES, &mut varint_est);

        assert_eq!(
            planar_rep.rows_written, varint_rep.rows_written,
            "window {w}: legs committed different row counts"
        );
        assert_eq!(
            planar_rep.resets_detected, varint_rep.resets_detected,
            "window {w}: legs disagree on sequence resets"
        );
        assert_eq!(
            batch_bits(&planar_est),
            batch_bits(&varint_est),
            "window {w}: planar batch diverged from the varint reference"
        );
        let p: Vec<u64> = planar_est
            .estimate()
            .total()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let v: Vec<u64> = varint_est
            .estimate()
            .total()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(p, v, "window {w}: estimates diverged between formats");
        resets_seen += planar_rep.resets_detected;
    }
    // Machine 5's rebooted counter transmits again (decimation phase)
    // a window after RESET_AT; the reset must not go unnoticed.
    assert!(resets_seen >= 1, "the seq reset was never detected");
}

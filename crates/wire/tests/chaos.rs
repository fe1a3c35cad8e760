//! Chaos test: a seeded [`FaultPlan`] batters a multi-window stream
//! while persistent ingest degrades gracefully — every injected fault
//! lands in a pipeline-health counter, every machine either contributes
//! a row or is known-stale, machines untouched by recent faults
//! estimate **bit-identically** to a fault-free run, and the whole
//! scenario replays deterministically (under arbitrary fault seeds,
//! against the recorded outcomes of three fixed ones, and with the
//! anomaly detector judging the battered estimates).

mod common;

use common::synthetic_set;
use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{AnomalyDetector, FleetEstimator, ROW_EVENTS};
use tdp_wire::frame::FrameType;
use tdp_wire::{
    ingest_serial, ingest_serial_with, CursorItem, FaultKind, FaultPlan, FaultedWindow,
    FrameCursor, HealthState, IngestState, StreamReport, WireEncoder, MAX_STALE_WINDOWS,
};
use trickledown::SystemPowerModel;

const MACHINES: usize = 24;
/// Long enough for an outage to cross the staleness horizon, recover
/// and rejoin the clean subset, and for the anomaly detector's baseline
/// to fill.
const WINDOWS: u64 = 24;
const SEED: u64 = 0x00c0_ffee;
/// Further fault plans the degradation contract is checked under.
const MORE_FAULT_SEEDS: [u64; 2] = [1234, 4321];
/// Windows per arbitrary-seed property case: enough for a machine
/// silenced in window 1 to cross the staleness horizon.
const PROPERTY_WINDOWS: u64 = MAX_STALE_WINDOWS + 4;

/// Encodes one steady-state window (layout frames only on window 0,
/// courtesy of the persistent encoder).
fn encode_window(enc: &mut WireEncoder, seq: u64) -> Vec<u8> {
    for m in 0..MACHINES as u64 {
        enc.push_sample_set(m, &synthetic_set(m, seq, &ROW_EVENTS, false))
            .unwrap();
    }
    enc.take_bytes()
}

/// Every estimate column's bits for the window just evaluated, machine
/// by machine: CPU, memory, disk, I/O, chipset, total.
fn estimate_bits(est: &mut FleetEstimator) -> Vec<[u64; 6]> {
    let e = est.estimate();
    (0..MACHINES)
        .map(|i| {
            [
                e.cpu()[i],
                e.memory()[i],
                e.disk()[i],
                e.io()[i],
                e.chipset()[i],
                e.total()[i],
            ]
            .map(f64::to_bits)
        })
        .collect()
}

/// Counter floors implied by a window's injected faults: if any of
/// these fail, a fault degraded the pipeline without being accounted.
fn assert_faults_accounted(at: &str, f: &FaultedWindow, rep: &StreamReport) {
    assert!(
        rep.corrupt_frames >= f.count(FaultKind::BitFlip),
        "{at}: {} bit flips but only {} corrupt frames",
        f.count(FaultKind::BitFlip),
        rep.corrupt_frames
    );
    let framing = f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
    assert!(
        rep.resyncs >= framing,
        "{at}: {framing} framing faults but only {} resyncs",
        rep.resyncs
    );
    assert!(
        rep.rows_quarantined >= f.count(FaultKind::RateSpike),
        "{at}: {} rate spikes but only {} quarantined",
        f.count(FaultKind::RateSpike),
        rep.rows_quarantined
    );
    // A rewound sequence is detected as a reset the first time; a
    // rewind landing on an already-rewound machine reads as a
    // duplicate, so the two counters jointly cover both fault kinds.
    let seq_faults = f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame);
    assert!(
        rep.resets_detected + rep.duplicate_windows >= seq_faults,
        "{at}: {seq_faults} sequence faults but resets={} dups={}",
        rep.resets_detected,
        rep.duplicate_windows
    );
}

/// Each machine's ladder state as one character: `H`ealthy,
/// `S`uspect, `Q`uarantined, `X` stale, `-` never decoded.
fn ladder(state: &IngestState) -> String {
    (0..MACHINES as u64)
        .map(|m| match state.machine_health(m) {
            None => '-',
            Some(HealthState::Healthy) => 'H',
            Some(HealthState::Suspect) => 'S',
            Some(HealthState::Quarantined) => 'Q',
            Some(HealthState::Stale) => 'X',
        })
        .collect()
}

/// One window of a [`chaos_run`].
#[derive(Debug, PartialEq)]
struct ChaosWindow {
    report: StreamReport,
    /// Faults the plan injected.
    faults: usize,
    /// Machines those faults may have set apart from a fault-free run.
    affected: BTreeSet<u64>,
    bits: Vec<[u64; 6]>,
}

/// Persistent ingest of `windows` windows battered by fault plan
/// `seed`; window 0 is delivered intact (it carries the layouts). Every
/// window must account for each injected fault, and every machine must
/// either contribute a row or be known-stale — nothing simply vanishes.
/// Returns the windows and the machines' final [`ladder`].
fn chaos_run(seed: u64, windows: u64) -> (Vec<ChaosWindow>, String) {
    let plan = FaultPlan::new(seed);
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut run = Vec::new();
    for w in 0..windows {
        let at = format!("fault seed {seed}, window {w}");
        let clean = encode_window(&mut enc, w);
        let faulted = if w == 0 {
            FaultedWindow {
                bytes: clean,
                ..FaultedWindow::default()
            }
        } else {
            plan.apply(w, &clean)
        };
        let report = ingest_serial_with(&mut state, &faulted.bytes, MACHINES, &mut est);
        assert_faults_accounted(&at, &faulted, &report);
        let stale = ladder(&state).matches('X').count() as u64;
        assert_eq!(
            report.rows_written + stale,
            MACHINES as u64,
            "{at}: rows + stale machines must cover the fleet"
        );
        run.push(ChaosWindow {
            report,
            faults: faulted.injected.len(),
            affected: faulted.affected,
            bits: estimate_bits(&mut est),
        });
    }
    (run, ladder(&state))
}

#[test]
fn faulted_stream_degrades_gracefully_and_clean_subset_is_bit_identical() {
    assert_degrades_gracefully(SEED);
}

#[test]
fn more_fault_seeds_uphold_the_degradation_contract() {
    for seed in MORE_FAULT_SEEDS {
        assert_degrades_gracefully(seed);
    }
}

/// One leg of the degradation contract: the [`chaos_run`] of fault
/// plan `seed` against a fault-free run of the same windows.
fn assert_degrades_gracefully(seed: u64) {
    let (run, _) = chaos_run(seed, WINDOWS);
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());

    // Machines hit by a fault within the staleness span may hold or
    // re-learn state; everything outside that trailing set must match
    // the fault-free run bit for bit.
    let span = (MAX_STALE_WINDOWS + 1) as usize;
    for (w, faulted) in run.iter().enumerate() {
        let at = format!("fault seed {seed}, window {w}");
        let clean = encode_window(&mut enc, w as u64);
        let samples = FrameCursor::new(&clean)
            .filter(|item| {
                matches!(item, CursorItem::Frame { header, .. } if header.frame_type == FrameType::Sample)
            })
            .count();
        assert_eq!(
            samples, MACHINES,
            "{at}: every machine sends one sample frame"
        );
        let rep = ingest_serial_with(&mut state, &clean, MACHINES, &mut est);
        assert!(
            rep.health().is_clean(),
            "{at}: fault-free stream reported degradation: {}",
            rep.health()
        );
        let clean_bits = estimate_bits(&mut est);

        // Machines with no fault in the last `MAX_STALE_WINDOWS + 1`
        // windows have been fed exclusively intact fresh frames, so
        // their estimates carry no trace of the chaos elsewhere in the
        // fleet.
        let dirty: BTreeSet<u64> = run[(w + 1).saturating_sub(span)..=w]
            .iter()
            .flat_map(|window| &window.affected)
            .copied()
            .collect();
        assert!(
            dirty.len() < MACHINES / 2,
            "{at}: fault plan dirtied {} of {MACHINES} machines — \
             too few clean machines for the identity check to mean much",
            dirty.len()
        );
        for (m, (got, want)) in faulted.bits.iter().zip(&clean_bits).enumerate() {
            if !dirty.contains(&(m as u64)) {
                assert_eq!(
                    got, want,
                    "{at}: clean machine {m} diverged under faulted ingest"
                );
            }
        }
    }
    let total_injected: usize = run.iter().map(|window| window.faults).sum();
    assert!(
        total_injected as u64 >= WINDOWS - 1,
        "fault seed {seed}: plan injected only {total_injected} faults \
         over {WINDOWS} windows"
    );
}

/// The summed report, an FNV-1a digest of every window's estimate bits
/// and the final [`ladder`] of fault plan `seed`'s [`WINDOWS`]-window
/// [`chaos_run`].
fn outcome(seed: u64) -> (StreamReport, u64, String) {
    let (run, ladder) = chaos_run(seed, WINDOWS);
    let mut total = StreamReport::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for window in &run {
        total.absorb(&window.report);
        for byte in window.bits.iter().flatten().flat_map(|b| b.to_le_bytes()) {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (total, digest, ladder)
}

#[test]
fn chaos_runs_match_their_recorded_outcomes() {
    // Recorded while a second, per-row ingest still ran the same
    // ladder and was held to identical reports, ladder states and
    // estimate bits on every window of these runs. Any change to what
    // ingest decides under faults moves them.
    let recorded = |report, digest: u64, ladder: &str| (report, digest, ladder.to_string());
    assert_eq!(
        outcome(SEED),
        recorded(
            StreamReport {
                sample_frames: 570,
                layout_frames: 24,
                rows_written: 576,
                corrupt_frames: 5,
                resyncs: 6,
                resync_bytes: 433,
                resets_detected: 8,
                duplicate_windows: 4,
                rows_quarantined: 8,
                rows_held: 23,
                ..StreamReport::default()
            },
            0x8eda_f519_db87_85e6,
            "HHHHHHQHHHHHHHHHHHHHHHHH",
        )
    );
    assert_eq!(
        outcome(1234),
        recorded(
            StreamReport {
                sample_frames: 577,
                layout_frames: 24,
                rows_written: 576,
                corrupt_frames: 8,
                resyncs: 11,
                resync_bytes: 409,
                resets_detected: 9,
                duplicate_windows: 7,
                rows_quarantined: 5,
                rows_held: 19,
                ..StreamReport::default()
            },
            0xfb2e_d37a_46a9_c5f0,
            "HHHHHHHHHHHHHHHHHHHHHHHH",
        )
    );
    assert_eq!(
        outcome(4321),
        recorded(
            StreamReport {
                sample_frames: 566,
                layout_frames: 24,
                rows_written: 576,
                corrupt_frames: 2,
                resyncs: 10,
                resync_bytes: 660,
                resets_detected: 7,
                duplicate_windows: 5,
                rows_quarantined: 5,
                rows_held: 22,
                ..StreamReport::default()
            },
            0x1b11_5da1_cfa5_9c37,
            "HQHHHHHHHHHHHHHHHHHHSHHH",
        )
    );
}

proptest! {
    /// Under an arbitrary seeded fault plan, every window accounts for
    /// each injected fault and covers the fleet with rows or stale
    /// machines (both checked inside [`chaos_run`]), and a replay of
    /// the seed reproduces every report, estimate bit and final ladder
    /// state.
    #[test]
    fn arbitrary_fault_plans_uphold_the_degradation_contract(seed in any::<u64>()) {
        let run = chaos_run(seed, PROPERTY_WINDOWS);
        prop_assert!(
            run == chaos_run(seed, PROPERTY_WINDOWS),
            "seed {}: a replay diverged",
            seed
        );
    }
}

#[test]
fn chaos_run_replays_bit_identically() {
    // The whole point of a *seeded* fault plan: two full runs of the
    // same scenario — same seed, same windows — produce the same
    // reports, the same health states, and the same estimate bits.
    assert_eq!(chaos_run(SEED, WINDOWS), chaos_run(SEED, WINDOWS));
}

#[test]
fn anomaly_detector_judges_a_faulted_stream_bit_identically() {
    // The detector scores every window of a battered stream, held and
    // stale rows included, so every replay must judge identically,
    // down to the last bit of every z-score.
    let run = || {
        let plan = FaultPlan::new(1234);
        let mut enc = WireEncoder::new();
        let mut state = IngestState::new();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        let mut z_bits = Vec::new();
        let mut flagged = Vec::new();
        for w in 0..WINDOWS {
            let clean = encode_window(&mut enc, w);
            let buf = if w == 0 {
                clean
            } else {
                plan.apply(w, &clean).bytes
            };
            ingest_serial_with(&mut state, &buf, MACHINES, &mut est);
            det.update(est.estimate());
            for m in 0..MACHINES {
                let z = det.z(m);
                assert!(z.is_finite(), "window {w} machine {m}: z-score {z}");
                z_bits.push(z.to_bits());
            }
            let s = det.summary();
            flagged.push(s.anomalous + s.suspect);
        }
        assert!(det.warmed(), "{WINDOWS} windows must outlast warm-up");
        (z_bits, flagged)
    };
    assert_eq!(run(), run(), "a replay judged differently");
}

#[test]
fn sane_but_out_of_calibration_rows_trip_the_prediction_clamp() {
    // The sneaky producer: a frame whose rates pass every `row_is_sane`
    // plausibility bound (so it is *not* quarantined) but sit far past
    // the disk model's negative-curvature vertex (~4.8e-9 interrupts
    // per cycle), where the raw Equation-4 quadratic predicts large
    // negative watts. Row-level screening cannot catch this — the
    // model-level clamp must, pinning the prediction at the
    // non-negative floor and counting the intervention.
    let cycles: u64 = 2_000_000_000;
    let mut sneaky = SampleSet::empty();
    let block = sneaky.reset(ROW_EVENTS, 4);
    for (plane, &e) in block.chunks_mut(4).zip(&ROW_EVENTS) {
        plane.fill(match e {
            PerfEvent::Cycles => cycles,
            PerfEvent::HaltedCycles => cycles / 2,
            PerfEvent::FetchedUops => cycles,
            PerfEvent::L3LoadMisses => 2_000_000,
            PerfEvent::BusTransactionsAll => 20_000_000,
            PerfEvent::DmaOtherBusTransactions => 1_000_000,
            // ~1e-5 disk interrupts per cycle: 100× under the 1e-3
            // sanity cap, 2000× past the calibrated vertex.
            PerfEvent::DiskInterrupts => cycles / 100_000,
            PerfEvent::InterruptsTotal => cycles / 50_000,
            PerfEvent::TimerInterrupts => 2_000,
            _ => 0,
        });
    }
    let mut enc = WireEncoder::new();
    enc.push_sample_set(0, &sneaky).unwrap();
    let wire = enc.finish();

    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial(&wire, 1, &mut est);
    assert_eq!(rep.rows_written, 1, "the row must pass sanity screening");
    assert_eq!(rep.rows_quarantined, 0);

    let e = est.estimate();
    assert!(
        e.clamped_predictions() > 0,
        "out-of-calibration rates must trip the prediction clamp"
    );
    assert_eq!(
        e.disk()[0],
        0.0,
        "deep past the vertex the raw quadratic is negative; the clamp \
         floors it at zero watts"
    );
    assert!(e.total()[0] >= 0.0);
}

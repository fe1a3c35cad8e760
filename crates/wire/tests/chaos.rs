//! Chaos test: a seeded [`FaultPlan`] batters a multi-window stream
//! while persistent ingest degrades gracefully — every injected fault
//! lands in a pipeline-health counter, machines untouched by recent
//! faults estimate **bit-identically** to a fault-free run, and the
//! whole scenario replays deterministically (fused and per-row
//! reference alike, under several fault seeds, and the anomaly
//! detector judging the battered estimates included).

mod common;

use common::synthetic_set;
use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{AnomalyDetector, FleetEstimator, ROW_EVENTS};
use tdp_wire::frame::FrameType;
use tdp_wire::{
    ingest_reference_with, ingest_serial, ingest_serial_with, CursorItem, FaultKind, FaultPlan,
    FaultedWindow, FrameCursor, HealthState, IngestState, StreamReport, WireEncoder,
    MAX_STALE_WINDOWS,
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

/// Encodes one steady-state window (layout frames only on window 0,
/// courtesy of the persistent encoder).
fn encode_window(enc: &mut WireEncoder, seq: u64) -> Vec<u8> {
    for m in 0..MACHINES as u64 {
        enc.push_sample_set(m, &synthetic_set(m, seq, &ROW_EVENTS, false))
            .unwrap();
    }
    enc.take_bytes()
}

/// Per-machine estimate bits for the window just evaluated.
fn estimate_bits(est: &mut FleetEstimator) -> Vec<[u64; 4]> {
    let e = est.estimate();
    (0..MACHINES)
        .map(|i| {
            [
                e.memory()[i].to_bits(),
                e.disk()[i].to_bits(),
                e.io()[i].to_bits(),
                e.total()[i].to_bits(),
            ]
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

/// One leg of the degradation contract: a stream battered by the fault
/// plan `seed`.
fn assert_degrades_gracefully(seed: u64) {
    let plan = FaultPlan::new(seed);
    let mut clean_enc = WireEncoder::new();
    let mut fault_enc = WireEncoder::new();
    let mut clean_state = IngestState::new();
    let mut serial_state = IngestState::new();
    let mut ref_state = IngestState::new();
    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());

    // Machines hit by a fault within the staleness span may hold or
    // re-learn state; everything outside that trailing set must match
    // the fault-free run bit for bit.
    let mut recent_affected: Vec<BTreeSet<u64>> = Vec::new();
    let mut total_injected = 0u64;

    for w in 0..WINDOWS {
        let at = format!("fault seed {seed}, window {w}");
        let clean_buf = encode_window(&mut clean_enc, w);
        let fault_src = encode_window(&mut fault_enc, w);
        assert_eq!(
            clean_buf, fault_src,
            "{at}: encoders must agree on clean bytes"
        );
        let samples = FrameCursor::new(&clean_buf)
            .filter(|item| {
                matches!(item, CursorItem::Frame { header, .. } if header.frame_type == FrameType::Sample)
            })
            .count();
        assert_eq!(
            samples, MACHINES,
            "{at}: every machine sends one sample frame"
        );

        // Window 0 is delivered intact (it carries the layouts); every
        // later window is damaged by the plan.
        let (buf, injected) = if w == 0 {
            (fault_src, FaultedWindow::default())
        } else {
            let f = plan.apply(w, &fault_src);
            let bytes = f.bytes.clone();
            (bytes, f)
        };
        total_injected += injected.injected.len() as u64;
        recent_affected.push(injected.affected.clone());

        let clean_rep = ingest_serial_with(&mut clean_state, &clean_buf, MACHINES, &mut clean_est);
        assert!(
            clean_rep.health().is_clean(),
            "{at}: fault-free stream reported degradation: {}",
            clean_rep.health()
        );
        let clean_bits = estimate_bits(&mut clean_est);

        let serial_rep = ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
        let ref_rep = ingest_reference_with(&mut ref_state, &buf, MACHINES, &mut ref_est);

        assert_faults_accounted(&at, &injected, &serial_rep);
        assert_eq!(
            serial_rep, ref_rep,
            "{at}: fused and per-row reference ingest must degrade identically"
        );

        // Every machine is either contributing a row or known-stale —
        // nothing simply vanishes.
        let stale = (0..MACHINES as u64)
            .filter(|&m| serial_state.machine_health(m) == Some(HealthState::Stale))
            .count() as u64;
        assert_eq!(
            serial_rep.rows_written + stale,
            MACHINES as u64,
            "{at}: rows + stale machines must cover the fleet"
        );

        // Clean-subset bit-identity, fused and reference: machines with
        // no fault in the last `MAX_STALE_WINDOWS + 1` windows have
        // been fed exclusively intact fresh frames, so their estimates
        // carry no trace of the chaos elsewhere in the fleet.
        let span = (MAX_STALE_WINDOWS + 1) as usize;
        let dirty: BTreeSet<u64> = recent_affected
            .iter()
            .rev()
            .take(span)
            .flatten()
            .copied()
            .collect();
        assert!(
            dirty.len() < MACHINES / 2,
            "{at}: fault plan dirtied {} of {MACHINES} machines — \
             too few clean machines for the identity check to mean much",
            dirty.len()
        );
        let serial_bits = estimate_bits(&mut serial_est);
        let ref_bits = estimate_bits(&mut ref_est);
        for m in 0..MACHINES as u64 {
            if dirty.contains(&m) {
                continue;
            }
            assert_eq!(
                serial_bits[m as usize], clean_bits[m as usize],
                "{at}: clean machine {m} diverged under serial faulted ingest"
            );
            assert_eq!(
                ref_bits[m as usize], clean_bits[m as usize],
                "{at}: clean machine {m} diverged under reference faulted ingest"
            );
        }
    }
    assert!(
        total_injected >= WINDOWS - 1,
        "fault seed {seed}: plan injected only {total_injected} faults \
         over {WINDOWS} windows"
    );
}

proptest! {
    /// The serial fused path folds each frame straight to its batch
    /// slot and runs the hold pass only when some machine is silent,
    /// while `ingest_reference_with` decodes every frame to a row and
    /// runs the hold pass every window; it is the semantic reference.
    /// Across arbitrary seeded fault plans the two must be
    /// indistinguishable: same report (health-counter block, rows
    /// delivered, reconstructions), same per-machine ladder states, and
    /// bit-identical estimates, every window.
    #[test]
    fn batched_serial_health_matches_per_row_reference(seed in any::<u64>()) {
        let plan = FaultPlan::new(seed);
        let mut enc = WireEncoder::new();
        let mut serial_state = IngestState::new();
        let mut ref_state = IngestState::new();
        let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
        let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());
        for w in 0..4u64 {
            let clean = encode_window(&mut enc, w);
            // Window 0 carries the layouts intact; every later window
            // is battered by the seed's plan before both paths see it.
            let buf = if w == 0 {
                clean
            } else {
                plan.apply(w, &clean).bytes
            };
            let serial_rep =
                ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
            let ref_rep = ingest_reference_with(&mut ref_state, &buf, MACHINES, &mut ref_est);
            prop_assert_eq!(serial_rep, ref_rep, "seed {} window {}: reports diverged", seed, w);
            for m in 0..MACHINES as u64 {
                prop_assert_eq!(
                    serial_state.machine_health(m),
                    ref_state.machine_health(m),
                    "seed {} window {} machine {}: ladder states diverged",
                    seed,
                    w,
                    m
                );
            }
            prop_assert_eq!(
                estimate_bits(&mut serial_est),
                estimate_bits(&mut ref_est),
                "seed {} window {}: estimate bits diverged",
                seed,
                w
            );
        }
    }
}

#[test]
fn chaos_run_replays_bit_identically() {
    // The whole point of a *seeded* fault plan: two full runs of the
    // same scenario — same seed, same windows — produce the same
    // reports, the same health states, and the same estimate bits.
    let run = || {
        let plan = FaultPlan::new(SEED);
        let mut enc = WireEncoder::new();
        let mut state = IngestState::new();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut reports = Vec::new();
        let mut bits = Vec::new();
        for w in 0..WINDOWS {
            let clean = encode_window(&mut enc, w);
            let buf = if w == 0 {
                clean
            } else {
                plan.apply(w, &clean).bytes
            };
            reports.push(ingest_serial_with(&mut state, &buf, MACHINES, &mut est));
            bits.push(estimate_bits(&mut est));
        }
        let health: Vec<Option<HealthState>> = (0..MACHINES as u64)
            .map(|m| state.machine_health(m))
            .collect();
        (reports, bits, health)
    };
    assert_eq!(run(), run());
}

#[test]
fn anomaly_detector_judges_a_faulted_stream_bit_identically() {
    // The detector scores every window of a battered stream, held and
    // stale rows included. Fused and per-row reference ingest feed it
    // the same estimates, so every replay must judge identically, down
    // to the last bit of every z-score.
    let run = |reference: bool| {
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
            if reference {
                ingest_reference_with(&mut state, &buf, MACHINES, &mut est);
            } else {
                ingest_serial_with(&mut state, &buf, MACHINES, &mut est);
            }
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
    let first = run(false);
    assert_eq!(first, run(false), "a replay judged differently");
    assert_eq!(first, run(true), "reference ingest judged differently");
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

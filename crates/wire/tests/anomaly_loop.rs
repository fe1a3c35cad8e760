//! The closed adaptive-sampling loop: wire ingest feeds fleet
//! estimates, the anomaly detector judges them, and its verdicts feed
//! decimation grants back into the encoder — so healthy machines
//! transmit one window in N while anomalous ones snap back to full
//! rate. These tests drive the whole loop end to end over a simulated
//! fleet: no false positives on a fault-free run, spikes flagged
//! within the machine's own decimation, and no row ever held while
//! grants rise and fall.

mod common;

use common::synthetic_set;
use tdp_fleet::anomaly::{BASELINE_WINDOWS, HEALTHY_DECIMATION, HOLD_WINDOWS};
use tdp_fleet::{AnomalyDetector, FleetEstimator, Verdict, ROW_EVENTS};
use tdp_wire::{ingest_serial_with, IngestState, StreamReport, WireEncoder};
use trickledown::SystemPowerModel;

const MACHINES: usize = 16;

/// One turn of the loop: encode every machine due this window (under
/// the encoder's current grants), ingest, estimate, judge, and feed
/// the verdict-derived grants back. Returns the sample frames sent and
/// the window's ingest report.
fn turn(
    w: u64,
    enc: &mut WireEncoder,
    state: &mut IngestState,
    est: &mut FleetEstimator,
    det: &mut AnomalyDetector,
    spike: Option<usize>,
) -> (u64, StreamReport) {
    let mut senders = 0u64;
    for m in 0..MACHINES as u64 {
        if enc.should_send(m, w) {
            let set = synthetic_set(m, w, &ROW_EVENTS, spike == Some(m as usize));
            enc.push_sample_set(m, &set).unwrap();
            senders += 1;
        }
    }
    let buf = enc.take_bytes();
    let rep = ingest_serial_with(state, &buf, MACHINES, est);
    assert_eq!(rep.rows_written, MACHINES as u64, "window {w}");
    det.update(&est.estimate().clone());
    for m in 0..MACHINES as u64 {
        enc.set_decimation(m, det.decimation(m as usize));
    }
    (senders, rep)
}

#[test]
fn fault_free_loop_decimates_the_whole_fleet_with_zero_false_positives() {
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut det = AnomalyDetector::default();
    let warmup = BASELINE_WINDOWS as u64;
    let dec = u64::from(HEALTHY_DECIMATION);
    for w in 0..warmup + 12 {
        let (senders, _) = turn(w, &mut enc, &mut state, &mut est, &mut det, None);
        let s = det.summary();
        assert_eq!(
            (s.anomalous, s.suspect),
            (0, 0),
            "window {w}: false positive (max_z = {})",
            s.max_z
        );
        if w < warmup {
            assert_eq!(senders, MACHINES as u64, "window {w}: full rate in warmup");
        }
        if w > warmup + dec {
            // Grants announced and every machine past its first
            // decimated cycle: steady-state wire cost is cut dec×.
            assert_eq!(
                senders,
                MACHINES as u64 / dec,
                "window {w}: steady-state transmissions"
            );
        }
    }
    for m in 0..MACHINES {
        assert_eq!(det.verdict(m), Verdict::Normal);
        assert_eq!(det.decimation(m), HEALTHY_DECIMATION);
    }
}

#[test]
fn spike_on_a_decimated_machine_is_flagged_within_its_decimation() {
    const SPIKED: usize = 3;
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut det = AnomalyDetector::default();
    let warmup = BASELINE_WINDOWS as u64;
    let dec = u64::from(HEALTHY_DECIMATION);

    // Warm up and settle into decimated steady state.
    let onset = warmup + 2 * dec;
    for w in 0..onset {
        turn(w, &mut enc, &mut state, &mut est, &mut det, None);
    }
    assert_eq!(det.decimation(SPIKED), HEALTHY_DECIMATION);

    // The machine starts misbehaving while decimated: its spiked
    // sample may wait out its phase, so detection is bounded by the
    // decimation, not instant — that is exactly the resolution the
    // protocol trades for wire cost.
    let mut flagged_at = None;
    let mut quarantined = 0u64;
    for w in onset..onset + dec {
        let (_, rep) = turn(w, &mut enc, &mut state, &mut est, &mut det, Some(SPIKED));
        quarantined += rep.rows_quarantined;
        if det.verdict(SPIKED) == Verdict::Anomalous {
            flagged_at = Some(w);
            break;
        }
    }
    let flagged_at = flagged_at.expect("spike must be flagged within one decimation cycle");
    assert!(flagged_at < onset + dec, "flagged at {flagged_at}");
    assert_eq!(
        quarantined, 0,
        "the spike is sane-but-extreme: detector, not sanity bounds"
    );
    assert_eq!(
        det.decimation(SPIKED),
        1,
        "anomalous machines lose their grant"
    );
    assert_eq!(
        det.summary().anomalous,
        1,
        "only the spiked machine is flagged"
    );

    // While the spike persists the machine transmits every window and
    // stays flagged; nobody else is dragged along.
    for w in flagged_at + 1..flagged_at + 4 {
        turn(w, &mut enc, &mut state, &mut est, &mut det, Some(SPIKED));
        assert_eq!(det.verdict(SPIKED), Verdict::Anomalous, "window {w}");
        assert_eq!(det.summary().anomalous, 1, "window {w}");
    }

    // Recovery: back to fleet behaviour, through the hysteresis hold,
    // then re-granted decimation.
    let recover = flagged_at + 4;
    let mut w = recover;
    turn(w, &mut enc, &mut state, &mut est, &mut det, None);
    for _ in 0..HOLD_WINDOWS {
        assert_eq!(det.verdict(SPIKED), Verdict::Suspect, "window {w}");
        assert_eq!(det.decimation(SPIKED), 1);
        w += 1;
        turn(w, &mut enc, &mut state, &mut est, &mut det, None);
    }
    assert_eq!(det.verdict(SPIKED), Verdict::Normal);
    assert_eq!(det.decimation(SPIKED), HEALTHY_DECIMATION);
}

#[test]
fn raising_and_lowering_grants_never_holds_a_row() {
    // Grants rise after warmup, fall when a spike is flagged and rise
    // again after recovery. Each change reaches the wire with a frame
    // the machine sends at once, so every window it then skips is
    // reconstructed under an announced decimation: none is held.
    const SPIKED: usize = 5;
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut det = AnomalyDetector::default();
    let warmup = BASELINE_WINDOWS as u64;
    let dec = u64::from(HEALTHY_DECIMATION);
    let onset = warmup + 2 * dec;
    let spiked = onset..onset + 2 * dec;
    let end = spiked.end + u64::from(HOLD_WINDOWS) + 3 * dec;
    let (mut grants, mut reconstructed) = (vec![1u16], 0u64);
    for w in 0..end {
        let spike = spiked.contains(&w).then_some(SPIKED);
        let (_, rep) = turn(w, &mut enc, &mut state, &mut est, &mut det, spike);
        assert_eq!(rep.rows_held, 0, "window {w}: a row was held");
        reconstructed += rep.rows_reconstructed;
        if grants.last() != Some(&enc.decimation(SPIKED as u64)) {
            grants.push(enc.decimation(SPIKED as u64));
        }
    }
    assert_eq!(
        grants,
        [1, HEALTHY_DECIMATION, 1, HEALTHY_DECIMATION],
        "machine {SPIKED}'s grants"
    );
    assert!(reconstructed > 0, "decimated machines went silent");
}

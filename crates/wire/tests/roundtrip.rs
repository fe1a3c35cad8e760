//! End-to-end guarantees of the wire codec and ingest: wire ingestion
//! — batched and per-row reference alike — is bit-identical to
//! in-memory ingestion, and every single-bit corruption of a frame is
//! detected, never silently ingested.

use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_simsys::behavior::spin_loop_behavior;
use tdp_simsys::{Machine, MachineConfig};
use tdp_wire::{
    ingest_reference_with, ingest_serial, ingest_serial_with, HealthState, IngestState, WireEncoder,
};
use trickledown::SystemPowerModel;

/// The nine-event trickle-down layout every machine runs by default.
const LAYOUT: [PerfEvent; 9] = [
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

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A realistic machine-window: 4 CPUs, counts scaled per event so the
/// derived rates land in each model's operating range.
fn synthetic_set(machine: u64, seq: u64, layout: &[PerfEvent]) -> SampleSet {
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let per_cpu = (0..4)
        .map(|cpu| {
            let counts = layout
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
                        PerfEvent::DiskInterrupts => 900,
                        _ => 10_000,
                    };
                    (e, scale / 2 + r % scale.max(1))
                })
                .collect();
            CounterSample::new(CpuId::new(cpu), seq, counts)
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

fn fleet_window(machines: u64) -> Vec<SampleSet> {
    (0..machines)
        .map(|m| synthetic_set(m, 3, &LAYOUT))
        .collect()
}

/// One counter window from each of `machines` simulated servers with
/// `cpus` CPUs, in distinct load states. Every `Machine` programs all
/// 18 `PerfEvent`s, so these frames carry the non-identity layout real
/// producers send.
fn simulated_window(cpus: usize, machines: u64) -> Vec<SampleSet> {
    (0..machines)
        .map(|m| {
            let mut cfg = MachineConfig::default();
            cfg.seed ^= m;
            cfg.cpu.num_cpus = cpus;
            let mut machine = Machine::new(cfg);
            for t in 0..m {
                machine
                    .os_mut()
                    .spawn(Box::new(spin_loop_behavior(0.4 + 0.3 * t as f64)), 0);
            }
            for _ in 0..50 + m * 13 {
                machine.tick();
            }
            let set = machine.read_counters();
            assert_eq!(set.per_cpu.len(), cpus);
            assert_eq!(set.per_cpu[0].counts().len(), PerfEvent::ALL.len());
            set
        })
        .collect()
}

fn encode_window(sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        enc.push_sample_set(id as u64, set).unwrap();
    }
    enc.finish()
}

/// Ingests in-memory and returns the batch columns + estimates as bits.
fn reference_bits(sets: &[SampleSet]) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    est.begin_window();
    for set in sets {
        est.push_sample_set(set);
    }
    let totals = est.estimate().total().iter().map(|v| v.to_bits()).collect();
    let cols = est
        .batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect();
    (cols, totals)
}

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn wire_ingestion_is_bit_identical_to_in_memory() {
    // The synthetic nine-event fleet, plus 4- and 32-CPU simulated
    // servers sending all 18 events.
    for (label, sets) in [
        ("synthetic", fleet_window(37)),
        ("4-cpu machines", simulated_window(4, 6)),
        ("32-cpu machines", simulated_window(32, 3)),
    ] {
        let n = sets.len();
        let wire = encode_window(&sets);
        let (ref_cols, ref_totals) = reference_bits(&sets);

        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let report = ingest_serial(&wire, n, &mut est);
        assert_eq!(report.rows_written, n as u64, "{label}");
        assert_eq!(report.sample_frames, n as u64, "{label}");
        assert_eq!(
            report.layout_frames, n as u64,
            "{label}: one layout frame per machine"
        );
        assert_eq!(report.corrupt_frames + report.resyncs, 0, "{label}");

        assert_eq!(
            batch_bits(&est),
            ref_cols,
            "{label}: columns must match bit for bit"
        );
        let totals: Vec<u64> = est.estimate().total().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            totals, ref_totals,
            "{label}: estimates must match bit for bit"
        );

        // The per-row reference lands on the same bits and counters.
        let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());
        let ref_report = ingest_reference_with(&mut IngestState::new(), &wire, n, &mut ref_est);
        assert_eq!(ref_report, report, "{label}: reference counters");
        assert_eq!(batch_bits(&ref_est), ref_cols, "{label}: reference columns");
    }
}

#[test]
fn row_lanes_never_carry_over_between_frames() {
    // One stream in which, frame after frame, machines rotate between
    // the full 18-event layout, one without two row events (disk
    // interrupts, DMA) and one listing disk interrupts twice, and
    // alternate between 4 and 32 CPUs — within each window and, machine
    // by machine, across windows. A frame whose layout lacks a row event
    // reads zeros there, never the lane the previous same-sized frame
    // left in the decoder; a repeated event reads its first occurrence.
    const MACHINES: usize = 8;
    let four = simulated_window(4, 4);
    let wide = simulated_window(32, 4);
    let omitted = [
        PerfEvent::DiskInterrupts,
        PerfEvent::DmaOtherBusTransactions,
    ];
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut ref_state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());
    for w in 0..6u64 {
        let sets: Vec<SampleSet> = (0..MACHINES)
            .map(|m| {
                let flip = w as usize % 2;
                let src = [&four, &wide][(m / 2 + flip) % 2];
                let variant = (m + w as usize) % 3;
                let per_cpu = src[m % 4]
                    .per_cpu
                    .iter()
                    .enumerate()
                    .map(|(c, cpu)| {
                        // Spinning machines raise no disk interrupts or
                        // DMA; give both events counts, so a stale lane
                        // would show.
                        let mut counts: Vec<(PerfEvent, u64)> = cpu
                            .counts()
                            .iter()
                            .filter(|(e, _)| variant != 1 || !omitted.contains(e))
                            .map(|&(e, n)| {
                                let fake = 300 + 11 * c as u64 + 97 * m as u64;
                                (e, if omitted.contains(&e) { fake } else { n })
                            })
                            .collect();
                        if variant == 2 {
                            counts.push((PerfEvent::DiskInterrupts, 7_777 + c as u64));
                        }
                        CounterSample::new(CpuId::new(c as u8), w, counts)
                    })
                    .collect();
                SampleSet {
                    seq: w,
                    per_cpu,
                    ..src[m % 4].clone()
                }
            })
            .collect();
        for (id, set) in sets.iter().enumerate() {
            enc.push_sample_set(id as u64, set).unwrap();
        }
        let buf = enc.take_bytes();
        let rep = ingest_serial_with(&mut state, &buf, MACHINES, &mut est);
        assert_eq!(rep.rows_written, MACHINES as u64, "window {w}");
        assert_eq!(rep.corrupt_frames + rep.unknown_layout_frames, 0);
        let ref_rep = ingest_reference_with(&mut ref_state, &buf, MACHINES, &mut ref_est);
        assert_eq!(
            ref_rep.rows_written, MACHINES as u64,
            "window {w}: reference"
        );

        let mut want = FleetEstimator::new(SystemPowerModel::paper());
        want.process_window(&sets);
        assert_eq!(batch_bits(&est), batch_bits(&want), "window {w}");
        assert_eq!(
            batch_bits(&ref_est),
            batch_bits(&want),
            "window {w}: reference"
        );
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    // A small stream: two machines, layout + sample frame each.
    let sets = fleet_window(2);
    let wire = encode_window(&sets);
    let mut pristine = FleetEstimator::new(SystemPowerModel::paper());
    let base = ingest_serial(&wire, 2, &mut pristine);
    assert_eq!(base.corrupt_frames + base.resyncs, 0);
    let clean_cols = batch_bits(&pristine);

    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut bad = wire.clone();
            bad[byte] ^= 1 << bit;
            let mut est = FleetEstimator::new(SystemPowerModel::paper());
            let report = ingest_serial(&bad, 2, &mut est);
            let detections = report.corrupt_frames
                + report.resyncs
                + report.unknown_layout_frames
                + report.out_of_range_frames;
            // Every stored bit is covered: magic/version/type flips
            // fail their equality checks (resync), and everything else
            // — including the length and checksum fields — feeds the
            // bijective checksum mix.
            assert!(
                detections > 0,
                "flip of byte {byte} bit {bit} was silently accepted"
            );
            // And a detected frame is dropped, never half-ingested:
            // whatever rows were written match the pristine extraction.
            for (clean_col, col) in clean_cols.iter().zip(batch_bits(&est)) {
                for (m, (&clean, bits)) in clean_col.iter().zip(col).enumerate() {
                    assert!(
                        bits == clean || bits == 0f64.to_bits(),
                        "byte {byte} bit {bit}: machine {m} row silently altered"
                    );
                }
            }
        }
    }
}

#[test]
fn mid_stream_layout_change_never_misattributes_columns() {
    // Machine 0 reprograms its PMU mid-stream: same events reordered,
    // then an extended list with extra (irrelevant) events in front.
    let mut reordered = LAYOUT;
    reordered.reverse();
    let extended: Vec<PerfEvent> = [PerfEvent::TlbMisses, PerfEvent::L2Misses]
        .iter()
        .chain(LAYOUT.iter())
        .copied()
        .collect();

    let windows = [
        synthetic_set(0, 0, &LAYOUT),
        synthetic_set(0, 1, &reordered),
        synthetic_set(0, 2, &extended),
    ];

    for (seq, set) in windows.iter().enumerate() {
        // Wire path: encode this window alone (the encoder emits a
        // fresh layout frame at each change) and ingest it.
        let mut enc = WireEncoder::new();
        enc.push_sample_set(0, set).unwrap();
        let wire = enc.finish();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let report = ingest_serial(&wire, 1, &mut est);
        assert_eq!(report.rows_written, 1, "window {seq}");
        assert_eq!(report.corrupt_frames + report.unknown_layout_frames, 0);

        // In-memory reference for the same set.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        reference.push_sample_set(set);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "window {seq}: wire row must match in-memory extraction"
        );
    }

    // And as one continuous stream: three windows, three layout frames.
    let mut enc = WireEncoder::new();
    for set in &windows {
        enc.push_sample_set(0, set).unwrap();
    }
    let wire = enc.finish();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let report = ingest_serial(&wire, 1, &mut est);
    assert_eq!(report.layout_frames, 3, "each reprogramming re-announces");
    assert_eq!(report.sample_frames, 3);
    assert_eq!(report.corrupt_frames + report.unknown_layout_frames, 0);

    // The surviving row is the last window's; it must equal the
    // in-memory extraction of that window.
    let mut reference = FleetEstimator::new(SystemPowerModel::paper());
    reference.begin_window();
    reference.push_sample_set(&windows[2]);
    assert_eq!(batch_bits(&est), batch_bits(&reference));
}

#[test]
fn sample_frame_without_its_layout_is_counted_not_guessed() {
    let sets = fleet_window(1);
    let wire = encode_window(&sets);
    // Strip the leading layout frame, leaving a dangling sample frame.
    let sample_start = {
        use tdp_wire::{CursorItem, FrameCursor};
        let mut cursor = FrameCursor::new(&wire);
        match cursor.next() {
            Some(CursorItem::Frame { header, start }) => start + 44 + header.payload_len as usize,
            other => panic!("expected leading layout frame, got {other:?}"),
        }
    };
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let report = ingest_serial(&wire[sample_start..], 1, &mut est);
    assert_eq!(report.unknown_layout_frames, 1);
    assert_eq!(report.rows_written, 0);
    // The machine's row stays zero rather than being misdecoded.
    assert!(est.batch().columns().iter().all(|c| c[0] == 0.0));
}

#[test]
fn counter_reset_is_rebaselined_not_poisoned() {
    // A machine reboots mid-stream: its window sequence rewinds to
    // zero. Counters are read-and-clear, so the post-reboot row is a
    // valid per-window delta — ingest must accept it (bit-identical to
    // in-memory extraction of the same set), count exactly one reset,
    // mark the machine Suspect, and let the next monotone window
    // restore it to Healthy. Nothing about the reboot may leak into
    // the decoded values.
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());

    for (step, seq) in [5u64, 6, 0, 1].iter().enumerate() {
        let set = synthetic_set(0, *seq, &LAYOUT);
        let mut enc = WireEncoder::new();
        enc.push_sample_set(0, &set).unwrap();
        let rep = ingest_serial_with(&mut state, &enc.finish(), 1, &mut est);

        assert_eq!(rep.rows_written, 1, "step {step}: row must be accepted");
        assert_eq!(rep.rows_quarantined, 0);
        let expect_reset = u64::from(step == 2);
        assert_eq!(
            rep.resets_detected, expect_reset,
            "step {step}: reset counted exactly at the rewind"
        );
        let expect_state = if step == 2 {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
        assert_eq!(state.machine_health(0), Some(expect_state), "step {step}");

        // The decoded row is the set's own delta — reboot or not.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        reference.push_sample_set(&set);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "step {step}: reset must not distort the decoded row"
        );
    }
}

#[test]
fn persistent_state_decodes_steady_state_streams() {
    // A long-lived producer announces layouts once; every later window
    // is sample frames only. Persistent `IngestState` must decode every
    // such window fully and bit-identically to in-memory ingestion; a
    // cold decoder on the same bytes must count the frames unknown.
    let machines = 23usize;
    let mut enc = WireEncoder::new();
    let mut serial_state = IngestState::new();
    let mut ref_state = IngestState::new();
    let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());
    for seq in 0..4u64 {
        let sets: Vec<SampleSet> = (0..machines)
            .map(|m| synthetic_set(m as u64, seq, &LAYOUT))
            .collect();
        for (id, set) in sets.iter().enumerate() {
            enc.push_sample_set(id as u64, set).unwrap();
        }
        let buf = enc.take_bytes();

        let rep = ingest_serial_with(&mut serial_state, &buf, machines, &mut serial_est);
        assert_eq!(rep.rows_written, machines as u64);
        assert_eq!(rep.unknown_layout_frames, 0);
        if seq > 0 {
            assert_eq!(rep.layout_frames, 0, "steady state re-announces nothing");
        }

        let rep = ingest_reference_with(&mut ref_state, &buf, machines, &mut ref_est);
        assert_eq!(rep.rows_written, machines as u64);
        assert_eq!(rep.unknown_layout_frames, 0);

        let (ref_cols, ref_totals) = reference_bits(&sets);
        assert_eq!(batch_bits(&serial_est), ref_cols, "window {seq}: serial");
        assert_eq!(batch_bits(&ref_est), ref_cols, "window {seq}: reference");
        let totals: Vec<u64> = serial_est
            .estimate()
            .total()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(totals, ref_totals, "window {seq}: estimates");

        if seq > 0 {
            let mut cold = FleetEstimator::new(SystemPowerModel::paper());
            let rep = ingest_serial(&buf, machines, &mut cold);
            assert_eq!(rep.unknown_layout_frames, machines as u64);
            assert_eq!(rep.rows_written, 0, "a cold decoder never guesses a layout");
        }
    }
}

#[test]
fn decimation_one_stream_is_byte_identical_to_legacy() {
    // The decimation field rides the layout header's previously-unused
    // `cpu_count`; at decimation 1 the encoder writes the legacy zero,
    // so an every-window stream is indistinguishable from one produced
    // before the field existed.
    let sets = fleet_window(5);
    let mut plain = WireEncoder::new();
    let mut dec1 = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        dec1.set_decimation(id as u64, 1);
        plain.push_sample_set(id as u64, set).unwrap();
        dec1.push_sample_set(id as u64, set).unwrap();
    }
    assert_eq!(plain.finish(), dec1.finish());
}

#[test]
fn decimated_stream_reconstructs_bit_exactly_and_stays_healthy() {
    // Eight machines granted decimation 4 after their first window:
    // phase-staggered, two transmit per window, the other six are
    // reconstructed at their last transmitted row — bit-exactly, with
    // no health downgrade, identically under batched and per-row
    // reference ingest.
    const MACHINES: usize = 8;
    const DEC: u16 = 4;
    let mut enc = WireEncoder::new();
    let mut serial_state = IngestState::new();
    let mut ref_state = IngestState::new();
    let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut ref_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut last_sent = [0u64; MACHINES];
    for w in 0..12u64 {
        if w == 1 {
            // The control loop grants healthy machines decimation after
            // their first window; each machine announces it in-band on
            // its next transmitted layout frame.
            for m in 0..MACHINES as u64 {
                enc.set_decimation(m, DEC);
            }
        }
        let mut senders = 0u64;
        for m in 0..MACHINES as u64 {
            if enc.should_send(m, w) {
                enc.push_sample_set(m, &synthetic_set(m, w, &LAYOUT))
                    .unwrap();
                last_sent[m as usize] = w;
                senders += 1;
            }
        }
        assert_eq!(
            senders,
            if w == 0 { MACHINES as u64 } else { 2 },
            "window {w}: the phase stagger spreads transmissions evenly"
        );
        let buf = enc.take_bytes();
        let serial = ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
        let per_row = ingest_reference_with(&mut ref_state, &buf, MACHINES, &mut ref_est);
        assert_eq!(serial.rows_written, MACHINES as u64, "window {w}");
        assert_eq!(serial.sample_frames, senders, "window {w}");
        assert_eq!(serial, per_row, "window {w}");
        assert_eq!(batch_bits(&serial_est), batch_bits(&ref_est), "window {w}");

        // Bit-exact reference: every machine's row is the in-memory
        // extraction of its last *transmitted* window.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        for (m, &sent) in last_sent.iter().enumerate() {
            reference.push_sample_set(&synthetic_set(m as u64, sent, &LAYOUT));
        }
        assert_eq!(
            batch_bits(&serial_est),
            batch_bits(&reference),
            "window {w}"
        );

        if w >= DEC as u64 {
            // Steady state: every machine has announced its decimation,
            // so silence is protocol (reconstruction), not degradation.
            assert_eq!(
                serial.rows_reconstructed,
                MACHINES as u64 - senders,
                "window {w}"
            );
            assert_eq!(serial.rows_held, 0, "window {w}");
            assert!(
                serial.health().is_clean(),
                "window {w}: {}",
                serial.health()
            );
            for m in 0..MACHINES as u64 {
                assert_eq!(
                    serial_state.machine_health(m),
                    Some(HealthState::Healthy),
                    "window {w} machine {m}"
                );
            }
        }
    }
}

#[test]
fn decimated_silence_past_grace_goes_stale_once_then_recovers() {
    // A decimated machine that actually dies: the first dec−1 silent
    // windows are reconstruction (protocol), the next max_stale_windows
    // are held as Suspect (the legacy grace), then staleness — counted
    // exactly once for the outage — and a fresh row revives it.
    const DEC: u16 = 4;
    let mut state = IngestState::new();
    let max_stale = state.policy().max_stale_windows;
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut enc = WireEncoder::new();
    enc.set_decimation(0, DEC);
    enc.push_sample_set(0, &synthetic_set(0, 0, &LAYOUT))
        .unwrap();
    let rep = ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);
    assert_eq!(rep.rows_written, 1);

    let mut stale_events = 0u64;
    for since in 1..=(DEC as u64 - 1 + max_stale + 3) {
        let rep = ingest_serial_with(&mut state, &[], 1, &mut est);
        if since < DEC as u64 {
            assert_eq!(rep.rows_reconstructed, 1, "window {since}");
            assert_eq!(state.machine_health(0), Some(HealthState::Healthy));
        } else if since <= DEC as u64 - 1 + max_stale {
            assert_eq!(rep.rows_held, 1, "window {since}");
            assert_eq!(state.machine_health(0), Some(HealthState::Suspect));
        } else {
            assert_eq!(rep.rows_written, 0, "window {since}");
            assert_eq!(state.machine_health(0), Some(HealthState::Stale));
        }
        stale_events += rep.machines_stale;
    }
    assert_eq!(stale_events, 1, "one outage, one stale count");

    enc.push_sample_set(0, &synthetic_set(0, 99, &LAYOUT))
        .unwrap();
    let rep = ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);
    assert_eq!(rep.rows_written, 1);
    assert_eq!(state.machine_health(0), Some(HealthState::Healthy));
}

#[test]
fn stale_machine_replaying_its_last_window_rebaselines_not_locked_out() {
    // Regression for the staleness-boundary sequence bug: a machine
    // that crossed the staleness bound and reappeared replaying its
    // last accepted window sequence used to be judged a duplicate —
    // skipped, and locked out until its producer's sequence moved — and
    // its next outage could re-count in `machines_stale`. Equal
    // sequences from a Stale machine must re-baseline as a reset.
    let mut state = IngestState::new();
    let max_stale = state.policy().max_stale_windows;
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let set = synthetic_set(0, 5, &LAYOUT);
    let mut enc = WireEncoder::new();
    enc.push_sample_set(0, &set).unwrap();
    ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);

    // stale → …
    let mut stales = 0;
    for _ in 0..max_stale + 2 {
        stales += ingest_serial_with(&mut state, &[], 1, &mut est).machines_stale;
    }
    assert_eq!(stales, 1);
    assert_eq!(state.machine_health(0), Some(HealthState::Stale));

    // … recover by replaying the same window sequence → …
    enc.push_sample_set(0, &set).unwrap();
    let rep = ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);
    assert_eq!(
        rep.duplicate_windows, 0,
        "replay after staleness is not a duplicate"
    );
    assert_eq!(rep.resets_detected, 1, "it re-baselines as a reset");
    assert_eq!(rep.rows_written, 1, "and the row is accepted");
    assert_eq!(state.machine_health(0), Some(HealthState::Suspect));

    // … → stale again: the fresh outage counts exactly once more.
    let mut stales = 0;
    for _ in 0..max_stale + 2 {
        stales += ingest_serial_with(&mut state, &[], 1, &mut est).machines_stale;
    }
    assert_eq!(stales, 1, "a fresh outage counts once more");
}

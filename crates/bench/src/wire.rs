//! Wire codec benchmark (`repro --wire N`).
//!
//! Measures the telemetry wire path end-to-end on the same synthetic
//! fleet data as `repro --fleet N` ([`crate::fleet::synthetic_set`]):
//!
//! * **encode** — a persistent [`tdp_wire::WireEncoder`] appending one
//!   steady-state window (a sample frame per machine; layout frames
//!   appear only in the untimed warm-up window, as with any long-lived
//!   producer);
//! * **decode** — walking the window with [`FrameCursor`] +
//!   [`FrameDecoder`]: checksum, varint/delta reconstruction and rate
//!   derivation, rows discarded (the codec cost in isolation);
//! * **fused** — [`tdp_wire::ingest_serial_with`]: decode straight
//!   into the [`FleetEstimator`]'s batch plus the column evaluation;
//! * **in-memory** — `FleetEstimator::process_window` on the already
//!   decoded [`SampleSet`]s, measured in the same run as the baseline
//!   the fused path is compared against.
//!
//! The benchmark always encodes every window in **both** sample-frame
//! formats ([`FrameKind::Planar`] and [`FrameKind::Varint`]). The
//! `--frame` flag selects which buffer the headline paths time; the
//! other format's fused path is timed in the same rotation (matched
//! noise), so `BENCH_wire.json` always carries a planar-vs-varint A/B:
//! per-format frame sizes, per-format fused ns/machine and per-format
//! payload-decode stage costs.
//!
//! The warm-up window asserts the wire paths — both formats — are
//! bit-identical to the in-memory path before any timing starts.
//! Results land in `BENCH_wire.json`.
//!
//! With `--faults SEED` the benchmark becomes the **chaos harness**
//! ([`run_chaos`]): a seeded [`FaultPlan`] batters the same stream and
//! the graceful-degradation contract is checked instead of throughput
//! — including batched ingest against the per-row
//! [`ingest_reference_with`]; the verdict lands in `CHAOS.json`.

use crate::fleet::refill_sets;
use crate::pipeline::{peak_rss_kb, StageRate};
use crate::ExperimentConfig;
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{
    fold_event_lanes, AnomalyDetector, FleetEstimator, SampleBatch, Verdict, ROW_EVENTS,
};
use tdp_parallel::WorkerPool;
use tdp_wire::frame::{FrameType, PayloadChecksum};
use tdp_wire::planar::decode_planes;
use tdp_wire::varint::read_uvarints;
use tdp_wire::{
    ingest_reference_with, ingest_serial_with, CursorItem, DegradePolicy, FaultKind, FaultPlan,
    FaultedWindow, FrameCursor, FrameDecoder, FrameKind, IngestState, PipelineHealth, StreamReport,
    WireEncoder,
};
use trickledown::SystemPowerModel;

/// The slot map of the synthetic fleet's layout, which is [`ROW_EVENTS`]
/// itself: wire event `e` fills row lane `e`.
pub const ROW_SLOTS: [u8; ROW_EVENTS.len()] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

/// Full wire benchmark report.
#[derive(Debug, Clone, Serialize)]
pub struct WireReport {
    /// Machines per window.
    pub n_machines: usize,
    /// Sample-frame format the headline paths timed (`planar` /
    /// `varint` — the `--frame` selection); the `planar_*` / `varint_*`
    /// fields always carry the A/B numbers for both.
    pub frame_format: &'static str,
    /// Windows measured per path.
    pub windows: u64,
    /// Worker-pool concurrency on the host
    /// ([`tdp_parallel::WorkerPool::global`]); every wire path timed
    /// here runs on one thread.
    pub workers: usize,
    /// Encoded bytes per steady-state window in the selected format
    /// (sample frames only — layouts are announced once, in the
    /// untimed warm-up window).
    pub bytes_per_window: u64,
    /// Frames per steady-state window (one sample frame per machine).
    pub frames_per_window: u64,
    /// Mean encoded frame size in the selected format, bytes.
    pub bytes_per_frame: f64,
    /// Mean encoded frame size of the column-planar format, bytes.
    pub planar_bytes_per_frame: f64,
    /// Mean encoded frame size of the varint format, bytes.
    pub varint_bytes_per_frame: f64,
    /// Planar window bytes over varint window bytes (> 1.0 means the
    /// fixed-width planes pay size for their decode speed).
    pub planar_vs_varint_bytes: f64,
    /// Encode path; units are frames.
    pub encode: StageRate,
    /// Decode-only path; units are frames.
    pub decode: StageRate,
    /// Fused serial decode→estimate; units are machine-windows.
    pub fused: StageRate,
    /// In-memory `process_window` baseline; units are machine-windows.
    pub in_memory: StageRate,
    /// Headline: frames decoded per second (decode-only path).
    pub decode_frames_per_sec: f64,
    /// Nanoseconds per machine-estimate, fused wire path (selected
    /// format).
    pub fused_ns_per_machine: f64,
    /// Fused ns per machine-estimate over planar frames, timed in the
    /// same rotation as the selected format (matched-noise A/B).
    pub planar_fused_ns_per_machine: f64,
    /// Fused ns per machine-estimate over varint frames, timed in the
    /// same rotation as the selected format (matched-noise A/B).
    pub varint_fused_ns_per_machine: f64,
    /// Nanoseconds per machine-estimate, in-memory baseline.
    pub in_memory_ns_per_machine: f64,
    /// Fused wire cost relative to the in-memory baseline
    /// (1.0 = free codec; the ISSUE target is ≤ 2.0).
    pub fused_vs_in_memory: f64,
    /// Isolated checksum stage: frame walk + payload checksum mix
    /// only, ns per machine-window.
    pub stage_checksum_ns_per_machine: f64,
    /// Isolated payload-decode stage of the **varint** leg (frame walk
    /// plus bulk LEB128 decode), ns per machine-window; overlaps the
    /// checksum stage on the fused path, so the stages sum past the
    /// whole. Always equals
    /// [`stage_payload_varint_ns_per_machine`](Self::stage_payload_varint_ns_per_machine);
    /// the duplicate keeps the historical field name alive so stage
    /// budgets stay comparable across report generations. (It used to
    /// echo whichever leg `--frame` selected, silently reporting the
    /// planar stage under the varint name for planar runs.)
    pub stage_varint_ns_per_machine: f64,
    /// Isolated payload-decode stage over the planar buffer (always
    /// measured, whatever `--frame` selected).
    pub stage_payload_planar_ns_per_machine: f64,
    /// Isolated payload-decode stage over the varint buffer (always
    /// measured, whatever `--frame` selected).
    pub stage_payload_varint_ns_per_machine: f64,
    /// Isolated health stage: the batched [`DegradePolicy`] sanity
    /// scan over one window's columns, ns per machine-window.
    pub stage_health_ns_per_machine: f64,
    /// Isolated extraction stage: decoded f64 event lanes → SoA batch
    /// columns via the fused planar fold ([`fold_event_lanes`]), with
    /// no decode or model evaluation behind it, ns per machine-window.
    /// (Before the decode-to-column fusion this stage timed the
    /// in-memory `SampleSet` → column path, ~120 ns at N=1024; the
    /// fused fold is what a planar wire window actually pays.)
    pub stage_extraction_ns_per_machine: f64,
    /// Corrupt frames the fused path saw (must be 0 on clean input).
    pub corrupt_frames: u64,
    /// Peak resident set (VmHWM), kilobytes; 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Kernel dispatch flavour the run used (`scalar` / `wide` — see
    /// [`tdp_simd::Dispatch::active`]).
    pub simd: &'static str,
    /// Adaptive-sampling results (`--anomaly`): detection quality of
    /// the closed anomaly→decimation loop plus the decimated-ingest
    /// A/B, nested under an `"anomaly"` key in `BENCH_wire.json`;
    /// omitted without the flag.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub anomaly: Option<AnomalyBench>,
}

/// Adaptive-sampling benchmark block (`--wire N --anomaly`).
///
/// Two sub-runs over the same synthetic fleet:
///
/// * **detection quality** — the full closed loop (gated encode →
///   fused ingest → fleet estimate → [`AnomalyDetector`] → decimation
///   grants fed back to the encoder), clean through warm-up and
///   steady state, then a sane-but-extreme rate spike on one machine;
/// * **decimated ingest A/B** — the same stream encoded at full rate
///   and under a fleet-wide decimation grant, fused serial ingest
///   timed for both (matched windows, alternating order). The model
///   evaluation is excluded: decimation cuts decode + row work, not
///   the estimator, and mixing the two would understate the cut.
#[derive(Debug, Clone, Serialize)]
pub struct AnomalyBench {
    /// Closed-loop windows driven (warm-up + clean steady state +
    /// spike; the loop stops once the spike is flagged).
    pub anomaly_windows: u64,
    /// Detector warm-up (`baseline_windows`): no verdicts, no grants,
    /// full-rate transmission before this many windows.
    pub anomaly_warmup_windows: u64,
    /// Machine-windows flagged (anomalous or suspect) before the
    /// spike began — false positives; must be 0 on this fault-free
    /// prefix.
    pub anomaly_false_positives: u64,
    /// Largest robust z-score any machine reached while the fleet was
    /// clean and the detector warmed (headroom under the detection
    /// threshold; warm-up z is unsmoothed and never judged).
    pub anomaly_clean_max_z: f64,
    /// The spiked machine was flagged `Anomalous`.
    pub anomaly_spike_detected: bool,
    /// Windows from spike onset to the flag (1 = the first window the
    /// spike could possibly be judged).
    pub anomaly_detection_windows: u64,
    /// The protocol's worst-case detection latency: the spiked
    /// machine's decimation when the spike began (its sample may wait
    /// out its transmission phase).
    pub anomaly_detection_bound_windows: u64,
    /// Decimation the A/B grants every machine (the detector's
    /// `healthy_decimation`).
    pub decimation: u16,
    /// Steady-state windows the A/B timed per stream.
    pub decimation_ab_windows: u64,
    /// Mean encoded bytes per steady-state window, full-rate stream.
    pub decimation_full_bytes_per_window: f64,
    /// Mean encoded bytes per steady-state window, decimated stream.
    pub decimation_decimated_bytes_per_window: f64,
    /// Full-rate bytes over decimated bytes (≈ the decimation).
    pub decimation_wire_ratio: f64,
    /// Mean sample frames per steady-state window, full-rate stream
    /// (one per machine).
    pub decimation_full_frames_per_window: f64,
    /// Mean sample frames per steady-state window, decimated stream
    /// (≈ machines ÷ decimation; reconstruction fills the rest).
    pub decimation_decimated_frames_per_window: f64,
    /// Median fused serial ingest (decode → health → batch rows, no
    /// model evaluation), ns per machine, full-rate stream.
    pub decimation_full_ingest_ns_per_machine: f64,
    /// Same, decimated stream (held machines reconstructed from their
    /// last transmitted window).
    pub decimation_decimated_ingest_ns_per_machine: f64,
    /// Full-rate over decimated ingest cost — the headline; the ISSUE
    /// target is ≥ 2 at decimation 4.
    pub decimation_ingest_speedup: f64,
}

/// Appends one window of `sets` to the persistent encoder and drains
/// the bytes. Steady state: the encoder's layout memory means layout
/// frames appear only in the first window (or when a machine's PMU
/// programming changes), exactly as a long-lived producer behaves.
fn encode_window(enc: &mut WireEncoder, sets: &[SampleSet]) -> Vec<u8> {
    for (m, set) in sets.iter().enumerate() {
        enc.push_sample_set(m as u64, set)
            .expect("synthetic sets encode");
    }
    enc.take_bytes()
}

/// Decodes every frame in `buf`, discarding rows: the codec cost with
/// no estimator behind it. Returns the frame count. The decoder
/// persists so sample-only steady-state windows resolve their layouts.
fn decode_only(dec: &mut FrameDecoder, buf: &[u8]) -> u64 {
    let mut cursor = FrameCursor::new(buf);
    let mut frames = 0u64;
    while let Some(item) = cursor.next() {
        if let CursorItem::Frame { start, header } = item {
            let decoded = dec
                .decode_frame(&header, cursor.payload(start, &header))
                .expect("clean stream decodes");
            black_box(&decoded);
            frames += 1;
        }
    }
    frames
}

/// Times one isolated payload-decode pass over an encoded window:
/// frame walk + bulk LEB128 decode for varint sample frames, or the
/// fused unzigzag/unfold/widen walk into f64 lanes for planar sample
/// frames (each planar frame pays its checksum absorb too — the
/// single-pass read `decode_planes` performs on the real path).
/// Returns seconds.
fn payload_decode_pass(
    d: tdp_simd::Dispatch,
    buf: &[u8],
    scratch: &mut Vec<u64>,
    lanes: &mut Vec<f64>,
) -> f64 {
    let start = Instant::now();
    let mut cursor = FrameCursor::new(buf);
    while let Some(item) = cursor.next() {
        if let CursorItem::Frame { start, header } = item {
            let payload = cursor.payload(start, &header);
            match header.frame_type {
                FrameType::Sample => {
                    let n = header.cpu_count as usize * header.n_events as usize;
                    scratch.resize(n, 0);
                    let mut pos = 0usize;
                    read_uvarints(d, payload, &mut pos, scratch).expect("clean payload varints");
                    black_box(&scratch);
                }
                FrameType::PlanarSample => {
                    let mut ck = PayloadChecksum::new(&header);
                    decode_planes(
                        payload,
                        &ROW_SLOTS[..header.n_events as usize],
                        ROW_EVENTS.len(),
                        header.cpu_count as usize,
                        lanes,
                        &mut ck,
                    )
                    .expect("clean planar payload");
                    black_box(&lanes);
                }
                FrameType::Layout => continue,
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// Times the isolated pipeline stages over one window encoded in both
/// formats, plus its decoded sets: checksum mix (selected buffer),
/// payload decode (planar buffer, then varint buffer), batched health
/// scan and lane→column extraction (the fused planar fold:
/// [`fold_event_lanes`] over pre-decoded f64 event lanes — the stage
/// the decode-to-column fusion actually runs per machine; the lanes
/// are staged untimed so the stage isolates the fold, not the decode
/// the payload stages already measure). Returns seconds per stage in
/// that order. These passes share scratch across windows like the real
/// paths, so steady-state cost is what gets measured.
#[allow(clippy::too_many_arguments)] // one slot per reusable scratch buffer
fn stage_passes(
    selected: &[u8],
    planar_buf: &[u8],
    varint_buf: &[u8],
    sets: &[SampleSet],
    batch: &mut SampleBatch,
    policy: &DegradePolicy,
    scratch: &mut Vec<u64>,
    lanes: &mut Vec<f64>,
    fold_lanes: &mut Vec<f64>,
    mask: &mut Vec<u8>,
) -> [f64; 5] {
    let d = tdp_simd::Dispatch::active();

    let start = Instant::now();
    let mut cursor = FrameCursor::new(selected);
    while let Some(item) = cursor.next() {
        if let CursorItem::Frame { start, header } = item {
            black_box(header.expected_checksum(cursor.payload(start, &header)));
        }
    }
    let checksum = start.elapsed().as_secs_f64();

    let payload_planar = payload_decode_pass(d, planar_buf, scratch, lanes);
    let payload_varint = payload_decode_pass(d, varint_buf, scratch, lanes);

    // Stage the fleet's event lanes untimed (exactly what the planar
    // decode leaves in the lane buffer: event-major f64, CPU 0 first).
    // The synthetic fleet is the canonical identity layout, so the
    // event order is ROW_EVENTS.
    let cpus = sets.first().map_or(0, |s| s.per_cpu.len());
    let lane_stride = ROW_EVENTS.len() * cpus;
    fold_lanes.resize(sets.len() * lane_stride, 0.0);
    for (m, set) in sets.iter().enumerate() {
        let dst = &mut fold_lanes[m * lane_stride..(m + 1) * lane_stride];
        for (c, cpu) in set.per_cpu.iter().enumerate() {
            debug_assert_eq!(cpu.counts().len(), ROW_EVENTS.len());
            for (e, &(_, count)) in cpu.counts().iter().enumerate() {
                dst[e * cpus + c] = count as f64;
            }
        }
    }
    let start = Instant::now();
    batch.clear();
    for m in 0..sets.len() {
        let row = fold_event_lanes(d, &fold_lanes[m * lane_stride..(m + 1) * lane_stride], cpus);
        batch.push_row(row);
    }
    black_box(&batch);
    let extraction = start.elapsed().as_secs_f64();

    let start = Instant::now();
    policy.sane_mask_batch(d, batch.columns(), mask);
    black_box(&mask);
    let health = start.elapsed().as_secs_f64();

    [checksum, payload_planar, payload_varint, health, extraction]
}

/// Reduces per-window wall times to a noise-robust total: the median
/// window, scaled by the window count so the downstream rate math is
/// unchanged. On an idle machine this converges to the mean; on a
/// contended one it discards the windows the scheduler stole (a
/// preempted window reads as several times its true cost, and a sum
/// would charge that to the codec).
fn robust_total(samples: &mut [f64]) -> f64 {
    median(samples) * samples.len() as f64
}

/// The sample median (mean of the middle pair for even counts), `0.0`
/// for an empty slice.
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Boosts one machine's activity far above the fleet while staying
/// inside every [`DegradePolicy`] cap (UPC ≤ 8 of 16, L3 ≤ 32 of 50
/// per kilocycle, DMA ≤ 0.17 of 0.2 per cycle, …): a runaway workload
/// the sanity layer must *not* quarantine — only the cross-sectional
/// detector can catch it.
fn spike_set(set: &mut SampleSet) {
    for sample in &mut set.per_cpu {
        let (cpu, seq) = (sample.cpu(), sample.seq());
        let boosted: Vec<(PerfEvent, u64)> = sample
            .counts()
            .iter()
            .map(|&(e, c)| {
                let boost = match e {
                    PerfEvent::FetchedUops => 4,
                    PerfEvent::L3LoadMisses => 12,
                    PerfEvent::BusTransactionsAll => 8,
                    PerfEvent::DmaOtherBusTransactions => 5,
                    PerfEvent::InterruptsTotal => 4,
                    PerfEvent::DiskInterrupts => 4,
                    _ => 1,
                };
                (e, c * boost)
            })
            .collect();
        sample.refill(cpu, seq, boosted);
    }
}

/// The `--anomaly` phase: drives the closed detection loop for
/// quality numbers, then times the decimated-ingest A/B. Panics on a
/// contract violation the test suite already pins (quarantined spike
/// rows, unhealthy steady state) — a run that breaks those must not
/// report numbers.
fn anomaly_bench(cfg: &ExperimentConfig, n_machines: usize, kind: FrameKind) -> AnomalyBench {
    let n = n_machines.max(1);
    let model = SystemPowerModel::paper();
    let mut sets: Vec<SampleSet> = Vec::with_capacity(n);

    // ---- Detection quality: the full closed loop. ----
    let mut enc = WireEncoder::with_kind(kind);
    let mut state = IngestState::new();
    let mut est = FleetEstimator::with_capacity(model.clone(), n);
    let mut det = AnomalyDetector::default();
    let warmup = det.config().baseline_windows as u64;
    let dec = det.config().healthy_decimation;
    let spiked = n / 2;
    // Spike onset only after every machine has cycled through its
    // decimated phase at least twice: steady state, worst-case gating.
    let onset = warmup + 2 * dec as u64;
    let mut false_positives = 0u64;
    let mut clean_max_z = 0.0f64;
    let mut detected_after = None;
    let mut windows_driven = 0u64;
    for w in 0..onset + dec as u64 {
        windows_driven = w + 1;
        refill_sets(&mut sets, n, w ^ cfg.seed);
        let spiking = w >= onset;
        if spiking {
            spike_set(&mut sets[spiked]);
        }
        for (m, set) in sets.iter_mut().enumerate() {
            set.seq = w;
            if enc.should_send(m as u64, w) {
                enc.push_sample_set(m as u64, set)
                    .expect("synthetic sets encode");
            }
        }
        let buf = enc.take_bytes();
        let rep = ingest_serial_with(&mut state, &buf, n, &mut est);
        assert_eq!(rep.rows_written, n as u64, "window {w}: every row lands");
        assert_eq!(
            rep.rows_quarantined, 0,
            "window {w}: the spike is sane-but-extreme; only the detector may flag it"
        );
        det.update(est.estimate());
        for m in 0..n as u64 {
            enc.set_decimation(m, det.decimation(m as usize));
        }
        if !spiking {
            let s = det.summary();
            false_positives += s.anomalous + s.suspect;
            if det.warmed() {
                clean_max_z = clean_max_z.max(s.max_z);
            }
        } else if det.verdict(spiked) == Verdict::Anomalous {
            detected_after = Some(w - onset + 1);
            break;
        }
    }

    // ---- Decimated-ingest A/B: same sets, full rate vs fleet-wide
    // grant, fused serial ingest timed (no model evaluation). ----
    let ab_windows: u64 = (262_144 / n as u64).clamp(16, 128);
    let mut full_enc = WireEncoder::with_kind(kind);
    let mut dec_enc = WireEncoder::with_kind(kind);
    let mut full_state = IngestState::new();
    let mut dec_state = IngestState::new();
    let mut full_est = FleetEstimator::with_capacity(model.clone(), n);
    let mut dec_est = FleetEstimator::with_capacity(model, n);
    // Grants are announced in-band on each machine's next transmitted
    // layout frame, so the decimated stream reaches its all-machines-
    // reconstructed steady state only once every phase has sent under
    // the grant: warm (untimed) until then.
    let warm = dec as u64 + 1;
    let (mut full_s, mut dec_s) = (Vec::<f64>::new(), Vec::<f64>::new());
    let (mut full_bytes, mut dec_bytes) = (0u64, 0u64);
    let (mut full_frames, mut dec_frames) = (0u64, 0u64);
    for w in 0..warm + ab_windows {
        refill_sets(&mut sets, n, w ^ cfg.seed);
        let mut senders = 0u64;
        for (m, set) in sets.iter_mut().enumerate() {
            set.seq = w;
            full_enc
                .push_sample_set(m as u64, set)
                .expect("synthetic sets encode");
            if dec_enc.should_send(m as u64, w) {
                dec_enc
                    .push_sample_set(m as u64, set)
                    .expect("synthetic sets encode");
                senders += 1;
            }
        }
        let full_buf = full_enc.take_bytes();
        let dec_buf = dec_enc.take_bytes();
        if w == 0 {
            // Window 0 seeds every machine's baseline row at full
            // rate; the fleet-wide grant starts with window 1.
            for m in 0..n as u64 {
                dec_enc.set_decimation(m, dec);
            }
        }

        // Alternate ingest order so cache-position bias averages out.
        let (mut full_elapsed, mut dec_elapsed) = (0.0f64, 0.0f64);
        for step in 0..2 {
            if (step + w as usize).is_multiple_of(2) {
                let start = Instant::now();
                let rep = ingest_serial_with(&mut full_state, &full_buf, n, &mut full_est);
                full_elapsed = start.elapsed().as_secs_f64();
                assert_eq!(rep.rows_written, n as u64);
                assert_eq!(rep.corrupt_frames, 0, "clean stream");
            } else {
                let start = Instant::now();
                let rep = ingest_serial_with(&mut dec_state, &dec_buf, n, &mut dec_est);
                dec_elapsed = start.elapsed().as_secs_f64();
                assert_eq!(rep.rows_written, n as u64);
                assert_eq!(rep.corrupt_frames, 0, "clean stream");
                if w >= warm {
                    // Steady state: absentees are reconstructions of
                    // their last transmitted window, never held or
                    // stale — the health contract of decimation.
                    assert_eq!(rep.rows_reconstructed, n as u64 - senders, "window {w}");
                    assert_eq!((rep.rows_held, rep.machines_stale), (0, 0), "window {w}");
                }
            }
        }
        if w >= warm {
            full_s.push(full_elapsed);
            dec_s.push(dec_elapsed);
            full_bytes += full_buf.len() as u64;
            dec_bytes += dec_buf.len() as u64;
            full_frames += n as u64;
            dec_frames += senders;
        }
    }
    let full_ns = median(&mut full_s) * 1e9 / n as f64;
    let dec_ns = median(&mut dec_s) * 1e9 / n as f64;
    let per_window = |total: u64| total as f64 / ab_windows as f64;

    AnomalyBench {
        anomaly_windows: windows_driven,
        anomaly_warmup_windows: warmup,
        anomaly_false_positives: false_positives,
        anomaly_clean_max_z: clean_max_z,
        anomaly_spike_detected: detected_after.is_some(),
        anomaly_detection_windows: detected_after.unwrap_or(0),
        anomaly_detection_bound_windows: dec as u64,
        decimation: dec,
        decimation_ab_windows: ab_windows,
        decimation_full_bytes_per_window: per_window(full_bytes),
        decimation_decimated_bytes_per_window: per_window(dec_bytes),
        decimation_wire_ratio: full_bytes as f64 / (dec_bytes as f64).max(1.0),
        decimation_full_frames_per_window: per_window(full_frames),
        decimation_decimated_frames_per_window: per_window(dec_frames),
        decimation_full_ingest_ns_per_machine: full_ns,
        decimation_decimated_ingest_ns_per_machine: dec_ns,
        decimation_ingest_speedup: full_ns / dec_ns.max(f64::MIN_POSITIVE),
    }
}

/// Runs all paths over the same windows and assembles the report.
/// `kind` selects the format the headline paths time; the other
/// format's fused path rides the same rotation for a matched-noise
/// A/B. Every per-path and per-stage figure is a **median over the
/// measured windows** (see `robust_total`), not a mean — the bench
/// often runs on shared single-CPU containers where preemption noise
/// otherwise dominates.
///
/// # Panics
///
/// Panics if a wire path's estimates are not bit-identical to the
/// in-memory baseline — that is the codec's core contract and a run
/// that breaks it must not report numbers.
///
/// With `anomaly` set, the adaptive-sampling phase (`anomaly_bench`)
/// runs after the headline timing and its `anomaly_*` /
/// `decimation_*` fields join the report; the headline paths are
/// untouched (every machine still transmits every window).
pub fn run(
    cfg: &ExperimentConfig,
    n_machines: usize,
    kind: FrameKind,
    anomaly: bool,
) -> WireReport {
    let n_machines = n_machines.max(1);
    // Encoding dominates setup; fewer windows than the fleet bench
    // still average out scheduler noise because each window does
    // 6 passes over the same data.
    let windows: u64 = (262_144 / n_machines as u64).clamp(8, 256);
    let alt_kind = match kind {
        FrameKind::Planar => FrameKind::Varint,
        FrameKind::Varint => FrameKind::Planar,
    };
    let model = SystemPowerModel::paper();

    let mut fused = FleetEstimator::with_capacity(model.clone(), n_machines);
    let mut alt_fused = FleetEstimator::with_capacity(model.clone(), n_machines);
    let mut in_memory = FleetEstimator::with_capacity(model.clone(), n_machines);
    let mut enc = WireEncoder::with_kind(kind);
    let mut alt_enc = WireEncoder::with_kind(alt_kind);
    let mut decode_state = FrameDecoder::new();
    let mut fused_state = IngestState::new();
    let mut alt_fused_state = IngestState::new();

    let mut sets: Vec<SampleSet> = Vec::with_capacity(n_machines);
    // Per-window wall times, reduced to a median after the run:
    // preemption on shared single-CPU runners inflates an arbitrary
    // subset of windows by multiples of their true cost, so a sum (or
    // mean) measures the scheduler, not the codec. The median window is
    // the steady-state cost.
    let (mut enc_s, mut dec_s, mut fused_s, mut alt_fused_s, mut mem_s) = (
        Vec::<f64>::new(),
        Vec::<f64>::new(),
        Vec::<f64>::new(),
        Vec::<f64>::new(),
        Vec::<f64>::new(),
    );
    let policy = DegradePolicy::default();
    let mut stage_batch = SampleBatch::with_capacity(n_machines);
    let mut stage_scratch: Vec<u64> = Vec::new();
    let mut stage_lanes: Vec<f64> = Vec::new();
    let mut stage_fold_lanes: Vec<f64> = Vec::new();
    let mut stage_mask: Vec<u8> = Vec::new();
    let mut stage_s: [Vec<f64>; 5] = Default::default();
    let mut fused_totals = StreamReport::default();
    let (mut bytes_per_window, mut alt_bytes_per_window, mut frames_per_window) =
        (0u64, 0u64, 0u64);

    for warmup in [true, false] {
        let measured_windows = if warmup { 1 } else { windows };
        for w in 0..measured_windows {
            let window = if warmup { u64::MAX } else { w ^ cfg.seed };
            refill_sets(&mut sets, n_machines, window);
            // `window` is a data salt and is deliberately scrambled; the
            // wire sequence numbers must stay monotone per machine (the
            // health layer reads a regression as a counter reset), so
            // override them: warm-up first, then 1, 2, …
            let seq = if warmup { 0 } else { w + 1 };
            for set in &mut sets {
                set.seq = seq;
            }

            let start = Instant::now();
            let buf = encode_window(&mut enc, &sets);
            let enc_elapsed = start.elapsed().as_secs_f64();
            // The other format's buffer is encoded untimed: same sets,
            // same layout epoch, so its fused pass below is a true A/B.
            let alt_buf = encode_window(&mut alt_enc, &sets);
            bytes_per_window = buf.len() as u64;
            alt_bytes_per_window = alt_buf.len() as u64;

            // Rotate path order so cache-position bias averages out.
            let (mut dec_elapsed, mut fused_elapsed, mut alt_elapsed, mut mem_elapsed) =
                (0.0f64, 0.0, 0.0, 0.0);
            for step in 0..4 {
                match (step + w as usize) % 4 {
                    0 => {
                        let start = Instant::now();
                        frames_per_window = decode_only(&mut decode_state, &buf);
                        dec_elapsed = start.elapsed().as_secs_f64();
                    }
                    1 => {
                        let start = Instant::now();
                        let rep =
                            ingest_serial_with(&mut fused_state, &buf, n_machines, &mut fused);
                        let est = fused.estimate();
                        fused_elapsed = start.elapsed().as_secs_f64();
                        assert_eq!(rep.corrupt_frames, 0, "clean stream");
                        assert_eq!(rep.unknown_layout_frames, 0, "layouts persist");
                        black_box(est.fleet_total());
                        if !warmup {
                            fused_totals.absorb(&rep);
                        }
                    }
                    2 => {
                        let start = Instant::now();
                        let rep = ingest_serial_with(
                            &mut alt_fused_state,
                            &alt_buf,
                            n_machines,
                            &mut alt_fused,
                        );
                        let est = alt_fused.estimate();
                        alt_elapsed = start.elapsed().as_secs_f64();
                        assert_eq!(rep.corrupt_frames, 0, "clean stream");
                        assert_eq!(rep.unknown_layout_frames, 0, "layouts persist");
                        black_box(est.fleet_total());
                    }
                    _ => {
                        let start = Instant::now();
                        let est = in_memory.process_window(&sets);
                        mem_elapsed = start.elapsed().as_secs_f64();
                        black_box(est.fleet_total());
                    }
                }
            }

            if warmup {
                // The codec's contract, asserted on untimed data: both
                // wire paths bit-identical to in-memory ingestion.
                let mem = in_memory.estimates();
                for (name, wire_est) in [
                    ("fused", fused.estimates()),
                    ("alt-format fused", alt_fused.estimates()),
                ] {
                    for (a, b) in wire_est.total().iter().zip(mem.total()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{name} wire path diverged from in-memory ingestion"
                        );
                    }
                }
            } else {
                enc_s.push(enc_elapsed);
                dec_s.push(dec_elapsed);
                fused_s.push(fused_elapsed);
                alt_fused_s.push(alt_elapsed);
                mem_s.push(mem_elapsed);
                // The stage passes are diagnostic, not headline: run
                // them on a quarter of the windows so their five extra
                // data walks don't evict the cache the headline paths
                // are being measured in. The medians stay robust (64
                // samples at the default window count).
                if w % 4 == 0 {
                    let (planar_buf, varint_buf) = match kind {
                        FrameKind::Planar => (&buf, &alt_buf),
                        FrameKind::Varint => (&alt_buf, &buf),
                    };
                    let stages = stage_passes(
                        &buf,
                        planar_buf,
                        varint_buf,
                        &sets,
                        &mut stage_batch,
                        &policy,
                        &mut stage_scratch,
                        &mut stage_lanes,
                        &mut stage_fold_lanes,
                        &mut stage_mask,
                    );
                    for (samples, s) in stage_s.iter_mut().zip(stages) {
                        samples.push(s);
                    }
                }
            }
        }
    }

    let (enc_secs, dec_secs, fused_secs, alt_fused_secs, mem_secs) = (
        robust_total(&mut enc_s),
        robust_total(&mut dec_s),
        robust_total(&mut fused_s),
        robust_total(&mut alt_fused_s),
        robust_total(&mut mem_s),
    );
    // Stage passes run on a sampled subset of windows, so their median
    // is scaled per machine directly rather than through the totals.
    let stage_med: [f64; 5] = std::array::from_fn(|i| median(&mut stage_s[i]));

    let machine_units = windows * n_machines as u64;
    let frame_units = windows * frames_per_window;
    let encode_rate = StageRate::new(frame_units, enc_secs);
    let decode_rate = StageRate::new(frame_units, dec_secs);
    let fused_rate = StageRate::new(machine_units, fused_secs);
    let in_memory_rate = StageRate::new(machine_units, mem_secs);
    // Map selected/alt back onto planar/varint for the A/B fields.
    let (planar_window_bytes, varint_window_bytes, planar_fused_secs, varint_fused_secs) =
        match kind {
            FrameKind::Planar => (
                bytes_per_window,
                alt_bytes_per_window,
                fused_secs,
                alt_fused_secs,
            ),
            FrameKind::Varint => (
                alt_bytes_per_window,
                bytes_per_window,
                alt_fused_secs,
                fused_secs,
            ),
        };
    let per_machine = |window_secs: f64| window_secs * 1e9 / n_machines as f64;
    WireReport {
        n_machines,
        frame_format: kind.label(),
        windows,
        workers: WorkerPool::global().workers(),
        bytes_per_window,
        frames_per_window,
        bytes_per_frame: bytes_per_window as f64 / frames_per_window.max(1) as f64,
        planar_bytes_per_frame: planar_window_bytes as f64 / frames_per_window.max(1) as f64,
        varint_bytes_per_frame: varint_window_bytes as f64 / frames_per_window.max(1) as f64,
        planar_vs_varint_bytes: planar_window_bytes as f64 / varint_window_bytes.max(1) as f64,
        decode_frames_per_sec: decode_rate.per_sec,
        fused_ns_per_machine: fused_secs * 1e9 / machine_units as f64,
        planar_fused_ns_per_machine: planar_fused_secs * 1e9 / machine_units as f64,
        varint_fused_ns_per_machine: varint_fused_secs * 1e9 / machine_units as f64,
        in_memory_ns_per_machine: mem_secs * 1e9 / machine_units as f64,
        fused_vs_in_memory: fused_secs / mem_secs,
        stage_checksum_ns_per_machine: per_machine(stage_med[0]),
        stage_varint_ns_per_machine: per_machine(stage_med[2]),
        stage_payload_planar_ns_per_machine: per_machine(stage_med[1]),
        stage_payload_varint_ns_per_machine: per_machine(stage_med[2]),
        stage_health_ns_per_machine: per_machine(stage_med[3]),
        stage_extraction_ns_per_machine: per_machine(stage_med[4]),
        encode: encode_rate,
        decode: decode_rate,
        fused: fused_rate,
        in_memory: in_memory_rate,
        corrupt_frames: fused_totals.corrupt_frames,
        peak_rss_kb: peak_rss_kb(),
        simd: tdp_simd::Dispatch::active().label(),
        anomaly: anomaly.then(|| anomaly_bench(cfg, n_machines, kind)),
    }
}

/// Runs the benchmark, writes `BENCH_wire.json` under the output
/// directory and returns the rendered JSON.
///
/// # Panics
///
/// Panics if the output directory is unwritable (consistent with the
/// rest of the repro harness).
pub fn run_and_write(
    cfg: &ExperimentConfig,
    n_machines: usize,
    kind: FrameKind,
    anomaly: bool,
) -> String {
    let report = run(cfg, n_machines, kind, anomaly);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_wire.json");
    std::fs::write(&path, &json).expect("write BENCH_wire.json");
    eprintln!("bench: wrote {}", path.display());
    json
}

/// Chaos-harness report (`repro --wire N --faults SEED`), written to
/// `CHAOS.json`. The boolean verdicts are the machine-checkable
/// contract a CI smoke step asserts on; the counters say *how* the
/// pipeline degraded, not merely that it survived.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// Machines per window.
    pub n_machines: usize,
    /// Sample-frame format the battered stream used (`planar` /
    /// `varint`) — the degradation contract must hold for both.
    pub frame_format: &'static str,
    /// Windows ingested (window 0 is fault-free and carries layouts).
    pub windows: u64,
    /// Seed of the [`FaultPlan`] that battered windows 1….
    pub fault_seed: u64,
    /// Faults the plan injected over the whole run.
    pub faults_injected: u64,
    /// Distinct machines a destructive fault ever touched.
    pub machines_affected: u64,
    /// Machines eligible for the final window's bit-identity check
    /// (no destructive fault within the staleness horizon).
    pub clean_machines_final_window: u64,
    /// Rows the faulted pipeline still delivered to the estimator.
    pub rows_written: u64,
    /// Frames rejected by checksum/structure validation.
    pub corrupt_frames: u64,
    /// Framing-loss recoveries and the bytes they skipped.
    pub resyncs: u64,
    /// Bytes skipped while resynchronising.
    pub resync_bytes: u64,
    /// Counter resets detected and re-baselined.
    pub resets_detected: u64,
    /// Duplicate machine-windows ignored.
    pub duplicate_windows: u64,
    /// Rows quarantined by the sanity policy.
    pub rows_quarantined: u64,
    /// Held (last-good) rows substituted for missing machines.
    pub rows_held: u64,
    /// Machines that exhausted the staleness budget.
    pub machines_stale: u64,
    /// Per-subsystem predictions clamped by the estimator.
    pub clamped_predictions: u64,
    /// Every injected fault landed in a health counter (per window).
    pub all_faults_accounted: bool,
    /// Machines outside the fault horizon estimated bit-identically
    /// to a fault-free run, every window.
    pub clean_subset_bit_identical: bool,
    /// Batched serial ingest and the per-row reference
    /// ([`ingest_reference_with`]) degraded identically (same health
    /// block, same rows written, same estimate bits, every window).
    pub serial_reference_identical: bool,
    /// Peak resident set (VmHWM), kilobytes; 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Detector-under-fire results (`--anomaly`): the anomaly
    /// detector rides the faulted ingest's estimates. Nested under an
    /// `"anomaly"` key in `CHAOS.json`; omitted without the flag.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub anomaly: Option<ChaosAnomaly>,
}

/// Anomaly-detector sub-run of the chaos harness: every window's
/// faulted (serial-path) estimates are judged by one detector.
/// Faults *may* legitimately flag machines — a spiked row that passes
/// the sanity caps, a long-held machine diverging from live peers —
/// so the counters are evidence, not a contract.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosAnomaly {
    /// Windows the detector judged (all of them; warm-up included).
    pub anomaly_windows: u64,
    /// Anomalous or suspect machine-windows over the faulted run.
    pub anomaly_flagged_machine_windows: u64,
    /// Largest robust z-score any machine reached.
    pub anomaly_max_z: f64,
    /// The detector warmed up (judged windows past its baseline).
    pub anomaly_warmed: bool,
}

/// Counter floors implied by a window's injected faults — `false`
/// means a fault degraded the pipeline without being accounted.
fn faults_accounted(f: &FaultedWindow, rep: &StreamReport) -> bool {
    rep.corrupt_frames >= f.count(FaultKind::BitFlip)
        && rep.resyncs >= f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail)
        && rep.rows_quarantined >= f.count(FaultKind::RateSpike)
        && rep.resets_detected + rep.duplicate_windows
            >= f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame)
}

/// Per-machine `[memory, disk, io, total]` estimate bits.
fn estimate_bits(est: &mut FleetEstimator, n: usize) -> Vec<[u64; 4]> {
    let e = est.estimate();
    (0..n)
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

/// Runs the fault-injection harness: the same synthetic fleet stream
/// is ingested clean and through a seeded [`FaultPlan`], batched and
/// per-row reference, and the report records whether degradation stayed
/// inside its contract. Never panics on a contract violation — the
/// verdict booleans go `false` so a CI assertion on `CHAOS.json`
/// fails with the evidence on disk.
pub fn run_chaos(
    cfg: &ExperimentConfig,
    n_machines: usize,
    fault_seed: u64,
    kind: FrameKind,
    anomaly: bool,
) -> ChaosReport {
    let n_machines = n_machines.max(1);
    // Long enough for an outage to cross the staleness horizon,
    // recover, and re-enter the clean subset.
    let windows: u64 = 24;
    let model = SystemPowerModel::paper();
    let plan = FaultPlan::new(fault_seed);

    let mut clean_est = FleetEstimator::with_capacity(model.clone(), n_machines);
    let mut serial_est = FleetEstimator::with_capacity(model.clone(), n_machines);
    let mut reference_est = FleetEstimator::with_capacity(model, n_machines);
    let mut clean_state = IngestState::new();
    let mut serial_state = IngestState::new();
    let mut reference_state = IngestState::new();
    let mut enc = WireEncoder::with_kind(kind);

    let horizon = serial_state.policy().max_stale_windows as usize + 1;
    let mut recent: VecDeque<BTreeSet<u64>> = VecDeque::with_capacity(horizon);
    let mut ever_affected: BTreeSet<u64> = BTreeSet::new();
    let mut totals = StreamReport::default();
    let mut faults_injected = 0u64;
    let mut clamped = 0u64;
    let mut clean_machines_final = 0u64;
    let (mut accounted, mut clean_identical, mut paths_identical) = (true, true, true);
    let mut detector = anomaly.then(|| {
        (
            AnomalyDetector::default(),
            ChaosAnomaly {
                anomaly_windows: 0,
                anomaly_flagged_machine_windows: 0,
                anomaly_max_z: 0.0,
                anomaly_warmed: false,
            },
        )
    });

    let mut sets: Vec<SampleSet> = Vec::with_capacity(n_machines);
    for w in 0..windows {
        refill_sets(&mut sets, n_machines, w ^ cfg.seed);
        for set in &mut sets {
            set.seq = w + 1;
        }
        let clean_bytes = encode_window(&mut enc, &sets);

        // Window 0 stays pristine so every layout frame lands before
        // the plan starts cutting; all later windows take 1–3 faults.
        let faulted = (w > 0).then(|| plan.apply(w, &clean_bytes));
        let fault_bytes: &[u8] = faulted.as_ref().map_or(&clean_bytes, |f| &f.bytes);

        ingest_serial_with(&mut clean_state, &clean_bytes, n_machines, &mut clean_est);
        let clean_bits = estimate_bits(&mut clean_est, n_machines);

        let serial_rep =
            ingest_serial_with(&mut serial_state, fault_bytes, n_machines, &mut serial_est);
        clamped += serial_est.estimate().clamped_predictions();
        let serial_bits = estimate_bits(&mut serial_est, n_machines);
        totals.absorb(&serial_rep);

        if let Some((det, rep)) = detector.as_mut() {
            det.update(serial_est.estimate());
            rep.anomaly_windows += 1;
            let s = det.summary();
            rep.anomaly_flagged_machine_windows += s.anomalous + s.suspect;
            rep.anomaly_max_z = rep.anomaly_max_z.max(s.max_z);
            rep.anomaly_warmed |= det.warmed();
        }

        let reference_rep = ingest_reference_with(
            &mut reference_state,
            fault_bytes,
            n_machines,
            &mut reference_est,
        );
        let reference_bits = estimate_bits(&mut reference_est, n_machines);

        // Batching is an implementation detail: identical degradation
        // decisions, identical estimates.
        paths_identical &= PipelineHealth::from_report(&serial_rep)
            == PipelineHealth::from_report(&reference_rep)
            && serial_rep.rows_written == reference_rep.rows_written
            && serial_bits == reference_bits;

        if let Some(f) = &faulted {
            faults_injected += f.injected.len() as u64;
            accounted &= faults_accounted(f, &serial_rep);
            ever_affected.extend(f.affected.iter().copied());
        }

        // Machines with no destructive fault inside the staleness
        // horizon must estimate bit-identically to the fault-free run
        // (held rows replay history, so affection persists only while
        // a machine is being held).
        if recent.len() == horizon {
            recent.pop_front();
        }
        recent.push_back(
            faulted
                .as_ref()
                .map(|f| f.affected.clone())
                .unwrap_or_default(),
        );
        let dirty: BTreeSet<u64> = recent.iter().flatten().copied().collect();
        for m in 0..n_machines as u64 {
            if !dirty.contains(&m) {
                clean_identical &= serial_bits[m as usize] == clean_bits[m as usize];
            }
        }
        if w == windows - 1 {
            clean_machines_final = n_machines as u64 - dirty.len() as u64;
        }
    }

    ChaosReport {
        n_machines,
        frame_format: kind.label(),
        windows,
        fault_seed,
        faults_injected,
        machines_affected: ever_affected.len() as u64,
        clean_machines_final_window: clean_machines_final,
        rows_written: totals.rows_written,
        corrupt_frames: totals.corrupt_frames,
        resyncs: totals.resyncs,
        resync_bytes: totals.resync_bytes,
        resets_detected: totals.resets_detected,
        duplicate_windows: totals.duplicate_windows,
        rows_quarantined: totals.rows_quarantined,
        rows_held: totals.rows_held,
        machines_stale: totals.machines_stale,
        clamped_predictions: clamped,
        all_faults_accounted: accounted,
        clean_subset_bit_identical: clean_identical,
        serial_reference_identical: paths_identical,
        peak_rss_kb: peak_rss_kb(),
        anomaly: detector.map(|(_, rep)| rep),
    }
}

/// Runs the chaos harness, writes `CHAOS.json` under the output
/// directory and returns the rendered JSON.
///
/// # Panics
///
/// Panics if the output directory is unwritable (consistent with the
/// rest of the repro harness).
pub fn run_chaos_and_write(
    cfg: &ExperimentConfig,
    n_machines: usize,
    fault_seed: u64,
    kind: FrameKind,
    anomaly: bool,
) -> String {
    let report = run_chaos(cfg, n_machines, fault_seed, kind, anomaly);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("CHAOS.json");
    std::fs::write(&path, &json).expect("write CHAOS.json");
    eprintln!("chaos: wrote {}", path.display());
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_wire_report_is_consistent() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-wire-bench-test"),
            ..ExperimentConfig::quick()
        };
        let r = run(&cfg, 8, FrameKind::Planar, false);
        assert_eq!(r.n_machines, 8);
        assert!(
            r.anomaly.is_none(),
            "adaptive sampling is opt-in; the default report must not carry it"
        );
        assert_eq!(r.frame_format, "planar");
        assert_eq!(r.frames_per_window, 8, "steady state: sample frames only");
        assert_eq!(r.decode.units, r.windows * 8);
        assert_eq!(r.fused.units, r.windows * 8);
        assert!(r.decode_frames_per_sec > 0.0);
        assert!(r.fused_vs_in_memory > 0.0);
        assert_eq!(r.corrupt_frames, 0);
        assert!(
            r.bytes_per_frame > 44.0,
            "frames carry payload past the header"
        );
        assert!(r.planar_bytes_per_frame > 44.0 && r.varint_bytes_per_frame > 44.0);
        assert_eq!(
            r.bytes_per_frame, r.planar_bytes_per_frame,
            "selected format is planar, flat field mirrors it"
        );
        assert!(
            r.planar_vs_varint_bytes > 0.0 && r.planar_vs_varint_bytes.is_finite(),
            "A/B size ratio must be reportable, got {}",
            r.planar_vs_varint_bytes
        );
        assert_eq!(
            r.fused_ns_per_machine, r.planar_fused_ns_per_machine,
            "selected format is planar, flat fused field mirrors it"
        );
        for (name, ns) in [
            ("checksum", r.stage_checksum_ns_per_machine),
            ("varint (legacy name)", r.stage_varint_ns_per_machine),
            ("payload planar", r.stage_payload_planar_ns_per_machine),
            ("payload varint", r.stage_payload_varint_ns_per_machine),
            ("health", r.stage_health_ns_per_machine),
            ("extraction", r.stage_extraction_ns_per_machine),
            ("fused varint A/B", r.varint_fused_ns_per_machine),
        ] {
            assert!(
                ns > 0.0 && ns.is_finite(),
                "stage {name} must report a positive budget, got {ns}"
            );
        }
        assert_eq!(
            r.stage_varint_ns_per_machine, r.stage_payload_varint_ns_per_machine,
            "legacy flat field reports the varint leg's own stage even \
             when planar is selected (it used to echo the planar stage)"
        );
    }

    #[test]
    fn varint_selected_report_swaps_the_flat_fields() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-wire-bench-test-varint"),
            ..ExperimentConfig::quick()
        };
        let r = run(&cfg, 6, FrameKind::Varint, false);
        assert_eq!(r.frame_format, "varint");
        assert_eq!(r.bytes_per_frame, r.varint_bytes_per_frame);
        assert_eq!(r.fused_ns_per_machine, r.varint_fused_ns_per_machine);
        assert_eq!(
            r.stage_varint_ns_per_machine,
            r.stage_payload_varint_ns_per_machine
        );
        assert!(r.planar_fused_ns_per_machine > 0.0, "A/B still measured");
        assert_eq!(r.corrupt_frames, 0);
    }

    #[test]
    fn small_chaos_run_upholds_the_degradation_contract() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-wire-chaos-test"),
            ..ExperimentConfig::quick()
        };
        let r = run_chaos(&cfg, 12, 1234, FrameKind::Planar, false);
        assert_eq!(r.frame_format, "planar");
        assert!(r.anomaly.is_none(), "detector sub-run is opt-in");
        assert!(
            r.faults_injected >= r.windows - 1,
            "1–3 faults per faulted window, got {}",
            r.faults_injected
        );
        assert!(r.machines_affected >= 1);
        assert!(r.all_faults_accounted, "unaccounted fault: {r:?}");
        assert!(r.clean_subset_bit_identical, "clean subset diverged: {r:?}");
        assert!(r.serial_reference_identical, "paths diverged: {r:?}");
        assert!(r.rows_written > 0);

        // The harness replays deterministically, seed in → verdict out.
        let again = run_chaos(&cfg, 12, 1234, FrameKind::Planar, false);
        assert_eq!(r.faults_injected, again.faults_injected);
        assert_eq!(r.rows_written, again.rows_written);
        assert_eq!(r.rows_quarantined, again.rows_quarantined);
        // A different seed is a different battering.
        let other = run_chaos(&cfg, 12, 4321, FrameKind::Planar, false);
        assert!(other.all_faults_accounted && other.clean_subset_bit_identical);
        // The legacy varint stream degrades under the same contract.
        let varint = run_chaos(&cfg, 12, 1234, FrameKind::Varint, false);
        assert_eq!(varint.frame_format, "varint");
        assert!(varint.all_faults_accounted, "unaccounted fault: {varint:?}");
        assert!(varint.clean_subset_bit_identical && varint.serial_reference_identical);
    }

    #[test]
    fn anomaly_phase_reports_detection_and_decimation_wins() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-wire-bench-test-anomaly"),
            ..ExperimentConfig::quick()
        };
        let r = run(&cfg, 8, FrameKind::Planar, true);
        let a = r.anomaly.as_ref().expect("--anomaly fills the block");
        assert_eq!(a.anomaly_false_positives, 0, "clean fleet stays unflagged");
        assert!(
            a.anomaly_clean_max_z < AnomalyDetector::default().config().threshold,
            "clean z headroom, got {}",
            a.anomaly_clean_max_z
        );
        assert!(a.anomaly_spike_detected, "rate spike must be caught");
        assert!(
            (1..=a.anomaly_detection_bound_windows).contains(&a.anomaly_detection_windows),
            "detection within the decimation bound, got {} of {}",
            a.anomaly_detection_windows,
            a.anomaly_detection_bound_windows
        );
        assert_eq!(a.decimation, 4, "detector default grant");
        // 8 machines at decimation 4: exactly 2 transmit per
        // steady-state window; the rest are reconstructed.
        assert_eq!(a.decimation_full_frames_per_window, 8.0);
        assert_eq!(a.decimation_decimated_frames_per_window, 2.0);
        assert!(
            a.decimation_wire_ratio > 2.0,
            "wire bytes must shrink well past half, got {}",
            a.decimation_wire_ratio
        );
        assert!(
            a.decimation_ingest_speedup > 1.0 && a.decimation_ingest_speedup.is_finite(),
            "decimated ingest must be cheaper, got {}",
            a.decimation_ingest_speedup
        );
        // Flattening lands the fields at the report's top level, where
        // the CI assertions read them.
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"anomaly_spike_detected\":true"));
        assert!(json.contains("\"decimation_ingest_speedup\":"));
    }

    #[test]
    fn chaos_anomaly_subrun_keeps_detector_bit_identity_under_fire() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-wire-chaos-test-anomaly"),
            ..ExperimentConfig::quick()
        };
        let r = run_chaos(&cfg, 12, 1234, FrameKind::Planar, true);
        let a = r.anomaly.as_ref().expect("--anomaly fills the block");
        assert_eq!(a.anomaly_windows, r.windows);
        assert!(a.anomaly_warmed, "24 windows outlast the baseline");
        assert!(a.anomaly_max_z.is_finite());
        // A replay of the same battered stream must judge every window
        // identically, down to the last bit of the z-score.
        let replay = run_chaos(&cfg, 12, 1234, FrameKind::Planar, true);
        let b = replay.anomaly.as_ref().expect("--anomaly fills the block");
        assert_eq!(a.anomaly_max_z.to_bits(), b.anomaly_max_z.to_bits());
        assert_eq!(
            a.anomaly_flagged_machine_windows,
            b.anomaly_flagged_machine_windows
        );
    }
}

//! Criterion benches for the telemetry wire codec.
//!
//! Companion to `repro --wire N` (which measures the full comparison
//! and writes `BENCH_wire.json`): these isolate the per-window codec
//! costs at a fixed fleet size so regressions show up as per-iteration
//! deltas. `frames/s = (2 × MACHINES) / iteration time` for the decode
//! benches (layout + sample frame per machine).
//!
//! The legacy `wire/*_256` names are pinned to the **varint** frame
//! format so their history stays comparable across report generations;
//! the `wire/planar_*_256` group runs the same paths over column-planar
//! frames. The `wire/stage_*` group isolates the fused path's
//! constituent stages — checksum mix, payload decode (bulk varint or
//! the planar unzigzag/unfold/widen walk), batched health scan,
//! SampleSet→column extraction — mirroring the `stage_*_ns_per_machine` fields of
//! `BENCH_wire.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdp_bench::fleet::synthetic_set;
use tdp_bench::ExperimentConfig;
use tdp_counters::SampleSet;
use tdp_fleet::{fold_event_lanes, FleetEstimator, SampleBatch, ROW_EVENTS};
use tdp_wire::frame::{FrameType, PayloadChecksum};
use tdp_wire::planar::decode_planes;
use tdp_wire::varint::read_uvarints;
use tdp_wire::{
    ingest_serial, CursorItem, DegradePolicy, FrameCursor, FrameDecoder, FrameKind, WireEncoder,
};
use trickledown::SystemPowerModel;

const MACHINES: usize = 256;

fn synthetic_window() -> Vec<SampleSet> {
    let seed = ExperimentConfig::default().seed;
    (0..MACHINES).map(|m| synthetic_set(m, seed)).collect()
}

fn encode_window(kind: FrameKind, sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::with_kind(kind);
    for (m, set) in sets.iter().enumerate() {
        enc.push_sample_set(m as u64, set).expect("encodes");
    }
    enc.finish()
}

/// Registers the encode/decode/fused path benches for one frame format
/// under the given name prefix.
fn bench_paths(c: &mut Criterion, prefix: &str, kind: FrameKind, sets: &[SampleSet]) {
    let buf = encode_window(kind, sets);
    let model = SystemPowerModel::paper();

    c.bench_function(&format!("wire/{prefix}encode_window_256"), |b| {
        b.iter(|| black_box(encode_window(kind, sets).len()))
    });

    c.bench_function(&format!("wire/{prefix}decode_only_256"), |b| {
        b.iter(|| {
            let mut dec = FrameDecoder::new();
            let mut cursor = FrameCursor::new(&buf);
            let mut frames = 0u64;
            while let Some(item) = cursor.next() {
                if let CursorItem::Frame { start, header } = item {
                    let decoded = dec
                        .decode_frame(&header, cursor.payload(start, &header))
                        .expect("clean stream");
                    black_box(&decoded);
                    frames += 1;
                }
            }
            black_box(frames)
        })
    });

    let mut fused = FleetEstimator::with_capacity(model, MACHINES);
    c.bench_function(&format!("wire/{prefix}fused_decode_estimate_256"), |b| {
        b.iter(|| {
            ingest_serial(&buf, MACHINES, &mut fused);
            black_box(fused.estimate().fleet_total())
        })
    });
}

fn bench_wire_window(c: &mut Criterion) {
    let sets = synthetic_window();

    // Legacy names = varint frames (historical continuity).
    bench_paths(c, "", FrameKind::Varint, &sets);
    bench_paths(c, "planar_", FrameKind::Planar, &sets);

    let mut in_memory = FleetEstimator::with_capacity(SystemPowerModel::paper(), MACHINES);
    c.bench_function("wire/in_memory_baseline_256", |b| {
        b.iter(|| black_box(in_memory.process_window(&sets).fleet_total()))
    });
}

fn bench_wire_stages(c: &mut Criterion) {
    let sets = synthetic_window();
    let buf = encode_window(FrameKind::Varint, &sets);
    let planar_buf = encode_window(FrameKind::Planar, &sets);
    let d = tdp_simd::Dispatch::active();

    c.bench_function("wire/stage_checksum_256", |b| {
        b.iter(|| {
            let mut cursor = FrameCursor::new(&buf);
            let mut acc = 0u64;
            while let Some(item) = cursor.next() {
                if let CursorItem::Frame { start, header } = item {
                    acc ^= header.expected_checksum(cursor.payload(start, &header));
                }
            }
            black_box(acc)
        })
    });

    let mut scratch: Vec<u64> = Vec::new();
    c.bench_function("wire/stage_varint_256", |b| {
        b.iter(|| {
            let mut cursor = FrameCursor::new(&buf);
            while let Some(item) = cursor.next() {
                if let CursorItem::Frame { start, header } = item {
                    if header.frame_type != FrameType::Sample {
                        continue;
                    }
                    let payload = cursor.payload(start, &header);
                    let n = header.cpu_count as usize * header.n_events as usize;
                    scratch.resize(n, 0);
                    let mut pos = 0usize;
                    read_uvarints(d, payload, &mut pos, &mut scratch).expect("clean varints");
                    black_box(&scratch);
                }
            }
        })
    });

    // Planar counterpart of the varint stage: the fused single-pass
    // decode — unzigzag + unfold + widen straight to f64 lanes, with
    // the checksum absorbed while the payload bytes are cache-hot.
    let mut lanes: Vec<f64> = Vec::new();
    c.bench_function("wire/planar_stage_payload_256", |b| {
        b.iter(|| {
            let mut cursor = FrameCursor::new(&planar_buf);
            while let Some(item) = cursor.next() {
                if let CursorItem::Frame { start, header } = item {
                    if header.frame_type != FrameType::PlanarSample {
                        continue;
                    }
                    let payload = cursor.payload(start, &header);
                    let mut ck = PayloadChecksum::new(&header);
                    decode_planes(
                        payload,
                        header.n_events as usize,
                        header.cpu_count as usize,
                        &mut lanes,
                        &mut ck,
                    )
                    .expect("clean planar payload");
                    black_box(&lanes);
                }
            }
        })
    });

    let mut batch = SampleBatch::with_capacity(MACHINES);
    c.bench_function("wire/stage_extraction_256", |b| {
        b.iter(|| {
            batch.clear();
            for set in &sets {
                batch.push_sample_set(set);
            }
            black_box(batch.len())
        })
    });

    // The fused fold stages: decoded f64 event lanes → one fleet row
    // (`fold_event_lanes` — what the decode-to-column fusion runs per
    // machine after the payload walk), and the whole-fleet fold into
    // batch columns. Lanes staged once outside the timed loop, exactly
    // as the decoder's lane buffer would hold them.
    let cpus = sets[0].per_cpu.len();
    let n_ev = ROW_EVENTS.len();
    let lane_stride = n_ev * cpus;
    let mut fold_lanes = vec![0.0f64; MACHINES * lane_stride];
    for (m, set) in sets.iter().enumerate() {
        for (c, cpu) in set.per_cpu.iter().enumerate() {
            for (e, &(_, count)) in cpu.counts().iter().enumerate() {
                fold_lanes[m * lane_stride + e * cpus + c] = count as f64;
            }
        }
    }
    let identity_pos: [u16; 9] = std::array::from_fn(|k| k as u16);
    c.bench_function("wire/planar_fold_row_256", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for m in 0..MACHINES {
                let row = fold_event_lanes(
                    d,
                    &fold_lanes[m * lane_stride..(m + 1) * lane_stride],
                    cpus,
                    &identity_pos,
                    true,
                );
                acc += row[1];
            }
            black_box(acc)
        })
    });

    let mut fold_batch = SampleBatch::with_capacity(MACHINES);
    c.bench_function("wire/planar_fold_columns_256", |b| {
        b.iter(|| {
            fold_batch.clear();
            for m in 0..MACHINES {
                fold_batch.push_row(fold_event_lanes(
                    d,
                    &fold_lanes[m * lane_stride..(m + 1) * lane_stride],
                    cpus,
                    &identity_pos,
                    true,
                ));
            }
            black_box(fold_batch.len())
        })
    });

    let policy = DegradePolicy::default();
    let mut mask: Vec<u8> = Vec::new();
    c.bench_function("wire/stage_health_256", |b| {
        b.iter(|| {
            policy.sane_mask_batch(d, batch.columns(), &mut mask);
            black_box(mask.iter().map(|&m| m as u64).sum::<u64>())
        })
    });
}

criterion_group!(benches, bench_wire_window, bench_wire_stages);
criterion_main!(benches);

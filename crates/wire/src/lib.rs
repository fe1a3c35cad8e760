//! **tdp-wire** — zero-copy telemetry wire codec and fused ingest
//! for fleet power estimation.
//!
//! A fleet controller doesn't read PMUs itself: machines ship their
//! counter windows over the network, and the estimator's real input is
//! a byte stream. This crate defines that stream and makes decoding it
//! cost about as much as reading local memory:
//!
//! * [`frame`] — the format: a framing prefix, a mix-based 64-bit
//!   checksum that provably catches every single-bit corruption, and a
//!   body of varint fields and one payload (a 4-CPU fleet machine's
//!   sample frame spends ≈ 17 bytes on all but the payload). Each
//!   machine's static layout — events, CPU count, decimation — travels
//!   in its layout frame under a small per-machine epoch; a sample
//!   payload is the column-[`planar`] planes of cross-CPU zigzag
//!   deltas, each stored dense at a fixed width, sparse behind a
//!   bitmap, or not at all when every delta is zero (fleet siblings
//!   count nearly alike, so most are).
//! * [`WireEncoder`] — the producer side: self-describing streams that
//!   interleave a layout frame whenever a machine's PMU programming,
//!   CPU count or sampling decimation changes, shipping only the planes
//!   of the events the fleet row reads ([`row_slots`]).
//! * [`FrameDecoder`] — the zero-copy consumer: verify, then decode.
//!   [`decode_frame`](FrameDecoder::decode_frame) checks a frame's
//!   checksum before it reads anything else, then reduces a sample
//!   frame in place straight to a [`SampleBatch`] row through the same
//!   rate arithmetic in-memory ingestion uses ([`fold_event_lanes`]),
//!   resolving each machine's layout through a dense per-machine
//!   binding checked against the frame's epoch. No intermediate sample
//!   structs, no steady-state allocation.
//! * [`ingest_serial_with`] — the ingest path: one serial walk that
//!   decodes every frame through `decode_frame`, judges each row
//!   against the sanity bounds and writes only sane rows into the
//!   batch columns, where each machine's last good row persists across
//!   windows, then runs the hold / staleness pass over silent
//!   machines.
//! * [`health`](PipelineHealth) — graceful degradation under a hostile
//!   stream: per-machine [`HealthState`] ledgers, sequence
//!   reset/duplicate detection, quarantine of rows outside fixed
//!   physical bounds ([`row_is_sane`]), last-good-row holds for at most
//!   [`MAX_STALE_WINDOWS`] owed windows, and a per-window counter block
//!   in which every fault is accounted.
//! * [`faults`] — a seeded, deterministic fault injector
//!   ([`FaultPlan`]) that damages encoded windows in replayable ways,
//!   for the chaos tests and perfbench's `fleet-chaos` workload.
//!
//! [`SampleBatch`]: tdp_fleet::SampleBatch
//! [`fold_event_lanes`]: tdp_fleet::fold_event_lanes
//! [`row_slots`]: tdp_fleet::row_slots
//!
//! # Quickstart
//!
//! ```
//! use tdp_fleet::FleetEstimator;
//! use tdp_simsys::{Machine, MachineConfig};
//! use tdp_wire::{ingest_serial, WireEncoder};
//! use trickledown::SystemPowerModel;
//!
//! // Three machines encode their windows onto one wire.
//! let mut enc = WireEncoder::new();
//! for id in 0..3u64 {
//!     let mut m = Machine::new(MachineConfig::default());
//!     for _ in 0..500 {
//!         m.tick();
//!     }
//!     enc.push_sample_set(id, m.read_counters()).unwrap();
//! }
//! let wire = enc.finish();
//!
//! // The controller decodes the bytes straight into fleet estimates.
//! let mut est = FleetEstimator::with_capacity(SystemPowerModel::paper(), 3);
//! let report = ingest_serial(&wire, 3, &mut est);
//! assert_eq!(report.rows_written, 3);
//! assert_eq!(report.corrupt_frames, 0);
//! assert_eq!(est.estimate().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod varint;

mod decode;
mod encode;
pub mod faults;
mod health;
pub mod planar;
mod stream;

pub use decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder};
pub use encode::{encode_layout_frame, encode_sample_frame, EncodeError, WireEncoder};
pub use faults::{FaultKind, FaultPlan, FaultedWindow, InjectedFault};
pub use health::{row_is_sane, HealthState, PipelineHealth, MAX_STALE_WINDOWS};
pub use stream::{ingest_serial, ingest_serial_with, IngestState, StreamReport};

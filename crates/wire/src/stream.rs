//! Wire ingest: one window of frames → fleet sample rows, through the
//! graceful-degradation ladder.
//!
//! [`ingest_serial_with`] is the ingest path: one serial pass that
//! hands every frame to [`FrameDecoder::decode_frame`] — verify, then
//! decode — judges each decoded row with [`row_is_sane`] and writes
//! only sane rows into the estimator's batch columns.
//!
//! # Persisted rows
//!
//! The batch is not cleared between windows: a machine's batch row
//! *is* its last good row. So a machine silent within its decimation
//! (reconstructed) or past it but within the staleness bound (held)
//! costs no copy, a quarantined row never reaches the batch, and a
//! machine that goes stale has its row zeroed once, when it crosses
//! the bound. Only the first window of an [`IngestState`] clears the
//! batch; every window sizes it to the window's machine count, so a
//! machine cut off by a smaller fleet loses its row and its health
//! history and comes back unseen — though still bound to its layout
//! and decimation, so its next sample frame decodes and its silent
//! windows after it are reconstructed as before.
//!
//! # Determinism
//!
//! A machine's row comes from [`FrameDecoder`]'s arithmetic (itself
//! bit-identical to in-memory ingestion) over the last acceptable frame
//! for that machine in stream order, and rows land at fixed indices, so
//! ingest is a deterministic function of the bytes, the carried
//! [`IngestState`] and the batch rows it left behind.

use crate::decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder};
use crate::frame::FrameType;
use crate::health::{row_is_sane, HealthLedger, HealthState, Hold, PipelineHealth, SeqNote};
use tdp_fleet::{FleetEstimator, COLUMNS};

/// What happened during one ingested window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Sample frames whose decode was attempted.
    pub sample_frames: u64,
    /// Layout frames accepted.
    pub layout_frames: u64,
    /// Rows written into the batch.
    pub rows_written: u64,
    /// Frames rejected: checksum mismatch or malformed structure.
    pub corrupt_frames: u64,
    /// Framing failures (bad magic/version/type or overrunning length)
    /// that forced a scan for the next frame boundary.
    pub resyncs: u64,
    /// Bytes discarded while resynchronising.
    pub resync_bytes: u64,
    /// Sample frames naming a layout never declared on the stream.
    pub unknown_layout_frames: u64,
    /// Decoded rows for machines beyond the window's machine count.
    pub out_of_range_frames: u64,
    /// Window-sequence regressions: a machine's frame carried a lower
    /// sequence than its last accepted one (reboot / counter reset).
    /// The row is accepted and the machine re-baselined as
    /// [`HealthState::Suspect`].
    pub resets_detected: u64,
    /// Frames re-delivering a machine's already-accepted window
    /// sequence; the redundant row is skipped.
    pub duplicate_windows: u64,
    /// Decoded rows withheld because they failed the [`row_is_sane`]
    /// bounds.
    pub rows_quarantined: u64,
    /// Rows emitted from a machine's last good window because this
    /// window brought no acceptable fresh row.
    pub rows_held: u64,
    /// Rows reconstructed for machines silent *by protocol* — within
    /// their negotiated sampling decimation (see
    /// [`WireEncoder::set_decimation`](crate::WireEncoder::set_decimation)).
    /// Expected in the steady state of a decimated stream, so not part
    /// of [`PipelineHealth`].
    pub rows_reconstructed: u64,
    /// Machines declared [`HealthState::Stale`] this window after
    /// exceeding [`MAX_STALE_WINDOWS`](crate::MAX_STALE_WINDOWS)
    /// (counted once per outage, not once per silent window).
    pub machines_stale: u64,
}

impl StreamReport {
    /// Adds `o`'s counters into `self` — for aggregating per-window
    /// reports over a run.
    pub fn absorb(&mut self, o: &StreamReport) {
        self.sample_frames += o.sample_frames;
        self.layout_frames += o.layout_frames;
        self.rows_written += o.rows_written;
        self.corrupt_frames += o.corrupt_frames;
        self.resyncs += o.resyncs;
        self.resync_bytes += o.resync_bytes;
        self.unknown_layout_frames += o.unknown_layout_frames;
        self.out_of_range_frames += o.out_of_range_frames;
        self.resets_detected += o.resets_detected;
        self.duplicate_windows += o.duplicate_windows;
        self.rows_quarantined += o.rows_quarantined;
        self.rows_held += o.rows_held;
        self.rows_reconstructed += o.rows_reconstructed;
        self.machines_stale += o.machines_stale;
    }

    /// Condenses the window's counters to its [`PipelineHealth`] block.
    pub fn health(&self) -> PipelineHealth {
        PipelineHealth {
            corrupt_frames: self.corrupt_frames,
            resyncs: self.resyncs,
            unknown_layout_frames: self.unknown_layout_frames,
            out_of_range_frames: self.out_of_range_frames,
            resets_detected: self.resets_detected,
            duplicate_windows: self.duplicate_windows,
            rows_quarantined: self.rows_quarantined,
            rows_held: self.rows_held,
            machines_stale: self.machines_stale,
        }
    }
}

/// Ingest state that survives across windows: the [`FrameDecoder`] —
/// so a steady-state stream (layouts announced once, then sample
/// frames only — see [`WireEncoder`](crate::WireEncoder)) binds each
/// machine's layout exactly once — plus per-machine health
/// ([`HealthState`]) driving the graceful-degradation ladder: duplicate
/// and reset detection on window sequences, quarantine of rows that
/// fail the [`row_is_sane`] bounds, bounded last-good-row
/// holds for silent machines, and staleness cut-off.
///
/// The health ledger is dense, indexed by machine id and sized to each
/// window's machine count, so the hot-path lookup is one
/// bounds-checked index. The decoder's layout bindings are dense too,
/// but grow to the largest machine count seen and never shrink: a
/// machine cut off by a smaller fleet loses its health history, not
/// its layout or decimation, and decodes again without a
/// re-announcement. A machine
/// never decoded is exactly one whose ledger `seen` flag is unset
/// (every write path notes the sequence first).
///
/// The state holds no rows: the estimator's batch does, one last good
/// row per machine. The state's first window clears the batch; later
/// windows only resize it, so pass the same [`FleetEstimator`] every
/// window and do not write its batch in between.
#[derive(Debug, Default)]
pub struct IngestState {
    dec: FrameDecoder,
    ledger: HealthLedger,
    epoch: u64,
}

impl IngestState {
    /// State with no layouts bound and no machine seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last known [`HealthState`] of `machine`, or `None` if no
    /// row has been decoded for it since it last joined the fleet.
    pub fn machine_health(&self, machine: u64) -> Option<HealthState> {
        let idx = machine as usize;
        self.ledger.seen(idx).then(|| self.ledger.state(idx))
    }

    /// Opens the next window: sizes the ledger and `est`'s batch to
    /// exactly `machines` (clearing the batch first for a fresh state),
    /// grows the decoder's layout bindings to cover them, and returns
    /// the new epoch.
    fn begin(&mut self, machines: usize, est: &mut FleetEstimator) -> u64 {
        if self.epoch == 0 {
            est.begin_window();
        }
        est.batch_mut().resize_rows(machines);
        self.ledger.resize(machines);
        self.dec.grow_machines(machines);
        self.epoch += 1;
        self.epoch
    }
}

/// Serial fused ingest: decode frames and write rows straight into the
/// estimator's batch — no intermediate rows, no allocation in the
/// steady state. Uses a fresh decoder, so `buf` must be
/// self-describing; use [`ingest_serial_with`] to carry layouts across
/// windows.
pub fn ingest_serial(buf: &[u8], machines: usize, est: &mut FleetEstimator) -> StreamReport {
    ingest_serial_with(&mut IngestState::new(), buf, machines, est)
}

/// [`ingest_serial`] with persistent decoder state: layouts bound by
/// earlier windows (or earlier in this one) stay known, so
/// steady-state windows can carry sample frames only.
///
/// This is the one walk over a window's frames: each frame goes
/// through [`FrameDecoder::decode_frame`], which verifies its checksum,
/// then delta-unfolds a sample frame in place and folds it to a row. A
/// duplicate window is skipped and a sequence regression re-baselines
/// the machine; the row is judged by [`row_is_sane`] and, if sane,
/// written straight into its batch slot and committed to the health
/// ledger. The hold / staleness pass over silent machines then runs
/// every window. Call [`FleetEstimator::estimate`] afterwards.
pub fn ingest_serial_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    let epoch = state.begin(machines, est);
    let IngestState { dec, ledger, .. } = state;
    let mut cols = est.batch_mut().columns_mut();

    let mut stats = StreamReport::default();
    let mut cursor = FrameCursor::new(buf);
    while let Some(item) = cursor.next() {
        let (start, header) = match item {
            CursorItem::Resync { skipped } => {
                stats.resyncs += 1;
                stats.resync_bytes += skipped as u64;
                continue;
            }
            CursorItem::Frame { start, header } => (start, header),
        };
        if header.frame_type != FrameType::Layout {
            stats.sample_frames += 1;
        }
        match dec.decode_frame(&header, cursor.body(start, &header)) {
            Ok(Decoded::Layout { .. }) => stats.layout_frames += 1,
            Ok(Decoded::Row {
                machine_id,
                window_seq,
                row,
            }) => {
                let idx = machine_id as usize;
                if idx >= machines {
                    stats.out_of_range_frames += 1;
                    continue;
                }
                let reset = match ledger.note_seq(idx, window_seq) {
                    SeqNote::Duplicate => {
                        // Same window delivered again (duplicated frame
                        // or replayed chunk): the first delivery
                        // already decided this window.
                        stats.duplicate_windows += 1;
                        continue;
                    }
                    SeqNote::Reset => {
                        // The producer's sequence went backwards: reboot
                        // or counter reset. Counters are read-and-clear,
                        // so the row is still a valid per-window delta —
                        // accept it, re-baseline, and flag the machine.
                        stats.resets_detected += 1;
                        true
                    }
                    SeqNote::Fresh => false,
                };
                if !row_is_sane(&row) {
                    // The bytes arrived as sent (checksummed) but
                    // describe an impossible machine: never let it
                    // touch the estimator.
                    stats.rows_quarantined += 1;
                    ledger.quarantine(idx);
                    continue;
                }
                for (c, v) in cols.iter_mut().zip(row) {
                    c[idx] = v;
                }
                stats.rows_written += 1;
                ledger.commit(idx, epoch, reset);
            }
            Err(DecodeError::UnknownLayout) => stats.unknown_layout_frames += 1,
            Err(DecodeError::OutOfRange) => stats.out_of_range_frames += 1,
            Err(_) => stats.corrupt_frames += 1,
        }
    }
    hold_pass(ledger, dec, epoch, machines, &mut stats, &mut cols);
    stats
}

/// After the frame walk: every seen machine that contributed nothing
/// this window is either carried at its last good row — already in its
/// batch slot — for up to [`MAX_STALE_WINDOWS`](crate::MAX_STALE_WINDOWS)
/// windows past the decimation its decoder binding holds, or declared
/// stale, which zeroes its row once.
fn hold_pass(
    ledger: &mut HealthLedger,
    dec: &FrameDecoder,
    epoch: u64,
    machines: usize,
    stats: &mut StreamReport,
    cols: &mut [&mut [f64]; COLUMNS],
) {
    for idx in 0..machines {
        if !ledger.seen(idx) || ledger.committed_in(idx, epoch) {
            continue;
        }
        match ledger.hold(idx, epoch, dec.decimation(idx)) {
            Hold::Reconstructed => {
                stats.rows_reconstructed += 1;
                stats.rows_written += 1;
            }
            Hold::Held => {
                stats.rows_held += 1;
                stats.rows_written += 1;
            }
            Hold::NewlyStale => {
                stats.machines_stale += 1;
                for c in cols.iter_mut() {
                    c[idx] = 0.0;
                }
            }
            Hold::AlreadyStale => {}
        }
    }
}

//! Wire ingest: one window of frames → fleet sample rows, through the
//! graceful-degradation ladder.
//!
//! [`ingest_serial_with`] is the ingest path: one serial pass that
//! decodes accepted frames straight into the estimator's batch columns
//! and runs the health ladder batched (one sanity mask per window, a
//! bulk ledger commit when the window is clean).
//!
//! # Per-row reference
//!
//! [`ingest_reference_with`] runs the same ladder one row at a time:
//! every frame is decoded to a row array by [`FrameDecoder::decode_frame`],
//! screened with [`DegradePolicy::row_is_sane`], committed to the
//! ledger, and written with [`SampleBatch::set_row`](tdp_fleet::SampleBatch::set_row).
//! It shares no batching with the hot path — no staged columns, no
//! batched mask, no bulk commit — so it is the independent oracle the
//! batched ladder is pinned against: same health counters, same rows
//! written, same estimate bits, same per-machine [`HealthState`]s, on
//! clean and seeded-[`FaultPlan`](crate::FaultPlan) streams alike.
//!
//! # Determinism
//!
//! A machine's row comes from [`FrameDecoder`]'s arithmetic (itself
//! bit-identical to in-memory ingestion) over the last acceptable frame
//! for that machine in stream order, and rows land at fixed indices, so
//! both paths are deterministic functions of the bytes and the carried
//! [`IngestState`].

use crate::decode::{CursorItem, DecodeError, Decoded, FrameCursor, FrameDecoder};
use crate::frame::FrameType;
use crate::health::{DegradePolicy, HealthLedger, HealthState, Hold, SeqNote};
use tdp_fleet::{FleetEstimator, COLUMNS};
use tdp_simd::Dispatch;

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
    /// Decoded rows withheld because they failed the
    /// [`DegradePolicy`] sanity bounds.
    pub rows_quarantined: u64,
    /// Rows emitted from a machine's last good window because this
    /// window brought no acceptable fresh row.
    pub rows_held: u64,
    /// Rows reconstructed for machines silent *by protocol* — within
    /// their negotiated sampling decimation (see
    /// [`WireEncoder::set_decimation`](crate::WireEncoder::set_decimation)).
    /// Expected in the steady state of a decimated stream, so not part
    /// of [`PipelineHealth`](crate::PipelineHealth).
    pub rows_reconstructed: u64,
    /// Machines declared [`HealthState::Stale`] this window after
    /// exceeding [`DegradePolicy::max_stale_windows`] (counted once
    /// per outage, not once per silent window).
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

    /// The window's [`PipelineHealth`](crate::PipelineHealth) block —
    /// shorthand for [`PipelineHealth::from_report`](crate::PipelineHealth::from_report).
    pub fn health(&self) -> crate::PipelineHealth {
        crate::PipelineHealth::from_report(self)
    }
}

/// Ingest state that survives across windows: the [`FrameDecoder`] —
/// so a steady-state stream (layouts announced once, then sample
/// frames only — see [`WireEncoder`](crate::WireEncoder)) pays for
/// layout registration exactly once — plus per-machine health
/// ([`HealthState`]) driving the graceful-degradation ladder: duplicate
/// and reset detection on window sequences, quarantine of rows that
/// fail the [`DegradePolicy`] sanity bounds, bounded last-good-row
/// holds for silent machines, and staleness cut-off.
///
/// The health ledger is dense, indexed by machine id — ids are
/// `< machines` by the time the ladder runs, so the hot-path lookup is
/// one bounds-checked index. A machine never decoded is exactly one
/// whose ledger `seen` flag is unset (every write path notes the
/// sequence first).
///
/// The remaining vectors are [`ingest_serial_with`]'s per-window
/// scratch, retained across windows so the steady state allocates
/// nothing: which machines staged a fresh row into the batch columns
/// this epoch, each staged row's reset flag, and the batched sanity
/// mask. [`ingest_reference_with`] leaves them untouched.
#[derive(Debug, Default)]
pub struct IngestState {
    dec: FrameDecoder,
    ledger: HealthLedger,
    policy: DegradePolicy,
    epoch: u64,
    pending: Vec<u32>,
    staged_epoch: Vec<u64>,
    staged_reset: Vec<bool>,
    sane_mask: Vec<u8>,
}

impl IngestState {
    /// State with no layouts registered and the default
    /// [`DegradePolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// State enforcing a caller-chosen [`DegradePolicy`].
    pub fn with_policy(policy: DegradePolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The degradation policy this state enforces.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// How many windows this state has ingested.
    pub fn windows_ingested(&self) -> u64 {
        self.epoch
    }

    /// The last known [`HealthState`] of `machine`, or `None` if no
    /// row has ever been decoded for it.
    pub fn machine_health(&self, machine: u64) -> Option<HealthState> {
        let idx = machine as usize;
        self.ledger.seen(idx).then(|| self.ledger.state(idx))
    }

    /// Opens the next ingest window for `machines` machines: bumps the
    /// epoch and sizes the ledger. Returns the new epoch.
    fn begin(&mut self, machines: usize) -> u64 {
        self.epoch += 1;
        self.ledger.ensure(machines);
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

/// [`ingest_serial`] with persistent decoder state: layouts registered
/// by earlier windows (or earlier in this one) stay known, so
/// steady-state windows can carry sample frames only.
///
/// This is the fused hot path, and it is *batched*: the cursor walk
/// delta-unfolds each accepted frame straight into the batch columns
/// (no intermediate row copy — checksum verification already overlaps
/// the payload walk inside the decoder), sequence bookkeeping runs per
/// frame, and the sanity screen runs once at the end as thirteen
/// AND-accumulating column passes — [`DegradePolicy`]'s batched mask,
/// bit-identical to the per-row ladder of [`ingest_reference_with`]. A
/// perfectly clean window — every machine exactly one fresh sane row,
/// no resets — commits the whole health ledger with column memcpys;
/// any degradation falls back to per-machine resolution with identical
/// transitions and counters (pinned batched-vs-reference by the chaos
/// property suite).
pub fn ingest_serial_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    let epoch = state.begin(machines);
    let policy = state.policy;
    let IngestState {
        dec,
        ledger,
        pending,
        staged_epoch,
        staged_reset,
        sane_mask,
        ..
    } = state;
    if staged_epoch.len() < machines {
        // Stale epochs from earlier (possibly smaller) windows are
        // harmless: the epoch strictly increases, so they never match.
        staged_epoch.resize(machines, 0);
        staged_reset.resize(machines, false);
    }
    pending.clear();

    est.begin_window();
    let batch = est.batch_mut();
    batch.resize_rows(machines);
    let mut cols = batch.columns_mut();

    let mut stats = StreamReport::default();
    let mut resolved_early = false;
    let mut any_reset = false;

    // Phase 1: one pass over the frames, unfolding accepted samples
    // straight into the batch columns and deferring their sanity
    // verdicts to the batched screen below.
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
        match header.frame_type {
            FrameType::Layout => match dec.decode_frame(&header, cursor.payload(start, &header)) {
                Ok(d) => {
                    stats.layout_frames += 1;
                    if let Decoded::Layout { decimation } = d {
                        let idx = header.machine_id as usize;
                        if idx < machines {
                            ledger.set_decimation(idx, decimation);
                        }
                    }
                }
                Err(_) => stats.corrupt_frames += 1,
            },
            FrameType::Sample => {
                stats.sample_frames += 1;
                let pend = match dec.decode_sample_pending(&header, cursor.payload(start, &header))
                {
                    Ok(p) => p,
                    Err(DecodeError::UnknownLayout) => {
                        stats.unknown_layout_frames += 1;
                        continue;
                    }
                    Err(_) => {
                        stats.corrupt_frames += 1;
                        continue;
                    }
                };
                let idx = pend.machine_id as usize;
                if idx >= machines {
                    stats.out_of_range_frames += 1;
                    continue;
                }
                let reset = match ledger.note_seq(idx, pend.window_seq) {
                    SeqNote::Duplicate => {
                        stats.duplicate_windows += 1;
                        continue;
                    }
                    SeqNote::Reset => {
                        stats.resets_detected += 1;
                        any_reset = true;
                        true
                    }
                    SeqNote::Fresh => false,
                };
                if staged_epoch[idx] == epoch {
                    // A second fresh frame for an already-staged
                    // machine: resolve the staged row now, per row —
                    // exactly what the per-row ladder does on its
                    // delivery — before the new frame overwrites its
                    // column slot.
                    resolved_early = true;
                    let mut row = [0.0; COLUMNS];
                    for (v, c) in row.iter_mut().zip(cols.iter()) {
                        *v = c[idx];
                    }
                    if policy.row_is_sane(&row) {
                        ledger.commit_row(idx, epoch, &row, staged_reset[idx]);
                        stats.rows_written += 1;
                    } else {
                        stats.rows_quarantined += 1;
                        ledger.quarantine(idx);
                    }
                } else {
                    staged_epoch[idx] = epoch;
                    pending.push(idx as u32);
                }
                staged_reset[idx] = reset;
                dec.fold_into(&pend, &mut cols, idx);
            }
        }
    }

    // Phase 2: the batched sanity screen over the full columns.
    policy.sane_mask(Dispatch::active(), &cols, sane_mask);

    // Phase 3: resolve the staged rows. A clean window commits the
    // whole ledger in bulk; anything else resolves machine by machine.
    let clean = !resolved_early
        && !any_reset
        && pending.len() == machines
        && sane_mask.iter().all(|&m| m != 0);
    if clean {
        ledger.commit_all(epoch, &cols, machines);
        stats.rows_written += machines as u64;
    } else {
        for &idx in pending.iter() {
            let idx = idx as usize;
            if sane_mask[idx] != 0 {
                ledger.commit_from_cols(idx, epoch, &cols, staged_reset[idx]);
                stats.rows_written += 1;
            } else {
                stats.rows_quarantined += 1;
                ledger.quarantine(idx);
                if ledger.emitted_this(idx, epoch) {
                    // The quarantined frame overwrote a row this window
                    // already emitted (a resolve-early above) — put the
                    // last good row back.
                    ledger.restore_into(idx, &mut cols);
                } else {
                    // Never emitted this window: the slot must read as
                    // the zeros `resize_rows` left (the per-row ladder
                    // never wrote it), pending a possible hold below.
                    for c in cols.iter_mut() {
                        c[idx] = 0.0;
                    }
                }
            }
        }
        // Phase 4: hold / staleness for machines that contributed
        // nothing this window (a clean window has none).
        hold_pass(ledger, epoch, &policy, machines, &mut stats, |idx, row| {
            for (c, v) in cols.iter_mut().zip(row) {
                c[idx] = v;
            }
        });
    }
    stats
}

/// The unbatched health ladder, one row at a time — the reference
/// [`ingest_serial_with`] is pinned against. Each sample frame is
/// decoded to a row array, screened through duplicate skip, reset
/// re-baseline and [`DegradePolicy::row_is_sane`] quarantine, committed
/// to the ledger and written with `SampleBatch::set_row`; silent
/// machines then take the hold / staleness pass. It shares no batching
/// with the hot path (no staged columns, no batched mask, no bulk
/// commit), so on any stream the two must agree on the whole
/// [`StreamReport`], the batch bits and every machine's
/// [`HealthState`]. Call [`FleetEstimator::estimate`] afterwards.
///
/// Give it its own [`IngestState`]: the ledger and decoder it carries
/// are the reference's history, not the hot path's.
pub fn ingest_reference_with(
    state: &mut IngestState,
    buf: &[u8],
    machines: usize,
    est: &mut FleetEstimator,
) -> StreamReport {
    let epoch = state.begin(machines);
    let policy = state.policy;
    let IngestState { dec, ledger, .. } = state;
    est.begin_window();
    let batch = est.batch_mut();
    batch.resize_rows(machines);

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
        match dec.decode_frame(&header, cursor.payload(start, &header)) {
            Ok(Decoded::Layout { decimation }) => {
                stats.layout_frames += 1;
                let idx = header.machine_id as usize;
                if idx < machines {
                    ledger.set_decimation(idx, decimation);
                }
            }
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
                if !policy.row_is_sane(&row) {
                    // The bytes arrived as sent (checksummed) but
                    // describe an impossible machine: never let it
                    // touch the estimator.
                    stats.rows_quarantined += 1;
                    ledger.quarantine(idx);
                    continue;
                }
                batch.set_row(idx, row);
                stats.rows_written += 1;
                ledger.commit_row(idx, epoch, &row, reset);
            }
            Err(DecodeError::UnknownLayout) => stats.unknown_layout_frames += 1,
            Err(_) => stats.corrupt_frames += 1,
        }
    }
    hold_pass(ledger, epoch, &policy, machines, &mut stats, |idx, row| {
        batch.set_row(idx, row)
    });
    stats
}

/// After the frame walk: every seen machine that contributed nothing
/// this window is either carried at its last good row (`write`, bounded
/// by [`DegradePolicy::max_stale_windows`]) or declared stale.
fn hold_pass(
    ledger: &mut HealthLedger,
    epoch: u64,
    policy: &DegradePolicy,
    machines: usize,
    stats: &mut StreamReport,
    mut write: impl FnMut(usize, [f64; COLUMNS]),
) {
    for idx in 0..machines {
        if !ledger.seen(idx) || ledger.emitted_this(idx, epoch) {
            continue;
        }
        match ledger.hold(idx, epoch, policy.max_stale_windows) {
            Hold::Reconstructed(row) => {
                write(idx, row);
                stats.rows_reconstructed += 1;
                stats.rows_written += 1;
            }
            Hold::Held(row) => {
                write(idx, row);
                stats.rows_held += 1;
                stats.rows_written += 1;
            }
            Hold::NewlyStale => stats.machines_stale += 1,
            Hold::AlreadyStale => {}
        }
    }
}

//! Graceful degradation policy for streaming ingest.
//!
//! A fleet stream is a hostile input: frames arrive bit-flipped,
//! truncated, duplicated, reordered, or not at all, and a rebooted
//! machine restarts its window sequence from zero. The codec layer
//! already *detects* most of this (checksums, resync scanning); this
//! module decides what the pipeline does about it, so that damage to
//! one machine's telemetry never contaminates another's estimate:
//!
//! * every machine carries a [`HealthState`] that ingest updates from
//!   observed evidence (sequence regressions, insane rates, silence);
//! * rows whose rates fail the [`DegradePolicy`] sanity bounds are
//!   **quarantined** — counted, never fed to the estimator;
//! * a machine that goes silent is **held** at its last good row for a
//!   bounded number of windows ([`DegradePolicy::max_stale_windows`]),
//!   then declared stale and dropped from the window entirely;
//! * model-level protection (prediction clamping to the calibrated
//!   validity range — see [`trickledown::clamp_watts`]) catches what
//!   row-level sanity bounds cannot: rates that are individually
//!   plausible but outside what the quadratics were fitted on, the
//!   paper's own Equation-2 "fails under extreme cases" caveat
//!   (§4.2.2).
//!
//! The counters all of this produces are summarised by
//! [`PipelineHealth`].

use crate::stream::StreamReport;
use tdp_fleet::{col, COLUMNS};
use tdp_simd::{mask_in_range, mask_nonneg_le_scaled, Dispatch};

/// Where a machine stands in the degradation ladder.
///
/// Transitions (applied by streaming ingest, per machine, per window):
///
/// ```text
/// Healthy ──insane row──────────► Quarantined
/// Healthy ──seq regression──────► Suspect
/// Healthy ──no frame, held──────► Suspect
/// Suspect/Quarantined ──good row► Healthy
/// any ──held past staleness─────► Stale
/// Stale ──good row──────────────► Healthy
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Last observed window decoded cleanly and passed sanity bounds.
    #[default]
    Healthy,
    /// Evidence of trouble that didn't invalidate data: a window
    /// sequence regression (counter reset / reboot), or the machine's
    /// row was held from a previous window.
    Suspect,
    /// The machine's latest decoded row failed the sanity bounds and
    /// was withheld from the estimator.
    Quarantined,
    /// No acceptable row for longer than the staleness bound; the
    /// machine no longer contributes to fleet estimates.
    Stale,
}

/// Sanity bounds and hold limits for streaming ingest.
///
/// The rate caps are *physical plausibility* screens, deliberately far
/// above anything a real machine sustains (compare: the simulated
/// fleet peaks around 3 misses/kilocycle, 9 000 bus tx/megacycle,
/// 0.03 DMA/cycle, and interrupt rates near 1e-8/cycle) but far below
/// the garbage a misattributed or malicious payload produces. Rows are
/// machine-aggregated sums over CPUs, so every per-CPU cap is scaled
/// by the row's CPU count before comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Max fetched uops per cycle, per CPU (architectural width is
    /// single digits).
    pub max_upc: f64,
    /// Max L3 load misses per **kilo**cycle, per CPU.
    pub max_l3_per_kilocycle: f64,
    /// Max bus transactions per **mega**cycle, per CPU.
    pub max_bus_per_megacycle: f64,
    /// Max DMA accesses per cycle, per CPU.
    pub max_dma_per_cycle: f64,
    /// Max interrupts per cycle, per CPU (covers disk and device
    /// interrupt rates; even a 1 kHz tick at 10 MHz is 1e-4).
    pub max_interrupts_per_cycle: f64,
    /// Max CPUs one machine may claim.
    pub max_cpus: f64,
    /// How many consecutive windows a silent machine is carried at its
    /// last good row before being declared [`HealthState::Stale`].
    pub max_stale_windows: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            max_upc: 16.0,
            max_l3_per_kilocycle: 50.0,
            max_bus_per_megacycle: 1e5,
            max_dma_per_cycle: 0.2,
            max_interrupts_per_cycle: 1e-3,
            max_cpus: 1024.0,
            max_stale_windows: 4,
        }
    }
}

impl DegradePolicy {
    /// Whether a decoded sample row is physically plausible under this
    /// policy. A `false` verdict quarantines the row: it checksummed
    /// (the bytes arrived as sent) but describes a machine that cannot
    /// exist, so the *producer* is lying or broken, not the wire.
    pub fn row_is_sane(&self, row: &[f64; COLUMNS]) -> bool {
        if !row.iter().all(|v| v.is_finite() && *v >= 0.0) {
            return false;
        }
        let n = row[col::NUM_CPUS];
        if !(1.0..=self.max_cpus).contains(&n) {
            return false;
        }
        // Aggregates are per-CPU sums, each term individually capped,
        // so the sums are bounded by n·cap and the squared-rate sums
        // by n·cap².
        let within = |sum: f64, sq: f64, cap: f64| sum <= cap * n && sq <= cap * cap * n;
        row[col::ACTIVE] <= n
            && within(row[col::UPC], 0.0, self.max_upc)
            && within(row[col::L3], row[col::L3_SQ], self.max_l3_per_kilocycle)
            && within(row[col::BUS], row[col::BUS_SQ], self.max_bus_per_megacycle)
            && within(row[col::DMA], row[col::DMA_SQ], self.max_dma_per_cycle)
            && within(
                row[col::DISK_INT],
                row[col::DISK_INT_SQ],
                self.max_interrupts_per_cycle,
            )
            && within(
                row[col::DEV_INT],
                row[col::DEV_INT_SQ],
                self.max_interrupts_per_cycle,
            )
    }

    /// The cap each column's sanity pass scales by the row's CPU count,
    /// ordered as the batched mask applies them (every column except
    /// `NUM_CPUS`, which takes the range check instead). Squared-rate
    /// columns use `cap·cap`, associated exactly as
    /// [`row_is_sane`](Self::row_is_sane)'s `cap * cap * n`.
    fn column_caps(&self) -> [(usize, f64); COLUMNS - 1] {
        let l3 = self.max_l3_per_kilocycle;
        let bus = self.max_bus_per_megacycle;
        let dma = self.max_dma_per_cycle;
        let int = self.max_interrupts_per_cycle;
        [
            (col::ACTIVE, 1.0),
            (col::UPC, self.max_upc),
            (col::L3, l3),
            (col::L3_SQ, l3 * l3),
            (col::BUS, bus),
            (col::BUS_SQ, bus * bus),
            (col::DMA, dma),
            (col::DMA_SQ, dma * dma),
            (col::DISK_INT, int),
            (col::DISK_INT_SQ, int * int),
            (col::DEV_INT, int),
            (col::DEV_INT_SQ, int * int),
        ]
    }

    /// Batched form of [`row_is_sane`](Self::row_is_sane): evaluates
    /// the sanity verdict for *every* row of a window's columns in
    /// thirteen AND-accumulating column passes
    /// ([`tdp_simd::mask_in_range`] on the CPU-count column,
    /// [`tdp_simd::mask_nonneg_le_scaled`] on the other twelve),
    /// leaving `mask[i] != 0` ⇔ `row_is_sane(row i)`.
    ///
    /// Bit-equivalence with the per-row form (which remains the
    /// semantic reference) holds because the verdict is a pure
    /// conjunction: the explicit finiteness screen is implied by the
    /// cap passes once the CPU count passes its range check — every cap
    /// is finite, so `cap·n` is finite, and a NaN/∞/negative value
    /// fails its own `0 ≤ v ≤ cap·n` — and each comparison (including
    /// the `cap·cap·n` association for squared columns) is written
    /// identically in both forms. Pinned per-row-vs-mask by tests here
    /// and across seeded fault plans by the chaos property suite.
    pub(crate) fn sane_mask(&self, d: Dispatch, cols: &[&mut [f64]; COLUMNS], mask: &mut Vec<u8>) {
        let ncpus = &*cols[col::NUM_CPUS];
        mask.clear();
        mask.resize(ncpus.len(), 1);
        mask_in_range(d, ncpus, 1.0, self.max_cpus, mask);
        for (c, cap) in self.column_caps() {
            mask_nonneg_le_scaled(d, cols[c], cap, ncpus, mask);
        }
    }
}

/// What sequence bookkeeping concluded about one frame's window
/// sequence (see [`HealthLedger::note_seq`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeqNote {
    /// Re-delivery of the machine's already-accepted window — skip the
    /// row, the first delivery already decided this window.
    Duplicate,
    /// The sequence went backwards (reboot / counter reset): accept the
    /// row but re-baseline the machine as [`HealthState::Suspect`].
    Reset,
    /// A new window sequence, accepted normally.
    Fresh,
}

/// What the hold / staleness pass decided for one silent machine (see
/// [`HealthLedger::hold`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Hold {
    /// The machine is silent *by protocol* — still within its
    /// negotiated sampling decimation of its last transmitted window —
    /// so its last good row is reconstructed with no health downgrade.
    Reconstructed([f64; COLUMNS]),
    /// Carry the machine at its last good row for this window.
    Held([f64; COLUMNS]),
    /// The machine just crossed the staleness bound — count it in
    /// `machines_stale` (once per outage).
    NewlyStale,
    /// Still stale from an already-counted outage.
    AlreadyStale,
}

/// Column-major (SoA) per-machine health ledger.
///
/// Replaces a vector of per-machine structs: the hold / staleness pass
/// and the batched clean-window commit each touch one *field* across
/// all machines, so every field lives in its own dense vector indexed
/// by machine id, and the last good rows live column-major like
/// [`tdp_fleet::SampleBatch`]. The ladder semantics are exactly the
/// per-row transitions documented on [`HealthState`] — the chaos
/// property suite pins them against seeded fault plans, batched vs
/// per-row reference.
#[derive(Debug, Default)]
pub(crate) struct HealthLedger {
    /// Degradation-ladder position per machine.
    state: Vec<HealthState>,
    /// Whether the machine ever had a frame accepted for sequence
    /// bookkeeping (a dense slot never decoded into stays `false`).
    seen: Vec<bool>,
    /// Last accepted window sequence (meaningful only when `seen`).
    last_seq: Vec<u64>,
    /// Whether `last_good` holds a real row for the machine.
    has_last_good: Vec<bool>,
    /// Ingest epoch the last good row was captured in.
    last_good_epoch: Vec<u64>,
    /// Ingest epoch the machine last contributed a row (fresh or held).
    emitted_epoch: Vec<u64>,
    /// Whether the current outage was already counted in
    /// `machines_stale` (one count per outage, not per window).
    counted_stale: Vec<bool>,
    /// Negotiated sampling decimation per machine (1 = every window),
    /// learned from the machine's layout frames. Windows of silence
    /// shorter than this are reconstruction, not degradation.
    decimation: Vec<u16>,
    /// Last row that decoded cleanly and passed sanity bounds — the
    /// value held for bounded staleness when a machine goes silent.
    last_good: [Vec<f64>; COLUMNS],
}

impl HealthLedger {
    /// Grows the ledger to cover machines `0..n` (never shrinks; new
    /// slots start unseen and Healthy).
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.state.len() >= n {
            return;
        }
        self.state.resize(n, HealthState::Healthy);
        self.seen.resize(n, false);
        self.last_seq.resize(n, 0);
        self.has_last_good.resize(n, false);
        self.last_good_epoch.resize(n, 0);
        self.emitted_epoch.resize(n, 0);
        self.counted_stale.resize(n, false);
        self.decimation.resize(n, 1);
        for c in &mut self.last_good {
            c.resize(n, 0.0);
        }
    }

    /// Records machine `m`'s negotiated sampling decimation (from its
    /// layout frame; values are already normalised ≥ 1 by the decoder).
    pub(crate) fn set_decimation(&mut self, m: usize, decimation: u16) {
        self.decimation[m] = decimation.max(1);
    }

    /// Whether machine `m` ever had a frame accepted (false for dense
    /// slots that only exist because a higher id grew the ledger).
    pub(crate) fn seen(&self, m: usize) -> bool {
        self.seen.get(m).copied().unwrap_or(false)
    }

    /// Machine `m`'s current ladder position.
    pub(crate) fn state(&self, m: usize) -> HealthState {
        self.state[m]
    }

    /// Sequence bookkeeping for one in-range frame: duplicate skip,
    /// reset detection, and the `last_seq` update, in the ladder's
    /// order (duplicates are judged against the *previous* sequence,
    /// before it re-baselines).
    pub(crate) fn note_seq(&mut self, m: usize, seq: u64) -> SeqNote {
        if self.seen[m] {
            let last = self.last_seq[m];
            if last == seq {
                // A machine already past the staleness bound cannot be
                // re-delivering a window this outage accepted — it
                // delivered nothing. Equal sequences from a Stale
                // machine mean a rebooted producer resuming where its
                // counter left off (the wire bench's warmup seq is one
                // such replay), so re-baseline it as a reset instead of
                // locking it out as a duplicate forever — and without
                // re-counting the same outage in `machines_stale`.
                if self.state[m] == HealthState::Stale {
                    return SeqNote::Reset;
                }
                return SeqNote::Duplicate;
            }
            self.last_seq[m] = seq;
            if seq < last {
                return SeqNote::Reset;
            }
        } else {
            self.seen[m] = true;
            self.last_seq[m] = seq;
        }
        SeqNote::Fresh
    }

    /// Marks machine `m`'s latest row as withheld by the sanity bounds.
    pub(crate) fn quarantine(&mut self, m: usize) {
        self.state[m] = HealthState::Quarantined;
    }

    /// Shared tail of every good-row commit: flags, epochs and ladder
    /// position (the row itself was already stored by the caller).
    fn mark_good(&mut self, m: usize, epoch: u64, reset: bool) {
        self.has_last_good[m] = true;
        self.last_good_epoch[m] = epoch;
        self.emitted_epoch[m] = epoch;
        self.counted_stale[m] = false;
        self.state[m] = if reset {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
    }

    /// Commits a fresh sane row delivered as a row array (the per-row
    /// reference's shape).
    pub(crate) fn commit_row(&mut self, m: usize, epoch: u64, row: &[f64; COLUMNS], reset: bool) {
        for (c, v) in self.last_good.iter_mut().zip(row) {
            c[m] = *v;
        }
        self.mark_good(m, epoch, reset);
    }

    /// Commits a fresh sane row already sitting in the batch columns at
    /// index `m` (the serial fused path's shape).
    pub(crate) fn commit_from_cols(
        &mut self,
        m: usize,
        epoch: u64,
        cols: &[&mut [f64]; COLUMNS],
        reset: bool,
    ) {
        for (c, src) in self.last_good.iter_mut().zip(cols) {
            c[m] = src[m];
        }
        self.mark_good(m, epoch, reset);
    }

    /// Copies machine `m`'s last good row back into the batch columns —
    /// undoes a quarantined row that overwrote an already-emitted one.
    pub(crate) fn restore_into(&self, m: usize, cols: &mut [&mut [f64]; COLUMNS]) {
        for (src, c) in self.last_good.iter().zip(cols.iter_mut()) {
            c[m] = src[m];
        }
    }

    /// Whether machine `m` already contributed a row (fresh or held)
    /// this epoch.
    pub(crate) fn emitted_this(&self, m: usize, epoch: u64) -> bool {
        self.emitted_epoch[m] == epoch
    }

    /// The hold / staleness decision for a machine that contributed
    /// nothing this window, in three tiers anchored at the machine's
    /// negotiated decimation `dec` (windows since its last good row):
    ///
    /// * `since < dec` — silence is the sampling protocol itself;
    ///   reconstruct the last good row with no health downgrade;
    /// * `since ≤ dec − 1 + max_stale` — the machine has missed a
    ///   window it owed; carry it as Suspect (the legacy hold);
    /// * beyond that — declare it stale.
    ///
    /// At `dec = 1` the first tier is unreachable (a machine with a
    /// good row *this* epoch never reaches `hold`), so the ladder
    /// reduces exactly to the historical every-window behaviour.
    pub(crate) fn hold(&mut self, m: usize, epoch: u64, max_stale: u64) -> Hold {
        if self.has_last_good[m] {
            let since = epoch - self.last_good_epoch[m];
            let dec = self.decimation[m] as u64;
            if since < dec {
                self.emitted_epoch[m] = epoch;
                let mut row = [0.0; COLUMNS];
                for (v, c) in row.iter_mut().zip(&self.last_good) {
                    *v = c[m];
                }
                return Hold::Reconstructed(row);
            }
            if since <= dec - 1 + max_stale {
                self.emitted_epoch[m] = epoch;
                if self.state[m] == HealthState::Healthy {
                    self.state[m] = HealthState::Suspect;
                }
                let mut row = [0.0; COLUMNS];
                for (v, c) in row.iter_mut().zip(&self.last_good) {
                    *v = c[m];
                }
                return Hold::Held(row);
            }
        }
        self.state[m] = HealthState::Stale;
        if self.counted_stale[m] {
            Hold::AlreadyStale
        } else {
            self.counted_stale[m] = true;
            Hold::NewlyStale
        }
    }

    /// Bulk commit for a perfectly clean window: machines `0..n` each
    /// delivered exactly one fresh sane row (already in `cols`) with no
    /// sequence resets, so every per-machine field takes the same value
    /// and the last good rows are straight column memcpys. Equivalent
    /// to `n` [`commit_from_cols`](Self::commit_from_cols) calls with
    /// `reset = false`.
    pub(crate) fn commit_all(&mut self, epoch: u64, cols: &[&mut [f64]; COLUMNS], n: usize) {
        for (dst, src) in self.last_good.iter_mut().zip(cols) {
            dst[..n].copy_from_slice(&src[..n]);
        }
        self.has_last_good[..n].fill(true);
        self.last_good_epoch[..n].fill(epoch);
        self.emitted_epoch[..n].fill(epoch);
        self.counted_stale[..n].fill(false);
        self.state[..n].fill(HealthState::Healthy);
    }
}

/// The pipeline-health counter block: every way the stream degraded
/// this window, condensed from a [`StreamReport`].
///
/// Invariant the chaos tests pin: every injected fault lands in at
/// least one of these counters — nothing fails silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Frames rejected by checksum or structure.
    pub corrupt_frames: u64,
    /// Framing losses that forced a scan for the next boundary.
    pub resyncs: u64,
    /// Window-sequence regressions (machine reboot / counter reset).
    pub resets_detected: u64,
    /// Frames re-delivering an already-accepted window.
    pub duplicate_windows: u64,
    /// Decoded rows withheld as physically implausible.
    pub rows_quarantined: u64,
    /// Rows emitted from a machine's last good window while it was
    /// silent or quarantined.
    pub rows_held: u64,
    /// Machines dropped after exceeding the staleness bound.
    pub machines_stale: u64,
}

impl PipelineHealth {
    /// Condenses a window's [`StreamReport`] to the health block.
    pub fn from_report(r: &StreamReport) -> Self {
        Self {
            corrupt_frames: r.corrupt_frames,
            resyncs: r.resyncs,
            resets_detected: r.resets_detected,
            duplicate_windows: r.duplicate_windows,
            rows_quarantined: r.rows_quarantined,
            rows_held: r.rows_held,
            machines_stale: r.machines_stale,
        }
    }

    /// Whether the window showed no degradation at all.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

impl std::fmt::Display for PipelineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt={} resyncs={} resets={} dups={} quarantined={} held={} stale={}",
            self.corrupt_frames,
            self.resyncs,
            self.resets_detected,
            self.duplicate_windows,
            self.rows_quarantined,
            self.rows_held,
            self.machines_stale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane_row() -> [f64; COLUMNS] {
        let mut row = [0.0; COLUMNS];
        row[col::NUM_CPUS] = 4.0;
        row[col::ACTIVE] = 2.5;
        row[col::UPC] = 6.0;
        row[col::L3] = 8.0;
        row[col::L3_SQ] = 20.0;
        row[col::BUS] = 20_000.0;
        row[col::BUS_SQ] = 1.2e8;
        row[col::DMA] = 0.1;
        row[col::DMA_SQ] = 0.004;
        row[col::DISK_INT] = 2e-8;
        row[col::DISK_INT_SQ] = 4e-16;
        row[col::DEV_INT] = 3e-8;
        row[col::DEV_INT_SQ] = 9e-16;
        row
    }

    #[test]
    fn default_policy_accepts_plausible_rows() {
        assert!(DegradePolicy::default().row_is_sane(&sane_row()));
    }

    #[test]
    fn each_bound_rejects_independently() {
        let p = DegradePolicy::default();
        let cases: [(usize, f64); 9] = [
            (col::NUM_CPUS, 0.0),
            (col::NUM_CPUS, 4096.0),
            (col::ACTIVE, 4.5),
            (col::UPC, 100.0),
            (col::L3, 1000.0),
            (col::BUS, 4.0e6),
            (col::DMA, 4.0),
            (col::DISK_INT, 1.0),
            (col::DEV_INT, 1.0),
        ];
        for (i, v) in cases {
            let mut row = sane_row();
            row[i] = v;
            assert!(!p.row_is_sane(&row), "col {i} = {v} must be insane");
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut row = sane_row();
            row[col::UPC] = bad;
            assert!(!p.row_is_sane(&row), "{bad} must be insane");
        }
        // Squared-rate columns are bounded too (a consistent sum with
        // an impossible square means the payload lies).
        let mut row = sane_row();
        row[col::L3_SQ] = 1e9;
        assert!(!p.row_is_sane(&row));
    }

    /// The batched column mask is the per-row verdict, bit for bit, on
    /// every adversarial row the per-row tests use — under both
    /// dispatch flavours.
    #[test]
    fn sane_mask_is_bit_identical_to_row_is_sane() {
        let p = DegradePolicy::default();
        let mut rows: Vec<[f64; COLUMNS]> = vec![sane_row()];
        for c in 0..COLUMNS {
            for v in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -1.0,
                -0.0,
                0.0,
                1.0,
                4.0,
                1e30,
                5e-4,
            ] {
                let mut row = sane_row();
                row[c] = v;
                rows.push(row);
            }
        }
        // Boundary rows: every cap exactly met (sane) and just over.
        let mut at_cap = [0.0; COLUMNS];
        at_cap[col::NUM_CPUS] = p.max_cpus;
        let n = p.max_cpus;
        at_cap[col::ACTIVE] = n;
        at_cap[col::UPC] = p.max_upc * n;
        at_cap[col::L3] = p.max_l3_per_kilocycle * n;
        at_cap[col::L3_SQ] = p.max_l3_per_kilocycle * p.max_l3_per_kilocycle * n;
        at_cap[col::BUS] = p.max_bus_per_megacycle * n;
        at_cap[col::BUS_SQ] = p.max_bus_per_megacycle * p.max_bus_per_megacycle * n;
        at_cap[col::DMA] = p.max_dma_per_cycle * n;
        at_cap[col::DMA_SQ] = p.max_dma_per_cycle * p.max_dma_per_cycle * n;
        at_cap[col::DISK_INT] = p.max_interrupts_per_cycle * n;
        at_cap[col::DISK_INT_SQ] = p.max_interrupts_per_cycle * p.max_interrupts_per_cycle * n;
        at_cap[col::DEV_INT] = at_cap[col::DISK_INT];
        at_cap[col::DEV_INT_SQ] = at_cap[col::DISK_INT_SQ];
        rows.push(at_cap);
        for c in 0..COLUMNS {
            let mut row = at_cap;
            row[c] = at_cap[c] * (1.0 + 1e-9) + f64::MIN_POSITIVE;
            rows.push(row);
        }

        let mut colv: [Vec<f64>; COLUMNS] = std::array::from_fn(|_| vec![0.0; rows.len()]);
        for (i, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                colv[c][i] = *v;
            }
        }
        let mut it = colv.iter_mut();
        let cols: [&mut [f64]; COLUMNS] =
            std::array::from_fn(|_| it.next().expect("COLUMNS slices").as_mut_slice());

        let mut mask = Vec::new();
        for d in [Dispatch::Scalar, Dispatch::active()] {
            p.sane_mask(d, &cols, &mut mask);
            assert_eq!(mask.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    mask[i] != 0,
                    p.row_is_sane(row),
                    "row {i} ({row:?}) disagrees under {d:?}"
                );
            }
        }
    }

    #[test]
    fn health_block_display_and_cleanliness() {
        let clean = PipelineHealth::default();
        assert!(clean.is_clean());
        let mut dirty = clean;
        dirty.rows_quarantined = 3;
        assert!(!dirty.is_clean());
        let s = dirty.to_string();
        assert!(s.contains("quarantined=3"), "{s}");
    }
}

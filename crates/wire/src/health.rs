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
//! * rows that fail the [`row_is_sane`] bounds are **quarantined** —
//!   counted, never fed to the estimator;
//! * a machine that goes silent is **held** at its last good row for a
//!   bounded number of windows ([`MAX_STALE_WINDOWS`]), then declared
//!   stale and dropped from the window entirely;
//! * model-level protection (prediction clamping to the calibrated
//!   validity range — see [`trickledown::clamp_watts`]) catches what
//!   row-level sanity bounds cannot: rates that are individually
//!   plausible but outside what the quadratics were fitted on, the
//!   paper's own Equation-2 "fails under extreme cases" caveat
//!   (§4.2.2).
//!
//! The counters all of this produces are summarised by
//! [`PipelineHealth`].

use tdp_fleet::{col, COLUMNS};

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

/// How many consecutive windows past its decimation a silent machine is
/// carried at its last good row before being declared
/// [`HealthState::Stale`].
pub const MAX_STALE_WINDOWS: u64 = 4;

/// Most CPUs one machine may claim.
const MAX_CPUS: f64 = 1024.0;

/// The sanity caps, per CPU: *physical plausibility* screens,
/// deliberately far above anything a real machine sustains (compare:
/// the simulated fleet peaks around 3 misses/kilocycle, 9 000 bus
/// tx/megacycle, 0.03 DMA/cycle, and interrupt rates near 1e-8/cycle)
/// but far below the garbage a misattributed or malicious payload
/// produces.
///
/// * fetched uops per cycle: 16 (architectural width is single digits);
/// * L3 load misses per **kilo**cycle: 50;
/// * bus transactions per **mega**cycle: 10⁵;
/// * DMA accesses per cycle: 0.2;
/// * disk and device interrupts per cycle: 10⁻³ (even a 1 kHz tick at
///   10 MHz is 10⁻⁴).
///
/// One entry per column except `NUM_CPUS`, which takes the range check
/// `1..=MAX_CPUS` instead. A squared-rate column's cap is the square of
/// its rate's cap, so its bound associates as `(cap·cap)·n`.
const COLUMN_CAPS: [(usize, f64); COLUMNS - 1] = {
    const UPC: f64 = 16.0;
    const L3: f64 = 50.0;
    const BUS: f64 = 1e5;
    const DMA: f64 = 0.2;
    const INT: f64 = 1e-3;
    [
        (col::ACTIVE, 1.0),
        (col::UPC, UPC),
        (col::L3, L3),
        (col::L3_SQ, L3 * L3),
        (col::BUS, BUS),
        (col::BUS_SQ, BUS * BUS),
        (col::DMA, DMA),
        (col::DMA_SQ, DMA * DMA),
        (col::DISK_INT, INT),
        (col::DISK_INT_SQ, INT * INT),
        (col::DEV_INT, INT),
        (col::DEV_INT_SQ, INT * INT),
    ]
};

// Every bound `cap · n` is finite and positive for every admitted CPU
// count `n ≤ MAX_CPUS`, so a +∞ or NaN in any column fails its bound.
const _: () = {
    assert!(MAX_CPUS >= 1.0 && MAX_CPUS < f64::INFINITY);
    let mut i = 0;
    while i < COLUMN_CAPS.len() {
        let cap = COLUMN_CAPS[i].1;
        assert!(cap > 0.0 && cap < f64::INFINITY);
        assert!(cap * MAX_CPUS < f64::INFINITY);
        i += 1;
    }
};

/// Whether a decoded sample row is physically plausible. A `false`
/// verdict quarantines the row: it checksummed (the bytes arrived as
/// sent) but describes a machine that cannot exist, so the *producer*
/// is lying or broken, not the wire.
///
/// The CPU count must lie in `1..=1024`; every other column must lie
/// in `0..=cap·n`, where `cap` is the column's per-CPU cap (listed on
/// the private `COLUMN_CAPS` table) and `n` the row's CPU count (rows
/// are machine-aggregated sums over CPUs, each term individually
/// capped, so the sums are bounded by `n·cap` and the squared-rate sums
/// by `n·cap²`). NaN fails every comparison, and since every `cap·n` is
/// finite (checked at compile time) so does ±∞. The columns are joined
/// by `&`, not `&&`, so a window of rows costs the same whatever they
/// hold.
pub fn row_is_sane(row: &[f64; COLUMNS]) -> bool {
    let n = row[col::NUM_CPUS];
    let mut sane = (1.0..=MAX_CPUS).contains(&n);
    for (c, cap) in COLUMN_CAPS {
        let v = row[c];
        sane &= (v >= 0.0) & (v <= cap * n);
    }
    sane
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    /// The machine is silent *by protocol* — still within its
    /// negotiated sampling decimation of its last transmitted window —
    /// so its last good row stands with no health downgrade.
    Reconstructed,
    /// Carry the machine at its last good row for this window.
    Held,
    /// The machine just crossed the staleness bound — count it in
    /// `machines_stale` (once per outage) and zero its row.
    NewlyStale,
    /// Still stale from an already-counted outage.
    AlreadyStale,
}

/// Column-major (SoA) per-machine health ledger.
///
/// Every field lives in its own dense vector indexed by machine id, so
/// the hold / staleness pass touches one field across all machines at
/// a time. The ledger holds no rows: ingest keeps each machine's last
/// good row in the estimator's batch, which is only written with sane
/// rows (see [`crate::stream`]). The ladder semantics are exactly the
/// per-row transitions documented on [`HealthState`].
#[derive(Debug, Default)]
pub(crate) struct HealthLedger {
    /// Degradation-ladder position per machine.
    state: Vec<HealthState>,
    /// Whether the machine ever had a frame accepted for sequence
    /// bookkeeping (a dense slot never decoded into stays `false`).
    seen: Vec<bool>,
    /// Last accepted window sequence (meaningful only when `seen`).
    last_seq: Vec<u64>,
    /// Ingest epoch of the machine's last good row; 0 = none yet
    /// (epochs start at 1).
    last_good_epoch: Vec<u64>,
    /// Whether the current outage was already counted in
    /// `machines_stale` (one count per outage, not per window).
    counted_stale: Vec<bool>,
}

impl HealthLedger {
    /// Sizes the ledger to exactly machines `0..n`. Slots beyond `n`
    /// are forgotten, so a machine cut off by a smaller fleet comes
    /// back unseen; new slots start unseen and Healthy.
    pub(crate) fn resize(&mut self, n: usize) {
        self.state.resize(n, HealthState::Healthy);
        self.seen.resize(n, false);
        self.last_seq.resize(n, 0);
        self.last_good_epoch.resize(n, 0);
        self.counted_stale.resize(n, false);
    }

    /// Whether machine `m` ever had a frame accepted (false for dense
    /// slots that only exist because a higher id grew the ledger, and
    /// for machines beyond the ledger).
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

    /// Commits a fresh sane row for machine `m` in `epoch` (the row
    /// itself is already in the batch): it becomes the machine's last
    /// good row, and the machine is Healthy — or Suspect after a
    /// sequence `reset`.
    pub(crate) fn commit(&mut self, m: usize, epoch: u64, reset: bool) {
        self.last_good_epoch[m] = epoch;
        self.counted_stale[m] = false;
        self.state[m] = if reset {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
    }

    /// Whether machine `m` already committed a fresh row this epoch.
    pub(crate) fn committed_in(&self, m: usize, epoch: u64) -> bool {
        self.last_good_epoch[m] == epoch
    }

    /// The hold / staleness decision for a machine that contributed
    /// nothing this window, in three tiers anchored at the machine's
    /// negotiated decimation `dec` (windows since its last good row):
    ///
    /// * `since < dec` — silence is the sampling protocol itself;
    ///   reconstruct the last good row with no health downgrade;
    /// * `since ≤ dec − 1 + MAX_STALE_WINDOWS` — the machine has
    ///   missed a window it owed; carry it as Suspect (the legacy hold);
    /// * beyond that — declare it stale.
    ///
    /// At `dec = 1` the first tier is unreachable (a machine with a
    /// good row *this* epoch never reaches `hold`), so the ladder
    /// reduces exactly to the historical every-window behaviour.
    pub(crate) fn hold(&mut self, m: usize, epoch: u64, dec: u64) -> Hold {
        if self.last_good_epoch[m] != 0 {
            let since = epoch - self.last_good_epoch[m];
            if since < dec {
                return Hold::Reconstructed;
            }
            if since <= dec - 1 + MAX_STALE_WINDOWS {
                if self.state[m] == HealthState::Healthy {
                    self.state[m] = HealthState::Suspect;
                }
                return Hold::Held;
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
}

/// The pipeline-health counter block: every way the stream degraded
/// this window, condensed from a
/// [`StreamReport`](crate::StreamReport) by
/// [`StreamReport::health`](crate::StreamReport::health).
///
/// Invariant the chaos tests pin: every injected fault lands in at
/// least one of these counters — nothing fails silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineHealth {
    /// Frames rejected by checksum or structure.
    pub corrupt_frames: u64,
    /// Framing losses that forced a scan for the next boundary.
    pub resyncs: u64,
    /// Sample frames naming a layout never declared on the stream.
    pub unknown_layout_frames: u64,
    /// Decoded rows for machines beyond the window's machine count.
    pub out_of_range_frames: u64,
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
    /// Whether the window showed no degradation at all.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

impl std::fmt::Display for PipelineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt={} resyncs={} unknown_layout={} out_of_range={} resets={} dups={} \
             quarantined={} held={} stale={}",
            self.corrupt_frames,
            self.resyncs,
            self.unknown_layout_frames,
            self.out_of_range_frames,
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
        assert!(row_is_sane(&sane_row()));
    }

    #[test]
    fn each_bound_rejects_independently() {
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
            assert!(!row_is_sane(&row), "col {i} = {v} must be insane");
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut row = sane_row();
            row[col::UPC] = bad;
            assert!(!row_is_sane(&row), "{bad} must be insane");
        }
        // Squared-rate columns are bounded too (a consistent sum with
        // an impossible square means the payload lies).
        let mut row = sane_row();
        row[col::L3_SQ] = 1e9;
        assert!(!row_is_sane(&row));
    }

    /// No non-finite value passes in any column. u64 counts over the
    /// wire cannot produce +∞, so the screen is pinned here: a +∞ UPC
    /// and a +∞ `BUS_SQ` (the rows a settable infinite or overflowing
    /// cap once let through), and ±∞ and NaN in every column, also on a
    /// row at the largest admitted CPU count.
    #[test]
    fn non_finite_values_are_insane_in_every_column() {
        let mut widest = sane_row();
        widest[col::NUM_CPUS] = MAX_CPUS;
        for base in [sane_row(), widest] {
            assert!(row_is_sane(&base));
            for c in [col::UPC, col::BUS_SQ] {
                let mut row = base;
                row[c] = f64::INFINITY;
                assert!(!row_is_sane(&row), "col {c} = +inf must be insane");
            }
            for c in 0..COLUMNS {
                for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut row = base;
                    row[c] = bad;
                    assert!(!row_is_sane(&row), "col {c} = {bad} must be insane");
                }
            }
        }
    }

    /// The short-circuit ladder [`row_is_sane`] was written as before
    /// it became one branch-free conjunction: the oracle the rewrite is
    /// pinned against, with the per-CPU caps spelled out.
    fn short_circuit_ladder(row: &[f64; COLUMNS]) -> bool {
        if !row.iter().all(|v| v.is_finite() && *v >= 0.0) {
            return false;
        }
        let n = row[col::NUM_CPUS];
        if !(1.0..=1024.0).contains(&n) {
            return false;
        }
        let within = |sum: f64, sq: f64, cap: f64| sum <= cap * n && sq <= cap * cap * n;
        row[col::ACTIVE] <= n
            && within(row[col::UPC], 0.0, 16.0)
            && within(row[col::L3], row[col::L3_SQ], 50.0)
            && within(row[col::BUS], row[col::BUS_SQ], 1e5)
            && within(row[col::DMA], row[col::DMA_SQ], 0.2)
            && within(row[col::DISK_INT], row[col::DISK_INT_SQ], 1e-3)
            && within(row[col::DEV_INT], row[col::DEV_INT_SQ], 1e-3)
    }

    /// The branch-free verdict is the short-circuit ladder's, bit for
    /// bit, on every adversarial value in every column and on rows
    /// with every cap exactly met (sane) or just exceeded.
    #[test]
    fn row_is_sane_matches_the_short_circuit_ladder() {
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
        at_cap[col::NUM_CPUS] = MAX_CPUS;
        for (c, cap) in COLUMN_CAPS {
            at_cap[c] = cap * MAX_CPUS;
        }
        assert!(row_is_sane(&at_cap), "every cap exactly met is sane");
        rows.push(at_cap);
        for c in 0..COLUMNS {
            let mut row = at_cap;
            row[c] = at_cap[c] * (1.0 + 1e-9) + f64::MIN_POSITIVE;
            assert!(!row_is_sane(&row), "col {c} just over its cap");
            rows.push(row);
        }

        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row_is_sane(row),
                short_circuit_ladder(row),
                "row {i} ({row:?}) disagrees"
            );
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

//! Streaming anomaly detection over per-subsystem power estimates.
//!
//! The wire health ladder ([`tdp-wire`]'s quarantine/hold/stale
//! machinery) catches telemetry that is *malformed*; nothing there
//! catches a machine whose counters are perfectly well-formed but whose
//! **power trajectory** has left the fleet — a runaway workload, a
//! failing fan driving sustained turbo, a compromised host. This module
//! watches the estimator's own output, per subsystem, and flags
//! machines that diverge from their peers:
//!
//! * Each window, the detector takes the fleet's per-subsystem
//!   estimates (CPU, memory, disk, I/O — chipset is a constant and
//!   total is their sum) and computes a **cross-sectional robust
//!   center**: the fleet median per subsystem. Median instead of mean
//!   so a handful of already anomalous machines cannot drag the
//!   center toward themselves — and because the center is *this*
//!   window's, a fleet-wide load swing moves every machine and its
//!   center together and cancels, instead of flagging the whole fleet.
//! * The **scale** is MAD-derived (`1.4826·MAD`, floored at a small
//!   fraction of the median — an idle-uniform fleet has MAD ≈ 0 and
//!   the floor keeps z finite) and smoothed as the median over a
//!   fixed-capacity **window ring** of recent scales, so one window in
//!   which many machines misbehave at once cannot inflate the scale
//!   and hide them.
//! * Each machine's **z-score** is its worst subsystem divergence:
//!   `z = max_s |x_s − med_s| / denom_s`. `z ≥ threshold` ⇒
//!   [`Verdict::Anomalous`]; after recovery the machine is carried as
//!   [`Verdict::Suspect`] for a hysteresis hold before returning to
//!   [`Verdict::Normal`].
//!
//! # The adaptive-sampling loop
//!
//! Verdicts close the loop with the wire protocol:
//! [`AnomalyDetector::decimation`] answers, per machine, how often the
//! producer should transmit — `1` (every window) for anomalous,
//! suspect, or not-yet-warmed machines, [`HEALTHY_DECIMATION`] for
//! machines the fleet agrees are boring. The controller forwards that
//! to [`WireEncoder::set_decimation`], the encoder announces it on the
//! machine's layout frame, and ingest reconstructs the skipped windows
//! by holding the last row — cutting steady-state wire + ingest cost
//! roughly `N×` while anomalous machines keep full resolution: trace
//! the problem, not the process.
//!
//! # One configuration
//!
//! The detector has no settings: [`BASELINE_WINDOWS`], [`THRESHOLD`],
//! [`HOLD_WINDOWS`], [`HEALTHY_DECIMATION`] and [`REL_FLOOR`] are the
//! one configuration it runs, as Equations 1–5 run one set of fitted
//! coefficients.
//!
//! [`tdp-wire`]: ../tdp_wire/index.html
//! [`WireEncoder::set_decimation`]: ../tdp_wire/struct.WireEncoder.html#method.set_decimation

use crate::FleetEstimates;

/// Subsystems the detector watches: CPU, memory, disk, I/O. Chipset is
/// a per-machine constant and total is the sum of the others — neither
/// can diverge on its own.
const SUBSYSTEMS: usize = 4;

/// Capacity of the scale window ring — how many windows of
/// cross-sectional MAD scales the operative denominator is the median
/// of. Also the warmup length: until this many windows have been seen,
/// every machine is sampled at full rate and no verdict leaves
/// [`Verdict::Normal`].
pub const BASELINE_WINDOWS: usize = 8;

/// Robust z-score at or above which a machine is
/// [`Verdict::Anomalous`]. A clean homogeneous fleet sits well under 3;
/// 6 leaves a wide false-positive margin while still catching
/// order-of-magnitude spikes instantly.
pub const THRESHOLD: f64 = 6.0;

/// Windows a machine stays [`Verdict::Suspect`] (still sampled every
/// window) after its z-score drops back below [`THRESHOLD`].
pub const HOLD_WINDOWS: u32 = 3;

/// Sampling decimation granted to warmed-up [`Verdict::Normal`]
/// machines: transmit one window in this many, reconstructed by hold
/// on ingest.
pub const HEALTHY_DECIMATION: u16 = 4;

/// Relative floor on the MAD-derived scale, as a fraction of the
/// window median's magnitude — keeps z finite on an idle fleet whose
/// MAD is exactly zero.
pub const REL_FLOOR: f64 = 0.01;

/// Where a machine stands with the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Tracking the fleet baseline; eligible for decimated sampling.
    #[default]
    Normal,
    /// Recently anomalous, inside the hysteresis hold — sampled every
    /// window, not (or no longer) over the threshold.
    Suspect,
    /// Diverging from fleet peers right now (`z ≥ threshold`).
    Anomalous,
}

/// One window's operative baseline: per-subsystem center (this
/// window's cross-sectional median) and scale (ring-smoothed MAD).
#[derive(Debug, Clone, Copy)]
struct Baseline {
    med: [f64; SUBSYSTEMS],
    denom: [f64; SUBSYSTEMS],
}

/// Fleet-wide verdict counts for one window (bench/report shape).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnomalySummary {
    /// Machines currently [`Verdict::Anomalous`].
    pub anomalous: u64,
    /// Machines in the [`Verdict::Suspect`] hysteresis hold.
    pub suspect: u64,
    /// Largest per-machine z-score this window.
    pub max_z: f64,
}

/// Streaming per-machine anomaly detector; see the [module docs](self).
///
/// State is structure-of-arrays: one dense vector per per-machine
/// field, indexed by machine id, exactly like the wire health ledger.
/// [`AnomalyDetector::default`] is a detector with no windows observed.
#[derive(Debug, Clone, Default)]
pub struct AnomalyDetector {
    /// Ring of per-window MAD-derived scales, subsystem-major; the
    /// first `ring_len` entries of each are filled.
    ring_denom: [[f64; BASELINE_WINDOWS]; SUBSYSTEMS],
    /// Next ring slot to write: the oldest entry once the ring is full.
    ring_head: usize,
    /// Entries currently in the ring (`≤ BASELINE_WINDOWS`).
    ring_len: usize,
    /// Per machine of the latest window: latest robust z-score.
    z: Vec<f64>,
    /// Per machine of the latest window: current verdict.
    verdict: Vec<Verdict>,
    /// Per machine of the latest window: remaining hysteresis windows.
    hold: Vec<u32>,
    /// Order-preserving [`key`]s of one column at a time (values, then
    /// absolute deviations), permuted in place by the median
    /// selections.
    scratch: Vec<u64>,
}

/// Maps `v` to a `u64` whose plain order is [`f64::total_cmp`]'s
/// order: negative values get their magnitude bits flipped, then the
/// sign bit is flipped so every positive value sorts above every
/// negative one. A bijection; [`unkey`] inverts it.
#[inline]
fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The value whose [`key`] is `k`.
#[inline]
fn unkey(k: u64) -> f64 {
    let bits = k ^ (1 << 63);
    f64::from_bits(bits ^ (((bits as i64 >> 63) as u64) >> 1))
}

/// Median of the values whose [`key`]s are `keys` (0 when empty), by
/// linear-time selection; `keys` is left permuted. Under one total
/// order each order statistic is a unique bit pattern, so this equals a
/// full `total_cmp` sort's median bit for bit, NaNs included (the
/// estimator's clamped outputs never produce them).
fn median_in(keys: &mut [u64]) -> f64 {
    let n = keys.len();
    if n == 0 {
        return 0.0;
    }
    let (lower, &mut mid, _) = keys.select_nth_unstable(n / 2);
    let hi = unkey(mid);
    if n % 2 == 1 {
        return hi;
    }
    // The lower middle value is the largest key left of the pivot.
    let lo = unkey(lower.iter().copied().max().expect("even n ≥ 2"));
    0.5 * (lo + hi)
}

/// The pure per-machine judgement: worst-subsystem z against the
/// baseline, then the verdict transition.
#[inline]
fn judge(
    base: &Baseline,
    x: [f64; SUBSYSTEMS],
    prev_hold: u32,
    warmed: bool,
) -> (f64, Verdict, u32) {
    let mut z = 0.0f64;
    for ((&xs, &med), &denom) in x.iter().zip(&base.med).zip(&base.denom) {
        let d = (xs - med).abs() / denom;
        if d > z {
            z = d;
        }
    }
    if !warmed {
        return (z, Verdict::Normal, 0);
    }
    if z >= THRESHOLD {
        (z, Verdict::Anomalous, HOLD_WINDOWS)
    } else if prev_hold > 0 {
        (z, Verdict::Suspect, prev_hold - 1)
    } else {
        (z, Verdict::Normal, 0)
    }
}

impl AnomalyDetector {
    /// Whether the baseline ring is full — verdicts and decimation
    /// grants are only issued from here on.
    pub fn warmed(&self) -> bool {
        self.ring_len == BASELINE_WINDOWS
    }

    /// Machine `m`'s current verdict ([`Verdict::Normal`] if never
    /// judged).
    pub fn verdict(&self, m: usize) -> Verdict {
        self.verdict.get(m).copied().unwrap_or_default()
    }

    /// Machine `m`'s latest robust z-score (0 if never judged).
    pub fn z(&self, m: usize) -> f64 {
        self.z.get(m).copied().unwrap_or(0.0)
    }

    /// The sampling decimation the control loop should grant machine
    /// `m`: full rate until the detector is warmed and for any machine
    /// not currently [`Verdict::Normal`], [`HEALTHY_DECIMATION`]
    /// otherwise.
    pub fn decimation(&self, m: usize) -> u16 {
        if self.warmed() && self.verdict(m) == Verdict::Normal {
            HEALTHY_DECIMATION
        } else {
            1
        }
    }

    /// Fleet-wide verdict counts for the latest window's machines.
    pub fn summary(&self) -> AnomalySummary {
        let mut s = AnomalySummary::default();
        for (&v, &z) in self.verdict.iter().zip(&self.z) {
            match v {
                Verdict::Anomalous => s.anomalous += 1,
                Verdict::Suspect => s.suspect += 1,
                Verdict::Normal => {}
            }
            if z > s.max_z {
                s.max_z = z;
            }
        }
        s
    }

    /// The fleet-wide phase of an update: this window's
    /// cross-sectional median per subsystem (the operative center —
    /// fleet-wide swings cancel against it) and MAD scale, the scale
    /// pushed into the ring, and the operative scale (ring median)
    /// read back out.
    fn refresh_baseline(&mut self, cols: &[&[f64]; SUBSYSTEMS]) -> Baseline {
        let mut base = Baseline {
            med: [0.0; SUBSYSTEMS],
            denom: [0.0; SUBSYSTEMS],
        };
        for (s, col) in cols.iter().enumerate() {
            self.scratch.clear();
            self.scratch.extend(col.iter().map(|&v| key(v)));
            let med = median_in(&mut self.scratch);
            self.scratch.clear();
            self.scratch
                .extend(col.iter().map(|&v| key((v - med).abs())));
            let mad = median_in(&mut self.scratch);
            let denom = (1.4826 * mad).max(REL_FLOOR * med.abs() + 1e-12);
            self.ring_denom[s][self.ring_head] = denom;
            base.med[s] = med;
        }
        self.ring_len = (self.ring_len + 1).min(BASELINE_WINDOWS);
        self.ring_head = (self.ring_head + 1) % BASELINE_WINDOWS;
        for (d, ring) in base.denom.iter_mut().zip(&self.ring_denom) {
            let mut keys = ring.map(key);
            *d = median_in(&mut keys[..self.ring_len]);
        }
        base
    }

    /// Observes one window of fleet estimates and re-judges every
    /// machine. Allocation-free in the steady state.
    pub fn update(&mut self, est: &FleetEstimates) {
        let n = est.len();
        // Exactly this window's machines: a departed machine's state
        // goes with it, and one that joins starts Normal with no
        // history, even at an index a departed machine held. Resizing
        // keeps capacity, so a fleet that shrinks and regrows does not
        // allocate.
        self.z.resize(n, 0.0);
        self.verdict.resize(n, Verdict::Normal);
        self.hold.resize(n, 0);
        let cols = [est.cpu(), est.memory(), est.disk(), est.io()];
        let base = self.refresh_baseline(&cols);
        let warmed = self.warmed();
        #[allow(clippy::needless_range_loop)] // four parallel columns, one index
        for m in 0..n {
            let x = [cols[0][m], cols[1][m], cols[2][m], cols[3][m]];
            let (z, v, hold) = judge(&base, x, self.hold[m], warmed);
            self.z[m] = z;
            self.verdict[m] = v;
            self.hold[m] = hold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::FleetEstimator;
    use crate::SampleBatch;
    use proptest::prelude::*;
    use trickledown::SystemPowerModel;

    /// The reference median [`median_in`] must equal bit for bit: an
    /// unstable `total_cmp` sort, then the middle value (or the mean of
    /// the two middle values).
    fn sort_median(vals: &mut [f64]) -> f64 {
        if vals.is_empty() {
            return 0.0;
        }
        vals.sort_unstable_by(f64::total_cmp);
        let n = vals.len();
        if n % 2 == 1 {
            vals[n / 2]
        } else {
            0.5 * (vals[n / 2 - 1] + vals[n / 2])
        }
    }

    fn keyed_median(vals: &[f64]) -> f64 {
        let mut keys: Vec<u64> = vals.iter().map(|&v| key(v)).collect();
        median_in(&mut keys)
    }

    /// Values that stress a total-order median: signed zeros,
    /// subnormals, infinities and NaNs with payloads of either sign.
    const SPECIAL: [u64; 14] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest positive subnormal
        0x8000_0000_0000_0001, // smallest negative subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x0010_0000_0000_0000, // f64::MIN_POSITIVE
        0x3ff0_0000_0000_0000, // 1.0
        0xbff0_0000_0000_0000, // -1.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN, payload 1
        0xfff8_0000_dead_beef, // negative NaN with a payload
        0x7fef_ffff_ffff_ffff, // f64::MAX
    ];

    /// One value per `(class, bits)` draw: mostly duplicates from a
    /// small pool, plus raw bit patterns (every NaN payload and
    /// subnormal is reachable) and subnormals of either sign.
    fn value(class: u8, bits: u64) -> f64 {
        match class {
            0 | 1 => f64::from_bits(SPECIAL[(bits % SPECIAL.len() as u64) as usize]),
            2 | 3 => (bits % 5) as f64 - 2.0,
            4 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
            _ => f64::from_bits(bits),
        }
    }

    proptest! {
        #[test]
        fn keyed_selection_median_matches_the_sort_oracle_bit_for_bit(
            draws in prop::collection::vec((0u8..7, any::<u64>()), 0..1026),
        ) {
            let mut vals: Vec<f64> = draws.iter().map(|&(c, b)| value(c, b)).collect();
            let got = keyed_median(&vals);
            let want = sort_median(&mut vals);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "n = {}", vals.len());
        }

        #[test]
        fn keys_round_trip_every_bit_pattern_and_follow_total_cmp(
            a in any::<u64>(),
            b in (0u8..7, any::<u64>()).prop_map(|(c, b)| value(c, b).to_bits()),
        ) {
            for bits in [a, b].into_iter().chain(SPECIAL) {
                prop_assert_eq!(unkey(key(f64::from_bits(bits))).to_bits(), bits);
            }
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(key(x).cmp(&key(y)), x.total_cmp(&y), "{:?} vs {:?}", x, y);
        }
    }

    #[test]
    fn keyed_median_matches_the_sort_oracle_at_every_length_to_1025() {
        let mut r = 0x2545_f491_4f6c_dd1du64;
        let pool: Vec<f64> = (0..1025u64)
            .map(|i| {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                value((i % 7) as u8, r)
            })
            .collect();
        for n in 0..=pool.len() {
            let got = keyed_median(&pool[..n]);
            let want = sort_median(&mut pool[..n].to_vec());
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}");
        }
    }

    /// A deterministic synthetic fleet row straight into the batch
    /// columns: uniform-ish sane rates with small per-machine jitter.
    fn fill_batch(batch: &mut SampleBatch, machines: usize, seed: u64, spike: Option<usize>) {
        use crate::col;
        batch.resize_rows(machines);
        let cols = batch.columns_mut();
        #[allow(clippy::needless_range_loop)] // `m` indexes many parallel columns at once
        for m in 0..machines {
            let mut r = (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (m as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
            let mut next = || {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                (r >> 11) as f64 / (1u64 << 53) as f64
            };
            // Discard the first draws: nearby seeds need a few rounds
            // to decorrelate, and the jitter must genuinely differ per
            // machine for the MAD to be realistic.
            for _ in 0..3 {
                next();
            }
            let jitter = 0.9 + 0.2 * next();
            let spiked = spike == Some(m);
            cols[col::NUM_CPUS][m] = 4.0;
            cols[col::ACTIVE][m] = 2.0 * jitter;
            cols[col::UPC][m] = 4.0 * jitter;
            // A spiked machine runs its memory/disk/io rates far above
            // the fleet but still inside the sanity caps.
            let boost = if spiked { 30.0 } else { 1.0 };
            cols[col::L3][m] = 8.0 * jitter * boost;
            cols[col::L3_SQ][m] = 16.0 * jitter * boost * boost;
            cols[col::BUS][m] = 2.0e4 * jitter * boost;
            cols[col::BUS_SQ][m] = 1.0e8 * jitter * boost * boost;
            cols[col::DMA][m] = 0.05 * jitter * boost;
            cols[col::DMA_SQ][m] = 6.25e-4 * jitter * boost * boost;
            cols[col::DISK_INT][m] = 2.0e-8 * jitter * boost;
            cols[col::DISK_INT_SQ][m] = 4.0e-16 * jitter * boost * boost;
            cols[col::DEV_INT][m] = 3.0e-8 * jitter * boost;
            cols[col::DEV_INT_SQ][m] = 9.0e-16 * jitter * boost * boost;
        }
    }

    fn estimates_for(
        est: &mut FleetEstimator,
        machines: usize,
        seed: u64,
        spike: Option<usize>,
    ) -> FleetEstimates {
        est.begin_window();
        fill_batch(est.batch_mut(), machines, seed, spike);
        est.estimate().clone()
    }

    #[test]
    fn clean_fleet_stays_normal_and_earns_decimation() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..12 {
            let e = estimates_for(&mut est, 32, w, None);
            det.update(&e);
        }
        assert!(det.warmed());
        let s = det.summary();
        assert_eq!((s.anomalous, s.suspect), (0, 0), "false positives");
        assert!(s.max_z < THRESHOLD, "z = {}", s.max_z);
        for m in 0..32 {
            assert_eq!(det.decimation(m), HEALTHY_DECIMATION);
        }
    }

    #[test]
    fn spiked_machine_is_flagged_immediately_and_recovers_through_hold() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..8 {
            let e = estimates_for(&mut est, 32, w, None);
            det.update(&e);
        }
        assert!(det.warmed());
        // Spike machine 7: flagged in the same window, full-rate again.
        let e = estimates_for(&mut est, 32, 100, Some(7));
        det.update(&e);
        assert_eq!(det.verdict(7), Verdict::Anomalous);
        assert_eq!(det.decimation(7), 1);
        assert_eq!(det.summary().anomalous, 1, "only the spiked machine");
        // Recovery: suspect for HOLD_WINDOWS, then normal again.
        for w in 0..HOLD_WINDOWS {
            let e = estimates_for(&mut est, 32, 200 + w as u64, None);
            det.update(&e);
            assert_eq!(det.verdict(7), Verdict::Suspect, "hold window {w}");
            assert_eq!(det.decimation(7), 1);
        }
        let e = estimates_for(&mut est, 32, 300, None);
        det.update(&e);
        assert_eq!(det.verdict(7), Verdict::Normal);
        assert_eq!(det.decimation(7), HEALTHY_DECIMATION);
    }

    #[test]
    fn no_verdicts_or_decimation_before_warmup() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        // Even a spike in window 0 stays Normal (no trustworthy
        // baseline yet) and everyone is sampled at full rate.
        let e = estimates_for(&mut est, 16, 1, Some(3));
        det.update(&e);
        assert!(!det.warmed());
        assert_eq!(det.verdict(3), Verdict::Normal);
        for m in 0..16 {
            assert_eq!(det.decimation(m), 1);
        }
    }

    /// The detector's statistics recomputed with [`sort_median`]: the
    /// scale ring and hysteresis holds it needs, nothing else.
    #[derive(Default)]
    struct SortReference {
        ring: [Vec<f64>; SUBSYSTEMS],
        head: usize,
        hold: Vec<u32>,
    }

    impl SortReference {
        /// One window: the baseline, whether the ring is full, and
        /// every machine's `(z, verdict)`.
        fn update(&mut self, est: &FleetEstimates) -> (Baseline, bool, Vec<(f64, Verdict)>) {
            let cap = BASELINE_WINDOWS;
            let cols = [est.cpu(), est.memory(), est.disk(), est.io()];
            let mut base = Baseline {
                med: [0.0; SUBSYSTEMS],
                denom: [0.0; SUBSYSTEMS],
            };
            for (s, col) in cols.iter().enumerate() {
                let med = sort_median(&mut col.to_vec());
                let mut dev: Vec<f64> = col.iter().map(|&v| (v - med).abs()).collect();
                let mad = sort_median(&mut dev);
                let denom = (1.4826 * mad).max(REL_FLOOR * med.abs() + 1e-12);
                if self.ring[s].len() < cap {
                    self.ring[s].push(denom);
                } else {
                    self.ring[s][self.head] = denom;
                }
                base.med[s] = med;
            }
            self.head = (self.head + 1) % cap;
            for s in 0..SUBSYSTEMS {
                base.denom[s] = sort_median(&mut self.ring[s].clone());
            }
            let warmed = self.ring[0].len() >= cap;
            self.hold.resize(est.len(), 0);
            let judged = (0..est.len())
                .map(|m| {
                    let x = cols.map(|c| c[m]);
                    let (z, v, hold) = judge(&base, x, self.hold[m], warmed);
                    self.hold[m] = hold;
                    (z, v)
                })
                .collect();
            (base, warmed, judged)
        }
    }

    #[test]
    fn detector_matches_a_sort_based_reference_bit_for_bit() {
        let bits = |a: [f64; SUBSYSTEMS]| a.map(f64::to_bits);
        for machines in [1usize, 2, 255, 256, 1024] {
            let mut est = FleetEstimator::new(SystemPowerModel::paper());
            let mut det = AnomalyDetector::default();
            let mut reference = SortReference::default();
            let (mut anomalous, mut suspect) = (0, 0);
            for w in 0..24u64 {
                // A spike every third window, on a machine that moves.
                let spike = (w % 3 == 0).then_some((w as usize * 7919) % machines);
                let e = estimates_for(&mut est, machines, w, spike);
                let cols = [e.cpu(), e.memory(), e.disk(), e.io()];
                let got = det.clone().refresh_baseline(&cols);
                det.update(&e);
                let (want, warmed, judged) = reference.update(&e);
                let at = format!("{machines} machines, window {w}");
                assert_eq!(bits(got.med), bits(want.med), "med, {at}");
                assert_eq!(bits(got.denom), bits(want.denom), "denom, {at}");
                assert_eq!(det.warmed(), warmed, "{at}");
                for (m, &(z, v)) in judged.iter().enumerate() {
                    let dec = if warmed && v == Verdict::Normal {
                        HEALTHY_DECIMATION
                    } else {
                        1
                    };
                    assert_eq!(det.z(m).to_bits(), z.to_bits(), "z, machine {m}, {at}");
                    assert_eq!(det.verdict(m), v, "verdict, machine {m}, {at}");
                    assert_eq!(det.decimation(m), dec, "decimation, machine {m}, {at}");
                    anomalous += u64::from(v == Verdict::Anomalous);
                    suspect += u64::from(v == Verdict::Suspect);
                }
            }
            if machines > 2 {
                assert!(
                    anomalous > 0 && suspect > 0,
                    "{machines} machines: spikes judged"
                );
            }
        }
    }

    #[test]
    fn summary_counts_only_the_latest_windows_machines() {
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let mut det = AnomalyDetector::default();
        for w in 0..8 {
            det.update(&estimates_for(&mut est, 32, w, None));
        }
        det.update(&estimates_for(&mut est, 32, 100, Some(30)));
        assert_eq!(det.summary().anomalous, 1);
        assert_eq!(det.verdict(30), Verdict::Anomalous);
        assert_eq!(det.decimation(30), 1);
        // The fleet shrinks: machine 30 is gone, and so is its state.
        det.update(&estimates_for(&mut est, 16, 101, None));
        let s = det.summary();
        assert_eq!((s.anomalous, s.suspect), (0, 0));
        assert!(s.max_z < THRESHOLD, "z = {}", s.max_z);
        assert_eq!(det.verdict(30), Verdict::Normal);
        assert_eq!(det.z(30).to_bits(), 0.0f64.to_bits());
        // The fleet regrows: the new machine 30 inherits no hold, so it
        // is judged Normal and granted decimation like its peers.
        det.update(&estimates_for(&mut est, 32, 102, None));
        for m in [15, 16, 30, 31] {
            assert_eq!(det.verdict(m), Verdict::Normal, "machine {m}");
            assert!(det.z(m) < THRESHOLD, "machine {m}");
            assert_eq!(det.decimation(m), HEALTHY_DECIMATION, "machine {m}");
        }
        assert_eq!(det.summary().anomalous + det.summary().suspect, 0);
    }
}

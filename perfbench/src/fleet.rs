//! The timed replay: captured traces driven across a fleet, one window
//! at a time, through the whole trickle-down controller.
//!
//! Each machine replays one of the twelve traces (a seeded shuffle of
//! machine ids, `id mod 12`) from its own seeded phase offset, with
//! `seq` rewritten to the window number. Each window runs
//!
//! 1. producer: `WireEncoder::should_send` / `push_sample_set` for every
//!    machine, then `take_bytes`;
//! 2. `ingest_serial_with`;
//! 3. `FleetEstimator::estimate`;
//! 4. `AnomalyDetector::update`;
//! 5. the `set_decimation` grants (adaptive workload only),
//!
//! back to back on one thread, one window in flight (a closed loop), so
//! the controller time (steps 2–5) is the capacity of one controller
//! core. After step 5 each window times the [`Reference`] kernel. The
//! clock is read at step boundaries only, never per frame. Fault
//! injection, correctness gates and scoring run between the timed spans.

use crate::reference::Reference;
use std::time::Instant;
use tdp_counters::{SampleSet, Subsystem};
use tdp_fleet::{AnomalyDetector, FleetEstimates, FleetEstimator};
use tdp_wire::frame::FrameType;
use tdp_wire::{
    ingest_serial_with, CursorItem, FaultKind, FaultPlan, FaultedWindow, FrameCursor, HealthState,
    IngestState, StreamReport, WireEncoder,
};
use trickledown::testbed::Trace;
use trickledown::SystemPowerModel;

/// How a workload drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every machine sends every window on a clean stream.
    Full,
    /// The anomaly → decimation loop is closed.
    Adaptive,
    /// Every window after the first is damaged by a `FaultPlan`.
    Chaos,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Spec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Fleet size.
    pub machines: usize,
    /// CPUs of the simulated server the traces are captured on.
    pub cpus: usize,
    /// How the fleet is driven.
    pub mode: Mode,
}

/// The benchmark's workloads (see `NOTES.md` for why each exists).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fleet-full",
        machines: 1024,
        cpus: 4,
        mode: Mode::Full,
    },
    Spec {
        name: "fleet-adaptive",
        machines: 1024,
        cpus: 4,
        mode: Mode::Adaptive,
    },
    Spec {
        name: "fleet-chaos",
        machines: 1024,
        cpus: 4,
        mode: Mode::Chaos,
    },
    Spec {
        name: "fleet-wide",
        machines: 256,
        cpus: 32,
        mode: Mode::Full,
    },
];

/// Windows run before anything is timed or scored: the detector's
/// 8-window baseline plus two 4-window decimation cycles, so the
/// adaptive fleet is in its steady state.
pub const WARMUP: u64 = 16;
/// Windows scored after the warm-up. Fixed, so that every count and
/// accuracy figure depends on the seed alone, not on host speed.
pub const SCORED: u64 = 240;
/// Every this many windows, the estimates are checked against the
/// in-memory estimator; the window after a check is not timed.
const CHECK_EVERY: u64 = 16;

/// Per-window timings in nanoseconds, one entry per timed window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Step 1, whole fleet.
    pub producer: Vec<f64>,
    /// Step 1 over the sample frames it sent.
    pub producer_per_frame: Vec<f64>,
    /// Steps 2–5, whole fleet (untraced windows only).
    pub controller: Vec<f64>,
    /// Steps 2–5 on traced windows.
    pub traced_controller: Vec<f64>,
    /// Step 2 on traced windows.
    pub ingest: Vec<f64>,
    /// Step 2 over the sample frames it decoded, traced windows.
    pub ingest_per_frame: Vec<f64>,
    /// Step 3 on traced windows.
    pub estimate: Vec<f64>,
    /// Step 4 on traced windows.
    pub anomaly: Vec<f64>,
    /// Step 5 on traced windows.
    pub grant: Vec<f64>,
    /// The [`Reference`] kernel run after the controller.
    pub reference: Vec<f64>,
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Fleet size.
    pub machines: usize,
    /// Timings of the timed windows.
    pub samples: Samples,
    /// Wall seconds spent replaying.
    pub wall_s: f64,
    /// On-CPU seconds of this thread while replaying (NaN, which fails a
    /// traced run, when `/proc/thread-self/schedstat` is unavailable).
    pub cpu_s: f64,
    /// Windows scored (at most [`SCORED`]).
    pub scored: u64,
    /// Clean wire bytes over the scored windows.
    pub wire_bytes: u64,
    /// Sample frames sent over the scored windows.
    pub sample_frames: u64,
    /// Layout frames sent over the scored windows.
    pub layout_frames: u64,
    /// Ingest counters summed over the scored windows.
    pub report: StreamReport,
    /// Scored windows whose `PipelineHealth` was not clean.
    pub degraded_windows: u64,
    /// Clamped predictions over the scored windows.
    pub clamped: u64,
    /// Anomalous or suspect machine-windows over the scored windows.
    pub flagged: u64,
    /// Rows written over the scored windows: the machine-windows that
    /// accuracy is scored on.
    pub scored_rows: u64,
    /// Per subsystem (cpu, memory, disk, io, chipset): sum over scored
    /// rows of |estimate − measured| / measured.
    pub rel_err_sum: [f64; 5],
    /// Per machine: estimated and measured energy over its scored rows,
    /// watt-milliseconds.
    pub energy: Vec<(f64, f64)>,
}

impl Outcome {
    /// Machine-windows scored.
    pub fn machine_windows(&self) -> u64 {
        self.scored * self.machines as u64
    }
}

/// Subsystem order of [`Outcome::rel_err_sum`].
pub const SUBSYSTEMS: [Subsystem; 5] = [
    Subsystem::Cpu,
    Subsystem::Memory,
    Subsystem::Disk,
    Subsystem::Io,
    Subsystem::Chipset,
];

fn estimate_of(e: &FleetEstimates, s: Subsystem, m: usize) -> f64 {
    match s {
        Subsystem::Cpu => e.cpu()[m],
        Subsystem::Memory => e.memory()[m],
        Subsystem::Disk => e.disk()[m],
        Subsystem::Io => e.io()[m],
        Subsystem::Chipset => e.chipset()[m],
    }
}

/// splitmix64 finaliser: a seeded, well-spread phase offset per machine.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This thread's on-CPU nanoseconds so far.
fn cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

fn ns(a: Instant, b: Instant) -> f64 {
    (b - a).as_nanos() as f64
}

/// Every injected fault kind must show up in the window's counters.
/// A reorder swaps frames of different machines and is benign by
/// construction, so it has no counter.
fn check_faults(
    w: u64,
    f: &FaultedWindow,
    rep: &StreamReport,
    unwritten: u64,
) -> Result<(), String> {
    let floors = [
        (
            "corrupt_frames",
            rep.corrupt_frames,
            f.count(FaultKind::BitFlip),
        ),
        (
            "resyncs",
            rep.resyncs,
            f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail),
        ),
        (
            "rows_quarantined",
            rep.rows_quarantined,
            f.count(FaultKind::RateSpike),
        ),
        (
            "resets_detected + duplicate_windows",
            rep.resets_detected + rep.duplicate_windows,
            f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame),
        ),
        (
            "held + stale rows",
            rep.rows_held + unwritten,
            f.count(FaultKind::DropFrame),
        ),
    ];
    for (name, got, injected) in floors {
        if got < injected {
            return Err(format!(
                "window {w}: {injected} injected faults but {name} = {got}"
            ));
        }
    }
    Ok(())
}

/// A replay in progress. It holds every piece of cross-window state, so
/// timing can run in several parts with other work (the repeated
/// set-ups) in between: the timed windows then sample the host over a
/// longer stretch of wall time.
pub struct Replay {
    spec: &'static Spec,
    traces: Vec<Trace>,
    traced: bool,
    /// Per machine: (trace, phase offset).
    assign: Vec<(usize, usize)>,
    plan: FaultPlan,
    enc: WireEncoder,
    state: IngestState,
    est: FleetEstimator,
    det: AnomalyDetector,
    check_est: FleetEstimator,
    check_sets: Vec<SampleSet>,
    /// Per machine: this window's record index.
    rec: Vec<usize>,
    /// Per machine: the record index of its last sent window.
    last_sent: Vec<usize>,
    /// Per machine: the decimation its last sent window announced.
    announced: Vec<u16>,
    /// Per machine: whether this window's ingest wrote its row.
    written: Vec<bool>,
    reference: Reference,
    /// The next window.
    w: u64,
    out: Outcome,
}

impl Replay {
    /// A replay of `traces` across `spec`'s fleet under `model`.
    pub fn new(
        spec: &'static Spec,
        traces: Vec<Trace>,
        model: &SystemPowerModel,
        seed: u64,
        traced: bool,
    ) -> Self {
        let n = spec.machines;
        // Machine ids are shuffled before taking `id mod 12`: a machine's
        // decimation phase is `id mod 4`, and unshuffled ids would give
        // each phase only three of the twelve workloads.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, (mix(seed ^ i as u64) % (i as u64 + 1)) as usize);
        }
        let assign = ids
            .iter()
            .enumerate()
            .map(|(m, &id)| {
                let t = id % traces.len();
                let off = mix(seed ^ (m as u64).wrapping_mul(0xa076_1d64_78bd_642f));
                (t, (off % traces[t].records.len() as u64) as usize)
            })
            .collect();
        Self {
            spec,
            traces,
            traced,
            assign,
            plan: FaultPlan::new(seed),
            enc: WireEncoder::new(),
            state: IngestState::new(),
            est: FleetEstimator::with_capacity(model.clone(), n),
            det: AnomalyDetector::default(),
            check_est: FleetEstimator::with_capacity(model.clone(), n),
            check_sets: Vec::with_capacity(n),
            rec: vec![0; n],
            last_sent: vec![0; n],
            announced: vec![1; n],
            written: vec![true; n],
            reference: Reference::default(),
            w: 0,
            out: Outcome {
                machines: n,
                energy: vec![(0.0, 0.0); n],
                ..Outcome::default()
            },
        }
    }

    /// Runs windows while `more(next window)` holds.
    ///
    /// # Errors
    ///
    /// A correctness gate failed; the message names the window and gate.
    pub fn run_while(&mut self, mut more: impl FnMut(u64) -> bool) -> Result<(), String> {
        let start = Instant::now();
        let cpu0 = cpu_ns();
        while more(self.w) {
            self.window()?;
            self.w += 1;
        }
        self.out.wall_s += start.elapsed().as_secs_f64();
        self.out.cpu_s += match (cpu0, cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 / 1e9,
            _ => f64::NAN,
        };
        Ok(())
    }

    /// Everything measured so far.
    pub fn finish(self) -> Outcome {
        self.out
    }

    fn window(&mut self) -> Result<(), String> {
        let (w, n, mode) = (self.w, self.spec.machines, self.spec.mode);
        let traces = &mut self.traces;
        for t in traces.iter_mut() {
            for r in &mut t.records {
                r.raw.seq = w;
            }
        }
        // Silent machines, and those among them whose new decimation is
        // not announced yet: `should_send` applies a grant at once, but
        // the grant reaches the wire only with the machine's next frame.
        let (mut silent, mut unannounced) = (0u64, 0u64);
        for m in 0..n {
            let (t, off) = self.assign[m];
            self.rec[m] = (off + w as usize) % traces[t].records.len();
            if self.enc.should_send(m as u64, w) {
                self.last_sent[m] = self.rec[m];
                self.announced[m] = self.enc.decimation(m as u64);
            } else {
                silent += 1;
                unannounced += u64::from(self.announced[m] == 1);
            }
        }
        // Traced and untraced windows alternate in blocks of four, so
        // both see every decimation phase alike.
        let traced = self.traced && (w / 4).is_multiple_of(2);

        // Step 1: every machine's agent.
        let t0 = Instant::now();
        let mut senders = 0u64;
        for (m, (&(t, _), &r)) in self.assign.iter().zip(&self.rec).enumerate() {
            if self.enc.should_send(m as u64, w) {
                self.enc
                    .push_sample_set(m as u64, &traces[t].records[r].raw)
                    .map_err(|e| format!("window {w}: machine {m} failed to encode: {e:?}"))?;
                senders += 1;
            }
        }
        let clean = self.enc.take_bytes();
        let t1 = Instant::now();

        let faulted = (mode == Mode::Chaos && w >= 1).then(|| self.plan.apply(w, &clean));
        let bytes = faulted.as_ref().map_or(&clean[..], |f| &f.bytes[..]);

        // Steps 2–5: the controller.
        let t2 = Instant::now();
        let rep = ingest_serial_with(&mut self.state, bytes, n, &mut self.est);
        let t3 = if traced { Instant::now() } else { t2 };
        let estimates = self.est.estimate();
        let t4 = if traced { Instant::now() } else { t2 };
        self.det.update(estimates);
        let t5 = if traced { Instant::now() } else { t2 };
        if mode == Mode::Adaptive {
            for m in 0..n {
                self.enc.set_decimation(m as u64, self.det.decimation(m));
            }
        }
        let t6 = Instant::now();
        std::hint::black_box(self.reference.run(w));
        let t7 = Instant::now();

        // Correctness gates. A machine silent for longer than the
        // degradation policy allows goes stale and gets no row; every
        // other machine gets one.
        for (m, wr) in self.written.iter_mut().enumerate() {
            *wr = !matches!(
                self.state.machine_health(m as u64),
                None | Some(HealthState::Stale)
            );
        }
        let unwritten = self.written.iter().filter(|&&wr| !wr).count() as u64;
        if rep.rows_written + unwritten != n as u64 {
            return Err(format!(
                "window {w}: {} rows written and {unwritten} machines stale in a fleet of {n}",
                rep.rows_written
            ));
        }
        if let Some(f) = &faulted {
            check_faults(w, f, &rep, unwritten)?;
        }
        // On a clean stream a silent machine is reconstructed when its
        // decimation was announced and held (at most until its next
        // frame) when it was not; nothing goes stale.
        let expect = (unannounced, silent - unannounced, 0);
        let got = (rep.rows_held, rep.rows_reconstructed, rep.machines_stale);
        if mode != Mode::Chaos && got != expect {
            return Err(format!(
                "window {w}: (held, reconstructed, stale) rows are {got:?}, expected {expect:?}"
            ));
        }
        if mode != Mode::Chaos && w.is_multiple_of(CHECK_EVERY) {
            // Every row is either this window's fresh frame or a
            // reconstruction of the machine's last sent one, so the wire
            // path must match in-memory estimation of those sets bit for
            // bit.
            self.check_sets.clear();
            self.check_sets.extend(
                self.assign
                    .iter()
                    .zip(&self.last_sent)
                    .map(|(&(t, _), &r)| traces[t].records[r].raw.clone()),
            );
            let want = self.check_est.process_window(&self.check_sets);
            let cols = |e: &FleetEstimates| {
                [
                    e.cpu(),
                    e.memory(),
                    e.disk(),
                    e.io(),
                    e.chipset(),
                    e.total(),
                ]
                .map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
            };
            if cols(want) != cols(self.est.estimates()) {
                return Err(format!(
                    "window {w}: wire-path estimates differ from FleetEstimator::process_window"
                ));
            }
        }

        // Timing.
        if w >= WARMUP && w % CHECK_EVERY != 1 {
            let s = &mut self.out.samples;
            s.reference.push(ns(t6, t7));
            s.producer.push(ns(t0, t1));
            s.producer_per_frame
                .push(ns(t0, t1) / senders.max(1) as f64);
            if traced {
                s.traced_controller.push(ns(t2, t6));
                s.ingest.push(ns(t2, t3));
                s.ingest_per_frame
                    .push(ns(t2, t3) / rep.sample_frames.max(1) as f64);
                s.estimate.push(ns(t3, t4));
                s.anomaly.push(ns(t4, t5));
                s.grant.push(ns(t5, t6));
            } else {
                s.controller.push(ns(t2, t6));
            }
        }

        // Scoring.
        if (WARMUP..WARMUP + SCORED).contains(&w) {
            let out = &mut self.out;
            out.scored += 1;
            out.wire_bytes += clean.len() as u64;
            out.sample_frames += senders;
            out.layout_frames += FrameCursor::new(&clean)
                .filter(|i| {
                    matches!(i, CursorItem::Frame { header, .. } if header.frame_type == FrameType::Layout)
                })
                .count() as u64;
            out.report.absorb(&rep);
            out.degraded_windows += u64::from(!rep.health().is_clean());
            let e = self.est.estimates();
            out.clamped += e.clamped_predictions();
            let summary = self.det.summary();
            out.flagged += summary.anomalous + summary.suspect;
            out.scored_rows += n as u64 - unwritten;
            for m in (0..n).filter(|&m| self.written[m]) {
                let (t, _) = self.assign[m];
                let meas = &traces[t].records[self.rec[m]].measured;
                for (sum, &s) in out.rel_err_sum.iter_mut().zip(&SUBSYSTEMS) {
                    let truth = meas.watts.get(s);
                    *sum += (estimate_of(e, s, m) - truth).abs() / truth;
                }
                let window_ms = meas.window_ms as f64;
                out.energy[m].0 += e.total()[m] * window_ms;
                out.energy[m].1 += meas.watts.total() * window_ms;
            }
        }
        Ok(())
    }
}

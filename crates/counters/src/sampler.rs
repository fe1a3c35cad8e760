//! Sampling driver and sample records.

use crate::event::PerfEvent;
use crate::interrupts::InterruptSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a physical CPU package (0-based).
///
/// # Example
///
/// ```
/// use tdp_counters::CpuId;
///
/// let cpu = CpuId::new(3);
/// assert_eq!(cpu.as_usize(), 3);
/// assert_eq!(cpu.to_string(), "cpu3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuId(u8);

impl CpuId {
    /// Creates a CPU id.
    pub fn new(id: u8) -> Self {
        Self(id)
    }

    /// The id as an array index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl From<u8> for CpuId {
    fn from(id: u8) -> Self {
        Self::new(id)
    }
}

/// Event totals read from one CPU's counter bank over one sampling window.
///
/// Counts are stored sparsely as `(event, total)` pairs in event
/// declaration order. A [`SampleSet`] does not hold these: it keeps one
/// layout for all its CPUs and their counts in one event-major block, and
/// [`SampleSet::from_samples`] builds one from per-CPU samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    cpu: CpuId,
    seq: u64,
    counts: Vec<(PerfEvent, u64)>,
}

impl CounterSample {
    /// Creates a sample. `counts` should be in event declaration order, as
    /// produced by [`CounterBank::read_and_clear`](crate::CounterBank::read_and_clear).
    pub fn new(cpu: CpuId, seq: u64, counts: Vec<(PerfEvent, u64)>) -> Self {
        Self { cpu, seq, counts }
    }

    /// The CPU the sample was read from.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Monotonic sequence number shared with the [`SyncPulse`](crate::SyncPulse)
    /// emitted at the same sampling.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total count of `event` over the window, or `None` if the event was
    /// not programmed.
    pub fn count(&self, event: PerfEvent) -> Option<u64> {
        self.counts
            .iter()
            .find(|(e, _)| *e == event)
            .map(|&(_, c)| c)
    }

    /// `event` count divided by the window's unhalted-cycle count — the
    /// per-cycle rate the paper builds every model input from (§3.3
    /// "Cycles"). Returns `None` if either event is missing, and 0.0 when
    /// the cycle count is zero (a fully halted window).
    pub fn rate_per_cycle(&self, event: PerfEvent) -> Option<f64> {
        let cycles = self.count(PerfEvent::Cycles)?;
        let n = self.count(event)?;
        Some(if cycles == 0 {
            0.0
        } else {
            n as f64 / cycles as f64
        })
    }

    /// Iterates over `(event, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PerfEvent, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// The raw `(event, count)` pairs, in the order they were read.
    pub fn counts(&self) -> &[(PerfEvent, u64)] {
        &self.counts
    }

    /// Re-tags the sample and replaces its counts in place, keeping the
    /// pair vector's capacity — the refill path behind
    /// [`CounterBank::read_and_clear_into`](crate::CounterBank::read_and_clear_into),
    /// for callers that cycle a fixed pool of sample buffers instead of
    /// allocating one per read.
    pub fn refill(
        &mut self,
        cpu: CpuId,
        seq: u64,
        pairs: impl IntoIterator<Item = (PerfEvent, u64)>,
    ) {
        self.cpu = cpu;
        self.seq = seq;
        self.counts.clear();
        self.counts.extend(pairs);
    }
}

/// Why per-CPU samples cannot form one [`SampleSet`]: a CPU's event list
/// differs, in events or in order, from CPU 0's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedLayoutError {
    /// The position, in the samples given, of the first CPU that
    /// disagrees.
    pub cpu: usize,
}

impl fmt::Display for MixedLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CPU {} programs a different event list than CPU 0",
            self.cpu
        )
    }
}

impl std::error::Error for MixedLayoutError {}

/// One synchronized read of every CPU's counters plus the OS interrupt
/// accounting, tagged with simulated time.
///
/// Every CPU counts the same events (the paper programs one event set on
/// all four CPUs, §3), so a set holds one event layout,
/// [`events`](Self::events), and one event-major block of counts:
/// [`counts`](Self::counts)`[e · cpus + c]` is event `events[e]` on CPU
/// `c`. An event's counts across CPUs, its *plane*, are contiguous. CPUs
/// that disagree on the layout cannot be represented:
/// [`from_samples`](Self::from_samples) refuses them. A set with no CPUs
/// has no layout.
///
/// # Example
///
/// ```
/// use tdp_counters::{CounterSample, CpuId, PerfEvent, SampleSet};
///
/// let cpu = |id, cycles| {
///     let counts = vec![(PerfEvent::Cycles, cycles), (PerfEvent::L2Misses, 3)];
///     CounterSample::new(CpuId::new(id), 0, counts)
/// };
/// let set = SampleSet::from_samples(&[cpu(0, 10), cpu(1, 20)])?;
/// assert_eq!(set.counts(), [10, 20, 3, 3]);
/// assert_eq!(set.plane(PerfEvent::Cycles), Some(&[10, 20][..]));
/// assert_eq!(set.total(PerfEvent::L2Misses), Some(6));
///
/// let short = CounterSample::new(CpuId::new(1), 0, vec![(PerfEvent::Cycles, 20)]);
/// assert!(SampleSet::from_samples(&[cpu(0, 10), short]).is_err());
/// # Ok::<(), tdp_counters::MixedLayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampleSet {
    /// Simulated time at the end of the window, in milliseconds.
    pub time_ms: u64,
    /// Length of the window in milliseconds (nominally 1000, with jitter).
    pub window_ms: u64,
    /// Monotonic sequence number (matches the sync pulse).
    pub seq: u64,
    events: Vec<PerfEvent>,
    cpus: usize,
    counts: Vec<u64>,
    /// OS interrupt-source deltas over the same window.
    pub interrupts: InterruptSnapshot,
}

/// The deserialized face of [`SampleSet`], checked for a block that
/// matches its layout before it becomes one.
#[derive(Deserialize)]
struct SetRepr {
    time_ms: u64,
    window_ms: u64,
    seq: u64,
    events: Vec<PerfEvent>,
    cpus: usize,
    counts: Vec<u64>,
    interrupts: InterruptSnapshot,
}

impl Deserialize for SampleSet {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        let r = SetRepr::deserialize_json(p)?;
        let cells = r.events.len().checked_mul(r.cpus);
        if cells != Some(r.counts.len()) || (r.cpus == 0 && !r.events.is_empty()) {
            return Err(serde::de::Error::new("counts do not match events × cpus"));
        }
        Ok(Self {
            time_ms: r.time_ms,
            window_ms: r.window_ms,
            seq: r.seq,
            events: r.events,
            cpus: r.cpus,
            counts: r.counts,
            interrupts: r.interrupts,
        })
    }
}

impl SampleSet {
    /// An empty set suitable as the reusable buffer for in-place refills
    /// (e.g. `Machine::read_counters_into` in `tdp-simsys`).
    pub fn empty() -> Self {
        Self {
            time_ms: 0,
            window_ms: 0,
            seq: 0,
            events: Vec::new(),
            cpus: 0,
            counts: Vec::new(),
            interrupts: InterruptSnapshot::default(),
        }
    }

    /// The set of per-CPU `samples`, CPU `c` being `samples[c]`, for
    /// tests and custom producers. The sequence number is CPU 0's; the
    /// times are zero and the interrupt deltas empty until the caller
    /// sets them.
    ///
    /// # Errors
    ///
    /// [`MixedLayoutError`] if any CPU's event list differs from CPU 0's
    /// in events or order.
    pub fn from_samples(samples: &[CounterSample]) -> Result<Self, MixedLayoutError> {
        let mut set = Self::empty();
        let Some(first) = samples.first() else {
            return Ok(set);
        };
        set.seq = first.seq;
        let cpus = samples.len();
        let block = set.reset(first.iter().map(|p| p.0), cpus);
        for (c, s) in samples.iter().enumerate() {
            let same = s.counts.len() == first.counts.len()
                && s.iter().zip(first.iter()).all(|(a, b)| a.0 == b.0);
            if !same {
                return Err(MixedLayoutError { cpu: c });
            }
            for (e, &(_, n)) in s.counts.iter().enumerate() {
                block[e * cpus + c] = n;
            }
        }
        Ok(set)
    }

    /// Re-lays the set out as `cpus` CPUs over `events` and returns its
    /// zeroed block for the caller to fill in place (entry `e · cpus + c`
    /// is event `e` on CPU `c`). Storage is reused, so a producer that
    /// refills one set every window does not allocate once it has grown.
    /// With no CPUs the set has no layout and the block is empty.
    pub fn reset(
        &mut self,
        events: impl IntoIterator<Item = PerfEvent>,
        cpus: usize,
    ) -> &mut [u64] {
        self.events.clear();
        if cpus > 0 {
            self.events.extend(events);
        }
        self.cpus = cpus;
        self.counts.clear();
        self.counts.resize(self.events.len() * cpus, 0);
        &mut self.counts
    }

    /// The event layout every CPU of the set shares, in read order.
    pub fn events(&self) -> &[PerfEvent] {
        &self.events
    }

    /// The event-major block: entry `e · cpus + c` is
    /// [`events`](Self::events)`[e]` on CPU `c`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `event`'s counts on every CPU, CPU 0 first, from its first
    /// occurrence in the layout; `None` if it was not programmed.
    pub fn plane(&self, event: PerfEvent) -> Option<&[u64]> {
        let e = self.events.iter().position(|&x| x == event)?;
        Some(&self.counts[e * self.cpus..(e + 1) * self.cpus])
    }

    /// Sum of `event` over all CPUs; `None` if it was not programmed.
    pub fn total(&self, event: PerfEvent) -> Option<u64> {
        self.plane(event).map(|p| p.iter().sum())
    }

    /// Number of CPUs in the set.
    pub fn num_cpus(&self) -> usize {
        self.cpus
    }
}

/// Configuration for the [`SamplingDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Nominal sampling period in milliseconds (paper: 1000).
    pub period_ms: u64,
    /// Maximum absolute jitter applied to each period, in milliseconds.
    /// The paper notes the actual sampling rate "varies slightly due to
    /// cache effects and interrupt latency" (§3.3 "Cycles").
    pub max_jitter_ms: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            period_ms: 1000,
            max_jitter_ms: 3,
        }
    }
}

/// Decides *when* counters are read, reproducing the paper's 1 Hz
/// self-sampling with jitter.
///
/// The driver is a pure schedule: the caller advances simulated time with
/// [`poll`](SamplingDriver::poll) and performs the actual bank reads when
/// it returns a sequence number. Jitter is supplied by the caller (the
/// machine's RNG) through [`set_next_jitter`](SamplingDriver::set_next_jitter)
/// so this crate stays free of RNG dependencies.
///
/// # Example
///
/// ```
/// use tdp_counters::{SamplerConfig, SamplingDriver};
///
/// let mut driver = SamplingDriver::new(SamplerConfig { period_ms: 1000, max_jitter_ms: 0 });
/// assert_eq!(driver.poll(999), None);
/// assert_eq!(driver.poll(1000), Some(0));
/// assert_eq!(driver.poll(1001), None, "already fired for this window");
/// assert_eq!(driver.poll(2000), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct SamplingDriver {
    config: SamplerConfig,
    next_due_ms: u64,
    next_jitter_ms: i64,
    seq: u64,
    last_fire_ms: u64,
}

impl SamplingDriver {
    /// Creates a driver that first fires one period after time zero.
    pub fn new(config: SamplerConfig) -> Self {
        Self {
            config,
            next_due_ms: config.period_ms,
            next_jitter_ms: 0,
            seq: 0,
            last_fire_ms: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// Sets the jitter (clamped to ±`max_jitter_ms`) added to the *next*
    /// firing time.
    pub fn set_next_jitter(&mut self, jitter_ms: i64) {
        let max = self.config.max_jitter_ms as i64;
        self.next_jitter_ms = jitter_ms.clamp(-max, max);
    }

    /// Advances to `now_ms`; returns the sample sequence number if a
    /// sampling is due.
    pub fn poll(&mut self, now_ms: u64) -> Option<u64> {
        let due = self.next_due_ms.saturating_add_signed(self.next_jitter_ms);
        if now_ms >= due {
            let seq = self.seq;
            self.seq += 1;
            self.last_fire_ms = now_ms;
            self.next_due_ms = now_ms + self.config.period_ms;
            self.next_jitter_ms = 0;
            Some(seq)
        } else {
            None
        }
    }

    /// Time of the most recent firing (0 before the first).
    pub fn last_fire_ms(&self) -> u64 {
        self.last_fire_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_per_cycle_handles_zero_cycles() {
        let s = CounterSample::new(
            CpuId::new(0),
            0,
            vec![(PerfEvent::Cycles, 0), (PerfEvent::FetchedUops, 0)],
        );
        assert_eq!(s.rate_per_cycle(PerfEvent::FetchedUops), Some(0.0));
    }

    #[test]
    fn rate_per_cycle_missing_event_is_none() {
        let s = CounterSample::new(CpuId::new(0), 0, vec![(PerfEvent::Cycles, 10)]);
        assert_eq!(s.rate_per_cycle(PerfEvent::TlbMisses), None);
    }

    /// The serialized form is the flat struct shape
    /// `{"cpu":..,"seq":..,"counts":[..]}`, and round-trips exactly.
    #[test]
    fn counter_sample_serializes_as_a_flat_struct() {
        let pairs = vec![(PerfEvent::Cycles, 1), (PerfEvent::L2Misses, 8)];
        let s = CounterSample::new(CpuId::new(3), 9, pairs);
        let json = serde_json::to_string(&s).unwrap();
        let flat = r#"{"cpu":3,"seq":9,"counts":[["Cycles",1],["L2Misses",8]]}"#;
        assert_eq!(json, flat);
        let back: CounterSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    fn set_of(per_cpu: &[Vec<(PerfEvent, u64)>]) -> Result<SampleSet, MixedLayoutError> {
        let samples: Vec<CounterSample> = per_cpu
            .iter()
            .enumerate()
            .map(|(c, pairs)| CounterSample::new(CpuId::new(c as u8), 4, pairs.clone()))
            .collect();
        SampleSet::from_samples(&samples)
    }

    #[test]
    fn sample_set_total_sums_across_cpus() {
        let mk = |n| vec![(PerfEvent::L2Misses, n)];
        let set = set_of(&[mk(5), mk(7)]).unwrap();
        assert_eq!(set.total(PerfEvent::L2Misses), Some(12));
        assert_eq!(set.total(PerfEvent::Cycles), None);
    }

    #[test]
    fn from_samples_lays_the_block_out_event_major() {
        let cpu = |c: u64| vec![(PerfEvent::Cycles, 10 + c), (PerfEvent::L2Misses, 20 + c)];
        let set = set_of(&[cpu(0), cpu(1), cpu(2)]).unwrap();
        assert_eq!((set.seq, set.num_cpus()), (4, 3));
        assert_eq!(set.events(), [PerfEvent::Cycles, PerfEvent::L2Misses]);
        assert_eq!(set.counts(), [10, 11, 12, 20, 21, 22]);
        assert_eq!(set.plane(PerfEvent::L2Misses), Some(&[20, 21, 22][..]));
        // No CPUs: no layout.
        let empty = SampleSet::from_samples(&[]).unwrap();
        assert!(empty.events().is_empty() && empty.counts().is_empty());
    }

    #[test]
    fn from_samples_rejects_cpus_that_disagree_on_the_layout() {
        let good = vec![
            (PerfEvent::Cycles, 10),
            (PerfEvent::HaltedCycles, 20),
            (PerfEvent::L2Misses, 30),
        ];
        // A later CPU programs a different event in one slot, the same
        // events in another order, or fewer events.
        let swapped = vec![
            (PerfEvent::Cycles, 11),
            (PerfEvent::TlbMisses, 19),
            (PerfEvent::L2Misses, 31),
        ];
        let mut reordered = good.clone();
        reordered.swap(0, 1);
        let short = vec![(PerfEvent::Cycles, 11)];
        for bad in [swapped, reordered, short] {
            let err = set_of(&[good.clone(), good.clone(), bad]).unwrap_err();
            assert_eq!(err, MixedLayoutError { cpu: 2 });
        }
    }

    #[test]
    fn deserialization_rejects_a_block_that_does_not_fit_the_layout() {
        let set = set_of(&[vec![(PerfEvent::Cycles, 1)], vec![(PerfEvent::Cycles, 2)]]).unwrap();
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(serde_json::from_str::<SampleSet>(&json).unwrap(), set);
        let bad = json.replace(r#""cpus":2"#, r#""cpus":3"#);
        assert!(serde_json::from_str::<SampleSet>(&bad).is_err());
    }

    #[test]
    fn driver_applies_positive_and_negative_jitter() {
        let mut d = SamplingDriver::new(SamplerConfig {
            period_ms: 1000,
            max_jitter_ms: 5,
        });
        d.set_next_jitter(3);
        assert_eq!(d.poll(1002), None);
        assert_eq!(d.poll(1003), Some(0));
        d.set_next_jitter(-5);
        assert_eq!(d.poll(1998), Some(1), "fires 5 ms early");
    }

    #[test]
    fn driver_clamps_jitter_to_config() {
        let mut d = SamplingDriver::new(SamplerConfig {
            period_ms: 1000,
            max_jitter_ms: 2,
        });
        d.set_next_jitter(1_000_000);
        assert_eq!(d.poll(1002), Some(0), "jitter clamped to +2 ms");
    }

    #[test]
    fn driver_periods_measured_from_actual_fire_time() {
        let mut d = SamplingDriver::new(SamplerConfig {
            period_ms: 100,
            max_jitter_ms: 0,
        });
        // Fire late at 130; next window is anchored at 230, not 200.
        assert_eq!(d.poll(130), Some(0));
        assert_eq!(d.poll(229), None);
        assert_eq!(d.poll(230), Some(1));
    }
}

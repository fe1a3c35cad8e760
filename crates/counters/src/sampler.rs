//! Sampling driver and sample records.

use crate::bank::MAX_HARDWARE_COUNTERS;
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

/// Flat, allocation-free storage for a sample's `(event, count)`
/// pairs: one inline slot per hardware counter, with a heap spill arm
/// only for over-subscribed synthetic layouts (exploration mode lists
/// more events than a real PMU can count at once).
///
/// Because every sample a [`CounterBank`](crate::CounterBank) can
/// produce fits inline, a `Vec<CounterSample>` (e.g.
/// [`SampleSet::per_cpu`]) is a single contiguous arena of fixed-size,
/// stride-indexed records — readers walk it with no per-CPU pointer
/// chase, and in-place refills touch no allocator.
// The size gap between arms is the design: the big inline arm keeps
// the hot path allocation-free, and boxing it would reintroduce the
// pointer chase this type exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum CountStore {
    /// Up to [`MAX_HARDWARE_COUNTERS`] pairs stored in place.
    Inline {
        len: u8,
        buf: [(PerfEvent, u64); MAX_HARDWARE_COUNTERS],
    },
    /// More pairs than the hardware can count simultaneously; kept (and
    /// capacity-reused) on the heap.
    Spilled(Vec<(PerfEvent, u64)>),
}

impl CountStore {
    /// Filler for unused inline slots — never visible through
    /// [`as_slice`](Self::as_slice), which stops at `len`.
    const EMPTY_SLOT: (PerfEvent, u64) = (PerfEvent::Cycles, 0);

    fn from_vec(v: Vec<(PerfEvent, u64)>) -> Self {
        if v.len() <= MAX_HARDWARE_COUNTERS {
            let mut buf = [Self::EMPTY_SLOT; MAX_HARDWARE_COUNTERS];
            buf[..v.len()].copy_from_slice(&v);
            CountStore::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            CountStore::Spilled(v)
        }
    }

    #[inline]
    fn as_slice(&self) -> &[(PerfEvent, u64)] {
        match self {
            CountStore::Inline { len, buf } => &buf[..*len as usize],
            CountStore::Spilled(v) => v,
        }
    }

    fn clear(&mut self) {
        match self {
            CountStore::Inline { len, .. } => *len = 0,
            // Keep the spilled capacity: a producer that once
            // over-subscribed will likely do so again.
            CountStore::Spilled(v) => v.clear(),
        }
    }

    fn push(&mut self, pair: (PerfEvent, u64)) {
        match self {
            CountStore::Inline { len, buf } => {
                if (*len as usize) < MAX_HARDWARE_COUNTERS {
                    buf[*len as usize] = pair;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(MAX_HARDWARE_COUNTERS * 2);
                    v.extend_from_slice(buf);
                    v.push(pair);
                    *self = CountStore::Spilled(v);
                }
            }
            CountStore::Spilled(v) => v.push(pair),
        }
    }
}

/// The deserialized face of [`CounterSample`] — the pre-arena struct
/// shape, so stored samples round-trip unchanged no matter which
/// [`CountStore`] arm holds them in memory.
#[derive(Deserialize)]
struct SampleRepr {
    cpu: CpuId,
    seq: u64,
    counts: Vec<(PerfEvent, u64)>,
}

/// Event totals read from one CPU's counter bank over one sampling window.
///
/// Counts are stored sparsely as `(event, total)` pairs in event
/// declaration order — inline (flat, fixed-stride) for anything real
/// hardware can produce, so collections of samples are contiguous
/// arenas rather than vectors of heap pointers.
#[derive(Clone)]
pub struct CounterSample {
    cpu: CpuId,
    seq: u64,
    counts: CountStore,
}

/// Hand-rolled to keep the serialized shape exactly what the derive
/// produced when `counts` was a `Vec` — `{"cpu":..,"seq":..,"counts":
/// [..]}` — independent of the in-memory `CountStore` arm.
impl Serialize for CounterSample {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"cpu\":");
        self.cpu.serialize_json(out);
        out.push_str(",\"seq\":");
        self.seq.serialize_json(out);
        out.push_str(",\"counts\":[");
        for (i, pair) in self.counts.as_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            pair.serialize_json(out);
        }
        out.push_str("]}");
    }
}

impl Deserialize for CounterSample {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        SampleRepr::deserialize_json(p).map(|r| CounterSample::new(r.cpu, r.seq, r.counts))
    }
}

impl fmt::Debug for CounterSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterSample")
            .field("cpu", &self.cpu)
            .field("seq", &self.seq)
            .field("counts", &self.counts.as_slice())
            .finish()
    }
}

/// Samples compare by what they expose, not by storage arm: an inline
/// store equals a spilled one holding the same pairs.
impl PartialEq for CounterSample {
    fn eq(&self, other: &Self) -> bool {
        self.cpu == other.cpu && self.seq == other.seq && self.counts() == other.counts()
    }
}

impl Eq for CounterSample {}

impl CounterSample {
    /// Creates a sample. `counts` should be in event declaration order, as
    /// produced by [`CounterBank::read_and_clear`](crate::CounterBank::read_and_clear).
    pub fn new(cpu: CpuId, seq: u64, counts: Vec<(PerfEvent, u64)>) -> Self {
        Self {
            cpu,
            seq,
            counts: CountStore::from_vec(counts),
        }
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
            .as_slice()
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
        self.counts.as_slice().iter().copied()
    }

    /// The raw `(event, count)` pairs, in the order they were read.
    ///
    /// Inlined so batch ingestion (`tdp-fleet`) can walk the pairs
    /// without an opaque-iterator call per sample.
    #[inline]
    pub fn counts(&self) -> &[(PerfEvent, u64)] {
        self.counts.as_slice()
    }

    /// Re-tags the sample and clears its counts for refilling in place
    /// with [`push_count`](Self::push_count) — the store-reuse path
    /// behind
    /// [`CounterBank::read_and_clear_into`](crate::CounterBank::read_and_clear_into).
    pub(crate) fn reset_for(&mut self, cpu: CpuId, seq: u64) {
        self.cpu = cpu;
        self.seq = seq;
        self.counts.clear();
    }

    /// Appends one `(event, count)` pair (spilling to the heap only
    /// past the hardware-counter limit).
    pub(crate) fn push_count(&mut self, pair: (PerfEvent, u64)) {
        self.counts.push(pair);
    }

    /// Re-tags the sample and replaces its counts in place, reusing the
    /// existing store (the inline buffer, or a spilled allocation) —
    /// the public face of the refill path behind
    /// [`CounterBank::read_and_clear_into`](crate::CounterBank::read_and_clear_into),
    /// for callers that cycle a fixed pool of sample buffers instead of
    /// allocating one per read.
    pub fn refill(
        &mut self,
        cpu: CpuId,
        seq: u64,
        pairs: impl IntoIterator<Item = (PerfEvent, u64)>,
    ) {
        self.reset_for(cpu, seq);
        for pair in pairs {
            self.counts.push(pair);
        }
    }
}

/// One synchronized read of every CPU's counters plus the OS interrupt
/// accounting, tagged with simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    /// Simulated time at the end of the window, in milliseconds.
    pub time_ms: u64,
    /// Length of the window in milliseconds (nominally 1000, with jitter).
    pub window_ms: u64,
    /// Monotonic sequence number (matches the sync pulse).
    pub seq: u64,
    /// One sample per CPU, indexed by CPU id. Samples store their
    /// counts inline, so this vector is one contiguous, stride-indexed
    /// arena — extraction walks it without per-CPU pointer chases.
    pub per_cpu: Vec<CounterSample>,
    /// OS interrupt-source deltas over the same window.
    pub interrupts: InterruptSnapshot,
}

impl SampleSet {
    /// An empty set suitable as the reusable buffer for in-place refills
    /// (e.g. `Machine::read_counters_into` in `tdp-simsys`).
    pub fn empty() -> Self {
        Self {
            time_ms: 0,
            window_ms: 0,
            seq: 0,
            per_cpu: Vec::new(),
            interrupts: InterruptSnapshot::default(),
        }
    }

    /// Sum of `event` over all CPUs; `None` if any CPU lacks the event.
    pub fn total(&self, event: PerfEvent) -> Option<u64> {
        self.per_cpu.iter().map(|s| s.count(event)).sum()
    }

    /// Number of CPUs in the set.
    pub fn num_cpus(&self) -> usize {
        self.per_cpu.len()
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

    /// The inline/spilled split is invisible: every accessor, equality
    /// and the serialized form behave identically on both arms, and
    /// pushing past the hardware limit spills without losing pairs.
    #[test]
    fn count_store_spill_is_invisible() {
        let inline_pairs: Vec<(PerfEvent, u64)> = PerfEvent::ALL
            .iter()
            .take(MAX_HARDWARE_COUNTERS)
            .enumerate()
            .map(|(i, &e)| (e, i as u64 * 7 + 1))
            .collect();
        let spilled_pairs: Vec<(PerfEvent, u64)> = PerfEvent::ALL
            .iter()
            .cycle()
            .take(MAX_HARDWARE_COUNTERS + 15)
            .enumerate()
            .map(|(i, &e)| (e, i as u64))
            .collect();
        assert_eq!(PerfEvent::ALL.len(), MAX_HARDWARE_COUNTERS);

        let a = CounterSample::new(CpuId::new(3), 9, inline_pairs.clone());
        assert_eq!(a.counts(), inline_pairs.as_slice());
        let b = CounterSample::new(CpuId::new(3), 9, spilled_pairs.clone());
        assert_eq!(b.counts(), spilled_pairs.as_slice());
        assert_ne!(a, b);

        // Refill in place from empty past the limit: spills, keeps all.
        let mut c = CounterSample::new(CpuId::new(0), 0, Vec::new());
        c.reset_for(CpuId::new(3), 9);
        for &p in &spilled_pairs {
            c.push_count(p);
        }
        assert_eq!(c, b, "pushed-past-limit sample equals the spilled one");

        // A spilled store refilled with few pairs still compares equal
        // to an inline-born sample (equality is by exposed pairs).
        c.reset_for(CpuId::new(3), 9);
        for &p in &inline_pairs {
            c.push_count(p);
        }
        assert_eq!(c, a);

        // Serialized form is the pre-arena struct shape — exactly what
        // the derive emits for {cpu, seq, counts: Vec} — for both arms,
        // and round-trips exactly.
        #[derive(Serialize)]
        struct FlatShape {
            cpu: CpuId,
            seq: u64,
            counts: Vec<(PerfEvent, u64)>,
        }
        for (s, pairs) in [(&a, &inline_pairs), (&b, &spilled_pairs)] {
            let json = serde_json::to_string(s).unwrap();
            let flat = FlatShape {
                cpu: CpuId::new(3),
                seq: 9,
                counts: pairs.clone(),
            };
            assert_eq!(
                json,
                serde_json::to_string(&flat).unwrap(),
                "serialized shape must be the flat struct"
            );
            let back: CounterSample = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, s);
        }
    }

    #[test]
    fn sample_set_total_sums_across_cpus() {
        let mk = |cpu, n| CounterSample::new(CpuId::new(cpu), 0, vec![(PerfEvent::L2Misses, n)]);
        let set = SampleSet {
            time_ms: 1000,
            window_ms: 1000,
            seq: 0,
            per_cpu: vec![mk(0, 5), mk(1, 7)],
            interrupts: InterruptSnapshot::default(),
        };
        assert_eq!(set.total(PerfEvent::L2Misses), Some(12));
        assert_eq!(set.total(PerfEvent::Cycles), None);
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

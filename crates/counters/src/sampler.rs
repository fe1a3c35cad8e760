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

/// One synchronized read of every CPU's counters plus the OS interrupt
/// accounting, tagged with simulated time.
///
/// Every CPU counts the same events (the paper programs one event set on
/// all four CPUs, §3), so a set holds one event layout,
/// [`events`](Self::events), and one event-major block of counts:
/// [`counts`](Self::counts)`[e · cpus + c]` is event `events[e]` on CPU
/// `c`. An event's counts across CPUs, its *plane*, are contiguous, and
/// CPUs that disagree on the layout cannot be represented. A set with no
/// CPUs has no layout.
///
/// A producer fills a set in place with [`reset`](Self::reset): a
/// machine hands each CPU's [`CounterBank`](crate::CounterBank) the
/// returned block through
/// [`read_and_clear_column`](crate::CounterBank::read_and_clear_column).
///
/// # Example
///
/// ```
/// use tdp_counters::{PerfEvent, SampleSet};
///
/// let mut set = SampleSet::empty();
/// let block = set.reset([PerfEvent::Cycles, PerfEvent::L2Misses], 2);
/// block.copy_from_slice(&[10, 20, 3, 3]);
/// assert_eq!(set.plane(PerfEvent::Cycles), Some(&[10, 20][..]));
/// assert_eq!(set.total(PerfEvent::L2Misses), Some(6));
/// assert_eq!(set.total(PerfEvent::TlbMisses), None, "not in the layout");
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
    /// (e.g. the set `Machine::read_counters` in `tdp-simsys` refills).
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

    /// The set of `per_cpu` counts over `events`, CPU `c` being
    /// `per_cpu[c]`, filled through the block a producer fills.
    fn set_of(events: &[PerfEvent], per_cpu: &[&[u64]]) -> SampleSet {
        let mut set = SampleSet::empty();
        set.seq = 4;
        let cpus = per_cpu.len();
        let block = set.reset(events.iter().copied(), cpus);
        for (c, counts) in per_cpu.iter().enumerate() {
            for (e, &n) in counts.iter().enumerate() {
                block[e * cpus + c] = n;
            }
        }
        set
    }

    #[test]
    fn sample_set_total_sums_across_cpus() {
        let set = set_of(&[PerfEvent::L2Misses], &[&[5], &[7]]);
        assert_eq!(set.total(PerfEvent::L2Misses), Some(12));
        assert_eq!(set.total(PerfEvent::Cycles), None);
    }

    #[test]
    fn reset_lays_the_block_out_event_major() {
        let events = [PerfEvent::Cycles, PerfEvent::L2Misses];
        let set = set_of(&events, &[&[10, 20], &[11, 21], &[12, 22]]);
        assert_eq!((set.seq, set.num_cpus()), (4, 3));
        assert_eq!(set.events(), events);
        assert_eq!(set.counts(), [10, 11, 12, 20, 21, 22]);
        assert_eq!(set.plane(PerfEvent::L2Misses), Some(&[20, 21, 22][..]));
        // No CPUs: no layout.
        let empty = set_of(&events, &[]);
        assert!(empty.events().is_empty() && empty.counts().is_empty());
    }

    #[test]
    fn deserialization_rejects_a_block_that_does_not_fit_the_layout() {
        let set = set_of(&[PerfEvent::Cycles], &[&[1], &[2]]);
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(serde_json::from_str::<SampleSet>(&json).unwrap(), set);
        let bad = json.replace(r#""cpus":2"#, r#""cpus":3"#);
        assert!(serde_json::from_str::<SampleSet>(&bad).is_err());
        // No CPUs and no counts, yet a layout: a set with no CPUs has none.
        let layout_without_cpus = json
            .replace(r#""cpus":2"#, r#""cpus":0"#)
            .replace(r#""counts":[1,2]"#, r#""counts":[]"#);
        assert!(layout_without_cpus.contains(r#""events":["Cycles"],"cpus":0,"counts":[]"#));
        assert!(serde_json::from_str::<SampleSet>(&layout_without_cpus).is_err());
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

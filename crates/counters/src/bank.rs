//! Per-CPU hardware counter banks.

use crate::event::{EventSet, PerfEvent};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Number of simultaneously programmable hardware counters.
///
/// The Pentium 4 PMU exposes 18 counters (Sprunt, *Pentium 4 Performance
/// Monitoring Features*, IEEE Micro 2002); OS-provenance events (interrupt
/// sources) do not occupy a hardware slot.
pub const MAX_HARDWARE_COUNTERS: usize = 18;

/// Error returned when programming a [`CounterBank`] with an invalid event
/// selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// More PMU events requested than hardware counters exist.
    TooManyEvents {
        /// Number of PMU-provenance events requested.
        requested: usize,
        /// Hardware limit ([`MAX_HARDWARE_COUNTERS`]).
        available: usize,
    },
    /// The same event was requested twice.
    DuplicateEvent(PerfEvent),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TooManyEvents {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} PMU events but only {available} hardware counters exist"
            ),
            ProgramError::DuplicateEvent(e) => {
                write!(f, "event {e} requested more than once")
            }
        }
    }
}

impl Error for ProgramError {}

/// A per-CPU bank of event counters with clear-on-read semantics.
///
/// The bank counts every defined [`PerfEvent`] internally, but only events
/// that have been *programmed* are visible through [`read_and_clear_column`]
/// — mirroring the fact that a real PMU only counts what its event-select
/// registers are configured for. The simulated machine calls [`add`]
/// unconditionally; what escapes into the bank's CPU column of a
/// [`SampleSet`](crate::SampleSet) is gated here.
///
/// [`read_and_clear_column`]: CounterBank::read_and_clear_column
/// [`add`]: CounterBank::add
///
/// # Example
///
/// ```
/// use tdp_counters::{CounterBank, PerfEvent, SampleSet};
///
/// let mut bank = CounterBank::default();
/// bank.program(&[PerfEvent::TlbMisses])?;
/// bank.add(PerfEvent::TlbMisses, 10);
/// bank.add(PerfEvent::Cycles, 999); // counted but not programmed
///
/// let mut set = SampleSet::empty();
/// let block = set.reset(bank.programmed().iter(), 1);
/// bank.read_and_clear_column(block, 1, 0);
/// assert_eq!(set.total(PerfEvent::TlbMisses), Some(10));
/// assert_eq!(set.total(PerfEvent::Cycles), None, "not programmed");
/// # Ok::<(), tdp_counters::ProgramError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterBank {
    programmed: EventSet,
    counts: Vec<u64>,
}

impl Default for CounterBank {
    /// A bank with no events programmed.
    fn default() -> Self {
        Self {
            programmed: EventSet::new(),
            counts: vec![0; PerfEvent::count()],
        }
    }
}

impl CounterBank {
    /// Programs the bank to expose exactly `events`.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::TooManyEvents`] if more PMU events are
    /// requested than [`MAX_HARDWARE_COUNTERS`], and
    /// [`ProgramError::DuplicateEvent`] if an event appears twice.
    pub fn program(&mut self, events: &[PerfEvent]) -> Result<(), ProgramError> {
        let mut set = EventSet::new();
        for &e in events {
            if !set.insert(e) {
                return Err(ProgramError::DuplicateEvent(e));
            }
        }
        let pmu_slots = set
            .iter()
            .filter(|e| e.provenance() == crate::EventProvenance::Pmu)
            .count();
        if pmu_slots > MAX_HARDWARE_COUNTERS {
            return Err(ProgramError::TooManyEvents {
                requested: pmu_slots,
                available: MAX_HARDWARE_COUNTERS,
            });
        }
        self.programmed = set;
        Ok(())
    }

    /// The currently programmed event set.
    pub fn programmed(&self) -> EventSet {
        self.programmed
    }

    /// Adds `delta` occurrences of `event`.
    #[inline]
    pub fn add(&mut self, event: PerfEvent, delta: u64) {
        self.counts[event.index()] = self.counts[event.index()].wrapping_add(delta);
    }

    /// Writes every programmed counter into this bank's column of an
    /// event-major block laid out over its programmed events,
    /// `block[e · cpus + cpu]` for the `e`-th programmed event, then clears
    /// **all** counters (programmed or not), matching the paper's
    /// record-total-then-clear sampling discipline (§3.1.3). This is how a
    /// machine fills a [`SampleSet`](crate::SampleSet) in place, one bank
    /// per CPU.
    ///
    /// # Panics
    ///
    /// Panics unless `block` holds `cpus` entries per programmed event
    /// and `cpu < cpus`.
    pub fn read_and_clear_column(&mut self, block: &mut [u64], cpus: usize, cpu: usize) {
        assert!(cpu < cpus && block.len() == self.programmed.len() * cpus);
        for (e, ev) in self.programmed.iter().enumerate() {
            block[e * cpus + cpu] = self.counts[ev.index()];
        }
        self.counts.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleSet;

    /// Reads `bank` alone as a one-CPU set.
    fn read(bank: &mut CounterBank) -> SampleSet {
        let mut set = SampleSet::empty();
        let block = set.reset(bank.programmed().iter(), 1);
        bank.read_and_clear_column(block, 1, 0);
        set
    }

    #[test]
    fn unprogrammed_events_are_invisible() {
        let mut bank = CounterBank::default();
        bank.program(&[PerfEvent::Cycles]).unwrap();
        bank.add(PerfEvent::HaltedCycles, 5);
        let s = read(&mut bank);
        assert_eq!(s.events(), [PerfEvent::Cycles]);
        assert_eq!(s.total(PerfEvent::HaltedCycles), None);
    }

    #[test]
    fn read_clears_all_counters_even_unprogrammed() {
        let mut bank = CounterBank::default();
        bank.program(&[PerfEvent::Cycles]).unwrap();
        bank.add(PerfEvent::HaltedCycles, 5);
        bank.add(PerfEvent::Cycles, 7);
        assert_eq!(read(&mut bank).counts(), [7]);
        bank.program(&[PerfEvent::HaltedCycles]).unwrap();
        assert_eq!(
            read(&mut bank).total(PerfEvent::HaltedCycles),
            Some(0),
            "clear-on-read wipes unprogrammed counters too"
        );
    }

    #[test]
    fn column_read_writes_one_cpu_of_the_block_and_clears() {
        let mut bank = CounterBank::default();
        bank.program(&[PerfEvent::Cycles, PerfEvent::L2Misses])
            .unwrap();
        bank.add(PerfEvent::Cycles, 7);
        bank.add(PerfEvent::L2Misses, 3);
        let mut block = [0u64; 6];
        bank.read_and_clear_column(&mut block, 3, 1);
        assert_eq!(block, [0, 7, 0, 0, 3, 0]);
        assert_eq!(read(&mut bank).counts(), [0, 0], "cleared");
    }

    #[test]
    fn duplicate_program_rejected() {
        let mut bank = CounterBank::default();
        let err = bank
            .program(&[PerfEvent::Cycles, PerfEvent::Cycles])
            .unwrap_err();
        assert_eq!(err, ProgramError::DuplicateEvent(PerfEvent::Cycles));
    }

    #[test]
    fn os_events_do_not_consume_hardware_slots() {
        let mut bank = CounterBank::default();
        // 14 PMU events + 4 OS events = 18 entries, but only 14 PMU slots.
        bank.program(PerfEvent::ALL)
            .expect("full event list fits because interrupt events are OS-side");
    }

    #[test]
    fn counts_saturate_by_wrapping_not_panicking() {
        let mut bank = CounterBank::default();
        bank.program(&[PerfEvent::Cycles]).unwrap();
        bank.add(PerfEvent::Cycles, u64::MAX);
        bank.add(PerfEvent::Cycles, 2);
        assert_eq!(read(&mut bank).counts(), [1]);
    }

    #[test]
    fn display_of_program_error_is_nonempty() {
        let e = ProgramError::TooManyEvents {
            requested: 20,
            available: 18,
        };
        assert!(!e.to_string().is_empty());
    }
}

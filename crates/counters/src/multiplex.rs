//! Time-multiplexed event sampling.
//!
//! A real PMU watches a limited set of events at once; observing more
//! candidates than counters exist (as model-selection experiments need)
//! requires rotating event *groups* across sampling windows and scaling
//! each group's counts by the inverse of its duty cycle — the standard
//! `perf`-style multiplexing discipline. The paper side-steps this by
//! using at most six events (§3.3); this module makes the trade-off
//! explicit and measurable: multiplexed counts are unbiased for
//! steady-state workloads but noisy for phase-changing ones, which is
//! itself an argument for the paper's small final event set.

use crate::bank::{CounterBank, ProgramError};
use crate::event::{EventProvenance, PerfEvent};
use crate::sampler::CounterSample;
use serde::{Deserialize, Serialize};

/// A rotation schedule: which events are observed in which window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiplexSchedule {
    groups: Vec<Vec<PerfEvent>>,
}

impl MultiplexSchedule {
    /// Partitions `events` into groups of at most `slots` PMU events.
    /// OS-provenance events are free (they come from the kernel, not a
    /// counter) and are added to every group.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::TooManyEvents`] if `slots` is zero, and
    /// [`ProgramError::DuplicateEvent`] if an event repeats.
    pub fn new(events: &[PerfEvent], slots: usize) -> Result<Self, ProgramError> {
        if slots == 0 {
            return Err(ProgramError::TooManyEvents {
                requested: events.len(),
                available: 0,
            });
        }
        let mut seen = crate::event::EventSet::new();
        for &e in events {
            if !seen.insert(e) {
                return Err(ProgramError::DuplicateEvent(e));
            }
        }
        let os_events: Vec<PerfEvent> = events
            .iter()
            .copied()
            .filter(|e| e.provenance() == EventProvenance::Os)
            .collect();
        let pmu_events: Vec<PerfEvent> = events
            .iter()
            .copied()
            .filter(|e| e.provenance() == EventProvenance::Pmu)
            .collect();

        let mut groups: Vec<Vec<PerfEvent>> = pmu_events
            .chunks(slots)
            .map(|chunk| {
                let mut g = chunk.to_vec();
                g.extend(os_events.iter().copied());
                g
            })
            .collect();
        if groups.is_empty() {
            groups.push(os_events);
        }
        Ok(Self { groups })
    }

    /// Number of groups in the rotation.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The events observed during rotation slot `index`.
    pub fn group(&self, index: usize) -> &[PerfEvent] {
        &self.groups[index % self.groups.len()]
    }

    /// Fraction of windows during which `event` is observed.
    pub fn duty_cycle(&self, event: PerfEvent) -> f64 {
        let observed = self.groups.iter().filter(|g| g.contains(&event)).count();
        observed as f64 / self.groups.len() as f64
    }
}

/// Rotates a [`CounterBank`]'s programming across a
/// [`MultiplexSchedule`] and produces duty-cycle-corrected samples.
///
/// # Example
///
/// ```
/// use tdp_counters::{
///     CounterBank, CpuId, MultiplexSchedule, MultiplexedSampler, PerfEvent,
/// };
///
/// // Six PMU events through two hardware slots: a 3-group rotation.
/// let events = [
///     PerfEvent::Cycles, PerfEvent::FetchedUops, PerfEvent::L2Misses,
///     PerfEvent::L3LoadMisses, PerfEvent::TlbMisses,
///     PerfEvent::BusTransactionsAll,
/// ];
/// let schedule = MultiplexSchedule::new(&events, 2)?;
/// assert_eq!(schedule.num_groups(), 3);
/// let mut sampler = MultiplexedSampler::new(schedule, CpuId::new(0));
///
/// // Steady workload: 100 units of every event per window.
/// let mut scaled_cycles = 0.0;
/// for window in 0..30 {
///     let bank = sampler.bank_mut();
///     for &e in &events {
///         bank.add(e, 100);
///     }
///     let sample = sampler.rotate(window);
///     if let Some(c) = sample.scaled_count(PerfEvent::Cycles) {
///         scaled_cycles = c;
///     }
/// }
/// // Cycles is observed 1 window in 3, scaled back up by 3.
/// assert_eq!(scaled_cycles, 300.0);
/// # Ok::<(), tdp_counters::ProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiplexedSampler {
    schedule: MultiplexSchedule,
    bank: CounterBank,
    slot: usize,
    /// The last window's sample, refilled in place by each rotation.
    last: MultiplexedSample,
}

/// A duty-cycle-corrected sample from one rotation window.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplexedSample {
    raw: CounterSample,
    scales: Vec<(PerfEvent, f64)>,
}

impl MultiplexedSample {
    /// The raw counts of the events observed this window.
    pub fn raw(&self) -> &CounterSample {
        &self.raw
    }

    /// The duty-cycle-corrected ("scaled") estimate of `event`'s true
    /// count this window, or `None` if the event was not observed.
    pub fn scaled_count(&self, event: PerfEvent) -> Option<f64> {
        let &(_, scale) = self.scales.iter().find(|(e, _)| *e == event)?;
        self.raw.count(event).map(|c| c as f64 * scale)
    }
}

impl MultiplexedSampler {
    /// Creates a sampler for one CPU.
    pub fn new(schedule: MultiplexSchedule, cpu: crate::CpuId) -> Self {
        let mut bank = CounterBank::new(cpu);
        bank.program(schedule.group(0))
            .expect("schedule groups fit the hardware");
        Self {
            schedule,
            bank,
            slot: 0,
            last: MultiplexedSample {
                raw: CounterSample::new(cpu, 0, Vec::new()),
                scales: Vec::new(),
            },
        }
    }

    /// The bank to feed events into during the current window.
    pub fn bank_mut(&mut self) -> &mut CounterBank {
        &mut self.bank
    }

    /// Currently observed group.
    pub fn current_group(&self) -> &[PerfEvent] {
        self.schedule.group(self.slot)
    }

    /// Ends the current window: reads the bank, rotates to the next
    /// group, and returns the duty-corrected sample tagged `seq`. The
    /// sample is refilled in place, reusing its capacity, so rotations
    /// stop allocating once every group has been read.
    pub fn rotate(&mut self, seq: u64) -> &MultiplexedSample {
        self.bank.read_and_clear_into(seq, &mut self.last.raw);
        let group = self.schedule.group(self.slot);
        self.last.scales.clear();
        self.last.scales.extend(
            group
                .iter()
                .map(|&e| (e, 1.0 / self.schedule.duty_cycle(e))),
        );
        self.slot = (self.slot + 1) % self.schedule.num_groups();
        self.bank
            .program(self.schedule.group(self.slot))
            .expect("schedule groups fit the hardware");
        &self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuId;

    fn pmu_events(n: usize) -> Vec<PerfEvent> {
        PerfEvent::ALL
            .iter()
            .copied()
            .filter(|e| e.provenance() == EventProvenance::Pmu)
            .take(n)
            .collect()
    }

    #[test]
    fn schedule_partitions_with_os_events_everywhere() {
        let mut events = pmu_events(5);
        events.push(PerfEvent::DiskInterrupts);
        let s = MultiplexSchedule::new(&events, 2).unwrap();
        assert_eq!(s.num_groups(), 3);
        for g in 0..3 {
            assert!(
                s.group(g).contains(&PerfEvent::DiskInterrupts),
                "OS events ride along in every group"
            );
        }
        assert_eq!(s.duty_cycle(PerfEvent::DiskInterrupts), 1.0);
        assert!((s.duty_cycle(events[0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_slots_rejected() {
        assert!(MultiplexSchedule::new(&pmu_events(3), 0).is_err());
    }

    #[test]
    fn duplicate_event_rejected() {
        let events = vec![PerfEvent::Cycles, PerfEvent::Cycles];
        assert!(matches!(
            MultiplexSchedule::new(&events, 4),
            Err(ProgramError::DuplicateEvent(PerfEvent::Cycles))
        ));
    }

    #[test]
    fn scaled_counts_are_unbiased_for_steady_input() {
        let events = pmu_events(6);
        let schedule = MultiplexSchedule::new(&events, 2).unwrap();
        let mut sampler = MultiplexedSampler::new(schedule, CpuId::new(0));
        let mut totals = vec![0.0f64; events.len()];
        let windows = 30;
        for w in 0..windows {
            for &e in &events {
                sampler.bank_mut().add(e, 50);
            }
            let s = sampler.rotate(w);
            for (i, &e) in events.iter().enumerate() {
                if let Some(c) = s.scaled_count(e) {
                    totals[i] += c;
                }
            }
        }
        // True total per event: 50 × 30 = 1500; scaled sums must match
        // exactly for perfectly steady input.
        for (i, &t) in totals.iter().enumerate() {
            assert!((t - 1500.0).abs() < 1e-9, "event {i}: {t}");
        }
    }

    #[test]
    fn unobserved_events_return_none() {
        let events = pmu_events(4);
        let schedule = MultiplexSchedule::new(&events, 2).unwrap();
        let mut sampler = MultiplexedSampler::new(schedule, CpuId::new(0));
        let s = sampler.rotate(0);
        // Events of the *other* group are not in this window's sample.
        assert!(s.scaled_count(events[2]).is_none());
        assert!(s.scaled_count(events[0]).is_some());
    }

    #[test]
    fn rotation_cycles_through_all_groups() {
        let events = pmu_events(6);
        let schedule = MultiplexSchedule::new(&events, 2).unwrap();
        let mut sampler = MultiplexedSampler::new(schedule, CpuId::new(0));
        let g0: Vec<PerfEvent> = sampler.current_group().to_vec();
        sampler.rotate(0);
        let g1: Vec<PerfEvent> = sampler.current_group().to_vec();
        sampler.rotate(1);
        sampler.rotate(2);
        let g0_again: Vec<PerfEvent> = sampler.current_group().to_vec();
        assert_ne!(g0, g1);
        assert_eq!(g0, g0_again, "period equals the group count");
    }
}

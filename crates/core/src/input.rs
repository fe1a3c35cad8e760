//! Model inputs: per-cycle event rates extracted from counter samples.
//!
//! Every model input is a *rate per cycle* (or per mega-cycle), never a
//! raw count: the paper combines the cycles metric "with most other
//! metrics to create per cycle metrics. This corrects for slight
//! differences in sampling rate" (§3.3). This module is the single place
//! that conversion happens.

use serde::{Deserialize, Serialize};
use tdp_counters::{PerfEvent, SampleSet};

/// Per-cycle event rates for one CPU over one sampling window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuRates {
    /// Fraction of cycles not halted (1 − halted/cycles): the
    /// `PercentActive` of Equation 1.
    pub active_frac: f64,
    /// Fetched uops per cycle.
    pub fetched_upc: f64,
    /// L3 load misses per cycle (Equation 2's input).
    pub l3_load_misses: f64,
    /// All-agent bus transactions per **mega**cycle (Equation 3's
    /// input; the paper reports this one per Mcycle).
    pub bus_tx_per_mcycle: f64,
    /// DMA/other bus transactions per cycle (Equation 4's second
    /// input).
    pub dma_per_cycle: f64,
    /// Interrupts serviced per cycle, all sources.
    pub interrupts_per_cycle: f64,
    /// Device (non-timer) interrupts per cycle — Equation 5's input.
    /// The periodic OS timer fires at a constant rate and carries no
    /// I/O information; `/proc/interrupts` attribution separates it out
    /// (§3.3 "Interrupts").
    pub device_interrupts_per_cycle: f64,
    /// Disk-controller interrupts per cycle (Equation 4's first input).
    pub disk_interrupts_per_cycle: f64,
    /// TLB misses per cycle.
    pub tlb_per_cycle: f64,
    /// Uncacheable accesses per cycle.
    pub uncacheable_per_cycle: f64,
}

/// One sampling window's model inputs, for every CPU.
///
/// # Example
///
/// ```
/// use tdp_simsys::{Machine, MachineConfig};
/// use trickledown::SystemSample;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 {
///     machine.tick();
/// }
/// let sample = SystemSample::from_sample_set(machine.read_counters());
/// assert_eq!(sample.per_cpu.len(), 4);
/// // An idle machine is almost entirely halted.
/// assert!(sample.per_cpu[0].active_frac < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSample {
    /// Simulated time at the end of the window, ms.
    pub time_ms: u64,
    /// Window length, ms.
    pub window_ms: u64,
    /// Rates per CPU.
    pub per_cpu: Vec<CpuRates>,
}

impl SystemSample {
    /// Extracts rates from a raw counter sample set.
    ///
    /// Missing events (not programmed on the bank) yield rate 0 — models
    /// that need them will simply see no contribution, which matches a
    /// PMU configured without those events. Each event's plane is
    /// resolved once per set, by its first occurrence in the layout.
    pub fn from_sample_set(set: &SampleSet) -> Self {
        use PerfEvent as E;
        let [cycles, halted, uops, l3, bus, dma, irq, timer, disk, tlb, unc] = [
            E::Cycles,
            E::HaltedCycles,
            E::FetchedUops,
            E::L3LoadMisses,
            E::BusTransactionsAll,
            E::DmaOtherBusTransactions,
            E::InterruptsTotal,
            E::TimerInterrupts,
            E::DiskInterrupts,
            E::TlbMisses,
            E::UncacheableAccesses,
        ]
        .map(|e| set.plane(e));
        let per_cpu = (0..set.num_cpus())
            .map(|c| {
                let cycles = cycles.map_or(0, |p| p[c]).max(1) as f64;
                let rate = |plane: Option<&[u64]>| plane.map_or(0.0, |p| p[c] as f64 / cycles);
                CpuRates {
                    active_frac: (1.0 - rate(halted)).clamp(0.0, 1.0),
                    fetched_upc: rate(uops),
                    l3_load_misses: rate(l3),
                    bus_tx_per_mcycle: rate(bus) * 1e6,
                    dma_per_cycle: rate(dma),
                    interrupts_per_cycle: rate(irq),
                    device_interrupts_per_cycle: (rate(irq) - rate(timer)).max(0.0),
                    disk_interrupts_per_cycle: rate(disk),
                    tlb_per_cycle: rate(tlb),
                    uncacheable_per_cycle: rate(unc),
                }
            })
            .collect();
        Self {
            time_ms: set.time_ms,
            window_ms: set.window_ms,
            per_cpu,
        }
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.per_cpu.len()
    }

    /// Sum of a per-CPU rate over all CPUs.
    pub fn sum<F: Fn(&CpuRates) -> f64>(&self, f: F) -> f64 {
        self.per_cpu.iter().map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of `cpus` CPUs that each read `counts`.
    fn set_with(cpus: usize, counts: &[(PerfEvent, u64)]) -> SampleSet {
        let mut set = SampleSet::empty();
        let block = set.reset(counts.iter().map(|&(e, _)| e), cpus);
        for (plane, &(_, n)) in block.chunks_mut(cpus).zip(counts) {
            plane.fill(n);
        }
        set
    }

    #[test]
    fn rates_divide_by_cycles() {
        let set = set_with(
            1,
            &[
                (PerfEvent::Cycles, 2_000_000_000),
                (PerfEvent::HaltedCycles, 500_000_000),
                (PerfEvent::FetchedUops, 3_000_000_000),
                (PerfEvent::BusTransactionsAll, 20_000_000),
            ],
        );
        let s = SystemSample::from_sample_set(&set);
        let c = &s.per_cpu[0];
        assert!((c.active_frac - 0.75).abs() < 1e-12);
        assert!((c.fetched_upc - 1.5).abs() < 1e-12);
        assert!((c.bus_tx_per_mcycle - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn missing_events_are_zero_rates() {
        let set = set_with(1, &[(PerfEvent::Cycles, 1_000)]);
        let s = SystemSample::from_sample_set(&set);
        assert_eq!(s.per_cpu[0].fetched_upc, 0.0);
        assert_eq!(s.per_cpu[0].interrupts_per_cycle, 0.0);
        assert_eq!(s.per_cpu[0].active_frac, 1.0, "no halted counter ⇒ active");
    }

    #[test]
    fn zero_cycles_does_not_divide_by_zero() {
        let set = set_with(1, &[(PerfEvent::Cycles, 0), (PerfEvent::FetchedUops, 5)]);
        let s = SystemSample::from_sample_set(&set);
        assert!(s.per_cpu[0].fetched_upc.is_finite());
    }

    #[test]
    fn sum_adds_across_cpus() {
        let set = set_with(
            2,
            &[(PerfEvent::Cycles, 1_000), (PerfEvent::FetchedUops, 1_500)],
        );
        let s = SystemSample::from_sample_set(&set);
        assert!((s.sum(|c| c.fetched_upc) - 3.0).abs() < 1e-12);
    }
}

//! Interrupt controller: vectored delivery and per-CPU accounting.

use tdp_counters::{InterruptAccounting, InterruptSource};

/// Per-tick, per-CPU interrupt deltas (for PMU-side counter updates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterruptDeltas {
    /// `[cpu] -> (total, disk, timer, nic)` this tick.
    pub per_cpu: Vec<(u64, u64, u64, u64)>,
}

/// The platform interrupt controller.
///
/// Device interrupts are distributed round-robin over CPUs (the era's
/// default APIC behaviour); timer interrupts go to every CPU at
/// `timer_hz`. All deliveries are recorded in the OS-visible
/// [`InterruptAccounting`] — the `/proc/interrupts` the paper reads
/// interrupt sources from.
#[derive(Debug)]
pub struct InterruptController {
    accounting: InterruptAccounting,
    num_cpus: usize,
    rr_next: usize,
    tick_deltas: InterruptDeltas,
}

impl InterruptController {
    /// Creates a controller for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            accounting: InterruptAccounting::new(num_cpus),
            num_cpus,
            rr_next: 0,
            tick_deltas: InterruptDeltas {
                per_cpu: vec![(0, 0, 0, 0); num_cpus],
            },
        }
    }

    /// Delivers a device interrupt; returns the CPU chosen.
    pub fn deliver(&mut self, source: InterruptSource) -> u8 {
        let cpu = (self.rr_next % self.num_cpus) as u8;
        self.rr_next = self.rr_next.wrapping_add(1);
        self.record(cpu, source);
        cpu
    }

    /// Delivers the periodic timer to every CPU (call once per timer
    /// period).
    pub fn deliver_timer_all(&mut self) {
        for cpu in 0..self.num_cpus as u8 {
            self.record(cpu, InterruptSource::Timer);
        }
    }

    fn record(&mut self, cpu: u8, source: InterruptSource) {
        self.accounting.record(cpu, source);
        let d = &mut self.tick_deltas.per_cpu[cpu as usize];
        d.0 += 1;
        match source {
            InterruptSource::Disk(_) => d.1 += 1,
            InterruptSource::Timer => d.2 += 1,
            InterruptSource::Nic => d.3 += 1,
            InterruptSource::Other => {}
        }
    }

    /// Copies this tick's per-CPU deltas into `out` (resized to the CPU
    /// count, its buffer reused) and zeroes the internal deltas.
    pub fn take_tick_deltas(&mut self, out: &mut InterruptDeltas) {
        out.per_cpu.clear();
        out.per_cpu.extend_from_slice(&self.tick_deltas.per_cpu);
        for d in &mut self.tick_deltas.per_cpu {
            *d = (0, 0, 0, 0);
        }
    }

    /// The OS accounting (for `/proc/interrupts` snapshots).
    pub fn accounting_mut(&mut self) -> &mut InterruptAccounting {
        &mut self.accounting
    }

    /// Read-only accounting access.
    pub fn accounting(&self) -> &InterruptAccounting {
        &self.accounting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(intc: &mut InterruptController) -> InterruptDeltas {
        let mut out = InterruptDeltas::default();
        intc.take_tick_deltas(&mut out);
        out
    }

    #[test]
    fn device_interrupts_round_robin() {
        let mut intc = InterruptController::new(4);
        let cpus: Vec<u8> = (0..8)
            .map(|_| intc.deliver(InterruptSource::Disk(0)))
            .collect();
        assert_eq!(cpus, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn timer_hits_every_cpu() {
        let mut intc = InterruptController::new(3);
        intc.deliver_timer_all();
        let d = take(&mut intc);
        for (total, disk, timer, nic) in d.per_cpu {
            assert_eq!((total, disk, timer, nic), (1, 0, 1, 0));
        }
    }

    #[test]
    fn tick_deltas_reset_after_take() {
        let mut intc = InterruptController::new(2);
        intc.deliver(InterruptSource::Nic);
        let first = take(&mut intc);
        assert_eq!(first.per_cpu[0].3, 1);
        let second = take(&mut intc);
        assert_eq!(second.per_cpu[0], (0, 0, 0, 0));
    }

    #[test]
    fn accounting_accumulates_across_ticks() {
        let mut intc = InterruptController::new(1);
        intc.deliver(InterruptSource::Disk(1));
        let _ = take(&mut intc);
        intc.deliver(InterruptSource::Disk(1));
        assert_eq!(intc.accounting().cumulative(0, InterruptSource::Disk(1)), 2);
    }
}

//! Operating-system interrupt-vector accounting (`/proc/interrupts`
//! emulation).
//!
//! Interrupt vector numbers are delivered to the CPU but are not a PMU
//! event on the Pentium 4, so the paper "simulate[s] the presence of
//! interrupt information in the processor by obtaining it from the
//! operating system" via `/proc/interrupts` (§3.3 "Interrupts"). This
//! module is that mechanism.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An interrupt vector number (the unique ID the interrupt controller
/// sends to the processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InterruptVector(pub u8);

impl fmt::Display for InterruptVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02x}", self.0)
    }
}

/// The device class behind an interrupt vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterruptSource {
    /// Periodic OS scheduling timer (local APIC timer).
    Timer,
    /// A disk controller channel, identified by disk index.
    Disk(u8),
    /// The network interface controller.
    Nic,
    /// Anything else (spurious, IPI, legacy devices).
    Other,
}

impl InterruptSource {
    /// The conventional vector assignment used by the simulated platform.
    pub fn vector(self) -> InterruptVector {
        InterruptVector(match self {
            InterruptSource::Timer => 0x20,
            InterruptSource::Disk(n) => 0x30 + n,
            InterruptSource::Nic => 0x40,
            InterruptSource::Other => 0xff,
        })
    }

    /// Classifies a vector back into a source.
    pub fn from_vector(v: InterruptVector) -> InterruptSource {
        match v.0 {
            0x20 => InterruptSource::Timer,
            n @ 0x30..=0x3f => InterruptSource::Disk(n - 0x30),
            0x40 => InterruptSource::Nic,
            _ => InterruptSource::Other,
        }
    }

    /// Human-readable device name, as it would appear in
    /// `/proc/interrupts`.
    pub fn device_name(self) -> String {
        match self {
            InterruptSource::Timer => "timer".to_owned(),
            InterruptSource::Disk(n) => format!("scsi{n}"),
            InterruptSource::Nic => "eth0".to_owned(),
            InterruptSource::Other => "other".to_owned(),
        }
    }
}

/// Per-CPU, per-source interrupt deltas over one sampling window.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterruptSnapshot {
    /// `(cpu index, source, count)` triples, sparse.
    pub counts: Vec<(u8, InterruptSource, u64)>,
}

impl InterruptSnapshot {
    /// Total interrupts across all CPUs and sources.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, _, c)| c).sum()
    }

    /// Total interrupts from `source` across all CPUs.
    pub fn total_from(&self, source: InterruptSource) -> u64 {
        self.counts
            .iter()
            .filter(|&&(_, s, _)| s == source)
            .map(|&(_, _, c)| c)
            .sum()
    }

    /// Total disk interrupts (all disk channels) across all CPUs.
    pub fn total_disk(&self) -> u64 {
        self.counts
            .iter()
            .filter(|&&(_, s, _)| matches!(s, InterruptSource::Disk(_)))
            .map(|&(_, _, c)| c)
            .sum()
    }

    /// Interrupts serviced by CPU `cpu`, all sources.
    pub fn total_on_cpu(&self, cpu: u8) -> u64 {
        self.counts
            .iter()
            .filter(|&&(c, _, _)| c == cpu)
            .map(|&(_, _, c)| c)
            .sum()
    }
}

/// Cumulative interrupt accounting, as the OS kernel maintains it.
///
/// [`record`](InterruptAccounting::record) is called by the interrupt
/// controller on every delivery; [`snapshot_delta`](InterruptAccounting::snapshot_delta)
/// produces the per-window deltas used in samples, and
/// [`render_proc_interrupts`](InterruptAccounting::render_proc_interrupts)
/// renders the familiar text table.
///
/// # Example
///
/// ```
/// use tdp_counters::{InterruptAccounting, InterruptSnapshot, InterruptSource};
///
/// let mut acc = InterruptAccounting::new(2);
/// acc.record(0, InterruptSource::Timer);
/// acc.record(1, InterruptSource::Disk(0));
/// acc.record(1, InterruptSource::Disk(0));
///
/// let mut snap = InterruptSnapshot::default();
/// acc.snapshot_delta(&mut snap);
/// assert_eq!(snap.total(), 3);
/// assert_eq!(snap.total_disk(), 2);
/// // Deltas reset after each snapshot:
/// acc.snapshot_delta(&mut snap);
/// assert_eq!(snap.total(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct InterruptAccounting {
    num_cpus: usize,
    /// cumulative[cpu][source-slot]
    cumulative: Vec<Vec<u64>>,
    window: Vec<Vec<u64>>,
}

/// Source slots tracked per CPU: timer, disks 0–3, NIC, other.
const SLOT_COUNT: usize = 7;

fn slot_of(source: InterruptSource) -> usize {
    match source {
        InterruptSource::Timer => 0,
        InterruptSource::Disk(n) => 1 + (n as usize).min(3),
        InterruptSource::Nic => 5,
        InterruptSource::Other => 6,
    }
}

fn source_of(slot: usize) -> InterruptSource {
    match slot {
        0 => InterruptSource::Timer,
        1..=4 => InterruptSource::Disk((slot - 1) as u8),
        5 => InterruptSource::Nic,
        _ => InterruptSource::Other,
    }
}

impl InterruptAccounting {
    /// Creates accounting for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            num_cpus,
            cumulative: vec![vec![0; SLOT_COUNT]; num_cpus],
            window: vec![vec![0; SLOT_COUNT]; num_cpus],
        }
    }

    /// Records one interrupt delivered to `cpu` from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn record(&mut self, cpu: u8, source: InterruptSource) {
        let slot = slot_of(source);
        self.cumulative[cpu as usize][slot] += 1;
        self.window[cpu as usize][slot] += 1;
    }

    /// Number of CPUs tracked.
    pub fn num_cpus(&self) -> usize {
        self.num_cpus
    }

    /// Cumulative count for `(cpu, source)` since boot.
    pub fn cumulative(&self, cpu: u8, source: InterruptSource) -> u64 {
        self.cumulative[cpu as usize][slot_of(source)]
    }

    /// Fills `out` with the per-window deltas, reusing its buffer, and
    /// resets the window, analogous to diffing two `/proc/interrupts`
    /// reads.
    pub fn snapshot_delta(&mut self, out: &mut InterruptSnapshot) {
        out.counts.clear();
        for (cpu, row) in self.window.iter_mut().enumerate() {
            for (slot, c) in row.iter_mut().enumerate() {
                if *c > 0 {
                    out.counts.push((cpu as u8, source_of(slot), *c));
                    *c = 0;
                }
            }
        }
    }

    /// Renders the cumulative table in `/proc/interrupts` style.
    pub fn render_proc_interrupts(&self) -> String {
        let mut out = String::from("           ");
        for cpu in 0..self.num_cpus {
            out.push_str(&format!("{:>12}", format!("CPU{cpu}")));
        }
        out.push('\n');
        for slot in 0..SLOT_COUNT {
            let source = source_of(slot);
            let any: u64 = self.cumulative.iter().map(|row| row[slot]).sum();
            if any == 0 && !matches!(source, InterruptSource::Timer) {
                continue;
            }
            out.push_str(&format!("{:>6}:    ", source.vector()));
            for row in &self.cumulative {
                out.push_str(&format!("{:>12}", row[slot]));
            }
            out.push_str(&format!("   {}\n", source.device_name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(acc: &mut InterruptAccounting) -> InterruptSnapshot {
        let mut out = InterruptSnapshot::default();
        acc.snapshot_delta(&mut out);
        out
    }

    #[test]
    fn vector_roundtrip() {
        for s in [
            InterruptSource::Timer,
            InterruptSource::Disk(0),
            InterruptSource::Disk(1),
            InterruptSource::Nic,
            InterruptSource::Other,
        ] {
            assert_eq!(InterruptSource::from_vector(s.vector()), s);
        }
    }

    #[test]
    fn cumulative_survives_snapshot() {
        let mut acc = InterruptAccounting::new(1);
        acc.record(0, InterruptSource::Timer);
        let _ = snapshot(&mut acc);
        acc.record(0, InterruptSource::Timer);
        assert_eq!(acc.cumulative(0, InterruptSource::Timer), 2);
    }

    #[test]
    fn snapshot_filters_by_cpu_and_source() {
        let mut acc = InterruptAccounting::new(2);
        acc.record(0, InterruptSource::Disk(0));
        acc.record(1, InterruptSource::Disk(1));
        acc.record(1, InterruptSource::Nic);
        let snap = snapshot(&mut acc);
        assert_eq!(snap.total_disk(), 2);
        assert_eq!(snap.total_on_cpu(1), 2);
        assert_eq!(snap.total_from(InterruptSource::Nic), 1);
    }

    #[test]
    fn proc_interrupts_rendering_mentions_devices() {
        let mut acc = InterruptAccounting::new(4);
        acc.record(0, InterruptSource::Timer);
        acc.record(2, InterruptSource::Disk(0));
        let table = acc.render_proc_interrupts();
        assert!(table.contains("CPU3"));
        assert!(table.contains("timer"));
        assert!(table.contains("scsi0"));
        assert!(!table.contains("eth0"), "idle devices are omitted");
    }

    #[test]
    fn high_disk_indices_fold_into_last_slot() {
        let mut acc = InterruptAccounting::new(1);
        acc.record(0, InterruptSource::Disk(9));
        let snap = snapshot(&mut acc);
        assert_eq!(snap.total_disk(), 1);
    }
}

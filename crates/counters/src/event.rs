//! The observable performance events of the simulated Pentium 4 Xeon.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A performance event observable at (or, for interrupt-source events,
/// attributable to) a single CPU.
///
/// The list reproduces the candidate events discussed in §3.3 of the paper.
/// Six of them end up being used by the final subsystem models; the rest are
/// kept so that model selection (`tdp-modeling`) has a realistic search
/// space and so the paper's *negative* results (e.g. L3 misses failing to
/// predict memory power under `mcf`, DMA failing to predict I/O power) can
/// be reproduced rather than merely asserted.
///
/// # Example
///
/// ```
/// use tdp_counters::{EventProvenance, PerfEvent};
///
/// assert_eq!(PerfEvent::Cycles.provenance(), EventProvenance::Pmu);
/// assert_eq!(PerfEvent::DiskInterrupts.provenance(), EventProvenance::Os);
/// assert!(PerfEvent::ALL.contains(&PerfEvent::FetchedUops));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PerfEvent {
    /// Unhalted clock cycles: core frequency × time. Combined with most
    /// other events to form per-cycle rates, correcting for sampling-period
    /// wobble (§3.3 "Cycles").
    Cycles,
    /// Cycles during which clock gating was active because the OS executed
    /// `HLT` (§3.3 "Halted Cycles"). Idle power drops from ~36 W to ~9 W.
    HaltedCycles,
    /// Micro-operations fetched, including wrong-path work (§3.3 "Fetched
    /// Uops"). Preferred over retired instructions because it tracks power,
    /// not progress.
    FetchedUops,
    /// Micro-operations retired. Kept as a deliberately *worse* candidate:
    /// it misses speculative activity.
    RetiredUops,
    /// Loads and stores missing the level-2 cache.
    L2Misses,
    /// Loads that missed the level-3 (last-level) cache (§3.3 "Level 3
    /// Cache Misses"). Input to the Equation-2 memory model.
    L3LoadMisses,
    /// All L3 misses including stores/RFOs; on a write-back hierarchy these
    /// do not map one-to-one onto memory transactions.
    L3TotalMisses,
    /// Instruction- and data-TLB misses (§3.3 "TLB Misses"); page-sized
    /// trickle-down reaching as far as the disk.
    TlbMisses,
    /// Transactions on the processor memory bus (FSB) that originated in
    /// *this* processor: demand fills, write-backs, prefetches, uncacheable
    /// accesses (§3.3 "Processor Memory Bus Transactions").
    BusTransactionsSelf,
    /// FSB transactions that did *not* originate in this processor: DMA
    /// and other-processor coherency traffic. The Pentium 4 cannot tell the
    /// two apart (§3.3 "DMA Accesses"), and neither can we.
    DmaOtherBusTransactions,
    /// All FSB transactions observed by this processor (self + DMA/other).
    /// Input to the Equation-3 memory model.
    BusTransactionsAll,
    /// FSB transactions initiated by the hardware prefetcher. Plotted in
    /// the paper's Figure 4 to diagnose the cache-miss model failure.
    PrefetchBusTransactions,
    /// Loads/stores to address ranges marked uncacheable — memory-mapped
    /// I/O configuration and handshaking (§3.3 "Uncacheable Accesses").
    UncacheableAccesses,
    /// All interrupts serviced by this CPU (OS-provided, §3.3
    /// "Interrupts").
    InterruptsTotal,
    /// Interrupts whose vector belongs to a disk controller (OS-provided).
    /// Input to the Equation-4 disk model.
    DiskInterrupts,
    /// Interrupts from the periodic OS timer (OS-provided).
    TimerInterrupts,
    /// Interrupts from the network interface (OS-provided).
    NicInterrupts,
    /// Branch mispredictions; drives speculative (wrong-path) activity.
    BranchMispredictions,
}

/// Where an event's count comes from.
///
/// The paper reads PMU events through the `perfctr` driver and interrupt
/// sources from `/proc/interrupts`; the distinction matters because OS
/// events cost a slow system call per read while PMU events are a handful
/// of register accesses (§2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventProvenance {
    /// Counted by the on-chip performance-monitoring unit.
    Pmu,
    /// Maintained by the operating system (interrupt-vector accounting).
    Os,
}

impl PerfEvent {
    /// Every defined event, in declaration order.
    pub const ALL: &'static [PerfEvent] = &[
        PerfEvent::Cycles,
        PerfEvent::HaltedCycles,
        PerfEvent::FetchedUops,
        PerfEvent::RetiredUops,
        PerfEvent::L2Misses,
        PerfEvent::L3LoadMisses,
        PerfEvent::L3TotalMisses,
        PerfEvent::TlbMisses,
        PerfEvent::BusTransactionsSelf,
        PerfEvent::DmaOtherBusTransactions,
        PerfEvent::BusTransactionsAll,
        PerfEvent::PrefetchBusTransactions,
        PerfEvent::UncacheableAccesses,
        PerfEvent::InterruptsTotal,
        PerfEvent::DiskInterrupts,
        PerfEvent::TimerInterrupts,
        PerfEvent::NicInterrupts,
        PerfEvent::BranchMispredictions,
    ];

    /// Stable dense index of this event, usable as an array offset.
    #[inline]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&e| e == self)
            .expect("every PerfEvent variant is listed in ALL")
    }

    /// Number of defined events.
    #[inline]
    pub fn count() -> usize {
        Self::ALL.len()
    }

    /// Whether the count comes from the PMU or from OS accounting.
    pub fn provenance(self) -> EventProvenance {
        match self {
            PerfEvent::InterruptsTotal
            | PerfEvent::DiskInterrupts
            | PerfEvent::TimerInterrupts
            | PerfEvent::NicInterrupts => EventProvenance::Os,
            _ => EventProvenance::Pmu,
        }
    }

    /// Short lowercase mnemonic, stable across versions (used in reports
    /// and serialized model descriptions).
    pub fn mnemonic(self) -> &'static str {
        match self {
            PerfEvent::Cycles => "cycles",
            PerfEvent::HaltedCycles => "halted_cycles",
            PerfEvent::FetchedUops => "fetched_uops",
            PerfEvent::RetiredUops => "retired_uops",
            PerfEvent::L2Misses => "l2_misses",
            PerfEvent::L3LoadMisses => "l3_load_misses",
            PerfEvent::L3TotalMisses => "l3_total_misses",
            PerfEvent::TlbMisses => "tlb_misses",
            PerfEvent::BusTransactionsSelf => "bus_txn_self",
            PerfEvent::DmaOtherBusTransactions => "bus_txn_dma_other",
            PerfEvent::BusTransactionsAll => "bus_txn_all",
            PerfEvent::PrefetchBusTransactions => "bus_txn_prefetch",
            PerfEvent::UncacheableAccesses => "uncacheable",
            PerfEvent::InterruptsTotal => "interrupts",
            PerfEvent::DiskInterrupts => "disk_interrupts",
            PerfEvent::TimerInterrupts => "timer_interrupts",
            PerfEvent::NicInterrupts => "nic_interrupts",
            PerfEvent::BranchMispredictions => "branch_mispredicts",
        }
    }
}

impl fmt::Display for PerfEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// 64-bit FNV-1a hash of an *ordered* event list, over each event's
/// stable [`PerfEvent::index`] plus the list length.
///
/// This is the layout identity used on the telemetry wire (`tdp-wire`):
/// two counter layouts hash equal iff they list the same events in the
/// same order, so a decoder can key its memoized column mapping on the
/// hash alone. The hash is stable across processes and architectures
/// (it depends only on declaration order, which `ALL` pins).
///
/// # Example
///
/// ```
/// use tdp_counters::{layout_hash, PerfEvent};
///
/// let a = [PerfEvent::Cycles, PerfEvent::FetchedUops];
/// let b = [PerfEvent::FetchedUops, PerfEvent::Cycles];
/// assert_ne!(layout_hash(&a), layout_hash(&b), "order matters");
/// assert_eq!(layout_hash(&a), layout_hash(&a.to_vec()));
/// ```
pub fn layout_hash(events: &[PerfEvent]) -> u64 {
    layout_hash_indices(events.iter().map(|e| e.index() as u64))
}

/// [`layout_hash`] over raw event *indices* instead of [`PerfEvent`]s.
///
/// This is the form a wire decoder uses to verify a layout frame: the
/// frame carries indices, some of which may be unknown to this build
/// (a newer producer), yet the hash must still be checkable.
pub fn layout_hash_indices(indices: impl IntoIterator<Item = u64>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut len = 0u64;
    for i in indices {
        h = (h ^ i).wrapping_mul(FNV_PRIME);
        len += 1;
    }
    // Fold the length in so a truncated list never aliases its prefix
    // (FNV of a prefix is a valid intermediate state of the full list).
    (h ^ len).wrapping_mul(FNV_PRIME)
}

/// A set of [`PerfEvent`]s, represented as a bitmask for cheap copying.
///
/// # Example
///
/// ```
/// use tdp_counters::{EventSet, PerfEvent};
///
/// let mut set = EventSet::new();
/// set.insert(PerfEvent::Cycles);
/// set.insert(PerfEvent::FetchedUops);
/// assert!(set.contains(PerfEvent::Cycles));
/// assert!(!set.contains(PerfEvent::TlbMisses));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventSet(u32);

impl EventSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self(0)
    }

    /// Adds `event`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, event: PerfEvent) -> bool {
        let bit = 1u32 << event.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `event`; returns `true` if it was present.
    pub fn remove(&mut self, event: PerfEvent) -> bool {
        let bit = 1u32 << event.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether `event` is in the set.
    pub fn contains(&self, event: PerfEvent) -> bool {
        self.0 & (1u32 << event.index()) != 0
    }

    /// Number of events in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the members in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = PerfEvent> + '_ {
        PerfEvent::ALL.iter().copied().filter(|e| self.contains(*e))
    }

    /// [`layout_hash`] of this set's members in declaration order — the
    /// wire identity of a counter bank programmed from this set.
    pub fn layout_hash(&self) -> u64 {
        layout_hash_indices(self.iter().map(|e| e.index() as u64))
    }
}

impl FromIterator<PerfEvent> for EventSet {
    fn from_iter<I: IntoIterator<Item = PerfEvent>>(iter: I) -> Self {
        let mut s = Self::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl Extend<PerfEvent> for EventSet {
    fn extend<I: IntoIterator<Item = PerfEvent>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_indices_are_dense_and_unique() {
        for (i, &e) in PerfEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "index of {e} must match ALL position");
        }
    }

    #[test]
    fn all_fits_in_event_set_mask() {
        assert!(PerfEvent::count() <= 32, "EventSet uses a u32 bitmask");
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &e in PerfEvent::ALL {
            assert!(seen.insert(e.mnemonic()), "duplicate mnemonic {}", e);
        }
    }

    #[test]
    fn os_events_are_exactly_the_interrupt_events() {
        for &e in PerfEvent::ALL {
            let is_irq = matches!(
                e,
                PerfEvent::InterruptsTotal
                    | PerfEvent::DiskInterrupts
                    | PerfEvent::TimerInterrupts
                    | PerfEvent::NicInterrupts
            );
            assert_eq!(e.provenance() == EventProvenance::Os, is_irq);
        }
    }

    #[test]
    fn event_set_insert_remove_roundtrip() {
        let mut s = EventSet::new();
        assert!(s.is_empty());
        assert!(s.insert(PerfEvent::TlbMisses));
        assert!(!s.insert(PerfEvent::TlbMisses), "second insert is a no-op");
        assert_eq!(s.len(), 1);
        assert!(s.remove(PerfEvent::TlbMisses));
        assert!(!s.remove(PerfEvent::TlbMisses));
        assert!(s.is_empty());
    }

    #[test]
    fn event_set_iterates_in_declaration_order() {
        let s: EventSet = [
            PerfEvent::TlbMisses,
            PerfEvent::Cycles,
            PerfEvent::DiskInterrupts,
        ]
        .into_iter()
        .collect();
        let order: Vec<_> = s.iter().collect();
        assert_eq!(
            order,
            vec![
                PerfEvent::Cycles,
                PerfEvent::TlbMisses,
                PerfEvent::DiskInterrupts
            ]
        );
    }

    #[test]
    fn layout_hash_distinguishes_order_subset_and_extension() {
        let base = [
            PerfEvent::Cycles,
            PerfEvent::HaltedCycles,
            PerfEvent::FetchedUops,
        ];
        let swapped = [
            PerfEvent::HaltedCycles,
            PerfEvent::Cycles,
            PerfEvent::FetchedUops,
        ];
        let extended = [
            PerfEvent::Cycles,
            PerfEvent::HaltedCycles,
            PerfEvent::FetchedUops,
            PerfEvent::TlbMisses,
        ];
        assert_eq!(layout_hash(&base), layout_hash(&base));
        assert_ne!(layout_hash(&base), layout_hash(&swapped));
        assert_ne!(layout_hash(&base), layout_hash(&extended));
        assert_ne!(layout_hash(&base), layout_hash(&base[..2]));
        assert_ne!(layout_hash(&[]), layout_hash(&base));
    }

    #[test]
    fn event_set_layout_hash_matches_declaration_order_list() {
        let s: EventSet = [
            PerfEvent::TlbMisses,
            PerfEvent::Cycles,
            PerfEvent::DiskInterrupts,
        ]
        .into_iter()
        .collect();
        let ordered: Vec<PerfEvent> = s.iter().collect();
        assert_eq!(s.layout_hash(), layout_hash(&ordered));
        // Insertion order is irrelevant: the set iterates (and hashes)
        // in declaration order.
        let t: EventSet = [
            PerfEvent::DiskInterrupts,
            PerfEvent::TlbMisses,
            PerfEvent::Cycles,
        ]
        .into_iter()
        .collect();
        assert_eq!(s.layout_hash(), t.layout_hash());
    }

    #[test]
    fn event_set_collects_from_iterator() {
        let s: EventSet = [PerfEvent::Cycles, PerfEvent::Cycles, PerfEvent::L2Misses]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }
}

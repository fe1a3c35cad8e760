//! Structure-of-arrays ingestion of per-machine counter samples.
//!
//! The scalar path ([`trickledown::SystemSample::from_sample_set`])
//! materialises one heap-allocated `SystemSample` per machine per
//! window and the models then walk those little structs pointer by
//! pointer. At fleet scale that layout is exactly wrong: the models
//! only ever consume *machine-aggregated* event rates, and they
//! consume the same thirteen of them for every machine. `SampleBatch`
//! therefore stores one contiguous `f64` column per aggregate — one
//! entry per machine — so model evaluation becomes a handful of dense
//! column passes (the [`tdp_simd`] kernels) instead of N
//! scattered struct walks.
//!
//! Ingestion mirrors `SystemSample::from_sample_set` (same
//! missing-event, zero-cycle and clamping semantics, same model-unit
//! scaling; rates agree to within an ulp — see `accumulate_rates`) and
//! runs the same row fold as the wire decoder: each machine's counts
//! are gathered into event lanes and reduced by [`fold_event_lanes`].
//! The lane buffer and the columns are reused window after window, so
//! the steady state does not allocate.

use tdp_counters::{PerfEvent, SampleSet};

/// Number of per-machine aggregate columns.
///
/// Thirteen covers every input of Equations 1–5 with squared inputs
/// materialised as their own columns, so each model coefficient maps to
/// exactly one `axpy` pass at evaluation time.
pub const COLUMNS: usize = 13;

/// Column indices into a [`SampleBatch`].
pub mod col {
    /// CPUs per machine (the Equation-1 `NumCPUs` multiplier).
    pub const NUM_CPUS: usize = 0;
    /// Σ over CPUs of the active (non-halted) fraction.
    pub const ACTIVE: usize = 1;
    /// Σ fetched uops per cycle.
    pub const UPC: usize = 2;
    /// Σ L3 load misses per **kilo**cycle (Equation 2's units).
    pub const L3: usize = 3;
    /// Σ of the per-CPU squares of [`L3`].
    pub const L3_SQ: usize = 4;
    /// Σ bus transactions per **mega**cycle (Equation 3's units).
    pub const BUS: usize = 5;
    /// Σ of the per-CPU squares of [`BUS`].
    pub const BUS_SQ: usize = 6;
    /// Σ DMA accesses per cycle.
    pub const DMA: usize = 7;
    /// Σ of the per-CPU squares of [`DMA`].
    pub const DMA_SQ: usize = 8;
    /// Σ disk-controller interrupts per cycle.
    pub const DISK_INT: usize = 9;
    /// Σ of the per-CPU squares of [`DISK_INT`].
    pub const DISK_INT_SQ: usize = 10;
    /// Σ device (non-timer) interrupts per cycle.
    pub const DEV_INT: usize = 11;
    /// Σ of the per-CPU squares of [`DEV_INT`].
    pub const DEV_INT_SQ: usize = 12;
}

/// One window's samples for a whole fleet, one machine per row, stored
/// column-major.
///
/// # Example
///
/// ```
/// use tdp_fleet::SampleBatch;
/// use tdp_simsys::{Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 {
///     machine.tick();
/// }
/// let set = machine.read_counters();
///
/// let mut batch = SampleBatch::with_capacity(16);
/// for _ in 0..16 {
///     batch.push_sample_set(&set);
/// }
/// assert_eq!(batch.len(), 16);
/// batch.clear(); // buffers retained for the next window
/// assert!(batch.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleBatch {
    pub(crate) cols: [Vec<f64>; COLUMNS],
    /// Gather scratch for [`push_sample_set`](Self::push_sample_set):
    /// one machine's counts as event lanes.
    lanes: Vec<f64>,
}

impl SampleBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `machines` rows per column.
    pub fn with_capacity(machines: usize) -> Self {
        Self {
            cols: std::array::from_fn(|_| Vec::with_capacity(machines)),
            lanes: Vec::new(),
        }
    }

    /// Machines ingested this window.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// Whether no machine has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.cols[0].is_empty()
    }

    /// Drops all rows, keeping the column buffers for reuse.
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
    }

    /// Appends one machine's raw counter read.
    ///
    /// Extraction semantics match
    /// [`trickledown::SystemSample::from_sample_set`] — missing events contribute
    /// rate 0, a zero cycle count never divides by zero, the active
    /// fraction is clamped to `[0, 1]` and the device-interrupt rate is
    /// the non-negative total-minus-timer difference — with rates
    /// formed as `count · (1/cycles)` (agreement to within an ulp). The
    /// row is [`fold_event_lanes`] over the set's gathered counts, bit
    /// for bit the row the wire decoder builds from the same counts.
    pub fn push_sample_set(&mut self, set: &SampleSet) {
        let row = extract_set(set, &mut self.lanes);
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
    }

    /// All columns as shared slices, for evaluation.
    pub(crate) fn col_slices(&self) -> [&[f64]; COLUMNS] {
        std::array::from_fn(|k| self.cols[k].as_slice())
    }

    /// All columns as shared slices, indexable with the [`col`]
    /// constants (one entry per machine each).
    pub fn columns(&self) -> [&[f64]; COLUMNS] {
        self.col_slices()
    }

    /// Resizes every column to `machines` rows for the indexed writes
    /// through [`columns_mut`](Self::columns_mut).
    /// Rows grown beyond the current length are zeroed; rows already
    /// present keep their values (call [`clear`](Self::clear) first for
    /// an all-zero window).
    pub fn resize_rows(&mut self, machines: usize) {
        for c in &mut self.cols {
            c.resize(machines, 0.0);
        }
    }

    /// All columns as mutable slices, indexable with the [`col`]
    /// constants — the write surface external ingestion (the `tdp-wire`
    /// decoder) writes [`fold_event_lanes`] rows into, keyed by
    /// machine id. Size the batch first with
    /// [`resize_rows`](Self::resize_rows).
    pub fn columns_mut(&mut self) -> [&mut [f64]; COLUMNS] {
        let mut it = self.cols.iter_mut();
        std::array::from_fn(|_| it.next().expect("13 columns").as_mut_slice())
    }
}

/// The nine raw events a machine row is built from, in the lane order
/// [`fold_event_lanes`] and [`RowAccumulator::accumulate_cpu`] consume.
///
/// External ingestion paths — the `tdp-wire` decoder in particular —
/// decode one f64 lane per entry per CPU for [`fold_event_lanes`], the
/// fold [`SampleBatch::push_sample_set`] runs on in-memory samples.
pub const ROW_EVENTS: [PerfEvent; 9] = [
    PerfEvent::Cycles,
    PerfEvent::HaltedCycles,
    PerfEvent::FetchedUops,
    PerfEvent::L3LoadMisses,
    PerfEvent::BusTransactionsAll,
    PerfEvent::DmaOtherBusTransactions,
    PerfEvent::InterruptsTotal,
    PerfEvent::TimerInterrupts,
    PerfEvent::DiskInterrupts,
];

/// The row projection of a counter layout: per event of `layout`, given
/// by its stable [`PerfEvent::index`], the [`ROW_EVENTS`] lane its plane
/// fills — `Some(k)` for the first occurrence of `ROW_EVENTS[k]`, `None`
/// for an event no lane reads, a repeat of one already placed, or an
/// index this build does not know (a newer producer).
///
/// This is the one rule both ends of the `tdp-wire` stream run: the
/// encoder ships exactly the planes it maps to a lane, in layout order,
/// and the decoder unfolds each wire plane into the lane it names. It
/// picks the planes [`SampleSet::plane`]'s first-occurrence lookup
/// gives the in-memory fold, so a projected frame decodes to the row of
/// the full set.
pub fn row_slots(layout: impl IntoIterator<Item = u64>) -> impl Iterator<Item = Option<usize>> {
    let mut placed = 0u16;
    layout.into_iter().map(move |index| {
        let k = ROW_EVENTS.iter().position(|e| e.index() as u64 == index)?;
        let fresh = placed & 1 << k == 0;
        placed |= 1 << k;
        fresh.then_some(k)
    })
}

/// One machine's row: widens each [`ROW_EVENTS`] plane of the set into
/// `lanes` (event-major, the shape [`fold_event_lanes`] takes; a
/// missing event is a `0.0` lane) and folds them. Every in-memory
/// ingestion path runs this, so it shares the wire decoder's fold by
/// construction. Planes come from
/// [`SampleSet::plane`], so an event listed twice reads its first
/// occurrence, as the wire decoder does.
///
/// `lanes` is caller-owned scratch, reused so the steady state does not
/// allocate.
fn extract_set(set: &SampleSet, lanes: &mut Vec<f64>) -> [f64; COLUMNS] {
    let cpus = set.num_cpus();
    lanes.clear();
    for event in ROW_EVENTS {
        match set.plane(event) {
            Some(plane) => lanes.extend(plane.iter().map(|&n| n as f64)),
            None => lanes.resize(lanes.len() + cpus, 0.0),
        }
    }
    fold_event_lanes(lanes, cpus)
}

/// Turns one CPU's counts, widened to f64 with a missing event carried
/// as `0.0`, into model-unit rates and adds them to the machine row.
/// Its expression sequence is the one [`fold_event_lanes`]'s packed
/// kernel runs per CPU, and it is **bit-identical** to routing
/// `Option<u64>` counts through the historical arithmetic:
///
/// * `n as f64` is the same IEEE rounding wherever it is performed, so
///   widening early changes nothing;
/// * `cycles.unwrap_or(0).max(1) as f64 ≡ (cycles_f).max(1.0)`: a
///   missing or zero count makes both sides exactly `1.0`, any count
///   `≥ 1` widens to `≥ 1.0` and the max is a no-op on both sides
///   (counts past 2⁵³ round first, identically, and stay `≥ 1.0`);
/// * a missing event and a zero count produce identical rates:
///   `inv_cycles` is finite and positive, so `0.0 · inv_cycles` is
///   `+0.0` — the exact bits `unwrap_or(0.0)` produced — and every
///   downstream use (the active-fraction clamp, the device-interrupt
///   difference, the squares) receives identical inputs.
fn accumulate_rates(row: &mut [f64; COLUMNS], vals: [f64; ROW_EVENTS.len()]) {
    let [cycles, halted, uops, l3, bus, dma, int_total, timer, disk] = vals;

    // One reciprocal instead of nine divides per CPU: `n · (1/c)`
    // differs from `n / c` by at most one ulp, far inside the 1e-9
    // batch-vs-scalar agreement bound, and f64 multiplies pipeline
    // where divides serialise.
    let inv_cycles = 1.0 / cycles.max(1.0);
    let rate = |n: f64| n * inv_cycles;

    let active = (1.0 - rate(halted)).clamp(0.0, 1.0);
    let upc = rate(uops);
    let l3_kc = rate(l3) * 1_000.0;
    let bus_mc = rate(bus) * 1e6;
    let dma = rate(dma);
    let dev = (rate(int_total) - rate(timer)).max(0.0);
    let disk = rate(disk);

    row[col::ACTIVE] += active;
    row[col::UPC] += upc;
    row[col::L3] += l3_kc;
    row[col::L3_SQ] += l3_kc * l3_kc;
    row[col::BUS] += bus_mc;
    row[col::BUS_SQ] += bus_mc * bus_mc;
    row[col::DMA] += dma;
    row[col::DMA_SQ] += dma * dma;
    row[col::DISK_INT] += disk;
    row[col::DISK_INT_SQ] += disk * disk;
    row[col::DEV_INT] += dev;
    row[col::DEV_INT_SQ] += dev * dev;
}

/// The scalar reference fold: one machine row built CPU by CPU from
/// `Option<u64>` counts. Ingestion itself runs [`fold_event_lanes`];
/// this stays as the oracle tests compare that fold (and so every
/// ingestion path) against, bit for bit.
///
/// Feed one `[Option<u64>; 9]` of counts per CPU, ordered as
/// [`ROW_EVENTS`] (`None` marks an event absent from that CPU's PMU
/// programming), then [`finish`](Self::finish) the row.
#[derive(Debug, Clone)]
pub struct RowAccumulator {
    row: [f64; COLUMNS],
}

impl RowAccumulator {
    /// Starts a row for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        let mut row = [0.0f64; COLUMNS];
        row[col::NUM_CPUS] = num_cpus as f64;
        Self { row }
    }

    /// Folds one CPU's raw counts (ordered as [`ROW_EVENTS`]) into the
    /// row. Call order must match CPU order — float accumulation is
    /// order-sensitive, and the bit-identical guarantee holds only for
    /// the fold's own order (CPU 0 first).
    pub fn accumulate_cpu(&mut self, counts: [Option<u64>; ROW_EVENTS.len()]) {
        accumulate_rates(&mut self.row, counts.map(|n| n.map_or(0.0, |n| n as f64)));
    }

    /// The finished machine row.
    pub fn finish(self) -> [f64; COLUMNS] {
        self.row
    }
}

/// Reduces one machine's event lanes to a fleet row — the one row fold
/// of the crate: [`SampleBatch::push_sample_set`] gathers in-memory
/// samples into lanes for it, and the `tdp-wire` decoder decodes frames
/// into lanes for it.
///
/// `lanes` is event-major in [`ROW_EVENTS`] order: `lanes[k · cpus +
/// c]` is row event `k`'s count on CPU `c` as f64, and an event the
/// machine's layout lacks is a lane of `0.0` (`lanes.len() == 9 ·
/// cpus`). Every layout takes the one packed
/// [`fold_row_rates`](tdp_simd::fold_row_rates) kernel: rates derived a
/// vector of CPUs at a time, reduced in CPU order.
///
/// Bit-identity with the `Option<u64>` reference fold
/// ([`RowAccumulator`]) holds by the argument on the private
/// `accumulate_rates`: widening is the
/// same rounding wherever performed, an absent event ≡ a `0.0` lane,
/// and the CPU fold order (CPU 0 first) is unchanged. The kernel's
/// elementwise-then-ordered-reduce structure is itself bit-identical to
/// the scalar per-CPU accumulation (see its docs), so a row never
/// depends on whether the machine ran the AVX2 or the scalar flavour.
///
/// # Panics
///
/// Panics if `lanes.len() != 9 · cpus`.
#[inline]
pub fn fold_event_lanes(lanes: &[f64], cpus: usize) -> [f64; COLUMNS] {
    let mut row = [0.0f64; COLUMNS];
    row[col::NUM_CPUS] = cpus as f64;
    let rates: &mut [f64; COLUMNS - 1] = (&mut row[col::ACTIVE..])
        .try_into()
        .expect("12 rate columns");
    tdp_simd::fold_row_rates(lanes, cpus, rates);
    row
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use trickledown::SystemSample;

    /// A sample's machine row from its per-CPU rates: each rate column
    /// sums one `CpuRates` field in model units, in CPU order, and each
    /// quadratic input's column is followed by the sum of its squares.
    pub(crate) fn sums_of(sample: &SystemSample) -> [f64; COLUMNS] {
        let mut row = [0.0; COLUMNS];
        row[col::NUM_CPUS] = sample.num_cpus() as f64;
        for c in &sample.per_cpu {
            let l3 = c.l3_load_misses * 1_000.0;
            let bus = c.bus_tx_per_mcycle;
            let dma = c.dma_per_cycle;
            let disk = c.disk_interrupts_per_cycle;
            let dev = c.device_interrupts_per_cycle;
            let terms = [
                c.active_frac,
                c.fetched_upc,
                l3,
                l3 * l3,
                bus,
                bus * bus,
                dma,
                dma * dma,
                disk,
                disk * disk,
                dev,
                dev * dev,
            ];
            for (sum, v) in row[col::ACTIVE..].iter_mut().zip(terms) {
                *sum += v;
            }
        }
        row
    }

    /// The set of `per_cpu` counts over `events`, CPU `c` being
    /// `per_cpu[c]`.
    fn set_with(events: &[PerfEvent], per_cpu: &[&[u64]]) -> SampleSet {
        let mut set = SampleSet::empty();
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
    fn extraction_matches_from_sample_set() {
        let busy = [
            2_000_000_000,
            500_000_000,
            3_000_000_000,
            4_000_000,
            20_000_000,
            1_000_000,
            5_000,
            2_000,
            800,
        ];
        // Second CPU counts only cycles: its rates must be zero.
        let cycles_only = [1_000_000_000, 0, 0, 0, 0, 0, 0, 0, 0];
        let set = set_with(&ROW_EVENTS, &[&busy, &cycles_only]);
        let row = extract_set(&set, &mut Vec::new());
        let via_sample = sums_of(&SystemSample::from_sample_set(&set));
        // `extract_set` multiplies by 1/cycles where `from_sample_set`
        // divides, so agreement is to within a couple of ulps rather
        // than bit-for-bit.
        for (k, (a, b)) in row.iter().zip(&via_sample).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "column {k}: extract_set {a} vs via from_sample_set {b}"
            );
        }
        assert_eq!(row[col::NUM_CPUS], 2.0);
        // CPU 1 counts no halted cycles ⇒ fully active.
        assert!((row[col::ACTIVE] - (0.75 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_and_missing_events_are_safe() {
        let set = set_with(&[PerfEvent::Cycles, PerfEvent::FetchedUops], &[&[0, 7]]);
        let row = extract_set(&set, &mut Vec::new());
        assert!(row.iter().all(|v| v.is_finite()));
        assert_eq!(row[col::DISK_INT], 0.0);
    }

    #[test]
    fn timer_exceeding_total_clamps_device_rate_to_zero() {
        let events = [
            PerfEvent::Cycles,
            PerfEvent::InterruptsTotal,
            PerfEvent::TimerInterrupts,
        ];
        let set = set_with(&events, &[&[1_000_000, 10, 25]]);
        assert_eq!(extract_set(&set, &mut Vec::new())[col::DEV_INT], 0.0);
    }

    #[test]
    fn lane_fold_matches_the_row_accumulator_bit_for_bit() {
        // Counts spanning zero cycles, missing events (a `0.0` lane on
        // the fold side, `None` on the accumulator side) and counts past
        // 2^53, at CPU counts on and off the kernel's 4-CPU chunk.
        for cpus in [0usize, 1, 3, 4, 5, 32] {
            let count = |k: usize, c: usize| -> Option<u64> {
                match (k * 7 + c * 3) % 11 {
                    0 => None,
                    1 => Some(0),
                    2 => Some(u64::MAX - c as u64),
                    v => Some((v as u64) << (k * 4 + c % 5)),
                }
            };
            let mut lanes = vec![0.0; ROW_EVENTS.len() * cpus];
            let mut acc = RowAccumulator::new(cpus);
            for c in 0..cpus {
                for k in 0..ROW_EVENTS.len() {
                    lanes[k * cpus + c] = count(k, c).map_or(0.0, |n| n as f64);
                }
                acc.accumulate_cpu(std::array::from_fn(|k| count(k, c)));
            }
            let got = fold_event_lanes(&lanes, cpus);
            let want = acc.finish();
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "cpus={cpus}");
        }
    }

    #[test]
    fn row_slots_place_each_row_event_at_its_first_occurrence() {
        // Row events reordered, repeated and mixed with non-row events
        // and an index no build knows: each lane goes to the first
        // position listing its event, and nothing else gets one.
        let mut layout: Vec<u64> = vec![99, PerfEvent::TlbMisses.index() as u64];
        layout.extend(ROW_EVENTS.iter().rev().map(|e| e.index() as u64));
        layout.extend(PerfEvent::ALL.iter().map(|e| e.index() as u64));
        let got: Vec<Option<usize>> = row_slots(layout.iter().copied()).collect();
        let want: Vec<Option<usize>> = (0..layout.len())
            .map(|i| {
                let k = ROW_EVENTS
                    .iter()
                    .position(|e| e.index() as u64 == layout[i])?;
                (!layout[..i].contains(&layout[i])).then_some(k)
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().flatten().count(), ROW_EVENTS.len());
        assert_eq!(
            got[2],
            Some(ROW_EVENTS.len() - 1),
            "the reversed list leads"
        );
        assert!(row_slots([]).next().is_none());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = SampleBatch::with_capacity(4);
        let set = set_with(&[PerfEvent::Cycles], &[&[1_000]]);
        for _ in 0..4 {
            b.push_sample_set(&set);
        }
        let cap_before = b.cols[0].capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.cols[0].capacity(), cap_before);
    }
}

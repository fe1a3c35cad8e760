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
//! column passes (see [`kernels`](crate::kernels)) instead of N
//! scattered struct walks.
//!
//! Ingestion mirrors `SystemSample::from_sample_set` (same
//! missing-event, zero-cycle and clamping semantics, same model-unit
//! scaling; rates agree to within an ulp — see `accumulate_cpu`) but in
//! one pass over each CPU's sparse counter pairs and with zero
//! allocation: aggregates are reduced on the stack and appended to the
//! columns, whose buffers are reused window after window.

use tdp_counters::{CounterSample, PerfEvent, SampleSet};
use trickledown::SystemSample;

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
    layout: LayoutCache,
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
            layout: LayoutCache::default(),
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
    /// [`SystemSample::from_sample_set`] — missing events contribute
    /// rate 0, a zero cycle count never divides by zero, the active
    /// fraction is clamped to `[0, 1]` and the device-interrupt rate is
    /// the non-negative total-minus-timer difference — but performed in
    /// a single pass per CPU with no allocation, and with rates formed
    /// as `count · (1/cycles)` (agreement to within an ulp).
    pub fn push_sample_set(&mut self, set: &SampleSet) {
        let row = extract_set_cached(set, &mut self.layout);
        self.push_row(row);
    }

    /// Appends one machine's pre-extracted sample.
    pub fn push_sample(&mut self, sample: &SystemSample) {
        self.push_row(extract_sample(sample));
    }

    /// Appends one machine's pre-aggregated column row — the raw-row
    /// ingestion point for producers that build rows outside this
    /// crate, such as the `tdp-wire` zero-copy decoder (via
    /// [`fold_event_lanes`], which guarantees the row was formed by the
    /// exact arithmetic [`push_sample_set`](Self::push_sample_set)
    /// uses).
    pub fn push_row(&mut self, row: [f64; COLUMNS]) {
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
    }

    /// Overwrites row `machine` with a pre-aggregated column row — the
    /// indexed counterpart of [`push_row`](Self::push_row) for writers
    /// that place machines at fixed positions (wire ingest keys rows by
    /// machine id).
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range — size the batch first with
    /// [`resize_rows`](Self::resize_rows).
    pub fn set_row(&mut self, machine: usize, row: [f64; COLUMNS]) {
        for (c, v) in self.cols.iter_mut().zip(row) {
            c[machine] = v;
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

    /// Resizes every column to `machines` rows for the indexed write
    /// paths ([`set_row`](Self::set_row) and
    /// [`FleetEstimator::process_window`](crate::FleetEstimator::process_window)).
    /// Rows grown beyond the current length are zeroed; rows already
    /// present keep their values (call [`clear`](Self::clear) first for
    /// an all-zero window).
    pub fn resize_rows(&mut self, machines: usize) {
        for c in &mut self.cols {
            c.resize(machines, 0.0);
        }
    }

    /// All columns as mutable slices, for the indexed bulk extraction
    /// of [`FleetEstimator::process_window`](crate::FleetEstimator::process_window).
    pub(crate) fn col_slices_mut(&mut self) -> [&mut [f64]; COLUMNS] {
        let mut it = self.cols.iter_mut();
        std::array::from_fn(|_| it.next().expect("13 columns").as_mut_slice())
    }

    /// All columns as mutable slices, indexable with the [`col`]
    /// constants — the raw write surface external fused ingestion
    /// (the `tdp-wire` serial path) writes [`fold_event_lanes`] rows
    /// into directly, instead of staging each row through
    /// [`set_row`](Self::set_row). Size the batch first with
    /// [`resize_rows`](Self::resize_rows).
    pub fn columns_mut(&mut self) -> [&mut [f64]; COLUMNS] {
        self.col_slices_mut()
    }
}

/// The nine raw events a machine row is built from, in the count order
/// [`RowAccumulator::accumulate_cpu`] consumes (and the batch's layout
/// cache records positions for).
///
/// External ingestion paths — the `tdp-wire` decoder in particular —
/// either decode one f64 lane per entry per CPU for
/// [`fold_event_lanes`], or gather one `Option<u64>` count per entry
/// per CPU and feed them through [`RowAccumulator`]; both apply the
/// exact same rate arithmetic as [`SampleBatch::push_sample_set`].
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

const K_CYCLES: usize = 0;
const K_HALTED: usize = 1;
const K_UOPS: usize = 2;
const K_L3: usize = 3;
const K_BUS: usize = 4;
const K_DMA: usize = 5;
const K_INT_TOTAL: usize = 6;
const K_TIMER: usize = 7;
const K_DISK: usize = 8;

/// Longest event list the layout cache will memoise. [`PerfEvent`] has
/// 18 variants today; longer lists fall back to a per-sample rescan.
const MAX_CACHED_EVENTS: usize = 32;

/// Memoised event layout of the previous counter sample.
///
/// Every CPU in a fleet is normally programmed with the same event set
/// in the same order, so instead of dispatching on every `(event,
/// count)` pair of every sample, ingestion remembers where each wanted
/// event sat in the last sample and reads the next sample's counts with
/// one indexed load per event, *verifying the event tag on the same
/// tuple as it loads the count* — so a layout change can never be
/// consumed silently, and the verification costs no extra memory
/// traffic. Any mismatch (different PMU programming, first sample, a
/// wanted event missing) falls back to a linear rescan that rebuilds
/// the cache. All-inline storage: the cache itself never allocates.
///
/// One caveat, checked nowhere because no producer in this repo does
/// it: if a sample lists the same event *twice*, the verified-load path
/// may read whichever occurrence the previous layout pointed at, where
/// the rescan path keeps `CounterSample::count`'s first-match rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayoutCache {
    /// Number of cached events; `u8::MAX` marks "nothing cached yet /
    /// layout too long to cache", which no real list length matches.
    len: u8,
    /// Whether every [`ROW_EVENTS`] entry was present — the
    /// precondition for the verified-load fast path.
    all_present: bool,
    events: [PerfEvent; MAX_CACHED_EVENTS],
    /// Position of each [`ROW_EVENTS`] entry in the layout
    /// (first occurrence, like `CounterSample::count`'s linear find);
    /// `u16::MAX` when absent.
    pos: [u16; ROW_EVENTS.len()],
}

impl Default for LayoutCache {
    fn default() -> Self {
        Self {
            len: u8::MAX,
            all_present: false,
            events: [PerfEvent::Cycles; MAX_CACHED_EVENTS],
            pos: [u16::MAX; ROW_EVENTS.len()],
        }
    }
}

impl LayoutCache {
    /// Verified loads of all wanted counts, or `None` if the sample's
    /// layout no longer matches the cached positions.
    #[inline]
    fn load_verified(&self, pairs: &[(PerfEvent, u64)]) -> Option<[u64; ROW_EVENTS.len()]> {
        if !self.all_present || pairs.len() != self.len as usize {
            return None;
        }
        let mut vals = [0u64; ROW_EVENTS.len()];
        let mut ok = true;
        for (k, (&wanted, v)) in ROW_EVENTS.iter().zip(&mut vals).enumerate() {
            let (event, count) = pairs[self.pos[k] as usize];
            ok &= event == wanted;
            *v = count;
        }
        ok.then_some(vals)
    }

    #[inline]
    fn matches(&self, pairs: &[(PerfEvent, u64)]) -> bool {
        pairs.len() == self.len as usize
            && pairs.len() <= MAX_CACHED_EVENTS
            && pairs.iter().zip(&self.events).all(|(p, e)| p.0 == *e)
    }

    #[cold]
    fn rebuild(&mut self, pairs: &[(PerfEvent, u64)]) {
        if pairs.len() <= MAX_CACHED_EVENTS {
            self.len = pairs.len() as u8;
            for (dst, p) in self.events.iter_mut().zip(pairs) {
                *dst = p.0;
            }
        } else {
            self.len = u8::MAX;
        }
        for (k, &e) in ROW_EVENTS.iter().enumerate() {
            self.pos[k] = pairs
                .iter()
                .position(|&(pe, _)| pe == e)
                .map_or(u16::MAX, |i| i as u16);
        }
        self.all_present = self.pos.iter().all(|&p| p != u16::MAX);
    }
}

/// Machine-aggregated columns from one raw counter read. The hot inner
/// loop of fleet ingestion; `cache` carries the memoised event layout
/// between samples (see [`LayoutCache`]).
pub(crate) fn extract_set_cached(set: &SampleSet, cache: &mut LayoutCache) -> [f64; COLUMNS] {
    let mut row = [0.0f64; COLUMNS];
    row[col::NUM_CPUS] = set.per_cpu.len() as f64;
    for cpu in &set.per_cpu {
        accumulate_cpu(cpu, &mut row, cache);
    }
    row
}

/// Extracts a whole window of sets into column slices, machine `i`'s
/// row landing at index `i` of every column — the bulk counterpart of
/// [`extract_set_cached`] and the hot outer loop of `process_window`.
///
/// Dispatches between two compiled flavours of the same loop body
/// (baseline target features vs AVX2 — see [`wide`]), selected by the
/// process-wide [`tdp_simd::Dispatch::active`] decision. Identical
/// source, no reassociation: the flavours are bit-identical.
///
/// # Panics
///
/// Panics if any column is shorter than `sets`.
pub(crate) fn extract_sets_into(
    sets: &[SampleSet],
    cache: &mut LayoutCache,
    cols: &mut [&mut [f64]; COLUMNS],
) {
    match tdp_simd::Dispatch::active() {
        tdp_simd::Dispatch::Scalar => extract_sets_into_impl(sets, cache, cols),
        tdp_simd::Dispatch::Wide => {
            #[cfg(target_arch = "x86_64")]
            if tdp_simd::wide_available() {
                // SAFETY: AVX2 support verified on the line above; the
                // wrapper has no other obligations.
                #[allow(unsafe_code)]
                return unsafe { wide::extract_sets_avx2(sets, cache, cols) };
            }
            extract_sets_into_impl(sets, cache, cols)
        }
    }
}

/// The two-flavour recompilation of [`extract_sets_into_impl`]: the
/// only `unsafe` in this crate, confined here (see the crate-level
/// lint note).
mod wide {
    #![allow(unsafe_code)]

    use super::{extract_sets_into_impl, LayoutCache, COLUMNS};
    use tdp_counters::SampleSet;

    /// [`extract_sets_into_impl`] compiled with AVX2 available: LLVM
    /// widens the per-CPU rate arithmetic and the row/column stores to
    /// 256-bit lanes. Same source body, no reassociation —
    /// bit-identical to the baseline build.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers verify via
    /// [`tdp_simd::wide_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn extract_sets_avx2(
        sets: &[SampleSet],
        cache: &mut LayoutCache,
        cols: &mut [&mut [f64]; COLUMNS],
    ) {
        extract_sets_into_impl(sets, cache, cols)
    }
}

/// The shared loop body of [`extract_sets_into`].
///
/// Structural wins over calling [`extract_set_cached`] per set:
///
/// * the layout cache is snapshotted *by value once per run of
///   layout-stable sets*, so the per-CPU verified loads read the
///   memoised positions from registers instead of reloading them
///   through the `&mut` cache after every accumulation, and the
///   rebuilding slow path stays entirely outside the hot loop;
/// * the columns are resliced to exactly `sets.len()` up front, so the
///   thirteen per-machine stores are provably in bounds and compile
///   without per-store checks.
///
/// Every cached layout, canonical [`ROW_EVENTS`] order or not, runs the
/// same position-indexed [`LayoutCache::load_verified`] loads. Any set
/// that fails verification is re-extracted from scratch on the slow
/// path (same CPU order, same arithmetic — the row is bit-identical),
/// the cache rebuilds, and the fast loop resumes with a fresh snapshot.
#[inline(always)]
fn extract_sets_into_impl(
    sets: &[SampleSet],
    cache: &mut LayoutCache,
    cols: &mut [&mut [f64]; COLUMNS],
) {
    let n = sets.len();
    let mut dst: [&mut [f64]; COLUMNS] = std::array::from_fn(|k| {
        let c = std::mem::take(&mut cols[k]);
        &mut c[..n]
    });
    let mut i = 0;
    while i < n {
        // Layout-stable run: extract machines from `i`, writing each
        // finished row straight into the columns, until a set fails
        // verification (layout change — left for the slow path below)
        // or the window ends.
        let snap = *cache;
        'fast: while snap.all_present && i < n {
            let set = &sets[i];
            let mut row = [0.0f64; COLUMNS];
            row[col::NUM_CPUS] = set.per_cpu.len() as f64;
            for cpu in &set.per_cpu {
                match snap.load_verified(cpu.counts()) {
                    Some(vals) => accumulate_rates(&mut row, vals.map(Some)),
                    None => break 'fast,
                }
            }
            for (c, v) in dst.iter_mut().zip(row) {
                c[i] = v;
            }
            i += 1;
        }
        if i < n {
            // Layout changed (or nothing cached yet): extract this one
            // set through the rebuilding path, then re-snapshot.
            let row = extract_set_cached(&sets[i], cache);
            for (c, v) in dst.iter_mut().zip(row) {
                c[i] = v;
            }
            i += 1;
        }
    }
    // Hand the (full-length) columns back to the caller.
    for (slot, c) in cols.iter_mut().zip(dst) {
        *slot = c;
    }
}

/// One-shot extraction for cold paths (calibration, tests): pays a
/// layout rescan per call.
pub(crate) fn extract_set(set: &SampleSet) -> [f64; COLUMNS] {
    extract_set_cached(set, &mut LayoutCache::default())
}

fn accumulate_cpu(cpu: &CounterSample, row: &mut [f64; COLUMNS], cache: &mut LayoutCache) {
    let pairs = cpu.counts();
    // Fast path: every wanted event present at its remembered position
    // (verified tuple by tuple as the counts are loaded).
    if let Some(vals) = cache.load_verified(pairs) {
        return accumulate_rates(row, vals.map(Some));
    }
    // Slow path: rescan, then fetch through the rebuilt positions.
    if !cache.matches(pairs) {
        cache.rebuild(pairs);
    }
    let fetch = |k: usize| -> Option<u64> {
        let p = cache.pos[k];
        (p != u16::MAX).then(|| pairs[p as usize].1)
    };
    let vals = [
        fetch(K_CYCLES),
        fetch(K_HALTED),
        fetch(K_UOPS),
        fetch(K_L3),
        fetch(K_BUS),
        fetch(K_DMA),
        fetch(K_INT_TOTAL),
        fetch(K_TIMER),
        fetch(K_DISK),
    ];
    accumulate_rates(row, vals);
}

/// Turns one CPU's raw counts into model-unit rates and adds them to
/// the machine row. Inlined into both the verified-load fast path
/// (where every `Option` is statically `Some` and folds away) and the
/// rescan path.
///
/// A missing count maps to `0.0` before the shared f64 core runs; see
/// [`accumulate_rates_f64`] for why that mapping is bit-exact.
#[inline(always)]
fn accumulate_rates(row: &mut [f64; COLUMNS], vals: [Option<u64>; ROW_EVENTS.len()]) {
    accumulate_rates_f64(row, vals.map(|n| n.map_or(0.0, |n| n as f64)));
}

/// The f64 core of [`accumulate_rates`]: one CPU's counts already
/// widened to f64, a missing event carried as `0.0`. Its expression
/// sequence is the one [`fold_event_lanes`]'s packed kernel runs per
/// CPU, and it is **bit-identical** to routing `Option<u64>` counts
/// through the historical arithmetic:
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
#[inline(always)]
fn accumulate_rates_f64(row: &mut [f64; COLUMNS], vals: [f64; ROW_EVENTS.len()]) {
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

/// Builds one machine row from per-CPU raw counts using the *same*
/// rate arithmetic as [`SampleBatch::push_sample_set`] — the contract
/// external decoders (the `tdp-wire` zero-copy path) rely on for
/// bit-identical wire-vs-in-memory ingestion.
///
/// Feed one `[Option<u64>; 9]` of counts per CPU, ordered as
/// [`ROW_EVENTS`] (`None` marks an event absent from that CPU's PMU
/// programming), then [`finish`](Self::finish) the row for
/// [`SampleBatch::push_row`] or [`SampleBatch::set_row`].
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
    /// the same sequence `push_sample_set` would use (CPU 0 first).
    #[inline]
    pub fn accumulate_cpu(&mut self, counts: [Option<u64>; ROW_EVENTS.len()]) {
        accumulate_rates(&mut self.row, counts);
    }

    /// The finished machine row.
    pub fn finish(self) -> [f64; COLUMNS] {
        self.row
    }
}

/// Reduces one machine's decoded event lanes to a fleet row — the
/// fused-column counterpart of [`RowAccumulator`], consuming counts
/// already widened to f64 at decode time instead of `Option<u64>`
/// gathers.
///
/// `lanes` is event-major in [`ROW_EVENTS`] order: `lanes[k · cpus +
/// c]` is row event `k`'s count on CPU `c` as f64, and an event the
/// machine's layout lacks is a lane of `0.0` (`lanes.len() == 9 ·
/// cpus`). The decoder projects each frame into this shape, so every
/// layout takes the one packed [`fold_row_rates`](tdp_simd::fold_row_rates)
/// kernel: rates derived a vector of CPUs at a time, reduced in CPU
/// order.
///
/// Bit-identity with the `Option<u64>` reference path
/// ([`SampleBatch::push_sample_set`] / [`RowAccumulator`]) holds by
/// the argument on the private `accumulate_rates_f64`: widening is the
/// same rounding wherever performed, an absent event ≡ a `0.0` lane,
/// and the CPU fold order (CPU 0 first) is unchanged. The kernel's
/// elementwise-then-ordered-reduce structure is itself bit-identical to
/// the scalar per-CPU accumulation (see its docs), so dispatch flavour
/// never changes a row.
///
/// # Panics
///
/// Panics if `lanes.len() != 9 · cpus`.
#[inline]
pub fn fold_event_lanes(d: tdp_simd::Dispatch, lanes: &[f64], cpus: usize) -> [f64; COLUMNS] {
    let mut row = [0.0f64; COLUMNS];
    row[col::NUM_CPUS] = cpus as f64;
    let rates: &mut [f64; COLUMNS - 1] = (&mut row[col::ACTIVE..])
        .try_into()
        .expect("12 rate columns");
    tdp_simd::fold_row_rates(d, lanes, cpus, rates);
    row
}

/// Machine-aggregated columns from a pre-extracted sample, in the same
/// model units as [`extract_set`].
pub(crate) fn extract_sample(sample: &SystemSample) -> [f64; COLUMNS] {
    let mut row = [0.0f64; COLUMNS];
    row[col::NUM_CPUS] = sample.per_cpu.len() as f64;
    for c in &sample.per_cpu {
        let l3_kc = c.l3_load_misses * 1_000.0;
        row[col::ACTIVE] += c.active_frac;
        row[col::UPC] += c.fetched_upc;
        row[col::L3] += l3_kc;
        row[col::L3_SQ] += l3_kc * l3_kc;
        row[col::BUS] += c.bus_tx_per_mcycle;
        row[col::BUS_SQ] += c.bus_tx_per_mcycle * c.bus_tx_per_mcycle;
        row[col::DMA] += c.dma_per_cycle;
        row[col::DMA_SQ] += c.dma_per_cycle * c.dma_per_cycle;
        row[col::DISK_INT] += c.disk_interrupts_per_cycle;
        row[col::DISK_INT_SQ] += c.disk_interrupts_per_cycle * c.disk_interrupts_per_cycle;
        row[col::DEV_INT] += c.device_interrupts_per_cycle;
        row[col::DEV_INT_SQ] += c.device_interrupts_per_cycle * c.device_interrupts_per_cycle;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_counters::{CpuId, InterruptSnapshot};

    fn set_with(per_cpu: Vec<Vec<(PerfEvent, u64)>>) -> SampleSet {
        SampleSet {
            time_ms: 1000,
            window_ms: 1000,
            seq: 0,
            per_cpu: per_cpu
                .into_iter()
                .enumerate()
                .map(|(i, counts)| CounterSample::new(CpuId::new(i as u8), 0, counts))
                .collect(),
            interrupts: InterruptSnapshot::default(),
        }
    }

    #[test]
    fn extraction_matches_from_sample_set() {
        let set = set_with(vec![
            vec![
                (PerfEvent::Cycles, 2_000_000_000),
                (PerfEvent::HaltedCycles, 500_000_000),
                (PerfEvent::FetchedUops, 3_000_000_000),
                (PerfEvent::L3LoadMisses, 4_000_000),
                (PerfEvent::BusTransactionsAll, 20_000_000),
                (PerfEvent::DmaOtherBusTransactions, 1_000_000),
                (PerfEvent::InterruptsTotal, 5_000),
                (PerfEvent::TimerInterrupts, 2_000),
                (PerfEvent::DiskInterrupts, 800),
            ],
            // Second CPU missing most events: rates must be zero.
            vec![(PerfEvent::Cycles, 1_000_000_000)],
        ]);
        let row = extract_set(&set);
        let via_sample = extract_sample(&SystemSample::from_sample_set(&set));
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
        // CPU 1 has no halted counter ⇒ fully active.
        assert!((row[col::ACTIVE] - (0.75 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_and_missing_events_are_safe() {
        let set = set_with(vec![vec![
            (PerfEvent::Cycles, 0),
            (PerfEvent::FetchedUops, 7),
        ]]);
        let row = extract_set(&set);
        assert!(row.iter().all(|v| v.is_finite()));
        assert_eq!(row[col::DISK_INT], 0.0);
    }

    #[test]
    fn timer_exceeding_total_clamps_device_rate_to_zero() {
        let set = set_with(vec![vec![
            (PerfEvent::Cycles, 1_000_000),
            (PerfEvent::InterruptsTotal, 10),
            (PerfEvent::TimerInterrupts, 25),
        ]]);
        assert_eq!(extract_set(&set)[col::DEV_INT], 0.0);
    }

    #[test]
    fn lane_fold_matches_the_row_accumulator_bit_for_bit() {
        // Counts spanning zero cycles, missing events (a `0.0` lane on
        // the fold side, `None` on the accumulator side) and counts past
        // 2^53, at CPU counts on and off the kernel's 4-CPU chunk.
        for d in [tdp_simd::Dispatch::Scalar, tdp_simd::Dispatch::Wide] {
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
                let got = fold_event_lanes(d, &lanes, cpus);
                let want = acc.finish();
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{d:?} cpus={cpus}"
                );
            }
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = SampleBatch::with_capacity(4);
        let set = set_with(vec![vec![(PerfEvent::Cycles, 1_000)]]);
        for _ in 0..4 {
            b.push_sample_set(&set);
        }
        let cap_before = b.cols[0].capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.cols[0].capacity(), cap_before);
    }
}

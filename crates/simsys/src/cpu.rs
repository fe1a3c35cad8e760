//! Processor core model: fetch throughput, SMT contention, HLT clock
//! gating and speculative activity.

use crate::behavior::TickDemand;
use crate::cache::CacheHierarchy;
use crate::config::{CacheConfig, CpuConfig, PrefetchConfig};
use crate::prefetch::StreamPrefetcher;
use crate::rng::SimRng;
use crate::tlb::TlbModel;

/// What a core did during one tick, as the power ground truth sees it.
///
/// `stall_search_frac` is the piece the paper's fetch-based model cannot
/// see: a memory-bound thread like `mcf` fetches almost nothing while the
/// out-of-order engine "is continuously searching for (and not finding)
/// ready instructions in the instruction window", at "a high power cost
/// that is equivalent to executing an additional 1–2 instructions/cycle"
/// (§4.3). It drives ground-truth power but no counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreActivity {
    /// Total cycles this tick (free-running clock).
    pub cycles: u64,
    /// Cycles spent clock-gated after `HLT`.
    pub halted_cycles: u64,
    /// Micro-ops fetched (useful + wrong-path).
    pub fetched_uops: u64,
    /// Effective fetched uops per *unhalted* cycle.
    pub upc: f64,
    /// Fraction of unhalted cycles spent in instruction-window search
    /// while stalled on memory (0–1). Burns power no counter reports.
    pub stall_search_frac: f64,
    /// Fraction of unhalted cycles spent in *quiet* memory stalls
    /// (streaming waits with execution units clock-gated). Saves power
    /// no counter reports.
    pub quiet_stall_frac: f64,
}

/// Line-granularity memory traffic a core pushes toward the bus in one
/// tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryTraffic {
    /// Demand fills (post-prefetch L3 misses, loads + RFOs).
    pub demand_fill_lines: u64,
    /// Prefetcher-issued lines.
    pub prefetch_lines: u64,
    /// Dirty write-backs.
    pub writeback_lines: u64,
    /// Page-walk reads.
    pub pagewalk_lines: u64,
    /// Uncacheable (MMIO) accesses.
    pub uncacheable_accesses: u64,
}

impl MemoryTraffic {
    /// Every bus transaction this core originates.
    pub fn total_lines(&self) -> u64 {
        self.demand_fill_lines
            + self.prefetch_lines
            + self.writeback_lines
            + self.pagewalk_lines
            + self.uncacheable_accesses
    }
}

/// Counter deltas a core produced in one tick (before OS-side events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounterDeltas {
    /// Fetched micro-ops.
    pub fetched_uops: u64,
    /// Retired micro-ops.
    pub retired_uops: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Demand loads missing L3 *after* prefetch coverage — what the PMU
    /// counts.
    pub l3_load_misses: u64,
    /// All demand L3 misses after prefetch coverage.
    pub l3_total_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Uncacheable accesses.
    pub uncacheable: u64,
}

/// Result of one core-tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuTickResult {
    /// Power-relevant activity.
    pub activity: CoreActivity,
    /// Bus-bound traffic.
    pub traffic: MemoryTraffic,
    /// PMU deltas.
    pub counters: CoreCounterDeltas,
    /// Retired uops per scheduled thread, in the order the demands were
    /// passed — the scheduler accounting that per-process power billing
    /// (§4.2.1) is built on.
    pub per_thread_retired: Vec<u64>,
}

impl CpuTickResult {
    /// Clears every field for reuse, keeping the `per_thread_retired`
    /// buffer's allocation — the buffer-reuse contract of
    /// [`CpuCore::run_tick`].
    pub fn reset(&mut self) {
        self.activity = CoreActivity::default();
        self.traffic = MemoryTraffic::default();
        self.counters = CoreCounterDeltas::default();
        self.per_thread_retired.clear();
    }
}

/// One physical processor with two SMT contexts, private cache hierarchy
/// and stream prefetcher.
#[derive(Debug)]
pub struct CpuCore {
    cpu_cfg: CpuConfig,
    caches: CacheHierarchy,
    prefetcher: StreamPrefetcher,
    tlb: TlbModel,
    rng: SimRng,
    /// Per-thread UPC scratch reused across ticks.
    upcs: Vec<f64>,
}

impl CpuCore {
    /// Creates a core. `rng` should be derived per-core from the machine
    /// seed.
    pub fn new(
        cpu_cfg: CpuConfig,
        cache_cfg: CacheConfig,
        prefetch_cfg: PrefetchConfig,
        rng: SimRng,
    ) -> Self {
        Self {
            cpu_cfg,
            caches: CacheHierarchy::new(cache_cfg),
            prefetcher: StreamPrefetcher::new(prefetch_cfg),
            tlb: TlbModel::new(),
            rng,
            upcs: Vec::new(),
        }
    }

    /// Borrow of the per-core RNG (behaviours draw their jitter from it).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Runs one tick with the demands of the threads scheduled on this
    /// core (0, 1 or 2 entries), under the bus throttle from last tick,
    /// writing the outcome into `out`.
    ///
    /// `timer_interrupts` is how many timer interrupts hit this core this
    /// tick (they wake a halted core briefly). `cycles` is the tick's
    /// cycle budget: [`CpuConfig::cycles_per_tick`] at nominal clock,
    /// fewer under DVFS. `out` is [`reset`](CpuTickResult::reset) first
    /// and its buffers are reused, so a steady-state tick does not
    /// allocate.
    pub fn run_tick(
        &mut self,
        demands: &[TickDemand],
        mem_throttle: f64,
        timer_interrupts: u64,
        cycles: u64,
        out: &mut CpuTickResult,
    ) {
        out.reset();
        let cycles = cycles.max(1);
        if demands.is_empty() {
            self.run_idle_tick(cycles, timer_interrupts, out);
            return;
        }

        let k = demands.len().min(self.cpu_cfg.smt_per_cpu);
        let width = self.cpu_cfg.fetch_width;
        // Per-thread fetch ceiling under SMT sharing: two contexts share
        // the front end but overlap stalls, so each gets more than half.
        let per_thread_cap = if k >= 2 {
            (width * self.cpu_cfg.smt_efficiency / k as f64).min(width)
        } else {
            width
        };

        let result = out;
        let mut total_upc = 0.0;
        let mut stall_weight = 0.0;
        let mut quiet_weight = 0.0;
        let throttle = mem_throttle.clamp(0.05, 1.0);

        // First pass: per-thread demanded throughput under SMT and bus
        // constraints; the fetch engine then scales everyone down if the
        // combined demand exceeds its width.
        let mut upcs = std::mem::take(&mut self.upcs);
        upcs.clear();
        upcs.extend(demands.iter().take(k).map(|demand| {
            let slowdown = 1.0 - demand.memory_sensitivity.clamp(0.0, 1.0) * (1.0 - throttle);
            (demand.target_upc * slowdown).clamp(0.0, per_thread_cap)
        }));
        let demanded: f64 = upcs.iter().sum();
        if demanded > width {
            let scale = width / demanded;
            for u in &mut upcs {
                *u *= scale;
            }
        }

        for (demand, &upc) in demands.iter().take(k).zip(&upcs) {
            let retired = self
                .rng
                .poisson(upc * cycles as f64)
                .min((width * cycles as f64) as u64);
            let fetched = retired
                + self
                    .rng
                    .poisson(retired as f64 * demand.wrongpath_fraction.max(0.0));

            let loads = self
                .rng
                .poisson(retired as f64 * demand.loads_per_uop.max(0.0));
            let stores = self
                .rng
                .poisson(retired as f64 * demand.stores_per_uop.max(0.0));
            let share = if k >= 2 { 0.5 } else { 1.0 };
            let cache = self
                .caches
                .simulate(loads, stores, &demand.reuse, share, &mut self.rng);
            let prefetch = self.prefetcher.tick(
                cache.l3_total_misses(),
                demand.streaming_fraction,
                &mut self.rng,
            );
            let tlb = self
                .tlb
                .tick(retired, demand.tlb_misses_per_kuop, &mut self.rng);
            let uncacheable = self
                .rng
                .poisson(retired as f64 * demand.uncacheable_per_kuop.max(0.0) / 1000.0);
            let mispredicts = self
                .rng
                .poisson(retired as f64 * demand.mispredicts_per_kuop.max(0.0) / 1000.0);

            // Prefetch-covered misses disappear from the miss counters
            // but their lines still travel the bus.
            let visible_l3 = cache.l3_total_misses() - prefetch.covered_misses;
            let visible_l3_loads = ((cache.l3_load_misses as f64
                / cache.l3_total_misses().max(1) as f64)
                * visible_l3 as f64)
                .round() as u64;

            result.per_thread_retired.push(retired);
            result.counters.fetched_uops += fetched;
            result.counters.retired_uops += retired;
            result.counters.l2_misses += cache.l2_misses;
            result.counters.l3_load_misses += visible_l3_loads;
            result.counters.l3_total_misses += visible_l3;
            result.counters.tlb_misses += tlb.misses;
            result.counters.mispredicts += mispredicts;
            result.counters.uncacheable += uncacheable;

            result.traffic.demand_fill_lines += visible_l3;
            result.traffic.prefetch_lines += prefetch.prefetch_lines + prefetch.covered_misses;
            result.traffic.writeback_lines += cache.writeback_lines;
            result.traffic.pagewalk_lines += tlb.pagewalk_lines;
            result.traffic.uncacheable_accesses += uncacheable;

            result.activity.fetched_uops += fetched;
            total_upc += upc;
            // Memory-stall intensity: memory-bound and starved. Pointer
            // chasing keeps the scheduler churning; streaming stalls
            // let units gate off.
            let starvation = (1.0 - upc / 1.5).clamp(0.0, 1.0);
            let stall = demand.memory_sensitivity.clamp(0.0, 1.0) * starvation;
            let chase = demand.pointer_chasing.clamp(0.0, 1.0);
            stall_weight += stall * chase;
            quiet_weight += stall * (1.0 - chase);
        }

        result.activity.cycles = cycles;
        result.activity.halted_cycles = 0;
        result.activity.upc = total_upc;
        result.activity.stall_search_frac = (stall_weight / k as f64).min(1.0);
        result.activity.quiet_stall_frac = (quiet_weight / k as f64).min(1.0);
        self.upcs = upcs;
    }

    fn run_idle_tick(&mut self, cycles: u64, timer_interrupts: u64, out: &mut CpuTickResult) {
        // The OS idle loop executes HLT; only interrupt handling wakes
        // the clock. Each timer tick costs some active cycles.
        let overhead =
            (self.cpu_cfg.timer_overhead_cycles * timer_interrupts.max(1)).min(cycles / 2);
        let overhead = self
            .rng
            .poisson(overhead as f64)
            .clamp(overhead / 2, cycles / 2);
        let halted = cycles - overhead;
        let fetched = self.rng.poisson(overhead as f64 * 0.8);
        out.activity = CoreActivity {
            cycles,
            halted_cycles: halted,
            fetched_uops: fetched,
            upc: fetched as f64 / overhead.max(1) as f64,
            stall_search_frac: 0.0,
            quiet_stall_frac: 0.0,
        };
        out.counters = CoreCounterDeltas {
            fetched_uops: fetched,
            retired_uops: fetched,
            ..CoreCounterDeltas::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ReuseProfile;
    use crate::config::MachineConfig;

    fn core() -> CpuCore {
        let cfg = MachineConfig::default();
        CpuCore::new(cfg.cpu, cfg.cache, cfg.prefetch, SimRng::seed(99))
    }

    /// One nominal-clock tick with one timer interrupt.
    fn tick(c: &mut CpuCore, demands: &[TickDemand], mem_throttle: f64) -> CpuTickResult {
        let cycles = MachineConfig::default().cpu.cycles_per_tick();
        let mut out = CpuTickResult::default();
        c.run_tick(demands, mem_throttle, 1, cycles, &mut out);
        out
    }

    fn compute_demand(upc: f64) -> TickDemand {
        TickDemand {
            target_upc: upc,
            memory_sensitivity: 0.0,
            reuse: ReuseProfile::cache_resident(),
            ..TickDemand::default()
        }
    }

    #[test]
    fn idle_core_is_mostly_halted() {
        let mut c = core();
        let r = tick(&mut c, &[], 1.0);
        let halted_frac = r.activity.halted_cycles as f64 / r.activity.cycles as f64;
        assert!(halted_frac > 0.98, "halted_frac {halted_frac}");
        assert_eq!(r.traffic.total_lines(), 0);
    }

    #[test]
    fn busy_core_never_halts() {
        let mut c = core();
        let r = tick(&mut c, &[compute_demand(1.5)], 1.0);
        assert_eq!(r.activity.halted_cycles, 0);
        let upc = r.counters.retired_uops as f64 / r.activity.cycles as f64;
        assert!((upc - 1.5).abs() < 0.05, "upc {upc}");
    }

    #[test]
    fn fetch_exceeds_retire_by_wrongpath() {
        let mut c = core();
        let mut d = compute_demand(1.0);
        d.wrongpath_fraction = 0.25;
        let r = tick(&mut c, &[d], 1.0);
        let ratio = r.counters.fetched_uops as f64 / r.counters.retired_uops as f64;
        assert!((ratio - 1.25).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn smt_pair_beats_single_thread_but_not_double() {
        let mut c1 = core();
        let one = tick(&mut c1, &[compute_demand(1.6)], 1.0);
        let mut c2 = core();
        let two = tick(&mut c2, &[compute_demand(1.6), compute_demand(1.6)], 1.0);
        let u1 = one.counters.retired_uops as f64;
        let u2 = two.counters.retired_uops as f64;
        assert!(u2 > u1 * 1.5, "SMT should add throughput: {u1} vs {u2}");
        assert!(
            u2 < u1 * 1.95,
            "but under 2x (fetch-width cap): {u1} vs {u2}"
        );
    }

    #[test]
    fn combined_throughput_never_exceeds_fetch_width() {
        let mut c = core();
        let r = tick(&mut c, &[compute_demand(3.0), compute_demand(3.0)], 1.0);
        let upc = r.counters.retired_uops as f64 / r.activity.cycles as f64;
        assert!(upc <= 3.05, "total upc {upc} capped at fetch width");
    }

    #[test]
    fn bus_throttle_slows_memory_bound_threads_only() {
        let mut mem_demand = TickDemand {
            target_upc: 1.0,
            memory_sensitivity: 1.0,
            reuse: ReuseProfile::streaming(),
            ..TickDemand::default()
        };
        mem_demand.loads_per_uop = 0.5;

        let mut c = core();
        let free = tick(&mut c, &[mem_demand], 1.0);
        let mut c = core();
        let jammed = tick(&mut c, &[mem_demand], 0.25);
        assert!((jammed.counters.retired_uops as f64) < 0.4 * free.counters.retired_uops as f64);

        let mut c = core();
        let cpu_free = tick(&mut c, &[compute_demand(2.0)], 1.0);
        let mut c = core();
        let cpu_jammed = tick(&mut c, &[compute_demand(2.0)], 0.25);
        let ratio = cpu_jammed.counters.retired_uops as f64 / cpu_free.counters.retired_uops as f64;
        assert!((ratio - 1.0).abs() < 0.05, "compute-bound unaffected");
    }

    #[test]
    fn memory_bound_thread_has_search_activity() {
        let demand = TickDemand {
            target_upc: 0.3,
            memory_sensitivity: 1.0,
            pointer_chasing: 1.0,
            reuse: ReuseProfile::streaming(),
            ..TickDemand::default()
        };
        let mut c = core();
        let r = tick(&mut c, &[demand], 1.0);
        assert!(r.activity.stall_search_frac > 0.5);
        assert_eq!(r.activity.quiet_stall_frac, 0.0);
        let quiet_demand = TickDemand {
            target_upc: 0.3,
            memory_sensitivity: 1.0,
            pointer_chasing: 0.0,
            reuse: ReuseProfile::streaming(),
            ..TickDemand::default()
        };
        let mut c = core();
        let r = tick(&mut c, &[quiet_demand], 1.0);
        assert!(r.activity.quiet_stall_frac > 0.5);
        assert_eq!(r.activity.stall_search_frac, 0.0);
        let mut c = core();
        let r = tick(&mut c, &[compute_demand(2.5)], 1.0);
        assert!(r.activity.stall_search_frac < 0.01);
    }

    #[test]
    fn prefetch_covered_misses_hide_from_counters_not_bus() {
        let demand = TickDemand {
            target_upc: 0.5,
            loads_per_uop: 0.5,
            stores_per_uop: 0.0,
            memory_sensitivity: 0.0, // keep throughput fixed for the test
            streaming_fraction: 1.0,
            reuse: ReuseProfile::streaming(),
            ..TickDemand::default()
        };
        // Short prefetcher training so the effect fits in a unit test.
        let cfg = MachineConfig::default();
        let mut c = CpuCore::new(
            cfg.cpu,
            cfg.cache,
            crate::config::PrefetchConfig {
                train_ticks: 50.0,
                ..cfg.prefetch
            },
            SimRng::seed(99),
        );
        let mut early_misses = 0;
        let mut early_bus = 0;
        let mut late_misses = 0;
        let mut late_bus = 0;
        for i in 0..300 {
            let r = tick(&mut c, std::slice::from_ref(&demand), 1.0);
            let bus = r.traffic.demand_fill_lines + r.traffic.prefetch_lines;
            if i < 3 {
                early_misses += r.counters.l3_total_misses;
                early_bus += bus;
            } else if i >= 297 {
                late_misses += r.counters.l3_total_misses;
                late_bus += bus;
            }
        }
        assert!(
            late_misses < early_misses / 2,
            "visible misses collapse as prefetcher ramps: {early_misses} -> {late_misses}"
        );
        let early_ratio = early_bus as f64 / early_misses.max(1) as f64;
        let late_ratio = late_bus as f64 / late_misses.max(1) as f64;
        assert!(
            late_ratio > early_ratio * 2.0,
            "bus traffic per visible miss grows: {early_ratio} -> {late_ratio}"
        );
    }
}

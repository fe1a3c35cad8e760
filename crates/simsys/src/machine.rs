//! The assembled machine.

use crate::bus::{BusActivity, FrontSideBus};
use crate::config::MachineConfig;
use crate::cpu::{CoreActivity, CpuCore, CpuTickResult};
use crate::disk::{DiskModeFractions, ScsiDisk};
use crate::dram::{DramActivity, DramModel};
use crate::intc::{InterruptController, InterruptDeltas};
use crate::iochip::{IoActivity, IoChip};
use crate::nic::NicDevice;
use crate::os::{IoSubmission, Os};
use crate::rng::SimRng;
use tdp_counters::{CounterBank, InterruptSource, PerfEvent, SampleSet};

/// Everything the machine did during one tick, at device granularity.
///
/// This is the **ground-truth tap**: only the power meter
/// (`tdp-powermeter`) is supposed to consume it. Power *models* must work
/// from [`SampleSet`]s instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TickActivity {
    /// Simulated time at the end of the tick, ms.
    pub time_ms: u64,
    /// CPU frequency scale in effect this tick (1.0 = nominal). Voltage
    /// follows frequency, so CPU dynamic power scales superlinearly —
    /// see `tdp_powermeter::CpuPowerSpec::dvfs_exponent`.
    pub freq_scale: f64,
    /// Per-CPU core activity.
    pub cores: Vec<CoreActivity>,
    /// Front-side bus activity.
    pub bus: BusActivity,
    /// DRAM state residency.
    pub dram: DramActivity,
    /// I/O chip activity.
    pub io: IoActivity,
    /// Per-disk mode residency.
    pub disks: Vec<DiskModeFractions>,
}

impl TickActivity {
    /// An empty activity, the machine's buffer before its first tick.
    fn empty() -> Self {
        Self {
            time_ms: 0,
            freq_scale: 1.0,
            cores: Vec::new(),
            bus: BusActivity::default(),
            dram: DramActivity::default(),
            io: IoActivity::default(),
            disks: Vec::new(),
        }
    }
}

/// Reusable per-tick working buffers. Every vector grows once to its
/// steady-state size and is cleared (not freed) between ticks, making
/// [`Machine::tick`] allocation-free after warm-up.
#[derive(Debug, Default)]
struct TickScratch {
    results: Vec<CpuTickResult>,
    extra_uncacheable: Vec<u64>,
    assignments: Vec<Vec<usize>>,
    demands: Vec<crate::behavior::TickDemand>,
    sub: IoSubmission,
    completed: Vec<crate::disk::CommandId>,
    irq: InterruptDeltas,
}

/// The simulated server.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    now_ms: u64,
    cores: Vec<CpuCore>,
    banks: Vec<CounterBank>,
    bus: FrontSideBus,
    dram: DramModel,
    iochip: IoChip,
    nic: NicDevice,
    disks: Vec<ScsiDisk>,
    intc: InterruptController,
    os: Os,
    sampler_rng: SimRng,
    sample_seq: u64,
    last_sample_ms: u64,
    dma_rr: usize,
    freq_scale: f64,
    scratch: TickScratch,
    activity: TickActivity,
    sample: SampleSet,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`try_new`](Machine::try_new) to handle that as an error.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).expect("invalid machine configuration")
    }

    /// Builds a machine, returning a [`crate::config::ConfigError`] if
    /// the configuration is inconsistent.
    ///
    /// # Errors
    ///
    /// Any violation reported by [`MachineConfig::validate`].
    pub fn try_new(cfg: MachineConfig) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let root = SimRng::seed(cfg.seed);
        let cores = (0..cfg.cpu.num_cpus)
            .map(|i| {
                CpuCore::new(
                    cfg.cpu,
                    cfg.cache,
                    cfg.prefetch,
                    root.derive(&format!("core-{i}")),
                )
            })
            .collect();
        let mut banks = vec![CounterBank::default(); cfg.cpu.num_cpus];
        for b in &mut banks {
            b.program(PerfEvent::ALL)
                .expect("every event fits the hardware counters");
        }
        let disks = (0..cfg.disk.num_disks)
            .map(|i| ScsiDisk::new(cfg.disk, root.derive(&format!("disk-{i}"))))
            .collect();
        let os = Os::new(
            cfg.os,
            cfg.disk.num_disks,
            cfg.io.config_accesses_per_command,
            cfg.disk.max_command_bytes,
            root.derive("os"),
        );
        Ok(Self {
            cores,
            banks,
            bus: FrontSideBus::new(cfg.bus),
            dram: DramModel::new(cfg.dram),
            iochip: IoChip::new(cfg.io, cfg.cache.line_bytes),
            nic: NicDevice::new(cfg.nic),
            disks,
            intc: InterruptController::new(cfg.cpu.num_cpus),
            os,
            sampler_rng: root.derive("sampler"),
            now_ms: 0,
            sample_seq: 0,
            last_sample_ms: 0,
            dma_rr: 0,
            freq_scale: 1.0,
            scratch: TickScratch::default(),
            activity: TickActivity::empty(),
            sample: SampleSet::empty(),
            cfg,
        })
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Mutable access to the OS (spawn threads, inspect state).
    pub fn os_mut(&mut self) -> &mut Os {
        &mut self.os
    }

    /// Sets the global DVFS operating point: core clocks run at
    /// `scale × nominal` (clamped to 0.25–1.0) from the next tick on.
    /// Memory, bus, I/O and disks keep their own clocks, as on real
    /// hardware.
    pub fn set_frequency_scale(&mut self, scale: f64) {
        self.freq_scale = scale.clamp(0.25, 1.0);
    }

    /// The current DVFS scale.
    pub fn frequency_scale(&self) -> f64 {
        self.freq_scale
    }

    /// Read-only OS access.
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// Renders the cumulative `/proc/interrupts` table.
    pub fn proc_interrupts(&self) -> String {
        self.intc.accounting().render_proc_interrupts()
    }

    /// Takes the per-window scheduler accounting — read it at the same
    /// cadence as [`read_counters`](Machine::read_counters) to pair
    /// process activity with counter windows for per-process power
    /// attribution (§4.2.1).
    pub fn take_sched_delta(&mut self) -> crate::os::SchedDelta {
        self.os.take_sched_delta()
    }

    /// Deterministic sampling jitter in `[-max, max]` milliseconds, for
    /// feeding [`tdp_counters::SamplingDriver::set_next_jitter`].
    pub fn sample_jitter_ms(&mut self, max: i64) -> i64 {
        if max <= 0 {
            return 0;
        }
        self.sampler_rng.below(2 * max as u64 + 1) as i64 - max
    }

    /// Advances the machine by one millisecond and returns the tick's
    /// device activity.
    ///
    /// The activity lives in the machine and is overwritten by the next
    /// tick; clone it to keep it longer. It and every internal working
    /// buffer are reused across calls, so a steady-state tick performs no
    /// heap allocation.
    pub fn tick(&mut self) -> &TickActivity {
        self.now_ms += 1;
        let num_cpus = self.cfg.cpu.num_cpus;

        // 1. Periodic timer.
        let ticks_per_timer = (1000 / self.cfg.os.timer_hz).max(1);
        let timer_fired = self.now_ms.is_multiple_of(ticks_per_timer);
        if timer_fired {
            self.intc.deliver_timer_all();
        }
        let timer_count = u64::from(timer_fired);

        // 2. Schedule and execute CPUs.
        self.os.assignments(
            self.now_ms,
            num_cpus,
            self.cfg.cpu.smt_per_cpu,
            &mut self.scratch.assignments,
        );
        let throttle = self.bus.throttle();
        let cycles_this_tick = (self.cfg.cpu.cycles_per_tick() as f64 * self.freq_scale)
            .round()
            .max(1.0) as u64;
        self.scratch
            .results
            .resize_with(num_cpus, CpuTickResult::default);
        self.scratch.extra_uncacheable.clear();
        self.scratch.extra_uncacheable.resize(num_cpus, 0);
        let mut commands_started = 0u64;
        let mut config_accesses_total = 0u64;
        let mut net_bytes = 0u64;

        for cpu in 0..num_cpus {
            let procs: &[usize] = &self.scratch.assignments[cpu];
            let share = 1.0 / procs.len().max(1) as f64;
            self.scratch.demands.clear();
            for &p in procs {
                let d = self.os.demand_of(p, self.now_ms, share, throttle);
                self.scratch.demands.push(d);
            }
            self.cores[cpu].run_tick(
                &self.scratch.demands,
                throttle,
                timer_count,
                cycles_this_tick,
                &mut self.scratch.results[cpu],
            );

            // Scheduler accounting for per-process power attribution.
            for (&p, &retired) in procs
                .iter()
                .zip(&self.scratch.results[cpu].per_thread_retired)
            {
                self.os.record_execution(p, cpu, retired);
            }

            // 3. File I/O: page cache, command submission, blocking.
            for (&p, demand) in procs.iter().zip(&self.scratch.demands) {
                let io = &demand.io;
                net_bytes += io.net_bytes;
                if io.read_bytes == 0 && io.write_bytes == 0 && !io.sync && io.sleep_ms == 0 {
                    continue;
                }
                self.os.submit_io(p, io, self.now_ms, &mut self.scratch.sub);
                commands_started += self.scratch.sub.commands.len() as u64;
                config_accesses_total += self.scratch.sub.config_accesses;
                self.scratch.extra_uncacheable[cpu] += self.scratch.sub.config_accesses;
                for &(disk, cmd) in &self.scratch.sub.commands {
                    self.disks[disk].submit(cmd);
                }
            }
        }

        // 4. Background write-back (kernel flusher, charged to CPU 0).
        self.os.background_writeback(&mut self.scratch.sub);
        let wb = &self.scratch.sub;
        if !wb.commands.is_empty() {
            commands_started += wb.commands.len() as u64;
            config_accesses_total += wb.config_accesses;
            self.scratch.extra_uncacheable[0] += wb.config_accesses;
            for &(disk, cmd) in &wb.commands {
                self.disks[disk].submit(cmd);
            }
        }

        // 5. Disks: advance, stream DMA, complete commands.
        let mut dma_read_bytes = 0u64;
        let mut dma_write_bytes = 0u64;
        let out = &mut self.activity;
        out.disks.clear();
        self.scratch.completed.clear();
        for (idx, disk) in self.disks.iter_mut().enumerate() {
            let r = disk.tick();
            dma_read_bytes += r.dma_read_bytes;
            dma_write_bytes += r.dma_write_bytes;
            out.disks.push(r.modes);
            for c in &r.completions {
                self.intc.deliver(InterruptSource::Disk(idx as u8));
                self.scratch.completed.push(c.id);
            }
        }
        self.os.on_completions(&self.scratch.completed);

        // 5b. Network: packets DMA through the same I/O path; completions
        // are coalesced interrupts.
        let nic_result = self.nic.tick(net_bytes);
        for _ in 0..nic_result.interrupts {
            self.intc.deliver(InterruptSource::Nic);
        }

        // 6. I/O chips turn device bytes into DMA bus transactions.
        let io_activity = self.iochip.tick(
            dma_read_bytes + dma_write_bytes + nic_result.dma_bytes,
            commands_started + nic_result.commands,
            config_accesses_total,
        );

        // 7. Bus arbitration and DRAM.
        let results = &self.scratch.results;
        let extra_uncacheable = &self.scratch.extra_uncacheable;
        let cpu_lines: u64 = results
            .iter()
            .zip(extra_uncacheable)
            .map(|(r, &x)| r.traffic.total_lines() + x)
            .sum();
        let bus_activity = self.bus.arbitrate(cpu_lines, io_activity.dma_lines);

        // Split DRAM accesses into reads and writes. Disk reads DMA
        // *into* memory (DRAM writes); disk writes DMA *out of* memory
        // (DRAM reads).
        // NIC traffic is roughly symmetric; treat it as memory-writes
        // (receive-dominated) alongside disk reads.
        let dma_bytes_total = (dma_read_bytes + dma_write_bytes + nic_result.dma_bytes).max(1);
        let dma_to_mem = io_activity.dma_lines as f64
            * (dma_read_bytes + nic_result.dma_bytes) as f64
            / dma_bytes_total as f64;
        let dma_from_mem = io_activity.dma_lines as f64 - dma_to_mem;
        let cpu_reads: u64 = results
            .iter()
            .map(|r| {
                r.traffic.demand_fill_lines + r.traffic.prefetch_lines + r.traffic.pagewalk_lines
            })
            .sum();
        let cpu_writes: u64 = results.iter().map(|r| r.traffic.writeback_lines).sum();
        let offered = bus_activity.offered_lines().max(1) as f64;
        let scale = (bus_activity.serviced_lines as f64 / offered).min(1.0);
        let dram_reads = ((cpu_reads as f64 + dma_from_mem) * scale).round() as u64;
        let dram_writes = ((cpu_writes as f64 + dma_to_mem) * scale).round() as u64;
        let dram_activity = self.dram.tick(dram_reads, dram_writes);

        // 8. Retire counter deltas into the banks.
        self.intc.take_tick_deltas(&mut self.scratch.irq);
        let irq = &self.scratch.irq;
        for cpu in 0..num_cpus {
            let bank = &mut self.banks[cpu];
            let r = &results[cpu];
            let c = &r.counters;
            bank.add(PerfEvent::Cycles, cycles_this_tick);
            bank.add(PerfEvent::HaltedCycles, r.activity.halted_cycles);
            bank.add(PerfEvent::FetchedUops, c.fetched_uops);
            bank.add(PerfEvent::RetiredUops, c.retired_uops);
            bank.add(PerfEvent::L2Misses, c.l2_misses);
            bank.add(PerfEvent::L3LoadMisses, c.l3_load_misses);
            bank.add(PerfEvent::L3TotalMisses, c.l3_total_misses);
            bank.add(PerfEvent::TlbMisses, c.tlb_misses);
            bank.add(PerfEvent::BranchMispredictions, c.mispredicts);
            let unc = c.uncacheable + extra_uncacheable[cpu];
            bank.add(PerfEvent::UncacheableAccesses, unc);
            let self_lines = r.traffic.total_lines() + extra_uncacheable[cpu];
            bank.add(PerfEvent::BusTransactionsSelf, self_lines);
            bank.add(PerfEvent::BusTransactionsAll, self_lines);
            bank.add(PerfEvent::PrefetchBusTransactions, r.traffic.prefetch_lines);
            let (total, disk, timer, nic) = irq.per_cpu[cpu];
            bank.add(PerfEvent::InterruptsTotal, total);
            bank.add(PerfEvent::DiskInterrupts, disk);
            bank.add(PerfEvent::TimerInterrupts, timer);
            bank.add(PerfEvent::NicInterrupts, nic);
        }
        // DMA transactions are global bus events; attribute them to banks
        // round-robin so system-wide sums stay exact (the P4 would show
        // the same count on every CPU — see PerfEvent::DmaOtherBusTransactions).
        let base = io_activity.dma_lines / num_cpus as u64;
        let remainder = (io_activity.dma_lines % num_cpus as u64) as usize;
        for k in 0..num_cpus {
            let extra = u64::from((self.dma_rr + k) % num_cpus < remainder);
            let share = base + extra;
            self.banks[k].add(PerfEvent::DmaOtherBusTransactions, share);
            self.banks[k].add(PerfEvent::BusTransactionsAll, share);
        }
        self.dma_rr = (self.dma_rr + 1) % num_cpus;

        out.time_ms = self.now_ms;
        out.freq_scale = self.freq_scale;
        out.cores.clear();
        out.cores
            .extend(self.scratch.results.iter().map(|r| r.activity));
        out.bus = bus_activity;
        out.dram = dram_activity;
        out.io = io_activity;
        out
    }

    /// Reads and clears every CPU's counters plus the OS interrupt
    /// accounting, producing one synchronized [`SampleSet`].
    ///
    /// The set lives in the machine and is refilled in place by the next
    /// read; clone it to archive it. Each CPU's bank writes its column of
    /// the set's event-major block directly, so a steady-state read
    /// performs no heap allocation.
    pub fn read_counters(&mut self) -> &SampleSet {
        let out = &mut self.sample;
        let seq = self.sample_seq;
        self.sample_seq += 1;
        // Every bank is programmed alike, so bank 0's events are the
        // set's layout and each bank writes its own CPU column.
        let cpus = self.banks.len();
        let block = out.reset(self.banks[0].programmed().iter(), cpus);
        for (c, b) in self.banks.iter_mut().enumerate() {
            b.read_and_clear_column(block, cpus, c);
        }
        self.intc
            .accounting_mut()
            .snapshot_delta(&mut out.interrupts);
        out.time_ms = self.now_ms;
        out.window_ms = self.now_ms - self.last_sample_ms;
        out.seq = seq;
        self.last_sample_ms = self.now_ms;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{
        spin_loop_behavior, IoDemand, ReuseProfile, ThreadBehavior, TickContext, TickDemand,
    };

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn run(machine: &mut Machine, ms: u64) {
        for _ in 0..ms {
            machine.tick();
        }
    }

    struct DiskHog;
    impl ThreadBehavior for DiskHog {
        fn name(&self) -> &str {
            "disk-hog"
        }
        fn demand(&mut self, ctx: &mut TickContext<'_>) -> TickDemand {
            TickDemand {
                target_upc: 0.5,
                io: IoDemand {
                    write_bytes: 400 * 4096,
                    sync: ctx.now_ms.is_multiple_of(500),
                    ..IoDemand::default()
                },
                ..TickDemand::default()
            }
        }
    }

    #[test]
    fn idle_machine_is_mostly_halted_with_timer_interrupts() {
        let mut m = machine();
        run(&mut m, 1000);
        let s = m.read_counters();
        let cycles = s.total(PerfEvent::Cycles).unwrap();
        let halted = s.total(PerfEvent::HaltedCycles).unwrap();
        assert_eq!(cycles, 4 * 2_000_000 * 1000);
        assert!(halted as f64 > 0.98 * cycles as f64);
        let timer = s.total(PerfEvent::TimerInterrupts).unwrap();
        assert_eq!(timer, 4 * 1000, "1 kHz per CPU");
        assert_eq!(s.total(PerfEvent::DiskInterrupts).unwrap(), 0);
    }

    #[test]
    fn machine_is_deterministic() {
        let trace = |seed: u64| {
            let cfg = MachineConfig {
                seed,
                ..MachineConfig::default()
            };
            let mut m = Machine::new(cfg);
            m.os_mut().spawn(Box::new(spin_loop_behavior(1.2)), 0);
            m.os_mut().spawn(Box::new(DiskHog), 100);
            let mut acc = Vec::new();
            for _ in 0..2 {
                run(&mut m, 1000);
                acc.push(m.read_counters().clone());
            }
            acc
        };
        assert_eq!(trace(42), trace(42), "same seed ⇒ identical counters");
        assert_ne!(trace(42), trace(43), "different seed ⇒ different noise");
    }

    #[test]
    fn busy_thread_generates_uops_on_one_cpu() {
        let mut m = machine();
        m.os_mut().spawn(Box::new(spin_loop_behavior(2.0)), 0);
        run(&mut m, 1000);
        let s = m.read_counters();
        // Exactly one CPU should be mostly unhalted.
        let halted = s.plane(PerfEvent::HaltedCycles).unwrap();
        let cycles = s.plane(PerfEvent::Cycles).unwrap();
        let busy_cpus = halted
            .iter()
            .zip(cycles)
            .filter(|&(&h, &c)| (h as f64) < 0.5 * c as f64)
            .count();
        assert_eq!(busy_cpus, 1);
        let upc = s.total(PerfEvent::FetchedUops).unwrap() as f64 / 2_000_000_000.0;
        assert!(upc > 1.9 && upc < 2.3, "upc {upc}");
    }

    #[test]
    fn disk_workload_trickles_down_to_interrupts_dma_and_uncacheable() {
        let mut m = machine();
        m.os_mut().spawn(Box::new(DiskHog), 0);
        run(&mut m, 3000);
        let s = m.read_counters();
        assert!(s.total(PerfEvent::DiskInterrupts).unwrap() > 0);
        assert!(s.total(PerfEvent::DmaOtherBusTransactions).unwrap() > 0);
        assert!(s.total(PerfEvent::UncacheableAccesses).unwrap() > 0);
        assert!(s.interrupts.total_disk() > 0);
        // DMA shows up in the all-transactions metric too.
        let all = s.total(PerfEvent::BusTransactionsAll).unwrap();
        let own = s.total(PerfEvent::BusTransactionsSelf).unwrap();
        assert!(all > own);
    }

    #[test]
    fn memory_bound_threads_saturate_the_bus() {
        let mut m = machine();
        for _ in 0..8 {
            let hog = StreamHog;
            m.os_mut().spawn(Box::new(hog), 0);
        }
        let mut peak_util: f64 = 0.0;
        for _ in 0..2000 {
            let t = m.tick();
            peak_util = peak_util.max(t.bus.utilization);
        }
        assert!(
            peak_util > 0.9,
            "bus should approach saturation: {peak_util}"
        );
    }

    struct StreamHog;
    impl ThreadBehavior for StreamHog {
        fn name(&self) -> &str {
            "stream-hog"
        }
        fn demand(&mut self, _ctx: &mut TickContext<'_>) -> TickDemand {
            TickDemand {
                target_upc: 1.0,
                loads_per_uop: 0.4,
                stores_per_uop: 0.1,
                reuse: ReuseProfile::streaming(),
                streaming_fraction: 0.9,
                memory_sensitivity: 1.0,
                ..TickDemand::default()
            }
        }
    }

    #[test]
    fn sample_window_accounts_time() {
        let mut m = machine();
        run(&mut m, 1000);
        let s1 = m.read_counters();
        assert_eq!(s1.window_ms, 1000);
        assert_eq!(s1.seq, 0);
        run(&mut m, 997);
        let s2 = m.read_counters();
        assert_eq!(s2.window_ms, 997);
        assert_eq!(s2.seq, 1);
    }

    #[test]
    fn proc_interrupts_renders_after_activity() {
        let mut m = machine();
        m.os_mut().spawn(Box::new(DiskHog), 0);
        run(&mut m, 1500);
        let table = m.proc_interrupts();
        assert!(table.contains("timer"));
        assert!(table.contains("scsi"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = MachineConfig::default();
        cfg.cpu.num_cpus = 0;
        assert!(Machine::try_new(cfg).is_err());
    }

    #[test]
    fn dvfs_scales_cycles_and_throughput() {
        let run = |scale: f64| {
            let mut m = machine();
            m.os_mut().spawn(Box::new(spin_loop_behavior(2.0)), 0);
            m.set_frequency_scale(scale);
            assert_eq!(m.frequency_scale(), scale);
            run(&mut m, 1000);
            let s = m.read_counters();
            (
                s.total(PerfEvent::Cycles).unwrap(),
                s.total(PerfEvent::FetchedUops).unwrap(),
            )
        };
        let (cycles_full, uops_full) = run(1.0);
        let (cycles_half, uops_half) = run(0.5);
        assert_eq!(cycles_half * 2, cycles_full, "clock halves");
        let ratio = uops_half as f64 / uops_full as f64;
        assert!(
            (ratio - 0.5).abs() < 0.02,
            "throughput follows the clock: {ratio}"
        );
    }

    #[test]
    fn dvfs_scale_is_clamped() {
        let mut m = machine();
        m.set_frequency_scale(7.0);
        assert_eq!(m.frequency_scale(), 1.0);
        m.set_frequency_scale(0.0);
        assert_eq!(m.frequency_scale(), 0.25);
    }

    #[test]
    fn jitter_is_bounded() {
        let mut m = machine();
        for _ in 0..100 {
            let j = m.sample_jitter_ms(3);
            assert!((-3..=3).contains(&j));
        }
        assert_eq!(m.sample_jitter_ms(0), 0);
    }
}

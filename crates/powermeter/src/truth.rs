//! Instantaneous ground-truth power from device activity.

use crate::sample::SubsystemPower;
use crate::spec::PowerSpec;
use tdp_counters::Subsystem;
use tdp_simsys::TickActivity;

/// Converts one tick of device activity into instantaneous subsystem
/// watts — the "physics" the sense resistors measure.
///
/// This is a pure function of device-local state: CPU activity factors,
/// DRAM state residency and read/write mix, bus utilization, I/O bytes
/// switched, disk mode residency. No performance counter is consulted.
///
/// # Example
///
/// ```
/// use tdp_powermeter::{GroundTruth, PowerSpec};
/// use tdp_simsys::{Machine, MachineConfig};
/// use tdp_counters::Subsystem;
///
/// let truth = GroundTruth::new(PowerSpec::default());
/// let mut machine = Machine::new(MachineConfig::default());
/// let w = truth.instantaneous(machine.tick());
/// assert!(w.get(Subsystem::Cpu) > 30.0, "4 idle CPUs ≈ 38 W");
/// ```
#[derive(Debug, Clone)]
pub struct GroundTruth {
    spec: PowerSpec,
}

impl GroundTruth {
    /// Creates the converter.
    pub fn new(spec: PowerSpec) -> Self {
        Self { spec }
    }

    /// The specification in use.
    pub fn spec(&self) -> &PowerSpec {
        &self.spec
    }

    /// Instantaneous watts for each subsystem during `activity`'s tick.
    pub fn instantaneous(&self, activity: &TickActivity) -> SubsystemPower {
        let mut p = SubsystemPower::default();
        p.set(Subsystem::Cpu, self.cpu_watts(activity));
        p.set(Subsystem::Memory, self.memory_watts(activity));
        p.set(Subsystem::Chipset, self.chipset_watts(activity));
        p.set(Subsystem::Io, self.io_watts(activity));
        p.set(Subsystem::Disk, self.disk_watts(activity));
        p
    }

    fn cpu_watts(&self, activity: &TickActivity) -> f64 {
        let s = &self.spec.cpu;
        // DVFS: voltage tracks frequency, so un-halted power scales
        // superlinearly while halted (clock-tree-only) power scales
        // linearly with the operating point.
        let scale = activity.freq_scale.clamp(0.1, 1.0);
        let active_dvfs = scale.powf(s.dvfs_exponent);
        activity
            .cores
            .iter()
            .map(|core| {
                let cycles = core.cycles.max(1) as f64;
                let halted_frac = core.halted_cycles as f64 / cycles;
                let active_frac = 1.0 - halted_frac;
                let active_w = (s.active_base_w
                    + s.per_upc_w * core.upc
                    + s.window_search_w * core.stall_search_frac
                    - s.stall_gate_w * core.quiet_stall_frac)
                    .max(s.halt_w);
                halted_frac * s.halt_w * scale + active_frac * active_w * active_dvfs
            })
            .sum()
    }

    fn memory_watts(&self, activity: &TickActivity) -> f64 {
        let s = &self.spec.dram;
        let d = &activity.dram;
        s.background_w
            + s.active_w * d.frac_active
            + s.precharge_w * d.frac_precharge
            + s.read_w_per_kline * d.reads as f64 / 1000.0
            + s.write_w_per_kline * d.writes as f64 / 1000.0
    }

    fn chipset_watts(&self, activity: &TickActivity) -> f64 {
        let s = &self.spec.chipset;
        s.base_w + s.bus_coupling_w * activity.bus.utilization.min(1.2)
    }

    fn io_watts(&self, activity: &TickActivity) -> f64 {
        let s = &self.spec.io;
        // Commands per tick × mJ per command = mW; ticks are 1 ms, so
        // commands/tick × mJ happens to equal watts directly.
        s.static_w
            + s.dynamic_w_per_kbyte * activity.io.bytes_switched as f64 / 1000.0
            + s.config_w_per_kaccess * activity.io.config_accesses as f64 / 1000.0
            + s.per_command_mj * activity.io.commands as f64
    }

    fn disk_watts(&self, activity: &TickActivity) -> f64 {
        let s = &self.spec.disk;
        activity
            .disks
            .iter()
            .map(|m| {
                s.rotate_w
                    + s.seek_extra_w * m.seek
                    + s.read_extra_w * m.read
                    + s.write_extra_w * m.write
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_simsys::behavior::spin_loop_behavior;
    use tdp_simsys::{Machine, MachineConfig};

    fn idle_activity() -> TickActivity {
        Machine::new(MachineConfig::default()).tick().clone()
    }

    #[test]
    fn idle_totals_match_paper_scale() {
        let truth = GroundTruth::new(PowerSpec::default());
        let w = truth.instantaneous(&idle_activity());
        let cpu = w.get(Subsystem::Cpu);
        assert!((35.0..42.0).contains(&cpu), "cpu idle {cpu}");
        let mem = w.get(Subsystem::Memory);
        assert!((27.5..30.0).contains(&mem), "memory idle {mem}");
        let disk = w.get(Subsystem::Disk);
        assert!((21.0..22.5).contains(&disk), "disk idle {disk}");
        let io = w.get(Subsystem::Io);
        assert!((32.0..34.0).contains(&io), "io idle {io}");
        let chipset = w.get(Subsystem::Chipset);
        assert!((19.0..21.0).contains(&chipset), "chipset idle {chipset}");
        let total = w.total();
        assert!((135.0..150.0).contains(&total), "total idle {total}");
    }

    #[test]
    fn busy_cpu_raises_only_cpu_power_materially() {
        let truth = GroundTruth::new(PowerSpec::default());
        let mut m = Machine::new(MachineConfig::default());
        for _ in 0..8 {
            m.os_mut().spawn(Box::new(spin_loop_behavior(2.5)), 0);
        }
        for _ in 0..199 {
            m.tick();
        }
        let w = truth.instantaneous(m.tick());
        let idle = truth.instantaneous(&idle_activity());
        assert!(
            w.get(Subsystem::Cpu) > idle.get(Subsystem::Cpu) + 100.0,
            "8 spinning threads: {} vs idle {}",
            w.get(Subsystem::Cpu),
            idle.get(Subsystem::Cpu)
        );
        // Register-resident spin loops barely touch memory.
        assert!((w.get(Subsystem::Memory) - idle.get(Subsystem::Memory)).abs() < 3.0);
    }

    #[test]
    fn cpu_power_spans_equation1_range() {
        let truth = GroundTruth::new(PowerSpec::default());
        let mut a = idle_activity();
        // Force one fully-halted and one flat-out core.
        a.cores = vec![
            tdp_simsys::cpu::CoreActivity {
                cycles: 1000,
                halted_cycles: 1000,
                fetched_uops: 0,
                upc: 0.0,
                stall_search_frac: 0.0,
                quiet_stall_frac: 0.0,
            },
            tdp_simsys::cpu::CoreActivity {
                cycles: 1000,
                halted_cycles: 0,
                fetched_uops: 3000,
                upc: 3.0,
                stall_search_frac: 0.0,
                quiet_stall_frac: 0.0,
            },
        ];
        let w = truth.instantaneous(&a);
        let expected = 9.25 + (35.7 + 3.0 * 4.31);
        assert!((w.get(Subsystem::Cpu) - expected).abs() < 1e-9);
    }

    #[test]
    fn window_search_power_is_invisible_to_upc() {
        // Two cores with identical fetch throughput; the stalled one
        // burns more — the mcf effect.
        let truth = GroundTruth::new(PowerSpec::default());
        let mk = |stall: f64| tdp_simsys::cpu::CoreActivity {
            cycles: 1000,
            halted_cycles: 0,
            fetched_uops: 300,
            upc: 0.3,
            stall_search_frac: stall,
            quiet_stall_frac: 0.0,
        };
        let mut a = idle_activity();
        a.cores = vec![mk(0.0)];
        let calm = truth.instantaneous(&a).get(Subsystem::Cpu);
        a.cores = vec![mk(0.9)];
        let thrashing = truth.instantaneous(&a).get(Subsystem::Cpu);
        assert!(thrashing > calm + 5.0);
    }

    #[test]
    fn dvfs_cuts_active_power_superlinearly() {
        let truth = GroundTruth::new(PowerSpec::default());
        let busy = tdp_simsys::cpu::CoreActivity {
            cycles: 1000,
            halted_cycles: 0,
            fetched_uops: 2000,
            upc: 2.0,
            stall_search_frac: 0.0,
            quiet_stall_frac: 0.0,
        };
        let mut a = idle_activity();
        a.cores = vec![busy];
        a.freq_scale = 1.0;
        let full = truth.instantaneous(&a).get(Subsystem::Cpu);
        a.freq_scale = 0.5;
        let half = truth.instantaneous(&a).get(Subsystem::Cpu);
        // Superlinear: below half power, above the cubic floor.
        assert!(half < 0.5 * full, "{half} vs {full}");
        assert!(half > 0.1 * full);
        // Non-CPU subsystems are on their own clock domains.
        a.freq_scale = 1.0;
        let mem_full = truth.instantaneous(&a).get(Subsystem::Memory);
        a.freq_scale = 0.5;
        let mem_half = truth.instantaneous(&a).get(Subsystem::Memory);
        assert_eq!(mem_full, mem_half);
    }

    #[test]
    fn quiet_stalls_gate_power_below_active_baseline() {
        let truth = GroundTruth::new(PowerSpec::default());
        let mk = |quiet: f64| tdp_simsys::cpu::CoreActivity {
            cycles: 1000,
            halted_cycles: 0,
            fetched_uops: 800,
            upc: 0.8,
            stall_search_frac: 0.0,
            quiet_stall_frac: quiet,
        };
        let mut a = idle_activity();
        a.cores = vec![mk(0.0)];
        let busy = truth.instantaneous(&a).get(Subsystem::Cpu);
        a.cores = vec![mk(0.8)];
        let gated = truth.instantaneous(&a).get(Subsystem::Cpu);
        assert!(gated < busy - 4.0, "streaming stalls save power");
        assert!(gated >= 9.25, "never below the halt floor");
    }
}

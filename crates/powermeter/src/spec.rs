//! Component power specifications.
//!
//! Defaults are tuned so the simulated server reproduces the scale of the
//! paper's Table 1: ~141 W idle, ~305 W peak, with the CPU subsystem
//! spanning 38–175 W, memory 28–46 W, I/O ~33–35 W, disk ~21.6–22.2 W and
//! chipset ~19.9 W.

use serde::{Deserialize, Serialize};

/// CPU power, per processor — an activity-factor model in the spirit of
/// Isci & Martonosi \[2\].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuPowerSpec {
    /// Watts while clock-gated (`HLT`).
    pub halt_w: f64,
    /// Watts of un-gated baseline (clock tree, leakage, idle structures).
    pub active_base_w: f64,
    /// Watts per fetched uop/cycle of throughput.
    pub per_upc_w: f64,
    /// Watts at full instruction-window search intensity — speculative
    /// scheduling work that fetch-based counters cannot see (the `mcf`
    /// effect, §4.3: "equivalent to executing an additional 1–2
    /// instructions/cycle" ≈ 1.5 × `per_upc_w`).
    pub window_search_w: f64,
    /// Watts *saved* at full quiet-stall intensity: streaming memory
    /// waits let fine-grained clock gating shut execution units down,
    /// dropping real power below the active baseline (why the paper
    /// measures `lucas` at 135 W — under four always-active CPUs' worth
    /// of baseline).
    pub stall_gate_w: f64,
    /// DVFS scaling exponent: at frequency scale `s`, un-halted power
    /// scales by `s^dvfs_exponent` (voltage tracks frequency, so power
    /// goes roughly with f·V² ≈ f^2.5–3). Halted power scales linearly
    /// (only the clock tree keeps toggling).
    pub dvfs_exponent: f64,
}

impl Default for CpuPowerSpec {
    fn default() -> Self {
        Self {
            halt_w: 9.25,
            active_base_w: 35.7,
            per_upc_w: 4.31,
            window_search_w: 6.5,
            stall_gate_w: 6.8,
            dvfs_exponent: 2.6,
        }
    }
}

/// DRAM + memory-controller power, following Janzen's state-based DDR
/// methodology \[8\].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramPowerSpec {
    /// Background watts (controller + DRAM idle/clock-enabled).
    pub background_w: f64,
    /// Additional watts at 100% active-state residency.
    pub active_w: f64,
    /// Additional watts at 100% precharge residency.
    pub precharge_w: f64,
    /// Watts per 1000 read accesses per millisecond.
    pub read_w_per_kline: f64,
    /// Watts per 1000 write accesses per millisecond (writes burn more —
    /// the asymmetry the paper's bus-transaction model ignores, §4.3).
    pub write_w_per_kline: f64,
}

impl Default for DramPowerSpec {
    fn default() -> Self {
        Self {
            background_w: 28.0,
            active_w: 12.0,
            precharge_w: 6.0,
            read_w_per_kline: 0.045,
            write_w_per_kline: 0.160,
        }
    }
}

/// Chipset (processor-interface) power.
///
/// Nearly constant — but *derived from multiple power domains* on the
/// real bench, so it carries a workload-correlated systematic component
/// plus sensor noise that a constant model cannot capture (§4.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipsetPowerSpec {
    /// Base watts.
    pub base_w: f64,
    /// Watts added at 100% front-side-bus utilization (systematic,
    /// workload-dependent part).
    pub bus_coupling_w: f64,
}

impl Default for ChipsetPowerSpec {
    fn default() -> Self {
        Self {
            base_w: 19.6,
            bus_coupling_w: 2.4,
        }
    }
}

/// I/O subsystem power: two bridge chips and six PCI-X buses, mostly
/// static CMOS power plus switching proportional to bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoPowerSpec {
    /// Static watts (both chips, all bus clocks — large, per §4.2.4).
    pub static_w: f64,
    /// Watts per 1000 bytes switched per millisecond (~1 MB/s).
    pub dynamic_w_per_kbyte: f64,
    /// Watts per 1000 configuration accesses per millisecond.
    pub config_w_per_kaccess: f64,
    /// Millijoules burned per device command (descriptor fetch, bus
    /// arbitration bursts, completion handling). Scales with command —
    /// and therefore interrupt — count rather than bytes, which is why
    /// interrupts predict I/O power better than byte-proportional
    /// metrics (§4.2.4).
    pub per_command_mj: f64,
}

impl Default for IoPowerSpec {
    fn default() -> Self {
        Self {
            static_w: 32.9,
            dynamic_w_per_kbyte: 0.034,
            config_w_per_kaccess: 0.8,
            per_command_mj: 20.0,
        }
    }
}

/// Disk power per disk, after Zedlewski et al. \[9\]: rotation dominates
/// (~80% of peak) because the paper's SCSI disks never stop spinning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskPowerSpec {
    /// Watts while spinning idle (platter rotation + electronics).
    pub rotate_w: f64,
    /// Additional watts while the head is seeking.
    pub seek_extra_w: f64,
    /// Additional watts while reading.
    pub read_extra_w: f64,
    /// Additional watts while writing (peak per \[9\]).
    pub write_extra_w: f64,
}

impl Default for DiskPowerSpec {
    fn default() -> Self {
        Self {
            rotate_w: 10.8,
            seek_extra_w: 1.4,
            read_extra_w: 1.0,
            write_extra_w: 1.5,
        }
    }
}

/// The full machine's power specification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Per-processor CPU spec.
    pub cpu: CpuPowerSpec,
    /// Memory subsystem spec.
    pub dram: DramPowerSpec,
    /// Chipset spec.
    pub chipset: ChipsetPowerSpec,
    /// I/O subsystem spec.
    pub io: IoPowerSpec,
    /// Per-disk spec.
    pub disk: DiskPowerSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_idle_scale_matches_table1() {
        let s = PowerSpec::default();
        // Four ~99%-halted CPUs.
        let cpu_idle = 4.0 * (0.99 * s.cpu.halt_w + 0.01 * s.cpu.active_base_w);
        assert!((cpu_idle - 38.4).abs() < 2.0, "cpu idle {cpu_idle}");
        assert!((s.dram.background_w - 28.0).abs() < 1.0);
        assert!((2.0 * s.disk.rotate_w - 21.6).abs() < 0.5);
        assert!((s.io.static_w - 32.9).abs() < 1.0);
        let idle_total = cpu_idle
            + s.dram.background_w
            + s.chipset.base_w
            + s.io.static_w
            + 2.0 * s.disk.rotate_w;
        assert!(
            (idle_total - 141.0).abs() < 4.0,
            "idle total {idle_total} vs paper's 141 W"
        );
    }

    #[test]
    fn default_peak_cpu_matches_equation1_range() {
        let s = PowerSpec::default();
        // Eq 1 peak: 9.25 + (35.7-9.25) + 4.31*3 = 48.6 per CPU.
        let peak = s.cpu.active_base_w + 3.0 * s.cpu.per_upc_w;
        assert!((peak - 48.6).abs() < 0.1, "peak {peak}");
    }

    #[test]
    fn disk_dynamic_range_is_under_20_percent() {
        let s = DiskPowerSpec::default();
        let peak = s.rotate_w + s.write_extra_w;
        assert!(peak / s.rotate_w < 1.25, "rotation dominates, per [9]");
    }
}

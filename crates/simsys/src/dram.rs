//! DRAM bank-state model.
//!
//! Ground-truth memory power in the paper's framework follows Janzen's
//! DDR power methodology \[8\]: what matters is how much time the devices
//! spend **active** (servicing reads/writes), in **precharge**, and
//! **idle**, plus the read/write mix. None of that is visible to the
//! CPU's counters — which is precisely why the paper must *infer* it from
//! bus transactions. This module produces those state residencies from
//! serviced line counts.

use crate::config::DramConfig;

/// Per-tick DRAM activity, consumed by the ground-truth power meter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramActivity {
    /// Line-sized read accesses serviced this tick.
    pub reads: u64,
    /// Line-sized write accesses serviced this tick.
    pub writes: u64,
    /// Fraction of the tick the devices were in the active state.
    pub frac_active: f64,
    /// Fraction in precharge.
    pub frac_precharge: f64,
    /// Fraction idle (powered, clock-enabled, no access).
    pub frac_idle: f64,
}

/// The DRAM array + controller model.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
}

impl DramModel {
    /// Creates the model.
    pub fn new(cfg: DramConfig) -> Self {
        Self { cfg }
    }

    /// Converts one tick of serviced traffic into state residency.
    ///
    /// `reads` and `writes` are line accesses actually delivered by the
    /// bus this tick (1 ms).
    pub fn tick(&self, reads: u64, writes: u64) -> DramActivity {
        const NS_PER_TICK: f64 = 1_000_000.0;
        let lines = (reads + writes) as f64;
        let busy_ns = lines * self.cfg.service_ns_per_line / self.cfg.channels;
        let frac_active = (busy_ns / NS_PER_TICK).min(0.95);
        let frac_precharge = (frac_active * self.cfg.precharge_ratio).min(1.0 - frac_active);
        let frac_idle = (1.0 - frac_active - frac_precharge).max(0.0);
        DramActivity {
            reads,
            writes,
            frac_active,
            frac_precharge,
            frac_idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(DramConfig::default())
    }

    #[test]
    fn idle_dram_is_fully_idle() {
        let a = dram().tick(0, 0);
        assert_eq!(a.frac_active, 0.0);
        assert_eq!(a.frac_precharge, 0.0);
        assert_eq!(a.frac_idle, 1.0);
    }

    #[test]
    fn residency_fractions_always_sum_to_one() {
        for lines in [0u64, 100, 10_000, 40_000, 1_000_000] {
            let a = dram().tick(lines / 2, lines / 2);
            let sum = a.frac_active + a.frac_precharge + a.frac_idle;
            assert!((sum - 1.0).abs() < 1e-12, "lines {lines}: sum {sum}");
            assert!(a.frac_active <= 0.95);
        }
    }

    #[test]
    fn activity_is_monotone_in_traffic() {
        let mut prev = 0.0;
        for lines in [0u64, 5_000, 10_000, 20_000, 40_000] {
            let a = dram().tick(lines, 0);
            assert!(a.frac_active >= prev);
            prev = a.frac_active;
        }
    }

    #[test]
    fn default_geometry_saturates_near_bus_capacity() {
        // 40 000 lines/ms at 45 ns / 2 channels → 0.9 active fraction.
        let a = dram().tick(20_000, 20_000);
        assert!((a.frac_active - 0.9).abs() < 1e-9, "{}", a.frac_active);
    }
}

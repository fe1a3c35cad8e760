//! The data-acquisition chain: sense resistors, ADC, averaging.

use crate::sample::{PowerSample, SubsystemPower};
use crate::spec::PowerSpec;
use crate::truth::GroundTruth;
use serde::{Deserialize, Serialize};
use tdp_counters::Subsystem;
use tdp_simsys::{SimRng, TickActivity};

/// ADC and sense-resistor parameters for one measurement channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcConfig {
    /// Supply rail voltage of the measured domain (V).
    pub rail_v: f64,
    /// Sense resistance (Ω).
    pub sense_ohms: f64,
    /// ADC full-scale input (V) across the sense resistor.
    pub full_scale_v: f64,
    /// ADC resolution in bits.
    pub bits: u32,
    /// RMS amplifier/environment noise on the sensed voltage (V).
    pub noise_v_rms: f64,
    /// Samples taken per millisecond (paper: 10 000/s = 10 per tick).
    pub samples_per_ms: u32,
}

impl Default for AdcConfig {
    fn default() -> Self {
        Self {
            rail_v: 12.0,
            sense_ohms: 0.005,
            full_scale_v: 0.25,
            bits: 12,
            noise_v_rms: 120e-6,
            samples_per_ms: 10,
        }
    }
}

/// One subsystem's measurement channel.
#[derive(Debug, Clone)]
pub struct DaqChannel {
    cfg: AdcConfig,
    /// Extra RMS watts of error from deriving this channel across
    /// multiple power domains (the chipset problem, §4.2.5).
    derivation_noise_w: f64,
    /// Low-frequency (per-window) RMS watts: supply drift, temperature,
    /// EMI — the noise floor visible in the paper's Table 2 idle row.
    lf_noise_w: f64,
}

impl DaqChannel {
    /// Creates a channel.
    pub fn new(cfg: AdcConfig) -> Self {
        Self {
            cfg,
            derivation_noise_w: 0.0,
            lf_noise_w: 0.0,
        }
    }

    /// Adds cross-domain derivation noise (used for the chipset channel).
    pub fn with_derivation_noise(mut self, watts_rms: f64) -> Self {
        self.derivation_noise_w = watts_rms.max(0.0);
        self
    }

    /// Sets the low-frequency noise floor (RMS watts per averaging
    /// window).
    pub fn with_lf_noise(mut self, watts_rms: f64) -> Self {
        self.lf_noise_w = watts_rms.max(0.0);
        self
    }

    /// The low-frequency noise floor.
    pub fn lf_noise_w(&self) -> f64 {
        self.lf_noise_w
    }

    /// Measures `true_watts` once: watts → current → sensed voltage →
    /// noise → quantization → reported watts.
    pub fn measure(&self, true_watts: f64, rng: &mut SimRng) -> f64 {
        let c = &self.cfg;
        let current = true_watts / c.rail_v;
        let v = current * c.sense_ohms + rng.normal(0.0, c.noise_v_rms);
        let levels = (1u64 << c.bits) as f64;
        let step = c.full_scale_v / levels;
        let quantized = (v / step).round() * step;
        let clamped = quantized.clamp(0.0, c.full_scale_v);
        let watts = clamped / c.sense_ohms * c.rail_v;
        watts + rng.normal(0.0, self.derivation_noise_w)
    }

    /// Accumulates `n` back-to-back measurements of `true_watts` in
    /// closed form, returning their sum.
    ///
    /// The sum of `n` independent samples from [`measure`](Self::measure)
    /// is normal with mean `n·E[m]` and variance `n·Var[m]`: the ADC
    /// noise (`noise_v_rms`, ≈2 LSB at default settings) dithers the
    /// quantizer, making it unbiased with an extra `step²/12` of
    /// variance, and the derivation noise adds independently. One
    /// normal draw therefore reproduces the per-tick sum's distribution
    /// exactly — this is what lets [`PowerMeter::observe`] run in O(1)
    /// per channel instead of looping over the 10 kHz samples.
    ///
    /// Assumes the signal sits inside the ADC range (no clipping); the
    /// mean is clamped to full scale like the per-sample path.
    pub fn accumulate(&self, true_watts: f64, n: u32, rng: &mut SimRng) -> f64 {
        let c = &self.cfg;
        let current = true_watts / c.rail_v;
        let v = (current * c.sense_ohms).clamp(0.0, c.full_scale_v);
        let levels = (1u64 << c.bits) as f64;
        let step = c.full_scale_v / levels;
        let w_per_v = c.rail_v / c.sense_ohms;
        let mean_w = v * w_per_v;
        let var_v = c.noise_v_rms * c.noise_v_rms + step * step / 12.0;
        let var_w = var_v * w_per_v * w_per_v + self.derivation_noise_w * self.derivation_noise_w;
        let n = f64::from(n);
        n * mean_w + (n * var_w).sqrt() * rng.standard_normal()
    }

    /// Largest power this channel can represent before clipping.
    pub fn full_scale_watts(&self) -> f64 {
        self.cfg.full_scale_v / self.cfg.sense_ohms * self.cfg.rail_v
    }

    /// Samples taken per tick.
    pub fn samples_per_ms(&self) -> u32 {
        self.cfg.samples_per_ms
    }
}

/// The complete power-measurement apparatus: ground truth plus five DAQ
/// channels and per-window averaging.
///
/// Call [`observe`](PowerMeter::observe) once per machine tick and
/// [`cut_window`](PowerMeter::cut_window) at each sync pulse; the
/// returned [`PowerSample`] is the average of every 10 kHz sample taken
/// since the previous cut, exactly like the paper's offline alignment.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    truth: GroundTruth,
    channels: [DaqChannel; 5],
    rng: SimRng,
    acc: SubsystemPower,
    acc_samples: u64,
    window_start_ms: u64,
    now_ms: u64,
}

impl PowerMeter {
    /// Creates the apparatus with default channels and the given
    /// measurement seed.
    pub fn new(spec: PowerSpec, seed: u64) -> Self {
        let base = DaqChannel::new(AdcConfig::default());
        // The CPU domain peaks near 200 W; give it headroom.
        let cpu_cfg = AdcConfig {
            full_scale_v: 0.5,
            ..AdcConfig::default()
        };
        // Per-window noise floors match the paper's Table 2 idle row:
        // CPU 0.34, chipset 0.09, memory 0.033, I/O 0.127, disk 0.027 W.
        let channels = [
            DaqChannel::new(cpu_cfg).with_lf_noise(0.34),
            base.clone().with_derivation_noise(0.20).with_lf_noise(0.09),
            base.clone().with_lf_noise(0.033),
            base.clone().with_lf_noise(0.127),
            base.with_lf_noise(0.027),
        ];
        Self {
            truth: GroundTruth::new(spec),
            channels,
            // Decorrelate measurement noise from machine-behaviour
            // randomness even when they share a seed.
            rng: SimRng::seed(seed ^ 0x00DA_90AC_0000_7777),
            acc: SubsystemPower::default(),
            acc_samples: 0,
            window_start_ms: 0,
            now_ms: 0,
        }
    }

    /// The ground truth in use.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Records one machine tick: accumulates this tick's
    /// `samples_per_ms` noisy, quantized measurements of each channel.
    ///
    /// Uses [`DaqChannel::accumulate`] — the statistically exact closed
    /// form for the sum of the tick's ADC samples — so the per-tick
    /// cost is one normal draw per channel rather than a loop over the
    /// 10 kHz sample stream. This keeps the capture hot path fast while
    /// the window averages from [`cut_window`](Self::cut_window) retain
    /// the per-sample model's mean and variance.
    pub fn observe(&mut self, activity: &TickActivity) {
        self.now_ms = activity.time_ms;
        let truth = self.truth.instantaneous(activity);
        let n = self.channels[0].samples_per_ms();
        for &s in Subsystem::ALL {
            let sum = self.channels[s.index()].accumulate(truth.get(s), n, &mut self.rng);
            self.acc.set(s, self.acc.get(s) + sum);
        }
        self.acc_samples += u64::from(n);
    }

    /// Closes the current window: returns the average of all samples
    /// accumulated since the last cut and starts a new window.
    ///
    /// Returns an all-zero sample if no ticks were observed (an empty
    /// window).
    pub fn cut_window(&mut self) -> PowerSample {
        let mut avg = if self.acc_samples > 0 {
            self.acc.scaled(1.0 / self.acc_samples as f64)
        } else {
            SubsystemPower::default()
        };
        if self.acc_samples > 0 {
            for &s in Subsystem::ALL {
                let lf = self.channels[s.index()].lf_noise_w();
                if lf > 0.0 {
                    avg.set(s, avg.get(s) + self.rng.normal(0.0, lf));
                }
            }
        }
        let sample = PowerSample {
            time_ms: self.now_ms,
            window_ms: self.now_ms - self.window_start_ms,
            watts: avg,
        };
        self.acc = SubsystemPower::default();
        self.acc_samples = 0;
        self.window_start_ms = self.now_ms;
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_simsys::{Machine, MachineConfig};

    #[test]
    fn channel_is_accurate_to_quantization() {
        let ch = DaqChannel::new(AdcConfig::default());
        let mut rng = SimRng::seed(1);
        // Average many measurements to wash out noise; bias must be
        // within one LSB (≈0.73 W at default settings).
        let true_w = 33.3;
        let n = 5000;
        let avg: f64 = (0..n).map(|_| ch.measure(true_w, &mut rng)).sum::<f64>() / n as f64;
        let lsb = ch.full_scale_watts() / (1u64 << 12) as f64;
        assert!((avg - true_w).abs() < lsb, "avg {avg} vs {true_w}");
    }

    #[test]
    fn accumulate_matches_per_sample_statistics() {
        // The closed-form sum must agree with the per-sample path in
        // both moments, including derivation noise.
        let ch = DaqChannel::new(AdcConfig::default()).with_derivation_noise(0.2);
        let mut rng_a = SimRng::seed(11);
        let mut rng_b = SimRng::seed(12);
        let true_w = 41.7;
        let n = 10u32;
        let windows = 4000;
        let stats = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
            (m, v)
        };
        let looped: Vec<f64> = (0..windows)
            .map(|_| (0..n).map(|_| ch.measure(true_w, &mut rng_a)).sum::<f64>())
            .collect();
        let closed: Vec<f64> = (0..windows)
            .map(|_| ch.accumulate(true_w, n, &mut rng_b))
            .collect();
        let (m_loop, v_loop) = stats(&looped);
        let (m_fast, v_fast) = stats(&closed);
        assert!(
            (m_loop - m_fast).abs() < 0.5,
            "means diverge: {m_loop} vs {m_fast}"
        );
        assert!(
            (v_loop.sqrt() - v_fast.sqrt()).abs() < 0.3 * v_loop.sqrt(),
            "std devs diverge: {} vs {}",
            v_loop.sqrt(),
            v_fast.sqrt()
        );
    }

    #[test]
    fn channel_clips_at_full_scale() {
        let ch = DaqChannel::new(AdcConfig::default());
        let mut rng = SimRng::seed(2);
        let w = ch.measure(10_000.0, &mut rng);
        assert!(w <= ch.full_scale_watts() + 1e-9);
    }

    #[test]
    fn meter_windows_average_idle_power() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut meter = PowerMeter::new(PowerSpec::default(), 3);
        for _ in 0..1000 {
            meter.observe(machine.tick());
        }
        let s = meter.cut_window();
        assert_eq!(s.window_ms, 1000);
        assert!((s.watts.total() - 141.0).abs() < 8.0, "{}", s.watts.total());
        // Next window starts empty.
        let empty = meter.cut_window();
        assert_eq!(empty.watts.total(), 0.0);
        assert_eq!(empty.window_ms, 0);
    }

    #[test]
    fn noise_floor_is_small_but_nonzero() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut meter = PowerMeter::new(PowerSpec::default(), 4);
        let mut samples = Vec::new();
        for _ in 0..10 {
            for _ in 0..200 {
                meter.observe(machine.tick());
            }
            samples.push(meter.cut_window().watts.get(Subsystem::Disk));
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let std = var.sqrt();
        assert!(std > 0.0, "measurement noise exists");
        assert!(std < 0.3, "but is small: {std}");
    }
}

//! Ground-truth power measurement for the simulated server.
//!
//! The paper instruments five power domains with series sense resistors;
//! a separate data-acquisition workstation samples the voltage drops at
//! 10 kHz and averages them into the 1 Hz windows delimited by the
//! target's sync pulses (§3.1.2). This crate is that apparatus:
//!
//! * [`PowerSpec`] + [`GroundTruth`] convert per-tick device activity
//!   (the [`tdp_simsys::TickActivity`] that `Machine::tick` lends out,
//!   read by reference) into instantaneous subsystem watts
//!   using the *local-event* power models of §2.2.1 — Janzen-style DRAM
//!   state power, Zedlewski-style disk mode power, CMOS static+dynamic
//!   power for chipset and I/O, and activity-factor CPU power;
//! * [`PowerMeter`] wraps the truth in the acquisition chain — sense
//!   resistor, amplifier noise, 12-bit ADC quantization, 10 kHz sampling
//!   and per-window averaging — so "measured" power carries realistic
//!   artifacts.
//!
//! Nothing in this crate reads performance counters, and nothing in the
//! model library reads this crate's internals: the only interface between
//! them is (counter sample, measured watts) pairs, exactly as on the real
//! bench.
//!
//! # Example
//!
//! ```
//! use tdp_powermeter::{PowerMeter, PowerSpec};
//! use tdp_simsys::{Machine, MachineConfig};
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let mut meter = PowerMeter::new(PowerSpec::default(), 7);
//!
//! for _ in 0..1000 {
//!     meter.observe(machine.tick());
//! }
//! let sample = meter.cut_window();
//! // An idle 4-way server burns ~141 W total in the paper's Table 1.
//! assert!(sample.watts.total() > 120.0 && sample.watts.total() < 160.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daq;
mod sample;
mod spec;
mod thermal;
mod truth;

pub use daq::{AdcConfig, DaqChannel, PowerMeter};
pub use sample::{PowerSample, SubsystemPower};
pub use spec::{
    ChipsetPowerSpec, CpuPowerSpec, DiskPowerSpec, DramPowerSpec, IoPowerSpec, PowerSpec,
};
pub use thermal::{SubsystemTemps, ThermalModel, ThermalParams, ThermalSensor, ThermalSpec};
pub use truth::GroundTruth;

//! A deterministic full-system simulator of the paper's target server.
//!
//! Bircher & John's measurement platform is a 4-way Pentium 4 Xeon SMP
//! server with two SMT threads per processor, a shared front-side bus,
//! DDR DRAM behind a memory controller, two I/O chips driving PCI-X buses
//! and two SCSI disks, running Linux (§3.1.1). This crate is the
//! from-scratch substitute for that hardware: a time-stepped (1 ms tick)
//! simulation detailed enough that the paper's *trickle-down* phenomena
//! emerge from mechanism rather than curve-fitting:
//!
//! * cache misses become front-side-bus transactions become DRAM bank
//!   activations ([`cache`], [`bus`], [`dram`]);
//! * the hardware prefetcher ([`prefetch`]) converts demand misses into
//!   prefetch traffic at high utilization, breaking the L3-miss ↔ memory
//!   power proportionality exactly the way the paper's Figure 4 shows;
//! * disk requests are programmed through uncacheable configuration
//!   accesses, transfer through DMA visible on the processor bus, and
//!   complete with an interrupt ([`disk`], [`iochip`], [`intc`]); the
//!   [`nic`] moves packets down the same path with coalesced
//!   interrupts;
//! * the OS ([`os`]) schedules threads over SMT contexts, executes `HLT`
//!   when idle (engaging CPU clock gating), runs a page cache whose
//!   `sync()` produces the DiskLoad workload's burst behaviour, and
//!   maintains `/proc/interrupts`-style accounting.
//!
//! The machine *produces* two streams:
//!
//! 1. **performance-event counts** pushed into [`tdp_counters::CounterBank`]s
//!    — everything a power *model* is allowed to see;
//! 2. **device activity** ([`TickActivity`]) — DRAM state residency, disk
//!    mode residency, I/O switching — which only the ground-truth power
//!    meter (`tdp-powermeter`) may consume.
//!
//! That boundary enforces the paper's central discipline: models are
//! trained and evaluated against measured power but may only *read*
//! CPU-visible counters.
//!
//! Each stream has one call. [`Machine::tick`] advances one millisecond
//! and lends out the tick's [`TickActivity`]; [`Machine::read_counters`]
//! reads and clears every bank and lends out the window's
//! [`tdp_counters::SampleSet`]. Both refill a buffer the machine owns,
//! so a steady-state tick or read does not allocate; clone the result
//! to keep it past the next call.
//!
//! Beyond the paper's fixed-frequency platform, the machine supports
//! DVFS operating points ([`Machine::set_frequency_scale`]) and
//! per-process scheduler accounting ([`Machine::take_sched_delta`]) for
//! the power-management extensions built on top.
//!
//! # Example
//!
//! ```
//! use tdp_simsys::{Machine, MachineConfig};
//! use tdp_simsys::behavior::spin_loop_behavior;
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.os_mut().spawn(Box::new(spin_loop_behavior(1.5)), 0);
//!
//! // Run one simulated second.
//! for _ in 0..1000 {
//!     machine.tick();
//! }
//! assert_eq!(machine.now_ms(), 1000);
//! // The spinning thread kept one CPU busy: it fetched uops.
//! let sample = machine.read_counters();
//! let uops = sample.total(tdp_counters::PerfEvent::FetchedUops).unwrap();
//! assert!(uops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod bus;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod disk;
pub mod dram;
pub mod intc;
pub mod iochip;
pub mod machine;
pub mod nic;
pub mod os;
pub mod prefetch;
pub mod rng;
pub mod tlb;

pub use behavior::{IoDemand, ReuseProfile, ThreadBehavior, TickContext, TickDemand};
pub use config::{
    BusConfig, CacheConfig, CpuConfig, DiskConfig, DramConfig, IoConfig, MachineConfig, NicConfig,
    OsConfig,
};
pub use machine::{Machine, TickActivity};
pub use rng::SimRng;

//! Performance-event definitions, per-CPU counter banks, a perfctr-style
//! sampling driver and operating-system interrupt accounting.
//!
//! This crate is the shared vocabulary of the trickledown workspace: the
//! simulated machine (`tdp-simsys`) *produces* event counts into
//! [`CounterBank`]s, and the power-model library (`trickledown`)
//! *consumes* [`SampleSet`]s read out of those banks. Nothing in this crate
//! knows anything about power — that separation mirrors the paper's setup,
//! where the Pentium 4's counters are oblivious to the sense resistors
//! attached to the power rails.
//!
//! The design follows the measurement methodology of Bircher & John,
//! *Complete System Power Estimation: A Trickle-Down Approach Based on
//! Performance Events* (ISPASS 2007), §3.1.3 and §3.3:
//!
//! * counters are sampled **once per second** by the target itself, with a
//!   little jitter from cache effects and interrupt latency
//!   ([`SamplingDriver`]);
//! * the total count of each event over the window is recorded and the
//!   counters are **cleared** ([`CounterBank::read_and_clear`]);
//! * a **synchronisation pulse** is emitted at each sampling so that
//!   power-measurement records taken by separate acquisition hardware can be
//!   aligned offline ([`SyncPulse`]);
//! * interrupt *sources* are not a PMU event on the Pentium 4, so they are
//!   obtained from the operating system's per-vector accounting
//!   ([`InterruptAccounting`], the `/proc/interrupts` emulation).
//!
//! # Example
//!
//! ```
//! use tdp_counters::{CounterBank, CpuId, PerfEvent};
//!
//! let mut bank = CounterBank::new(CpuId::new(0));
//! bank.program(&[PerfEvent::Cycles, PerfEvent::FetchedUops])?;
//! bank.add(PerfEvent::Cycles, 2_000_000_000);
//! bank.add(PerfEvent::FetchedUops, 1_400_000_000);
//!
//! let sample = bank.read_and_clear(1);
//! assert_eq!(sample.count(PerfEvent::Cycles), Some(2_000_000_000));
//! assert_eq!(bank.peek(PerfEvent::Cycles), Some(0));
//! # Ok::<(), tdp_counters::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod event;
mod interrupts;
mod multiplex;
mod sampler;
mod subsystem;
mod sync;

pub use bank::{CounterBank, ProgramError, MAX_HARDWARE_COUNTERS};
pub use event::{layout_hash, layout_hash_indices, EventProvenance, EventSet, PerfEvent};
pub use interrupts::{InterruptAccounting, InterruptSnapshot, InterruptSource, InterruptVector};
pub use multiplex::{MultiplexSchedule, MultiplexedSample, MultiplexedSampler};
pub use sampler::{CounterSample, CpuId, SampleSet, SamplerConfig, SamplingDriver};
pub use subsystem::Subsystem;
pub use sync::{SyncPulse, SyncRecorder};

//! Allocation-count regression tests for the tick hot path.
//!
//! A counting `#[global_allocator]` (own test binary, so it observes
//! everything) pins the buffer-reuse contract: once the machine's
//! scratch buffers reach steady state, `Machine::tick` and
//! `Machine::read_counters` must run without heap allocation —
//! and a whole fleet estimation window
//! (`tdp_fleet::FleetEstimator`) or closed-loop controller window
//! (ingest, estimate, `tdp_fleet::AnomalyDetector`, grants) must
//! allocate nothing at all.
//!
//! The count is per thread and armed only around each test's measured
//! stretch, so tests running in parallel (libtest's default) never see
//! each other's allocations. Every measured path is single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdp_simsys::behavior::spin_loop_behavior;
use tdp_simsys::{Machine, MachineConfig};

struct CountingAllocator;

thread_local! {
    /// This thread's allocation count while armed; `None` when not
    /// measuring. Const-initialised and drop-free, so touching it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCATIONS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` with this thread's counter armed and returns how many
/// allocations (and reallocations) it made on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|c| c.replace(None))
        .expect("counter armed above")
}

/// A machine running four busy compute threads, ticked past warm-up so
/// every internal scratch buffer has reached its steady capacity.
fn warmed_machine() -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    for cpu in 0..4 {
        machine
            .os_mut()
            .spawn(Box::new(spin_loop_behavior(1.5)), cpu);
    }
    for _ in 0..5_000 {
        machine.tick();
    }
    machine
}

/// Ticks `machine` through one 100 ms window and reads its counters.
fn sample_window(machine: &mut Machine) -> &tdp_counters::SampleSet {
    for _ in 0..100 {
        machine.tick();
    }
    machine.read_counters()
}

#[test]
fn steady_state_tick_does_not_allocate() {
    let mut machine = warmed_machine();
    const TICKS: u64 = 10_000;
    let delta = allocations_in(|| {
        for _ in 0..TICKS {
            machine.tick();
        }
    });
    // The contract is zero steady-state allocations; a tiny budget
    // absorbs one-off buffer growth if a scratch vector crosses a
    // capacity threshold mid-measurement.
    assert!(
        delta <= 8,
        "tick allocated {delta} times over {TICKS} ticks \
         ({} per 1000 ticks) — hot-path regression",
        delta as f64 * 1000.0 / TICKS as f64
    );
}

#[test]
fn steady_state_counter_reads_do_not_allocate() {
    let mut machine = warmed_machine();
    // Prime the machine's sample set (the first fill sizes the layout and
    // the count block).
    for _ in 0..3 {
        sample_window(&mut machine);
    }
    let delta = allocations_in(|| {
        for _ in 0..50 {
            sample_window(&mut machine);
        }
    });
    assert!(
        delta <= 8,
        "50 sampling windows allocated {delta} times — \
         read_counters regression"
    );
}

#[test]
fn steady_state_fleet_window_does_not_allocate() {
    // Fleet estimation is advertised as allocation-free once the column
    // buffers reach their steady capacity: per window, one
    // `begin_window`, one `push_sample_set` per machine and one
    // `estimate` must not touch the heap.
    const MACHINES: usize = 64;
    let mut machine = warmed_machine();
    let set = sample_window(&mut machine);

    let mut fleet =
        tdp_fleet::FleetEstimator::with_capacity(trickledown::SystemPowerModel::paper(), MACHINES);
    // Prime: first window sizes the estimate columns.
    for _ in 0..3 {
        fleet.begin_window();
        for _ in 0..MACHINES {
            fleet.push_sample_set(set);
        }
        fleet.estimate();
    }

    let delta = allocations_in(|| {
        for _ in 0..50 {
            fleet.begin_window();
            for _ in 0..MACHINES {
                fleet.push_sample_set(set);
            }
            std::hint::black_box(fleet.estimate().fleet_total());
        }
    });
    assert_eq!(
        delta, 0,
        "50 fleet windows allocated {delta} times — the steady-state \
         fleet path must be allocation-free"
    );
}

/// Pre-encodes `PRIME + WINDOWS` planar windows in which machine `m`
/// sends `sets[(m + w) % sets.len()]` in window `w`, then asserts that
/// once the priming windows have sized every slab (ledger, lane buffer,
/// batch columns), ingesting + estimating the rest touches no heap.
/// Windows are encoded up front, so the measured stretch is exactly the
/// consumer: decode, ledger, column fold, estimate.
fn assert_fused_ingest_allocation_free(sets: &mut [tdp_counters::SampleSet], machines: usize) {
    const PRIME: usize = 5;
    const WINDOWS: usize = 50;
    let mut enc = tdp_wire::WireEncoder::new();
    let bufs: Vec<Vec<u8>> = (0..PRIME + WINDOWS)
        .map(|w| {
            // Fresh window sequences: replayed ones read as duplicates
            // and skip the fold.
            for set in sets.iter_mut() {
                set.seq = w as u64 + 1;
            }
            for m in 0..machines {
                enc.push_sample_set(m as u64, &sets[(m + w) % sets.len()])
                    .unwrap();
            }
            enc.take_bytes()
        })
        .collect();

    let mut est =
        tdp_fleet::FleetEstimator::with_capacity(trickledown::SystemPowerModel::paper(), machines);
    let mut state = tdp_wire::IngestState::new();
    // Prime: the first window announces layouts and sizes every slab;
    // later windows only change counter magnitudes and which machine
    // sends which geometry, so buffer capacities hold steady.
    for buf in &bufs[..PRIME] {
        tdp_wire::ingest_serial_with(&mut state, buf, machines, &mut est);
        est.estimate();
    }

    let mut rows = 0u64;
    let delta = allocations_in(|| {
        for buf in &bufs[PRIME..] {
            rows += tdp_wire::ingest_serial_with(&mut state, buf, machines, &mut est).rows_written;
            std::hint::black_box(est.estimate().fleet_total());
        }
    });
    assert_eq!(
        rows,
        (WINDOWS * machines) as u64,
        "clean windows commit every row"
    );
    assert_eq!(
        delta, 0,
        "{WINDOWS} fused planar windows allocated {delta} times — the \
         steady-state wire ingest path must be allocation-free"
    );
}

#[test]
fn steady_state_fused_planar_ingest_does_not_allocate() {
    // The fused planar wire path carries the same contract as the
    // in-memory fleet window. (The producer's own contract is a later
    // test.)
    let mut machine = warmed_machine();
    let set = sample_window(&mut machine).clone();
    assert_fused_ingest_allocation_free(&mut [set], 64);
}

#[test]
fn steady_state_mixed_width_planar_ingest_does_not_allocate() {
    // 4- and 32-CPU machines interleaved within every window, and each
    // machine switching width from one window to the next: the row-lane
    // buffer changes geometry on almost every frame, but once it has
    // held a 32-CPU frame every resize stays inside its capacity.
    let mut machine = warmed_machine();
    let narrow = sample_window(&mut machine).clone();
    let mut cfg = MachineConfig::default();
    cfg.cpu.num_cpus = 32;
    let mut wide_machine = Machine::new(cfg);
    for cpu in 0..8 {
        wide_machine
            .os_mut()
            .spawn(Box::new(spin_loop_behavior(1.5)), cpu);
    }
    let wide = sample_window(&mut wide_machine).clone();
    assert_eq!(wide.num_cpus(), 32);
    assert_fused_ingest_allocation_free(&mut [narrow, wide], 64);
}

#[test]
fn steady_state_producer_window_allocates_only_the_output_buffer() {
    // The producer's side of the contract: once a priming window has
    // announced every layout and sized the planar gather scratch and
    // the agent map, a window of `push_sample_set` calls allocates only
    // as the output buffer `take_bytes` handed away regrows — a
    // doubling handful, never one allocation per frame.
    const MACHINES: usize = 64;
    let mut machine = warmed_machine();
    let mut set = sample_window(&mut machine).clone();

    let mut enc = tdp_wire::WireEncoder::new();
    set.seq = 1;
    for m in 0..MACHINES as u64 {
        enc.push_sample_set(m, &set).unwrap();
    }
    let primed = enc.take_bytes();

    for w in 2..6 {
        set.seq = w;
        let mut window = Vec::new();
        let delta = allocations_in(|| {
            for m in 0..MACHINES as u64 {
                enc.push_sample_set(m, &set).unwrap();
            }
            window = enc.take_bytes();
        });
        assert!(
            window.len() < primed.len(),
            "steady windows carry no layout frames"
        );
        assert!(
            delta < MACHINES as u64,
            "window {w}: {MACHINES} frames allocated {delta} times — the \
             producer must allocate only for output-buffer growth"
        );
    }
}

#[test]
fn steady_state_closed_loop_window_does_not_allocate() {
    // The adaptive-sampling loop's controller half, once the detector
    // has warmed and granted decimation: decimated ingest (three in
    // four machines silent and reconstructed), estimate, the
    // detector's median/MAD baseline and verdicts, and the grants fed
    // back to the encoder. Encoding sits outside the measured stretch;
    // the producer has its own contract above.
    const MACHINES: usize = 256;
    let mut machine = warmed_machine();
    let sets: Vec<tdp_counters::SampleSet> = (0..4)
        .map(|_| sample_window(&mut machine).clone())
        .collect();

    let mut enc = tdp_wire::WireEncoder::new();
    let mut state = tdp_wire::IngestState::new();
    let mut est =
        tdp_fleet::FleetEstimator::with_capacity(trickledown::SystemPowerModel::paper(), MACHINES);
    let mut det = tdp_fleet::AnomalyDetector::default();
    let dec = tdp_fleet::anomaly::HEALTHY_DECIMATION;
    for w in 0..40u64 {
        for m in 0..MACHINES {
            if enc.should_send(m as u64, w) {
                let mut set = sets[(m + w as usize) % sets.len()].clone();
                set.seq = w;
                enc.push_sample_set(m as u64, &set).unwrap();
            }
        }
        let buf = enc.take_bytes();
        let mut reconstructed = 0;
        let delta = allocations_in(|| {
            let rep = tdp_wire::ingest_serial_with(&mut state, &buf, MACHINES, &mut est);
            reconstructed = rep.rows_reconstructed;
            det.update(est.estimate());
            for m in 0..MACHINES {
                enc.set_decimation(m as u64, det.decimation(m));
            }
        });
        // Warm-up sizes every slab and the detector's scale ring; by
        // window 16 every machine has run a full decimated cycle.
        if w >= 16 {
            assert_eq!(
                reconstructed,
                (MACHINES - MACHINES / dec as usize) as u64,
                "window {w}: every machine decimated"
            );
            assert_eq!(
                delta, 0,
                "window {w}: the closed loop allocated {delta} times — \
                 ingest, estimate, detector and grants must be \
                 allocation-free in the steady state"
            );
        }
    }
}

//! The dense f64 kernels, each compiled in two flavours from one body.
//!
//! Every kernel follows the same pattern: a private `#[inline(always)]`
//! `*_impl` holds the arithmetic; a `#[target_feature(enable = "avx2")]`
//! wrapper re-compiles that body with 256-bit lanes available; the
//! public kernel runs that wrapper where the hardware has AVX2 and the
//! scalar body everywhere else. Because both flavours
//! inline the *same* expression sequence and Rust neither contracts
//! (`a*b + c` → FMA) nor reassociates floating point, the kernels are
//! bit-identical across flavours — see the crate docs.
//!
//! `quad_poly` / `clamp_watts` here are deliberate local copies of the
//! canonical `trickledown` definitions (this crate sits below
//! `trickledown` in the dependency graph, so it cannot import them).
//! `crates/fleet/tests/quad_crosscheck.rs` pins the kernel outputs
//! against the canonical helpers bit for bit, so the copies cannot
//! drift silently.

/// Whether this machine can run the AVX2 kernel flavour. The standard
/// library caches the detection, so every kernel asks on each call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn wide_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Elements per unrolled step in the elementwise kernels; two 256-bit
/// registers of f64 lanes under AVX2.
const LANES: usize = 8;

/// Local copy of [`trickledown::quad_poly`]'s expression —
/// `dc + lin·x + quad·x_sq` in exactly this association.
#[inline(always)]
fn quad_poly(dc: f64, lin: f64, quad: f64, x: f64, x_sq: f64) -> f64 {
    dc + lin * x + quad * x_sq
}

/// Local copy of [`trickledown::clamp_watts`]'s comparison sequence
/// (`< 0`, then `> ceil`, else identity; NaN passes through).
#[inline(always)]
fn clamp_watts(w: f64, ceil: f64) -> f64 {
    if w < 0.0 {
        0.0
    } else if w > ceil {
        ceil
    } else {
        w
    }
}

/// Defines the AVX2 recompilation `$avx2` of `$impl` and the public
/// kernel `$name`, which runs it where the hardware has AVX2 and the
/// scalar body `$impl` everywhere else.
///
/// The AVX2 wrapper is `unsafe fn` purely because of `target_feature`;
/// the kernel checks hardware support before every wide call.
macro_rules! wide_kernel {
    (
        $(#[$doc:meta])*
        pub fn $name:ident[$impl:ident / $avx2:ident](
            $($arg:ident: $ty:ty),* $(,)?
        ) $(-> $ret:ty)?;
    ) => {
        /// The AVX2 flavour of the kernel.
        ///
        /// # Safety
        ///
        /// The CPU running it must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $impl($($arg),*)
        }

        $(#[$doc])*
        // Inline the kernel itself (one cached feature test) so callers
        // in other crates pay no call overhead reaching it; the scalar
        // flavour then inlines fully, while the AVX2 flavour stays an
        // out-of-line `target_feature` call as it must.
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if wide_available() {
                // SAFETY: AVX2 support verified on the line above; the
                // wrapper has no other obligations.
                return unsafe { $avx2($($arg),*) };
            }
            $impl($($arg),*)
        }
    };
}

#[inline(always)]
fn fill_impl(out: &mut [f64], v: f64) {
    for o in out.iter_mut() {
        *o = v;
    }
}

wide_kernel! {
    /// `out[i] = v`.
    pub fn fill[fill_impl / fill_avx2](out: &mut [f64], v: f64);
}

#[inline(always)]
fn axpy_impl(out: &mut [f64], a: f64, x: &[f64]) {
    let mut out_it = out.chunks_exact_mut(LANES);
    let mut x_it = x.chunks_exact(LANES);
    for (oc, xc) in out_it.by_ref().zip(x_it.by_ref()) {
        for (o, &xv) in oc.iter_mut().zip(xc) {
            *o += a * xv;
        }
    }
    for (o, &xv) in out_it.into_remainder().iter_mut().zip(x_it.remainder()) {
        *o += a * xv;
    }
}

wide_kernel! {
    /// `out[i] += a · x[i]`. Elementwise: bit-identical across
    /// flavours.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn axpy[axpy_checked / axpy_avx2](out: &mut [f64], a: f64, x: &[f64]);
}

#[inline(always)]
fn axpy_checked(out: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(out.len(), x.len(), "axpy length mismatch");
    axpy_impl(out, a, x);
}

#[inline(always)]
fn quadratic_impl(out: &mut [f64], dc: f64, lin: f64, quad: f64, x: &[f64], x_sq: &[f64]) {
    assert_eq!(out.len(), x.len(), "quadratic length mismatch");
    assert_eq!(out.len(), x_sq.len(), "quadratic length mismatch");
    for ((o, &xv), &sv) in out.iter_mut().zip(x).zip(x_sq) {
        *o = quad_poly(dc, lin, quad, xv, sv);
    }
}

wide_kernel! {
    /// `out[i] = dc + lin·x[i] + quad·x_sq[i]` — one whole quadratic
    /// model per pass, in `trickledown::quad_poly`'s association.
    /// Elementwise: bit-identical across flavours.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn quadratic[quadratic_impl / quadratic_avx2](
        out: &mut [f64], dc: f64, lin: f64, quad: f64, x: &[f64], x_sq: &[f64],
    );
}

#[inline(always)]
fn quadratic_acc_impl(out: &mut [f64], lin: f64, quad: f64, x: &[f64], x_sq: &[f64]) {
    assert_eq!(out.len(), x.len(), "quadratic_acc length mismatch");
    assert_eq!(out.len(), x_sq.len(), "quadratic_acc length mismatch");
    for ((o, &xv), &sv) in out.iter_mut().zip(x).zip(x_sq) {
        *o += quad_poly(0.0, lin, quad, xv, sv);
    }
}

wide_kernel! {
    /// `out[i] += 0 + lin·x[i] + quad·x_sq[i]` — the accumulate form
    /// for multi-input models. Elementwise: bit-identical across
    /// flavours.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn quadratic_acc[quadratic_acc_impl / quadratic_acc_avx2](
        out: &mut [f64], lin: f64, quad: f64, x: &[f64], x_sq: &[f64],
    );
}

#[inline(always)]
fn clamp_impl(out: &mut [f64], dc: f64, peak1: f64, ncpus: &[f64]) -> u64 {
    assert_eq!(out.len(), ncpus.len(), "clamp_predictions length mismatch");
    let mut clamped = 0u64;
    for (o, &n) in out.iter_mut().zip(ncpus) {
        let c = clamp_watts(*o, dc + peak1 * n);
        if c.to_bits() != o.to_bits() {
            clamped += 1;
        }
        *o = c;
    }
    clamped
}

wide_kernel! {
    /// `out[i] = clamp_watts(out[i], dc + peak1 · ncpus[i])`, returning
    /// how many entries changed (for the pipeline-health counters).
    /// Elementwise, comparison sequence identical to
    /// `trickledown::clamp_watts`: bit-identical across flavours,
    /// including NaN pass-through.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn clamp_predictions[clamp_impl / clamp_avx2](
        out: &mut [f64], dc: f64, peak1: f64, ncpus: &[f64],
    ) -> u64;
}

#[inline(always)]
fn add_assign_impl(out: &mut [f64], x: &[f64]) {
    assert_eq!(out.len(), x.len(), "add_assign length mismatch");
    let mut out_it = out.chunks_exact_mut(LANES);
    let mut x_it = x.chunks_exact(LANES);
    for (oc, xc) in out_it.by_ref().zip(x_it.by_ref()) {
        for (o, &xv) in oc.iter_mut().zip(xc) {
            *o += xv;
        }
    }
    for (o, &xv) in out_it.into_remainder().iter_mut().zip(x_it.remainder()) {
        *o += xv;
    }
}

wide_kernel! {
    /// `out[i] += x[i]`. Elementwise: bit-identical across
    /// flavours.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn add_assign[add_assign_impl / add_assign_avx2](out: &mut [f64], x: &[f64]);
}

/// Event lanes per machine row in the order [`fold_row_rates`]
/// consumes: cycles, halted, uops, L3 misses, bus transactions, DMA,
/// total interrupts, timer interrupts, disk interrupts.
pub const ROW_FOLD_EVENTS: usize = 9;

/// One chunk of the row fold: derive all twelve per-CPU rate
/// columns for `B` consecutive CPUs elementwise (the phase the wide
/// flavour vectorises — `B` is a compile-time trip count, so LLVM
/// packs the independent lanes), then reduce them into `out` in CPU
/// order (the phase that must stay scalar: float accumulation order is
/// the bit-identity contract).
#[inline(always)]
fn fold_rate_chunk<const B: usize>(
    ev: &[&[f64]; ROW_FOLD_EVENTS],
    base: usize,
    out: &mut [f64; 12],
) {
    let mut v = [[0.0f64; B]; 12];
    // `i` indexes the inner (lane) dimension of every column — an
    // iterator over `v` would walk the outer (column) dimension.
    #[allow(clippy::needless_range_loop)]
    for i in 0..B {
        let c = base + i;
        let inv = 1.0 / ev[0][c].max(1.0);
        let active = (1.0 - ev[1][c] * inv).clamp(0.0, 1.0);
        let upc = ev[2][c] * inv;
        let l3_kc = (ev[3][c] * inv) * 1_000.0;
        let bus_mc = (ev[4][c] * inv) * 1e6;
        let dma = ev[5][c] * inv;
        let dev = (ev[6][c] * inv - ev[7][c] * inv).max(0.0);
        let disk = ev[8][c] * inv;
        v[0][i] = active;
        v[1][i] = upc;
        v[2][i] = l3_kc;
        v[3][i] = l3_kc * l3_kc;
        v[4][i] = bus_mc;
        v[5][i] = bus_mc * bus_mc;
        v[6][i] = dma;
        v[7][i] = dma * dma;
        v[8][i] = disk;
        v[9][i] = disk * disk;
        v[10][i] = dev;
        v[11][i] = dev * dev;
    }
    for i in 0..B {
        for (o, col) in out.iter_mut().zip(&v) {
            *o += col[i];
        }
    }
}

#[inline(always)]
fn fold_row_impl(lanes: &[f64], cpus: usize, out: &mut [f64; 12]) {
    assert_eq!(
        lanes.len(),
        ROW_FOLD_EVENTS * cpus,
        "fold_row_rates geometry mismatch"
    );
    let ev: [&[f64]; ROW_FOLD_EVENTS] = core::array::from_fn(|k| &lanes[k * cpus..(k + 1) * cpus]);
    let mut c = 0;
    while c + 4 <= cpus {
        fold_rate_chunk::<4>(&ev, c, out);
        c += 4;
    }
    while c < cpus {
        fold_rate_chunk::<1>(&ev, c, out);
        c += 1;
    }
}

wide_kernel! {
    /// The lane→row fold: `lanes` is event-major in row order
    /// (`lanes[k · cpus + c]`, nine [`ROW_FOLD_EVENTS`] planes, an
    /// event the machine does not count carried as a plane of `0.0`), and
    /// each CPU contributes `active = clamp(1 − halted/cycles)`,
    /// `upc`, `l3·10³`, `bus·10⁶`, `dma`, `disk`, `dev = max(int −
    /// timer, 0)` rates plus the four squares, accumulated into the
    /// twelve `out` columns in CPU order (CPU 0 first). Every rate is
    /// `n · (1/max(cycles, 1))` — the exact expression sequence of the
    /// scalar reference fold — and rates are derived elementwise before
    /// a scalar in-order reduction, so the result is bit-identical
    /// across flavours *and* to the per-CPU scalar accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() != 9 · cpus`.
    pub fn fold_row_rates[fold_row_impl / fold_row_avx2](
        lanes: &[f64],
        cpus: usize,
        out: &mut [f64; 12],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `out, dc, lin, quad, x, x_sq`, as [`quadratic`] takes them.
    type QuadraticFn = fn(&mut [f64], f64, f64, f64, &[f64], &[f64]);

    /// One flavour of every kernel, as plain function pointers, so each
    /// test runs the same calls through every flavour and compares bits.
    struct Flavour {
        name: &'static str,
        fill: fn(&mut [f64], f64),
        axpy: fn(&mut [f64], f64, &[f64]),
        quadratic: QuadraticFn,
        quadratic_acc: fn(&mut [f64], f64, f64, &[f64], &[f64]),
        clamp_predictions: fn(&mut [f64], f64, f64, &[f64]) -> u64,
        add_assign: fn(&mut [f64], &[f64]),
        fold_row_rates: fn(&[f64], usize, &mut [f64; 12]),
    }

    /// The flavours this machine can run: the scalar bodies, the AVX2
    /// wrappers where the hardware has AVX2, and the public kernels
    /// (which pick one of the two).
    fn flavours() -> Vec<Flavour> {
        let mut all = vec![
            Flavour {
                name: "scalar",
                fill: fill_impl,
                axpy: axpy_checked,
                quadratic: quadratic_impl,
                quadratic_acc: quadratic_acc_impl,
                clamp_predictions: clamp_impl,
                add_assign: add_assign_impl,
                fold_row_rates: fold_row_impl,
            },
            Flavour {
                name: "public",
                fill,
                axpy,
                quadratic,
                quadratic_acc,
                clamp_predictions,
                add_assign,
                fold_row_rates,
            },
        ];
        #[cfg(target_arch = "x86_64")]
        if wide_available() {
            // SAFETY (every closure): this flavour exists only on a
            // machine that has AVX2, checked just above.
            all.push(Flavour {
                name: "avx2",
                fill: |o, v| unsafe { fill_avx2(o, v) },
                axpy: |o, a, x| unsafe { axpy_avx2(o, a, x) },
                quadratic: |o, dc, l, q, x, s| unsafe { quadratic_avx2(o, dc, l, q, x, s) },
                quadratic_acc: |o, l, q, x, s| unsafe { quadratic_acc_avx2(o, l, q, x, s) },
                clamp_predictions: |o, dc, p, n| unsafe { clamp_avx2(o, dc, p, n) },
                add_assign: |o, x| unsafe { add_assign_avx2(o, x) },
                fold_row_rates: |l, c, o| unsafe { fold_row_avx2(l, c, o) },
            });
        }
        all
    }

    #[test]
    fn fold_row_rates_matches_per_cpu_reference_bit_for_bit() {
        for f in flavours() {
            for cpus in [1usize, 2, 3, 4, 5, 7, 8, 12, 17] {
                // Lane values spanning zero counts, zero cycles, and
                // large magnitudes — the cases the rate expressions
                // branch on.
                let lanes: Vec<f64> = (0..ROW_FOLD_EVENTS * cpus)
                    .map(|i| match i % 7 {
                        0 => 0.0,
                        1 => 1.0,
                        _ => ((i as f64) * 1.37e5).floor(),
                    })
                    .collect();
                let mut got = [0.0f64; 12];
                (f.fold_row_rates)(&lanes, cpus, &mut got);
                // Plain per-CPU reference: the scalar accumulation
                // order the fleet fold has always used.
                let mut want = [0.0f64; 12];
                for c in 0..cpus {
                    let ev = |k: usize| lanes[k * cpus + c];
                    let inv = 1.0 / ev(0).max(1.0);
                    let active = (1.0 - ev(1) * inv).clamp(0.0, 1.0);
                    let l3_kc = (ev(3) * inv) * 1_000.0;
                    let bus_mc = (ev(4) * inv) * 1e6;
                    let dma = ev(5) * inv;
                    let dev = (ev(6) * inv - ev(7) * inv).max(0.0);
                    let disk = ev(8) * inv;
                    let vals = [
                        active,
                        ev(2) * inv,
                        l3_kc,
                        l3_kc * l3_kc,
                        bus_mc,
                        bus_mc * bus_mc,
                        dma,
                        dma * dma,
                        disk,
                        disk * disk,
                        dev,
                        dev * dev,
                    ];
                    for (w, v) in want.iter_mut().zip(vals) {
                        *w += v;
                    }
                }
                for (k, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} cpus={cpus} col={k}: {g} vs {w}",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_plain_loops() {
        for f in flavours() {
            for n in [0, 1, 3, 7, 8, 9, 16, 33] {
                let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
                let mut out = vec![0.0; n];
                (f.fill)(&mut out, 2.5);
                assert!(out.iter().all(|&v| v == 2.5));
                (f.axpy)(&mut out, -1.5, &x);
                (f.add_assign)(&mut out, &x);
                for (i, &o) in out.iter().enumerate() {
                    assert_eq!(o, 2.5 + -1.5 * x[i] + x[i], "{} n={n} i={i}", f.name);
                }
            }
        }
    }

    #[test]
    fn quadratics_match_the_shared_polynomial_bit_for_bit() {
        let x: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 4.0).collect();
        let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
        let (dc, lin, quad) = (21.6, 10.6e7, -11.1e15);
        for f in flavours() {
            let mut out = vec![0.0; x.len()];
            (f.quadratic)(&mut out, dc, lin, quad, &x, &x_sq);
            for (i, &o) in out.iter().enumerate() {
                let e = quad_poly(dc, lin, quad, x[i], x_sq[i]);
                assert_eq!(o.to_bits(), e.to_bits(), "{} i={i}", f.name);
            }
            (f.quadratic_acc)(&mut out, 9.18, -45.4, &x, &x_sq);
            for (i, &o) in out.iter().enumerate() {
                let e = quad_poly(dc, lin, quad, x[i], x_sq[i])
                    + quad_poly(0.0, 9.18, -45.4, x[i], x_sq[i]);
                assert_eq!(o.to_bits(), e.to_bits(), "{} i={i}", f.name);
            }
        }
    }

    #[test]
    fn clamp_counts_changes_and_saturates() {
        let dc = 21.6;
        let peak1 = 0.5;
        let ncpus = [4.0, 4.0, 4.0, 2.0];
        for f in flavours() {
            let clamp = f.clamp_predictions;
            let mut out = [-3.0, 30.0, dc + peak1 * 4.0, 10.0];
            assert_eq!(clamp(&mut out, dc, peak1, &ncpus), 2, "{}", f.name);
            assert_eq!(out[0], 0.0);
            assert_eq!(out[1], dc + peak1 * 4.0);
            // NaN passes through unchanged and uncounted, matching the
            // scalar comparison sequence.
            let mut raw = [f64::NAN, -0.0];
            assert_eq!(clamp(&mut raw, 50.0, 0.0, &[1.0, 1.0]), 0);
            assert!(raw[0].is_nan());
            assert_eq!(raw[1].to_bits(), (-0.0f64).to_bits());
            // An unbounded ceiling only enforces the floor.
            let mut raw = [f64::MAX, -1.0];
            assert_eq!(clamp(&mut raw, f64::INFINITY, 0.0, &[4.0, 4.0]), 1);
            assert_eq!(raw, [f64::MAX, 0.0]);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(&mut [0.0; 3], 1.0, &[0.0; 4]);
    }

    /// Expands class-tagged draws into a column that mixes ordinary
    /// values with every special-case row the estimator can meet: NaN (a
    /// machine that never sent a counter), ±inf (overflowed rate
    /// division), signed zeros, and values sitting exactly on / next to
    /// the clamp ceiling.
    fn build_column(picks: &[(u8, f64)], ceil: f64) -> Vec<f64> {
        picks
            .iter()
            .map(|&(class, raw)| match class {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => ceil,                       // exactly at the clamp boundary
                6 => ceil + ceil * f64::EPSILON, // first value past it
                _ => raw,
            })
            .collect()
    }

    proptest! {
        /// Every elementwise kernel, every flavour, raw-bit equality —
        /// on batches salted with NaN/inf/clamp-boundary rows. One pass
        /// per flavour through the full kernel sequence the estimator
        /// runs, so equivalence is checked on composed state, not just
        /// one call.
        #[test]
        fn elementwise_kernels_bit_identical(
            picks in proptest::collection::vec((0u8..8, any::<f64>()), 0..64),
            dc in 10.0f64..40.0,
            lin in -2.0f64..2.0,
            quad in -1e-3f64..1e-3,
        ) {
            let peak1 = 9.5;
            let ncpus = 4.0;
            let ceil = dc + peak1 * ncpus;
            let x = build_column(&picks, ceil);
            let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
            let n_col = vec![ncpus; x.len()];

            let run = |f: &Flavour| {
                let mut out = vec![0.0f64; x.len()];
                (f.fill)(&mut out, dc);
                (f.axpy)(&mut out, lin, &x);
                (f.quadratic)(&mut out, dc, lin, quad, &x, &x_sq);
                (f.quadratic_acc)(&mut out, lin, quad, &x, &x_sq);
                (f.add_assign)(&mut out, &x);
                let clamped = (f.clamp_predictions)(&mut out, dc, peak1, &n_col);
                (out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), clamped)
            };
            let all = flavours();
            let scalar = run(&all[0]);
            for f in &all[1..] {
                prop_assert_eq!(&run(f), &scalar, "{} diverged from scalar", f.name);
            }
        }
    }
}

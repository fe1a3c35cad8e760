//! The dense f64 kernels, each compiled in two flavours from one body.
//!
//! Every kernel follows the same pattern: a private `#[inline(always)]`
//! `*_impl` holds the arithmetic; a `#[target_feature(enable = "avx2")]`
//! wrapper re-compiles that body with 256-bit lanes available; the
//! public function dispatches between them. Because both flavours
//! inline the *same* expression sequence and Rust neither contracts
//! (`a*b + c` → FMA) nor reassociates floating point, the elementwise
//! kernels are bit-identical across dispatch modes. The reductions
//! ([`dot`], [`sum`]) hard-code a four-accumulator association in the
//! shared body for the same reason — see the crate docs.
//!
//! `quad_poly` / `clamp_watts` here are deliberate local copies of the
//! canonical `trickledown` definitions (this crate sits below
//! `trickledown` in the dependency graph, so it cannot import them).
//! `crates/fleet/tests/quad_crosscheck.rs` pins the kernel outputs
//! against the canonical helpers bit for bit, so the copies cannot
//! drift silently.

use crate::Dispatch;

/// Elements per unrolled step in the elementwise kernels; two 256-bit
/// registers of f64 lanes under AVX2.
const LANES: usize = 8;

/// Accumulator count in the reductions ([`dot`], [`sum`]): one 256-bit
/// register of f64 lanes. Fixed so both dispatch flavours (and any
/// future wider one) share one documented association.
const ACCS: usize = 4;

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

/// Defines the AVX2 recompilation of `$impl` and the public dispatcher
/// `$name` choosing between the two flavours.
///
/// The AVX2 wrapper is `unsafe fn` purely because of `target_feature`;
/// the dispatcher re-verifies hardware support before every wide call,
/// so a hand-built [`Dispatch::Wide`] on non-AVX2 hardware degrades to
/// the scalar flavour instead of hitting undefined behaviour.
macro_rules! wide_kernel {
    (
        $(#[$doc:meta])*
        pub fn $name:ident[$impl:ident / $avx2:ident](
            $($arg:ident: $ty:ty),* $(,)?
        );
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) {
            $impl($($arg),*)
        }

        $(#[$doc])*
        // Inline the dispatcher itself (a two-way match) so callers in
        // other crates pay no call overhead reaching it; the scalar
        // flavour then inlines fully, while the AVX2 flavour stays an
        // out-of-line `target_feature` call as it must.
        #[inline]
        pub fn $name(d: Dispatch, $($arg: $ty),*) {
            match d {
                Dispatch::Scalar => $impl($($arg),*),
                Dispatch::Wide => {
                    #[cfg(target_arch = "x86_64")]
                    if crate::wide_available() {
                        // SAFETY: AVX2 support verified on the line
                        // above; the wrapper has no other obligations.
                        return unsafe { $avx2($($arg),*) };
                    }
                    $impl($($arg),*)
                }
            }
        }
    };
    (
        $(#[$doc:meta])*
        pub fn $name:ident[$impl:ident / $avx2:ident](
            $($arg:ident: $ty:ty),* $(,)?
        ) -> $ret:ty;
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            $impl($($arg),*)
        }

        $(#[$doc])*
        #[inline]
        pub fn $name(d: Dispatch, $($arg: $ty),*) -> $ret {
            match d {
                Dispatch::Scalar => $impl($($arg),*),
                Dispatch::Wide => {
                    #[cfg(target_arch = "x86_64")]
                    if crate::wide_available() {
                        // SAFETY: AVX2 support verified on the line
                        // above; the wrapper has no other obligations.
                        return unsafe { $avx2($($arg),*) };
                    }
                    $impl($($arg),*)
                }
            }
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
    /// `out[i] += a · x[i]`. Elementwise: bit-identical across dispatch
    /// modes.
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
    /// Elementwise: bit-identical across dispatch modes.
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
    /// dispatch modes.
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
    /// `trickledown::clamp_watts`: bit-identical across dispatch
    /// modes, including NaN pass-through.
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
    /// `out[i] += x[i]`. Elementwise: bit-identical across dispatch
    /// modes.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn add_assign[add_assign_impl / add_assign_avx2](out: &mut [f64], x: &[f64]);
}

#[inline(always)]
fn mask_in_range_impl(x: &[f64], lo: f64, hi: f64, mask: &mut [u8]) {
    assert_eq!(x.len(), mask.len(), "mask_in_range length mismatch");
    for (m, &v) in mask.iter_mut().zip(x) {
        *m &= (lo <= v && v <= hi) as u8;
    }
}

wide_kernel! {
    /// `mask[i] &= (lo ≤ x[i] ≤ hi)` — an AND-accumulating column
    /// bounds check (NaN fails). Conjunction passes over a window's
    /// columns build the batched sanity mask the wire health ledger
    /// consumes. Pure comparisons, elementwise: bit-identical across
    /// dispatch modes.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn mask_in_range[mask_in_range_impl / mask_in_range_avx2](
        x: &[f64], lo: f64, hi: f64, mask: &mut [u8],
    );
}

#[inline(always)]
fn mask_nonneg_le_scaled_impl(x: &[f64], cap: f64, scale: &[f64], mask: &mut [u8]) {
    assert_eq!(
        x.len(),
        scale.len(),
        "mask_nonneg_le_scaled length mismatch"
    );
    assert_eq!(x.len(), mask.len(), "mask_nonneg_le_scaled length mismatch");
    for ((m, &v), &s) in mask.iter_mut().zip(x).zip(scale) {
        *m &= (v >= 0.0 && v <= cap * s) as u8;
    }
}

wide_kernel! {
    /// `mask[i] &= (0 ≤ x[i] ≤ cap · scale[i])` — the AND-accumulating
    /// per-row-scaled cap check (NaN in either operand fails). The one
    /// floating-point operation, `cap · scale[i]`, is elementwise and
    /// unreassociated: bit-identical across dispatch modes, and
    /// identical to a scalar `x <= cap * scale` comparison.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn mask_nonneg_le_scaled[mask_nonneg_le_scaled_impl / mask_nonneg_le_scaled_avx2](
        x: &[f64], cap: f64, scale: &[f64], mask: &mut [u8],
    );
}

#[inline(always)]
fn dot_impl(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; ACCS];
    let mut a_it = a.chunks_exact(ACCS);
    let mut b_it = b.chunks_exact(ACCS);
    for (ac, bc) in a_it.by_ref().zip(b_it.by_ref()) {
        for l in 0..ACCS {
            acc[l] += ac[l] * bc[l];
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in a_it.remainder().iter().zip(b_it.remainder()) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

wide_kernel! {
    /// `Σ a[i]·b[i]` with the fixed four-accumulator association
    /// documented at the crate level: bit-identical across dispatch
    /// modes, a few ulp from a naive sequential sum.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn dot[dot_impl / dot_avx2](a: &[f64], b: &[f64]) -> f64;
}

#[inline(always)]
fn sum_impl(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; ACCS];
    let mut it = x.chunks_exact(ACCS);
    for c in it.by_ref() {
        for l in 0..ACCS {
            acc[l] += c[l];
        }
    }
    let mut tail = 0.0;
    for &v in it.remainder() {
        tail += v;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

wide_kernel! {
    /// `Σ x[i]` with the fixed four-accumulator association documented
    /// at the crate level: bit-identical across dispatch modes, a few
    /// ulp from a naive sequential sum.
    pub fn sum[sum_impl / sum_avx2](x: &[f64]) -> f64;
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
    /// across dispatch modes *and* to the per-CPU scalar accumulation.
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

    const BOTH: [Dispatch; 2] = [Dispatch::Scalar, Dispatch::Wide];

    #[test]
    fn fold_row_rates_matches_per_cpu_reference_bit_for_bit() {
        for d in BOTH {
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
                fold_row_rates(d, &lanes, cpus, &mut got);
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
                        "{d:?} cpus={cpus} col={k}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_plain_loops() {
        for d in BOTH {
            for n in [0, 1, 3, 7, 8, 9, 16, 33] {
                let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
                let mut out = vec![0.0; n];
                fill(d, &mut out, 2.5);
                assert!(out.iter().all(|&v| v == 2.5));
                axpy(d, &mut out, -1.5, &x);
                add_assign(d, &mut out, &x);
                for (i, &o) in out.iter().enumerate() {
                    assert_eq!(o, 2.5 + -1.5 * x[i] + x[i], "{d:?} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn quadratics_match_the_shared_polynomial_bit_for_bit() {
        let x: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 4.0).collect();
        let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
        let (dc, lin, quad) = (21.6, 10.6e7, -11.1e15);
        for d in BOTH {
            let mut out = vec![0.0; x.len()];
            quadratic(d, &mut out, dc, lin, quad, &x, &x_sq);
            for (i, &o) in out.iter().enumerate() {
                let e = quad_poly(dc, lin, quad, x[i], x_sq[i]);
                assert_eq!(o.to_bits(), e.to_bits(), "{d:?} i={i}");
            }
            quadratic_acc(d, &mut out, 9.18, -45.4, &x, &x_sq);
            for (i, &o) in out.iter().enumerate() {
                let e = quad_poly(dc, lin, quad, x[i], x_sq[i])
                    + quad_poly(0.0, 9.18, -45.4, x[i], x_sq[i]);
                assert_eq!(o.to_bits(), e.to_bits(), "{d:?} i={i}");
            }
        }
    }

    #[test]
    fn clamp_counts_changes_and_saturates() {
        let dc = 21.6;
        let peak1 = 0.5;
        let ncpus = [4.0, 4.0, 4.0, 2.0];
        for d in BOTH {
            let mut out = [-3.0, 30.0, dc + peak1 * 4.0, 10.0];
            assert_eq!(clamp_predictions(d, &mut out, dc, peak1, &ncpus), 2);
            assert_eq!(out[0], 0.0);
            assert_eq!(out[1], dc + peak1 * 4.0);
            // NaN passes through unchanged and uncounted, matching the
            // scalar comparison sequence.
            let mut raw = [f64::NAN, -0.0];
            assert_eq!(clamp_predictions(d, &mut raw, 50.0, 0.0, &[1.0, 1.0]), 0);
            assert!(raw[0].is_nan());
            assert_eq!(raw[1].to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn reductions_use_the_documented_association() {
        let x: Vec<f64> = (0..23).map(|i| (i as f64).sin() * 1e3).collect();
        let y: Vec<f64> = (0..23).map(|i| (i as f64).cos() * 1e-3).collect();
        // Reference: the documented 4-accumulator association, written
        // out independently of the kernel body.
        let mut acc = [0.0f64; 4];
        let mut tail = 0.0;
        for (i, (&a, &b)) in x.iter().zip(&y).enumerate() {
            if i < 20 {
                acc[i % 4] += a * b;
            } else {
                tail += a * b;
            }
        }
        let expect = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail;
        for d in BOTH {
            assert_eq!(dot(d, &x, &y).to_bits(), expect.to_bits(), "{d:?}");
        }
        let ones = vec![1.0; 9];
        for d in BOTH {
            assert_eq!(sum(d, &ones), 9.0, "{d:?}");
        }
    }

    #[test]
    fn mask_kernels_and_accumulate_and_reject_non_finites() {
        let x = [
            0.5,
            -0.0,
            4.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1024.0,
            1024.5,
        ];
        for d in BOTH {
            let mut mask = vec![1u8; x.len()];
            mask_in_range(d, &x, 0.0, 1024.0, &mut mask);
            assert_eq!(mask, [1, 1, 1, 0, 0, 0, 0, 1, 0], "{d:?} in_range");
            // AND-accumulation: a second pass can only clear bits.
            mask_in_range(d, &x, 1.0, 2000.0, &mut mask);
            assert_eq!(mask, [0, 0, 1, 0, 0, 0, 0, 1, 0], "{d:?} accumulated");

            let scale = [2.0; 9];
            let mut mask = vec![1u8; x.len()];
            // cap·scale = 8: nonneg values ≤ 8 survive, NaN/inf/negative
            // (including -0.0 surviving as ≥ 0) handled like the scalar
            // comparisons.
            mask_nonneg_le_scaled(d, &x, 4.0, &scale, &mut mask);
            assert_eq!(mask, [1, 1, 1, 0, 0, 0, 0, 0, 0], "{d:?} scaled");
            // NaN scale fails the ≤ comparison for any x.
            let mut m = vec![1u8; 1];
            mask_nonneg_le_scaled(d, &[1.0], 4.0, &[f64::NAN], &mut m);
            assert_eq!(m, [0], "{d:?} NaN scale");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(Dispatch::Wide, &mut [0.0; 3], 1.0, &[0.0; 4]);
    }
}

//! The reference kernel: a fixed piece of work timed next to the
//! pipeline, so that its timings can be reported relative to the host's
//! current speed.
//!
//! On a shared host the speed of branchy, memory-touching code drifts by
//! tens of percent from one run to the next. This kernel (LEB128 coding
//! and a sort, like the pipeline's decode and median work) drifts with
//! it, while no change to the library can move it.

use std::time::Instant;

/// The kernel time, in nanoseconds, that `setup_s` is scaled to: set-up
/// cost is reported as the seconds it would take on a host where one
/// kernel run takes this long.
pub const NOMINAL_NS: f64 = 100_000.0;

/// The kernel and its reusable buffers.
#[derive(Default)]
pub struct Reference {
    bytes: Vec<u8>,
    vals: Vec<f64>,
}

impl Reference {
    /// Codes and decodes 2048 pseudo-random integers, then sorts 1024
    /// pseudo-random floats. Returns a checksum of the work.
    pub fn run(&mut self, seed: u64) -> u64 {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.bytes.clear();
        for _ in 0..2048 {
            let r = next();
            let mut v = r >> (r & 63);
            while v >= 0x80 {
                self.bytes.push(v as u8 | 0x80);
                v >>= 7;
            }
            self.bytes.push(v as u8);
        }
        let (mut sum, mut cur, mut shift) = (0u64, 0u64, 0u32);
        for &b in &self.bytes {
            cur |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                sum = sum.wrapping_add(cur);
                (cur, shift) = (0, 0);
            } else {
                shift += 7;
            }
        }
        self.vals.clear();
        self.vals.extend((0..1024).map(|_| (next() >> 11) as f64));
        self.vals.sort_unstable_by(f64::total_cmp);
        sum ^ self.vals[512].to_bits()
    }

    /// Times `runs` runs, appending each one's wall nanoseconds to `out`.
    pub fn sample(&mut self, runs: usize, out: &mut Vec<f64>) {
        for _ in 0..runs {
            let start = Instant::now();
            std::hint::black_box(self.run(out.len() as u64));
            out.push(start.elapsed().as_nanos() as f64);
        }
    }
}

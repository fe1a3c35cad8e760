//! Deterministic fault injection for wire streams.
//!
//! A [`FaultPlan`] wraps the bytes a [`WireEncoder`](crate::WireEncoder)
//! produced for one window and returns a damaged copy: bit flips,
//! dropped/duplicated/reordered frames, truncated tails, inserted
//! garbage, spiked counter payloads and window-sequence resets. Every
//! choice is drawn from a [splitmix64] generator keyed on
//! `(seed, window)`, so a given seed replays the identical fault
//! schedule on every run — the chaos tests and perfbench's
//! `fleet-chaos` workload are reproducible bit for bit.
//!
//! Each fault kind is engineered to damage **only its target**:
//!
//! * [`BitFlip`](FaultKind::BitFlip) touches byte 8 onward of a frame
//!   (never magic/version/type/length), so framing survives and the
//!   checksum — which detects every single-bit flip — rejects exactly
//!   one frame;
//! * [`GarbageInsert`](FaultKind::GarbageInsert) bytes exclude the
//!   first magic byte, so the decoder resynchronises at precisely the
//!   next real frame, and two runs never have only a
//!   [`DropFrame`](FaultKind::DropFrame) between them, so each is its
//!   own resync;
//! * [`TruncateTail`](FaultKind::TruncateTail) cuts into the stream's
//!   final frame only.
//!
//! The returned [`FaultedWindow`] lists what was injected and which
//! machines can no longer be expected to match a fault-free run
//! ([`affected`](FaultedWindow::affected)) — the complement is the
//! clean subset whose estimates must stay **bit-identical**, which is
//! exactly what the chaos integration test asserts.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use crate::decode::{CursorItem, FrameCursor};
use crate::frame::{FrameHeader, FrameType, HEADER_LEN};
use std::collections::BTreeSet;

/// One way a stream can be damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit in a frame (header byte ≥ 8 or payload): the frame
    /// checksums wrong and is rejected; framing is untouched.
    BitFlip,
    /// Remove one frame entirely: its machine falls silent this
    /// window.
    DropFrame,
    /// Replace a sample payload with an all-ones counter pattern
    /// (every event = 1, cycles = 1): the frame checksums *correctly*
    /// but describes impossible rates, exercising quarantine.
    RateSpike,
    /// Rewrite `window_seq` to 0 (checksum recomputed): a machine
    /// reboot / counter reset as seen on the wire.
    SeqReset,
    /// Deliver one frame twice back to back.
    DuplicateFrame,
    /// Insert non-frame bytes at a frame boundary, forcing a resync
    /// scan.
    GarbageInsert,
    /// Swap two adjacent frames of different machines (per-machine
    /// order is preserved — provably benign).
    ReorderFrames,
    /// Cut the stream partway through its final frame.
    TruncateTail,
}

/// One fault actually applied to a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What was done.
    pub kind: FaultKind,
    /// The machine whose frame was targeted, when the fault targets a
    /// frame ([`GarbageInsert`](FaultKind::GarbageInsert) targets a
    /// boundary; [`ReorderFrames`](FaultKind::ReorderFrames) reports
    /// the first of the swapped pair).
    pub machine: Option<u64>,
}

/// A damaged copy of one window's wire bytes, with full provenance.
#[derive(Debug, Clone, Default)]
pub struct FaultedWindow {
    /// The damaged stream.
    pub bytes: Vec<u8>,
    /// Every fault applied, in application order.
    pub injected: Vec<InjectedFault>,
    /// Machines whose rows this window may now differ from a
    /// fault-free run (fresh row lost, withheld, or replaced). The
    /// complement is the clean subset the chaos tests hold to
    /// bit-identity.
    pub affected: BTreeSet<u64>,
}

impl FaultedWindow {
    /// How many injected faults were of `kind`.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.injected.iter().filter(|f| f.kind == kind).count() as u64
    }
}

/// A seeded, replayable fault schedule. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

/// splitmix64: tiny, statistically solid, and stateless per step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One frame (or pass-through byte run) of the window being damaged.
struct Seg {
    bytes: Vec<u8>,
    header: Option<FrameHeader>,
    dropped: bool,
    duplicated: bool,
    /// Bytes to cut from the end of this segment (tail truncation).
    cut: usize,
}

impl FaultPlan {
    /// A plan keyed on `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Damages one window's clean wire bytes. Deterministic in
    /// `(seed, window)`; 1–3 faults per window, each aimed at a
    /// distinct frame.
    pub fn apply(&self, window: u64, clean: &[u8]) -> FaultedWindow {
        let mut rng = self
            .seed
            .wrapping_add(window.wrapping_mul(0xa076_1d64_78bd_642f));
        // Decompose the clean stream into frames (resync runs in a
        // *clean* stream would be an encoder bug; passed through).
        let mut segs: Vec<Seg> = Vec::new();
        let mut pos = 0usize;
        for item in FrameCursor::new(clean) {
            match item {
                CursorItem::Frame { start, header } => {
                    let end = start + HEADER_LEN + header.payload_len as usize;
                    segs.push(Seg {
                        bytes: clean[start..end].to_vec(),
                        header: Some(header),
                        dropped: false,
                        duplicated: false,
                        cut: 0,
                    });
                    pos = end;
                }
                CursorItem::Resync { skipped } => {
                    segs.push(Seg {
                        bytes: clean[pos..pos + skipped].to_vec(),
                        header: None,
                        dropped: false,
                        duplicated: false,
                        cut: 0,
                    });
                    pos += skipped;
                }
            }
        }

        let mut out = FaultedWindow::default();
        if segs.is_empty() {
            out.bytes = clean.to_vec();
            return out;
        }

        const KINDS: [FaultKind; 8] = [
            FaultKind::BitFlip,
            FaultKind::DropFrame,
            FaultKind::RateSpike,
            FaultKind::SeqReset,
            FaultKind::DuplicateFrame,
            FaultKind::GarbageInsert,
            FaultKind::ReorderFrames,
            FaultKind::TruncateTail,
        ];
        let n_faults = 1 + (splitmix64(&mut rng) % 3) as usize;
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        // boundary b = "before segment b"; one garbage run per
        // boundary, and never a dropped frame as the only thing
        // between two runs, keeps each run a distinct resync event.
        let mut garbage: Vec<(usize, Vec<u8>)> = Vec::new();
        let has_garbage =
            |garbage: &[(usize, Vec<u8>)], b: usize| garbage.iter().any(|(gb, _)| *gb == b);

        // Sample frames are the only sensible targets for frame-level
        // faults (layout frames are shared infrastructure).
        let pick_sample = |rng: &mut u64, targets: &BTreeSet<usize>, segs: &[Seg]| {
            let candidates: Vec<usize> = segs
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    !targets.contains(i)
                        && s.header.is_some_and(|h| h.frame_type == FrameType::Sample)
                })
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[(splitmix64(rng) % candidates.len() as u64) as usize])
            }
        };

        for _ in 0..n_faults {
            let kind = KINDS[(splitmix64(&mut rng) % KINDS.len() as u64) as usize];
            match kind {
                FaultKind::BitFlip => {
                    let Some(i) = pick_sample(&mut rng, &targets, &segs) else {
                        continue;
                    };
                    let seg = &mut segs[i];
                    // Byte 8 onward: past magic/version/type/length,
                    // so framing survives; the checksum catches every
                    // single-bit flip of what remains.
                    let span = seg.bytes.len() - 8;
                    let byte = 8 + (splitmix64(&mut rng) % span as u64) as usize;
                    let bit = (splitmix64(&mut rng) % 8) as u8;
                    seg.bytes[byte] ^= 1 << bit;
                    let machine = seg.header.map(|h| h.machine_id);
                    targets.insert(i);
                    out.affected.extend(machine);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::DropFrame => {
                    let Some(i) = pick_sample(&mut rng, &targets, &segs) else {
                        continue;
                    };
                    if has_garbage(&garbage, i) && has_garbage(&garbage, i + 1) {
                        continue;
                    }
                    segs[i].dropped = true;
                    let machine = segs[i].header.map(|h| h.machine_id);
                    targets.insert(i);
                    out.affected.extend(machine);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::RateSpike => {
                    let Some(i) = pick_sample(&mut rng, &targets, &segs) else {
                        continue;
                    };
                    let seg = &mut segs[i];
                    let mut h = seg.header.expect("sample target has a header");
                    // All-ones counters: CPU 0 carries raw value 1 for
                    // every event at one byte, and every delta plane is
                    // zero, so each later CPU repeats it. Checksums
                    // correctly — the *producer* is insane, not the
                    // wire.
                    let n_events = h.n_events as usize;
                    let mut payload = vec![0x40u8; n_events];
                    payload.extend(std::iter::repeat_n(0x01u8, n_events));
                    h.payload_len = payload.len() as u32;
                    h.checksum = h.expected_checksum(&payload);
                    seg.bytes.truncate(0);
                    seg.bytes.resize(HEADER_LEN, 0);
                    h.write(&mut seg.bytes);
                    seg.bytes.extend_from_slice(&payload);
                    seg.header = Some(h);
                    let machine = Some(h.machine_id);
                    targets.insert(i);
                    out.affected.extend(machine);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::SeqReset => {
                    let Some(i) = pick_sample(&mut rng, &targets, &segs) else {
                        continue;
                    };
                    let seg = &mut segs[i];
                    let mut h = seg.header.expect("sample target has a header");
                    h.window_seq = 0;
                    let payload = &seg.bytes[HEADER_LEN..];
                    h.checksum = h.expected_checksum(payload);
                    h.write(&mut seg.bytes[..HEADER_LEN]);
                    seg.header = Some(h);
                    // The row itself is intact, but a second reset in
                    // a later window collides with the re-baselined
                    // sequence and gets treated as a duplicate — so
                    // the machine is conservatively marked affected.
                    let machine = Some(h.machine_id);
                    targets.insert(i);
                    out.affected.extend(machine);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::DuplicateFrame => {
                    let Some(i) = pick_sample(&mut rng, &targets, &segs) else {
                        continue;
                    };
                    segs[i].duplicated = true;
                    let machine = segs[i].header.map(|h| h.machine_id);
                    targets.insert(i);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::GarbageInsert => {
                    // Interior boundaries only — never directly before
                    // the final segment (the tail belongs to
                    // TruncateTail: garbage adjacent to a truncated
                    // tail shorter than a header coalesces into one
                    // resync and breaks per-fault accounting). ≥ 2
                    // bytes so the resync scan — which starts two
                    // bytes past a bad magic — still lands on the
                    // next real frame.
                    if segs.len() < 2 {
                        continue;
                    }
                    let b = (splitmix64(&mut rng) % (segs.len() - 1) as u64) as usize;
                    if has_garbage(&garbage, b)
                        || (b > 0 && segs[b - 1].dropped && has_garbage(&garbage, b - 1))
                        || (segs[b].dropped && has_garbage(&garbage, b + 1))
                    {
                        continue;
                    }
                    let len = 2 + (splitmix64(&mut rng) % 31) as usize;
                    let bytes: Vec<u8> = (0..len)
                        .map(|_| {
                            let v = (splitmix64(&mut rng) & 0xff) as u8;
                            // Never the first magic byte: the garbage
                            // run can't fake a frame boundary.
                            if v == 0x54 {
                                0x55
                            } else {
                                v
                            }
                        })
                        .collect();
                    garbage.push((b, bytes));
                    out.injected.push(InjectedFault {
                        kind,
                        machine: None,
                    });
                }
                FaultKind::ReorderFrames => {
                    // Adjacent sample frames of *different* machines,
                    // both untouched by other faults.
                    let pairs: Vec<usize> = (0..segs.len().saturating_sub(1))
                        .filter(|&i| {
                            !targets.contains(&i)
                                && !targets.contains(&(i + 1))
                                && match (&segs[i].header, &segs[i + 1].header) {
                                    (Some(a), Some(b)) => {
                                        a.frame_type == FrameType::Sample
                                            && b.frame_type == FrameType::Sample
                                            && a.machine_id != b.machine_id
                                    }
                                    _ => false,
                                }
                        })
                        .collect();
                    if pairs.is_empty() {
                        continue;
                    }
                    let i = pairs[(splitmix64(&mut rng) % pairs.len() as u64) as usize];
                    let machine = segs[i].header.map(|h| h.machine_id);
                    segs.swap(i, i + 1);
                    targets.insert(i);
                    targets.insert(i + 1);
                    out.injected.push(InjectedFault { kind, machine });
                }
                FaultKind::TruncateTail => {
                    let i = segs.len() - 1;
                    let is_sample = segs[i]
                        .header
                        .is_some_and(|h| h.frame_type == FrameType::Sample);
                    if targets.contains(&i) || !is_sample || segs[i].bytes.len() < 3 {
                        continue;
                    }
                    // Cut 1..len-1 bytes: the damaged tail stays on
                    // the wire, so the decoder must detect and skip
                    // it, not merely miss it.
                    let span = segs[i].bytes.len() - 2;
                    segs[i].cut = 1 + (splitmix64(&mut rng) % span as u64) as usize;
                    let machine = segs[i].header.map(|h| h.machine_id);
                    targets.insert(i);
                    out.affected.extend(machine);
                    out.injected.push(InjectedFault { kind, machine });
                }
            }
        }

        // Assemble.
        out.bytes = Vec::with_capacity(clean.len() + 64);
        for (i, seg) in segs.iter().enumerate() {
            for (_, g) in garbage.iter().filter(|(b, _)| *b == i) {
                out.bytes.extend_from_slice(g);
            }
            if seg.dropped {
                continue;
            }
            let keep = seg.bytes.len() - seg.cut;
            out.bytes.extend_from_slice(&seg.bytes[..keep]);
            if seg.duplicated {
                out.bytes.extend_from_slice(&seg.bytes);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEncoder;
    use tdp_simsys::{Machine, MachineConfig};

    fn clean_window(machines: u64, window: u64) -> Vec<u8> {
        let mut enc = WireEncoder::new();
        for id in 0..machines {
            let mut m = Machine::new(MachineConfig::default());
            for _ in 0..200 {
                m.tick();
            }
            let mut set = m.read_counters().clone();
            set.seq = window;
            enc.push_sample_set(id, &set).unwrap();
        }
        enc.finish()
    }

    #[test]
    fn same_seed_same_window_is_bit_identical() {
        let clean = clean_window(6, 3);
        let plan = FaultPlan::new(0xfeed);
        let a = plan.apply(3, &clean);
        let b = plan.apply(3, &clean);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.affected, b.affected);
        assert!(!a.injected.is_empty(), "a populated window gets faults");
    }

    #[test]
    fn different_windows_draw_different_schedules() {
        let clean = clean_window(6, 0);
        let plan = FaultPlan::new(7);
        let schedules: Vec<Vec<InjectedFault>> =
            (0..16).map(|w| plan.apply(w, &clean).injected).collect();
        assert!(
            schedules.iter().any(|s| s != &schedules[0]),
            "16 windows with identical fault schedules is vanishingly unlikely"
        );
    }

    #[test]
    fn empty_stream_passes_through() {
        let out = FaultPlan::new(1).apply(0, &[]);
        assert!(out.bytes.is_empty());
        assert!(out.injected.is_empty());
        assert!(out.affected.is_empty());
    }

    #[test]
    fn garbage_never_contains_the_magic_prefix_byte() {
        // Every inserted garbage run must be free of 0x54, the byte the
        // resync scanner hunts for, and no dropped frame may leave two
        // runs back to back: walk each faulted stream and count
        // resyncs — each garbage run and each truncated tail is
        // exactly one.
        let clean = clean_window(4, 1);
        for seed in 0..8192 {
            let plan = FaultPlan::new(seed);
            for w in 0..8 {
                let f = plan.apply(w, &clean);
                let resyncs = FrameCursor::new(&f.bytes)
                    .filter(|item| matches!(item, CursorItem::Resync { .. }))
                    .count() as u64;
                let framing = f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
                assert_eq!(resyncs, framing, "seed {seed} window {w}: {:?}", f.injected);
            }
        }
    }

    #[test]
    fn affected_machines_cover_every_destructive_fault() {
        let clean = clean_window(8, 2);
        let plan = FaultPlan::new(99);
        for w in 0..64 {
            let f = plan.apply(w, &clean);
            for inj in &f.injected {
                let destructive = matches!(
                    inj.kind,
                    FaultKind::BitFlip
                        | FaultKind::DropFrame
                        | FaultKind::RateSpike
                        | FaultKind::SeqReset
                        | FaultKind::TruncateTail
                );
                if destructive {
                    let m = inj.machine.expect("destructive faults name a machine");
                    assert!(f.affected.contains(&m), "window {w}: {inj:?}");
                }
            }
        }
    }
}

//! The frame format: fixed little-endian header, one layout payload,
//! one sample payload, and a mix-based 64-bit frame checksum.
//!
//! A wire stream is a concatenation of frames. Each frame is a 44-byte
//! header followed by `payload_len` payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0x5754 ("TW" little-endian)
//!      2     1  version      2
//!      3     1  frame type   0 = layout, 1 = sample
//!      4     4  payload_len  bytes following the header
//!      8     8  machine_id
//!     16     8  window_seq   sampling-window sequence number
//!     24     8  layout_hash  tdp_counters::layout_hash of the event list
//!     32     2  cpu_count    CPUs (sample) or decimation (layout)
//!     34     2  n_events     events per CPU in this layout
//!     36     8  checksum     see [`FrameHeader::expected_checksum`]
//! ```
//!
//! A **layout frame** declares a PMU event layout: its payload is
//! `n_events` LEB128 varints of stable event indices
//! ([`PerfEvent::index`]), and `layout_hash` is their
//! [`layout_hash_indices`] — a decoder verifies the two agree before
//! trusting either. Layout frames have no CPUs to describe, so their
//! `cpu_count` field carries the machine's negotiated **sampling
//! decimation** instead: `0` or `1` means every window is transmitted,
//! `N > 1` means the machine sends one window in `N` and expects the
//! consumer to hold-reconstruct the rest (capped at
//! [`MAX_DECIMATION`]; the field is checksummed like any other).
//!
//! A **sample frame** carries one machine's window of raw counts for
//! at most [`MAX_WIRE_CPUS`] CPUs in the payload of [`crate::planar`]:
//! a one-byte code per event, CPU 0's counts, then one plane of
//! CPU-over-CPU zigzag deltas per event, each stored dense at a fixed
//! width, as a bitmap plus its nonzero lanes, or not at all when every
//! delta is zero (fleet siblings count nearly alike, so most lanes are).
//!
//! The checksum mixes every header field (except the checksum itself)
//! and every payload word through a chain of bijective steps
//! (`rotate ⊕ mul-odd`), so **any single-bit corruption of a stored
//! frame changes the expected checksum** — each step is invertible in
//! both its state and its input word, so a difference introduced at any
//! step survives to the final state. Magic and version are excluded
//! only because their flips are caught by their own equality checks
//! before the checksum is ever consulted.
//!
//! [`PerfEvent::index`]: tdp_counters::PerfEvent::index
//! [`layout_hash_indices`]: tdp_counters::layout_hash_indices

/// First two header bytes, `"TW"` read as a little-endian `u16`.
pub const MAGIC: u16 = 0x5754;

/// Current (only) format version. Version 1 streams, whose sample
/// frames came in two payloads, are refused as [`HeaderError::BadVersion`].
pub const VERSION: u8 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 44;

/// Upper bound on `n_events` a decoder will size scratch buffers for.
/// Generous versus [`tdp_counters::PerfEvent::count`] (18 today) to
/// leave room for newer producers, tight enough that a corrupt header
/// cannot request an absurd allocation.
pub const MAX_WIRE_EVENTS: usize = 64;

/// Largest per-machine sampling decimation a layout frame may declare
/// (its `cpu_count` field; see the [module docs](self)). Sending one
/// window in 1024 is already far past useful reconstruction; anything
/// larger in the field is treated as a malformed frame.
pub const MAX_DECIMATION: u16 = 1024;

/// Most CPUs a sample frame may carry. A zero delta plane stores no
/// bytes, so the payload length does not bound the lane buffer a
/// header's 16-bit `cpu_count` asks for: the decoder refuses a larger
/// count before sizing anything, and the encoder refuses to write one.
pub const MAX_WIRE_CPUS: usize = 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Declares an event layout (payload: `n_events` event indices).
    Layout,
    /// One machine-window of counts (payload: see [`crate::planar`]).
    Sample,
}

impl FrameType {
    fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameType::Layout),
            1 => Some(FrameType::Sample),
            _ => None,
        }
    }

    fn to_wire(self) -> u8 {
        match self {
            FrameType::Layout => 0,
            FrameType::Sample => 1,
        }
    }
}

/// A parsed frame header (all fields host-endian).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload contains.
    pub frame_type: FrameType,
    /// Payload bytes following the header.
    pub payload_len: u32,
    /// Which machine this frame describes.
    pub machine_id: u64,
    /// Sampling-window sequence number.
    pub window_seq: u64,
    /// Identity of the event layout the payload is encoded against.
    pub layout_hash: u64,
    /// CPUs in a sample frame. Layout frames have no CPUs; the field
    /// carries the machine's negotiated sampling decimation there
    /// (0 ⇒ 1, see the [module docs](self)).
    pub cpu_count: u16,
    /// Events per CPU in the layout.
    pub n_events: u16,
    /// Stored frame checksum.
    pub checksum: u64,
}

/// Why a header failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer than [`HEADER_LEN`] bytes available.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported [`VERSION`].
    BadVersion,
    /// Unknown frame-type byte.
    BadType,
}

impl FrameHeader {
    /// Parses the fixed header at the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`HeaderError`] when `buf` is too short or the
    /// magic/version/type bytes are wrong. Checksum verification is
    /// separate ([`verify`](Self::verify)) because skip-scanning
    /// decoders read headers without touching payloads.
    pub fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        if buf.len() < HEADER_LEN {
            return Err(HeaderError::Truncated);
        }
        let u16_at = |o: usize| u16::from_le_bytes([buf[o], buf[o + 1]]);
        let u32_at = |o: usize| u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[o..o + 8]);
            u64::from_le_bytes(b)
        };
        if u16_at(0) != MAGIC {
            return Err(HeaderError::BadMagic);
        }
        if buf[2] != VERSION {
            return Err(HeaderError::BadVersion);
        }
        let frame_type = FrameType::from_wire(buf[3]).ok_or(HeaderError::BadType)?;
        Ok(Self {
            frame_type,
            payload_len: u32_at(4),
            machine_id: u64_at(8),
            window_seq: u64_at(16),
            layout_hash: u64_at(24),
            cpu_count: u16_at(32),
            n_events: u16_at(34),
            checksum: u64_at(36),
        })
    }

    /// Serialises the header into exactly [`HEADER_LEN`] bytes at the
    /// start of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`HEADER_LEN`].
    pub fn write(&self, out: &mut [u8]) {
        out[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        out[2] = VERSION;
        out[3] = self.frame_type.to_wire();
        out[4..8].copy_from_slice(&self.payload_len.to_le_bytes());
        out[8..16].copy_from_slice(&self.machine_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.window_seq.to_le_bytes());
        out[24..32].copy_from_slice(&self.layout_hash.to_le_bytes());
        out[32..34].copy_from_slice(&self.cpu_count.to_le_bytes());
        out[34..36].copy_from_slice(&self.n_events.to_le_bytes());
        out[36..44].copy_from_slice(&self.checksum.to_le_bytes());
    }

    /// The checksum this header + payload *should* carry.
    ///
    /// One-shot form of [`PayloadChecksum`] (the single definition of
    /// the algorithm): seed from the header, absorb the whole payload,
    /// fold the lanes.
    pub fn expected_checksum(&self, payload: &[u8]) -> u64 {
        PayloadChecksum::new(self).finish(payload)
    }

    /// Whether the stored checksum matches the payload.
    #[must_use]
    pub fn verify(&self, payload: &[u8]) -> bool {
        self.checksum == self.expected_checksum(payload)
    }
}

// Odd multiplier (golden-ratio) and nothing-up-my-sleeve seeds
// (π words). Each step `h = rotl(h) ⊕ w  ·  K` is a bijection
// of `h` for fixed `w` and of `w` for fixed `h`. Payload words
// feed two independent lanes (even words → lane 0, odd → lane
// 1) so the multiply chains overlap instead of serialising;
// a flipped bit perturbs exactly one lane's state, and the
// final cross-lane mix is bijective in each lane, so the
// single-bit detection argument is unchanged.
const K: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED0: u64 = 0x243f_6a88_85a3_08d3;
const SEED1: u64 = 0x1319_8a2e_0370_7344;

#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(25) ^ w).wrapping_mul(K)
}

/// Loads up to 8 bytes little-endian, zero-padding a short slice.
/// Total (no panic path): this checksum runs on attacker-controlled
/// frames, so the walk must reject, never abort.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let take = bytes.len().min(8);
    let mut b = [0u8; 8];
    b[..take].copy_from_slice(&bytes[..take]);
    u64::from_le_bytes(b)
}

/// Incremental frame checksum: the same two-lane mix as
/// [`FrameHeader::expected_checksum`] (which delegates here, so the two
/// can never drift), exposed as a streaming absorb so a decoder can
/// fold verification into the pass that is already reading the payload
/// instead of walking the bytes twice.
///
/// Usage: [`new`](Self::new) seeds the lanes from the header fields;
/// [`absorb_to`](Self::absorb_to) may be called any number of times
/// with a monotonically growing watermark and consumes every *complete*
/// 16-byte chunk below it; [`finish`](Self::finish) absorbs whatever
/// remains (including the zero-padded tail words) and folds the lanes.
/// The result is bit-identical to the one-shot form no matter how the
/// absorb calls are spaced — the chunk→lane assignment is a pure
/// function of byte position.
#[derive(Debug, Clone, Copy)]
pub struct PayloadChecksum {
    h: u64,
    lane: u64,
    /// Payload bytes already absorbed (always a multiple of 16 until
    /// `finish`).
    done: usize,
}

impl PayloadChecksum {
    /// Seeds the checksum with every checksummed header field.
    ///
    /// The fields are split across the two lanes — two mixes each —
    /// so seeding latency is two multiply chains deep instead of five:
    /// the decoder pays this per frame, fused into the payload walk.
    /// Every field keeps its own disjoint bit range within exactly one
    /// mix word (the frame type xors into the lane-1 seed, a bijection
    /// of the seed), so a single flipped header bit still perturbs
    /// exactly one lane's state and the single-bit detection argument
    /// is unchanged.
    pub fn new(header: &FrameHeader) -> Self {
        let geom = header.payload_len as u64
            | (header.cpu_count as u64) << 32
            | (header.n_events as u64) << 48;
        let mut h = mix(SEED0, geom);
        let mut lane = mix(
            SEED1 ^ (header.frame_type.to_wire() as u64) << 56,
            header.machine_id,
        );
        h = mix(h, header.window_seq);
        lane = mix(lane, header.layout_hash);
        Self { h, lane, done: 0 }
    }

    /// Absorbs every complete 16-byte payload chunk that lies fully
    /// below `upto` and has not been absorbed yet. Cheap when there is
    /// nothing new to do, so callers may invoke it at whatever cadence
    /// their own walk produces.
    #[inline]
    pub fn absorb_to(&mut self, payload: &[u8], upto: usize) {
        let end = upto.min(payload.len()) & !15;
        while self.done < end {
            // `end` is 16-aligned and ≤ payload.len(), so the chunk is
            // always there; `get` keeps the walk total regardless.
            let Some(c) = payload.get(self.done..self.done + 16) else {
                break;
            };
            self.h = mix(self.h, le_word(&c[..8]));
            self.lane = mix(self.lane, le_word(&c[8..]));
            self.done += 16;
        }
    }

    /// Absorbs the unconsumed remainder of `payload` (the final partial
    /// chunk is zero-padded per 8-byte word: first word → lane 0, rest
    /// → lane 1) and folds the lanes into the frame checksum.
    ///
    /// `payload_len` is already mixed in by [`new`](Self::new), so the
    /// zero padding cannot alias a longer payload.
    pub fn finish(mut self, payload: &[u8]) -> u64 {
        self.absorb_to(payload, payload.len());
        // After the chunked absorb the remainder is < 16 bytes: at most
        // one word per lane, zero-padded. Staging it through one fixed
        // 16-byte buffer keeps the padding semantics of the historical
        // per-word `le_word` calls (same words, same zeros) while
        // paying a single variable-length copy instead of two.
        let rem = payload.get(self.done..).unwrap_or_default();
        let mut tail = [0u8; 16];
        tail[..rem.len()].copy_from_slice(rem);
        if !rem.is_empty() {
            self.h = mix(self.h, u64::from_le_bytes(tail[..8].try_into().unwrap()));
        }
        if rem.len() > 8 {
            self.lane = mix(self.lane, u64::from_le_bytes(tail[8..].try_into().unwrap()));
        }
        mix(self.h, self.lane)
    }
}

// The varint / zigzag codec helpers live in [`crate::varint`] (one
// definition each); re-exported here because the frame format is where
// users historically found them.
pub use crate::varint::{put_uvarint, read_uvarint, unzigzag, zigzag, MAX_VARINT_LEN};

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> FrameHeader {
        FrameHeader {
            frame_type: FrameType::Sample,
            payload_len: 5,
            machine_id: 0x0123_4567_89ab_cdef,
            window_seq: 42,
            layout_hash: 0xdead_beef_cafe_f00d,
            cpu_count: 4,
            n_events: 9,
            checksum: 0,
        }
    }

    #[test]
    fn header_roundtrips() {
        let mut h = header();
        h.checksum = h.expected_checksum(b"hello");
        let mut buf = [0u8; HEADER_LEN];
        h.write(&mut buf);
        assert_eq!(FrameHeader::parse(&buf), Ok(h));
    }

    #[test]
    fn parse_rejects_bad_prefixes() {
        let mut buf = [0u8; HEADER_LEN];
        header().write(&mut buf);
        assert_eq!(FrameHeader::parse(&buf[..10]), Err(HeaderError::Truncated));
        let mut bad = buf;
        bad[0] ^= 1;
        assert_eq!(FrameHeader::parse(&bad), Err(HeaderError::BadMagic));
        let mut bad = buf;
        bad[2] = 9;
        assert_eq!(FrameHeader::parse(&bad), Err(HeaderError::BadVersion));
        let mut bad = buf;
        bad[3] = 7;
        assert_eq!(FrameHeader::parse(&bad), Err(HeaderError::BadType));
        // Version 1's second sample type is gone with its version.
        let mut old = buf;
        old[3] = 2;
        assert_eq!(FrameHeader::parse(&old), Err(HeaderError::BadType));
        old[2] = 1;
        assert_eq!(FrameHeader::parse(&old), Err(HeaderError::BadVersion));
    }

    #[test]
    fn streaming_checksum_matches_one_shot_at_every_split() {
        let h = header();
        // Lengths that cover: empty, sub-chunk, exact chunk multiples,
        // one- and two-word tails.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 130] {
            let payload: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5a)
                .collect();
            let want = h.expected_checksum(&payload);
            // Single absorb watermark at every position (including far
            // past the end), then finish.
            for split in 0..=len + 8 {
                let mut ck = PayloadChecksum::new(&h);
                ck.absorb_to(&payload, split);
                assert_eq!(ck.finish(&payload), want, "len {len} split {split}");
            }
            // Many small monotone absorbs.
            let mut ck = PayloadChecksum::new(&h);
            for upto in (0..=len).step_by(3) {
                ck.absorb_to(&payload, upto);
            }
            assert_eq!(ck.finish(&payload), want, "len {len} stepped");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let h = header();
        let payload = b"payload bytes!";
        let base = h.expected_checksum(payload);
        // Payload bits.
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut p = payload.to_vec();
                p[byte] ^= 1 << bit;
                assert_ne!(h.expected_checksum(&p), base, "payload {byte}:{bit}");
            }
        }
        // Checksummed header fields (everything past magic/version,
        // which are equality-checked before the checksum).
        let mut buf = vec![0u8; HEADER_LEN];
        h.write(&mut buf);
        for byte in 3..36 {
            for bit in 0..8 {
                let mut b = buf.clone();
                b[byte] ^= 1 << bit;
                if let Ok(flipped) = FrameHeader::parse(&b) {
                    assert_ne!(
                        flipped.expected_checksum(payload),
                        base,
                        "header {byte}:{bit}"
                    );
                }
            }
        }
    }
}

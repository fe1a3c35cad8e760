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

    /// The checksum this header + payload *should* carry: the header
    /// fields seed two mix lanes, then each 16-byte payload chunk feeds
    /// its first word to lane 0 and its second to lane 1, the final
    /// partial chunk zero-padded per word, and the lanes fold into one.
    ///
    /// The seed splits the fields across the lanes, two mixes each, so
    /// seeding is two multiply chains deep instead of five. Every field
    /// keeps its own disjoint bit range within exactly one mix word (the
    /// frame type xors into the lane-1 seed, a bijection of the seed),
    /// so a single flipped header bit perturbs exactly one lane's state.
    /// `payload_len` is mixed into the seed, so the zero padding cannot
    /// alias a longer payload.
    pub fn expected_checksum(&self, payload: &[u8]) -> u64 {
        let geom =
            self.payload_len as u64 | (self.cpu_count as u64) << 32 | (self.n_events as u64) << 48;
        let mut h = mix(mix(SEED0, geom), self.window_seq);
        let mut lane = mix(
            mix(
                SEED1 ^ (self.frame_type.to_wire() as u64) << 56,
                self.machine_id,
            ),
            self.layout_hash,
        );
        let mut chunks = payload.chunks_exact(16);
        for c in &mut chunks {
            let (lo, hi) = c.split_at(8);
            h = mix(h, le_word(lo));
            lane = mix(lane, le_word(hi));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            h = mix(h, le_word(rem));
        }
        if rem.len() > 8 {
            lane = mix(lane, le_word(&rem[8..]));
        }
        mix(h, lane)
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

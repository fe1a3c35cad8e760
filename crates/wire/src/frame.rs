//! The frame format: a framing prefix, a mix-based 64-bit checksum, and
//! a body of varint fields and one payload.
//!
//! A wire stream is a concatenation of frames:
//!
//! ```text
//! size  field
//!    2  magic         0x5754 ("TW" little-endian)
//!    1  version/type  VERSION << 4 | frame type (0 = layout, 1 = sample)
//!  1–5  body_len      LEB128: body bytes after the checksum
//!    8  checksum      see [`FrameHeader::expected_checksum`]
//! ── body ──
//! 1–10  machine_id    LEB128
//! 1–10  window_seq    LEB128: sampling-window sequence number
//!    1  epoch         the machine's layout epoch
//!    1  n_events      events per CPU in the layout
//!    …  payload       by frame type (below)
//! ```
//!
//! Magic, version/type and `body_len` are the **framing prefix**: they
//! fix where the frame ends, and no byte after them can move that
//! boundary. A sample frame of a 4-CPU fleet machine has a 17-byte
//! header and body head (1–2 bytes each of length, id and sequence).
//!
//! A **layout frame** carries the machine's static attributes, the
//! fields that do not change from window to window: its payload is the
//! CPU count, the negotiated sampling **decimation** (`1` = every
//! window is transmitted, `N > 1` = one window in `N`, the consumer
//! reconstructing the rest; at most [`MAX_DECIMATION`]) and `n_events`
//! stable event indices ([`PerfEvent::index`]), all LEB128. Its
//! `epoch` names that layout for the machine's sample frames: the
//! producer moves to the next epoch (wrapping at 256) whenever the
//! events or the CPU count change, and keeps it when only the
//! decimation is re-announced. A decoder binds each machine to the
//! layout of its last layout frame and decodes a sample frame only when
//! the epochs agree.
//!
//! A **sample frame** carries one machine's window of raw counts for
//! the CPUs its layout declares, at most [`MAX_WIRE_CPUS`], in the
//! payload of [`crate::planar`]: a one-byte code per event, CPU 0's
//! counts, then one plane of CPU-over-CPU zigzag deltas per event, each
//! stored dense at a fixed width, as a bitmap plus its nonzero lanes,
//! or not at all when every delta is zero (fleet siblings count nearly
//! alike, so most lanes are).
//!
//! The checksum mixes the frame type, `body_len` and every body byte
//! through a chain of bijective steps (`rotate ⊕ mul-odd`), so **any
//! single-bit corruption of a body changes the expected checksum** —
//! each step is invertible in both its state and its input word, so a
//! difference introduced at any step survives to the final state. The
//! checksum sits before the body at a position the prefix fixes, so a
//! decoder verifies it before it parses a single body field. Magic and
//! version are excluded only because their flips are caught by their
//! own equality checks before the checksum is ever consulted.
//!
//! [`PerfEvent::index`]: tdp_counters::PerfEvent::index

use crate::varint::{put_uvarint, read_uvarint, uvarint_bytes};

/// First two header bytes, `"TW"` read as a little-endian `u16`.
pub const MAGIC: u16 = 0x5754;

/// Current (only) format version, the high nibble of the third byte.
/// Streams of earlier versions — whose frames had a fixed 44-byte
/// header carrying a layout hash — are refused as
/// [`HeaderError::BadVersion`].
pub const VERSION: u8 = 3;

/// Stored checksum bytes, following the framing prefix.
pub const CHECKSUM_LEN: usize = 8;

/// Longest `body_len` varint: five LEB128 bytes hold a `u32`.
const MAX_LEN_BYTES: usize = 5;

/// Upper bound on `n_events` a decoder will size scratch buffers for.
/// Generous versus [`tdp_counters::PerfEvent::count`] (18 today) to
/// leave room for newer producers, tight enough that a corrupt frame
/// cannot request an absurd allocation.
pub const MAX_WIRE_EVENTS: usize = 64;

/// Largest per-machine sampling decimation a layout frame may declare.
/// Sending one window in 1024 is already far past useful
/// reconstruction; anything larger is treated as a malformed frame.
pub const MAX_DECIMATION: u16 = 1024;

/// Most CPUs a layout may declare. A zero delta plane stores no bytes,
/// so the payload length does not bound the lane buffer a CPU count
/// asks for: the decoder refuses a larger count before sizing
/// anything, and the encoder refuses to write one.
pub const MAX_WIRE_CPUS: usize = 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Declares a machine's layout (payload: CPU count, decimation and
    /// `n_events` event indices).
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

/// A parsed frame header: the framing prefix and the stored checksum.
/// The body's fields are read by [`BodyHead::read`] once the checksum
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload contains.
    pub frame_type: FrameType,
    /// Bytes of the framing prefix: magic, version/type and the
    /// `body_len` varint (4 to 8).
    pub prefix_len: u8,
    /// Body bytes following the checksum.
    pub body_len: u32,
    /// Stored frame checksum.
    pub checksum: u64,
}

/// Why a header failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The buffer ends inside the header.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported [`VERSION`].
    BadVersion,
    /// Unknown frame-type nibble.
    BadType,
    /// A `body_len` varint longer than five bytes or past `u32`.
    BadLength,
}

impl FrameHeader {
    /// Parses the header at the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`HeaderError`] when `buf` ends inside the header or
    /// the magic, version/type or length bytes are wrong. Checksum
    /// verification is separate ([`verify`](Self::verify)) because
    /// skip-scanning decoders read headers without touching bodies.
    pub fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        if buf.len() < 3 {
            return Err(HeaderError::Truncated);
        }
        if u16::from_le_bytes([buf[0], buf[1]]) != MAGIC {
            return Err(HeaderError::BadMagic);
        }
        if buf[2] >> 4 != VERSION {
            return Err(HeaderError::BadVersion);
        }
        let frame_type = FrameType::from_wire(buf[2] & 0x0f).ok_or(HeaderError::BadType)?;
        let mut prefix_len = 3;
        let len_field = &buf[..buf.len().min(3 + MAX_LEN_BYTES)];
        let body_len = match read_uvarint(len_field, &mut prefix_len) {
            Some(v) if v <= u64::from(u32::MAX) => v,
            None if len_field.len() < 3 + MAX_LEN_BYTES => return Err(HeaderError::Truncated),
            _ => return Err(HeaderError::BadLength),
        };
        let stored = buf
            .get(prefix_len..prefix_len + CHECKSUM_LEN)
            .ok_or(HeaderError::Truncated)?;
        Ok(Self {
            frame_type,
            prefix_len: prefix_len as u8,
            body_len: body_len as u32,
            checksum: le_word(stored),
        })
    }

    /// Header bytes before the body: the prefix and the checksum.
    pub fn header_len(&self) -> usize {
        usize::from(self.prefix_len) + CHECKSUM_LEN
    }

    /// The whole frame's bytes: header and body.
    pub fn frame_len(&self) -> usize {
        self.header_len() + self.body_len as usize
    }

    /// The checksum this frame's `body` *should* carry: the frame type
    /// and the body length seed lane 0, then each 16-byte body chunk
    /// feeds its first word to lane 0 and its second to lane 1, the final
    /// partial chunk zero-padded per word, and the lanes fold into one.
    /// The length is mixed into the seed, so the zero padding cannot
    /// alias a longer body.
    pub fn expected_checksum(&self, body: &[u8]) -> u64 {
        checksum(self.frame_type, body)
    }

    /// Whether the stored checksum matches the body.
    #[must_use]
    pub fn verify(&self, body: &[u8]) -> bool {
        self.checksum == self.expected_checksum(body)
    }
}

/// The fields every frame body opens with, before its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyHead {
    /// Which machine this frame describes.
    pub machine_id: u64,
    /// Sampling-window sequence number.
    pub window_seq: u64,
    /// The machine's layout epoch: the one a layout frame declares, or
    /// the one a sample frame is encoded against.
    pub epoch: u8,
    /// Events per CPU in the layout.
    pub n_events: u8,
}

impl BodyHead {
    /// Reads the head at the start of `body`, returning it and the
    /// payload after it, or `None` if the body ends inside the head.
    pub fn read(body: &[u8]) -> Option<(Self, &[u8])> {
        let mut pos = 0;
        let machine_id = read_uvarint(body, &mut pos)?;
        let window_seq = read_uvarint(body, &mut pos)?;
        let (&epoch, &n_events) = (body.get(pos)?, body.get(pos + 1)?);
        let head = Self {
            machine_id,
            window_seq,
            epoch,
            n_events,
        };
        Some((head, &body[pos + 2..]))
    }

    fn write(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.machine_id);
        put_uvarint(out, self.window_seq);
        out.extend_from_slice(&[self.epoch, self.n_events]);
    }
}

/// Appends one frame of `frame_type`: its header, then a body of `head`
/// and whatever `payload` appends.
///
/// # Panics
///
/// Panics if the body exceeds `u32::MAX` bytes, which no frame within
/// [`MAX_WIRE_EVENTS`] and [`MAX_WIRE_CPUS`] approaches.
pub fn write_frame(
    out: &mut Vec<u8>,
    frame_type: FrameType,
    head: &BodyHead,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    // One length byte is reserved; a body of 128 bytes or more moves up
    // to make room for the rest of its varint.
    let start = out.len();
    let body_start = start + 4 + CHECKSUM_LEN;
    out.resize(body_start, 0);
    head.write(out);
    payload(out);
    let body_len = out.len() - body_start;
    assert!(
        body_len <= u32::MAX as usize,
        "a frame body fits the u32 length"
    );
    let (len, n) = uvarint_bytes(body_len as u64);
    if n > 1 {
        let end = out.len();
        out.resize(end + n - 1, 0);
        out.copy_within(body_start..end, body_start + n - 1);
    }
    let sum = checksum(frame_type, &out[body_start + n - 1..]);
    let prefix = &mut out[start..start + 3 + n + CHECKSUM_LEN];
    prefix[..2].copy_from_slice(&MAGIC.to_le_bytes());
    prefix[2] = VERSION << 4 | frame_type.to_wire();
    prefix[3..3 + n].copy_from_slice(&len[..n]);
    prefix[3 + n..].copy_from_slice(&sum.to_le_bytes());
}

/// The checksum of a frame of `frame_type` around `body` (see
/// [`FrameHeader::expected_checksum`]).
fn checksum(frame_type: FrameType, body: &[u8]) -> u64 {
    let geom = body.len() as u64 | u64::from(frame_type.to_wire()) << 32;
    let mut h = mix(SEED0, geom);
    let mut lane = SEED1;
    let mut chunks = body.chunks_exact(16);
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

// Odd multiplier (golden-ratio) and nothing-up-my-sleeve seeds
// (π words). Each step `h = rotl(h) ⊕ w  ·  K` is a bijection
// of `h` for fixed `w` and of `w` for fixed `h`. Body words
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

    fn head() -> BodyHead {
        BodyHead {
            machine_id: 0x0123_4567_89ab_cdef,
            window_seq: 42,
            epoch: 7,
            n_events: 9,
        }
    }

    /// One frame of `frame_type` around `head` and `payload`.
    fn frame(frame_type: FrameType, head: &BodyHead, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, frame_type, head, |b| b.extend_from_slice(payload));
        out
    }

    #[test]
    fn header_roundtrips() {
        // A one-byte and a two-byte length varint, and the smallest
        // head: every field reads back and the checksum holds.
        let small = BodyHead {
            machine_id: 3,
            window_seq: 16,
            epoch: 0,
            n_events: 9,
        };
        for (h, payload, prefix_len) in [
            (head(), &b"hello"[..], 4),
            (head(), &[0xa5; 300][..], 5),
            (small, &[0x5a; 67][..], 4),
        ] {
            for frame_type in [FrameType::Layout, FrameType::Sample] {
                let buf = frame(frame_type, &h, payload);
                let header = FrameHeader::parse(&buf).unwrap();
                assert_eq!(header.frame_type, frame_type);
                assert_eq!(usize::from(header.prefix_len), prefix_len);
                assert_eq!(header.frame_len(), buf.len());
                let body = &buf[header.header_len()..];
                assert!(header.verify(body));
                assert_eq!(BodyHead::read(body), Some((h, payload)));
            }
        }
        // 16 header and head bytes around a one-byte id and sequence
        // (17 for a machine id past 127).
        let buf = frame(FrameType::Sample, &small, &[0x5a; 67]);
        assert_eq!(buf.len() - 67, 16);
    }

    #[test]
    fn parse_rejects_bad_prefixes() {
        let buf = frame(FrameType::Sample, &head(), b"hello");
        for cut in [0, 2, 3, 4, 11] {
            assert_eq!(
                FrameHeader::parse(&buf[..cut]),
                Err(HeaderError::Truncated),
                "{cut} bytes"
            );
        }
        assert!(FrameHeader::parse(&buf[..12]).is_ok());
        let mut bad = buf.clone();
        bad[0] ^= 1;
        assert_eq!(FrameHeader::parse(&bad), Err(HeaderError::BadMagic));
        for type_nibble in 2..16 {
            let mut bad = buf.clone();
            bad[2] = VERSION << 4 | type_nibble;
            assert_eq!(FrameHeader::parse(&bad), Err(HeaderError::BadType));
        }
        // A version-2 frame: byte 2 was the version, byte 3 the type.
        let mut old = buf.clone();
        old[2] = 2;
        old[3] = 1;
        assert_eq!(FrameHeader::parse(&old), Err(HeaderError::BadVersion));
        // Five continuation bytes, and a length past u32.
        let mut long = buf[..3].to_vec();
        long.extend([0x80; 5]);
        long.extend([0; 8]);
        assert_eq!(FrameHeader::parse(&long), Err(HeaderError::BadLength));
        let mut wide = buf[..3].to_vec();
        wide.extend([0xff, 0xff, 0xff, 0xff, 0x10]);
        wide.extend([0; 8]);
        assert_eq!(FrameHeader::parse(&wide), Err(HeaderError::BadLength));
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Every body bit feeds the bijective chain, and so do the frame
        // type and the body length in the seed. Each flip past magic and
        // version either fails to parse (another type nibble, a length
        // varint that no longer ends or overruns) or leaves a frame whose
        // checksum no longer holds.
        for payload in [&b"payload bytes!"[..], &[0x77; 200][..]] {
            let buf = frame(FrameType::Sample, &head(), payload);
            let header = FrameHeader::parse(&buf).unwrap();
            let body = &buf[header.header_len()..];
            let base = header.expected_checksum(body);
            for byte in 0..body.len() {
                for bit in 0..8 {
                    let mut b = body.to_vec();
                    b[byte] ^= 1 << bit;
                    assert_ne!(header.expected_checksum(&b), base, "body {byte}:{bit}");
                }
            }
            let mut checked = 0;
            for byte in 2..buf.len() {
                for bit in 0..8 {
                    if byte == 2 && bit >= 4 {
                        continue; // the version nibble
                    }
                    let mut b = buf.clone();
                    b[byte] ^= 1 << bit;
                    let Ok(h) = FrameHeader::parse(&b) else {
                        continue;
                    };
                    let Some(body) = b.get(h.header_len()..h.frame_len()) else {
                        continue;
                    };
                    assert!(!h.verify(body), "byte {byte} bit {bit}");
                    checked += 1;
                }
            }
            assert!(checked > 8 * (buf.len() - 8), "most flips were parsed");
        }
    }
}

//! Zero-copy frame decoding straight into fleet sample rows.
//!
//! [`FrameDecoder::decode_frame`] is the one decode, and it verifies,
//! then decodes: the frame checksum is checked first, over the header
//! and the whole payload, so a corrupt frame reports
//! [`DecodeError::Checksum`] whatever it names, and only a frame that
//! checksums is read further. A sample frame is then walked in place,
//! straight into the nine f64 row lanes (see [`crate::planar`]) that
//! [`tdp_fleet::fold_event_lanes`] folds with the *same* arithmetic
//! `SampleBatch::push_sample_set` applies to in-memory samples, which
//! is what makes wire ingestion bit-identical to in-memory ingestion by
//! construction. No intermediate `SampleSet` or `SystemSample` is
//! built, and in the steady state (layouts already registered, lane
//! buffer sized) a decode performs no allocation.
//!
//! Layouts are resolved through a table keyed on the header's
//! `layout_hash`: a layout frame registers, once, the row lane each
//! wire event's plane unfolds into ([`row_slots`]: the first
//! occurrence of each of the nine [`ROW_EVENTS`], the same rule the
//! encoder projects sets with), and every subsequent sample frame with
//! that hash reuses it. A sample frame whose hash was never declared is
//! reported as [`DecodeError::UnknownLayout`], never guessed at — and
//! because the map is keyed on the *hash of the full ordered list*,
//! a mid-stream PMU reprogramming (reordered or extended event list)
//! can never misattribute columns.

use crate::frame::{
    FrameHeader, FrameType, HeaderError, HEADER_LEN, MAGIC, MAX_DECIMATION, MAX_WIRE_EVENTS,
};
use crate::planar::{decode_planes, NO_SLOT};
use crate::varint::read_uvarint;
use tdp_counters::layout_hash_indices;
use tdp_fleet::{fold_event_lanes, row_slots, COLUMNS, ROW_EVENTS};

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Stored checksum does not match header + payload.
    Checksum,
    /// A layout frame whose payload hashes differently than its header
    /// claims, a payload that disagrees with its own structure, or
    /// out-of-bounds counts of events/CPUs.
    Malformed,
    /// A sample frame referencing a `layout_hash` no layout frame
    /// declared.
    UnknownLayout,
}

/// A successfully decoded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decoded {
    /// A layout frame; its mapping is now registered in the decoder.
    Layout {
        /// The machine's negotiated sampling decimation, carried in the
        /// layout header's `cpu_count` field (normalised: a legacy `0`
        /// on the wire decodes as 1 — sample every window).
        decimation: u16,
    },
    /// One machine-window reduced to a fleet sample row.
    Row {
        /// Which machine the row describes.
        machine_id: u64,
        /// The window sequence number from the frame header.
        window_seq: u64,
        /// Machine aggregates, ready to write into a batch row through
        /// [`SampleBatch::columns_mut`](tdp_fleet::SampleBatch::columns_mut).
        row: [f64; COLUMNS],
    },
}

/// One registered wire layout.
#[derive(Debug, Clone, Copy)]
struct LayoutEntry {
    hash: u64,
    n_events: u16,
    /// Per wire event, the [`ROW_EVENTS`] lane its plane unfolds into
    /// ([`NO_SLOT`] = not read), by [`row_slots`]: a row event listed
    /// twice keeps its first occurrence only.
    slot: [u8; MAX_WIRE_EVENTS],
}

/// The registered layouts, scanned by hash. [`WireEncoder`] announces
/// one row-projected layout per PMU programming, so a fleet running one
/// programming holds one entry; re-registering a known hash replaces
/// its entry.
///
/// [`WireEncoder`]: crate::WireEncoder
#[derive(Debug, Clone, Default)]
struct LayoutTable {
    entries: Vec<LayoutEntry>,
}

impl LayoutTable {
    fn lookup(&self, hash: u64) -> Option<&LayoutEntry> {
        self.entries.iter().find(|e| e.hash == hash)
    }

    fn register(&mut self, entry: LayoutEntry) {
        match self.entries.iter_mut().find(|e| e.hash == entry.hash) {
            Some(e) => *e = entry,
            None => self.entries.push(entry),
        }
    }
}

/// Streaming frame decoder: verifies each frame, then walks it in
/// place and reduces a sample frame straight to a fleet row, with no
/// intermediate `SampleSet`. Sample frames resolve their layout through
/// the table of layout frames seen so far.
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    layouts: LayoutTable,
    /// A sample frame's f64 row lanes: the nine [`ROW_EVENTS`] planes,
    /// event-major in row order (`lanes[k · cpus + c]`), an event the
    /// layout lacks zero-filled — the shape [`fold_event_lanes`]
    /// consumes.
    lanes: Vec<f64>,
}

impl FrameDecoder {
    /// A decoder with no layouts registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one frame given its parsed header and payload slice
    /// (both still borrowed from the input buffer — nothing is copied
    /// out except the reconstructed row lanes): verify, then decode.
    /// The checksum is checked first, then the event-count bound; a
    /// layout frame is then registered, and a sample frame is walked
    /// into the row lanes through its registered layout and folded by
    /// [`fold_event_lanes`] — the arithmetic
    /// `SampleBatch::push_sample_set` applies to in-memory samples.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Checksum`] on any corruption (the checksum covers
    /// every header field and payload bit, and its verdict precedes
    /// every other), [`DecodeError::Malformed`] on a structurally
    /// invalid frame that nonetheless checksums (encoder bug),
    /// [`DecodeError::UnknownLayout`] for a sample frame whose layout
    /// was never declared.
    pub fn decode_frame(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<Decoded, DecodeError> {
        if !header.verify(payload) {
            return Err(DecodeError::Checksum);
        }
        let n = header.n_events as usize;
        if n > MAX_WIRE_EVENTS {
            return Err(DecodeError::Malformed);
        }
        if header.frame_type == FrameType::Layout {
            return self.decode_layout(header, payload);
        }
        let entry = self
            .layouts
            .lookup(header.layout_hash)
            .ok_or(DecodeError::UnknownLayout)?;
        if entry.n_events != header.n_events {
            return Err(DecodeError::Malformed);
        }
        let cpus = header.cpu_count as usize;
        decode_planes(
            payload,
            &entry.slot[..n],
            ROW_EVENTS.len(),
            cpus,
            &mut self.lanes,
        )
        .ok_or(DecodeError::Malformed)?;
        Ok(Decoded::Row {
            machine_id: header.machine_id,
            window_seq: header.window_seq,
            row: fold_event_lanes(&self.lanes, cpus),
        })
    }

    fn decode_layout(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<Decoded, DecodeError> {
        // Layout frames have no CPUs; their header's `cpu_count` field
        // carries the machine's negotiated sampling decimation instead
        // (0 = legacy every-window). An absurd value is an encoder bug
        // or corruption that slipped the checksum — reject it.
        if header.cpu_count > MAX_DECIMATION {
            return Err(DecodeError::Malformed);
        }
        let decimation = header.cpu_count.max(1);
        // Re-declaration of an already-registered hash: the checksum
        // proved this frame intact, and the hash → positions binding
        // was payload-verified when first registered, so re-parsing
        // would recompute the identical entry. Skipping it makes
        // producers that re-announce layouts (e.g. at stream joins)
        // nearly free — which matters, because a decimation change is
        // announced by re-sending the (already known) layout frame.
        if let Some(e) = self.layouts.lookup(header.layout_hash) {
            if e.n_events == header.n_events {
                return Ok(Decoded::Layout { decimation });
            }
        }
        let mut events = [0u64; MAX_WIRE_EVENTS];
        let events = &mut events[..header.n_events as usize];
        let mut pos = 0usize;
        for e in events.iter_mut() {
            *e = read_uvarint(payload, &mut pos).ok_or(DecodeError::Malformed)?;
        }
        if pos != payload.len() {
            return Err(DecodeError::Malformed);
        }
        // The payload must hash to what the header claims — otherwise
        // sample frames keyed on that hash would silently bind to the
        // wrong column mapping.
        if layout_hash_indices(events.iter().copied()) != header.layout_hash {
            return Err(DecodeError::Malformed);
        }
        let mut entry = LayoutEntry {
            hash: header.layout_hash,
            n_events: header.n_events,
            slot: [NO_SLOT; MAX_WIRE_EVENTS],
        };
        // The encoder's projection rule: a row event's first occurrence
        // gets its lane, every other plane is skipped.
        for (slot, k) in entry.slot.iter_mut().zip(row_slots(events.iter().copied())) {
            if let Some(k) = k {
                *slot = k as u8;
            }
        }
        self.layouts.register(entry);
        Ok(Decoded::Layout { decimation })
    }
}

/// One framing step over a raw byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorItem {
    /// A well-framed frame (header parsed; checksum **not** yet
    /// verified — the decoder verifies it).
    Frame {
        /// Byte offset of the frame's header in the stream.
        start: usize,
        /// The parsed header.
        header: FrameHeader,
    },
    /// Bytes skipped while hunting for the next frame boundary after a
    /// framing failure (bad magic/version/type, or a length that
    /// overruns the buffer).
    Resync {
        /// How many bytes were discarded.
        skipped: usize,
    },
}

/// Splits a byte stream into frames, resynchronising on the magic
/// number after corruption. Framing is a pure function of the buffer,
/// so every walk over the same bytes agrees on frame boundaries, even
/// around corrupt regions.
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The payload slice of a frame yielded by this cursor.
    pub fn payload(&self, start: usize, header: &FrameHeader) -> &'a [u8] {
        let p = start + HEADER_LEN;
        &self.buf[p..p + header.payload_len as usize]
    }

    /// Scans forward from `from` to the next possible magic, returning
    /// the new position (end of buffer if none).
    fn next_magic(&self, from: usize) -> usize {
        let magic = MAGIC.to_le_bytes();
        let mut i = from;
        while i + 1 < self.buf.len() {
            if self.buf[i] == magic[0] && self.buf[i + 1] == magic[1] {
                return i;
            }
            i += 1;
        }
        self.buf.len()
    }
}

impl Iterator for FrameCursor<'_> {
    type Item = CursorItem;

    fn next(&mut self) -> Option<CursorItem> {
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        let start = self.pos;
        match FrameHeader::parse(&self.buf[start..]) {
            Ok(h) => {
                let total = HEADER_LEN + h.payload_len as usize;
                if total <= remaining {
                    self.pos = start + total;
                    return Some(CursorItem::Frame { start, header: h });
                }
                // Length overruns the buffer: either truncation or a
                // corrupt length field. Hunt for the next boundary.
                self.pos = self.next_magic(start + 2);
                Some(CursorItem::Resync {
                    skipped: self.pos - start,
                })
            }
            Err(HeaderError::Truncated) => {
                self.pos = self.buf.len();
                Some(CursorItem::Resync { skipped: remaining })
            }
            Err(_) => {
                self.pos = self.next_magic(start + 2);
                Some(CursorItem::Resync {
                    skipped: self.pos - start,
                })
            }
        }
    }
}

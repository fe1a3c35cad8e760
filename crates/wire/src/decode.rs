//! Zero-copy frame decoding straight into fleet sample rows.
//!
//! [`FrameDecoder`] never materialises an intermediate `SampleSet` or
//! `SystemSample`: it walks a sample frame in place, decoding it
//! straight into the nine f64 row lanes (see [`crate::planar`]) that
//! [`tdp_fleet::fold_event_lanes`] folds with the *same* arithmetic
//! `SampleBatch::push_sample_set` applies to in-memory samples, which
//! is what makes wire ingestion bit-identical to in-memory ingestion by
//! construction. In the steady state (layouts already registered,
//! lane buffer sized) a decode performs no allocation.
//!
//! Layouts are resolved through a memo table, keyed on the header's
//! `layout_hash`: a layout frame registers, once, the row lane each
//! wire event's plane unfolds into ([`row_slots`]: the first
//! occurrence of each of the nine [`ROW_EVENTS`], the same rule the
//! encoder projects sets with), and every
//! subsequent sample frame with that hash reuses the memoised map (a
//! one-entry hot cache makes the common single-layout fleet a single
//! comparison). A sample frame whose hash was never declared is
//! reported as [`DecodeError::UnknownLayout`], never guessed at — and
//! because the map is keyed on the *hash of the full ordered list*,
//! a mid-stream PMU reprogramming (reordered or extended event list)
//! can never misattribute columns.

use crate::frame::{
    FrameHeader, FrameType, HeaderError, PayloadChecksum, HEADER_LEN, MAGIC, MAX_DECIMATION,
    MAX_WIRE_EVENTS,
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
        /// Machine aggregates, ready for
        /// [`SampleBatch::push_row`](tdp_fleet::SampleBatch::push_row) /
        /// [`set_row`](tdp_fleet::SampleBatch::set_row).
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

/// Memoised `layout_hash → column positions` mapping.
///
/// Fleets overwhelmingly run one PMU programming, so lookups check a
/// hot index first; the fallback is a linear scan (distinct layouts per
/// stream are few — re-registration of a known hash is free).
#[derive(Debug, Clone, Default)]
struct LayoutTable {
    entries: Vec<LayoutEntry>,
    hot: usize,
}

impl LayoutTable {
    fn lookup(&mut self, hash: u64) -> Option<&LayoutEntry> {
        if let Some(e) = self.entries.get(self.hot) {
            if e.hash == hash {
                return self.entries.get(self.hot);
            }
        }
        let i = self.entries.iter().position(|e| e.hash == hash)?;
        self.hot = i;
        self.entries.get(i)
    }

    fn register(&mut self, entry: LayoutEntry) {
        if let Some(i) = self.entries.iter().position(|e| e.hash == entry.hash) {
            self.entries[i] = entry;
            self.hot = i;
        } else {
            self.hot = self.entries.len();
            self.entries.push(entry);
        }
    }
}

/// Streaming frame decoder: walks each frame in place and reduces a
/// sample frame straight to a fleet row, with no intermediate
/// `SampleSet`. Sample frames resolve their layout through the
/// memo table of layout frames seen so far.
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
    /// out except the reconstructed row lanes).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Checksum`] on any corruption (the checksum covers
    /// every header field and payload bit), [`DecodeError::Malformed`]
    /// on a structurally invalid frame that nonetheless checksums
    /// (encoder bug), [`DecodeError::UnknownLayout`] for a sample frame
    /// whose layout was never declared.
    pub fn decode_frame(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<Decoded, DecodeError> {
        match header.frame_type {
            FrameType::Layout => {
                if !header.verify(payload) {
                    return Err(DecodeError::Checksum);
                }
                if header.n_events as usize > MAX_WIRE_EVENTS {
                    return Err(DecodeError::Malformed);
                }
                self.decode_layout(header, payload)
            }
            // Sample frames absorb the checksum behind the payload walk
            // (the hot path — see `decode_sample_pending`); the checksum
            // verdict still takes precedence over every structural one,
            // exactly as the layout arm orders them.
            FrameType::Sample => {
                let pending = self.decode_sample_pending(header, payload)?;
                Ok(Decoded::Row {
                    machine_id: pending.machine_id,
                    window_seq: pending.window_seq,
                    row: self.fold_row(&pending),
                })
            }
        }
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

    /// Decodes a sample frame up to (but not including) the row
    /// reduction: layout lookup, then the single payload walk into the
    /// decoder's row lanes (see [`crate::planar`]). The caller folds the
    /// lanes with [`fold_row`](Self::fold_row) before the next decode
    /// reuses them — or, for a duplicate or out-of-range frame, never.
    ///
    /// The checksum is *always* computed over the full payload (the
    /// walk absorbs what it accepted, [`PayloadChecksum::finish`] the
    /// rest) and checked first, so a corrupt frame reports
    /// [`DecodeError::Checksum`] no matter how it is corrupt, and only
    /// a frame that checksums can report a structural error.
    pub(crate) fn decode_sample_pending(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<PendingSample, DecodeError> {
        let mut ck = PayloadChecksum::new(header);
        let scanned = resolve_layout(&mut self.layouts, header).and_then(|entry| {
            decode_planes(
                payload,
                &entry.slot[..header.n_events as usize],
                ROW_EVENTS.len(),
                header.cpu_count as usize,
                &mut self.lanes,
                &mut ck,
            )
            .ok_or(DecodeError::Malformed)
        });
        if header.checksum != ck.finish(payload) {
            return Err(DecodeError::Checksum);
        }
        scanned?;
        Ok(PendingSample {
            machine_id: header.machine_id,
            window_seq: header.window_seq,
            cpus: header.cpu_count as usize,
        })
    }

    /// Reduces a pending sample's row lanes to one fleet row through
    /// [`fold_event_lanes`] — the arithmetic `SampleBatch::push_sample_set`
    /// applies to in-memory samples (its widening and missing-event
    /// mapping are bit-identical to the `Option<u64>` reference path —
    /// see its docs).
    pub(crate) fn fold_row(&self, p: &PendingSample) -> [f64; COLUMNS] {
        fold_event_lanes(&self.lanes, p.cpus)
    }
}

/// The layout a sample frame's header names, checked against the
/// header's event count.
fn resolve_layout<'a>(
    layouts: &'a mut LayoutTable,
    header: &FrameHeader,
) -> Result<&'a LayoutEntry, DecodeError> {
    if header.n_events as usize > MAX_WIRE_EVENTS {
        return Err(DecodeError::Malformed);
    }
    let entry = layouts
        .lookup(header.layout_hash)
        .ok_or(DecodeError::UnknownLayout)?;
    if entry.n_events != header.n_events {
        return Err(DecodeError::Malformed);
    }
    Ok(entry)
}

/// A sample frame that decoded cleanly (checksummed, unfolded into the
/// decoder's row lanes) but has not yet been reduced to a fleet row —
/// the handle [`FrameDecoder::fold_row`] consumes. Valid only until
/// the decoder's next sample decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSample {
    /// Which machine the frame describes.
    pub machine_id: u64,
    /// The window sequence number from the frame header.
    pub window_seq: u64,
    cpus: usize,
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

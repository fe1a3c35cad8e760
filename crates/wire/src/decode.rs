//! Zero-copy frame decoding straight into fleet sample rows.
//!
//! [`FrameDecoder`] never materialises an intermediate `SampleSet` or
//! `SystemSample`: it walks a frame in place. A varint frame's counts
//! are reconstructed row-major in one reused scratch buffer and
//! gathered through [`tdp_fleet::RowAccumulator`]; a planar frame is
//! decoded straight into the nine f64 row lanes and folded by
//! [`tdp_fleet::fold_event_lanes`]. Both apply the *same* arithmetic
//! `SampleBatch::push_sample_set` applies to in-memory samples, which
//! is what makes wire ingestion bit-identical to in-memory ingestion by
//! construction. In the steady state (layouts already registered,
//! scratch sized) a decode performs no allocation.
//!
//! Layouts are resolved through [`LayoutTable`], keyed on the header's
//! `layout_hash`: a layout frame registers the positions of the nine
//! [`ROW_EVENTS`] within the wire event list once — and their inverse,
//! the row lane each wire event's planar plane unfolds into — and every
//! subsequent sample frame with that hash reuses the memoised maps (a
//! one-entry hot cache makes the common single-layout fleet a single
//! comparison). A sample frame whose hash was never declared is
//! reported as [`DecodeError::UnknownLayout`], never guessed at — and
//! because positions are keyed on the *hash of the full ordered list*,
//! a mid-stream PMU reprogramming (reordered or extended event list)
//! can never misattribute columns.

use crate::frame::{
    FrameHeader, FrameType, HeaderError, PayloadChecksum, HEADER_LEN, MAGIC, MAX_DECIMATION,
    MAX_WIRE_EVENTS,
};
use crate::planar::{decode_planes, NO_SLOT};
use crate::varint::{read_uvarint, read_uvarints_ck, unzigzag};
use tdp_counters::layout_hash_indices;
use tdp_fleet::{fold_event_lanes, RowAccumulator, COLUMNS, ROW_EVENTS};
use tdp_simd::Dispatch;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Stored checksum does not match header + payload.
    Checksum,
    /// A layout frame whose payload hashes differently than its header
    /// claims, or varints that overrun the payload, or out-of-bounds
    /// counts of events/CPUs.
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

/// One registered wire layout: where each of the nine [`ROW_EVENTS`]
/// sits in the wire event list, and the inverse map.
#[derive(Debug, Clone, Copy)]
struct LayoutEntry {
    hash: u64,
    n_events: u16,
    /// Per row event, its wire event index (`u16::MAX` = absent) — the
    /// varint gather's positions.
    pos: [u16; ROW_EVENTS.len()],
    /// Per wire event, the row lane its planar plane unfolds into
    /// ([`NO_SLOT`] = not read): the inverse of `pos`, so a row event
    /// listed twice keeps its first occurrence only.
    slot: [u8; MAX_WIRE_EVENTS],
}

/// Memoised `layout_hash → column positions` mapping.
///
/// Fleets overwhelmingly run one PMU programming, so lookups check a
/// hot index first; the fallback is a linear scan (distinct layouts per
/// stream are few — re-registration of a known hash is free).
#[derive(Debug, Clone, Default)]
pub struct LayoutTable {
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

    /// Registered layouts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no layout has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Streaming frame decoder: walks each frame in place and reduces a
/// sample frame straight to a fleet row, with no intermediate
/// `SampleSet`. Sample frames resolve their layout through the
/// [`LayoutTable`] of layout frames seen so far.
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    layouts: LayoutTable,
    /// Scratch for a varint frame's reconstructed counts, row-major
    /// (`cpu_count × n_events`); the delta chain unfolds in place.
    cur: Vec<u64>,
    /// A planar frame's f64 row lanes: the nine [`ROW_EVENTS`] planes,
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

    /// The layouts registered so far.
    pub fn layouts(&self) -> &LayoutTable {
        &self.layouts
    }

    /// Decodes one frame given its parsed header and payload slice
    /// (both still borrowed from the input buffer — nothing is copied
    /// out except the reconstructed counts).
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
            // Sample frames (either encoding) fuse verification into
            // the payload walk (the hot path — see
            // `decode_sample_pending`); the checksum verdict still
            // takes precedence over every structural one, exactly as
            // the layout arm orders them.
            FrameType::Sample | FrameType::PlanarSample => {
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
        let n = header.n_events as usize;
        self.cur.clear();
        let mut pos = 0usize;
        for _ in 0..n {
            self.cur
                .push(read_uvarint(payload, &mut pos).ok_or(DecodeError::Malformed)?);
        }
        if pos != payload.len() {
            return Err(DecodeError::Malformed);
        }
        // The payload must hash to what the header claims — otherwise
        // sample frames keyed on that hash would silently bind to the
        // wrong column mapping.
        if layout_hash_indices(self.cur.iter().copied()) != header.layout_hash {
            return Err(DecodeError::Malformed);
        }
        let mut entry = LayoutEntry {
            hash: header.layout_hash,
            n_events: header.n_events,
            pos: [u16::MAX; ROW_EVENTS.len()],
            slot: [NO_SLOT; MAX_WIRE_EVENTS],
        };
        for (k, e) in ROW_EVENTS.iter().enumerate() {
            // First occurrence wins, matching the in-memory rescan rule.
            if let Some(i) = self.cur.iter().position(|&i| i == e.index() as u64) {
                entry.pos[k] = i as u16;
                entry.slot[i] = k as u8;
            }
        }
        self.layouts.register(entry);
        Ok(Decoded::Layout { decimation })
    }

    /// Decodes a sample frame up to (but not including) the row
    /// reduction: checksum verification fused into the varint walk,
    /// delta chain unfolded in the decoder's scratch. The caller folds
    /// the counts with [`fold_row`](Self::fold_row) (a row array, as
    /// [`decode_frame`](Self::decode_frame) returns) or
    /// [`fold_into`](Self::fold_into) (serial fused ingest, straight
    /// into the batch's columns) — the fold must happen before the next
    /// decode reuses the scratch.
    ///
    /// Error precedence is identical to the historical two-pass decode:
    /// the checksum is *always* computed over the full payload (the
    /// walk absorbs what it reads, [`PayloadChecksum::finish`] the
    /// rest) and checked first, so a corrupt frame reports
    /// [`DecodeError::Checksum`] no matter how it is corrupt, and only
    /// a frame that checksums can report a structural error.
    pub(crate) fn decode_sample_pending(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
    ) -> Result<PendingSample, DecodeError> {
        let planar = header.frame_type == FrameType::PlanarSample;
        let mut ck = PayloadChecksum::new(header);
        let scanned = if planar {
            self.scan_planar(header, payload, &mut ck)
        } else {
            self.scan_sample(header, payload, &mut ck)
        };
        if header.checksum != ck.finish(payload) {
            return Err(DecodeError::Checksum);
        }
        let pos = scanned?;
        let n = header.n_events as usize;
        let cpus = header.cpu_count as usize;
        if !planar {
            // The varint path's delta chain unfolds row over row in
            // place — integer-exact, so dispatch flavour cannot change
            // a single reconstructed count. (The planar path already
            // unfolded its planes during the scan.)
            for cpu in 1..cpus {
                let (done, rest) = self.cur.split_at_mut(cpu * n);
                let prev = &done[(cpu - 1) * n..];
                for (c, &p) in rest[..n].iter_mut().zip(prev) {
                    *c = p.wrapping_add(unzigzag(*c) as u64);
                }
            }
        }
        Ok(PendingSample {
            machine_id: header.machine_id,
            window_seq: header.window_seq,
            n_events: n,
            pos,
            cpus,
            planar,
        })
    }

    /// The structural half of a planar sample decode: layout lookup,
    /// geometry checks, and the fused single-pass decode projected
    /// into the f64 row lanes (see [`crate::planar`]). Same contract
    /// as [`scan_sample`](Self::scan_sample): whatever this returns,
    /// the caller finishes the checksum and gives its verdict
    /// precedence.
    fn scan_planar(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
        ck: &mut PayloadChecksum,
    ) -> Result<[u16; ROW_EVENTS.len()], DecodeError> {
        let entry = resolve_layout(&mut self.layouts, header)?;
        decode_planes(
            payload,
            &entry.slot[..header.n_events as usize],
            ROW_EVENTS.len(),
            header.cpu_count as usize,
            &mut self.lanes,
            ck,
        )
        .ok_or(DecodeError::Malformed)?;
        Ok(entry.pos)
    }

    /// The structural half of a sample decode: layout lookup, geometry
    /// checks, and the checksum-fused bulk varint walk into the scratch
    /// buffer. Whatever this returns, the caller finishes the checksum
    /// and gives its verdict precedence.
    fn scan_sample(
        &mut self,
        header: &FrameHeader,
        payload: &[u8],
        ck: &mut PayloadChecksum,
    ) -> Result<[u16; ROW_EVENTS.len()], DecodeError> {
        let row_pos = resolve_layout(&mut self.layouts, header)?.pos;
        let n = header.n_events as usize;
        let cpus = header.cpu_count as usize;
        let total = n * cpus;
        // Every varint is at least one byte, so a payload shorter than
        // the count cannot parse — and refusing it here keeps a corrupt
        // header's geometry from growing the scratch buffer.
        if total > payload.len() {
            return Err(DecodeError::Malformed);
        }
        // The scratch contents never leak between frames — the bulk
        // decode overwrites every entry — so resizing only on a frame
        // geometry change spares the steady state a memset per frame.
        if self.cur.len() != total {
            self.cur.clear();
            self.cur.resize(total, 0);
        }
        // Every varint of the frame in one bulk decode: the batched
        // decoder's 8-byte windows run straight across CPU-row
        // boundaries instead of discarding a partially consumed word at
        // each row, and the checksum absorbs each window as the walk
        // passes it — one read of the payload for both.
        let mut pos = 0usize;
        read_uvarints_ck(Dispatch::active(), payload, &mut pos, &mut self.cur, ck)
            .ok_or(DecodeError::Malformed)?;
        if pos != payload.len() {
            return Err(DecodeError::Malformed);
        }
        Ok(row_pos)
    }

    /// Reduces a pending sample's reconstructed counts to one fleet
    /// row — the arithmetic `SampleBatch::push_sample_set` applies to
    /// in-memory samples. Planar frames fold their f64 row lanes
    /// through [`fold_event_lanes`] (whose widening and missing-event
    /// mapping are bit-identical to the `Option<u64>` reference path —
    /// see its docs); varint frames gather through the same
    /// [`RowAccumulator`] as always.
    pub(crate) fn fold_row(&self, p: &PendingSample) -> [f64; COLUMNS] {
        if p.planar {
            return fold_event_lanes(Dispatch::active(), &self.lanes, p.cpus);
        }
        let mut acc = RowAccumulator::new(p.cpus);
        self.accumulate(p, &mut acc);
        acc.finish()
    }

    /// [`fold_row`](Self::fold_row) writing straight into a batch's
    /// column slices at `idx` — the serial fused path, which skips the
    /// intermediate row copy through `set_row`.
    pub(crate) fn fold_into(
        &self,
        p: &PendingSample,
        cols: &mut [&mut [f64]; COLUMNS],
        idx: usize,
    ) {
        if p.planar {
            let row = fold_event_lanes(Dispatch::active(), &self.lanes, p.cpus);
            for (c, v) in cols.iter_mut().zip(row) {
                c[idx] = v;
            }
            return;
        }
        let mut acc = RowAccumulator::new(p.cpus);
        self.accumulate(p, &mut acc);
        acc.finish_into(cols, idx);
    }

    /// The varint-frame reduction over the row-major scratch.
    fn accumulate(&self, p: &PendingSample, acc: &mut RowAccumulator) {
        let n = p.n_events;
        for cpu in 0..p.cpus {
            let row = &self.cur[cpu * n..(cpu + 1) * n];
            // The absent-event sentinel (`u16::MAX`) is out of bounds
            // by construction, so one bounds-checked `get` folds the
            // presence test and the lookup into a single branch.
            acc.accumulate_cpu(std::array::from_fn(|k| row.get(p.pos[k] as usize).copied()));
        }
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

/// A sample frame that decoded cleanly (checksummed, delta-unfolded in
/// the decoder's scratch) but has not yet been reduced to a fleet row —
/// the handle [`FrameDecoder::fold_row`] / [`FrameDecoder::fold_into`]
/// consume. Valid only until the decoder's next sample decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSample {
    /// Which machine the frame describes.
    pub machine_id: u64,
    /// The window sequence number from the frame header.
    pub window_seq: u64,
    n_events: usize,
    /// The layout's row-event positions, for the varint gather.
    pos: [u16; ROW_EVENTS.len()],
    cpus: usize,
    /// Whether the decode landed in the f64 row lanes (planar frames)
    /// rather than the row-major u64 scratch (varint).
    planar: bool,
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

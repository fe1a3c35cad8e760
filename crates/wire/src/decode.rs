//! Zero-copy frame decoding straight into fleet sample rows.
//!
//! [`FrameDecoder::decode_frame`] is the one decode, and it verifies,
//! then decodes: the frame checksum is checked first, over the whole
//! body, so a corrupt frame reports [`DecodeError::Checksum`] whatever
//! it names, and only a frame that checksums has its fields parsed. A
//! sample frame is then walked in place, straight into the nine f64 row
//! lanes (see [`crate::planar`]) that [`tdp_fleet::fold_event_lanes`]
//! folds with the *same* arithmetic `SampleBatch::push_sample_set`
//! applies to in-memory samples, which is what makes wire ingestion
//! bit-identical to in-memory ingestion by construction. No
//! intermediate `SampleSet` or `SystemSample` is built, and in the
//! steady state (every machine bound, lane buffer sized) a decode
//! performs no allocation.
//!
//! Layouts are resolved per machine. The decoder keeps one **binding**
//! per machine index, dense and grown to the largest fleet it was sized
//! for ([`FrameDecoder::grow_machines`]), never shrunk: a layout frame
//! binds its machine to the layout's CPU count, its sampling decimation
//! and its row slots
//! ([`row_slots`]: the first occurrence of each of the nine
//! [`ROW_EVENTS`], the same rule the encoder projects sets with) under
//! the frame's epoch, and a sample frame decodes only if its machine's
//! binding carries the frame's epoch. A sample frame of a machine never
//! bound, or bound under another epoch, is reported as
//! [`DecodeError::UnknownLayout`], never decoded against an older
//! layout — so a mid-stream PMU reprogramming whose announcement was
//! lost cannot misattribute columns. Machines running the same layout
//! share one slot table, so the per-frame lookup is one bounds-checked
//! index and one small, shared table, and a table no binding uses is
//! reclaimed, so there are never more tables than bound machines.

use crate::frame::{
    BodyHead, FrameHeader, FrameType, HeaderError, MAGIC, MAX_DECIMATION, MAX_WIRE_CPUS,
    MAX_WIRE_EVENTS,
};
use crate::planar::{decode_planes, NO_SLOT};
use crate::varint::read_uvarint;
use tdp_fleet::{fold_event_lanes, row_slots, COLUMNS, ROW_EVENTS};

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Stored checksum does not match the body.
    Checksum,
    /// A body that disagrees with its own structure, or out-of-bounds
    /// counts of events, CPUs or decimation.
    Malformed,
    /// A sample frame whose machine has no layout bound under the
    /// frame's epoch.
    UnknownLayout,
    /// A sample frame of a machine past the decoder's bindings (see
    /// [`FrameDecoder::grow_machines`]).
    OutOfRange,
}

/// A successfully decoded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decoded {
    /// A layout frame; its machine is now bound to it, if the machine
    /// is within the decoder's bindings.
    Layout {
        /// Which machine the layout describes.
        machine_id: u64,
    },
    /// One machine-window reduced to a fleet sample row.
    Row {
        /// Which machine the row describes.
        machine_id: u64,
        /// The window sequence number from the frame.
        window_seq: u64,
        /// Machine aggregates, ready to write into a batch row through
        /// [`SampleBatch::columns_mut`](tdp_fleet::SampleBatch::columns_mut).
        row: [f64; COLUMNS],
    },
}

/// The row slots of one registered layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotTable {
    n_events: u8,
    /// Per wire event, the [`ROW_EVENTS`] lane its plane unfolds into
    /// ([`NO_SLOT`] = not read), by [`row_slots`]: a row event listed
    /// twice keeps its first occurrence only.
    slot: [u8; MAX_WIRE_EVENTS],
}

/// What a machine's last layout frame declared.
#[derive(Debug, Clone, Copy, Default)]
struct Binding {
    /// Index of the machine's [`SlotTable`] (`None` = never bound).
    table: Option<u32>,
    cpus: u16,
    /// The negotiated sampling decimation (≥ 1 once bound).
    decimation: u16,
    epoch: u8,
}

/// Streaming frame decoder: verifies each frame, then walks it in
/// place and reduces a sample frame straight to a fleet row, with no
/// intermediate `SampleSet`. Sample frames resolve their layout through
/// their machine's binding, set by its last layout frame.
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    /// Per machine index, its binding.
    bindings: Vec<Binding>,
    /// The distinct slot tables, shared across machines. A table no
    /// binding refers to any more is overwritten by the next new one,
    /// so there are never more tables than bound machines.
    tables: Vec<SlotTable>,
    /// Per table, how many bindings refer to it.
    users: Vec<u32>,
    /// A sample frame's f64 row lanes: the nine [`ROW_EVENTS`] planes,
    /// event-major in row order (`lanes[k · cpus + c]`), an event the
    /// layout lacks zero-filled — the shape [`fold_event_lanes`]
    /// consumes.
    lanes: Vec<f64>,
}

impl FrameDecoder {
    /// A decoder with no machine bindings: grow them with
    /// [`grow_machines`](Self::grow_machines) before decoding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extends the bindings to machines `0..machines` if they cover
    /// fewer; never shrinks them, so a machine that leaves a smaller
    /// fleet and comes back keeps its layout.
    pub fn grow_machines(&mut self, machines: usize) {
        if machines > self.bindings.len() {
            self.bindings.resize(machines, Binding::default());
        }
    }

    /// Machine `m`'s negotiated sampling decimation, as its last layout
    /// frame declared it (1 for a machine never bound).
    pub(crate) fn decimation(&self, m: usize) -> u64 {
        self.bindings
            .get(m)
            .map_or(1, |b| u64::from(b.decimation.max(1)))
    }

    /// Decodes one frame given its parsed header and body slice (both
    /// still borrowed from the input buffer — nothing is copied out
    /// except the reconstructed row lanes): verify, then decode. The
    /// checksum is checked first, then the body's fields are parsed; a
    /// layout frame then binds its machine, and a sample frame is
    /// walked into the row lanes through its machine's binding and
    /// folded by [`fold_event_lanes`] — the arithmetic
    /// `SampleBatch::push_sample_set` applies to in-memory samples.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Checksum`] on any corruption (the checksum covers
    /// the frame type, the length and every body bit, and its verdict
    /// precedes every other), [`DecodeError::Malformed`] on a
    /// structurally invalid frame that nonetheless checksums (encoder
    /// bug), [`DecodeError::OutOfRange`] for a sample frame of a
    /// machine past the bindings, and [`DecodeError::UnknownLayout`]
    /// for one whose machine has no layout bound under its epoch.
    pub fn decode_frame(
        &mut self,
        header: &FrameHeader,
        body: &[u8],
    ) -> Result<Decoded, DecodeError> {
        if !header.verify(body) {
            return Err(DecodeError::Checksum);
        }
        let (head, payload) = BodyHead::read(body).ok_or(DecodeError::Malformed)?;
        let n = usize::from(head.n_events);
        if n > MAX_WIRE_EVENTS {
            return Err(DecodeError::Malformed);
        }
        if header.frame_type == FrameType::Layout {
            return self.decode_layout(&head, payload);
        }
        let binding = *usize::try_from(head.machine_id)
            .ok()
            .and_then(|m| self.bindings.get(m))
            .ok_or(DecodeError::OutOfRange)?;
        let table = match binding.table {
            Some(t) if binding.epoch == head.epoch => &self.tables[t as usize],
            _ => return Err(DecodeError::UnknownLayout),
        };
        if table.n_events != head.n_events {
            return Err(DecodeError::Malformed);
        }
        let cpus = usize::from(binding.cpus);
        decode_planes(
            payload,
            &table.slot[..n],
            ROW_EVENTS.len(),
            cpus,
            &mut self.lanes,
        )
        .ok_or(DecodeError::Malformed)?;
        Ok(Decoded::Row {
            machine_id: head.machine_id,
            window_seq: head.window_seq,
            row: fold_event_lanes(&self.lanes, cpus),
        })
    }

    /// Parses a layout payload — CPU count, decimation, then
    /// `n_events` event indices — and binds the machine to it.
    fn decode_layout(&mut self, head: &BodyHead, payload: &[u8]) -> Result<Decoded, DecodeError> {
        let mut pos = 0usize;
        let mut field = || read_uvarint(payload, &mut pos).ok_or(DecodeError::Malformed);
        let cpus = field()?;
        let decimation = field()?;
        let mut events = [0u64; MAX_WIRE_EVENTS];
        let events = &mut events[..usize::from(head.n_events)];
        for e in events.iter_mut() {
            *e = field()?;
        }
        if pos != payload.len()
            || cpus > MAX_WIRE_CPUS as u64
            || !(1..=u64::from(MAX_DECIMATION)).contains(&decimation)
        {
            return Err(DecodeError::Malformed);
        }
        let mut table = SlotTable {
            n_events: head.n_events,
            slot: [NO_SLOT; MAX_WIRE_EVENTS],
        };
        // The encoder's projection rule: a row event's first occurrence
        // gets its lane, every other plane is skipped.
        for (slot, k) in table.slot.iter_mut().zip(row_slots(events.iter().copied())) {
            if let Some(k) = k {
                *slot = k as u8;
            }
        }
        let binding = usize::try_from(head.machine_id)
            .ok()
            .and_then(|m| self.bindings.get_mut(m));
        if let Some(binding) = binding {
            if let Some(old) = binding.table {
                self.users[old as usize] -= 1;
            }
            // The same table if one is bound, else one no binding uses,
            // else a new one.
            let t = self
                .tables
                .iter()
                .position(|t| *t == table)
                .or_else(|| self.users.iter().position(|&u| u == 0))
                .unwrap_or_else(|| {
                    self.tables.push(table);
                    self.users.push(0);
                    self.tables.len() - 1
                });
            self.tables[t] = table;
            self.users[t] += 1;
            *binding = Binding {
                table: Some(t as u32),
                cpus: cpus as u16,
                decimation: decimation as u16,
                epoch: head.epoch,
            };
        }
        Ok(Decoded::Layout {
            machine_id: head.machine_id,
        })
    }
}

/// One framing step over a raw byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorItem {
    /// A well-framed frame (header parsed; checksum **not** yet
    /// verified and body not parsed — the decoder does both).
    Frame {
        /// Byte offset of the frame's header in the stream.
        start: usize,
        /// The parsed header.
        header: FrameHeader,
    },
    /// Bytes skipped while hunting for the next frame boundary after a
    /// framing failure (bad magic/version/type or length, or a length
    /// that overruns the buffer).
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

    /// The body of a frame yielded by this cursor.
    pub fn body(&self, start: usize, header: &FrameHeader) -> &'a [u8] {
        &self.buf[start + header.header_len()..start + header.frame_len()]
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
                let total = h.frame_len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_layout_frame, encode_sample_frame};
    use tdp_counters::{PerfEvent, SampleSet};
    use tdp_fleet::SampleBatch;

    /// Decodes every frame of `buf`, in order.
    fn decode_all(dec: &mut FrameDecoder, buf: &[u8]) -> Vec<Result<Decoded, DecodeError>> {
        let mut cursor = FrameCursor::new(buf);
        let mut out = Vec::new();
        while let Some(item) = cursor.next() {
            let CursorItem::Frame { start, header } = item else {
                panic!("clean stream resynced: {item:?}");
            };
            out.push(dec.decode_frame(&header, cursor.body(start, &header)));
        }
        out
    }

    /// A 2-CPU set over `events`, every count distinct.
    fn set_over(events: &[PerfEvent]) -> SampleSet {
        let mut set = SampleSet::empty();
        for (i, n) in set.reset(events.iter().copied(), 2).iter_mut().enumerate() {
            *n = 1_000_000 + 7_919 * i as u64;
        }
        set
    }

    /// The `i`-th ordering of the row events, distinct for `i < 9!`:
    /// `i` read as mixed-radix digits, each picking one of the events
    /// left.
    fn ordering(mut i: usize) -> Vec<PerfEvent> {
        let mut pool = ROW_EVENTS.to_vec();
        let mut out = Vec::new();
        while !pool.is_empty() {
            let n = pool.len();
            out.push(pool.remove(i % n));
            i /= n;
        }
        out
    }

    #[test]
    fn slot_tables_never_outnumber_the_bound_machines() {
        // Machine 0 is re-announced 2,000 times over 450 distinct
        // layouts while machines 1–3 share one: a table no binding uses
        // is reclaimed, and every machine still decodes its rows.
        let mut dec = FrameDecoder::new();
        dec.grow_machines(4);
        let mut buf = Vec::new();
        for m in 1..4 {
            encode_layout_frame(&mut buf, m, 0, &set_over(&ROW_EVENTS)).unwrap();
        }
        assert!(decode_all(&mut dec, &buf).iter().all(Result::is_ok));
        let mut layout = Vec::new();
        for i in 0..2_000 {
            layout = ordering(i % 450);
            buf.clear();
            encode_layout_frame(&mut buf, 0, 0, &set_over(&layout)).unwrap();
            let decoded = decode_all(&mut dec, &buf);
            assert_eq!(decoded, [Ok(Decoded::Layout { machine_id: 0 })]);
            assert!(
                dec.tables.len() <= 4,
                "layout {i}: {} tables",
                dec.tables.len()
            );
        }
        assert_eq!(dec.tables.len(), 2, "machine 0's table and the shared one");
        for m in 0..4u64 {
            let set = set_over(if m == 0 { &layout } else { &ROW_EVENTS });
            buf.clear();
            encode_sample_frame(&mut buf, m, 0, &set).unwrap();
            let mut batch = SampleBatch::new();
            batch.push_sample_set(&set);
            let want = batch.columns().map(|c| c[0].to_bits());
            match decode_all(&mut dec, &buf)[..] {
                [Ok(Decoded::Row {
                    machine_id, row, ..
                })] => {
                    assert_eq!(machine_id, m);
                    assert_eq!(row.map(f64::to_bits), want, "machine {m}");
                }
                ref other => panic!("machine {m}: {other:?}"),
            }
        }
    }
}

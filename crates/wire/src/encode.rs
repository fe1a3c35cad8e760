//! Frame encoding: [`SampleSet`]s → wire bytes.
//!
//! [`WireEncoder`] is the stateful producer side: it interleaves a
//! layout frame whenever a machine's PMU programming, CPU count or
//! negotiated decimation changes (including the first time it is
//! seen), so a
//! stream is always self-describing, and emits one sample frame per
//! pushed window. The stateless [`encode_layout_frame`] /
//! [`encode_sample_frame`] building blocks encode exactly the layout
//! they are given; they are public for tests and custom producers.
//!
//! The producer runs on every monitored machine, every window, so a
//! push does each piece of work once:
//!
//! * **Row projection.** The fleet row reads nine events
//!   ([`ROW_EVENTS`](tdp_fleet::ROW_EVENTS)), and no consumer of the
//!   wire reads any other: the decoder yields rows, never a
//!   `SampleSet`. So a pushed set ships only the planes
//!   [`row_slots`] gives a lane — each row event's first occurrence, in
//!   the set's own order — and its layout frame declares only those
//!   events. A simulated machine programs all eighteen events (the
//!   calibration captures and the §3.3 event search read the rest), so
//!   this halves its frames. The projection is recomputed only when the
//!   set's layout differs from the last one pushed.
//! * **One agent map.** Per machine, one entry holds what was last
//!   announced — the projected layout's hash, the CPU count, the
//!   decimation and the layout epoch — and the decimation the control
//!   loop wants, keyed through a multiplicative hasher (machine ids are
//!   the producer's own, so SipHash's flood resistance buys nothing).
//!   A push is one map lookup; a new hash or CPU count moves the
//!   machine to its next epoch, and a new decimation alone re-announces
//!   under the same one.
//! * **One gather pass.** [`SampleSet`] holds one layout for all its
//!   CPUs and stores each event's counts across CPUs contiguously, so a
//!   frame turns each plane into zigzag deltas and their OR in one pass
//!   over contiguous lanes; the OR and the plane's nonzero lanes pick its
//!   code. There is no per-CPU layout to check: a set whose CPUs
//!   disagree cannot be built. The scratch lives in the encoder and is
//!   reused, so a steady-state push allocates only as the output buffer
//!   grows.
//! * **One write pass.** The payload is sized once from the directory,
//!   then every plane is written by its code — the mirror of the
//!   decoder's plane walk.
//!
//! Frames are byte-identical to the per-lane encoder `planar`'s tests
//! keep as an oracle, run on the projected set.

use crate::frame::{
    write_frame, BodyHead, FrameType, MAX_DECIMATION, MAX_WIRE_CPUS, MAX_WIRE_EVENTS,
};
use crate::planar::PlanarScratch;
use crate::varint::put_uvarint;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tdp_counters::{layout_hash, PerfEvent, SampleSet};
use tdp_fleet::row_slots;

/// Why a sample set could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// More events per CPU than [`MAX_WIRE_EVENTS`] or more CPUs than
    /// [`MAX_WIRE_CPUS`] — outside the format's bounds.
    OutOfBounds,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::OutOfBounds => write!(f, "layout exceeds wire format bounds"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Appends one layout frame for `machine_id` declaring `set`'s events
/// and CPU count under `epoch`, at decimation 1.
///
/// # Errors
///
/// [`EncodeError::OutOfBounds`] if the layout or CPU count exceeds the
/// format's bounds. Nothing is appended on error.
pub fn encode_layout_frame(
    out: &mut Vec<u8>,
    machine_id: u64,
    epoch: u8,
    set: &SampleSet,
) -> Result<(), EncodeError> {
    let head = BodyHead {
        machine_id,
        window_seq: set.seq,
        epoch,
        n_events: 0,
    };
    layout_frame(out, head, set.events(), set.num_cpus(), 1)
}

/// The layout frame declaring `events` on `cpus` CPUs at `decimation`;
/// `head` supplies all but its event count.
fn layout_frame(
    out: &mut Vec<u8>,
    mut head: BodyHead,
    events: &[PerfEvent],
    cpus: usize,
    decimation: u16,
) -> Result<(), EncodeError> {
    if events.len() > MAX_WIRE_EVENTS || cpus > MAX_WIRE_CPUS {
        return Err(EncodeError::OutOfBounds);
    }
    head.n_events = events.len() as u8;
    write_frame(out, FrameType::Layout, &head, |buf| {
        put_uvarint(buf, cpus as u64);
        put_uvarint(buf, u64::from(decimation));
        for e in events {
            put_uvarint(buf, e.index() as u64);
        }
    });
    Ok(())
}

/// Appends one sample frame for `machine_id` under layout `epoch`,
/// encoding every CPU's counts against the layout all CPUs of the set
/// share, in the payload of [`crate::planar`].
///
/// # Errors
///
/// [`EncodeError::OutOfBounds`] if the layout or CPU count exceeds the
/// format's bounds. Nothing is appended on error.
pub fn encode_sample_frame(
    out: &mut Vec<u8>,
    machine_id: u64,
    epoch: u8,
    set: &SampleSet,
) -> Result<(), EncodeError> {
    let planes = 0..set.events().len();
    sample_frame(
        out,
        machine_id,
        epoch,
        set,
        planes,
        &mut PlanarScratch::default(),
    )
}

/// The one sample path: gather `planes` of `set` (which checks the
/// bounds) into `scratch`, then write the frame under `epoch`. On error
/// nothing is appended.
fn sample_frame(
    out: &mut Vec<u8>,
    machine_id: u64,
    epoch: u8,
    set: &SampleSet,
    planes: impl ExactSizeIterator<Item = usize>,
    scratch: &mut PlanarScratch,
) -> Result<(), EncodeError> {
    let n_events = planes.len() as u8;
    scratch.gather(set, planes)?;
    let head = BodyHead {
        machine_id,
        window_seq: set.seq,
        epoch,
        n_events,
    };
    write_frame(out, FrameType::Sample, &head, |buf| scratch.write(buf));
    Ok(())
}

/// The row projection of the layout last pushed: which of the set's
/// planes a frame ships, and the layout its frames declare.
#[derive(Debug, Clone, Default)]
struct Projection {
    /// The set layout projected (`None` before the first push).
    source: Option<Vec<PerfEvent>>,
    /// Per shipped event, its plane in the set.
    planes: Vec<usize>,
    /// The shipped events, in the set's order.
    events: Vec<PerfEvent>,
    /// [`layout_hash`] of `events`.
    hash: u64,
}

impl Projection {
    /// Projects `layout` through [`row_slots`], unless it is the layout
    /// already projected.
    fn update(&mut self, layout: &[PerfEvent]) -> &Self {
        if self.source.as_deref() != Some(layout) {
            let source = self.source.get_or_insert_with(Vec::new);
            source.clear();
            source.extend_from_slice(layout);
            self.planes.clear();
            self.events.clear();
            let slots = row_slots(layout.iter().map(|e| e.index() as u64));
            for (plane, (&event, slot)) in layout.iter().zip(slots).enumerate() {
                if slot.is_some() {
                    self.planes.push(plane);
                    self.events.push(event);
                }
            }
            self.hash = layout_hash(&self.events);
        }
        self
    }
}

/// What a machine's last layout frame announced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Announced {
    /// [`layout_hash`] of the projected events.
    hash: u64,
    cpus: usize,
    decimation: u16,
    /// The layout epoch its sample frames carry.
    epoch: u8,
}

/// What the encoder knows about one machine's agent.
#[derive(Debug, Clone)]
struct Agent {
    /// What was last announced on the wire (`None` before the first
    /// frame). A change in any field re-emits the layout frame.
    announced: Option<Announced>,
    /// The decimation the control loop *wants*; announced lazily by the
    /// next `push_sample_set`.
    want: u16,
}

impl Default for Agent {
    fn default() -> Self {
        Self {
            announced: None,
            want: 1,
        }
    }
}

/// A multiplicative hasher for machine-id keys. The producer chooses
/// its machine ids; no peer does, so SipHash's flood resistance would
/// protect nothing here. The rotate moves the well-mixed high product
/// bits down to where the table picks buckets.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Stateful stream encoder: one byte buffer, automatic layout frames
/// with per-machine layout epochs, and every set projected onto the
/// fleet row's events before it is hashed, announced and gathered
/// ([`push_sample_set`](Self::push_sample_set)). A pushed set ships
/// the bytes the stateless functions write for the set with every
/// other plane removed.
///
/// # Example
///
/// ```
/// use tdp_simsys::{Machine, MachineConfig};
/// use tdp_wire::WireEncoder;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 {
///     machine.tick();
/// }
/// let set = machine.read_counters();
///
/// let mut enc = WireEncoder::new();
/// enc.push_sample_set(7, &set).unwrap(); // layout frame + sample frame
/// enc.push_sample_set(7, &set).unwrap(); // sample frame only
/// assert!(!enc.bytes().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WireEncoder {
    buf: Vec<u8>,
    /// Per machine: what was announced and what is wanted.
    agents: HashMap<u64, Agent, BuildHasherDefault<IdHasher>>,
    /// Reused gather scratch — one steady-state `push_sample_set` must
    /// not heap-allocate.
    scratch: PlanarScratch,
    /// The row projection of the last layout pushed.
    projection: Projection,
}

impl WireEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sampling decimation the control loop wants for
    /// `machine_id` (clamped to `1..=`[`MAX_DECIMATION`]). The change
    /// takes effect on the machine's next `push_sample_set`, which
    /// re-announces the (unchanged) layout, under the same epoch, with
    /// the new decimation —
    /// the consumer learns about it in-band, on the frame before the
    /// first frame it applies to. Until then
    /// [`should_send`](Self::should_send) answers `true`, so that push
    /// comes at once.
    pub fn set_decimation(&mut self, machine_id: u64, decimation: u16) {
        self.agents.entry(machine_id).or_default().want = decimation.clamp(1, MAX_DECIMATION);
    }

    /// The decimation currently wanted for `machine_id` (1 if never
    /// set: sample every window).
    pub fn decimation(&self, machine_id: u64) -> u16 {
        self.agents.get(&machine_id).map_or(1, |a| a.want)
    }

    /// Whether `machine_id` should transmit its sample for
    /// `window_seq`. A machine whose wanted decimation differs from the
    /// one its last layout frame announced (or that has sent nothing
    /// yet) sends, so the grant reaches the wire before the machine
    /// goes silent and the consumer reconstructs, not holds, the
    /// windows it skips. Otherwise it phases on the announced
    /// decimation: every window at 1, else one window in `dec`,
    /// phase-staggered by machine id so a homogeneous fleet spreads its
    /// transmissions across windows instead of bursting every `dec`-th
    /// one.
    pub fn should_send(&self, machine_id: u64, window_seq: u64) -> bool {
        match self.agents.get(&machine_id) {
            Some(Agent {
                announced: Some(a),
                want,
            }) if a.decimation == *want => {
                let dec = u64::from(a.decimation);
                dec <= 1 || window_seq % dec == machine_id % dec
            }
            _ => true,
        }
    }

    /// Appends one machine-window projected onto the row events,
    /// preceding it with a layout frame if this machine's projected
    /// layout or CPU count is new or changed — which also moves it to
    /// its next layout epoch — or if its negotiated decimation changed
    /// since last announced.
    ///
    /// The projection keeps at most nine events, so the event bound
    /// cannot fail here: a set listing more than [`MAX_WIRE_EVENTS`]
    /// events encodes, where the stateless functions refuse it.
    ///
    /// # Errors
    ///
    /// [`EncodeError::OutOfBounds`] if the set has more CPUs than
    /// [`MAX_WIRE_CPUS`] (nothing is appended).
    pub fn push_sample_set(&mut self, machine_id: u64, set: &SampleSet) -> Result<(), EncodeError> {
        let projection = self.projection.update(set.events());
        let (hash, cpus) = (projection.hash, set.num_cpus());
        let agent = self.agents.entry(machine_id).or_default();
        let epoch = match agent.announced {
            None => 0,
            Some(a) if (a.hash, a.cpus) == (hash, cpus) => a.epoch,
            Some(a) => a.epoch.wrapping_add(1),
        };
        let current = Some(Announced {
            hash,
            cpus,
            decimation: agent.want,
            epoch,
        });
        let rollback = self.buf.len();
        if agent.announced != current {
            let head = BodyHead {
                machine_id,
                window_seq: set.seq,
                epoch,
                n_events: 0,
            };
            layout_frame(&mut self.buf, head, &projection.events, cpus, agent.want)?;
        }
        let planes = projection.planes.iter().copied();
        match sample_frame(
            &mut self.buf,
            machine_id,
            epoch,
            set,
            planes,
            &mut self.scratch,
        ) {
            Ok(()) => {
                agent.announced = current;
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(rollback);
                Err(e)
            }
        }
    }

    /// The encoded stream so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drains the encoded bytes, keeping the per-machine layout
    /// memory — the natural per-window flush for a long-lived
    /// producer: layout frames are re-emitted only when a machine's
    /// layout or decimation actually changes, not once per window.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Consumes the encoder, returning the encoded stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameHeader;
    use crate::varint::read_uvarint;

    const LAYOUT_A: [PerfEvent; 3] = [
        PerfEvent::Cycles,
        PerfEvent::HaltedCycles,
        PerfEvent::L2Misses,
    ];
    const LAYOUT_B: [PerfEvent; 2] = [PerfEvent::Cycles, PerfEvent::TlbMisses];

    /// A two-CPU window over `layout` whose counts vary with `machine`
    /// and `seq`, so every frame in a stream carries distinct bytes.
    fn set_of(layout: &[PerfEvent], machine: u64, seq: u64) -> SampleSet {
        let mut set = SampleSet::empty();
        set.seq = seq;
        let block = set.reset(layout.iter().copied(), 2);
        for (i, n) in block.iter_mut().enumerate() {
            let (e, cpu) = (i as u64 / 2, i as u64 % 2);
            *n = 1000 * machine + 100 * seq + 10 * cpu + e;
        }
        set
    }

    /// `(frame type, machine, epoch, announced decimation)` of every
    /// frame in `wire` (decimation 0 on a sample frame).
    fn frames(wire: &[u8]) -> Vec<(FrameType, u64, u8, u16)> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let h = FrameHeader::parse(&wire[pos..]).expect("well-formed stream");
            let body = &wire[pos + h.header_len()..pos + h.frame_len()];
            let (head, payload) = BodyHead::read(body).expect("well-formed body");
            let decimation = match h.frame_type {
                FrameType::Layout => {
                    let mut p = 0;
                    read_uvarint(payload, &mut p).expect("CPU count");
                    read_uvarint(payload, &mut p).expect("decimation") as u16
                }
                FrameType::Sample => 0,
            };
            out.push((h.frame_type, head.machine_id, head.epoch, decimation));
            pos += h.frame_len();
        }
        out
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Drives one encoder through every agent transition — first
    /// sight, a decimation grant, a layout change, a grant to a machine
    /// that has never pushed, a no-op grant, clamping, and a rejected
    /// set — returning the whole stream and the layout frames each push
    /// emitted.
    fn agent_script() -> (Vec<u8>, Vec<usize>) {
        let mut enc = WireEncoder::new();
        let mut layouts_per_push = Vec::new();
        let mut push = |enc: &mut WireEncoder, m: u64, set: &SampleSet| {
            let before = enc.bytes().len();
            enc.push_sample_set(m, set).unwrap();
            let layouts = frames(&enc.bytes()[before..])
                .iter()
                .filter(|f| f.0 == FrameType::Layout)
                .count();
            layouts_per_push.push(layouts);
        };
        // Window 1: two machines seen for the first time.
        push(&mut enc, 0, &set_of(&LAYOUT_A, 0, 1));
        push(&mut enc, 1, &set_of(&LAYOUT_A, 1, 1));
        // Window 2: steady state, then a grant for a machine that has
        // never pushed.
        push(&mut enc, 0, &set_of(&LAYOUT_A, 0, 2));
        push(&mut enc, 1, &set_of(&LAYOUT_A, 1, 2));
        enc.set_decimation(2, 4);
        assert_eq!(enc.decimation(2), 4);
        push(&mut enc, 2, &set_of(&LAYOUT_A, 2, 2));
        // Window 3: a decimation change on machine 0, a layout change
        // on machine 1, and a grant repeating machine 2's decimation.
        // Until machine 0's push announces its grant it sends in every
        // phase; machine 2 phases on its announced 4.
        enc.set_decimation(0, 2);
        enc.set_decimation(2, 4);
        assert!((0..8).all(|seq| enc.should_send(0, seq)));
        assert_eq!((0..8).filter(|&seq| enc.should_send(2, seq)).count(), 2);
        push(&mut enc, 0, &set_of(&LAYOUT_A, 0, 3));
        push(&mut enc, 1, &set_of(&LAYOUT_B, 1, 3));
        push(&mut enc, 2, &set_of(&LAYOUT_A, 2, 3));
        // A rejected set appends nothing and leaves the agent as it was.
        let mut wide = SampleSet::empty();
        wide.seq = 4;
        wide.reset([PerfEvent::Cycles], MAX_WIRE_CPUS + 1).fill(1);
        let before = enc.bytes().len();
        assert_eq!(enc.push_sample_set(0, &wide), Err(EncodeError::OutOfBounds));
        assert_eq!(enc.bytes().len(), before);
        // Window 4: clamped grants, each a change.
        enc.set_decimation(0, 0);
        enc.set_decimation(1, u16::MAX);
        assert_eq!(enc.decimation(0), 1);
        assert_eq!(enc.decimation(1), MAX_DECIMATION);
        push(&mut enc, 0, &set_of(&LAYOUT_A, 0, 4));
        push(&mut enc, 1, &set_of(&LAYOUT_B, 1, 4));
        push(&mut enc, 2, &set_of(&LAYOUT_A, 2, 4));
        // Window 5: steady state again.
        for m in 0..3 {
            let layout: &[PerfEvent] = if m == 1 { &LAYOUT_B } else { &LAYOUT_A };
            push(&mut enc, m, &set_of(layout, m, 5));
        }
        // The decimation answers over every machine, including one the
        // encoder has never heard of.
        for m in 0..4u64 {
            let want = [1, MAX_DECIMATION, 4, 1][m as usize];
            assert_eq!(enc.decimation(m), want, "machine {m}");
            for seq in 0..2 * MAX_DECIMATION as u64 {
                let dec = want as u64;
                assert_eq!(
                    enc.should_send(m, seq),
                    dec <= 1 || seq % dec == m % dec,
                    "machine {m} window {seq}"
                );
            }
        }
        (enc.finish(), layouts_per_push)
    }

    #[test]
    fn every_agent_transition_announces_exactly_one_layout_frame() {
        let (wire, layouts) = agent_script();
        assert_eq!(layouts, [1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0]);
        // Announced (machine, epoch, decimation), in stream order: only
        // machine 1's layout change moves an epoch.
        let announced: Vec<(u64, u8, u16)> = frames(&wire)
            .into_iter()
            .filter(|f| f.0 == FrameType::Layout)
            .map(|f| (f.1, f.2, f.3))
            .collect();
        assert_eq!(
            announced,
            [
                (0, 0, 1),
                (1, 0, 1),
                (2, 0, 4),
                (0, 0, 2),
                (1, 1, 1),
                (0, 0, 1),
                (1, 1, MAX_DECIMATION)
            ]
        );
        // Every sample frame carries its machine's announced epoch.
        let mut epoch = [0u8; 3];
        for (kind, m, e, _) in frames(&wire) {
            match kind {
                FrameType::Layout => epoch[m as usize] = e,
                FrameType::Sample => assert_eq!(e, epoch[m as usize], "machine {m}"),
            }
        }
    }

    #[test]
    fn a_cpu_count_change_alone_moves_to_the_next_epoch() {
        // Same events, 2 → 4 → 4 → 2 CPUs, then 256 more changes: each
        // CPU-count change re-announces under the next epoch, wrapping
        // at 256, and an unchanged count announces nothing.
        let on = |cpus: usize, seq: u64| {
            let mut set = SampleSet::empty();
            set.seq = seq;
            set.reset(LAYOUT_A.iter().copied(), cpus).fill(seq + 1);
            set
        };
        let mut enc = WireEncoder::new();
        let mut layouts = Vec::new();
        let mut push = |set: &SampleSet| {
            let before = enc.bytes().len();
            enc.push_sample_set(0, set).unwrap();
            let frames = frames(&enc.bytes()[before..]);
            let sample = *frames.last().unwrap();
            assert_eq!(sample.0, FrameType::Sample);
            for f in &frames[..frames.len() - 1] {
                assert_eq!(f.2, sample.2, "the layout and its sample share an epoch");
                layouts.push((f.2, f.3));
            }
        };
        push(&on(2, 0));
        push(&on(4, 1));
        push(&on(4, 2));
        push(&on(2, 3));
        for seq in 4..4 + 256 {
            push(&on(3 - seq as usize % 2, seq));
        }
        assert_eq!(&layouts[..3], [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(layouts.len(), 3 + 256);
        assert_eq!(layouts.last(), Some(&(2, 1)), "256 changes wrap around");

        // A decimation grant alone re-announces under the same epoch.
        enc.set_decimation(0, 2);
        let before = enc.bytes().len();
        enc.push_sample_set(0, &on(2, 999)).unwrap();
        let regrant = frames(&enc.bytes()[before..]);
        assert_eq!(regrant[0].0, FrameType::Layout);
        assert_eq!((regrant[0].2, regrant[0].3), (2, 2));
    }

    #[test]
    fn agent_stream_matches_the_recording_of_the_two_map_encoder() {
        // Length and digest of the stream `agent_script` produces. The
        // recording was first taken from the encoder that kept
        // announced layouts and wanted decimations in two separate
        // maps; the digest was re-taken when the sample payload gained
        // its zero and sparse planes (format version 2), when the
        // encoder began shipping only the row events, and when the
        // static layout fields left the sample header for the layout
        // frame (format version 3; the version-2 stream was 1,032 B).
        // Each re-recording was cross-checked: the old and the new
        // stream decode to the same rows bit for bit. Every
        // announcement is also pinned, format-free, by the test above.
        let (wire, _) = agent_script();
        assert_eq!((wire.len(), fnv1a(&wire)), (459, 0xea6d_529d_0095_bbd2));
    }
}

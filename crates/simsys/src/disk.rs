//! SCSI disk model with seek / rotational-wait / transfer phases.
//!
//! The paper's disks have no power management: platters always spin, so
//! idle power is ~80% of peak (Zedlewski et al. \[9\]) and the entire
//! dynamic range lives in head movement and media transfer. Each command
//! transfers via DMA while in the transfer phase and raises exactly one
//! completion interrupt — the event the Equation-4 disk model feeds on.

use crate::config::DiskConfig;
use crate::rng::SimRng;

/// Identifier for an outstanding disk command, used by the OS to unblock
/// waiting threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommandId(pub u64);

/// A queued disk command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskCommand {
    /// Command id (machine-unique).
    pub id: CommandId,
    /// Abstract position of the data on the platter, `0.0..1.0`.
    pub position: f64,
    /// Payload bytes.
    pub bytes: u64,
    /// Write (true) or read (false).
    pub write: bool,
}

/// Mode residency of one disk over one tick; fractions sum to 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskModeFractions {
    /// Head in motion.
    pub seek: f64,
    /// Waiting for rotation.
    pub rotate_wait: f64,
    /// Reading from media.
    pub read: f64,
    /// Writing to media.
    pub write: f64,
    /// Spinning idle (never standby — no power management).
    pub idle: f64,
}

/// A completed command, reported to the machine for interrupt delivery
/// and OS wake-ups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskCompletion {
    /// The finished command.
    pub id: CommandId,
    /// Whether it was a write.
    pub write: bool,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// Per-tick disk outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskTickResult {
    /// Mode residency this tick.
    pub modes: DiskModeFractions,
    /// Bytes DMA-transferred this tick (read: disk→memory, write:
    /// memory→disk).
    pub dma_read_bytes: u64,
    /// Bytes DMA-transferred for writes.
    pub dma_write_bytes: u64,
    /// Commands that completed this tick.
    pub completions: Vec<DiskCompletion>,
}

impl DiskTickResult {
    /// Clears the result for reuse, keeping the completion buffer's
    /// allocation.
    pub fn reset(&mut self) {
        self.modes = DiskModeFractions::default();
        self.dma_read_bytes = 0;
        self.dma_write_bytes = 0;
        self.completions.clear();
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Seek { remaining_ms: f64 },
    Rotate { remaining_ms: f64 },
    Transfer { remaining_bytes: f64 },
}

#[derive(Debug, Clone)]
struct ActiveCommand {
    cmd: DiskCommand,
    phase: Phase,
}

/// One simulated SCSI disk.
#[derive(Debug, Clone)]
pub struct ScsiDisk {
    cfg: DiskConfig,
    queue: Vec<DiskCommand>,
    active: Option<ActiveCommand>,
    head_position: f64,
    rng: SimRng,
}

impl ScsiDisk {
    /// Creates a disk with its head parked at position 0.
    pub fn new(cfg: DiskConfig, rng: SimRng) -> Self {
        Self {
            cfg,
            queue: Vec::new(),
            active: None,
            head_position: 0.0,
            rng,
        }
    }

    /// Enqueues a command.
    pub fn submit(&mut self, cmd: DiskCommand) {
        self.queue.push(cmd);
    }

    /// Outstanding commands (queued + active).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.active.is_some())
    }

    /// Advances the disk one millisecond.
    pub fn tick(&mut self) -> DiskTickResult {
        let mut result = DiskTickResult::default();
        self.tick_into(&mut result);
        result
    }

    /// Like [`tick`](Self::tick) but writing into a caller-owned result —
    /// the allocation-free hot path. `result` is
    /// [`reset`](DiskTickResult::reset) first; its buffers are reused.
    pub fn tick_into(&mut self, result: &mut DiskTickResult) {
        result.reset();
        let mut budget_ms = 1.0f64;

        while budget_ms > 1e-9 {
            if self.active.is_none() {
                let Some(next) = self.pick_nearest() else {
                    result.modes.idle += budget_ms;
                    break;
                };
                let distance = (next.position - self.head_position).abs();
                let seek_ms = self.cfg.min_seek_ms + distance * self.cfg.seek_ms_per_distance;
                self.head_position = next.position;
                self.active = Some(ActiveCommand {
                    cmd: next,
                    phase: Phase::Seek {
                        remaining_ms: seek_ms,
                    },
                });
            }

            let active = self.active.as_mut().expect("just ensured");
            match active.phase {
                Phase::Seek { remaining_ms } => {
                    let spent = remaining_ms.min(budget_ms);
                    result.modes.seek += spent;
                    budget_ms -= spent;
                    let left = remaining_ms - spent;
                    if left <= 1e-9 {
                        let rot = self.rng.uniform() * self.cfg.revolution_ms;
                        active.phase = Phase::Rotate { remaining_ms: rot };
                    } else {
                        active.phase = Phase::Seek { remaining_ms: left };
                    }
                }
                Phase::Rotate { remaining_ms } => {
                    let spent = remaining_ms.min(budget_ms);
                    result.modes.rotate_wait += spent;
                    budget_ms -= spent;
                    let left = remaining_ms - spent;
                    if left <= 1e-9 {
                        active.phase = Phase::Transfer {
                            remaining_bytes: active.cmd.bytes as f64,
                        };
                    } else {
                        active.phase = Phase::Rotate { remaining_ms: left };
                    }
                }
                Phase::Transfer { remaining_bytes } => {
                    let can_move = self.cfg.transfer_bytes_per_ms * budget_ms;
                    let moved = remaining_bytes.min(can_move);
                    let spent = moved / self.cfg.transfer_bytes_per_ms;
                    budget_ms -= spent;
                    if active.cmd.write {
                        result.modes.write += spent;
                        result.dma_write_bytes += moved.round() as u64;
                    } else {
                        result.modes.read += spent;
                        result.dma_read_bytes += moved.round() as u64;
                    }
                    let left = remaining_bytes - moved;
                    if left <= 0.5 {
                        result.completions.push(DiskCompletion {
                            id: active.cmd.id,
                            write: active.cmd.write,
                            bytes: active.cmd.bytes,
                        });
                        self.active = None;
                    } else {
                        active.phase = Phase::Transfer {
                            remaining_bytes: left,
                        };
                    }
                }
            }
        }

        // Normalise residency to exactly one tick.
        let m = &mut result.modes;
        let sum = m.seek + m.rotate_wait + m.read + m.write + m.idle;
        if sum > 0.0 {
            m.seek /= sum;
            m.rotate_wait /= sum;
            m.read /= sum;
            m.write /= sum;
            m.idle /= sum;
        } else {
            m.idle = 1.0;
        }
    }

    /// Elevator-lite scheduling: service the queued command nearest the
    /// head.
    fn pick_nearest(&mut self) -> Option<DiskCommand> {
        if self.queue.is_empty() {
            return None;
        }
        let head = self.head_position;
        let (idx, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = (a.position - head).abs();
                let db = (b.position - head).abs();
                da.partial_cmp(&db).expect("positions are finite")
            })
            .expect("non-empty");
        Some(self.queue.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> ScsiDisk {
        ScsiDisk::new(DiskConfig::default(), SimRng::seed(11))
    }

    fn cmd(id: u64, pos: f64, bytes: u64, write: bool) -> DiskCommand {
        DiskCommand {
            id: CommandId(id),
            position: pos,
            bytes,
            write,
        }
    }

    #[test]
    fn idle_disk_spins_idle() {
        let mut d = disk();
        let r = d.tick();
        assert_eq!(r.modes.idle, 1.0);
        assert!(r.completions.is_empty());
        assert_eq!(r.dma_read_bytes + r.dma_write_bytes, 0);
    }

    #[test]
    fn command_progresses_through_phases_and_completes() {
        let mut d = disk();
        d.submit(cmd(1, 0.5, 120_000, false));
        let mut seek = 0.0;
        let mut rot = 0.0;
        let mut read = 0.0;
        let mut done = Vec::new();
        let mut bytes = 0;
        for _ in 0..30 {
            let r = d.tick();
            seek += r.modes.seek;
            rot += r.modes.rotate_wait;
            read += r.modes.read;
            bytes += r.dma_read_bytes;
            done.extend(r.completions);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, CommandId(1));
        assert!(!done[0].write);
        assert!(seek > 0.0, "seek happened");
        assert!(rot >= 0.0);
        assert!(read > 0.0, "transfer happened");
        assert_eq!(bytes, 120_000, "all payload DMA'd");
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn mode_fractions_sum_to_one_every_tick() {
        let mut d = disk();
        for i in 0..20 {
            d.submit(cmd(i, (i as f64 * 0.37) % 1.0, 64_000, i % 2 == 0));
        }
        for _ in 0..100 {
            let r = d.tick();
            let m = r.modes;
            let sum = m.seek + m.rotate_wait + m.read + m.write + m.idle;
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn nearest_command_first() {
        let mut d = disk();
        d.submit(cmd(1, 0.9, 1_000, false));
        d.submit(cmd(2, 0.05, 1_000, false));
        let mut order = Vec::new();
        for _ in 0..200 {
            let r = d.tick();
            order.extend(r.completions.iter().map(|c| c.id));
            if order.len() == 2 {
                break;
            }
        }
        assert_eq!(order, vec![CommandId(2), CommandId(1)], "head starts at 0");
    }

    #[test]
    fn writes_accumulate_write_mode_and_write_dma() {
        let mut d = disk();
        d.submit(cmd(1, 0.0, 300_000, true));
        let mut wrote = 0.0;
        let mut bytes = 0;
        for _ in 0..30 {
            let r = d.tick();
            wrote += r.modes.write;
            bytes += r.dma_write_bytes;
        }
        assert!(wrote > 0.0);
        assert_eq!(bytes, 300_000);
    }

    #[test]
    fn saturating_queue_keeps_disk_busy() {
        let mut d = disk();
        for i in 0..500 {
            d.submit(cmd(i, (i as f64 * 0.13) % 1.0, 256_000, i % 2 == 0));
        }
        let mut idle = 0.0;
        for _ in 0..200 {
            idle += d.tick().modes.idle;
        }
        assert!(idle < 1.0, "disk nearly never idle, got {idle}");
    }
}

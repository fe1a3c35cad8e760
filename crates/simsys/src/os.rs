//! The miniature operating system: scheduling, page cache, I/O
//! submission and interrupt-driven wake-ups.
//!
//! Responsibilities mirrored from the paper's Linux target:
//!
//! * **scheduler** — runnable threads are spread over the 8 hardware
//!   contexts (4 CPUs × 2 SMT); idle contexts cause the core to `HLT`
//!   (§3.3 "Halted Cycles");
//! * **page cache** — file writes dirty pages in memory; a background
//!   flusher trickles them to disk past a dirty threshold, and `sync()`
//!   flushes everything at once while the caller blocks — the behaviour
//!   the synthetic DiskLoad workload is built around (§3.2.2, §4.1);
//! * **I/O submission** — read misses and write-back become SCSI
//!   commands programmed through uncacheable MMIO accesses, giving the
//!   trickle-down chain its I/O-side events.

use crate::behavior::{IoDemand, ThreadBehavior, TickContext, TickDemand};
use crate::config::OsConfig;
use crate::disk::{CommandId, DiskCommand};
use crate::rng::SimRng;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a spawned process (thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u64);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ProcState {
    /// Waiting for its start time.
    NotStarted,
    /// Runnable.
    Ready,
    /// Waiting on outstanding disk commands.
    Blocked(Vec<CommandId>),
    /// Voluntarily sleeping until the given time (ms).
    Sleeping(u64),
    /// Exited.
    Done,
}

struct Process {
    id: ProcessId,
    behavior: Box<dyn ThreadBehavior>,
    start_ms: u64,
    state: ProcState,
    rng: SimRng,
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("id", &self.id)
            .field("name", &self.behavior.name())
            .field("start_ms", &self.start_ms)
            .field("state", &self.state)
            .finish()
    }
}

/// One sampling window's scheduler accounting: which process retired
/// how many uops on which CPU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedDelta {
    /// `(pid, cpu index, retired uops)` triples, sorted.
    pub entries: Vec<(ProcessId, usize, u64)>,
}

impl SchedDelta {
    /// Total retired uops attributed to `cpu` this window.
    pub fn retired_on_cpu(&self, cpu: usize) -> u64 {
        self.entries
            .iter()
            .filter(|&&(_, c, _)| c == cpu)
            .map(|&(_, _, u)| u)
            .sum()
    }

    /// The distinct processes seen this window.
    pub fn pids(&self) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = self.entries.iter().map(|&(p, _, _)| p).collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }
}

/// Commands to submit to disks, plus the MMIO cost of submitting them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoSubmission {
    /// `(disk index, command)` pairs.
    pub commands: Vec<(usize, DiskCommand)>,
    /// Uncacheable configuration accesses performed by the submitting
    /// CPU.
    pub config_accesses: u64,
}

impl IoSubmission {
    /// Clears the submission for reuse, keeping the command buffer's
    /// allocation.
    pub fn reset(&mut self) {
        self.commands.clear();
        self.config_accesses = 0;
    }
}

/// The operating system.
pub struct Os {
    cfg: OsConfig,
    num_disks: usize,
    config_accesses_per_command: u64,
    max_command_bytes: u64,
    processes: Vec<Process>,
    next_pid: u64,
    next_cmd: u64,
    rr_cursor: usize,
    next_disk: usize,
    dirty_pages: u64,
    /// Pacing counter for the background flusher.
    wb_pace: u64,
    /// Which processes wait on which command.
    waiters: HashMap<CommandId, ProcessId>,
    rng: SimRng,
    /// File "position" per process for sequential-ish layout.
    file_cursor: HashMap<ProcessId, f64>,
    /// Per-window scheduler accounting: (pid, cpu) → retired uops.
    sched_window: HashMap<(ProcessId, usize), u64>,
    /// Cumulative scheduled milliseconds per process.
    sched_runtime_ms: HashMap<ProcessId, u64>,
    /// Runnable-index scratch reused across scheduling ticks.
    runnable_scratch: Vec<usize>,
}

impl fmt::Debug for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Os")
            .field("processes", &self.processes.len())
            .field("dirty_pages", &self.dirty_pages)
            .field("outstanding_waits", &self.waiters.len())
            .finish()
    }
}

impl Os {
    /// Creates the OS. `config_accesses_per_command` comes from the I/O
    /// chip configuration and `max_command_bytes` from the disk
    /// configuration (large transfers are split at that boundary).
    pub fn new(
        cfg: OsConfig,
        num_disks: usize,
        config_accesses_per_command: u64,
        max_command_bytes: u64,
        rng: SimRng,
    ) -> Self {
        Self {
            cfg,
            num_disks,
            config_accesses_per_command,
            max_command_bytes: max_command_bytes.max(4096),
            processes: Vec::new(),
            next_pid: 1,
            next_cmd: 1,
            rr_cursor: 0,
            next_disk: 0,
            dirty_pages: 0,
            wb_pace: 0,
            waiters: HashMap::new(),
            rng,
            file_cursor: HashMap::new(),
            sched_window: HashMap::new(),
            sched_runtime_ms: HashMap::new(),
            runnable_scratch: Vec::new(),
        }
    }

    /// Spawns a thread that becomes runnable at `start_ms`.
    pub fn spawn(&mut self, behavior: Box<dyn ThreadBehavior>, start_ms: u64) -> ProcessId {
        let id = ProcessId(self.next_pid);
        self.next_pid += 1;
        let rng = self.rng.derive(&format!("proc-{}", id.0));
        self.processes.push(Process {
            id,
            behavior,
            start_ms,
            state: ProcState::NotStarted,
            rng,
        });
        id
    }

    /// Number of currently runnable threads.
    pub fn runnable_count(&self) -> usize {
        self.processes
            .iter()
            .filter(|p| p.state == ProcState::Ready)
            .count()
    }

    /// Whether every spawned thread has exited.
    pub fn all_finished(&self) -> bool {
        self.processes
            .iter()
            .all(|p| matches!(p.state, ProcState::Done))
    }

    /// Dirty pages in the page cache.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_pages
    }

    /// Advances process start/finish state and assigns runnable threads
    /// to `num_cpus × smt` contexts, spreading across physical CPUs
    /// before doubling up on SMT (the Linux SMP scheduler's policy).
    ///
    /// Fills `per_cpu` with, per CPU, the indices of the processes to run
    /// this tick. The outer vector is resized to `num_cpus` and every
    /// inner vector is cleared and reused, so a steady-state call does not
    /// allocate.
    pub fn assignments(
        &mut self,
        now_ms: u64,
        num_cpus: usize,
        smt_per_cpu: usize,
        per_cpu: &mut Vec<Vec<usize>>,
    ) {
        for p in &mut self.processes {
            match p.state {
                ProcState::NotStarted if now_ms >= p.start_ms => {
                    p.state = ProcState::Ready;
                }
                ProcState::Sleeping(until) if now_ms >= until => {
                    p.state = ProcState::Ready;
                }
                ProcState::Ready if p.behavior.finished() => {
                    p.state = ProcState::Done;
                }
                _ => {}
            }
        }

        self.runnable_scratch.clear();
        for (i, p) in self.processes.iter().enumerate() {
            if p.state == ProcState::Ready {
                self.runnable_scratch.push(i);
            }
        }
        let runnable = &self.runnable_scratch;

        per_cpu.resize_with(num_cpus, Vec::new);
        per_cpu.truncate(num_cpus);
        for v in per_cpu.iter_mut() {
            v.clear();
        }
        if runnable.is_empty() {
            return;
        }
        let capacity = num_cpus * smt_per_cpu;
        // Round-robin offset for fairness when oversubscribed.
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let offset = if runnable.len() > capacity {
            self.rr_cursor % runnable.len()
        } else {
            0
        };
        for (slot, k) in (0..runnable.len().min(capacity)).enumerate() {
            let proc_idx = runnable[(offset + k) % runnable.len()];
            // Fill cpu0..cpuN first, then second SMT slots.
            per_cpu[slot % num_cpus].push(proc_idx);
        }
    }

    /// Calls the behaviour of process `proc_idx` for this tick.
    pub fn demand_of(
        &mut self,
        proc_idx: usize,
        now_ms: u64,
        smt_share: f64,
        mem_throttle: f64,
    ) -> TickDemand {
        let p = &mut self.processes[proc_idx];
        let mut ctx = TickContext {
            now_ms,
            smt_share,
            mem_throttle,
            rng: &mut p.rng,
        };
        p.behavior.demand(&mut ctx)
    }

    /// Name of the behaviour running as process `proc_idx`.
    pub fn name_of(&self, proc_idx: usize) -> &str {
        self.processes[proc_idx].behavior.name()
    }

    /// The pid of process `proc_idx`.
    pub fn pid_of(&self, proc_idx: usize) -> ProcessId {
        self.processes[proc_idx].id
    }

    /// The behaviour name for a pid, if the process exists.
    pub fn name_of_pid(&self, pid: ProcessId) -> Option<&str> {
        self.processes
            .iter()
            .find(|p| p.id == pid)
            .map(|p| p.behavior.name())
    }

    /// Records one tick of execution for scheduler accounting: process
    /// `proc_idx` retired `retired` uops on `cpu` this tick.
    pub fn record_execution(&mut self, proc_idx: usize, cpu: usize, retired: u64) {
        let pid = self.processes[proc_idx].id;
        *self.sched_window.entry((pid, cpu)).or_insert(0) += retired;
        *self.sched_runtime_ms.entry(pid).or_insert(0) += 1;
    }

    /// Takes the per-window scheduler accounting (and resets it) —
    /// sampled alongside the counters, it is the `/proc/<pid>/stat`
    /// equivalent that per-process power attribution needs.
    pub fn take_sched_delta(&mut self) -> SchedDelta {
        let mut entries: Vec<(ProcessId, usize, u64)> = self
            .sched_window
            .drain()
            .map(|((pid, cpu), uops)| (pid, cpu, uops))
            .collect();
        entries.sort_unstable();
        SchedDelta { entries }
    }

    /// Cumulative scheduled milliseconds for `pid`.
    pub fn runtime_ms(&self, pid: ProcessId) -> u64 {
        self.sched_runtime_ms.get(&pid).copied().unwrap_or(0)
    }

    /// Processes the file-I/O part of a thread's demand, turning it into
    /// disk commands in `sub` and possibly blocking or sleeping the
    /// thread. `sub` is [`reset`](IoSubmission::reset) first; its buffer
    /// is reused.
    pub fn submit_io(
        &mut self,
        proc_idx: usize,
        io: &IoDemand,
        now_ms: u64,
        sub: &mut IoSubmission,
    ) {
        sub.reset();
        let pid = self.processes[proc_idx].id;
        // Command ids are issued sequentially, so each transfer's ids form
        // a contiguous `(first, count)` range — blocking state is built
        // from ranges without an intermediate id list.
        let mut block_ranges: [(u64, u64); 2] = [(0, 0); 2];

        // Reads: the whole request either hits the page cache (no disk
        // traffic) or misses and fetches in full — `read_hit_fraction`
        // is a hit *probability*, not a byte fraction. (A fractional
        // interpretation would issue a sliver-sized command on every
        // read, wildly inflating the interrupt rate per byte moved.)
        if io.read_bytes > 0 {
            let hit = io.read_hit_fraction.clamp(0.0, 1.0);
            if !self.rng.chance(hit) {
                let range = self.enqueue_transfer(pid, io.read_bytes, false, sub);
                if io.blocking_reads {
                    block_ranges[0] = range;
                }
            }
        }

        // Writes dirty the page cache; no immediate disk traffic.
        if io.write_bytes > 0 {
            self.dirty_pages += io.write_bytes.div_ceil(self.cfg.page_bytes);
        }

        // sync(): flush everything, block until done.
        if io.sync && self.dirty_pages > 0 {
            let bytes = self.dirty_pages * self.cfg.page_bytes;
            self.dirty_pages = 0;
            block_ranges[1] = self.enqueue_transfer(pid, bytes, true, sub);
        }

        let blocked: u64 = block_ranges.iter().map(|&(_, n)| n).sum();
        if blocked > 0 {
            let mut block_on = Vec::with_capacity(blocked as usize);
            for &(first, count) in &block_ranges {
                for id in (first..first + count).map(CommandId) {
                    self.waiters.insert(id, pid);
                    block_on.push(id);
                }
            }
            self.processes[proc_idx].state = ProcState::Blocked(block_on);
        } else if io.sleep_ms > 0 {
            self.processes[proc_idx].state = ProcState::Sleeping(now_ms + io.sleep_ms);
        }
    }

    /// Background flusher: called once per tick; writes back dirty pages
    /// above the threshold, a bounded amount, paced to one submission
    /// every few milliseconds so it issues disk-sized commands instead
    /// of a storm of slivers. The commands go into `sub`, which is
    /// [`reset`](IoSubmission::reset) first.
    pub fn background_writeback(&mut self, sub: &mut IoSubmission) {
        sub.reset();
        let threshold = (self.cfg.page_cache_pages as f64 * self.cfg.dirty_background_ratio) as u64;
        self.wb_pace = self.wb_pace.wrapping_add(1);
        if self.dirty_pages <= threshold || !self.wb_pace.is_multiple_of(8) {
            return;
        }
        let excess_bytes = (self.dirty_pages - threshold) * self.cfg.page_bytes;
        let bytes = excess_bytes.min(self.cfg.writeback_bytes_per_tick);
        let pages = bytes.div_ceil(self.cfg.page_bytes);
        self.dirty_pages -= pages.min(self.dirty_pages);
        // Flusher writes are nobody's problem: no blocking.
        let pid = ProcessId(0);
        let _ = self.enqueue_transfer(pid, bytes, true, sub);
    }

    /// Handles disk completions: wakes any thread whose last outstanding
    /// command finished.
    pub fn on_completions(&mut self, completed: &[CommandId]) {
        for id in completed {
            let Some(pid) = self.waiters.remove(id) else {
                continue;
            };
            if let Some(p) = self.processes.iter_mut().find(|p| p.id == pid) {
                if let ProcState::Blocked(waiting) = &mut p.state {
                    waiting.retain(|w| w != id);
                    if waiting.is_empty() {
                        p.state = ProcState::Ready;
                    }
                }
            }
        }
    }

    /// Splits `bytes` into disk commands appended to `sub`; returns the
    /// `(first id, count)` of the commands issued. Ids are contiguous
    /// because `next_cmd` is the only id source.
    fn enqueue_transfer(
        &mut self,
        pid: ProcessId,
        bytes: u64,
        write: bool,
        sub: &mut IoSubmission,
    ) -> (u64, u64) {
        let mut remaining = bytes;
        let first = self.next_cmd;
        let chunk = self.max_command_bytes;
        while remaining > 0 {
            let this = remaining.min(chunk);
            remaining -= this;
            let id = CommandId(self.next_cmd);
            self.next_cmd += 1;
            // Sequential-ish file layout: advance a per-process cursor
            // with small jitter so related commands land near each other.
            let cursor = self.file_cursor.entry(pid).or_insert_with(|| 0.3);
            *cursor = (*cursor + 0.002 + self.rng.uniform() * 0.004) % 1.0;
            let disk = self.next_disk % self.num_disks;
            self.next_disk = self.next_disk.wrapping_add(1);
            sub.commands.push((
                disk,
                DiskCommand {
                    id,
                    position: *cursor,
                    bytes: this,
                    write,
                },
            ));
        }
        let count = self.next_cmd - first;
        sub.config_accesses += count * self.config_accesses_per_command;
        (first, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::spin_loop_behavior;

    fn os() -> Os {
        Os::new(OsConfig::default(), 2, 4, 512 * 1024, SimRng::seed(5))
    }

    fn assign(os: &mut Os, now_ms: u64) -> Vec<Vec<usize>> {
        let mut per_cpu = Vec::new();
        os.assignments(now_ms, 4, 2, &mut per_cpu);
        per_cpu
    }

    fn submit(os: &mut Os, proc_idx: usize, io: &IoDemand) -> IoSubmission {
        let mut sub = IoSubmission::default();
        os.submit_io(proc_idx, io, 0, &mut sub);
        sub
    }

    fn writeback(os: &mut Os) -> IoSubmission {
        let mut sub = IoSubmission::default();
        os.background_writeback(&mut sub);
        sub
    }

    fn spawn_n(os: &mut Os, n: usize, start: u64) {
        for _ in 0..n {
            os.spawn(Box::new(spin_loop_behavior(1.0)), start);
        }
    }

    #[test]
    fn threads_spread_across_cpus_before_smt() {
        let mut o = os();
        spawn_n(&mut o, 4, 0);
        let a = assign(&mut o, 0);
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 1, 1]);

        let mut o = os();
        spawn_n(&mut o, 6, 0);
        let a = assign(&mut o, 0);
        let lens: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![2, 2, 1, 1]);
    }

    #[test]
    fn not_started_threads_do_not_run() {
        let mut o = os();
        spawn_n(&mut o, 2, 500);
        assert!(assign(&mut o, 0).iter().all(Vec::is_empty));
        assert_eq!(o.runnable_count(), 0);
        let a = assign(&mut o, 500);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn oversubscription_caps_at_contexts() {
        let mut o = os();
        spawn_n(&mut o, 12, 0);
        let a = assign(&mut o, 0);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn writes_dirty_pages_then_sync_flushes_and_blocks() {
        let mut o = os();
        spawn_n(&mut o, 1, 0);
        let _ = assign(&mut o, 0);
        let write = IoDemand {
            write_bytes: 1 << 20, // 256 pages
            ..IoDemand::default()
        };
        let sub = submit(&mut o, 0, &write);
        assert!(sub.commands.is_empty(), "writes buffer in page cache");
        assert_eq!(o.dirty_pages(), 256);

        let sync = IoDemand {
            sync: true,
            ..IoDemand::default()
        };
        let sub = submit(&mut o, 0, &sync);
        assert_eq!(o.dirty_pages(), 0);
        assert_eq!(sub.commands.len(), 2, "1 MiB in 512 KiB commands");
        assert!(sub.commands.iter().all(|(_, c)| c.write));
        assert_eq!(sub.config_accesses, 8);
        // Thread is now blocked.
        assert_eq!(o.runnable_count(), 0);

        // Completing both commands wakes it.
        let ids: Vec<CommandId> = sub.commands.iter().map(|(_, c)| c.id).collect();
        o.on_completions(&ids[..1]);
        assert_eq!(o.runnable_count(), 0, "still one outstanding");
        o.on_completions(&ids[1..]);
        assert_eq!(o.runnable_count(), 1);
    }

    #[test]
    fn blocking_reads_block_nonblocking_do_not() {
        let mut o = os();
        spawn_n(&mut o, 2, 0);
        let _ = assign(&mut o, 0);
        let read = IoDemand {
            read_bytes: 64 * 1024,
            read_hit_fraction: 0.0,
            blocking_reads: true,
            ..IoDemand::default()
        };
        let sub = submit(&mut o, 0, &read);
        assert_eq!(sub.commands.len(), 1);
        assert_eq!(o.runnable_count(), 1, "reader blocked");

        let nonblocking = IoDemand {
            read_bytes: 64 * 1024,
            read_hit_fraction: 0.0,
            blocking_reads: false,
            ..IoDemand::default()
        };
        let _ = submit(&mut o, 1, &nonblocking);
        assert_eq!(o.runnable_count(), 1, "second thread still runnable");
    }

    #[test]
    fn cache_hits_produce_no_commands() {
        let mut o = os();
        spawn_n(&mut o, 1, 0);
        let _ = assign(&mut o, 0);
        let read = IoDemand {
            read_bytes: 1 << 20,
            read_hit_fraction: 1.0,
            blocking_reads: true,
            ..IoDemand::default()
        };
        let sub = submit(&mut o, 0, &read);
        assert!(sub.commands.is_empty());
        assert_eq!(o.runnable_count(), 1);
    }

    #[test]
    fn background_writeback_kicks_in_above_threshold() {
        let cfg = OsConfig {
            page_cache_pages: 1000,
            dirty_background_ratio: 0.4,
            ..OsConfig::default()
        };
        let mut o = Os::new(cfg, 2, 4, 512 * 1024, SimRng::seed(6));
        spawn_n(&mut o, 1, 0);
        let _ = assign(&mut o, 0);
        // 300 dirty pages: below 400-page threshold → no writeback.
        let _ = submit(
            &mut o,
            0,
            &IoDemand {
                write_bytes: 300 * 4096,
                ..IoDemand::default()
            },
        );
        assert!(writeback(&mut o).commands.is_empty());
        // 300 more: above threshold → bounded writeback.
        let _ = submit(
            &mut o,
            0,
            &IoDemand {
                write_bytes: 300 * 4096,
                ..IoDemand::default()
            },
        );
        // Paced: fires within the first 8 calls.
        let mut fired = false;
        for _ in 0..8 {
            if !writeback(&mut o).commands.is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired, "flusher fires within its pacing interval");
        assert!(o.dirty_pages() < 600);
    }

    #[test]
    fn sched_accounting_sums_and_resets() {
        let mut o = os();
        spawn_n(&mut o, 2, 0);
        let _ = assign(&mut o, 0);
        o.record_execution(0, 0, 1_000);
        o.record_execution(0, 0, 500);
        o.record_execution(1, 2, 2_000);
        let d = o.take_sched_delta();
        assert_eq!(d.retired_on_cpu(0), 1_500);
        assert_eq!(d.retired_on_cpu(2), 2_000);
        assert_eq!(d.pids().len(), 2);
        assert_eq!(o.runtime_ms(o.pid_of(0)), 2, "two ticks recorded");
        assert!(o.take_sched_delta().entries.is_empty(), "window resets");
        assert_eq!(o.runtime_ms(o.pid_of(0)), 2, "cumulative survives");
    }

    #[test]
    fn pid_name_lookup() {
        let mut o = os();
        spawn_n(&mut o, 1, 0);
        let pid = o.pid_of(0);
        assert_eq!(o.name_of_pid(pid), Some("spin-loop"));
        assert_eq!(o.name_of_pid(super::ProcessId(999)), None);
    }

    #[test]
    fn commands_alternate_disks() {
        let mut o = os();
        spawn_n(&mut o, 1, 0);
        let _ = assign(&mut o, 0);
        let _ = submit(
            &mut o,
            0,
            &IoDemand {
                write_bytes: 4 << 20,
                ..IoDemand::default()
            },
        );
        let sub = submit(
            &mut o,
            0,
            &IoDemand {
                sync: true,
                ..IoDemand::default()
            },
        );
        let disks: Vec<usize> = sub.commands.iter().map(|&(d, _)| d).collect();
        assert!(disks.contains(&0) && disks.contains(&1));
    }
}

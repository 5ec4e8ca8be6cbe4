//! On-chip management firmware model: userspace queues and stateless
//! core dispatch.
//!
//! §3.3.2: the firmware exposes four commands (run-on-core,
//! copy-to-device, copy-from-device, wait-for-done) on userspace-mapped
//! queues; `run-on-core` deliberately does *not* name a core — the
//! firmware schedules work round-robin across queues onto any idle
//! core, which is what makes cores interchangeable ("stateless")
//! resources. This module is a discrete-time simulation of that
//! dispatch policy, used to demonstrate fairness and utilization under
//! the process-per-transcode model.

use std::collections::VecDeque;

/// A firmware command (§3.3.2's four-verb interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run one operation (encode/decode/scale of one frame) on any
    /// idle core; payload is the operation's duration in ticks.
    RunOnCore {
        /// Execution time in firmware ticks.
        ticks: u32,
    },
    /// DMA host → device (host-side, does not occupy a codec core).
    CopyToDevice {
        /// Transfer time in ticks.
        ticks: u32,
    },
    /// DMA device → host.
    CopyFromDevice {
        /// Transfer time in ticks.
        ticks: u32,
    },
    /// Barrier: the queue makes no progress past this until all its
    /// earlier `RunOnCore` operations completed.
    WaitForDone,
}

/// One userspace queue (one process-per-transcode client).
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    pending: VecDeque<Command>,
    /// Operations issued to cores and not yet completed.
    in_flight: usize,
    /// Completed RunOnCore operations.
    pub completed_ops: u64,
    /// Ticks this queue spent with work pending but no core granted.
    pub starved_ticks: u64,
}

impl CommandQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a command.
    pub fn push(&mut self, cmd: Command) {
        self.pending.push_back(cmd);
    }

    /// True if every submitted command has fully completed.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }
}

/// The firmware scheduler: round-robin over queues, dispatching to a
/// fixed pool of interchangeable cores.
#[derive(Debug)]
pub struct Firmware {
    queues: Vec<CommandQueue>,
    /// Remaining ticks per busy core (0 = idle).
    cores: Vec<u32>,
    /// Which queue each busy core is serving (for completion credit).
    core_owner: Vec<Option<usize>>,
    /// Round-robin cursor.
    next_queue: usize,
    /// Total core-ticks spent busy (for utilization).
    busy_ticks: u64,
    /// Total ticks simulated.
    ticks: u64,
}

impl Firmware {
    /// Creates a firmware instance managing `cores` codec cores and
    /// `queues` userspace queues.
    pub fn new(cores: usize, queues: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Firmware {
            queues: (0..queues).map(|_| CommandQueue::new()).collect(),
            cores: vec![0; cores],
            core_owner: vec![None; cores],
            next_queue: 0,
            busy_ticks: 0,
            ticks: 0,
        }
    }

    /// Access a queue.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn queue_mut(&mut self, q: usize) -> &mut CommandQueue {
        &mut self.queues[q]
    }

    /// Borrow queues (for inspection).
    pub fn queues(&self) -> &[CommandQueue] {
        &self.queues
    }

    /// Advances the simulation one tick: completes finishing
    /// operations, then dispatches from queues round-robin onto idle
    /// cores (the §3.3.2 fairness policy).
    pub fn tick(&mut self) {
        self.ticks += 1;
        // Progress busy cores.
        for c in 0..self.cores.len() {
            if self.cores[c] > 0 {
                self.cores[c] -= 1;
                self.busy_ticks += 1;
                if self.cores[c] == 0 {
                    if let Some(q) = self.core_owner[c].take() {
                        self.queues[q].in_flight -= 1;
                        self.queues[q].completed_ops += 1;
                    }
                }
            }
        }
        // Dispatch round-robin: each pass starts from a rotating cursor
        // so no queue systematically wins ties.
        let nq = self.queues.len();
        if nq == 0 {
            return;
        }
        for c in 0..self.cores.len() {
            if self.cores[c] != 0 {
                continue;
            }
            // Find the next queue with a dispatchable command.
            let mut dispatched = false;
            for off in 0..nq {
                let qi = (self.next_queue + off) % nq;
                if let Some(cmd) = self.queues[qi].pending.front().copied() {
                    match cmd {
                        Command::RunOnCore { ticks } => {
                            self.queues[qi].pending.pop_front();
                            self.queues[qi].in_flight += 1;
                            self.cores[c] = ticks.max(1);
                            self.core_owner[c] = Some(qi);
                            self.next_queue = (qi + 1) % nq;
                            dispatched = true;
                            break;
                        }
                        Command::CopyToDevice { .. } | Command::CopyFromDevice { .. } => {
                            // DMA does not occupy a codec core; model it
                            // as instantaneous at this granularity.
                            self.queues[qi].pending.pop_front();
                        }
                        Command::WaitForDone => {
                            if self.queues[qi].in_flight == 0 {
                                self.queues[qi].pending.pop_front();
                            }
                            // Blocked queue: try the next one.
                        }
                    }
                }
            }
            if !dispatched {
                break; // no dispatchable work anywhere
            }
        }
        // Starvation accounting.
        for q in &mut self.queues {
            if q.pending
                .front()
                .map(|c| matches!(c, Command::RunOnCore { .. }))
                .unwrap_or(false)
            {
                q.starved_ticks += 1;
            }
        }
    }

    /// Runs until all queues drain or `max_ticks` elapse; returns the
    /// number of ticks taken.
    pub fn run_to_completion(&mut self, max_ticks: u64) -> u64 {
        let start = self.ticks;
        while self.queues.iter().any(|q| !q.is_drained()) {
            if self.ticks - start >= max_ticks {
                break;
            }
            self.tick();
        }
        self.ticks - start
    }

    /// Core utilization over the simulated interval, in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.busy_ticks as f64 / (self.ticks as f64 * self.cores.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_queue(fw: &mut Firmware, q: usize, ops: usize, ticks: u32) {
        for _ in 0..ops {
            fw.queue_mut(q).push(Command::RunOnCore { ticks });
        }
        fw.queue_mut(q).push(Command::WaitForDone);
    }

    #[test]
    fn single_queue_drains() {
        let mut fw = Firmware::new(2, 1);
        load_queue(&mut fw, 0, 10, 5);
        let t = fw.run_to_completion(10_000);
        assert!(fw.queues()[0].is_drained());
        assert_eq!(fw.queues()[0].completed_ops, 10);
        // 10 ops × 5 ticks on 2 cores ≈ 25 ticks + dispatch slack.
        assert!((25..40).contains(&(t as usize)), "took {t}");
    }

    #[test]
    fn round_robin_is_fair() {
        // Two identical queues on one core should finish with similar
        // completed counts throughout, not one monopolizing.
        let mut fw = Firmware::new(1, 2);
        load_queue(&mut fw, 0, 50, 3);
        load_queue(&mut fw, 1, 50, 3);
        for _ in 0..200 {
            fw.tick();
        }
        let a = fw.queues()[0].completed_ops as i64;
        let b = fw.queues()[1].completed_ops as i64;
        assert!((a - b).abs() <= 2, "unfair: {a} vs {b}");
    }

    #[test]
    fn multiple_processes_saturate_the_chip() {
        // §3.3.2: "multiple userspace processes would be needed to
        // reach peak utilization". One queue with serialized waits
        // cannot keep 10 cores busy; four can do much better.
        let serial_util = {
            let mut fw = Firmware::new(10, 1);
            for _ in 0..40 {
                fw.queue_mut(0).push(Command::RunOnCore { ticks: 8 });
                fw.queue_mut(0).push(Command::WaitForDone);
            }
            fw.run_to_completion(100_000);
            fw.utilization()
        };
        let parallel_util = {
            let mut fw = Firmware::new(10, 8);
            for q in 0..8 {
                for _ in 0..5 {
                    fw.queue_mut(q).push(Command::RunOnCore { ticks: 8 });
                    fw.queue_mut(q).push(Command::WaitForDone);
                }
            }
            fw.run_to_completion(100_000);
            fw.utilization()
        };
        assert!(
            parallel_util > serial_util * 3.0,
            "parallel {parallel_util} vs serial {serial_util}"
        );
    }

    #[test]
    fn wait_for_done_is_a_barrier() {
        let mut fw = Firmware::new(4, 1);
        fw.queue_mut(0).push(Command::RunOnCore { ticks: 10 });
        fw.queue_mut(0).push(Command::WaitForDone);
        fw.queue_mut(0).push(Command::RunOnCore { ticks: 1 });
        // After 5 ticks the first op is still running; the second op
        // must not have started (completed_ops stays 0 until t=10).
        for _ in 0..5 {
            fw.tick();
        }
        assert_eq!(fw.queues()[0].completed_ops, 0);
        fw.run_to_completion(1000);
        assert_eq!(fw.queues()[0].completed_ops, 2);
    }

    #[test]
    fn dma_does_not_occupy_cores() {
        let mut fw = Firmware::new(1, 1);
        fw.queue_mut(0).push(Command::CopyToDevice { ticks: 100 });
        fw.queue_mut(0).push(Command::RunOnCore { ticks: 2 });
        fw.queue_mut(0).push(Command::CopyFromDevice { ticks: 100 });
        let t = fw.run_to_completion(1000);
        assert!(t < 10, "DMA shouldn't serialize with core time: {t}");
    }
}

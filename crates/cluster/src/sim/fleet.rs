//! Fleet health (§4.4): the VCUs, their fault state, and the
//! management plane's view of each worker — strikes, draining, golden
//! screening, quarantine, repair.
//!
//! [`Fleet`] owns every per-worker health field. It never touches the
//! scheduler, the event queue or telemetry: each method reports what
//! happened (a [`WorkerEvent`], a [`FaultEffect`]) and the simulator
//! core turns that into `set_accepting`, scheduled events and trace
//! records.

use vcu_chip::faults::{golden, FaultyVcu};

/// Strikes (watchdog timeouts + crash aborts) before an active worker
/// is demoted to draining.
pub(crate) const STRIKE_THRESHOLD: u32 = 3;

/// Per-job watchdog deadline: an attempt that has not completed by
/// `grace_s + nominal_service * service_factor` is declared lost, its
/// resources reclaimed, and the job retried. This is the only
/// mechanism that notices a firmware hang.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Fixed grace added to every deadline, seconds.
    pub grace_s: f64,
    /// Multiple of the attempt's *nominal* (healthy-hardware) service
    /// time allowed before the watchdog fires.
    pub service_factor: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            grace_s: 30.0,
            service_factor: 8.0,
        }
    }
}

/// Worker health scoring (§4.4): repeated watchdog/crash strikes
/// demote a worker to draining; a drained worker takes a golden screen
/// and either returns to service (bounded times) or is quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// How many times a worker may pass its post-drain screen and
    /// return to service before strikes quarantine it for good.
    pub max_recoveries: u32,
    /// Periodic golden-screening cadence per worker, seconds
    /// (0 disables; screening on failure detection always happens).
    pub golden_period_s: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            max_recoveries: 2,
            golden_period_s: 0.0,
        }
    }
}

/// Lifecycle state of a worker from the fault-management plane's point
/// of view (orthogonal to the chip-level
/// [`HealthState`](vcu_chip::faults::HealthState)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerMgmtState {
    /// In service, accepting placements.
    Active,
    /// Demoted by health scoring: finishes in-flight attempts, accepts
    /// nothing new, then takes a golden screen.
    Draining,
    /// Failed screening (or detected corrupting); out of service until
    /// a [`FaultKind::Repair`] arrives.
    Quarantined,
}

/// Fault injections scheduled into a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjection {
    /// When the fault manifests.
    pub time_s: f64,
    /// Which VCU worker.
    pub worker: usize,
    /// Fault kind.
    pub kind: FaultKind,
}

/// Kinds of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silent output corruption at full (actually improved) speed.
    SilentCorruption,
    /// Hard failure: the VCU stops accepting work.
    Dead,
    /// Firmware wedge: accepted jobs never complete; only the per-job
    /// watchdog notices. A functional reset clears it.
    FirmwareHang,
    /// Degraded core: every job costs `factor_pct`/100 × nominal
    /// cycles (tail-latency fault; 1600 = 16× slower).
    SlowCore {
        /// Slowdown in percent of nominal (≥ 100).
        factor_pct: u32,
    },
    /// DRAM ECC storm: a stream of correctable errors that eventually
    /// trips the chip's correctable-ECC limit and disables the VCU.
    EccStorm {
        /// Correctable errors recorded per one-second tick (clamped to
        /// ≥ 1 so the storm provably terminates).
        correctable_per_tick: u64,
    },
    /// Firmware crash-loop: attempts abort partway, the core resets
    /// itself, and the next attempt crashes again until repaired.
    CrashLoop,
    /// Field repair (board swap / reflash): heals every chip-level
    /// fault and returns the worker to service.
    Repair,
}

/// Something that happened to a worker, for the core to act on: each
/// is one telemetry record, and all but the last also flip whether the
/// scheduler may place on the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum WorkerEvent {
    /// Health scoring demoted the worker; it takes nothing new.
    Draining,
    /// The post-drain screen passed; the worker is back in service.
    Reactivated,
    /// The worker left service until repaired.
    Quarantined,
    /// An ECC storm tripped the correctable-ECC limit: the chip
    /// disabled itself.
    EccDisabled,
    /// A periodic screen failed, but a functional reset cured it.
    ResetRecovered,
}

/// What applying a [`FaultKind`] means outside the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct FaultEffect {
    /// Trace-event name and value of the injection.
    pub(super) event: &'static str,
    pub(super) value: f64,
    /// The scheduler must stop (`false`) or resume (`true`) placing on
    /// the worker.
    pub(super) accepting: Option<bool>,
    /// An ECC storm starts: record this many correctable errors per
    /// one-second tick.
    pub(super) ecc_per_tick: Option<u64>,
}

/// One worker: its VCU and the management plane's book on it.
#[derive(Debug)]
struct Worker {
    vcu: FaultyVcu,
    mgmt: WorkerMgmtState,
    /// Health strikes (watchdog timeouts + crash aborts).
    strikes: u32,
    /// Times the worker has passed a post-drain screen and returned.
    recoveries: u32,
}

/// The fleet: every worker and the health policy they are scored by.
#[derive(Debug)]
pub(super) struct Fleet {
    workers: Vec<Worker>,
    policy: HealthPolicy,
}

impl Fleet {
    /// `n` healthy workers. Per-worker corruption seeds come from a
    /// full SplitMix64 mix of (seed, worker), so no two workers (and no
    /// two base seeds) share a corruption stream.
    pub(super) fn new(n: usize, seed: u64, policy: HealthPolicy) -> Self {
        let worker = |w| Worker {
            vcu: FaultyVcu::new(vcu_rng::mix64(seed, w as u64)),
            mgmt: WorkerMgmtState::Active,
            strikes: 0,
            recoveries: 0,
        };
        Fleet {
            workers: (0..n).map(worker).collect(),
            policy,
        }
    }

    /// Chip-level fault state of worker `w`.
    pub(super) fn vcu(&self, w: usize) -> &FaultyVcu {
        &self.workers[w].vcu
    }

    /// Whether worker `w` can run work: active in the management plane
    /// and a chip that accepts work.
    pub(super) fn usable(&self, w: usize) -> bool {
        let wk = &self.workers[w];
        wk.mgmt == WorkerMgmtState::Active && wk.vcu.accepts_work()
    }

    /// Workers currently usable.
    pub(super) fn usable_count(&self) -> usize {
        (0..self.workers.len()).filter(|&w| self.usable(w)).count()
    }

    /// Workers currently quarantined.
    pub(super) fn quarantined_count(&self) -> u64 {
        let quarantined = |wk: &&Worker| wk.mgmt == WorkerMgmtState::Quarantined;
        self.workers.iter().filter(quarantined).count() as u64
    }

    /// Worker `w`'s last in-flight attempt just released its
    /// resources. If the worker was draining, the drain completes now.
    pub(super) fn idle(&mut self, w: usize) -> Option<WorkerEvent> {
        match self.workers[w].mgmt {
            WorkerMgmtState::Draining => self.finish_drain(w),
            _ => None,
        }
    }

    /// Crash-looping firmware on worker `w` reset itself.
    pub(super) fn crash_reset(&mut self, w: usize) {
        self.workers[w].vcu.functional_reset();
    }

    /// Registers a health strike against worker `w`. At the threshold
    /// an active worker is demoted to draining; if it is `idle`
    /// (nothing in flight) the drain completes at once, hence up to two
    /// events.
    pub(super) fn strike(&mut self, w: usize, idle: bool) -> [Option<WorkerEvent>; 2] {
        let wk = &mut self.workers[w];
        wk.strikes += 1;
        if wk.mgmt != WorkerMgmtState::Active || wk.strikes < STRIKE_THRESHOLD {
            return [None, None];
        }
        wk.mgmt = WorkerMgmtState::Draining;
        let drained = if idle { self.finish_drain(w) } else { None };
        [Some(WorkerEvent::Draining), drained]
    }

    /// A draining worker's last attempt finished: functional reset,
    /// golden screen, and either bounded reactivation or quarantine.
    fn finish_drain(&mut self, w: usize) -> Option<WorkerEvent> {
        let passed = self.reset_and_screen(w);
        let wk = &mut self.workers[w];
        if passed && wk.recoveries < self.policy.max_recoveries {
            wk.mgmt = WorkerMgmtState::Active;
            wk.strikes = 0;
            wk.recoveries += 1;
            Some(WorkerEvent::Reactivated)
        } else {
            self.quarantine(w)
        }
    }

    /// Moves worker `w` to quarantine. Idempotent: only the transition
    /// is reported.
    fn quarantine(&mut self, w: usize) -> Option<WorkerEvent> {
        let was = std::mem::replace(&mut self.workers[w].mgmt, WorkerMgmtState::Quarantined);
        (was != WorkerMgmtState::Quarantined).then_some(WorkerEvent::Quarantined)
    }

    /// Passes the process-wide golden clip through worker `w`'s data
    /// path.
    fn screen(&self, w: usize) -> bool {
        let golden = golden();
        self.workers[w].vcu.screen(golden, golden.checksum)
    }

    /// A fresh worker attach: functional reset, then the golden screen.
    /// A plain hang clears; silicon faults stay.
    fn reset_and_screen(&mut self, w: usize) -> bool {
        self.workers[w].vcu.functional_reset();
        self.screen(w)
    }

    /// An integrity check caught worker `w` corrupting a chunk (§4.4):
    /// the worker aborts everything on this VCU and a fresh worker
    /// screens it against the golden clip, which a corrupting VCU
    /// fails — quarantining it.
    pub(super) fn corruption_detected(&mut self, w: usize) -> Option<WorkerEvent> {
        if self.reset_and_screen(w) {
            None
        } else {
            self.quarantine(w)
        }
    }

    /// One periodic golden-screening pass over the usable fleet (§4.4:
    /// don't wait for a corrupt chunk to find a bad VCU — probe on a
    /// cadence). Returns what happened, in worker order.
    pub(super) fn screen_pass(&mut self) -> Vec<(usize, WorkerEvent)> {
        let mut events = Vec::new();
        for w in 0..self.workers.len() {
            if !self.usable(w) || self.screen(w) {
                continue;
            }
            if self.reset_and_screen(w) {
                events.push((w, WorkerEvent::ResetRecovered));
            } else {
                events.extend(self.quarantine(w).map(|ev| (w, ev)));
            }
        }
        events
    }

    /// One tick of an ECC storm on worker `w`.
    pub(super) fn ecc_tick(&mut self, w: usize, correctable: u64) -> Option<WorkerEvent> {
        let vcu = &mut self.workers[w].vcu;
        vcu.record_ecc(correctable, 0);
        (!vcu.accepts_work()).then_some(WorkerEvent::EccDisabled)
    }

    /// Applies an injected fault to worker `w`.
    pub(super) fn apply_fault(&mut self, w: usize, kind: FaultKind) -> FaultEffect {
        let wk = &mut self.workers[w];
        let mut fx = FaultEffect {
            event: "",
            value: 1.0,
            accepting: None,
            ecc_per_tick: None,
        };
        fx.event = match kind {
            FaultKind::SilentCorruption => {
                wk.vcu.inject_silent_corruption();
                "cluster.fault.silent_corruption"
            }
            FaultKind::Dead => {
                wk.vcu.disable();
                fx.accepting = Some(false);
                "cluster.fault.dead"
            }
            FaultKind::FirmwareHang => {
                wk.vcu.inject_hang();
                "cluster.fault.hang"
            }
            FaultKind::SlowCore { factor_pct } => {
                fx.value = factor_pct as f64 / 100.0;
                wk.vcu.inject_slow(fx.value);
                "cluster.fault.slow_core"
            }
            FaultKind::EccStorm {
                correctable_per_tick,
            } => {
                let per_tick = correctable_per_tick.max(1);
                fx.value = per_tick as f64;
                fx.ecc_per_tick = Some(per_tick);
                "cluster.fault.ecc_storm"
            }
            FaultKind::CrashLoop => {
                wk.vcu.inject_crash_loop();
                "cluster.fault.crash_loop"
            }
            FaultKind::Repair => {
                wk.vcu.repair();
                wk.mgmt = WorkerMgmtState::Active;
                wk.strikes = 0;
                wk.recoveries = 0;
                fx.accepting = Some(true);
                "cluster.repair"
            }
        };
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::WorkerEvent::*;
    use super::*;

    fn fleet(max_recoveries: u32) -> Fleet {
        Fleet::new(
            2,
            1,
            HealthPolicy {
                max_recoveries,
                golden_period_s: 0.0,
            },
        )
    }

    #[test]
    fn strikes_drain_screen_and_reactivate_a_bounded_number_of_times() {
        // A slow core passes its screen (slow output is correct
        // output), so only the recovery budget stops the bouncing.
        let mut f = fleet(2);
        f.apply_fault(0, FaultKind::SlowCore { factor_pct: 1600 });
        for round in 0..2 {
            assert_eq!(f.strike(0, true), [None, None], "round {round}");
            assert_eq!(f.strike(0, true), [None, None]);
            assert_eq!(f.strike(0, true), [Some(Draining), Some(Reactivated)]);
            assert!(f.usable(0));
            assert_eq!(
                (f.workers[0].strikes, f.workers[0].recoveries),
                (0, round + 1)
            );
        }
        f.strike(0, true);
        f.strike(0, true);
        assert_eq!(f.strike(0, true), [Some(Draining), Some(Quarantined)]);
        assert_eq!(f.workers[0].mgmt, WorkerMgmtState::Quarantined);
        assert!(!f.usable(0));
        assert_eq!((f.usable_count(), f.quarantined_count()), (1, 1));
        // Strikes against a worker already out of service change nothing.
        assert_eq!(f.strike(0, true), [None, None]);
    }

    #[test]
    fn a_draining_worker_finishes_in_flight_work_before_its_screen() {
        let mut f = fleet(2);
        f.apply_fault(0, FaultKind::FirmwareHang);
        f.strike(0, false);
        f.strike(0, false);
        assert_eq!(f.strike(0, false), [Some(Draining), None]);
        assert!(!f.usable(0), "a draining worker takes nothing new");
        // The post-drain functional reset clears the wedge.
        assert!(f.vcu(0).is_hung());
        assert_eq!(f.idle(0), Some(Reactivated));
        assert!(!f.vcu(0).is_hung() && f.usable(0));
        // An active worker going idle is no event.
        assert_eq!(f.idle(1), None);
    }

    #[test]
    fn a_failed_post_drain_screen_quarantines() {
        // A crash-looping core fails its screen outright.
        let mut f = fleet(2);
        f.apply_fault(0, FaultKind::CrashLoop);
        f.strike(0, true);
        f.strike(0, true);
        assert_eq!(f.strike(0, true), [Some(Draining), Some(Quarantined)]);
    }

    #[test]
    fn quarantine_is_idempotent_and_reports_the_transition_once() {
        let mut f = fleet(2);
        f.apply_fault(0, FaultKind::SilentCorruption);
        assert_eq!(f.corruption_detected(0), Some(Quarantined));
        assert_eq!(f.corruption_detected(0), None);
        assert_eq!(f.quarantined_count(), 1);
        // A healthy worker passes the post-detection screen.
        assert_eq!(f.corruption_detected(1), None);
        assert!(f.usable(1));
    }

    #[test]
    fn repair_clears_strikes_recoveries_and_quarantine() {
        let mut f = fleet(0);
        f.apply_fault(0, FaultKind::SlowCore { factor_pct: 1600 });
        f.strike(0, true);
        f.strike(0, true);
        assert_eq!(f.strike(0, true), [Some(Draining), Some(Quarantined)]);
        f.workers[0].recoveries = 7;
        let fx = f.apply_fault(0, FaultKind::Repair);
        assert_eq!((fx.event, fx.accepting), ("cluster.repair", Some(true)));
        assert!(f.usable(0));
        assert_eq!((f.workers[0].strikes, f.workers[0].recoveries), (0, 0));
        assert_eq!(f.vcu(0).slow_factor(), 1.0, "repair heals the silicon");
    }

    #[test]
    fn an_ecc_storm_trips_accepts_work() {
        let mut f = fleet(2);
        let fx = f.apply_fault(
            0,
            FaultKind::EccStorm {
                correctable_per_tick: 0,
            },
        );
        assert_eq!(fx.ecc_per_tick, Some(1), "clamped so the storm ends");
        assert_eq!(fx.accepting, None, "the storm itself disables nothing");
        // 100 correctable/s trips the 1000-error limit on the tenth tick.
        for tick in 1..10 {
            assert_eq!(f.ecc_tick(0, 100), None, "tick {tick}");
        }
        assert_eq!(f.ecc_tick(0, 100), Some(EccDisabled));
        assert!(!f.vcu(0).accepts_work() && !f.usable(0));
    }

    #[test]
    fn fault_effects_name_their_trace_event() {
        let mut f = fleet(2);
        let fx = f.apply_fault(0, FaultKind::SlowCore { factor_pct: 250 });
        assert_eq!((fx.event, fx.value), ("cluster.fault.slow_core", 2.5));
        let fx = f.apply_fault(1, FaultKind::Dead);
        assert_eq!(
            (fx.event, fx.value, fx.accepting),
            ("cluster.fault.dead", 1.0, Some(false))
        );
        assert!(!f.usable(1));
    }

    #[test]
    fn periodic_screen_resets_hangs_and_quarantines_corruptors() {
        let mut f = Fleet::new(4, 1, HealthPolicy::default());
        f.apply_fault(1, FaultKind::FirmwareHang);
        f.apply_fault(2, FaultKind::SilentCorruption);
        f.apply_fault(3, FaultKind::Dead);
        assert_eq!(
            f.screen_pass(),
            [(1, ResetRecovered), (2, Quarantined)],
            "a dead worker is not screened"
        );
        assert_eq!(f.screen_pass(), [], "nothing left to find");
    }
}

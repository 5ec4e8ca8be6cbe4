//! Graceful-degradation ladder (§4.4) and the codec paths it selects.
//!
//! [`Ladder`] owns the current rung. It is told the backlog pressure
//! once per sample and answers which `(mode, demand)` candidates a job
//! may be placed with; it never sees the scheduler, the queue or
//! telemetry.

use vcu_chip::ResourceDemand;

/// Service-time multiplier of a software-encode attempt (level ≥ 1).
const SW_ENCODE_SERVICE_FACTOR: f64 = 2.5;
/// Service-time multiplier of a full-software attempt (level ≥ 2).
const SW_FULL_SERVICE_FACTOR: f64 = 4.0;

/// Which codec path an attempt ran on — the rungs of the
/// graceful-degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptMode {
    /// Full hardware path.
    Hw,
    /// Hardware encode, software (host CPU) decode — the Fig. 9c
    /// opportunistic offload.
    SwDecode,
    /// Hardware decode, software encode (ladder level 1).
    SwEncode,
    /// Full software fallback (ladder level 2).
    SwFull,
}

impl AttemptMode {
    /// The demand of a job whose full-hardware demand is `hw` when run
    /// on this path. Software decode moves decoder millicores onto the
    /// host at 2 mCPU each (Fig. 9c: decoder pressure stops stranding
    /// encoder capacity); software encode trades the scarce encoder
    /// millicores for host CPU (a full VCU's 10k milliencode maps onto
    /// one 5k-mCPU host); full software takes both conversions.
    fn demand(self, hw: ResourceDemand) -> ResourceDemand {
        let (sw_decode, sw_encode) = match self {
            AttemptMode::Hw => (false, false),
            AttemptMode::SwDecode => (true, false),
            AttemptMode::SwEncode => (false, true),
            AttemptMode::SwFull => (true, true),
        };
        let mut d = hw;
        if sw_decode {
            d.host_mcpu += hw.millidecode * 2;
            d.millidecode = 0;
        }
        if sw_encode {
            d.host_mcpu += hw.milliencode / 2;
            d.milliencode = 0;
        }
        d
    }
}

/// Graceful-degradation ladder (§4.4): when faults shrink the usable
/// fleet or backlog outruns it, the cluster steps service quality down
/// one rung at a time instead of collapsing:
///
/// * level 0 — full hardware path;
/// * level 1 — HW decode + SW encode (encode is the scarcer resource:
///   a VCU has 10 Mpix/s of encode against 30 of decode);
/// * level 2 — full software fallback (host CPUs carry the codec);
/// * level 3 — additionally shed Batch-priority work.
///
/// The ladder is driven by live backlog per *usable* worker, so a
/// quarantine wave and a demand spike both push it the same direction,
/// and it steps at most one rung per sample in either direction —
/// hysteresis by construction, no oscillation between distant rungs.
#[derive(Debug, Clone)]
pub struct DegradePolicy {
    /// Master switch; disabled ladders never leave level 0.
    pub enabled: bool,
    /// Backlog-per-usable-worker thresholds that arm levels 1..=3.
    /// Must be non-decreasing.
    pub backlog_per_worker: [f64; 3],
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            enabled: false,
            backlog_per_worker: [4.0, 8.0, 16.0],
        }
    }
}

impl DegradePolicy {
    /// The rung the ladder is pulling toward for the observed backlog
    /// pressure. The ladder moves one step toward this per sample.
    pub fn target_level(&self, backlog_per_worker: f64) -> u8 {
        if !self.enabled {
            return 0;
        }
        self.backlog_per_worker
            .iter()
            .take_while(|&&t| backlog_per_worker >= t)
            .count() as u8
    }
}

/// Placement candidates for one job, in preference order.
pub(super) type Candidates = [Option<(AttemptMode, ResourceDemand)>; 3];

/// The ladder's state: the policy and the current rung.
#[derive(Debug)]
pub(super) struct Ladder {
    policy: DegradePolicy,
    level: u8,
}

impl Ladder {
    pub(super) fn new(policy: DegradePolicy) -> Self {
        Ladder { policy, level: 0 }
    }

    /// Current rung (0 = full hardware, 3 = shedding Batch).
    pub(super) fn level(&self) -> u8 {
        self.level
    }

    /// One sample's backlog-per-usable-worker reading: steps one rung
    /// toward the policy's target and returns the rung it lands on.
    pub(super) fn observe(&mut self, backlog_per_worker: f64) -> u8 {
        match self
            .policy
            .target_level(backlog_per_worker)
            .cmp(&self.level)
        {
            std::cmp::Ordering::Greater => self.level += 1,
            std::cmp::Ordering::Less => self.level -= 1,
            std::cmp::Ordering::Equal => {}
        }
        self.level
    }

    /// `(mode, demand)` pairs to try, in order, for a job whose
    /// full-hardware demand is `hw`. Level 0 is Fig. 9c's precedence:
    /// with `sw_decode` (the opportunistic offload) allowed, software
    /// decode is the fallback — and the first choice while hardware
    /// decoders run hot.
    pub(super) fn candidates(
        &self,
        hw: ResourceDemand,
        sw_decode: bool,
        decode_hot: bool,
    ) -> Candidates {
        use AttemptMode::*;
        let of = |mode: AttemptMode| Some((mode, mode.demand(hw)));
        match self.level {
            0 if !sw_decode => [of(Hw), None, None],
            0 if decode_hot => [of(SwDecode), of(Hw), None],
            0 => [of(Hw), of(SwDecode), None],
            1 if sw_decode => [of(SwEncode), of(Hw), of(SwDecode)],
            1 => [of(SwEncode), of(Hw), None],
            _ => [of(SwFull), of(SwEncode), of(Hw)],
        }
    }

    /// Service-time multiplier of a codec path (software rungs are
    /// slower; that is the price of graceful degradation).
    pub(super) fn service_factor(&self, mode: AttemptMode) -> f64 {
        match mode {
            AttemptMode::Hw | AttemptMode::SwDecode => 1.0,
            AttemptMode::SwEncode => SW_ENCODE_SERVICE_FACTOR,
            AttemptMode::SwFull => SW_FULL_SERVICE_FACTOR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::AttemptMode::*;
    use super::*;

    fn armed() -> Ladder {
        Ladder::new(DegradePolicy {
            enabled: true,
            ..DegradePolicy::default()
        })
    }

    #[test]
    fn degrade_ladder_targets_are_monotone() {
        let p = armed().policy;
        assert_eq!(p.target_level(0.0), 0);
        assert_eq!(p.target_level(3.9), 0);
        assert_eq!(p.target_level(4.0), 1);
        assert_eq!(p.target_level(8.0), 2);
        assert_eq!(p.target_level(16.0), 3);
        assert_eq!(p.target_level(1e9), 3);
        let mut last = 0;
        for i in 0..200 {
            let lvl = p.target_level(i as f64 * 0.25);
            assert!(lvl >= last, "ladder target must be monotone in backlog");
            last = lvl;
        }
        // Disabled ladders never leave the ground rung.
        let off = DegradePolicy::default();
        assert_eq!(off.target_level(1e9), 0);
    }

    #[test]
    fn ladder_moves_one_rung_per_observation_and_returns_to_zero() {
        let mut l = armed();
        // A backlog far past every threshold still climbs rung by rung.
        assert_eq!([1e9; 5].map(|b| l.observe(b)), [1, 2, 3, 3, 3]);
        // A target two rungs down is approached one rung at a time.
        assert_eq!(l.observe(4.0), 2);
        assert_eq!([0.0; 4].map(|b| l.observe(b)), [1, 0, 0, 0]);
        assert_eq!(l.level(), 0);
        // A disabled ladder never moves.
        let mut off = Ladder::new(DegradePolicy::default());
        assert_eq!(off.observe(1e9), 0);
    }

    #[test]
    fn candidate_order_per_rung() {
        let hw = ResourceDemand {
            millidecode: 300,
            milliencode: 1_000,
            dram_mib: 64,
            host_mcpu: 50,
        };
        let swd = ResourceDemand {
            millidecode: 0,
            host_mcpu: 650,
            ..hw
        };
        let swe = ResourceDemand {
            milliencode: 0,
            host_mcpu: 550,
            ..hw
        };
        let swf = ResourceDemand {
            millidecode: 0,
            milliencode: 0,
            host_mcpu: 1_150,
            ..hw
        };
        let (h, d, e, f) = (
            Some((Hw, hw)),
            Some((SwDecode, swd)),
            Some((SwEncode, swe)),
            Some((SwFull, swf)),
        );
        // (rung, opportunistic_sw_decode, decode_hot) → candidates.
        let table = [
            (0, false, false, [h, None, None]),
            (0, false, true, [h, None, None]),
            (0, true, false, [h, d, None]),
            (0, true, true, [d, h, None]),
            (1, false, false, [e, h, None]),
            (1, false, true, [e, h, None]),
            (1, true, false, [e, h, d]),
            (1, true, true, [e, h, d]),
            (2, false, false, [f, e, h]),
            (2, false, true, [f, e, h]),
            (2, true, false, [f, e, h]),
            (2, true, true, [f, e, h]),
        ];
        for (rung, sw_decode, decode_hot, want) in table {
            let mut l = armed();
            for _ in 0..rung {
                l.observe(1e9);
            }
            assert_eq!(
                l.candidates(hw, sw_decode, decode_hot),
                want,
                "rung {rung}, sw_decode {sw_decode}, decode_hot {decode_hot}"
            );
        }
        // Rung 3 places like rung 2; it differs only in shedding Batch.
        let mut top = armed();
        assert_eq!([1e9; 3].map(|b| top.observe(b)), [1, 2, 3]);
        assert_eq!(top.candidates(hw, true, true), [f, e, h]);
    }

    #[test]
    fn software_rungs_cost_service_time() {
        let l = armed();
        assert_eq!(
            [Hw, SwDecode, SwEncode, SwFull].map(|m| l.service_factor(m)),
            [1.0, 1.0, 2.5, 4.0]
        );
    }
}

//! VCU fault model: health state machine, ECC accounting, golden
//! self-test, and output corruption.
//!
//! §4.4's failure-management machinery needs hardware that can actually
//! fail: a [`FaultyVcu`] tracks ECC error rates, can be silently
//! *corrupting* (the dangerous "fast but wrong" black-hole mode), and
//! supports the worker-attach golden transcode — a short deterministic
//! encode whose output checksum is compared against a known-good value,
//! "relying on the core's deterministic behavior".

use std::sync::OnceLock;
use vcu_codec::{encode, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::Resolution;

/// Health state of one VCU (§4.4: the VCU is the lowest level of fault
/// management; failed VCUs are disabled while the host stays in service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Operating normally.
    Healthy,
    /// Producing corrupt output while still accepting work at full
    /// speed — the "black-holing" hazard (§4.4).
    SilentlyCorrupting,
    /// Disabled by fault management; takes no work.
    Disabled,
}

/// Fault/telemetry state of one VCU.
#[derive(Debug, Clone)]
pub struct FaultyVcu {
    state: HealthState,
    /// Correctable ECC errors observed.
    pub correctable_ecc: u64,
    /// Uncorrectable ECC errors observed.
    pub uncorrectable_ecc: u64,
    /// Telemetry: resets performed.
    pub resets: u64,
    /// Seed making this VCU's corruption pattern deterministic.
    corruption_seed: u64,
    /// Firmware wedged: accepted jobs never complete (only a watchdog
    /// notices). Cleared by a functional reset.
    hung: bool,
    /// Cycle-cost multiplier for a degraded (slow) core; 1.0 = nominal.
    /// Survives resets — clock-gating faults live in silicon.
    slow_factor: f64,
    /// Firmware crash-loops: jobs abort partway and the core resets
    /// itself over and over. Cleared only by repair.
    crash_loop: bool,
}

/// Correctable-ECC threshold that trips the repair flow (§4.4: "high
/// levels of correctable or uncorrectable faults will result in
/// disabling the VCU").
pub const CORRECTABLE_ECC_LIMIT: u64 = 1000;
/// Uncorrectable-ECC threshold.
pub const UNCORRECTABLE_ECC_LIMIT: u64 = 3;

impl FaultyVcu {
    /// A healthy VCU.
    pub fn new(seed: u64) -> Self {
        FaultyVcu {
            state: HealthState::Healthy,
            correctable_ecc: 0,
            uncorrectable_ecc: 0,
            resets: 0,
            corruption_seed: seed,
            hung: false,
            slow_factor: 1.0,
            crash_loop: false,
        }
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Injects a silent-corruption fault (e.g. a stuck SRAM bit that
    /// double-error-detect misses).
    pub fn inject_silent_corruption(&mut self) {
        if self.state == HealthState::Healthy {
            self.state = HealthState::SilentlyCorrupting;
        }
    }

    /// Records ECC events from telemetry; may disable the VCU.
    pub fn record_ecc(&mut self, correctable: u64, uncorrectable: u64) {
        self.correctable_ecc += correctable;
        self.uncorrectable_ecc += uncorrectable;
        if self.correctable_ecc >= CORRECTABLE_ECC_LIMIT
            || self.uncorrectable_ecc >= UNCORRECTABLE_ECC_LIMIT
        {
            self.state = HealthState::Disabled;
        }
    }

    /// Administratively disables the VCU (fault-management decision).
    pub fn disable(&mut self) {
        self.state = HealthState::Disabled;
    }

    /// Functional reset performed by a newly attached worker (§4.4).
    /// Resets clear transient state but not persistent silicon faults:
    /// a firmware hang clears, silent corruption / slow cores /
    /// crash-loops do not.
    pub fn functional_reset(&mut self) {
        self.resets += 1;
        self.hung = false;
    }

    /// Whether the VCU accepts work.
    pub fn accepts_work(&self) -> bool {
        self.state != HealthState::Disabled
    }

    /// Injects a firmware hang: accepted jobs never complete until a
    /// functional reset clears the wedge.
    pub fn inject_hang(&mut self) {
        self.hung = true;
    }

    /// Whether the firmware is currently wedged.
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Injects a slow-core fault: every job on this VCU costs
    /// `factor`× the nominal cycles (tail-latency degradation, §4.4).
    /// Factors below 1.0 are clamped to nominal.
    pub fn inject_slow(&mut self, factor: f64) {
        self.slow_factor = factor.max(1.0);
    }

    /// Current cycle-cost multiplier (1.0 when nominal).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Injects a crash-loop: firmware aborts jobs partway and resets
    /// itself repeatedly until repaired.
    pub fn inject_crash_loop(&mut self) {
        self.crash_loop = true;
    }

    /// Whether the firmware is crash-looping.
    pub fn is_crash_looping(&self) -> bool {
        self.crash_loop
    }

    /// Full repair (board swap / firmware reflash): clears every fault,
    /// including the persistent ones a functional reset cannot touch,
    /// and re-enables the VCU. ECC counters restart from zero on the
    /// fresh part.
    pub fn repair(&mut self) {
        self.state = HealthState::Healthy;
        self.correctable_ecc = 0;
        self.uncorrectable_ecc = 0;
        self.hung = false;
        self.slow_factor = 1.0;
        self.crash_loop = false;
    }

    /// Periodic screening check: passes the golden clip through this
    /// VCU's data path and compares checksums. Unlike [`golden_test`],
    /// a hung or crash-looping VCU fails screening outright — the probe
    /// job would never return cleanly.
    pub fn screen(&self, golden: &Golden, expected: u64) -> bool {
        if !self.accepts_work() || self.hung || self.crash_loop {
            return false;
        }
        self.returns_golden(golden, expected)
    }

    /// Whether `golden` comes out of this VCU's data path with checksum
    /// `expected`. Only a corrupting VCU alters what passes through it,
    /// so for every other the output's checksum is the clip's own,
    /// already known: no copy, no hash. Debug builds still push the
    /// clip through [`FaultyVcu::taint`] to check that.
    fn returns_golden(&self, golden: &Golden, expected: u64) -> bool {
        let through_data_path = || checksum(&self.taint(golden.bytes.clone()));
        if self.state == HealthState::SilentlyCorrupting {
            return through_data_path() == expected;
        }
        debug_assert_eq!(through_data_path(), golden.checksum);
        golden.checksum == expected
    }

    /// Passes encoded output through the (possibly faulty) hardware:
    /// a corrupting VCU deterministically flips bytes in the payload.
    pub fn taint(&self, mut payload: Vec<u8>) -> Vec<u8> {
        if self.state == HealthState::SilentlyCorrupting && !payload.is_empty() {
            // Deterministic corruption pattern derived from the seed.
            let step = (self.corruption_seed % 97 + 50) as usize;
            // Starts inside the payload, however short it is.
            let mut i = (self.corruption_seed % payload.len().min(31) as u64) as usize;
            while i < payload.len() {
                payload[i] ^= 0x5A;
                i += step;
            }
        }
        payload
    }
}

/// The golden transcode and its checksum.
#[derive(Debug)]
pub struct Golden {
    /// The encoded golden clip.
    pub bytes: Vec<u8>,
    /// FNV-1a checksum of `bytes` on known-good hardware.
    pub checksum: u64,
}

/// The golden transcode: a short, deterministic hardware-toolset encode
/// of a fixed synthetic clip. Both the expected checksum and the check
/// itself use the real codec, so any corruption in the data path shows.
///
/// The clip takes no argument and the encoder is deterministic, so it
/// is encoded once per process and shared. The first caller may be a
/// `vcu-exec` worker (a simulator built inside a batch task): `encode`
/// is the sequential encoder and submits no batch of its own.
pub fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let bytes = encode_golden();
        Golden {
            checksum: checksum(&bytes),
            bytes,
        }
    })
}

fn encode_golden() -> Vec<u8> {
    let video =
        SynthSpec::new(Resolution::R144, 2, ContentClass::screen_content(), 0x601D).generate();
    let cfg =
        EncoderConfig::const_qp(Profile::H264Sim, Qp::new(32)).with_hardware(TuningLevel::MATURE);
    encode(&cfg, &video)
        .expect("golden encode cannot fail")
        .bytes
}

/// FNV-1a checksum of a byte stream (matches the container checksum
/// primitive).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Runs the golden self-test against a VCU: passes the golden clip
/// through the VCU's data path and compares checksums. Returns `true`
/// if the VCU is clean.
pub fn golden_test(vcu: &FaultyVcu, expected: u64) -> bool {
    vcu.accepts_work() && vcu.returns_golden(golden(), expected)
}

/// The expected golden checksum on known-good hardware.
pub fn golden_expected() -> u64 {
    golden().checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_vcu_passes_golden() {
        let vcu = FaultyVcu::new(7);
        assert!(golden_test(&vcu, golden_expected()));
    }

    #[test]
    fn corrupting_vcu_fails_golden() {
        let mut vcu = FaultyVcu::new(7);
        vcu.inject_silent_corruption();
        assert_eq!(vcu.state(), HealthState::SilentlyCorrupting);
        assert!(vcu.accepts_work(), "black-hole VCUs still accept work");
        assert!(!golden_test(&vcu, golden_expected()));
    }

    #[test]
    fn disabled_vcu_rejects_work() {
        let mut vcu = FaultyVcu::new(1);
        vcu.disable();
        assert!(!vcu.accepts_work());
        assert!(!golden_test(&vcu, golden_expected()));
    }

    #[test]
    fn ecc_thresholds_disable() {
        let mut vcu = FaultyVcu::new(1);
        vcu.record_ecc(CORRECTABLE_ECC_LIMIT - 1, 0);
        assert!(vcu.accepts_work());
        vcu.record_ecc(1, 0);
        assert_eq!(vcu.state(), HealthState::Disabled);

        let mut vcu2 = FaultyVcu::new(2);
        vcu2.record_ecc(0, UNCORRECTABLE_ECC_LIMIT);
        assert_eq!(vcu2.state(), HealthState::Disabled);
    }

    #[test]
    fn corruption_is_deterministic() {
        let mut a = FaultyVcu::new(99);
        let mut b = FaultyVcu::new(99);
        a.inject_silent_corruption();
        b.inject_silent_corruption();
        let payload = vec![1u8; 500];
        assert_eq!(a.taint(payload.clone()), b.taint(payload.clone()));
        assert_ne!(a.taint(payload.clone()), payload);
    }

    #[test]
    fn golden_transcode_is_stable() {
        // Same bytes every time — determinism is the whole point, and
        // what lets one encode per process stand in for all of them.
        assert_eq!(encode_golden(), golden().bytes);
        assert_eq!(golden_expected(), checksum(&golden().bytes));
    }

    #[test]
    fn reset_does_not_heal_silicon() {
        let mut vcu = FaultyVcu::new(3);
        vcu.inject_silent_corruption();
        vcu.functional_reset();
        assert_eq!(vcu.state(), HealthState::SilentlyCorrupting);
        assert_eq!(vcu.resets, 1);
    }

    #[test]
    fn reset_clears_hang_but_not_slow_or_crash_loop() {
        let mut vcu = FaultyVcu::new(4);
        vcu.inject_hang();
        vcu.inject_slow(3.0);
        vcu.inject_crash_loop();
        assert!(vcu.is_hung() && vcu.is_crash_looping());
        vcu.functional_reset();
        assert!(!vcu.is_hung(), "reset unwedges firmware");
        assert_eq!(vcu.slow_factor(), 3.0, "slow core survives reset");
        assert!(vcu.is_crash_looping(), "crash-loop survives reset");
    }

    #[test]
    fn repair_heals_everything() {
        let mut vcu = FaultyVcu::new(5);
        vcu.inject_silent_corruption();
        vcu.inject_hang();
        vcu.inject_slow(2.5);
        vcu.inject_crash_loop();
        vcu.record_ecc(CORRECTABLE_ECC_LIMIT, UNCORRECTABLE_ECC_LIMIT);
        assert!(!vcu.accepts_work());
        vcu.repair();
        assert_eq!(vcu.state(), HealthState::Healthy);
        assert!(vcu.accepts_work());
        assert!(!vcu.is_hung() && !vcu.is_crash_looping());
        assert_eq!(vcu.slow_factor(), 1.0);
        assert_eq!(vcu.correctable_ecc, 0);
        assert_eq!(vcu.uncorrectable_ecc, 0);
        assert!(golden_test(&vcu, golden_expected()));
    }

    #[test]
    fn slow_factor_clamps_to_nominal() {
        let mut vcu = FaultyVcu::new(6);
        vcu.inject_slow(0.25);
        assert_eq!(vcu.slow_factor(), 1.0, "a fault cannot speed the core up");
    }

    /// `screen` gives the answer of the full path — copy the clip, pass
    /// it through `taint`, hash it — whichever way it gets there, and
    /// `golden_test` differs only in ignoring hangs and crash-loops.
    #[test]
    fn screen_matches_golden_test_without_reencoding() {
        let fresh = |seed, inject: &dyn Fn(&mut FaultyVcu)| {
            let mut vcu = FaultyVcu::new(seed);
            inject(&mut vcu);
            vcu
        };
        let table = [
            ("healthy", fresh(7, &|_| {}), true),
            // Slow output is still correct output.
            ("slow", fresh(10, &|v| v.inject_slow(4.0)), true),
            // The probe never returns from a hung core.
            ("hung", fresh(8, &|v| v.inject_hang()), false),
            ("crash-looping", fresh(9, &|v| v.inject_crash_loop()), false),
            ("disabled", fresh(11, &|v| v.disable()), false),
            (
                "corrupting",
                fresh(7, &|v| v.inject_silent_corruption()),
                false,
            ),
            (
                "repaired after corrupting",
                fresh(7, &|v| {
                    v.inject_silent_corruption();
                    v.repair();
                }),
                true,
            ),
        ];
        let clip = golden();
        for (name, vcu, passes) in table {
            // A checksum that is not the clip's must fail everywhere.
            for expected in [clip.checksum, !clip.checksum] {
                let full_path = vcu.accepts_work()
                    && !vcu.is_hung()
                    && !vcu.is_crash_looping()
                    && checksum(&vcu.taint(clip.bytes.clone())) == expected;
                assert_eq!(vcu.screen(clip, expected), full_path, "{name}");
                if !vcu.is_hung() && !vcu.is_crash_looping() {
                    assert_eq!(golden_test(&vcu, expected), full_path, "{name}");
                }
                assert_eq!(full_path, passes && expected == clip.checksum, "{name}");
            }
        }
    }

    #[test]
    fn a_corrupting_vcu_corrupts_payloads_of_every_length() {
        for seed in 0..200 {
            let healthy = FaultyVcu::new(seed);
            let mut corrupting = FaultyVcu::new(seed);
            corrupting.inject_silent_corruption();
            for len in 1..64 {
                let payload: Vec<u8> = (0..len).collect();
                assert_eq!(healthy.taint(payload.clone()), payload);
                assert_ne!(
                    corrupting.taint(payload.clone()),
                    payload,
                    "seed {seed}, {len} bytes"
                );
            }
        }
    }
}

//! Chaos drill: one of every fault kind, live, against a small fleet.
//!
//! Injects the full §4.4 fault menagerie — silent corruption, firmware
//! hang, a 16× slow core, a DRAM ECC storm, crash-looping firmware and
//! a hard death — into a 16-VCU fleet mid-run, with field repairs for
//! two of them, and shows the mitigation loop (watchdogs, backoff
//! retries, golden screening, health strikes, the degradation ladder)
//! absorbing the damage.
//!
//! Run with: `cargo run --release --example chaos`
//! (set `VCU_SEED` to vary detection coin-flips and fault timing).

use vcu_chip::TranscodeJob;
use vcu_cluster::{
    ClusterConfig, ClusterSim, DegradePolicy, FaultInjection, FaultKind, HealthPolicy, JobSpec,
    Priority, RetryPolicy, WatchdogPolicy,
};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_telemetry::json::JsonObj;

const VCUS: usize = 16;

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.35,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: match i % 4 {
                0 => Priority::Critical,
                3 => Priority::Batch,
                _ => Priority::Normal,
            },
            video_id: (i / 4) as u64,
        })
        .collect()
}

/// One of each fault kind on workers 0..=5, staggered through the run;
/// the hang and the death get field-repaired a minute later.
fn faults() -> Vec<FaultInjection> {
    let mut f = vec![
        FaultInjection {
            time_s: 5.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        },
        FaultInjection {
            time_s: 10.0,
            worker: 1,
            kind: FaultKind::FirmwareHang,
        },
        FaultInjection {
            time_s: 15.0,
            worker: 2,
            kind: FaultKind::SlowCore { factor_pct: 1600 },
        },
        FaultInjection {
            time_s: 20.0,
            worker: 3,
            kind: FaultKind::EccStorm {
                correctable_per_tick: 200,
            },
        },
        FaultInjection {
            time_s: 25.0,
            worker: 4,
            kind: FaultKind::CrashLoop,
        },
        FaultInjection {
            time_s: 30.0,
            worker: 5,
            kind: FaultKind::Dead,
        },
    ];
    f.push(FaultInjection {
        time_s: 70.0,
        worker: 1,
        kind: FaultKind::Repair,
    });
    f.push(FaultInjection {
        time_s: 90.0,
        worker: 5,
        kind: FaultKind::Repair,
    });
    f
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(11);
    let n_jobs = 400;
    let cfg = ClusterConfig {
        vcus: VCUS,
        detection_rate: 0.9,
        retry: RetryPolicy {
            base_s: 2.0,
            max_attempts: 5,
            jitter_frac: 0.1,
        },
        watchdog: WatchdogPolicy {
            grace_s: 5.0,
            service_factor: 4.0,
        },
        health: HealthPolicy {
            max_recoveries: 1,
            golden_period_s: 30.0,
        },
        degrade: DegradePolicy {
            enabled: true,
            ..DegradePolicy::default()
        },
        sample_period_s: 10.0,
        seed,
        ..ClusterConfig::default()
    };
    println!("chaos drill: {VCUS} VCUs, {n_jobs} chunks, six fault kinds injected mid-run\n");
    let r = ClusterSim::new(cfg, jobs(n_jobs), faults()).run();

    println!("{:<38} {:>10}", "metric", "value");
    for (name, v) in [
        ("completed", r.completed),
        ("failed", r.failed),
        ("  of which shed by the ladder", r.shed),
        ("  of which stranded", r.stranded),
        ("retries", r.retries),
        ("watchdog deadlines fired", r.watchdog_fired),
        ("crash-loop aborts", r.crash_aborts),
        ("corruptions caught", r.caught_corruptions),
        ("corruptions escaped", r.escaped_corruptions),
        ("field repairs applied", r.repairs),
        ("workers quarantined at end", r.quarantined_workers),
    ] {
        println!("{name:<38} {v:>10}");
    }
    println!("{:<38} {:>10.2}", "mean wait (s)", r.mean_wait_s);
    println!("{:<38} {:>10.2}", "p99 wait (s)", r.p99_wait_s);
    println!(
        "{:<38} {:>10.2}",
        "blast radius (VCUs/video)", r.mean_vcus_per_video
    );
    println!(
        "{:<38} [{:.2} {:.2} {:.2} {:.2}]",
        "degradation-ladder time fractions",
        r.degrade_time_frac[0],
        r.degrade_time_frac[1],
        r.degrade_time_frac[2],
        r.degrade_time_frac[3]
    );

    // Every job resolves, the watchdog rescued the hang, the crash loop
    // aborted attempts, and the fleet did not collapse: the drill's
    // whole point.
    assert_eq!(
        r.completed + r.failed,
        n_jobs as u64,
        "every chunk must resolve"
    );
    assert!(r.watchdog_fired > 0, "the hang must trip a watchdog");
    assert!(r.crash_aborts > 0, "the crash loop must abort attempts");
    assert!(r.repairs == 2, "both field repairs must apply");
    assert!(
        r.completed >= (n_jobs as u64) * 9 / 10,
        "mitigation must keep >=90% of chunks completing, got {}",
        r.completed
    );

    println!(
        "\n{}",
        JsonObj::new()
            .str("example", "chaos")
            .u64("seed", seed)
            .u64("completed", r.completed)
            .u64("failed", r.failed)
            .u64("watchdog_fired", r.watchdog_fired)
            .u64("crash_aborts", r.crash_aborts)
            .u64("repairs", r.repairs)
            .u64("quarantined_workers", r.quarantined_workers)
            .f64("p99_wait_s", r.p99_wait_s)
            .finish()
    );
    Ok(())
}

//! Failure-management drill: black-holing, golden screening, blast radius.
//!
//! Reproduces §4.4's operational story. A VCU develops silent output
//! corruption while getting *faster* (it skips real work), so the
//! first-fit scheduler keeps feeding it — "black-holing". With the
//! paper's mitigation (abort on failure + golden transcode screening)
//! the bad VCU is quarantined after its first detected failure.
//!
//! Run with: `cargo run --release --example failure_drill`
//! (set `VCU_SEED` to vary detection coin-flips).

use vcu_chip::TranscodeJob;
use vcu_cluster::{ClusterConfig, ClusterSim, FaultInjection, FaultKind, JobSpec, Priority};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_telemetry::json::JsonObj;

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.25,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 0,
        })
        .collect()
}

fn fault() -> Vec<FaultInjection> {
    vec![FaultInjection {
        time_s: 0.0,
        worker: 0,
        kind: FaultKind::SilentCorruption,
    }]
}

fn run(seed: u64, mitigation: bool, integrity: bool) -> vcu_cluster::ClusterReport {
    let cfg = ClusterConfig {
        vcus: 4,
        blackhole_mitigation: mitigation,
        detection_rate: if integrity { 0.9 } else { 0.0 },
        seed,
        ..ClusterConfig::default()
    };
    ClusterSim::new(cfg, jobs(80), fault()).run()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(5);
    println!("failure drill: worker 0 silently corrupts from t=0, 4 VCUs, 80 chunks\n");

    let naive = run(seed, false, false);
    let detected = run(seed, false, true);
    let mitigated = run(seed, true, true);

    let share = |r: &vcu_cluster::ClusterReport| {
        let total: u64 = r.attempts_per_worker.iter().sum();
        r.attempts_per_worker[0] as f64 / total as f64
    };

    println!(
        "{:<34} {:>8} {:>9} {:>9} {:>10}",
        "configuration", "retries", "escaped", "caught", "w0 share"
    );
    for (name, r) in [
        ("no checks, no mitigation", &naive),
        ("integrity checks only", &detected),
        ("checks + golden quarantine", &mitigated),
    ] {
        println!(
            "{:<34} {:>8} {:>9} {:>9} {:>9.0}%",
            name,
            r.retries,
            r.escaped_corruptions,
            r.caught_corruptions,
            share(r) * 100.0
        );
    }

    println!();
    println!(
        "blast radius without checks: {} corrupted chunks shipped to viewers",
        naive.escaped_corruptions
    );
    println!(
        "with integrity checks: {} caught, {} escaped (detection is probabilistic, as in production)",
        detected.caught_corruptions, detected.escaped_corruptions
    );
    println!(
        "with mitigation: worker 0 quarantined after first detection; retries drop {}x",
        (detected.retries.max(1)) / mitigated.retries.max(1)
    );

    assert!(naive.escaped_corruptions > 0);
    assert!(mitigated.retries < detected.retries);
    assert!(share(&detected) > share(&mitigated));

    println!(
        "{}",
        JsonObj::new()
            .str("example", "failure_drill")
            .u64("seed", seed)
            .u64("naive_escaped", naive.escaped_corruptions)
            .u64("detected_retries", detected.retries)
            .u64("mitigated_retries", mitigated.retries)
            .f64("blackhole_share", share(&detected))
            .f64("mitigated_share", share(&mitigated))
            .finish()
    );
    Ok(())
}

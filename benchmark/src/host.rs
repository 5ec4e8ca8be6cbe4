//! What the numbers were measured on, and the process's own memory and
//! CPU clocks. Everything here is non-deterministic by nature: it goes
//! into the benchmark's output files and never under `results/`.

use crate::json::{obj, Json};
use std::path::Path;
use std::process::Command;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Most threads a parallel phase uses: `min(nproc, 4)`, so numbers from
/// hosts of four or more cores stay comparable and no host is
/// oversubscribed.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used.
/// Like `peak_rss_mb`, Linux only; the `struct timespec` below is the
/// 64-bit one.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    // The standard library has no process CPU clock; the C library it
    // links has. `/proc/self/stat` counts the same time in 10 ms ticks,
    // too coarse for repetitions of a second or two.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), which is all the call
    // requires; it writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    // The checkout this package sits in. Git may not look above it for a
    // repository: a checkout that is not one reads "unknown".
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().unwrap_or(package);
    Command::new(program)
        .args(args)
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn cpu_features() -> Vec<Json> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push(Json::from($f));
                }
            )*};
        }
        probe!("sse2", "ssse3", "sse4.1", "sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f");
    }
    found
}

/// The host stamp written into every output file.
pub fn stamp(seed: u64, reps: usize) -> Json {
    obj([
        ("deterministic", Json::from(false)),
        ("nproc", Json::from(nproc())),
        (
            "cpu_model",
            Json::from(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("cpu_features", Json::Arr(cpu_features())),
        (
            "simd_backend",
            Json::from(vcu_codec::kernels::backend().name()),
        ),
        ("rustc", Json::from(tool_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("vcu_threads", Json::from(bench_threads())),
        ("seed", Json::from(seed)),
        ("repetitions", Json::from(reps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clocks_read_and_advance() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(before >= 0.0);
        let mut x = 1u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning is six ticks");
    }

    #[test]
    fn stamp_names_the_host() {
        let s = stamp(7, 3);
        assert_eq!(s.get("deterministic"), Some(&Json::Bool(false)));
        assert_eq!(s.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(s
            .get("nproc")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        assert!(s.get("simd_backend").and_then(Json::as_str).is_some());
        assert!(bench_threads() <= nproc() && bench_threads() <= 4);
    }
}

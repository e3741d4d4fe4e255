//! What the host is: the tags stamped on every result, and the STREAM
//! triad the kernel's bandwidth is compared with.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::stats::median;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn file_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `key=value` tags: commit, host, cores, compiler, dispatched kernels,
/// cache sizes. Anything the host does not reveal reads `unknown`.
pub fn tags() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    // "L1Data=48K L1Instruction=32K L2Unified=2048K ..." from sysfs.
    let caches: Vec<String> = (0..8)
        .map_while(|i| {
            let at =
                |f: &str| file_line(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/{f}"));
            Some(format!("L{}{}={}", at("level")?, at("type")?, at("size")?))
        })
        .collect();
    vec![
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        ),
        (
            "host",
            file_line("/proc/sys/kernel/hostname").unwrap_or_else(unknown),
        ),
        (
            "nproc",
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "emv_batch_kernel",
            hymv_la::dense::emv_batch_kernel_name(crate::workloads::BATCH_WIDTH).to_string(),
        ),
        (
            "emv_batch_mv_kernel",
            hymv_la::dense::emv_batch_mv_kernel_name(crate::workloads::NVEC).to_string(),
        ),
        (
            "caches",
            if caches.is_empty() {
                unknown()
            } else {
                caches.join(",")
            },
        ),
    ]
}

/// Run `f` with every core the workload's `ranks` leave idle kept busy by
/// a spinning thread, as a waiting rank keeps it on the two-rank workloads.
/// On the two-vCPU reference host a lone rank beside an idle core runs
/// 10–25 % faster or slower from one stretch of seconds to the next (what
/// else the host puts there decides); over three rounds of ten runs its
/// medians spread 7–12 % without the spinner and 4–9 % with it. The
/// spinner touches no memory.
pub fn with_idle_cores_busy<R>(ranks: usize, f: impl FnOnce() -> R) -> R {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in ranks..cores {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// STREAM triad `a = b + s·c` on `threads` threads at once, each over
/// its own three arrays of `bytes_per_array`; aggregate GB/s (computed
/// bytes: two reads and one write per element), median of `trials`
/// passes after a first-touch pass.
pub fn triad_gbps(threads: usize, bytes_per_array: usize, trials: usize) -> f64 {
    let n = bytes_per_array / 8;
    let barrier = std::sync::Barrier::new(threads);
    let walls: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
                    let mut walls = Vec::new();
                    for trial in 0..=trials {
                        barrier.wait();
                        let t0 = Instant::now();
                        for i in 0..n {
                            a[i] = b[i] + 3.0 * c[i];
                        }
                        std::hint::black_box(&a);
                        barrier.wait();
                        if trial > 0 {
                            walls.push(t0.elapsed().as_secs_f64());
                        }
                    }
                    walls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("triad thread"))
            .collect()
    });
    let moved = (3 * 8 * n * threads) as f64;
    moved / median(&walls[0]) / 1e9
}

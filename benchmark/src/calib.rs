//! Host-speed normalization.
//!
//! On a shared host the same code runs at speeds that differ by up to
//! 1.6× in regimes lasting tens of seconds (measured on a 2-vCPU
//! container: one simulation job took 18 ms in one regime and 28.5 ms in
//! the next). Medians within a run cannot hide that, because a whole run
//! can fall inside one regime. So the end-to-end samples are bracketed by
//! a fixed calibration kernel every [`CALIB_EVERY_S`] of timed work, and
//! each stretch is reported as `raw × REFERENCE_S / kernel`: host time at
//! the reference speed. Over the same regimes the ratio of a job's time to
//! the kernel's varied ±7% where the raw time varied ±17%.
//!
//! The kernel lives here, in the benchmark, so no change to the simulator
//! can change it. Raw, unnormalized values are kept in the report block.
//!
//! The hypervisor also steals whole vCPUs for stretches of a minute or
//! more. A serial leg barely notices, but the pooled executor hands off
//! between cores every 1 µs quantum and slowed 2-2.5× when 15-25% of
//! each vCPU was stolen. [`steal_ticks`] reads that loss so samples taken
//! under it can be retaken (see `Ctx::timed`).

use std::time::Instant;

/// Kernel clock ticks per second of the `/proc/stat` counters (`USER_HZ`,
/// 100 on Linux).
pub const USER_HZ: f64 = 100.0;

/// Cumulative steal ticks over all CPUs (`/proc/stat` per-CPU lines, 8th
/// counter), and the CPU count; `None` where the file is unavailable.
pub fn steal_ticks() -> Option<(u64, usize)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let per_cpu: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse().ok())
        .collect();
    (!per_cpu.is_empty()).then(|| (per_cpu.iter().sum(), per_cpu.len()))
}

/// Seconds the kernel takes at the reference speed (its typical time on the
/// 2-vCPU reference host). Only scales the reported numbers; changing it
/// changes every normalized metric by the same factor.
pub const REFERENCE_S: f64 = 0.004;

/// Timed work between two kernel readings.
pub const CALIB_EVERY_S: f64 = 0.06;

/// Rounds of the kernel per reading.
const ROUNDS: usize = 128;
/// Working set in f64 slots (64 KiB: L2-resident, like a chiplet's state).
const SLOTS: usize = 8192;

/// One kernel reading on the calling thread: xorshift-indexed float
/// updates over a small working set, a mix of dependent arithmetic,
/// branches and loads like the simulator's per-tick stepping. Returns the
/// seconds it took.
pub fn speed_sample() -> f64 {
    let mut v = vec![0.5f64; SLOTS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for i in 0..SLOTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (SLOTS - 1);
            let a = v[i] * 1.000_001 + v[j] * 0.5;
            v[i] = if a > 1.0 { a - 1.0 } else { a };
            acc += a.sqrt();
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

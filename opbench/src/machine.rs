//! Machine-speed reference: fixed loops timed before and after a run,
//! printed beside the results and never used to normalise or gate. A
//! slow phase of the shared host shows here as well as in the workload,
//! a regression only in the workload.

use crate::ops::SplitMix;
use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Flag that makes the binary print one reference reading and exit.
pub const CHILD_FLAG: &str = "--machine-ref";

/// One reference reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    /// Inserts, updates and removals in a small ordered map, median of
    /// three, ms. The work is branchy and allocating like the
    /// workloads', and slows with them when the host's cores are
    /// contended; a dependent multiply chain, which leaves the core's
    /// other units idle, stayed within 3% through phases that cost the
    /// workloads 40%.
    pub loop_ms: f64,
    /// A random pointer chase through 16 MiB, ms: contention for the
    /// shared cache and memory.
    pub mem_ms: f64,
}

fn loop_ms() -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut rng = SplitMix::new(0x006c_6f6f);
            let mut map = BTreeMap::new();
            let t = Instant::now();
            for _ in 0..black_box(250_000) {
                let k = rng.next_u64() % 4096;
                *map.entry(k).or_insert(0u64) += 1;
                if k.is_multiple_of(3) {
                    map.remove(&(k ^ 1));
                }
            }
            black_box(&map);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn mem_ms() -> f64 {
    const SLOTS: usize = 1 << 22;
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = SplitMix::new(0x006d_656d);
    for i in (1..SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Take a reading in this process and print it (child mode).
pub fn print_reading() {
    println!("{} {}", loop_ms(), mem_ms());
}

/// Take a reading in a child process, so the chase buffer never counts
/// towards this process's peak RSS. The child is waited for.
pub fn reading() -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| format!("machine-ref: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(CHILD_FLAG)
        .output()
        .map_err(|e| format!("machine-ref: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), it.next(), it.next()) {
        (true, Some(Ok(loop_ms)), Some(Ok(mem_ms))) => Ok(Reading { loop_ms, mem_ms }),
        _ => Err(format!("machine-ref: child printed {text:?}")),
    }
}

/// Host CPU time so far as (steal, total) jiffies, from the first line
/// of `/proc/stat`: time the hypervisor gave this VM's CPUs to others.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal as a percentage of all CPU time between two readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

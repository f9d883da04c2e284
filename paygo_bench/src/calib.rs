//! The reference kernel: a fixed piece of work, independent of the program
//! under test, that times the machine's current speed.
//!
//! The shared host this benchmark was tuned on changes speed by up to 40%
//! within a second and drifts by 25% over minutes, so a wall-clock op time
//! alone varies more between runs than any bound can absorb. The kernel
//! therefore runs between blocks of ops (a session, an epoch's edits, or 50
//! feedback rounds), and each op time is reported in units of the kernel's
//! mean time on both sides of its block (`ref`). A
//! change to the program moves the op and not the kernel, so it moves the
//! ratio by the same share as the op's time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::time::Instant;

use crate::rng::Rng;

/// Rows of each side of the kernel's join.
const JOIN_ROWS: usize = 10_000;
/// Links of the kernel's hash chain: about as long as the join.
const CHAIN_LINKS: u64 = 1_250_000;
/// Kernel time before the first block; it also warms the kernel up.
pub const WARM_UP_MS: f64 = 500.0;
/// Kernel time after a block, as a share of the block's op time.
pub const SHARE: f64 = 0.5;

/// One kernel call, in ms. It is two halves of about equal time. A seeded
/// hash join of string-keyed rows, deduplicated and sorted, slows more than
/// the program when the host is contended. A hash chain kept in registers
/// slows less. Together they tracked the program's own op times best: the
/// op-to-kernel ratio over 2-second windows of a 60-second run spread 5–7%,
/// against 6–15% for the join alone and 8–12% for the chain alone.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(join());
    std::hint::black_box(chain());
    t.elapsed().as_secs_f64() * 1e3
}

fn join() -> Vec<(String, u64)> {
    let mut rng = Rng::new(0x00ca_11b8);
    let left: Vec<(String, u64)> = (0..JOIN_ROWS)
        .map(|i| (format!("key-{}", rng.below(JOIN_ROWS / 2)), i as u64))
        .collect();
    let right: Vec<(String, String)> = (0..JOIN_ROWS)
        .map(|i| (format!("key-{}", rng.below(JOIN_ROWS / 2)), format!("v{i}")))
        .collect();
    let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, (k, _)) in left.iter().enumerate() {
        index.entry(k.as_str()).or_default().push(i);
    }
    let mut joined: HashSet<(String, u64)> = HashSet::new();
    for (k, v) in &right {
        for &r in index.get(k.as_str()).into_iter().flatten() {
            joined.insert((format!("{v}/{k}"), left[r].1));
        }
    }
    let mut out: Vec<(String, u64)> = joined.into_iter().collect();
    out.sort_unstable();
    out
}

fn chain() -> u64 {
    let mut acc = 0u64;
    for i in 0..CHAIN_LINKS {
        let mut h = DefaultHasher::new();
        h.write_u64(i ^ acc);
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Kernel calls totalling at least `budget_ms`, and at least one.
pub fn sample(budget_ms: f64) -> Vec<f64> {
    let mut calls = vec![kernel_ms()];
    while calls.iter().sum::<f64>() < budget_ms {
        calls.push(kernel_ms());
    }
    calls
}

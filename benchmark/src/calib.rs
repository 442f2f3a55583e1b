//! A fixed reference kernel that gauges how fast the host runs right
//! now, so host-clock metrics can be put on one reference scale and the
//! machine's own speed drift between runs cancels out.
//!
//! The kernel uses the standard library only, so no change to the
//! program under test changes its cost: pointer chasing over a 32 MiB
//! table, ordered- and hashed-map updates, and a sort — the memory,
//! branch and allocation mix the simulator's event handlers have.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (a 2-vCPU Intel Xeon VM), s.
pub const REFERENCE_S: f64 = 0.05;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the kernel once and returns its timed part in host seconds (the
/// table fill is not timed).
pub fn kernel_s() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let table: Vec<u64> = (0..1 << 22).map(|_| xorshift(&mut x)).collect();
    let clock = Instant::now();
    let (mut at, mut sum) = (0usize, 0u64);
    for _ in 0..1_000_000 {
        let v = table[at];
        sum = sum.wrapping_add(v);
        at = (v % table.len() as u64) as usize;
    }
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    for k in 0..100_000u64 {
        let r = xorshift(&mut x);
        ordered.insert(r % 400_000, k);
        *hashed.entry(r % 50_000).or_insert(0) += k;
    }
    let mut sorted: Vec<u64> = (0..200_000).map(|_| xorshift(&mut x)).collect();
    sorted.sort_unstable();
    black_box((sum, ordered.len(), hashed.len(), sorted[sorted.len() / 2]));
    clock.elapsed().as_secs_f64()
}

/// The host's speed relative to the reference host, from the kernel
/// times of one run: above 1 when faster. A host-clock time `t` reads
/// `t * speed` on the reference scale, a host-clock rate `r` reads
/// `r / speed`.
pub fn speed(kernel_s: &[f64]) -> f64 {
    REFERENCE_S / crate::stats::median(kernel_s).max(1e-9)
}

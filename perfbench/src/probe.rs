//! A host-speed probe: fixed work of the benchmark's own, calling no
//! code of the repository, timed beside each simulator run so that the
//! simulator's throughput can be stated at one reference host speed.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host, in milliseconds.
pub const REFERENCE_MS: f64 = 100.0;

/// Milliseconds for a fixed churn of a binary heap: pushes and pops of
/// pseudo-random keys, like the simulator's event queue.
pub fn cpu_ms() -> f64 {
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(4_096);
    let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..1_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x % 1_000_000, i));
        if heap.len() > 2_000 {
            sum = sum.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
    }
    black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

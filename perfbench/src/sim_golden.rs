//! Recorded outcomes of the `sim-bimodal` run, per seed. The simulator
//! is deterministic, so a run of a recorded seed must reproduce its row
//! exactly; a change that alters what the simulator computes shows here.
//! A run of any other seed is checked against the row of `seed % 32`.
//!
//! Regenerate (only when the simulated system is meant to change) with
//! `perfbench --golden-seeds 32` and paste the rows below.

use concord_sim::SimResult;

/// What the correctness gate compares between runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    pub completed: u64,
    pub censored: u64,
    pub preemptions: u64,
    pub p999_slowdown: f64,
}

impl Outcome {
    pub fn of(r: &SimResult) -> Outcome {
        Outcome {
            completed: r.completed,
            censored: r.censored,
            preemptions: r.preemptions,
            p999_slowdown: r.p999_slowdown(),
        }
    }
}

/// (seed, completed, censored, preemptions, p99.9 slowdown as f64 bits)
/// at 60,000 requests, 14 workers, q = 5 µs, load 0.8.
const RECORDED: &[(u64, u64, u64, u64, u64)] = &[
    (0, 60000, 0, 567623, 0x402e947ae147ae14),
    (1, 60000, 0, 566131, 0x4026eb851eb851ec),
    (2, 60000, 0, 569958, 0x402d9eb851eb851f),
    (3, 60000, 0, 565238, 0x4026b851eb851eb8),
    (4, 60000, 0, 563370, 0x4026a8f5c28f5c29),
    (5, 60000, 0, 566072, 0x402b3d70a3d70a3d),
    (6, 60000, 0, 566694, 0x402b2e147ae147ae),
    (7, 60000, 0, 567820, 0x40290f5c28f5c28f),
    (8, 60000, 0, 563877, 0x402b0f5c28f5c28f),
    (9, 60000, 0, 562661, 0x402f000000000000),
    (10, 60000, 0, 562421, 0x4028000000000000),
    (11, 60000, 0, 570275, 0x402b6b851eb851ec),
    (12, 60000, 0, 565422, 0x4027fae147ae147b),
    (13, 60000, 0, 566350, 0x4026cccccccccccd),
    (14, 60000, 0, 565224, 0x402ed1eb851eb852),
    (15, 60000, 0, 566008, 0x402d23d70a3d70a4),
    (16, 60000, 0, 565329, 0x4029000000000000),
    (17, 60000, 0, 565840, 0x402b8a3d70a3d70a),
    (18, 60000, 0, 568717, 0x4033d47ae147ae14),
    (19, 60000, 0, 565958, 0x40279eb851eb851f),
    (20, 60000, 0, 561627, 0x4026e147ae147ae1),
    (21, 60000, 0, 564370, 0x4027333333333333),
    (22, 60000, 0, 567665, 0x4027d70a3d70a3d7),
    (23, 60000, 0, 563459, 0x402ca3d70a3d70a4),
    (24, 60000, 0, 566939, 0x4035170a3d70a3d7),
    (25, 60000, 0, 567112, 0x402e8a3d70a3d70a),
    (26, 60000, 0, 567771, 0x402851eb851eb852),
    (27, 60000, 0, 565573, 0x40263d70a3d70a3d),
    (28, 60000, 0, 565420, 0x4029fae147ae147b),
    (29, 60000, 0, 565938, 0x4027c7ae147ae148),
    (30, 60000, 0, 567327, 0x402870a3d70a3d71),
    (31, 60000, 0, 563435, 0x402dbd70a3d70a3d),
];

/// The recorded seed that checks a run of `seed` (`seed` itself when it
/// is recorded), and its outcome.
pub fn recorded_for(seed: u64) -> (u64, Outcome) {
    let (seed, completed, censored, preemptions, bits) =
        RECORDED[(seed % RECORDED.len() as u64) as usize];
    let outcome = Outcome {
        completed,
        censored,
        preemptions,
        p999_slowdown: f64::from_bits(bits),
    };
    (seed, outcome)
}

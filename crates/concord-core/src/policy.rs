//! Scheduling policies as rank functions.
//!
//! The paper's thesis is that *approximate* optimal scheduling —
//! quantum-based processor sharing with fast preemption — gets close to
//! the true tail-optimal policy. Measuring "close to what" requires the
//! baselines to be swappable, so every ordering decision the dispatcher
//! (and the simulator) makes comes from one place, [`PolicyKind`]:
//!
//! - **pick-next / requeue ordering** via [`PolicyKind::rank`], a pure
//!   function of a request's (id, size, attained service, arrival) —
//!   the shape Scully & Harchol-Balter's SOAP framework gives policies.
//!   Every entry in the central queue carries its rank as a priority key
//!   and the queue always pops the smallest `(key, seq)` pair, so a
//!   policy shapes the schedule purely by ranking. Constant ranks
//!   degrade to sequence order: processor-sharing round-robin.
//! - **whether preemption signals are issued at all** via
//!   [`PolicyKind::preempts`]: run-to-completion baselines (Persephone)
//!   never interrupt a running request, which is a property of the
//!   policy, not of the quantum length.
//!
//! | policy      | rank                                   | preempts |
//! |-------------|----------------------------------------|----------|
//! | `PsQuantum` | `0` (pure round-robin seq order)       | yes      |
//! | `Fcfs`      | `0` (arrival order, run-to-completion) | **no**   |
//! | `Srpt`      | noisy size estimate − attained         | yes      |
//! | `Boost`     | arrival − B²/(size − attained)         | yes      |
//!
//! `Srpt` follows the noisy-estimate model of Scully & Harchol-Balter,
//! "How to Schedule Near-Optimally under Real-World Constraints": the
//! scheduler sees the true size perturbed by a bounded multiplicative
//! error, here a deterministic per-request factor in `±noise_pct%` so
//! runs (and their oracles) are reproducible. `Boost` follows Yu &
//! Scully, "Strongly Tail-Optimal Scheduling in the Light-Tailed
//! M/G/1": each request's priority is its arrival time *boosted*
//! (shifted earlier) by an amount inversely proportional to its size,
//! which interpolates between FCFS (B → 0) and SRPT (B → ∞) and is
//! tail-optimal in the light-tailed regime.

use concord_rng::{Rng, SeedableRng, SmallRng};

/// Salt mixed into SRPT's per-request noise seed.
const SRPT_NOISE_SALT: u64 = 0x5eed_5eed;

/// Largest accepted SRPT estimate error, in percent.
const SRPT_MAX_NOISE_PCT: u32 = 100;

/// The scheduling policy: a small `Copy` value that lives in
/// [`RuntimeConfig`](crate::config::RuntimeConfig) and the simulator's
/// `SystemConfig` alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Quantum-based processor sharing (the paper's policy; default).
    #[default]
    PsQuantum,
    /// FCFS run-to-completion (Persephone baseline).
    Fcfs,
    /// SRPT with `±noise_pct%` multiplicative estimate error.
    Srpt {
        /// Half-width of the estimate error, percent (0 = exact).
        noise_pct: u32,
    },
    /// Boost scheduling with parameter `B = boost_us` microseconds.
    Boost {
        /// Boost parameter in microseconds.
        boost_us: u64,
    },
}

impl PolicyKind {
    /// Short stable name (used in logs, benches, and trace summaries).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::PsQuantum => "ps",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Srpt { .. } => "srpt",
            PolicyKind::Boost { .. } => "boost",
        }
    }

    /// Whether quanta are policed and preemption signals sent at all.
    /// When `false` the schedule is run-to-completion: zero signals are
    /// sent by construction, which the conformance suite asserts
    /// exactly.
    pub fn preempts(self) -> bool {
        self != PolicyKind::Fcfs
    }

    /// Boost's `B` in nanoseconds; 0 for the other policies. A caller
    /// ranking in another time unit converts it once and passes the
    /// result to every [`rank`](Self::rank) call.
    pub fn boost_ns(self) -> u64 {
        match self {
            PolicyKind::Boost { boost_us } => boost_us.saturating_mul(1_000),
            _ => 0,
        }
    }

    /// Priority key of a request entering (or re-entering) the central
    /// queue: smaller dispatches sooner, ties in insertion order.
    ///
    /// `size`, `attained` and `arrival` share one time unit (ns in the
    /// runtime, cycles in the simulator), and `b` is Boost's `B` in that
    /// unit (see [`boost_ns`](Self::boost_ns)). `id` seeds SRPT's
    /// per-request estimate noise.
    pub fn rank(self, b: u64, id: u64, size: u64, attained: u64, arrival: u64) -> u64 {
        match self {
            PolicyKind::PsQuantum | PolicyKind::Fcfs => 0,
            PolicyKind::Srpt { noise_pct } => {
                let estimate = srpt_estimate(noise_pct, id, size);
                if attained < estimate {
                    estimate - attained
                } else {
                    // Estimate exhausted: the request overran its (noisy)
                    // size prediction, so its true remaining work is
                    // unknown. Fall back to elapsed-time ordering — the
                    // key grows with attained service, so an overrunner
                    // keeps sinking behind fresh short work instead of
                    // pinning key 0 (= highest priority) forever.
                    attained.max(1)
                }
            }
            PolicyKind::Boost { .. } => match size.checked_sub(attained) {
                Some(remaining) if remaining > 0 => {
                    arrival.saturating_sub(b.saturating_mul(b) / remaining)
                }
                // Size exhausted: clamping `remaining` to 1 would hand
                // the overrunner a B² head start — the *largest possible*
                // boost, priority inversion against genuinely short
                // work. Fall back to elapsed-time ordering: no boost, and
                // attained service pushes it ever later.
                _ => arrival.saturating_add(attained),
            },
        }
    }

    /// Parses the CLI/env spelling: `ps`, `fcfs`, `srpt`, `srpt:<pct>`,
    /// `boost`, `boost:<us>`. Rejects an SRPT error above 100 % and a
    /// Boost `B` whose nanosecond value overflows `u64`.
    pub fn parse(s: &str) -> Option<Self> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, arg) {
            ("ps" | "ps-quantum", None) => Some(PolicyKind::PsQuantum),
            ("fcfs", None) => Some(PolicyKind::Fcfs),
            ("srpt", None) => Some(PolicyKind::Srpt { noise_pct: 0 }),
            ("srpt", Some(p)) => {
                let noise_pct = p.parse().ok().filter(|&p| p <= SRPT_MAX_NOISE_PCT)?;
                Some(PolicyKind::Srpt { noise_pct })
            }
            ("boost", None) => Some(PolicyKind::Boost { boost_us: 10 }),
            ("boost", Some(b)) => {
                let boost_us = b
                    .parse()
                    .ok()
                    .filter(|us: &u64| us.checked_mul(1_000).is_some())?;
                Some(PolicyKind::Boost { boost_us })
            }
            _ => None,
        }
    }

    /// All four kinds with default parameters, for sweeps and benches.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::PsQuantum,
        PolicyKind::Fcfs,
        PolicyKind::Srpt { noise_pct: 0 },
        PolicyKind::Boost { boost_us: 10 },
    ];
}

/// SRPT's size estimate: `size` perturbed by a deterministic
/// per-request factor in `±noise_pct%` (seeded from the request id),
/// modelling the bounded-error estimators of Scully & Harchol-Balter
/// while keeping every run reproducible. `noise_pct = 0` is exact.
fn srpt_estimate(noise_pct: u32, id: u64, size: u64) -> u64 {
    if noise_pct == 0 {
        return size;
    }
    let pct = noise_pct.min(SRPT_MAX_NOISE_PCT) as i32;
    let mut rng = SmallRng::seed_from_u64(SRPT_NOISE_SALT ^ id);
    let shift = (size as i64).saturating_mul(i64::from(rng.gen_range(-pct..=pct))) / 100;
    size.saturating_add_signed(shift).max(1)
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::PsQuantum => write!(f, "ps"),
            PolicyKind::Fcfs => write!(f, "fcfs"),
            PolicyKind::Srpt { noise_pct } => write!(f, "srpt:{noise_pct}"),
            PolicyKind::Boost { boost_us } => write!(f, "boost:{boost_us}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXACT_SRPT: PolicyKind = PolicyKind::Srpt { noise_pct: 0 };
    const BOOST_10: PolicyKind = PolicyKind::Boost { boost_us: 10 };

    /// Rank of a request with the given size, attained service and
    /// arrival, all in ns — what the dispatcher computes on a requeue.
    fn rank(policy: PolicyKind, id: u64, size: u64, attained: u64, arrival: u64) -> u64 {
        policy.rank(policy.boost_ns(), id, size, attained, arrival)
    }

    /// Regression (pre-fix failure): a request that overran its SRPT
    /// size estimate collapsed to key 0 — the highest possible priority
    /// — and beat every genuinely short fresh request forever.
    #[test]
    fn srpt_overrun_sinks_behind_fresh_short_work() {
        // 10µs request that has already attained 12µs (estimate
        // exhausted, still not done), and a fresh 5µs request.
        let overrun = rank(EXACT_SRPT, 1, 10_000, 12_000, 0);
        let fresh = rank(EXACT_SRPT, 2, 5_000, 0, 50_000);
        assert!(
            overrun > fresh,
            "overrunner (key {overrun}) must not outrank fresh short work (key {fresh})"
        );
        // And the longer it overruns, the further back it goes.
        assert!(rank(EXACT_SRPT, 1, 10_000, 30_000, 0) > overrun);
        // Keys are never 0 (0 would pin the front of the queue).
        assert!(rank(EXACT_SRPT, 3, 10_000, 10_000, 0) > 0);
        // Normal SRPT ordering is untouched while the estimate holds.
        let half_done = rank(EXACT_SRPT, 4, 10_000, 6_000, 0);
        assert_eq!(half_done, 4_000);
        assert!(half_done < fresh);
    }

    /// Regression (pre-fix failure): clamping `remaining` to 1 handed an
    /// overrunning request a B² head start — the largest boost the
    /// policy can express — so it preempted ahead of short fresh work.
    #[test]
    fn boost_overrun_loses_its_headstart() {
        // Arrived at t=1ms, nominal 10µs, attained 10µs: exhausted.
        let overrun = rank(BOOST_10, 1, 10_000, 10_000, 1_000_000);
        // Fresh 1µs request arriving 100µs later.
        let fresh = rank(BOOST_10, 2, 1_000, 0, 1_100_000);
        assert!(
            overrun > fresh,
            "exhausted request (key {overrun}) must not outrank a later short \
             arrival (key {fresh})"
        );
        // Pre-fix the exhausted key was arrival − B²/1 = 0 (saturated).
        assert!(overrun >= 1_000_000);
        // Attained service keeps pushing an overrunner later.
        assert!(rank(BOOST_10, 1, 10_000, 40_000, 1_000_000) > overrun);
        // In-estimate behavior unchanged: remaining size sets the boost.
        let b = 10_000u64 * 10_000;
        assert_eq!(
            rank(BOOST_10, 3, 10_000, 4_000, 1_000_000),
            1_000_000 - b / 6_000
        );
    }

    #[test]
    fn parse_round_trips_display() {
        for kind in [
            PolicyKind::PsQuantum,
            PolicyKind::Fcfs,
            PolicyKind::Srpt { noise_pct: 0 },
            PolicyKind::Srpt { noise_pct: 25 },
            PolicyKind::Srpt { noise_pct: 100 },
            PolicyKind::Boost { boost_us: 10 },
            PolicyKind::Boost { boost_us: 500 },
        ] {
            assert_eq!(PolicyKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("ps"), Some(PolicyKind::PsQuantum));
        assert_eq!(PolicyKind::parse("srpt"), Some(EXACT_SRPT));
        assert_eq!(PolicyKind::parse("boost"), Some(BOOST_10));
        assert_eq!(PolicyKind::parse("lifo"), None);
        assert_eq!(PolicyKind::parse("srpt:x"), None);
    }

    /// Regression (pre-fix failure): `srpt:4294967295` parsed, turned
    /// into a `-1` half-width and panicked the dispatcher's first
    /// estimate with an empty `gen_range`.
    #[test]
    fn parse_rejects_out_of_range_srpt_noise() {
        assert_eq!(PolicyKind::parse("srpt:101"), None);
        assert_eq!(PolicyKind::parse("srpt:4294967295"), None);
        // Even a struct-literal out-of-range value ranks without panicking.
        let wild = PolicyKind::Srpt {
            noise_pct: u32::MAX,
        };
        assert!(rank(wild, 7, 50_000, 0, 0) <= 100_000);
    }

    /// Regression (pre-fix failure): a Boost `B` whose nanosecond value
    /// overflows `u64` parsed and overflowed on conversion.
    #[test]
    fn parse_rejects_overflowing_boost() {
        let max_us = u64::MAX / 1_000;
        assert_eq!(
            PolicyKind::parse(&format!("boost:{max_us}")),
            Some(PolicyKind::Boost { boost_us: max_us })
        );
        assert_eq!(PolicyKind::parse(&format!("boost:{}", max_us + 1)), None);
        assert_eq!(PolicyKind::parse(&format!("boost:{}", u64::MAX)), None);
    }

    #[test]
    fn only_fcfs_disables_preemption() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.preempts(), kind != PolicyKind::Fcfs, "policy {kind}");
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind), "policy {kind}");
        }
    }

    #[test]
    fn srpt_estimate_is_deterministic_and_bounded() {
        let noisy = PolicyKind::Srpt { noise_pct: 20 };
        let s = 50_000;
        for id in 0..200u64 {
            let e = rank(noisy, id, s, 0, 0);
            assert_eq!(
                e,
                rank(noisy, id, s, 0, 0),
                "estimate must be deterministic per id"
            );
            assert!(e >= s - s / 5 && e <= s + s / 5, "id {id}: {e}");
        }
        // Exact mode passes sizes through untouched.
        assert_eq!(rank(EXACT_SRPT, 7, 12_345, 0, 0), 12_345);
    }

    #[test]
    fn boost_headstart_shrinks_with_size() {
        // b(s) = B²/s with B = 10µs: a 1µs request gets a 100µs head
        // start, a 100µs request only 1µs — so a short request arriving
        // 50µs late still ranks ahead of the long one.
        assert_eq!(rank(BOOST_10, 1, 1_000, 0, 200_000), 100_000);
        assert_eq!(rank(BOOST_10, 2, 100_000, 0, 200_000), 199_000);
        assert!(rank(BOOST_10, 1, 1_000, 0, 250_000) < rank(BOOST_10, 2, 100_000, 0, 200_000));
        // Non-Boost policies carry no B.
        assert_eq!(EXACT_SRPT.boost_ns(), 0);
        assert_eq!(BOOST_10.boost_ns(), 10_000);
    }
}

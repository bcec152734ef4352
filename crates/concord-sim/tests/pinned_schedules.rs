//! Recorded simulator outcomes, one row per (policy, queue discipline),
//! on a fixed seed. The simulator is deterministic, so every row must
//! reproduce bit for bit; a change to how the central queue orders or
//! preempts work shows up here as a changed row.
//!
//! Regenerate (only when the simulated schedule is meant to change):
//! set `RECORDED` to `&[]`, run this test and paste the table its
//! failure message prints.

use concord_sim::{simulate, Policy, QueueDiscipline, SimParams, SystemConfig};
use concord_workloads::Workload;

/// The policies pinned here, in `PolicyKind::parse` spelling.
const POLICIES: [&str; 4] = ["ps", "fcfs", "srpt", "boost:10"];

/// Concord (cooperative preemption, 4 workers, q = 5 µs) with `policy`
/// on `queue`; JBSQ rows also run the work-conserving dispatcher.
fn config(policy: &str, queue: QueueDiscipline) -> SystemConfig {
    let mut cfg = SystemConfig::concord(4, 5_000);
    cfg.queue = queue;
    cfg.work_conserving = queue.is_jbsq();
    cfg.policy = Policy::parse(policy).expect("a policy spelling");
    cfg
}

/// (policy, queue, completed, preemptions, p99 slowdown bits, p99.9
/// slowdown bits) on Bimodal(50:1, 50:100) at load 0.7, 20,000
/// requests, seed 42.
#[rustfmt::skip]
const RECORDED: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("ps", "SQ", 20000, 191957, 0x403768f5c28f5c29, 0x4042b70a3d70a3d7),
    ("ps", "JBSQ(2)", 20000, 184072, 0x40261eb851eb851f, 0x4032a3d70a3d70a4),
    ("fcfs", "SQ", 20000, 0, 0x4060cf0a3d70a3d7, 0x406e23851eb851ec),
    ("fcfs", "JBSQ(2)", 20000, 0, 0x405a847ae147ae14, 0x4064380000000000),
    ("srpt", "SQ", 20000, 191957, 0x4013b851eb851eb8, 0x4016f5c28f5c28f6),
    ("srpt", "JBSQ(2)", 20000, 183842, 0x40206b851eb851ec, 0x4025570a3d70a3d7),
    ("boost:10", "SQ", 20000, 191957, 0x40611428f5c28f5c, 0x407196e147ae147b),
    ("boost:10", "JBSQ(2)", 20000, 183810, 0x4024f5c28f5c28f6, 0x404148f5c28f5c29),
];

fn row(policy: &str, queue: QueueDiscipline) -> (String, String, u64, u64, u64, u64) {
    let cfg = config(policy, queue);
    let workload = concord_workloads::mix::bimodal_50_1_50_100();
    let rate = 0.7 * cfg.n_workers as f64 * 1e9 / workload.mean_service_ns();
    let r = simulate(&cfg, workload, &SimParams::new(rate, 20_000, 42));
    (
        policy.to_string(),
        queue.name(),
        r.completed,
        r.preemptions,
        r.slowdown.p99().to_bits(),
        r.p999_slowdown().to_bits(),
    )
}

#[test]
fn per_policy_schedules_match_recorded_rows() {
    let mut got = Vec::new();
    for policy in POLICIES {
        for queue in [QueueDiscipline::SingleQueue, QueueDiscipline::Jbsq(2)] {
            got.push(row(policy, queue));
        }
    }
    let want: Vec<_> = RECORDED
        .iter()
        .map(|&(p, q, c, n, p99, p999)| (p.to_string(), q.to_string(), c, n, p99, p999))
        .collect();
    let table: String = got
        .iter()
        .map(|(p, q, c, n, p99, p999)| {
            format!("    (\"{p}\", \"{q}\", {c}, {n}, {p99:#018x}, {p999:#018x}),\n")
        })
        .collect();
    assert_eq!(got, want, "simulated rows changed; now:\n{table}");
}

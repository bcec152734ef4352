//! Scheduling-policy exploration (§3.1: Concord's dispatcher-centric
//! design supports arbitrary policies).
//!
//! Compares quantum PS against SRPT on Bimodal(50:1, 50:100), and sweeps
//! the JBSQ queue depth k to show why the paper picks k = 2.
//!
//! ```text
//! cargo run --release --example policy_explorer
//! ```

use concord::sim::experiments::{ideal_capacity_rps, Fidelity, PAPER_WORKERS};
use concord::sim::{simulate, Policy, QueueDiscipline, SimParams, SystemConfig};
use concord::workloads::dist::Dist;
use concord::workloads::mix::{self, ClassSpec, Mix};
use concord::workloads::Workload;

fn main() {
    let fid = Fidelity {
        requests: 40_000,
        load_points: 0,
        seed: 42,
    };
    // Run near saturation so the central queue actually builds up —
    // below ~60% load every policy makes the same decisions.
    println!("== policy comparison at 80% load, Bimodal(50:1,50:100), q=5us ==");
    println!(
        "{:<10} {:>10} {:>14} {:>14}",
        "policy", "p50", "p99.9 slowdown", "preemptions"
    );
    let wl2 = mix::bimodal_50_1_50_100();
    let cap2 = ideal_capacity_rps(PAPER_WORKERS, wl2.mean_service_ns());
    for policy in [Policy::PsQuantum, Policy::Srpt { noise_pct: 0 }] {
        let cfg = SystemConfig::concord(PAPER_WORKERS, 5_000).with_policy(policy);
        let r = simulate(
            &cfg,
            mix::bimodal_50_1_50_100(),
            &SimParams::new(0.8 * cap2, fid.requests, fid.seed),
        );
        println!(
            "{:<10} {:>10.2} {:>14.1} {:>14}",
            policy.to_string(),
            r.median_slowdown(),
            r.p999_slowdown(),
            r.preemptions
        );
    }

    // JBSQ depth: sweep on a fixed 5µs workload where the dispatcher has
    // headroom, so worker starvation (the c_next stall) is what varies.
    let fixed5 = || {
        Mix::new(
            "Fixed(5)",
            vec![ClassSpec::new("req", 1.0, Dist::fixed_us(5.0))],
        )
    };
    let cap3 = ideal_capacity_rps(PAPER_WORKERS, fixed5().mean_service_ns());
    println!("\n== JBSQ depth sweep at 85% load, Fixed(5us) (k=2 is the paper's sweet spot) ==");
    println!(
        "{:<8} {:>14} {:>16}",
        "k", "p99.9 slowdown", "worker idle (%)"
    );
    for k in [1u8, 2, 3, 4, 8] {
        let mut cfg = SystemConfig::concord(PAPER_WORKERS, 5_000);
        cfg.queue = QueueDiscipline::Jbsq(k);
        cfg.name = format!("JBSQ({k})");
        let r = simulate(
            &cfg,
            fixed5(),
            &SimParams::new(0.85 * cap3, fid.requests, fid.seed),
        );
        println!(
            "{:<8} {:>14.1} {:>16.2}",
            k,
            r.p999_slowdown(),
            100.0 * r.worker_idle_wait_frac()
        );
    }
}

//! Scheduling-policy comparison benchmark.
//!
//! Drives the same closed workload through the real runtime once per
//! scheduling policy (quantum-PS, FCFS, SRPT, Boost) across the paper's
//! workload mixes, then writes `BENCH_policy.json` with the slowdown
//! percentiles per (policy, mix) plus the simulator's numbers for the
//! same operating point as a deterministic reference column. CI runs
//! this per PR; the checked-in copy at the repo root is the scheduling
//! performance trajectory baseline (the gate holds quantum-PS's p99
//! within the conformance envelope of the baseline).
//!
//! ```text
//! policy_compare [--requests N] [--workers N] [--load-pct N]
//!                [--quantum-us N] [--seed N] [--out PATH]
//! ```

use concord_core::{PolicyKind, Runtime, RuntimeConfig, SpinApp};
use concord_net::{ring, Collector, LoadGen, Request, Response, RttModel};
use concord_sim::{simulate, QueueDiscipline, SimParams, SystemConfig};
use concord_workloads::mix::{self, Mix};
use concord_workloads::Workload;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    /// Requests per (policy, mix) runtime execution.
    requests: u64,
    /// Workers per runtime.
    workers: usize,
    /// Offered load as a percentage of ideal capacity.
    load_pct: u64,
    /// Scheduling quantum, microseconds.
    quantum_us: u64,
    /// Load-generator seed.
    seed: u64,
    /// Output path for the JSON report.
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: policy_compare [--requests N] [--workers N] [--load-pct N] \
         [--quantum-us N] [--seed N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 4_000,
        workers: 2,
        load_pct: 40,
        quantum_us: 20,
        seed: 42,
        out: "BENCH_policy.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--requests" => args.requests = need(i).parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = need(i).parse().unwrap_or_else(|_| usage()),
            "--load-pct" => args.load_pct = need(i).parse().unwrap_or_else(|_| usage()),
            "--quantum-us" => args.quantum_us = need(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = need(i).parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = need(i),
            _ => usage(),
        }
        i += 2;
    }
    if args.requests == 0 || args.workers == 0 || args.load_pct == 0 {
        usage();
    }
    args
}

/// The workload mixes compared: the two bimodal paper mixes where
/// policies genuinely diverge, and TPC-C as the multi-class case.
fn mixes() -> Vec<Mix> {
    vec![mix::bimodal_50_1_50_100(), mix::tpcc()]
}

struct RunResult {
    policy: PolicyKind,
    mix: String,
    completed: u64,
    p50: f64,
    p99: f64,
    p999: f64,
    sim_p99: f64,
    sim_p999: f64,
}

/// Offered rate: `load_pct`% of `workers / E[S]`.
fn rate_of(args: &Args, mix: &Mix) -> f64 {
    let mean_s = mix.mean_service_ns() * 1e-9;
    (args.workers as f64 / mean_s) * (args.load_pct as f64 / 100.0)
}

/// One (policy, mix) runtime execution plus the simulator reference at
/// the same operating point.
fn run_once(args: &Args, policy: PolicyKind, workload: Mix) -> RunResult {
    let cfg = RuntimeConfig::builder()
        .workers(args.workers)
        .quantum(Duration::from_micros(args.quantum_us))
        .jbsq_depth(2)
        .work_conserving(true)
        .policy(policy)
        .build()
        .expect("valid config");

    let rate = rate_of(args, &workload);
    let (req_tx, req_rx) = ring::<Request>(32 * 1024);
    let (resp_tx, resp_rx) = ring::<Response>(32 * 1024);
    let mut rt = Runtime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, workload.clone(), rate, args.requests, args.seed);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), args.seed);
    let ok = collector.collect(args.requests, Duration::from_secs(300));
    assert!(ok, "collector timed out under {policy}");
    let report = gen.join();
    assert_eq!(report.dropped, 0, "RX ring overflowed under {policy}");
    rt.quiesce();
    let telemetry = rt.telemetry();
    let stats = rt.shutdown();
    assert_eq!(
        stats.completed(),
        args.requests,
        "requests lost under {policy}"
    );

    // Simulator reference at the same operating point and policy.
    let mut sim_cfg =
        SystemConfig::concord(args.workers, args.quantum_us * 1_000).with_policy(policy);
    sim_cfg.queue = QueueDiscipline::Jbsq(2);
    let sim = simulate(
        &sim_cfg,
        workload.clone(),
        &SimParams::new(rate, args.requests, args.seed),
    );

    RunResult {
        policy,
        mix: workload.name().to_string(),
        completed: args.requests,
        p50: telemetry.slowdown_p50(),
        p99: telemetry.slowdown_p99(),
        p999: telemetry.slowdown_p999(),
        sim_p99: sim.slowdown.p99(),
        sim_p999: sim.slowdown.p999(),
    }
}

fn json_run(r: &RunResult) -> String {
    format!(
        "    {{\"policy\": \"{}\", \"mix\": \"{}\", \"completed\": {}, \
         \"p50_slowdown\": {:.2}, \"p99_slowdown\": {:.2}, \
         \"p999_slowdown\": {:.2}, \"sim_p99_slowdown\": {:.2}, \
         \"sim_p999_slowdown\": {:.2}}}",
        r.policy, r.mix, r.completed, r.p50, r.p99, r.p999, r.sim_p99, r.sim_p999
    )
}

fn main() {
    let args = parse_args();
    let mut runs = Vec::new();
    for workload in mixes() {
        for policy in PolicyKind::ALL {
            let r = run_once(&args, policy, workload.clone());
            eprintln!(
                "{:>28} {:>8}: p50 {:>8.2}  p99 {:>9.2}  p99.9 {:>9.2}  (sim p99 {:>8.2})",
                r.mix,
                r.policy.to_string(),
                r.p50,
                r.p99,
                r.p999,
                r.sim_p99
            );
            runs.push(r);
        }
    }

    let body = format!(
        "{{\n  \"bench\": \"policy\",\n  \"config\": {{\"requests\": {}, \
         \"workers\": {}, \"load_pct\": {}, \"quantum_us\": {}, \
         \"jbsq_depth\": 2, \"seed\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.requests,
        args.workers,
        args.load_pct,
        args.quantum_us,
        args.seed,
        runs.iter().map(json_run).collect::<Vec<_>>().join(",\n"),
    );
    let mut f = std::fs::File::create(&args.out).expect("create output");
    f.write_all(body.as_bytes()).expect("write output");
    eprintln!("wrote {}", args.out);
}

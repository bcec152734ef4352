//! Timed calls into single layers, outside any server: the wire codec
//! on a workload's own frames, the runtime's and the simulator's
//! central queues on one replayed operation sequence, the key-value
//! store on a replayed ZippyDB sequence, and the simulator itself.

use crate::loadgen::Plan;
use crate::stats::{median, percentile_of};
use concord_kv::Db;
use concord_net::Response;
use concord_sim::config::{Policy, SystemConfig};
use concord_sim::system::{simulate, SimParams};
use concord_sim::SimResult;
use concord_wire::frame::{self as wire, Frame, Status};
use concord_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Timing repetitions per microbenchmark; the median is reported.
const REPS: usize = 7;

/// Median over [`REPS`] of `f`'s time per item, in nanoseconds.
fn per_item_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&times)
}

/// Codec cost on the frames of `plan`.
pub struct WireCost {
    pub encode_req_ns: f64,
    pub decode_resp_ns: f64,
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

pub fn wire_cost(plan: &Plan) -> WireCost {
    let n = plan.len();
    let mut reqs = Vec::with_capacity(n * 32);
    let encode_req_ns = per_item_ns(n, || {
        reqs.clear();
        for i in 0..n {
            plan.encode(i, &mut reqs);
        }
        black_box(&reqs);
    });
    let now = Instant::now();
    let mut resps = Vec::with_capacity(n * 64);
    for i in 0..n {
        let resp = Response {
            id: i as u64,
            class: plan.class[i],
            service_ns: plan.service_ns[i],
            sent_at: now,
            finished_at: now,
            queue_ns: 1_000 + i as u64,
            busy_ns: plan.service_ns[i],
        };
        wire::encode_response(&mut resps, i as u64, &resp, Status::Ok);
    }
    let decode_resp_ns = per_item_ns(n, || {
        let mut at = 0;
        let mut sum = 0u64;
        while let Ok(Some((Frame::Response(r), used))) = wire::decode(black_box(&resps[at..])) {
            sum = sum.wrapping_add(r.queue_ns);
            at += used;
        }
        assert_eq!(at, resps.len(), "every encoded response decodes");
        black_box(sum);
    });
    WireCost {
        encode_req_ns,
        decode_resp_ns,
        req_bytes: reqs.len() as f64 / n as f64,
        resp_bytes: resps.len() as f64 / n as f64,
    }
}

/// One central-queue operation of a dispatcher: a fresh arrival, a
/// preempted request going back, or a dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    Fresh,
    Requeue,
    Pop,
}

/// A dispatcher-like sequence of `len` operations drawn from `seed`:
/// arrivals and dispatches balance, a third of dispatched requests come
/// back preempted, and the queue holds at most 256 entries.
pub fn queue_ops(seed: u64, len: usize) -> Vec<QueueOp> {
    let mut g = concord_workloads::Gen::new(seed);
    let (mut depth, mut running) = (0usize, 0usize);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let op = match g.u64_in(0, 9) {
            _ if depth == 0 && running == 0 => QueueOp::Fresh,
            0..=3 if depth < 256 => QueueOp::Fresh,
            4..=5 if running > 0 && depth < 256 => QueueOp::Requeue,
            _ if depth > 0 => QueueOp::Pop,
            _ if running > 0 && depth < 256 => QueueOp::Requeue,
            _ => QueueOp::Fresh,
        };
        match op {
            QueueOp::Fresh => depth += 1,
            QueueOp::Requeue => {
                running -= 1;
                depth += 1;
            }
            QueueOp::Pop => {
                depth -= 1;
                running += 1;
            }
        }
        ops.push(op);
    }
    ops
}

/// The ids `ops` dispatches, in order, through `concord_core`'s queue.
fn replay_core(ops: &[QueueOp], popped: &mut Vec<usize>) {
    let mut q = concord_core::central::CentralQueue::new();
    let (mut next, mut running) = (0usize, Vec::new());
    popped.clear();
    for op in ops {
        match op {
            QueueOp::Fresh => {
                q.push_fresh(next);
                next += 1;
            }
            QueueOp::Requeue => q.push_requeued(running.pop().expect("a running request")),
            QueueOp::Pop => {
                let id = q.pop_next().expect("a queued request");
                running.push(id);
                popped.push(id);
            }
        }
    }
}

/// The same replay through `concord_sim`'s FCFS queue (processor
/// sharing: preempted requests rejoin at the tail).
fn replay_sim(ops: &[QueueOp], arena: &[concord_sim::request::Request], popped: &mut Vec<usize>) {
    let mut q = concord_sim::request::CentralQueue::new(Policy::Fcfs);
    let (mut next, mut running) = (0usize, Vec::new());
    popped.clear();
    for op in ops {
        match op {
            QueueOp::Fresh => {
                q.push(next, arena);
                next += 1;
            }
            QueueOp::Requeue => q.push(running.pop().expect("a running request"), arena),
            QueueOp::Pop => {
                let id = q.pop().expect("a queued request");
                running.push(id);
                popped.push(id);
            }
        }
    }
}

/// Per-operation cost of both central queues on one replayed sequence,
/// and whether they dispatched the same ids in the same order.
pub struct QueueCost {
    pub core_op_ns: f64,
    pub sim_op_ns: f64,
    pub same_order: bool,
}

pub fn queue_cost(seed: u64) -> QueueCost {
    let ops = queue_ops(seed, 400_000);
    let fresh = ops.iter().filter(|o| **o == QueueOp::Fresh).count();
    let arena: Vec<_> = (0..fresh)
        .map(|i| concord_sim::request::Request::new(i as u64, 0, 1_000, i as u64))
        .collect();
    let (mut core_order, mut sim_order) = (Vec::new(), Vec::new());
    let core_op_ns = per_item_ns(ops.len(), || replay_core(black_box(&ops), &mut core_order));
    let sim_op_ns = per_item_ns(ops.len(), || {
        replay_sim(black_box(&ops), &arena, &mut sim_order)
    });
    QueueCost {
        core_op_ns,
        sim_op_ns,
        same_order: core_order == sim_order,
    }
}

/// Keys the store holds before the replay, as `concord-serve --app kv`
/// preloads them.
const KV_KEYS: u64 = 15_000;
/// Rows per `scan` call of a SCAN, as in `concord-serve --app kv`.
const KV_SCAN_CHUNK: usize = 512;
/// Replayed requests (about 3 % of them SCANs of the whole store).
const KV_REQUESTS: f64 = 6_000.0;

fn kv_key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Median time of one request of each ZippyDB class (GET, PUT, DELETE,
/// SCAN), in microseconds, and whether every answer was right.
pub struct KvCost {
    pub p50_us: [Option<f64>; 4],
    pub correct: Result<(), String>,
}

/// Replays the ZippyDB mix drawn from `seed` against a preloaded
/// `concord_kv::Db`, making the same calls per class as
/// `concord-serve --app kv` (without its preemption points), and checks
/// every GET and SCAN against the set of keys that should be live.
pub fn kv_cost(seed: u64) -> KvCost {
    let db = Db::new();
    for i in 0..KV_KEYS {
        db.put(kv_key(i), format!("value-{i:016}").into_bytes());
    }
    db.flush();
    let mut live = vec![true; KV_KEYS as usize];
    let mut live_count = KV_KEYS as usize;
    let plan = Plan::poisson(
        concord_workloads::mix::zippydb(),
        KV_REQUESTS,
        seed,
        1_000_000_000,
    );
    let mut times: [Vec<u64>; 4] = Default::default();
    let mut correct = Ok(());
    for (id, &class) in plan.class.iter().enumerate() {
        let slot = (id as u64).wrapping_mul(2_654_435_761) % KV_KEYS;
        let k = kv_key(slot);
        let t0 = Instant::now();
        let (hit, rows) = match class {
            1 => {
                db.put(k, format!("updated-{id}").into_bytes());
                (true, 0)
            }
            2 => {
                db.delete(k);
                (false, 0)
            }
            3 => {
                let (mut rows, mut from) = (0usize, Vec::new());
                loop {
                    let chunk = db.scan(&from, KV_SCAN_CHUNK);
                    rows += chunk.len();
                    match chunk.last() {
                        Some((last, _)) if chunk.len() == KV_SCAN_CHUNK => {
                            from = last.to_vec();
                            from.push(0);
                        }
                        _ => break,
                    }
                }
                (false, rows)
            }
            _ => (db.get(&k).is_some(), 0),
        };
        times[class as usize].push(t0.elapsed().as_nanos() as u64);
        let s = slot as usize;
        let want_ok = match class {
            0 => hit == live[s],
            3 => rows == live_count,
            _ => true,
        };
        if !want_ok && correct.is_ok() {
            correct = Err(format!(
                "kv replay request {id} (class {class}): got hit={hit} rows={rows}, \
                 want hit={} rows={live_count}",
                live[s]
            ));
        }
        match class {
            1 if !live[s] => (live[s], live_count) = (true, live_count + 1),
            2 if live[s] => (live[s], live_count) = (false, live_count - 1),
            _ => {}
        }
    }
    KvCost {
        p50_us: times.map(|t| percentile_of(t, 50.0).map(|ns| ns / 1e3)),
        correct,
    }
}

/// The `sim-bimodal` system: Concord with 14 workers and a 5 µs quantum.
pub fn sim_config() -> SystemConfig {
    SystemConfig::concord(14, 5_000)
}

/// Poisson rate that loads `cfg`'s workers to `load` on `workload`.
pub fn sim_rate<W: Workload>(cfg: &SystemConfig, workload: &W, load: f64) -> f64 {
    load * cfg.n_workers as f64 * 1e9 / workload.mean_service_ns()
}

/// One timed simulator run.
pub struct SimRun {
    pub wall_s: f64,
    pub result: SimResult,
}

pub fn sim_run<W: Workload>(workload: W, load: f64, requests: u64, seed: u64) -> SimRun {
    let cfg = sim_config();
    let rate = sim_rate(&cfg, &workload, load);
    let t0 = Instant::now();
    let result = simulate(&cfg, workload, &SimParams::new(rate, requests, seed));
    SimRun {
        wall_s: t0.elapsed().as_secs_f64(),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_ops_never_pop_an_empty_queue() {
        let ops = queue_ops(7, 50_000);
        let (mut depth, mut running) = (0i64, 0i64);
        for op in ops {
            match op {
                QueueOp::Fresh => depth += 1,
                QueueOp::Requeue => {
                    running -= 1;
                    depth += 1
                }
                QueueOp::Pop => {
                    depth -= 1;
                    running += 1
                }
            }
            assert!(depth >= 0 && running >= 0 && depth <= 256);
        }
    }

    #[test]
    fn both_central_queues_dispatch_in_the_same_order() {
        let ops = queue_ops(3, 20_000);
        let arena: Vec<_> = (0..20_000)
            .map(|i| concord_sim::request::Request::new(i, 0, 1_000, i))
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        replay_core(&ops, &mut a);
        replay_sim(&ops, &arena, &mut b);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}

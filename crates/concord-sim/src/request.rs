//! Request state and the central queue.

use crate::config::Policy;
use crate::cost::CostModel;

/// Index of a request in the simulation's arena.
pub type ReqId = usize;

/// The lifetime state of one simulated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Arrival-order id (also the warmup cutoff key).
    pub id: u64,
    /// Workload class tag.
    pub class: u16,
    /// Un-instrumented service time, in cycles. This is the denominator of
    /// the slowdown metric.
    pub service: u64,
    /// Un-instrumented work still to be done, in cycles.
    pub remaining: u64,
    /// Arrival timestamp, cycles.
    pub arrival: u64,
    /// How many times this request has been preempted.
    pub preemptions: u32,
    /// True once any thread has executed part of this request. The
    /// work-conserving dispatcher may only steal non-started requests
    /// (§3.3: instruction pointers differ between the two instrumented
    /// code versions).
    pub started: bool,
    /// True if the dispatcher owns this request (it can then never migrate
    /// back to a worker).
    pub dispatcher_owned: bool,
    /// Completion timestamp, cycles.
    pub completion: Option<u64>,
}

impl Request {
    /// Creates a fresh request.
    pub fn new(id: u64, class: u16, service_cycles: u64, arrival: u64) -> Self {
        Self {
            id,
            class,
            service: service_cycles.max(1),
            remaining: service_cycles.max(1),
            arrival,
            preemptions: 0,
            started: false,
            dispatcher_owned: false,
            completion: None,
        }
    }

    /// Sojourn time in cycles if completed.
    pub fn sojourn(&self) -> Option<u64> {
        self.completion.map(|c| c.saturating_sub(self.arrival))
    }
}

/// The dispatcher's central queue: the runtime's
/// [`concord_core::central::CentralQueue`] over arena ids, ranked by
/// the runtime's [`Policy::rank`] in cycles. Sharing both makes the
/// simulator dispatch in exactly the runtime's order.
pub struct CentralQueue {
    policy: Policy,
    /// Boost's `B`, in cycles.
    boost: u64,
    queue: concord_core::central::CentralQueue<ReqId>,
}

impl CentralQueue {
    /// An empty queue ranking by `policy` at the paper's default clock.
    pub fn new(policy: Policy) -> Self {
        Self::with_cost(policy, &CostModel::paper_default())
    }

    /// An empty queue ranking by `policy` in `cost`'s cycles.
    pub fn with_cost(policy: Policy, cost: &CostModel) -> Self {
        Self {
            policy,
            boost: cost.ns_to_cycles(policy.boost_ns()),
            queue: concord_core::central::CentralQueue::new(),
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a new or preempted request, ranked from its state in
    /// the `requests` arena.
    pub fn push(&mut self, id: ReqId, requests: &[Request]) {
        let r = &requests[id];
        let key = self.policy.rank(
            self.boost,
            r.id,
            r.service,
            r.service - r.remaining,
            r.arrival,
        );
        if r.started {
            self.queue.push_requeued_prio(key, id);
        } else {
            self.queue.push_fresh_prio(key, id);
        }
    }

    /// Pops the best-ranked request.
    pub fn pop(&mut self) -> Option<ReqId> {
        self.queue.pop_next()
    }

    /// Removes and returns the best-ranked *non-started* request, if
    /// any — the only kind the work-conserving dispatcher may take
    /// (§3.3). O(1).
    pub fn steal_not_started(&mut self) -> Option<ReqId> {
        self.queue.steal_not_started()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(remainings: &[u64]) -> Vec<Request> {
        remainings
            .iter()
            .enumerate()
            .map(|(i, &r)| Request::new(i as u64, 0, r, 0))
            .collect()
    }

    const SRPT: Policy = Policy::Srpt { noise_pct: 0 };

    #[test]
    fn fcfs_is_fifo() {
        let reqs = arena(&[30, 10, 20]);
        let mut q = CentralQueue::new(Policy::Fcfs);
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn srpt_orders_by_remaining() {
        let reqs = arena(&[30, 10, 20]);
        let mut q = CentralQueue::new(SRPT);
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.pop(), Some(1)); // remaining 10
        assert_eq!(q.pop(), Some(2)); // remaining 20
        assert_eq!(q.pop(), Some(0)); // remaining 30
    }

    #[test]
    fn srpt_ties_keep_arrival_order() {
        let reqs = arena(&[10, 10, 10]);
        let mut q = CentralQueue::new(SRPT);
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn boost_interpolates_fcfs_and_srpt() {
        // A short request (1k cycles) arriving well after two longs
        // (100k cycles each).
        let mk = |arrivals: &[(u64, u64)]| {
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &(svc, arr))| Request::new(i as u64, 0, svc, arr))
                .collect::<Vec<_>>()
        };
        let reqs = mk(&[
            (100_000, 1_000_000),
            (100_000, 2_000_000),
            (1_000, 3_000_000),
        ]);
        // No boost: arrival order, like FCFS.
        let mut q = CentralQueue::new(Policy::Boost { boost_us: 0 });
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // Large boost (50µs = 100k cycles): the short request's
        // b(s) = B²/s head start dominates its later arrival, like SRPT.
        let mut q = CentralQueue::new(Policy::Boost { boost_us: 50 });
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn steal_skips_started_requests() {
        let mut reqs = arena(&[10, 20, 30]);
        reqs[0].started = true;
        reqs[1].started = true;
        let mut q = CentralQueue::new(Policy::PsQuantum);
        for i in 0..3 {
            q.push(i, &reqs);
        }
        assert_eq!(q.steal_not_started(), Some(2));
        // The started ones remain, in order.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.steal_not_started(), None);
    }

    #[test]
    fn srpt_ranks_requeued_work_by_remaining() {
        // A started request with 5 cycles left outranks a fresh 10.
        let mut reqs = arena(&[30, 10]);
        reqs[0].started = true;
        reqs[0].remaining = 5;
        let mut q = CentralQueue::new(SRPT);
        q.push(1, &reqs);
        q.push(0, &reqs);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn request_sojourn() {
        let mut r = Request::new(0, 0, 100, 1_000);
        assert_eq!(r.sojourn(), None);
        r.completion = Some(1_500);
        assert_eq!(r.sojourn(), Some(500));
    }

    #[test]
    fn zero_service_clamps_to_one_cycle() {
        let r = Request::new(0, 0, 0, 0);
        assert_eq!(r.service, 1);
        assert_eq!(r.remaining, 1);
    }
}

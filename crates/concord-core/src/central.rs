//! The dispatcher's central queue, with the scheduling policy made
//! explicit in the data structure.
//!
//! # Ordering: priority key, then sequence
//!
//! Every entry carries a `(key, seq)` pair: a priority key — the
//! active policy's [`PolicyKind::rank`](crate::policy::PolicyKind::rank)
//! at (re-)insertion time — and a monotonically increasing sequence
//! number stamped by the queue. [`CentralQueue::pop_next`] always
//! returns the smallest live `(key, seq)` pair, so *smaller key
//! dispatches sooner* and ties resolve in insertion order. The runtime's
//! dispatcher and the simulator both queue through this type, so they
//! agree on dispatch order by construction.
//!
//! With every key 0 — the `PsQuantum` and `Fcfs` policies — the order
//! degenerates to pure sequence order, which is exactly the original
//! hard-coded behavior of this queue (pinned by the golden-schedule
//! tests below):
//!
//! - a fresh arrival enqueues at the tail;
//! - a preempted request re-enters *behind everything currently
//!   queued* — later arrivals included — exactly like textbook
//!   round-robin processor sharing (§3.1 of the paper). This is **not**
//!   FCFS re-entry (which would resume a preempted request ahead of
//!   requests that arrived after it).
//!
//! Keyed policies (`Srpt`, `Boost`) insert by key with a tail-backward
//! scan. Key-0 inserts stay O(1) (the seq stamp is monotone, so the
//! tail is always the right spot); keyed inserts are O(distance from
//! tail), which stays short because the queue drains in key order.
//!
//! # Why two deques
//!
//! The work-conserving dispatcher (§3.3) and the inter-shard steal path
//! may only take **not-yet-started** work: a started request's coroutine
//! is affine to its instrumentation domain. The old representation kept
//! one mixed deque and found a victim with `iter().position(|t|
//! !t.started)` followed by `remove(pos)` — O(n) per steal under
//! backlog, plus an O(n) `any()` in the idle tripwire. Splitting by
//! started-ness makes the steal a `pop_front` of the fresh deque (the
//! best-priority not-started entry; the oldest one under key-0
//! policies, the same victim the scan used to find), the not-started
//! count a `len()`, and both O(1).

use std::collections::VecDeque;

/// A priority- and sequence-ordered entry.
struct Entry<T> {
    key: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn rank(&self) -> (u64, u64) {
        (self.key, self.seq)
    }
}

/// The central run queue: `(key, seq)` priority order, O(1) pop and
/// steal, O(1) push for key-0 policies, and a free not-yet-started
/// count.
///
/// Generic over the queued item so the microbenchmarks can drive it with
/// plain integers; the dispatcher instantiates it with `Task`.
pub struct CentralQueue<T> {
    /// Never-started entries, ascending `(key, seq)`.
    fresh: VecDeque<Entry<T>>,
    /// Preempted entries re-entering the cycle, ascending `(key, seq)`.
    requeued: VecDeque<Entry<T>>,
    /// Next sequence number to stamp.
    next_seq: u64,
}

impl<T> Default for CentralQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Inserts an entry keeping the deque ascending by `(key, seq)`,
/// scanning backward from the tail. A fresh stamp with key 0 (or any
/// key ≥ the current tail's) lands immediately — O(1) on the paths the
/// round-robin policies use.
fn insert_sorted<T>(deque: &mut VecDeque<Entry<T>>, entry: Entry<T>) {
    let mut at = deque.len();
    while at > 0 && deque[at - 1].rank() > entry.rank() {
        at -= 1;
    }
    deque.insert(at, entry);
}

impl<T> CentralQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            fresh: VecDeque::new(),
            requeued: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Enqueues a new arrival with key 0: the round-robin tail.
    pub fn push_fresh(&mut self, item: T) {
        self.push_fresh_prio(0, item);
    }

    /// Enqueues a new arrival with a policy-chosen priority key.
    pub fn push_fresh_prio(&mut self, key: u64, item: T) {
        let seq = self.stamp();
        insert_sorted(&mut self.fresh, Entry { key, seq, item });
    }

    /// Re-enqueues a preempted item with key 0: behind every currently
    /// queued key-0 entry, later arrivals included (processor-sharing
    /// round-robin, not FCFS re-entry — see the module docs).
    pub fn push_requeued(&mut self, item: T) {
        self.push_requeued_prio(0, item);
    }

    /// Re-enqueues a preempted item with a policy-chosen priority key.
    pub fn push_requeued_prio(&mut self, key: u64, item: T) {
        let seq = self.stamp();
        insert_sorted(&mut self.requeued, Entry { key, seq, item });
    }

    /// Dequeues the next item: the smallest live `(key, seq)` pair
    /// across both internal deques. O(1).
    pub fn pop_next(&mut self) -> Option<T> {
        let take_fresh = match (self.fresh.front(), self.requeued.front()) {
            (Some(f), Some(r)) => f.rank() < r.rank(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let e = if take_fresh {
            self.fresh.pop_front()
        } else {
            self.requeued.pop_front()
        };
        e.map(|e| e.item)
    }

    /// Removes and returns the best-priority never-started item — under
    /// key-0 policies the oldest one, the same victim the old O(n)
    /// `position(|t| !t.started)` scan selected — in O(1). Used by the
    /// work-conserving dispatcher and the inter-shard steal path, both
    /// of which must not move started work.
    pub fn steal_not_started(&mut self) -> Option<T> {
        self.fresh.pop_front().map(|e| e.item)
    }

    /// Removes and returns the **worst-priority** never-started item
    /// (the youngest, under key-0 policies). The shard offload path
    /// sheds from this end so the best-ranked local work keeps its
    /// position in the local order.
    pub fn take_youngest_not_started(&mut self) -> Option<T> {
        self.fresh.pop_back().map(|e| e.item)
    }

    /// Queued items (both kinds).
    pub fn len(&self) -> usize {
        self.fresh.len() + self.requeued.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fresh.is_empty() && self.requeued.is_empty()
    }

    /// Never-started items currently queued. O(1) — this used to be an
    /// O(n) `iter().any()` in the dispatcher's idle tripwire.
    pub fn not_started(&self) -> usize {
        self.fresh.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_global_insertion_order() {
        let mut q = CentralQueue::new();
        q.push_fresh("a");
        q.push_requeued("b");
        q.push_fresh("c");
        q.push_requeued("d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn requeue_goes_behind_later_arrivals() {
        // Round-robin: a preempted item re-enters behind an arrival that
        // came in while it ran.
        let mut q = CentralQueue::new();
        q.push_fresh("late-arrival");
        q.push_requeued("preempted");
        assert_eq!(q.pop_next(), Some("late-arrival"));
        assert_eq!(q.pop_next(), Some("preempted"));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn steal_takes_oldest_fresh_only() {
        let mut q = CentralQueue::new();
        q.push_requeued(0); // started: never a steal victim
        q.push_fresh(1);
        q.push_fresh(2);
        assert_eq!(q.not_started(), 2);
        assert_eq!(q.steal_not_started(), Some(1));
        assert_eq!(q.not_started(), 1);
        // The started entry is untouched and keeps its order.
        assert_eq!(q.pop_next(), Some(0));
        assert_eq!(q.pop_next(), Some(2));
        assert_eq!(q.steal_not_started(), None);
    }

    #[test]
    fn offload_takes_youngest_fresh() {
        let mut q = CentralQueue::new();
        q.push_fresh(1);
        q.push_fresh(2);
        q.push_requeued(3);
        assert_eq!(q.take_youngest_not_started(), Some(2));
        assert_eq!(q.pop_next(), Some(1));
        assert_eq!(q.pop_next(), Some(3));
    }

    /// Golden schedule, single worker: drive the queue through the exact
    /// dispatch/preempt/requeue cycle the dispatcher performs for one
    /// worker with JBSQ depth 1, on a virtual timeline (each step is one
    /// quantum). Pins the `PsQuantum` (all keys 0) order: processor
    /// sharing, not FCFS re-entry.
    #[test]
    fn golden_single_worker_requeue_schedule() {
        let mut q = CentralQueue::new();
        let mut schedule = Vec::new();
        // t=0: "a" (needs 3 quanta) and "b" (1 quantum) arrive.
        q.push_fresh("a");
        q.push_fresh("b");
        // Quantum 1: dispatch "a"; "c" (2 quanta) arrives while it runs;
        // "a" is preempted and re-enters at the global tail.
        schedule.push(q.pop_next().unwrap());
        q.push_fresh("c");
        q.push_requeued("a");
        // Quantum 2: "b" runs to completion.
        schedule.push(q.pop_next().unwrap());
        // Quantum 3: "c" runs (arrived before "a" was requeued), gets
        // preempted, re-enters behind "a".
        schedule.push(q.pop_next().unwrap());
        q.push_requeued("c");
        // Quanta 4-7: round-robin between the two preempted tasks.
        schedule.push(q.pop_next().unwrap());
        q.push_requeued("a");
        schedule.push(q.pop_next().unwrap());
        schedule.push(q.pop_next().unwrap());
        assert_eq!(q.pop_next(), None);
        // Processor-sharing round-robin: preempted work cycles behind
        // later arrivals, giving a-b-c-a-c-a — NOT FCFS re-entry
        // (a-a-b-c...) and NOT SRPT (which would finish b then c first).
        assert_eq!(schedule, vec!["a", "b", "c", "a", "c", "a"]);
    }

    /// Golden schedule, two workers: pops happen in pairs (both JBSQ
    /// slots refill each virtual tick) with preemptions interleaved.
    /// Requeue order must stay globally seq-ordered even when multiple
    /// workers requeue between pops.
    #[test]
    fn golden_multi_worker_requeue_schedule() {
        let mut q = CentralQueue::new();
        let mut schedule = Vec::new();
        // t=0: four arrivals.
        for name in ["a", "b", "c", "d"] {
            q.push_fresh(name);
        }
        // Tick 1: workers 0 and 1 take "a" and "b"; both are preempted
        // (worker 0 first), re-entering behind "c" and "d".
        schedule.push(q.pop_next().unwrap()); // a -> w0
        schedule.push(q.pop_next().unwrap()); // b -> w1
        q.push_requeued("a");
        q.push_requeued("b");
        // Tick 2: "e" arrives, then both workers refill with c, d.
        q.push_fresh("e");
        schedule.push(q.pop_next().unwrap()); // c -> w0
        schedule.push(q.pop_next().unwrap()); // d -> w1
                                              // Worker 1 preempts "d" before worker 0 preempts "c": the
                                              // requeue order is the message-arrival order, and later pops
                                              // must honor it.
        q.push_requeued("d");
        q.push_requeued("c");
        // Tick 3 onward: drain one pop per step, completing each.
        while let Some(t) = q.pop_next() {
            schedule.push(t);
        }
        assert_eq!(schedule, vec!["a", "b", "c", "d", "a", "b", "e", "d", "c"]);
    }

    #[test]
    fn keyed_pop_orders_by_key_then_seq() {
        let mut q = CentralQueue::new();
        q.push_fresh_prio(30, "slow");
        q.push_fresh_prio(10, "fast");
        q.push_fresh_prio(10, "fast2"); // tie: insertion order
        q.push_requeued_prio(20, "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, vec!["fast", "fast2", "mid", "slow"]);
    }

    #[test]
    fn keyed_steal_takes_best_priority_fresh() {
        let mut q = CentralQueue::new();
        q.push_fresh_prio(50, "long");
        q.push_fresh_prio(5, "short");
        q.push_requeued_prio(1, "running"); // started: never stolen
        assert_eq!(q.steal_not_started(), Some("short"));
        assert_eq!(q.take_youngest_not_started(), Some("long"));
        assert_eq!(q.pop_next(), Some("running"));
    }

    #[test]
    fn counts_and_emptiness() {
        let mut q: CentralQueue<u32> = CentralQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push_fresh(1);
        q.push_requeued(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.not_started(), 1);
        q.pop_next();
        q.pop_next();
        assert!(q.is_empty());
    }
}

//! Differential property test: the central queue behaves exactly like a
//! naive model — a flat list of `(key, seq, item, started)` searched
//! linearly — under arbitrary interleavings of fresh and requeued
//! pushes, pops, work-conserving steals and shard offloads, with random
//! (and often tied) priority keys.

use concord_core::central::CentralQueue;
use concord_testkit::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    PushFresh(u64),
    PushRequeued(u64),
    Pop,
    Steal,
    TakeYoungest,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..8).prop_map(Op::PushFresh),
        2 => (0u64..8).prop_map(Op::PushRequeued),
        3 => Just(Op::Pop),
        1 => Just(Op::Steal),
        1 => Just(Op::TakeYoungest),
    ]
}

/// The reference queue: every entry in one list, each selection a scan.
#[derive(Default)]
struct Model {
    /// (key, seq, item, started)
    entries: Vec<(u64, u64, u32, bool)>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, key: u64, item: u32, started: bool) {
        self.entries.push((key, self.next_seq, item, started));
        self.next_seq += 1;
    }

    /// Removes the entry with the smallest (`best`) or largest `(key,
    /// seq)` among those `eligible`.
    fn take(&mut self, best: bool, eligible: impl Fn(bool) -> bool) -> Option<u32> {
        let candidates = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| eligible(e.3));
        let rank = |(_, e): &(usize, &(u64, u64, u32, bool))| (e.0, e.1);
        let (at, _) = if best {
            candidates.min_by_key(rank)?
        } else {
            candidates.max_by_key(rank)?
        };
        Some(self.entries.remove(at).2)
    }
}

proptest! {
    #[test]
    fn central_queue_matches_linear_scan_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut q = CentralQueue::new();
        let mut model = Model::default();
        let mut next_item = 0u32;
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = match *op {
                Op::PushFresh(key) => {
                    q.push_fresh_prio(key, next_item);
                    model.push(key, next_item, false);
                    next_item += 1;
                    (None, None)
                }
                Op::PushRequeued(key) => {
                    q.push_requeued_prio(key, next_item);
                    model.push(key, next_item, true);
                    next_item += 1;
                    (None, None)
                }
                Op::Pop => (q.pop_next(), model.take(true, |_| true)),
                Op::Steal => (q.steal_not_started(), model.take(true, |started| !started)),
                Op::TakeYoungest => (
                    q.take_youngest_not_started(),
                    model.take(false, |started| !started),
                ),
            };
            prop_assert_eq!(got, want, "step {} ({:?})", step, op);
            prop_assert_eq!(q.len(), model.entries.len(), "len after step {}", step);
            prop_assert_eq!(q.is_empty(), model.entries.is_empty());
            let not_started = model.entries.iter().filter(|e| !e.3).count();
            prop_assert_eq!(q.not_started(), not_started, "not_started after step {}", step);
        }
    }
}

//! The event queue and the event arena.
//!
//! The kernel's hot loop is "pop the earliest event, run it, repeat", so
//! both the *queue discipline* and the *allocation pattern* matter:
//!
//! * **Arena (slab) storage.** Every scheduled action lives in a recycled
//!   slot of an `Arena`: the queue itself holds only `Copy` `Entry`
//!   triples `(at, seq, slot)` — 24 bytes, no destructor — so sifts are
//!   plain moves and the slab's free list recycles slots instead of
//!   round-tripping the allocator per event. The slab grows to the peak
//!   number of *concurrently pending* events and then stays flat (see the
//!   arena-recycling property test).
//!
//! * **Binary heap** (`EventQueue`): a min-heap of those triples. Push
//!   and pop are O(log n) in the pending population, which on every
//!   workload of the reproduction is small — the serving sweeps peak at
//!   ~800 pending events, so a pop sifts through about ten levels of one
//!   contiguous, cache-resident array. Peeking the earliest time is a
//!   read of the root.
//!
//!   The kernel used to default to a calendar queue (a ring of time
//!   buckets, O(1) push). It won a synthetic drain of 4 M bulk-injected
//!   events, but it sized its bucket width from the span up to the
//!   furthest event ever seen. The YCSB driver schedules one std-err tick
//!   seconds ahead, so the ring started 67 ms per bucket while the live
//!   events sat within 90 ms, and each pop scanned 140–200 bucket
//!   entries on average. The heap ran the YCSB sweeps 2.7–2.9× faster
//!   with every simulated number unchanged, so it is now the only queue.
//!   PERFORMANCE.md has the measurements.
//!
//! Ordering contract: strictly increasing `(at, seq)` — earliest time
//! first, FIFO among equal times via the monotone sequence number. This
//! is the determinism contract every byte-diffed artifact in `results/`
//! rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::resource::ResourceId;
use crate::sim::{Event, SimTime};

/// What a scheduled event *does* when it fires. `Call` is a user closure;
/// `Completion` is a kernel-native resource-service completion, which the
/// old kernel modelled as a second `Box` wrapped around the user's `done`
/// closure — one allocation per resource request that the arena kills.
pub(crate) enum Action<W> {
    Call(Event<W>),
    Completion {
        res: ResourceId,
        req: u64,
        ctx: Option<u64>,
        client: Option<u32>,
        done: Event<W>,
    },
}

/// Recycling slab of pending [`Action`]s. Slots freed by fired events are
/// reused before the slab grows, so capacity tracks *peak concurrency*,
/// not total event count.
pub(crate) struct Arena<W> {
    slots: Vec<Option<Action<W>>>,
    free: Vec<u32>,
}

impl<W> Arena<W> {
    pub(crate) fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, action: Action<W>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(action);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX events concurrently pending");
                self.slots.push(Some(action));
                slot
            }
        }
    }

    pub(crate) fn take(&mut self, slot: u32) -> Action<W> {
        let action = self.slots[slot as usize]
            .take()
            .expect("event slot fired twice or never filled");
        self.free.push(slot);
        action
    }

    /// Total slots ever allocated — the peak-concurrency high-water mark.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a pending event.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Queue entry: the full ordering key plus the arena slot. `Copy`, no
/// destructor. The derived order is lexicographic in field order, i.e.
/// by `(at, seq)`; `seq` is unique, so `slot` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Entry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

/// The pending-event priority queue: a binary min-heap of [`Entry`]s.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, e: Entry) {
        self.heap.push(Reverse(e));
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Earliest pending event time, without disturbing order.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: SimTime, seq: u64) -> Entry {
        Entry {
            at,
            seq,
            slot: seq as u32,
        }
    }

    /// Oracle check: any push sequence drains in exact (at, seq) order.
    fn drains_sorted(mut entries: Vec<Entry>) {
        let mut q = EventQueue::new();
        for e in &entries {
            q.push(*e);
        }
        entries.sort_by_key(|e| (e.at, e.seq));
        for want in entries {
            assert_eq!(q.peek_time(), Some(want.at));
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_ties_pop_fifo() {
        let es = vec![
            entry(5, 3),
            entry(5, 1),
            entry(4, 2),
            entry(5, 0),
            entry(0, 4),
        ];
        drains_sorted(es);
    }

    #[test]
    fn orders_dense_sparse_and_far_future_events() {
        // Nanosecond-dense clusters, events spread over seconds, and a few
        // far-future outliers (the shape of a driver's std-err ticks).
        let mut es = Vec::new();
        for i in 0..50u64 {
            es.push(entry(i % 7, i));
            es.push(entry(i * 80_000_000 + 7, 100 + i));
            es.push(entry(9_000_000_000 + i, 200 + i));
        }
        drains_sorted(es);
    }

    #[test]
    fn interleaved_push_pop_matches_btreeset_model() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut state = 0x243F6A8885A308D3u64; // deterministic LCG-ish walk
        let mut next = |lo: u64, hi: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (state >> 33) % (hi - lo)
        };
        let mut now = 0u64;
        let mut pending = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            if pending.is_empty() || next(0, 3) > 0 {
                let at = now + next(0, 1 << 22);
                q.push(entry(at, seq));
                pending.insert((at, seq));
                seq += 1;
            } else {
                let want = pending.pop_first().expect("non-empty");
                assert_eq!(q.peek_time(), Some(want.0));
                let got = q.pop().expect("queue tracks the model");
                assert_eq!((got.at, got.seq), want);
                now = got.at;
            }
            assert_eq!(q.len(), pending.len());
        }
        while let Some(got) = q.pop() {
            let want = pending.pop_first().expect("model has it");
            assert_eq!((got.at, got.seq), want);
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a: Arena<()> = Arena::new();
        let s0 = a.insert(Action::Call(Box::new(|_, _| {})));
        let s1 = a.insert(Action::Call(Box::new(|_, _| {})));
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.live(), 2);
        a.take(s0);
        let s2 = a.insert(Action::Call(Box::new(|_, _| {})));
        assert_eq!(s2, s0, "freed slot is reused before the slab grows");
        assert_eq!(a.capacity(), 2);
        a.take(s1);
        a.take(s2);
        assert_eq!(a.live(), 0);
    }
}

//! Event scheduling backends and the event arena.
//!
//! The kernel's hot loop is "pop the earliest event, run it, repeat" — at
//! the 16 TB scale factors and million-user serving scenarios the ROADMAP
//! targets, hundreds of millions of events flow through it, so both the
//! *queue discipline* and the *allocation pattern* matter:
//!
//! * **Arena (slab) storage.** Every scheduled action lives in a recycled
//!   slot of a `Arena`: the priority structure itself holds only `Copy`
//!   `Entry` triples `(at, seq, slot)` — 24 bytes, no destructor — so
//!   sift/bucket operations are plain memmoves and the slab's free list
//!   recycles slots instead of round-tripping the allocator per event.
//!   The slab grows to the peak number of *concurrently pending* events
//!   and then stays flat (see the arena-recycling property test).
//!
//! * **Calendar queue** (`CalendarQueue`, the default backend): a ring
//!   of time buckets of power-of-two width. Push indexes straight into a
//!   bucket (O(1)); pop scans the small current bucket for its minimum
//!   `(at, seq)` key. Events beyond the ring's horizon wait in a spill
//!   heap and are claimed by the same year check every pop performs, so
//!   ordering is exact — **bit-identical to the binary heap** — while the
//!   common case never pays an O(log n) sift over a pointer-fat heap.
//!   The ring resizes (grow-only, deterministically, from event count and
//!   span) as the pending population grows.
//!
//! * **Binary heap** ([`SchedulerKind::Heap`]): the pre-calendar discipline,
//!   kept as an always-available A/B oracle. The scheduler-equivalence
//!   suite runs whole engine workloads under both backends and requires
//!   identical probe streams; an [`override_thread_default`] guard selects
//!   it for every `Sim::new` on the thread.
//!
//! Ordering contract (both backends): strictly increasing `(at, seq)` —
//! earliest time first, FIFO among equal times via the monotone sequence
//! number. This is the determinism contract every byte-diffed artifact in
//! `results/` rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::resource::ResourceId;
use crate::sim::{Event, SimTime};

/// Which event-queue discipline a [`Sim`](crate::Sim) uses. Both produce
/// the exact same event order; they differ only in constant factors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// Bucketed calendar queue (the default): O(1) push, small-scan pop.
    Calendar,
    /// Binary heap of `(at, seq, slot)` triples: the fallback/oracle.
    Heap,
}

thread_local! {
    static THREAD_DEFAULT: std::cell::Cell<Option<SchedulerKind>> =
        const { std::cell::Cell::new(None) };
}

/// The backend `Sim::new` uses on this thread: the innermost live
/// [`SchedulerOverride`], or [`SchedulerKind::Calendar`] when none is
/// active.
pub fn thread_default() -> SchedulerKind {
    THREAD_DEFAULT
        .with(|c| c.get())
        .unwrap_or(SchedulerKind::Calendar)
}

/// RAII guard that makes every `Sim::new` on this thread use `kind` until
/// the guard drops. This is how the scheduler-equivalence tests run whole
/// engine workloads (which construct their `Sim` internally) under the
/// heap oracle without threading a parameter through every engine API.
#[must_use = "the override lasts only while the guard is alive"]
pub struct SchedulerOverride {
    prev: Option<SchedulerKind>,
}

/// Install a thread-local default-scheduler override (see
/// [`SchedulerOverride`]). Overrides nest; each guard restores what it saw.
pub fn override_thread_default(kind: SchedulerKind) -> SchedulerOverride {
    let prev = THREAD_DEFAULT.with(|c| c.replace(Some(kind)));
    SchedulerOverride { prev }
}

impl Drop for SchedulerOverride {
    fn drop(&mut self) {
        THREAD_DEFAULT.with(|c| c.set(self.prev));
    }
}

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
/// destructor — both backends shuffle only these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Entry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The pending-event priority structure, behind a runtime-selected backend.
pub(crate) enum EventQueue {
    Calendar(CalendarQueue),
    Heap(BinaryHeap<Reverse<(SimTime, u64, u32)>>),
}

impl EventQueue {
    pub(crate) fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            SchedulerKind::Heap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    pub(crate) fn kind(&self) -> SchedulerKind {
        match self {
            EventQueue::Calendar(_) => SchedulerKind::Calendar,
            EventQueue::Heap(_) => SchedulerKind::Heap,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, e: Entry) {
        match self {
            EventQueue::Calendar(c) => c.push(e),
            EventQueue::Heap(h) => h.push(Reverse((e.at, e.seq, e.slot))),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        match self {
            EventQueue::Calendar(c) => c.pop(),
            EventQueue::Heap(h) => h
                .pop()
                .map(|Reverse((at, seq, slot))| Entry { at, seq, slot }),
        }
    }

    /// Earliest pending event time, without disturbing order.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Calendar(c) => c.peek_time(),
            EventQueue::Heap(h) => h.peek().map(|Reverse((at, ..))| *at),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(c) => c.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }
}

/// Initial ring size; grows (powers of two) as the pending set grows.
const INITIAL_BUCKETS: usize = 256;
/// Initial bucket width exponent: 2^17 ns ≈ 131 µs. Resizes re-derive the
/// width from the observed event span, so this only seeds small sims.
const INITIAL_SHIFT: u32 = 17;
/// Ring size cap: beyond this, extra events deepen buckets instead.
/// 2^21 buckets ≈ 50 MB of bucket headers — large enough that
/// multi-million-event populations keep buckets short (the pop scan is
/// the calendar's only super-constant work), small enough to stay a
/// rounding error next to the events themselves.
const MAX_BUCKETS: usize = 1 << 21;
/// Bucket width ceiling: 2^40 ns (~18 min of sim time) per bucket keeps
/// window jumps cheap. No floor: nanosecond-dense workloads want
/// single-nanosecond buckets.
const MAX_SHIFT: u32 = 40;
/// Recalibration cadence: every this-many pops, compare the measured
/// insert/advance work against the thresholds below and re-derive the
/// bucket width if the ring is mis-tuned for the current event density.
const RECAL_PERIOD: u64 = 4096;
/// Width too *wide*: pops scan more than this many bucket entries on
/// average (entries pile into few long buckets).
const MAX_SCAN_PER_POP: u64 = 16;
/// Width too *narrow*: pops step over more than this many empty buckets
/// on average.
const MAX_ADVANCE_PER_POP: u64 = 6;

/// A calendar queue: `nb` buckets (power of two) of `2^shift` ns each,
/// covering a rolling window ("year" per bucket) of `nb << shift` ns from
/// `ring_start`. Events beyond the window spill to an overflow heap.
///
/// Buckets are unsorted: push is a pure append (one streamed write) and
/// pop scans the small current bucket for its minimum — cheaper than
/// keeping buckets sorted as long as buckets stay short, which the width
/// tuning guarantees. Besides growing with the pending population, the
/// queue counts the work its two loops actually do — bucket entries
/// scanned per pop (width too wide: everything piles into few long
/// buckets) and empty buckets stepped over (width too narrow) — and
/// re-derives the width from the live event span whenever a
/// [`RECAL_PERIOD`] window shows the ring mis-tuned. Both triggers depend
/// only on event data, so resizing is deterministic.
///
/// Invariant: `ring_start <= at` for every stored event — maintained by
/// pop (which advances the window only past empty-or-future buckets) and
/// by push (which *rewinds* the window when handed an earlier event, legal
/// precisely because such an event is a new global minimum).
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    mask: usize,
    shift: u32,
    /// Index of the bucket whose year starts at `ring_start`.
    cur: usize,
    /// Start time of the current bucket's year (multiple of bucket width).
    ring_start: SimTime,
    /// Events stored in the ring (the overflow heap is counted separately).
    ring_len: usize,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// A popped-but-unconsumed entry (backs [`CalendarQueue::peek_time`]).
    staged: Option<Entry>,
    /// Pops since the last recalibration check.
    pops: u64,
    /// Bucket entries scanned by pops since the last check.
    scanned: u64,
    /// Empty buckets stepped over since the last check.
    advances: u64,
    /// Largest event time ever stored (stale after pops; used only to
    /// estimate the span when deciding whether to re-derive the width).
    max_seen: SimTime,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            mask: INITIAL_BUCKETS - 1,
            shift: INITIAL_SHIFT,
            cur: 0,
            ring_start: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            staged: None,
            pops: 0,
            scanned: 0,
            advances: 0,
            max_seen: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + usize::from(self.staged.is_some())
    }

    #[inline]
    fn width(&self) -> SimTime {
        1u64 << self.shift
    }

    #[inline]
    fn span(&self) -> SimTime {
        (self.buckets.len() as u64)
            .checked_shl(self.shift)
            .unwrap_or(u64::MAX)
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at >> self.shift) as usize) & self.mask
    }

    #[inline]
    fn year_start(&self, at: SimTime) -> SimTime {
        (at >> self.shift) << self.shift
    }

    pub(crate) fn push(&mut self, e: Entry) {
        // A staged peek is conceptually "next out"; re-queue it so the new
        // event competes on the ordinary (at, seq) key.
        if let Some(s) = self.staged.take() {
            self.raw_push(s);
        }
        self.raw_push(e);
        self.maybe_grow();
    }

    fn raw_push(&mut self, e: Entry) {
        self.max_seen = self.max_seen.max(e.at);
        if e.at < self.ring_start {
            // Rewind: every stored event is >= ring_start > e.at, so `e`
            // is the new global minimum and moving the window back to its
            // year preserves the scan order exactly.
            self.cur = self.bucket_of(e.at);
            self.ring_start = self.year_start(e.at);
        }
        if e.at - self.ring_start < self.span() {
            let b = self.bucket_of(e.at);
            self.buckets[b].push(e);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((e.at, e.seq, e.slot)));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Entry> {
        if let Some(s) = self.staged.take() {
            return Some(s);
        }
        self.pop_scan()
    }

    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.staged.is_none() {
            self.staged = self.pop_scan();
        }
        self.staged.map(|e| e.at)
    }

    fn pop_scan(&mut self) -> Option<Entry> {
        self.pops += 1;
        if self.pops >= RECAL_PERIOD {
            self.maybe_recalibrate();
        }
        if self.ring_len == 0 {
            // Ring empty: the overflow heap holds the global minimum.
            let Reverse((at, seq, slot)) = self.overflow.pop()?;
            self.cur = self.bucket_of(at);
            self.ring_start = self.year_start(at);
            return Some(Entry { at, seq, slot });
        }
        let mut steps = 0usize;
        loop {
            let year_end = self.ring_start.saturating_add(self.width());
            // Best in-year candidate from a scan of the current bucket
            // (buckets are short by construction — the scan IS the width
            // tuning signal)...
            let bucket = &self.buckets[self.cur];
            self.scanned += bucket.len() as u64;
            let mut best: Option<(usize, (SimTime, u64))> = None;
            for (i, e) in bucket.iter().enumerate() {
                let better = match best {
                    None => e.at < year_end,
                    Some((_, k)) => e.at < year_end && e.key() < k,
                };
                if better {
                    best = Some((i, e.key()));
                }
            }
            // ...competing with the overflow head if it entered the year.
            let over = self
                .overflow
                .peek()
                .map(|Reverse(k)| *k)
                .filter(|&(at, ..)| at < year_end);
            match (best, over) {
                (Some((_, bk)), Some((at, seq, _))) if (at, seq) < bk => {
                    let Reverse((at, seq, slot)) =
                        self.overflow.pop().expect("peeked overflow head");
                    return Some(Entry { at, seq, slot });
                }
                (Some((i, _)), _) => {
                    let e = self.buckets[self.cur].swap_remove(i);
                    self.ring_len -= 1;
                    return Some(e);
                }
                (None, Some(_)) => {
                    let Reverse((at, seq, slot)) =
                        self.overflow.pop().expect("peeked overflow head");
                    return Some(Entry { at, seq, slot });
                }
                (None, None) => {
                    steps += 1;
                    if steps > self.buckets.len() {
                        // Full rotation without an in-year event: everything
                        // left in the ring aliases a later year. Jump the
                        // window straight to the global minimum.
                        let min_at = self
                            .buckets
                            .iter()
                            .flatten()
                            .map(|e| e.at)
                            .min()
                            .expect("ring_len > 0 guarantees a ring event");
                        self.cur = self.bucket_of(min_at);
                        self.ring_start = self.year_start(min_at);
                        steps = 0;
                        continue;
                    }
                    self.advances += 1;
                    self.cur = (self.cur + 1) & self.mask;
                    self.ring_start = year_end;
                }
            }
        }
    }

    /// Grow resize: when the pending set outgrows one-event-per-bucket,
    /// rebuild with headroom (load factor ~0.5) and a re-derived width.
    /// Purely a constant-factor change — order is unaffected — and driven
    /// only by event data, so it is deterministic.
    fn maybe_grow(&mut self) {
        let total = self.ring_len + self.overflow.len();
        if total <= self.buckets.len() * 2 || self.buckets.len() >= MAX_BUCKETS {
            return;
        }
        let nb = total
            .next_power_of_two()
            .clamp(INITIAL_BUCKETS, MAX_BUCKETS);
        self.rebuild(nb);
    }

    /// Work-driven recalibration (every [`RECAL_PERIOD`] pops): if pops
    /// scanned too many bucket entries (buckets too long → width too
    /// wide) or stepped over too many empty buckets (width too narrow),
    /// re-derive the width from the live span at the current ring size.
    /// Cheap to check; the rebuild itself is O(n) and rare.
    fn maybe_recalibrate(&mut self) {
        let (pops, scanned, advs) = (self.pops, self.scanned, self.advances);
        self.pops = 0;
        self.scanned = 0;
        self.advances = 0;
        if scanned <= pops * MAX_SCAN_PER_POP && advs <= pops * MAX_ADVANCE_PER_POP {
            return;
        }
        let total = self.ring_len + self.overflow.len();
        if total < 2 {
            return;
        }
        // Hysteresis: rebuild only if the re-derived width actually
        // differs — a workload sitting at the work threshold must not pay
        // an O(n) rebuild into the same geometry every window. The span
        // estimate is O(1): `ring_start` tracks the minimum (window
        // invariant) and `max_seen` the high-water mark.
        if self.derive_shift(self.ring_start, self.max_seen, self.buckets.len()) == self.shift {
            return;
        }
        self.rebuild(self.buckets.len());
    }

    /// Width exponent for `nb` buckets spanning twice `[min_at, max_at]`.
    fn derive_shift(&self, min_at: SimTime, max_at: SimTime, nb: usize) -> u32 {
        let target_width = ((max_at - min_at).saturating_mul(4) / nb as u64).max(1);
        (64 - target_width.leading_zeros()).min(MAX_SHIFT)
    }

    /// Re-bucket every stored event into `nb` buckets (power of two) with
    /// a width derived from the observed span: window target is twice the
    /// span, so steady-state pushes land in the ring, not the overflow
    /// heap. No-op on ordering; `staged` is untouched.
    fn rebuild(&mut self, nb: usize) {
        let total = self.ring_len + self.overflow.len();
        let mut entries: Vec<Entry> = Vec::with_capacity(total);
        for b in &mut self.buckets {
            entries.append(b);
        }
        for Reverse((at, seq, slot)) in self.overflow.drain() {
            entries.push(Entry { at, seq, slot });
        }
        if entries.is_empty() {
            return;
        }
        let min_at = entries.iter().map(|e| e.at).min().expect("total > 0");
        let max_at = entries.iter().map(|e| e.at).max().expect("total > 0");
        self.max_seen = max_at;
        self.shift = self.derive_shift(min_at, max_at, nb);
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        self.mask = self.buckets.len() - 1;
        self.ring_len = 0;
        self.cur = self.bucket_of(min_at);
        self.ring_start = self.year_start(min_at);
        for e in entries {
            self.raw_push(e);
        }
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
    fn drains_sorted(mut q: CalendarQueue, mut entries: Vec<Entry>) {
        for e in &entries {
            q.push(*e);
        }
        entries.sort_by_key(|e| (e.at, e.seq));
        for want in entries {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn orders_dense_same_bucket_and_ties() {
        let es = vec![
            entry(5, 3),
            entry(5, 1),
            entry(4, 2),
            entry(5, 0),
            entry(0, 4),
        ];
        drains_sorted(CalendarQueue::new(), es);
    }

    #[test]
    fn orders_across_years_and_overflow() {
        // Mix of near events, far events (beyond the initial window), and
        // events that alias the same bucket from different years.
        let width = 1u64 << INITIAL_SHIFT;
        let span = width * INITIAL_BUCKETS as u64;
        let mut es = Vec::new();
        for i in 0..50u64 {
            es.push(entry(i * width * 3, i)); // walks past several buckets
            es.push(entry(i * span + 7, 100 + i)); // same bucket, year i
            es.push(entry(10 * span + i, 200 + i)); // deep overflow
        }
        drains_sorted(CalendarQueue::new(), es);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
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
                let want = *pending.iter().next().expect("non-empty");
                pending.remove(&want);
                let got = q.pop().expect("queue tracks the model");
                assert_eq!(got.key(), want);
                now = got.at;
            }
        }
        while let Some(got) = q.pop() {
            let want = *pending.iter().next().expect("model has it");
            pending.remove(&want);
            assert_eq!(got.key(), want);
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn peek_then_earlier_push_reorders() {
        let mut q = CalendarQueue::new();
        q.push(entry(1_000_000_000, 0));
        assert_eq!(q.peek_time(), Some(1_000_000_000));
        // Window has jumped to the staged event's year; an earlier push
        // must rewind and still come out first.
        q.push(entry(500, 1));
        assert_eq!(q.pop(), Some(entry(500, 1)));
        assert_eq!(q.pop(), Some(entry(1_000_000_000, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn grow_preserves_order() {
        // Enough events to force several rebuilds.
        let mut es = Vec::new();
        for i in 0..5_000u64 {
            es.push(entry((i * 7919) % 1_000_000_000, i));
        }
        drains_sorted(CalendarQueue::new(), es);
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

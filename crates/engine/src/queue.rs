//! The discrete-event queue.
//!
//! [`CalendarQueue`] is a deterministic future-event list laid out as a
//! calendar queue / timing wheel with chained buckets:
//!
//! - Every pending event lives in one slab (a `Vec` plus a free list)
//!   that grows to the pending high-water mark and no further.
//! - A window of fixed-width time buckets ends at the *horizon*; each
//!   bucket is a singly linked chain of slab indices, so a bucket never
//!   fills and every event inside the horizon is bucketed, however many
//!   share a timestamp.
//! - Only events beyond the horizon (in practice the CCTI recovery
//!   timers, ~150 µs out while data events churn at ns scale) wait in a
//!   spill heap. As the clock advances the horizon slides with it and
//!   spilled events move into their buckets, so the earliest occupied
//!   bucket always holds the earliest event.
//! - [`CalendarQueue::pop_batch_until`] finds that bucket through an
//!   occupancy bitset and takes every event at its earliest timestamp in
//!   one walk of the chain.
//! - The geometry (bucket width and count) retunes from the live
//!   population when too many inserts land beyond the horizon or when
//!   walks pass over too many entries of later timestamps; [`QueueStats`]
//!   counts that work.
//!
//! Events pop in `(time, sequence)` order: the monotone sequence number
//! makes simultaneous events pop in insertion order, which is what makes
//! whole-simulation determinism possible — two runs with the same
//! configuration schedule the same events in the same order and
//! therefore pop them in the same order. The geometry only decides where
//! an event waits, never how events compare, and it is derived from
//! already-scheduled events only, so it never perturbs that order.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Everything needed to rebuild an identical queue at a later time or in
/// another process: clock, counters, and the pending entries *with their
/// original sequence numbers* (tie order among simultaneous events is
/// part of the determinism contract and must survive a checkpoint).
///
/// The snapshot is geometry-free: a restored queue rebuilds its buckets
/// fresh, and the pop stream does not depend on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    pub now: Time,
    /// Next sequence number to assign.
    pub seq: u64,
    pub processed: u64,
    pub last_pop: Option<(Time, u64)>,
    /// Pending entries sorted by `(time, seq)`.
    pub entries: Vec<(Time, u64, E)>,
}

/// Deterministic counts of the work a [`CalendarQueue`] did since it was
/// built or [`reset`](CalendarQueue::reset): identical on every machine
/// for the same event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub inserts: u64,
    /// Scheduled events that landed beyond the horizon, in the spill heap.
    pub spilled: u64,
    /// Geometry re-evaluations; each that changes the geometry
    /// re-places every pending event.
    pub retunes: u64,
    /// Bucket entries walked by pops and batch pops.
    pub scanned: u64,
}

/// End of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;
/// Bucket count bounds (powers of two, so slot → bucket is a mask, and
/// ≥ 64 for the occupancy bitset).
const MIN_BUCKETS: usize = 1024;
const MAX_BUCKETS: usize = 1 << 16;
/// Default bucket width: 2^13 ps ≈ 8 ns, near the link/switch latency
/// scale that dominates fabric simulations before any adaptation.
const DEFAULT_WIDTH_SHIFT: u32 = 13;

/// One slab slot: a pending event, or a free slot when `event` is `None`.
struct Node<E> {
    at: Time,
    seq: u64,
    /// Next slot in the same bucket chain, or in the free list.
    next: u32,
    event: Option<E>,
}

/// A deterministic future-event list (chained-bucket calendar queue).
pub struct CalendarQueue<E> {
    /// Every pending event; free slots are chained through `next`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Chain head per bucket (physical index order), `NIL` when empty.
    heads: Vec<u32>,
    /// Occupancy bitset, one bit per bucket (physical index order).
    occupied: Vec<u64>,
    mask: usize,
    width_shift: u32,
    /// Exclusive upper slot bound (the horizon) of the wheel window
    /// `[hor_slot - n_buckets, hor_slot)`. The window starts at the
    /// clock's slot, so no pending event lies below it.
    hor_slot: u64,
    /// Events currently in bucket chains (excludes spill).
    bucketed: usize,
    /// Events at or beyond the horizon as `(time, seq, slab index)`,
    /// earliest first. Every spilled slot is ≥ `hor_slot`, so no
    /// bucketed event is ever later than a spilled one.
    spill: BinaryHeap<Reverse<(Time, u64, u32)>>,
    inserts_since_retune: usize,
    misfits_since_retune: usize,
    taken_since_retune: usize,
    scanned_since_retune: usize,
    /// Inserts (or taken events) required before the next adaptation
    /// is considered.
    cooldown: usize,
    /// Since the last retune: inserts by distance from now, bin `k`
    /// counting distances in `[2^(k-1), 2^k)` (bin 0: distance 0).
    insert_dists: [u64; 65],
    /// Since the last retune: clock advances by `ilog2` of the step,
    /// i.e. the gaps between consecutive distinct pop timestamps.
    pop_gaps: [u64; 64],
    stats: QueueStats,
    seq: u64,
    now: Time,
    processed: u64,
    /// `(time, seq)` of the last popped event — the pop stream is
    /// strictly monotone in this key, and invariant auditors read it to
    /// verify exactly that.
    last_pop: Option<(Time, u64)>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        Self::with_shape(MIN_BUCKETS, DEFAULT_WIDTH_SHIFT)
    }

    /// Pre-size for roughly `pending_hint` simultaneously pending events
    /// (e.g. nodes × ports for a network simulation). The bucket count
    /// is a structural hint only — correctness and adaptation never
    /// depend on it.
    pub fn with_capacity(pending_hint: usize) -> Self {
        let n = (pending_hint.max(1) * 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        Self::with_shape(n, DEFAULT_WIDTH_SHIFT)
    }

    fn with_shape(n_buckets: usize, width_shift: u32) -> Self {
        debug_assert!(n_buckets.is_power_of_two() && n_buckets >= 64);
        CalendarQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; n_buckets],
            occupied: vec![0u64; n_buckets / 64],
            mask: n_buckets - 1,
            width_shift,
            hor_slot: n_buckets as u64,
            bucketed: 0,
            spill: BinaryHeap::new(),
            inserts_since_retune: 0,
            misfits_since_retune: 0,
            taken_since_retune: 0,
            scanned_since_retune: 0,
            cooldown: 256,
            insert_dists: [0; 65],
            pop_gaps: [0; 64],
            stats: QueueStats::default(),
            seq: 0,
            now: Time::ZERO,
            processed: 0,
            last_pop: None,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// `(time, seq)` key of the most recently popped event, if any.
    /// Consecutive pops are strictly increasing in this key.
    #[inline]
    pub fn last_pop(&self) -> Option<(Time, u64)> {
        self.last_pop
    }

    /// Number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.bucketed + self.spill.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Work counters since construction or the last [`Self::reset`].
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    #[inline]
    fn n_buckets(&self) -> u64 {
        self.mask as u64 + 1
    }

    #[inline]
    fn base_slot(&self) -> u64 {
        self.hor_slot - self.n_buckets()
    }

    #[inline]
    fn phys(&self, slot: u64) -> usize {
        (slot & self.mask as u64) as usize
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` lies in the past; scheduling *at*
    /// the current instant is allowed and pops after everything already
    /// queued for that instant.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.insert(at, seq, event);
    }

    /// Schedule `event` at absolute time `at` under a caller-chosen
    /// sequence key instead of the next counter value. The internal
    /// counter is bumped past `seq` so later [`Self::schedule`] calls
    /// never collide with an explicit key. This is how the sharded
    /// executor re-labels provisional event keys with their
    /// globally-agreed `(time, seq)` identity: tie order among
    /// simultaneous events *is* the determinism contract, so the key —
    /// not insertion order — must decide.
    pub fn schedule_keyed(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        if seq >= self.seq {
            self.seq = seq + 1;
        }
        self.insert(at, seq, event);
    }

    /// Schedule `event` `delta` after now.
    #[inline]
    pub fn schedule_in(&mut self, delta: crate::time::TimeDelta, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    fn insert(&mut self, at: Time, seq: u64, event: E) {
        self.stats.inserts += 1;
        self.inserts_since_retune += 1;
        let dist = at.0.saturating_sub(self.now.0);
        self.insert_dists[(u64::BITS - dist.leading_zeros()) as usize] += 1;
        let node = Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        if self.place(idx) {
            return;
        }
        // Beyond the horizon: it waits in the spill heap until the
        // window reaches it. A high misfit rate means the window is too
        // short for the workload.
        self.stats.spilled += 1;
        self.misfits_since_retune += 1;
        if self.inserts_since_retune >= self.cooldown {
            if self.misfits_since_retune * 4 > self.inserts_since_retune {
                self.retune();
            } else {
                // Decay both counters so the test tracks the recent
                // misfit rate instead of the whole history.
                self.inserts_since_retune /= 2;
                self.misfits_since_retune /= 2;
            }
        }
    }

    /// Link slab slot `idx` into its bucket, or push it onto the spill
    /// heap (returning `false`) if it lies beyond the horizon.
    #[inline]
    fn place(&mut self, idx: u32) -> bool {
        let (at, seq) = {
            let n = &self.nodes[idx as usize];
            (n.at, n.seq)
        };
        let slot = at.0 >> self.width_shift;
        if slot >= self.hor_slot {
            self.spill.push(Reverse((at, seq, idx)));
            return false;
        }
        // Events behind the window base (only reachable if a caller
        // schedules into the past with debug assertions off) join the
        // base bucket, which is walked first.
        let slot = slot.max(self.base_slot());
        let phys = self.phys(slot);
        self.nodes[idx as usize].next = self.heads[phys];
        self.heads[phys] = idx;
        self.occupied[phys >> 6] |= 1u64 << (phys & 63);
        self.bucketed += 1;
        true
    }

    /// Return slab slot `idx` to the free list, handing back its event.
    #[inline]
    fn release(&mut self, idx: u32) -> E {
        let n = &mut self.nodes[idx as usize];
        n.next = self.free;
        self.free = idx;
        n.event.take().expect("live slab slot")
    }

    /// Move the clock to `t` and slide the window with it. Buckets
    /// falling off the back are provably empty (every pending event is
    /// ≥ `t`), and spilled events the new horizon reaches move into
    /// their buckets.
    #[inline]
    fn advance(&mut self, t: Time) {
        debug_assert!(t >= self.now, "time went backwards");
        if t > self.now {
            self.pop_gaps[(t.0 - self.now.0).ilog2() as usize] += 1;
        }
        self.now = t;
        let hor = (t.0 >> self.width_shift).saturating_add(self.n_buckets());
        if hor > self.hor_slot {
            self.hor_slot = hor;
            self.unspill();
        }
    }

    /// Bucket every spilled event the horizon now covers.
    fn unspill(&mut self) {
        while let Some(&Reverse((at, _, idx))) = self.spill.peek() {
            if at.0 >> self.width_shift >= self.hor_slot {
                break;
            }
            self.spill.pop();
            self.place(idx);
        }
    }

    /// Make sure the wheel holds the earliest pending event: when only
    /// spilled events remain, jump the window to the earliest of them.
    /// Returns `false` if nothing is pending or the earliest event is
    /// later than `limit` (then nothing changes).
    #[inline]
    fn fill_wheel(&mut self, limit: Time) -> bool {
        if self.bucketed > 0 {
            return true;
        }
        let Some(&Reverse((at, _, _))) = self.spill.peek() else {
            return false;
        };
        if at > limit {
            return false;
        }
        self.hor_slot = (at.0 >> self.width_shift).saturating_add(self.n_buckets());
        self.unspill();
        true
    }

    /// First occupied slot of the window. Requires `bucketed > 0`.
    fn first_occupied(&self) -> u64 {
        let mut s = self.base_slot();
        loop {
            debug_assert!(s < self.hor_slot, "bucketed > 0 implies an occupied bucket");
            let phys = self.phys(s);
            let bit = phys & 63;
            let word = self.occupied[phys >> 6] & (!0u64 << bit);
            if word != 0 {
                return s + (word.trailing_zeros() as u64 - bit as u64);
            }
            s += 64 - bit as u64;
        }
    }

    /// Account one bucket walk and retune if walks keep passing over
    /// entries of later timestamps (buckets too wide).
    #[inline]
    fn note_walk(&mut self, walked: usize, taken: usize) {
        self.stats.scanned += walked as u64;
        self.scanned_since_retune += walked;
        self.taken_since_retune += taken;
        if self.taken_since_retune >= self.cooldown {
            if self.scanned_since_retune > 2 * self.taken_since_retune {
                self.retune();
            } else {
                self.taken_since_retune /= 2;
                self.scanned_since_retune /= 2;
            }
        }
    }

    /// Recompute bucket width and count from what the queue saw since
    /// the last retune, and re-place every event if they change. Order
    /// is unaffected: structure only changes *where* entries wait, never
    /// how they compare.
    fn retune(&mut self) {
        self.stats.retunes += 1;
        self.inserts_since_retune = 0;
        self.misfits_since_retune = 0;
        self.taken_since_retune = 0;
        self.scanned_since_retune = 0;
        // Width: at most the 25th-percentile gap between consecutive
        // pop timestamps, so a walk seldom meets a later timestamp in
        // its bucket. Window: twice the 99th-percentile insert distance,
        // so only outliers (recovery timers) spill.
        let width_shift = quantile_bin(&self.pop_gaps, 1, 4).map_or(self.width_shift, |b| b as u32);
        let far_bin = quantile_bin(&self.insert_dists, 99, 100).unwrap_or(0);
        self.pop_gaps = [0; 64];
        self.insert_dists = [0; 65];
        let n = ((1u64 << far_bin.min(62)) >> width_shift)
            .saturating_mul(2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS as u64, MAX_BUCKETS as u64) as usize;
        let total = self.pending();

        // A retune that cannot change the geometry (e.g. ties no width
        // can split, or outliers no window may cover) waits longer
        // before the next one.
        if width_shift == self.width_shift && n == self.mask + 1 {
            self.cooldown = (total * 8).max(4096);
            return;
        }
        self.cooldown = total.max(256);

        self.width_shift = width_shift;
        self.mask = n - 1;
        self.heads.clear();
        self.heads.resize(n, NIL);
        self.occupied.clear();
        self.occupied.resize(n / 64, 0);
        self.bucketed = 0;
        self.spill.clear();
        self.hor_slot = (self.now.0 >> width_shift).saturating_add(n as u64);
        for idx in 0..self.nodes.len() {
            if self.nodes[idx].event.is_some() {
                self.place(idx as u32);
            }
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if self.bucketed == 0 {
            return self.spill.peek().map(|r| r.0 .0);
        }
        let mut i = self.heads[self.phys(self.first_occupied())];
        let mut t = Time::MAX;
        while i != NIL {
            let n = &self.nodes[i as usize];
            t = t.min(n.at);
            i = n.next;
        }
        Some(t)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if !self.fill_wheel(Time::MAX) {
            return None;
        }
        let phys = self.phys(self.first_occupied());
        // Walk the chain for its (time, seq) minimum, remembering the
        // link that points at it.
        let (mut prev, mut i) = (NIL, self.heads[phys]);
        let (mut best_prev, mut best) = (NIL, i);
        let mut walked = 0;
        while i != NIL {
            walked += 1;
            let (n, b) = (&self.nodes[i as usize], &self.nodes[best as usize]);
            if (n.at, n.seq) < (b.at, b.seq) {
                (best_prev, best) = (prev, i);
            }
            prev = i;
            i = n.next;
        }
        let (at, seq, next) = {
            let n = &self.nodes[best as usize];
            (n.at, n.seq, n.next)
        };
        if best_prev == NIL {
            self.heads[phys] = next;
            if next == NIL {
                self.occupied[phys >> 6] &= !(1u64 << (phys & 63));
            }
        } else {
            self.nodes[best_prev as usize].next = next;
        }
        self.bucketed -= 1;
        let event = self.release(best);
        debug_assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "pop order regressed: ({at:?}, {seq}) after {:?}",
            self.last_pop
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
        self.advance(at);
        self.note_walk(walked, 1);
        Some((at, event))
    }

    /// Pop the next event only if it is due at or before `limit`.
    /// The clock never advances beyond `limit` through this method.
    #[inline]
    pub fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Drain *every* event due at the earliest pending timestamp `t`
    /// (if `t ≤ limit`) into `out` in `(time, seq)` order, advancing the
    /// clock to `t`. Returns `t`, or `None` if nothing is due.
    ///
    /// The earliest occupied bucket holds every event at `t`, so one
    /// walk of its chain both finds `t` and unlinks the batch.
    ///
    /// Unlike [`pop`](Self::pop) this does **not** advance `processed`
    /// or `last_pop`: the caller dispatches the batch one event at a
    /// time and acknowledges each with
    /// [`note_dispatched`](Self::note_dispatched), keeping every
    /// per-event observable (audit cadence, event-order ledger)
    /// byte-identical to the one-pop-per-event loop.
    pub fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<(u64, E)>) -> Option<Time> {
        if !self.fill_wheel(limit) {
            return None;
        }
        let slot = self.first_occupied();
        if slot << self.width_shift > limit.0 {
            return None;
        }
        let phys = self.phys(slot);
        // One walk partitions the chain into `take` (the entries at the
        // earliest time seen so far) and `keep` (the rest); a new
        // earliest time demotes the whole `take` list to `keep` in O(1).
        let (mut keep, mut take, mut take_tail) = (NIL, NIL, NIL);
        let mut t = Time::MAX;
        let mut walked = 0;
        let mut i = self.heads[phys];
        while i != NIL {
            walked += 1;
            let n = &mut self.nodes[i as usize];
            let (at, next) = (n.at, n.next);
            if at == t {
                n.next = take;
                take = i;
            } else if at < t {
                n.next = NIL;
                if take != NIL {
                    self.nodes[take_tail as usize].next = keep;
                    keep = take;
                }
                (t, take, take_tail) = (at, i, i);
            } else {
                n.next = keep;
                keep = i;
            }
            i = next;
        }
        if t > limit {
            self.nodes[take_tail as usize].next = keep;
            self.heads[phys] = take;
            self.note_walk(walked, 0);
            return None;
        }
        self.heads[phys] = keep;
        if keep == NIL {
            self.occupied[phys >> 6] &= !(1u64 << (phys & 63));
        }
        let start = out.len();
        let mut i = take;
        while i != NIL {
            let (seq, next) = {
                let n = &self.nodes[i as usize];
                (n.seq, n.next)
            };
            out.push((seq, self.release(i)));
            i = next;
        }
        let taken = out.len() - start;
        self.bucketed -= taken;
        // Chain order is arbitrary; restore the (time, seq) contract.
        out[start..].sort_unstable_by_key(|&(seq, _)| seq);
        self.advance(t);
        self.note_walk(walked, taken);
        Some(t)
    }

    /// Record that one event handed out by
    /// [`pop_batch_until`](Self::pop_batch_until) was dispatched:
    /// advances `processed` and the `last_pop` key exactly as a plain
    /// [`pop`](Self::pop) of that event would have.
    #[inline]
    pub fn note_dispatched(&mut self, at: Time, seq: u64) {
        debug_assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "dispatch order regressed: ({at:?}, {seq}) after {:?}",
            self.last_pop
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
    }

    /// Capture the queue's complete state (see [`QueueSnapshot`]).
    pub fn snapshot(&self) -> QueueSnapshot<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(Time, u64, E)> = self
            .nodes
            .iter()
            .filter_map(|n| n.event.as_ref().map(|e| (n.at, n.seq, e.clone())))
            .collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        QueueSnapshot {
            now: self.now,
            seq: self.seq,
            processed: self.processed,
            last_pop: self.last_pop,
            entries,
        }
    }

    /// Rebuild a queue from a snapshot. Entry sequence numbers are
    /// reinstated verbatim, so ties pop in exactly the captured order;
    /// the wheel geometry is rebuilt fresh (it never affects order).
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::with_capacity(snap.entries.len());
        q.now = snap.now;
        q.seq = snap.seq;
        q.processed = snap.processed;
        q.last_pop = snap.last_pop;
        q.hor_slot = (snap.now.0 >> q.width_shift).saturating_add(q.n_buckets());
        for (at, seq, event) in snap.entries {
            q.insert(at, seq, event);
        }
        q
    }

    /// Drop all pending events, reset the clock and the work counters
    /// (for reuse in sweeps). The bucket geometry is kept.
    pub fn reset(&mut self) {
        *self = Self::with_shape(self.mask + 1, self.width_shift);
    }
}

/// Index of the histogram bin holding the `num/den` quantile of its
/// counts, or `None` for an empty histogram.
fn quantile_bin(hist: &[u64], num: u64, den: u64) -> Option<usize> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let want = (total * num).div_ceil(den).max(1);
    let mut seen = 0;
    hist.iter().position(|&c| {
        seen += c;
        seen >= want
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time(100), ());
        q.pop();
        assert_eq!(q.now(), Time(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(10), 0);
        q.pop();
        q.schedule_in(TimeDelta(5), 1);
        assert_eq!(q.peek_time(), Some(Time(15)));
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.pop_until(Time(15)), Some((Time(10), "a")));
        assert_eq!(q.pop_until(Time(15)), None);
        assert_eq!(q.pending(), 1);
        // The clock did not jump past the limit.
        assert_eq!(q.now(), Time(10));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(10), ());
        q.pop();
        q.schedule(Time(5), ());
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(10), 1);
        q.pop();
        q.schedule(Time(20), 2);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.processed(), 0);
        assert_eq!(q.stats(), QueueStats::default());
        q.schedule(Time(7), 3);
        assert_eq!(q.pop(), Some((Time(7), 3)));
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(1), 1u32);
        q.schedule(Time(5), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(Time(3), 3);
        q.schedule(Time(4), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // CCTI-timer pattern: ns-scale churn plus a timer ~150 µs out
        // (far beyond any initial wheel window).
        let mut q = CalendarQueue::new();
        q.schedule(Time(153_600_000), "timer");
        for i in 0..50u64 {
            q.schedule(Time(1_000 + i), "data");
        }
        assert_eq!(
            q.stats().spilled,
            1,
            "only the timer lies beyond the horizon"
        );
        for _ in 0..50 {
            assert_eq!(q.pop().unwrap().1, "data");
        }
        assert_eq!(q.pop(), Some((Time(153_600_000), "timer")));
        // Scheduling keeps working after the window jumped forward.
        q.schedule(Time(153_600_001), "next");
        assert_eq!(q.pop(), Some((Time(153_600_001), "next")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dense_population_triggers_adaptation_and_stays_ordered() {
        // Push far more events than the default geometry likes, then
        // verify the full pop stream is still perfectly sorted.
        let mut q = CalendarQueue::new();
        let mut rng = crate::rng::Rng::new(42);
        for i in 0..20_000u64 {
            q.schedule(Time(rng.next_below(1_000_000_000)), i);
        }
        assert!(
            q.stats().retunes > 0,
            "a 1 ms spread overflows the default window"
        );
        let mut last = (Time::ZERO, 0u64);
        let mut popped = 0;
        let mut out = Vec::new();
        while let Some(t) = q.pop_batch_until(Time::MAX, &mut out) {
            for &(seq, _) in &out {
                assert!(
                    (t, seq) > last || popped == 0,
                    "order regressed at pop {popped}"
                );
                last = (t, seq);
                popped += 1;
            }
            out.clear();
        }
        assert_eq!(popped, 20_000);
    }

    #[test]
    fn tie_piles_stay_bucketed() {
        // Lockstep load: hundreds of events per timestamp never spill,
        // and each batch walks little more than the batch itself.
        let mut q = CalendarQueue::with_capacity(648 * 8);
        for round in 0..50u64 {
            for node in 0..648u64 {
                q.schedule(Time(round * 10_000), node);
            }
        }
        let mut out = Vec::new();
        while q.pop_batch_until(Time::MAX, &mut out).is_some() {
            assert_eq!(out.len(), 648);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
            out.clear();
        }
        let s = q.stats();
        assert_eq!(s.spilled, 0);
        assert_eq!(s.scanned, 50 * 648);
    }

    #[test]
    fn slab_stops_growing_at_the_high_water_mark() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.schedule(Time(i), i);
        }
        let cap = q.nodes.len();
        for i in 100..10_000u64 {
            q.pop();
            q.schedule(Time(i), i);
        }
        assert_eq!(q.nodes.len(), cap);
    }

    #[test]
    fn with_capacity_matches_new_semantics() {
        let mut a = CalendarQueue::with_capacity(648 * 8);
        let mut b = CalendarQueue::new();
        for i in 0..1000u64 {
            a.schedule(Time(i * 37 % 5000), i);
            b.schedule(Time(i * 37 % 5000), i);
        }
        for _ in 0..1000 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn snapshot_of_empty_queue_round_trips() {
        let mut q = CalendarQueue::<u32>::new();
        q.schedule(Time(5), 1);
        q.pop();
        let snap = q.snapshot();
        assert!(snap.entries.is_empty());
        let mut r = CalendarQueue::from_snapshot(snap);
        assert!(r.is_empty());
        assert_eq!(r.now(), Time(5));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn batch_pop_respects_limit_and_interleaves_with_schedules() {
        let mut q = CalendarQueue::new();
        q.schedule(Time(10), 0u32);
        q.schedule(Time(10), 1);
        q.schedule(Time(20), 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(Time(15), &mut out), Some(Time(10)));
        assert_eq!(out, vec![(0, 0), (1, 1)]);
        for &(seq, _) in &out {
            q.note_dispatched(Time(10), seq);
        }
        out.clear();
        assert_eq!(q.pop_batch_until(Time(15), &mut out), None);
        assert!(out.is_empty());
        // New same-time events scheduled mid-batch pop in a later batch
        // at the same timestamp, after everything already queued.
        q.schedule(Time(20), 3);
        assert_eq!(q.pop_batch_until(Time(25), &mut out), Some(Time(20)));
        assert_eq!(out, vec![(2, 2), (3, 3)]);
    }
}

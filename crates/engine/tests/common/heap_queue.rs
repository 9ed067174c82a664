//! The classic binary-heap future-event list: the test oracle for
//! `CalendarQueue`. Same API, same `(time, seq)` order, no geometry.

use ibsim_engine::queue::QueueSnapshot;
use ibsim_engine::time::{Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event; ordered by `(at, seq)` only (seqs are unique).
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
    processed: u64,
    last_pop: Option<(Time, u64)>,
}

impl<E> HeapQueue<E> {
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            processed: 0,
            last_pop: None,
        }
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn last_pop(&self) -> Option<(Time, u64)> {
        self.last_pop
    }

    pub fn processed(&self) -> u64 {
        self.processed
    }

    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    pub fn schedule_keyed(&mut self, at: Time, seq: u64, event: E) {
        assert!(at >= self.now, "scheduling into the past");
        if seq >= self.seq {
            self.seq = seq + 1;
        }
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    pub fn schedule_in(&mut self, delta: TimeDelta, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.0.at)
    }

    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        self.last_pop = Some((e.at, e.seq));
        self.processed += 1;
        Some((e.at, e.event))
    }

    pub fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Drain every event at the earliest pending timestamp, seq
    /// ascending; `processed`/`last_pop` wait for `note_dispatched`.
    pub fn pop_batch_until(&mut self, limit: Time, out: &mut Vec<(u64, E)>) -> Option<Time> {
        let t = self.peek_time().filter(|&t| t <= limit)?;
        while self.heap.peek().is_some_and(|e| e.0.at == t) {
            let Reverse(e) = self.heap.pop().expect("peeked entry");
            out.push((e.seq, e.event));
        }
        self.now = t;
        Some(t)
    }

    pub fn note_dispatched(&mut self, at: Time, seq: u64) {
        assert!(
            self.last_pop.is_none_or(|k| (at, seq) > k),
            "dispatch order regressed"
        );
        self.last_pop = Some((at, seq));
        self.processed += 1;
    }

    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        let mut q = Self::new();
        q.now = snap.now;
        q.seq = snap.seq;
        q.processed = snap.processed;
        q.last_pop = snap.last_pop;
        for (at, seq, event) in snap.entries {
            q.heap.push(Reverse(Entry { at, seq, event }));
        }
        q
    }
}

//! Property-based tests for the DES kernel.

use ibsim_engine::queue::CalendarQueue;
use ibsim_engine::rng::Rng;
use ibsim_engine::stats::Histogram;
use ibsim_engine::time::{Bandwidth, Time, TimeDelta};
use proptest::prelude::*;

#[path = "common/heap_queue.rs"]
mod heap_queue;
use heap_queue::HeapQueue;

proptest! {
    /// Events pop in nondecreasing time order regardless of insertion
    /// order, and ties preserve insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// Differential determinism: the calendar queue and the reference
    /// binary-heap queue emit byte-identical `(time, event)` streams —
    /// including peeks and pending counts — under arbitrary
    /// interleavings of ties, near-future churn, and far-future timers
    /// (the CCTI-tick pattern that exercises the overflow heap and
    /// window jumps).
    #[test]
    fn calendar_queue_matches_heap_reference(
        ops in prop::collection::vec((0u64..100, 0u64..3_000, prop::bool::ANY), 1..400)
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &(kind, delta, do_pop)) in ops.iter().enumerate() {
            let delta = match kind {
                0..=9 => 0,                    // exact tie with `now`
                10..=19 => 200_000_000 + delta, // far beyond any window
                _ => delta,                     // ns-scale churn
            };
            let at = Time(cal.now().0 + delta);
            cal.schedule(at, i);
            heap.schedule(at, i);
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            if do_pop {
                prop_assert_eq!(cal.pop(), heap.pop(), "diverged at op {}", i);
            }
            prop_assert_eq!(cal.pending(), heap.pending());
            prop_assert_eq!(cal.now(), heap.now());
        }
        // Drain both to the end: every remaining event must match too.
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(&c, &h);
            if c.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.processed(), heap.processed());
    }

    /// `pop_until` agrees between the implementations for arbitrary
    /// limits (the main-loop primitive of `Network::run_until`).
    #[test]
    fn calendar_pop_until_matches_heap(
        times in prop::collection::vec(0u64..10_000, 1..200),
        limits in prop::collection::vec(0u64..12_000, 1..50)
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(Time(t), i);
            heap.schedule(Time(t), i);
        }
        let mut limits = limits.clone();
        limits.sort_unstable();
        for &l in &limits {
            loop {
                let (c, h) = (cal.pop_until(Time(l)), heap.pop_until(Time(l)));
                prop_assert_eq!(&c, &h);
                if c.is_none() {
                    break;
                }
            }
        }
    }

    /// Interleaved schedule/pop never goes back in time.
    #[test]
    fn queue_monotone_under_interleaving(
        ops in prop::collection::vec((0u64..100, prop::bool::ANY), 1..300)
    ) {
        let mut q = CalendarQueue::new();
        let mut last = Time::ZERO;
        for (delta, do_pop) in ops {
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            } else {
                q.schedule_in(TimeDelta(delta), ());
            }
        }
    }

    /// Lemire bounded sampling stays in range for arbitrary bounds.
    #[test]
    fn rng_next_below_in_range(seed: u64, bound in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Shuffles are permutations.
    #[test]
    fn rng_shuffle_permutes(seed: u64, n in 0usize..100) {
        let mut rng = Rng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        prop_assert_eq!(s, (0..n).collect::<Vec<_>>());
    }

    /// sample_indices returns k distinct in-range indices.
    #[test]
    fn rng_sample_indices_distinct(seed: u64, n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Rng::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Serialisation time is monotone in size and inversely so in rate.
    #[test]
    fn bandwidth_tx_time_monotone(bytes in 1u64..1_000_000, gbps in 1u64..400) {
        let bw = Bandwidth::from_gbps(gbps);
        prop_assert!(bw.tx_time(bytes) <= bw.tx_time(bytes + 1));
        let faster = Bandwidth::from_gbps(gbps + 1);
        prop_assert!(faster.tx_time(bytes) <= bw.tx_time(bytes));
        // And it is never zero for a nonzero payload.
        prop_assert!(bw.tx_time(bytes) > TimeDelta::ZERO);
    }

    /// bytes_in is the floor-inverse of tx_time.
    #[test]
    fn bandwidth_roundtrip(bytes in 1u64..10_000_000, gbps in 1u64..400) {
        let bw = Bandwidth::from_gbps(gbps);
        let t = bw.tx_time(bytes);
        let back = bw.bytes_in(t);
        prop_assert!(back >= bytes.saturating_sub(1));
        prop_assert!(back <= bytes + 1);
    }

    /// Histogram mean lies within [min, max]; quantiles are monotone.
    #[test]
    fn histogram_invariants(vals in prop::collection::vec(0u64..1_000_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let min = *vals.iter().min().unwrap() as f64;
        let max = *vals.iter().max().unwrap() as f64;
        prop_assert!(h.mean() >= min - 1e-9 && h.mean() <= max + 1e-9);
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
        prop_assert!(q99 <= h.max().unwrap());
    }

    /// Derived RNG streams are reproducible and (statistically) distinct.
    #[test]
    fn rng_derivation_stable(root: u64, a: u64, b: u64) {
        let mut x = Rng::derive(root, a);
        let mut y = Rng::derive(root, a);
        prop_assert_eq!(x.next_u64(), y.next_u64());
        if a != b {
            let mut z = Rng::derive(root, b);
            // First draws colliding for distinct ids would be a red flag
            // (not impossible, but with 2^-64 probability).
            let mut x2 = Rng::derive(root, a);
            prop_assert_ne!(x2.next_u64(), z.next_u64());
        }
    }
}

// ---------------------------------------------------------------------
// Calendar queue vs the binary-heap oracle on fixed streams.
// ---------------------------------------------------------------------

// The pop-order ledger (`now`, `last_pop`, `processed`) is the spine of
// the determinism audit and of the sharded executor's replay: a
// `pop_batch_until` that touches any of it on the empty or past-limit
// path would silently corrupt both. The oracle must honour the same
// contract, or the differential tests below would prove nothing.
macro_rules! empty_batch_pop_is_inert {
    ($name:ident, $q:ty) => {
        #[test]
        fn $name() {
            let mut q = <$q>::new();
            let mut out: Vec<(u64, &str)> = vec![(99, "sentinel")];

            // Brand-new queue: nothing due, nothing mutated.
            assert_eq!(q.pop_batch_until(Time(1_000), &mut out), None);
            assert_eq!(out, vec![(99, "sentinel")], "out buffer touched");
            assert_eq!(q.now(), Time::ZERO);
            assert_eq!(q.last_pop(), None);
            assert_eq!(q.processed(), 0);

            // Head past the limit: same story, and the pending event
            // survives untouched.
            q.schedule(Time(500), "later");
            assert_eq!(q.pop_batch_until(Time(400), &mut out), None);
            assert_eq!(out, vec![(99, "sentinel")]);
            assert_eq!(
                (q.now(), q.last_pop(), q.processed()),
                (Time::ZERO, None, 0)
            );
            assert_eq!(q.pending(), 1);

            // Drain it for real, acknowledge the dispatch, then exhaust:
            // the ledger must hold the *last real* pop, not a stale or
            // cleared value.
            out.clear();
            assert_eq!(q.pop_batch_until(Time(500), &mut out), Some(Time(500)));
            assert_eq!(out.len(), 1);
            let (seq, _) = out[0];
            q.note_dispatched(Time(500), seq);
            for limit in [Time(500), Time(600), Time::MAX] {
                assert_eq!(q.pop_batch_until(limit, &mut out), None);
                assert_eq!(q.now(), Time(500), "empty batch-pop moved the clock");
                assert_eq!(
                    q.last_pop(),
                    Some((Time(500), seq)),
                    "empty batch-pop disturbed the pop-order ledger"
                );
                assert_eq!(q.processed(), 1);
            }
        }
    };
}
empty_batch_pop_is_inert!(
    empty_batch_pop_is_inert_calendar,
    CalendarQueue<&'static str>
);
empty_batch_pop_is_inert!(empty_batch_pop_is_inert_heap, HeapQueue<&'static str>);

macro_rules! schedule_keyed_orders_by_key {
    ($name:ident, $q:ty) => {
        #[test]
        fn $name() {
            let mut q = <$q>::new();
            // Interleave counter-assigned and explicit keys; pops must
            // follow (time, seq), not insertion order.
            q.schedule(Time(10), "seq0");
            q.schedule_keyed(Time(10), 7, "seq7");
            q.schedule_keyed(Time(10), 3, "seq3");
            // The counter was bumped past the largest explicit key.
            q.schedule(Time(10), "seq8");
            assert_eq!(q.pop(), Some((Time(10), "seq0")));
            assert_eq!(q.pop(), Some((Time(10), "seq3")));
            assert_eq!(q.pop(), Some((Time(10), "seq7")));
            assert_eq!(q.pop(), Some((Time(10), "seq8")));
            assert_eq!(q.pop(), None);
        }
    };
}
schedule_keyed_orders_by_key!(
    schedule_keyed_orders_by_key_calendar,
    CalendarQueue<&'static str>
);
schedule_keyed_orders_by_key!(schedule_keyed_orders_by_key_heap, HeapQueue<&'static str>);

#[test]
fn snapshot_restore_preserves_pop_stream() {
    // Interleave schedules and pops, snapshot mid-stream, and check the
    // restored queue's remaining pop stream is byte-identical —
    // including tie order and the seq counter for future schedules.
    let mut q = CalendarQueue::new();
    let mut rng = Rng::new(99);
    for i in 0..3_000u64 {
        let delta = match rng.next_below(10) {
            0 => 0,
            1 => 300_000_000,
            _ => rng.next_below(5_000),
        };
        q.schedule(Time(q.now().0 + delta), i);
        if rng.next_below(10) < 4 {
            q.pop();
        }
    }
    let snap = q.snapshot();
    assert_eq!(snap.entries.len(), q.pending());
    let mut cal = CalendarQueue::from_snapshot(snap.clone());
    let mut heap = HeapQueue::from_snapshot(snap);
    assert_eq!(cal.now(), q.now());
    assert_eq!(cal.processed(), q.processed());
    assert_eq!(cal.last_pop(), q.last_pop());
    // New schedules continue the same seq stream on all three.
    q.schedule_in(TimeDelta(7), u64::MAX);
    cal.schedule_in(TimeDelta(7), u64::MAX);
    heap.schedule_in(TimeDelta(7), u64::MAX);
    loop {
        let (a, b, c) = (q.pop(), cal.pop(), heap.pop());
        assert_eq!(a, b, "restored calendar queue diverged");
        assert_eq!(a, c, "restored heap queue diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn batch_pop_matches_single_pop_stream() {
    // pop_batch_until + note_dispatched must reproduce the exact event
    // stream, clock, processed count and last_pop key of the
    // one-pop-per-event loop.
    let mut single = CalendarQueue::new();
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = Rng::new(13);
    let mut t = 0u64;
    for i in 0..4_000u64 {
        // Heavy ties plus occasional far-future jumps.
        t += match rng.next_below(10) {
            0..=4 => 0,
            5 => 150_000_000,
            _ => rng.next_below(1_000),
        };
        single.schedule(Time(t), i);
        cal.schedule(Time(t), i);
        heap.schedule(Time(t), i);
    }
    let mut batch = Vec::new();
    while let Some(bt) = cal.pop_batch_until(Time(u64::MAX), &mut batch) {
        let mut hbatch = Vec::new();
        let ht = heap.pop_batch_until(Time(u64::MAX), &mut hbatch);
        assert_eq!(ht, Some(bt));
        assert_eq!(batch, hbatch);
        for &(seq, ev) in &batch {
            assert_eq!(single.pop(), Some((bt, ev)));
            cal.note_dispatched(bt, seq);
            heap.note_dispatched(bt, seq);
        }
        assert_eq!(cal.now(), single.now());
        assert_eq!(cal.last_pop(), single.last_pop());
        assert_eq!(cal.processed(), single.processed());
        assert_eq!(heap.processed(), single.processed());
        batch.clear();
    }
    assert_eq!(single.pop(), None);
    assert!(cal.is_empty() && heap.is_empty());
}

#[test]
fn calendar_matches_heap_reference_exactly() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = Rng::new(7);
    // Interleaved schedule/pop with ties and far-future jumps.
    for round in 0..5_000u64 {
        let delta = match rng.next_below(100) {
            0..=4 => 0,                 // ties
            5..=9 => 200_000_000,       // far future
            _ => rng.next_below(2_000), // churn
        };
        let at = Time(cal.now().0 + delta);
        cal.schedule(at, round);
        heap.schedule(at, round);
        if rng.next_below(100) < 60 {
            assert_eq!(cal.pop(), heap.pop(), "diverged at round {round}");
        }
        assert_eq!(cal.pending(), heap.pending());
    }
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h);
        if c.is_none() {
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Tie-heavy differential load, shaped like a lockstep fabric.
// ---------------------------------------------------------------------

/// Event payloads of the lockstep load: `Node(i)` re-arms itself one
/// period later (every node on the same instant), `Data` is a one-shot
/// hop, `Timer` a CCTI-style recovery timer ~150 µs out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Node(u32),
    Data(u32),
    Timer(u32),
}

const TIMER_PS: u64 = 150_000_000;

/// The same schedule calls applied to a calendar queue and the oracle.
struct Pair {
    cal: CalendarQueue<Ev>,
    heap: HeapQueue<Ev>,
    /// Mirror of both queues' sequence counters.
    next_seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            cal: CalendarQueue::new(),
            heap: HeapQueue::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        self.cal.schedule(at, ev);
        self.heap.schedule(at, ev);
        self.next_seq += 1;
    }

    fn schedule_keyed(&mut self, at: Time, seq: u64, ev: Ev) {
        self.cal.schedule_keyed(at, seq, ev);
        self.heap.schedule_keyed(at, seq, ev);
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// React to one dispatched event the way a fabric would.
    fn react(&mut self, rng: &mut Rng, at: Time, ev: Ev, period: u64, live: bool) {
        match ev {
            Ev::Node(i) if live => {
                self.schedule(at + TimeDelta(period), Ev::Node(i));
                match rng.next_below(8) {
                    // Same-instant follow-up: pops in a later batch at `at`.
                    0 => self.schedule(at, Ev::Data(i)),
                    1..=3 => self.schedule(at + TimeDelta(period / 2), Ev::Data(i)),
                    4 => self.schedule(
                        at + TimeDelta(TIMER_PS + rng.next_below(4) * period),
                        Ev::Timer(i),
                    ),
                    _ => {}
                }
            }
            Ev::Timer(i) if live && rng.next_below(2) == 0 => {
                self.schedule(at + TimeDelta(TIMER_PS), Ev::Timer(i));
            }
            _ => {}
        }
    }

    /// Between batches: maybe a burst at one timestamp, maybe a block of
    /// keyed schedules relabelled the way the sharded executor does it —
    /// keys reserved up front, installed out of order, interleaved with
    /// counter-assigned schedules.
    fn between(&mut self, rng: &mut Rng, now: Time, period: u64, burst: u32) {
        if rng.next_below(16) == 0 {
            let at = now + TimeDelta(period * (1 + rng.next_below(3)));
            for i in 0..burst {
                self.schedule(at, Ev::Data(i));
            }
        }
        if rng.next_below(4) == 0 {
            let m = 1 + rng.next_below(48);
            let base = self.next_seq;
            let mut keys: Vec<u64> = (base..base + m).collect();
            rng.shuffle(&mut keys);
            // The largest key first bumps both counters past the block.
            let top = keys.iter().position(|&k| k == base + m - 1).unwrap();
            keys.swap(0, top);
            for (j, &k) in keys.iter().enumerate() {
                let at = now + TimeDelta(rng.next_below(4) * period / 4);
                self.schedule_keyed(at, k, Ev::Data(j as u32));
                if j % 5 == 0 {
                    self.schedule(at, Ev::Data(u32::MAX));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lockstep bursts of 32–700 events per timestamp, periodic
    /// reschedules, ~150 µs timers and relabelled keyed inserts: the
    /// calendar's batches match the oracle's batch by batch and its
    /// single pops event by event, ledger included.
    #[test]
    fn tie_heavy_load_matches_heap_reference(
        seed: u64,
        burst in 32u32..700,
        period in 500u64..40_000,
        budget in 2_000u64..12_000
    ) {
        // Batch consumption.
        let mut rng = Rng::new(seed);
        let mut q = Pair::new();
        for i in 0..burst {
            q.schedule(Time(period), Ev::Node(i));
        }
        let (mut cb, mut hb) = (Vec::new(), Vec::new());
        loop {
            let live = q.cal.processed() < budget;
            // Now and then a limit that falls short of the next batch.
            let limit = match (rng.next_below(8), q.heap.peek_time()) {
                (0, Some(t)) if t > q.heap.now() => Time(t.0 - 1),
                _ => Time::MAX,
            };
            let (ct, ht) = (
                q.cal.pop_batch_until(limit, &mut cb),
                q.heap.pop_batch_until(limit, &mut hb),
            );
            prop_assert_eq!(ct, ht);
            prop_assert_eq!(&cb, &hb);
            let Some(t) = ct else {
                if limit == Time::MAX {
                    break;
                }
                continue;
            };
            for &(seq, ev) in &cb {
                q.cal.note_dispatched(t, seq);
                q.heap.note_dispatched(t, seq);
                q.react(&mut rng, t, ev, period, live);
            }
            prop_assert_eq!(q.cal.last_pop(), q.heap.last_pop());
            prop_assert_eq!(q.cal.pending(), q.heap.pending());
            if live {
                q.between(&mut rng, t, period, burst);
            }
            cb.clear();
            hb.clear();
        }
        prop_assert!(q.cal.is_empty());
        prop_assert_eq!(q.cal.processed(), q.heap.processed());

        // Single pops over the same kind of load.
        let mut rng = Rng::new(seed);
        let mut q = Pair::new();
        for i in 0..burst {
            q.schedule(Time(period), Ev::Node(i));
        }
        loop {
            let live = q.cal.processed() < budget;
            prop_assert_eq!(q.cal.peek_time(), q.heap.peek_time());
            let (c, h) = (q.cal.pop(), q.heap.pop());
            prop_assert_eq!(c, h);
            let Some((t, ev)) = c else { break };
            prop_assert_eq!(q.cal.last_pop(), q.heap.last_pop());
            q.react(&mut rng, t, ev, period, live);
            if live && q.heap.peek_time() != Some(t) {
                q.between(&mut rng, t, period, burst);
            }
        }
        prop_assert_eq!(q.cal.processed(), q.heap.processed());
    }
}

//! The sharded parallel DES executor: conservative time windows over a
//! leaf-group fabric partition, pinned **byte-for-byte** to the serial
//! engine.
//!
//! # How the serial event stream is reproduced exactly
//!
//! The fabric is split at leaf-switch-group boundaries
//! ([`ibsim_topo::partition_leaf_groups`]): each shard owns a block of
//! leaf switches, their HCAs, and a round-robin share of the spines.
//! Every cross-shard edge is an inter-switch (or spine↔leaf) cable, so
//! any event one shard schedules onto another lies at least one link
//! latency in the future — that minimum latency is the executor's
//! *lookahead* `L`. All shards therefore advance independently through
//! a window `(w₀, w₁]` with `w₁ = min(target, gmin + L − 1)` where
//! `gmin` is the earliest pending event anywhere: events generated
//! during the window for a foreign shard land strictly after `w₁` and
//! are exchanged at the barrier.
//!
//! Determinism is the hard part. The serial engine's observable state
//! (checkpoints, goldens, CSVs) depends on the *global* `(time, seq)`
//! event order, and `seq` is assigned in dispatch order — which the
//! parallel run does not follow. The executor reconstructs it exactly:
//!
//! * Inside a window a shard gives every newly scheduled event a
//!   **provisional key** `PROV_BASE + k` (`k` a per-shard counter).
//!   `PROV_BASE = 1 << 62` exceeds any real sequence number, so at
//!   equal times provisional events pop after all pre-window events —
//!   exactly where the serial engine's higher sequence numbers would
//!   have put them.
//! * Every dispatch is logged as `(time, key, n_sched)`. After the
//!   barrier every worker **replays** the posted logs in global
//!   `(time, true-key)` order — a deterministic merge that depends
//!   only on the logs, never on thread timing — assigning each
//!   provisional event the true sequence number the serial engine
//!   would have used; the lead worker also steps the audit cadence
//!   event-exactly.
//! * Each shard then relabels its window-local events with the agreed
//!   keys and installs the events other shards sent it before its next
//!   window.
//!
//! # The per-window protocol
//!
//! `w = min(n, cores)` worker threads each own a block of shards; the
//! calling thread is worker 0, the *lead*. A round is:
//!
//! 1. **Replay** (every worker, in parallel): merge the previous
//!    window's posted logs. Every worker computes the same maps from
//!    provisional index to true key, and the same `gmin` from the
//!    shards' posted pending minima — so the same next window end,
//!    with no coordinator and no second barrier.
//! 2. **Prologue** (per shard): relabel the shard's `later` events and
//!    install the events posted for it, keyed through the replay.
//! 3. **Window** (per shard): dispatch every event up to the window
//!    end, then **post** the log, the per-target outboxes and the
//!    pending minimum — buffer swaps into `posts[s][k % 2]`.
//! 4. One barrier.
//!
//! Posts alternate by window parity, so a window writes one slot while
//! every worker still reads the other, and one barrier per window
//! suffices. On the windy-forest cell (648 nodes, 2 shards on a 2-vCPU
//! Xeon VM, 431,591 windows of ~43 events) a worker spends roughly 60 %
//! of its time in windows, 15 % replaying, 8 % in prologues and the
//! rest waiting at the barrier for the other shard's heavier windows.
//!
//! At [`Network::run_until`]'s end the shards merge back into the
//! master: devices swap home, per-shard packet arenas drain into the
//! master pool (a shard arena with a packet left over is a leak, and
//! one freed twice trips the generation check — the `pool-paranoid`
//! feature keeps that oracle in release builds), queues concatenate
//! under their true keys, and fault statistics and audit ledgers —
//! all pure per-event sums — add element-wise. The resulting
//! [`Network::checkpoint`] is byte-identical to the serial engine's at
//! every window boundary.
//!
//! # How the serial *observation* stream is reproduced exactly
//!
//! Each shard network carries the capture-mode twin of the master's
//! observer (`observe.rs`); telemetry, tracing and profiling all ride
//! the replay:
//!
//! * **Trace records and flight notes** append, in dispatch order, to
//!   the shard observer's one capture stream, and
//!   [`DispatchRec::n_obs`] counts each dispatch's share. The window
//!   posts the stream with its log; the lead worker's replay, which
//!   holds the master network, copies each dispatch's slice into the
//!   master tracer and flight recorder in global `(time, true-key)`
//!   order — the exact order the serial loop would have captured them
//!   in — and synthesizes the serial loop's per-audit-pass flight note
//!   at each cadence crossing.
//! * **Telemetry samples** read barrier-consistent global state. The
//!   serial loop samples a boundary `b` lazily, when the first batch
//!   with time `> b` pops: the lead reproduces that by capping every
//!   window at the next unconsumed boundary and sampling due
//!   boundaries between the prologues and the windows, while the other
//!   workers wait, through a [`FabricView`] assembled across the shard
//!   guards (same counters: `events + 1` and `depth − 1` mid-run for
//!   the already-extracted head event, plain totals at the final
//!   flush). Only telemetry adds those two extra barriers per round.
//! * **Profiler bins** are pure sums: each shard's observer profiles
//!   into its own bins, which fold into the master's at the merge; the
//!   lead attributes each round's replay and hand-off time to
//!   [`Subsystem::Barrier`], one call per round.
//!
//! # What falls back to the serial loop
//!
//! * **BECN-loss fault windows** — `drop_becn` draws from one shared
//!   RNG stream in global CNP-arrival order ([`Network::set_shards`]
//!   declines to install). Every other fault family (flap, pause,
//!   drift) is per-device or consulted lazily by time and shards
//!   cleanly.

use crate::network::{Dev, Event, Network};
use crate::observe::Captured;
use crate::profile::Subsystem;
use crate::state::EventState;
use crate::telemetry::{FabricView, FlightKind, NetTelemetry};
use crate::NetAudit;
use ibsim_engine::queue::CalendarQueue;
use ibsim_engine::time::Time;
use ibsim_engine::QueueSnapshot;
use ibsim_faults::{FaultAction, FaultStats};
use ibsim_topo::{partition_leaf_groups, Topology};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// Provisional keys start here: above every true sequence number a
/// simulation can reach, so at equal times window-local events sort
/// after all pre-window events — the order serial seq assignment gives.
pub(crate) const PROV_BASE: u64 = 1 << 62;

/// Device → shard lookup tables, shared by the master's executor and
/// every shard's router.
#[derive(Clone)]
pub(crate) struct OwnerMap {
    pub sw: Arc<Vec<u32>>,
    pub hca: Arc<Vec<u32>>,
    /// Per channel: the shard of the channel's *destination* device
    /// (arrivals dispatch where the receiver lives).
    pub ch: Arc<Vec<u32>>,
    /// Per fault-schedule transition: the affected HCA's shard for
    /// pause/resume/drift, shard 0 for pure-bookkeeping transitions.
    pub fault: Arc<Vec<u32>>,
}

impl OwnerMap {
    pub(crate) fn owner_of(&self, ev: &Event) -> u32 {
        match *ev {
            Event::SwArrive { ch, .. } | Event::HcaArrive { ch, .. } => self.ch[ch as usize],
            Event::SwTxDone { sw, .. }
            | Event::SwTryArb { sw, .. }
            | Event::SwCredit { sw, .. } => self.sw[sw as usize],
            Event::HcaTxDone { hca }
            | Event::HcaTrySend { hca }
            | Event::HcaCredit { hca, .. }
            | Event::SinkDone { hca }
            | Event::CctiTick { hca } => self.hca[hca as usize],
            Event::Fault { idx } => self.fault[idx as usize],
            // PFC frames are ordinary events: they cross shard
            // boundaries through the same outbox/replay machinery as
            // packets and credits.
            Event::PfcSw { sw, .. } => self.sw[sw as usize],
            Event::PfcHca { hca, .. } => self.hca[hca as usize],
        }
    }
}

/// One event bound for another shard, carried by value (the packet, if
/// any, leaves the sender's arena and re-allocates in the receiver's).
pub(crate) struct OutMsg {
    pub at: Time,
    /// The provisional index the sender allocated; the receiver
    /// resolves it through its own replay of the sender's log when it
    /// installs the event.
    pub prov: u64,
    pub ev: EventState,
}

/// One dispatched event, as the replay sees it.
#[derive(Clone, Copy)]
pub(crate) struct DispatchRec {
    pub at: Time,
    /// True sequence number, or `PROV_BASE + prov` for events scheduled
    /// earlier in the same window.
    pub key: u64,
    /// How many events this dispatch scheduled (provisional indices are
    /// allocated contiguously, so the replay can assign their true
    /// sequence numbers without recording each one).
    pub n_sched: u32,
    /// Capture-stream entries (trace records and flight notes) this
    /// dispatch appended — the replay copies exactly this many into the
    /// master when it reaches this dispatch, reproducing serial
    /// capture order.
    pub n_obs: u32,
}

/// Event-routing overlay installed on each *shard* network. While
/// present, [`Network::sched`] diverts newly scheduled events here
/// instead of the main queue.
pub(crate) struct ShardRoute {
    pub my: u32,
    pub owners: OwnerMap,
    /// Window-local events due *inside* the current window (provisional
    /// keys): these can pop before the barrier, so they need a real
    /// priority queue.
    pub win: CalendarQueue<Event>,
    /// Window-local events due *after* the current window end: they
    /// cannot pop before the barrier, so they skip the queue and wait
    /// here for relabelling — one Vec push instead of a calendar insert
    /// and drain, and it is most of the event traffic (anything a link
    /// latency or more out lands past the window by construction).
    pub later: Vec<(Time, u64, Event)>,
    /// Earliest time among the events this shard holds outside its
    /// queues — `later` plus every outbox — tracked at push time so
    /// nothing ever scans them. `Time::MAX` when none.
    pub held_min: Time,
    /// End of the window currently running, the `win`/`later` boundary.
    pub w_end: Time,
    /// Next provisional index (reset every window).
    pub prov: u64,
    /// Per target shard: the events this window sent there.
    pub outbox: Vec<Vec<OutMsg>>,
    pub log: Vec<DispatchRec>,
}

impl ShardRoute {
    fn new(my: u32, owners: OwnerMap, n: usize) -> Self {
        ShardRoute {
            my,
            owners,
            win: CalendarQueue::with_capacity(256),
            later: Vec::new(),
            held_min: Time::MAX,
            w_end: Time(0),
            prov: 0,
            outbox: (0..n).map(|_| Vec::new()).collect(),
            log: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn owner_of(&self, ev: &Event) -> u32 {
        self.owners.owner_of(ev)
    }
}

/// What one shard's window leaves for every worker to read at the
/// barrier: its dispatch log, the events it sent each other shard, and
/// its captured observation records. Double-buffered by window parity
/// (see [`ShardExec::posts`]), so writers and readers never meet.
#[derive(Default)]
struct Post {
    log: Vec<DispatchRec>,
    /// Provisional indices the window allocated (the sum of the log's
    /// `n_sched`).
    n_prov: u64,
    /// Per target shard: the events sent there.
    out: Vec<Vec<OutMsg>>,
    /// The earliest event the shard holds or sent after the window:
    /// its term in `gmin`, computed where the data is local.
    next_min: Option<Time>,
    /// The window's capture stream, in the order
    /// [`DispatchRec::n_obs`] counts it; empty unless the master
    /// observes.
    obs: Vec<Captured>,
}

/// The sharded-executor state on the *master* network.
pub(crate) struct ShardExec {
    n: usize,
    /// One network per shard. Uncontended: only the owning worker
    /// locks it, except while the lead samples telemetry and the others
    /// wait at the barrier; the mutex is the `Sync` fence that hands
    /// each network across threads.
    nets: Vec<Padded<Mutex<Network>>>,
    owners: OwnerMap,
    /// Minimum latency of any cross-shard channel, in picoseconds.
    /// Strictly positive — zero-latency cuts are rejected at
    /// [`Network::set_shards`].
    lookahead_ps: u64,
    /// Threads that run the windows, `1..=n`; each runs a contiguous
    /// block of shards in turn.
    workers: usize,
    /// Per shard, two posts alternating by window parity: window `k`
    /// publishes into `posts[s][k % 2]` while every worker still reads
    /// window `k − 1`'s from the other slot — one barrier per window
    /// keeps the two phases apart.
    posts: Vec<[Padded<RwLock<Post>>; 2]>,
}

/// Keeps neighbours in a `Vec` shared between threads off each other's
/// cache lines: one shard's hot fields next to another's lock word
/// would bounce that line between cores on every access.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Padded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// How many worker threads run `n` shards on `cores` hardware threads:
/// one per shard, never more than the cores (a worker runs several
/// shards' windows in turn), at least one.
pub(crate) fn workers_for(n: usize, cores: usize) -> usize {
    n.min(cores).max(1)
}

/// Head key of an exhausted log. Sorts after every real key: true
/// sequence numbers stay below [`PROV_BASE`].
const DONE: u128 = u128::MAX;

/// A `(time, key)` pair as one integer with the same order.
#[inline]
fn pack(at: Time, key: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(key)
}

/// Replay bookkeeping threaded from split through the windows to the
/// merge: the serial engine's queue position, plus the audit cadence
/// replicated event-exactly.
struct Flow {
    /// Next sequence number the serial engine would assign.
    gseq: u64,
    processed: u64,
    last_pop: Option<(Time, u64)>,
    /// Timestamp of the last replayed dispatch (the serial queue's
    /// clock after `run_until`).
    now: Time,
    /// Master fault statistics at split, the base every shard's delta
    /// is measured against.
    split_stats: Option<FaultStats>,
    audit_every: u64,
    /// Audit cadence position, stepped exactly as `Audit::due` would.
    next_at: u64,
    checks0: u64,
    audit_on: bool,
    /// Cadence boundaries crossed during the windows.
    crossings: u64,
    /// `(last_pop, processed)` at the most recent crossing — what the
    /// serial engine's last periodic pass recorded.
    cross_marks: (Option<(Time, u64)>, u64),
    /// Sanctioned-drop count at split. Sanctioned drops only accrue
    /// under BECN-loss faults, which decline sharding, so the count is
    /// constant across the drive — the replay echoes it in the
    /// `AuditPass` flight note it synthesizes at each cadence crossing.
    sanction0: u64,
}

/// A sense-reversing barrier that spins, then parks. Windows are short
/// (one lookahead of simulated time), so with a core per worker a wait
/// is a few microseconds and parking every round would dominate. A
/// worker whose partner lost its core (more runnable threads than
/// cores, e.g. sharded cells under `parallel_map`) would spin away the
/// very time slice the partner needs, so after `spin_limit` polls it
/// sleeps on a condition variable until the last arrival wakes it. The
/// limit adapts between [`MIN_SPINS`] and [`MAX_SPINS`]: every park
/// halves it, every wait that ends while spinning doubles it — long
/// spins on spare cores, short ones when the cores are oversubscribed.
/// A thread that panics aborts the barrier (see [`AbortOnUnwind`]), and
/// every thread waiting on it panics in turn instead of waiting on
/// forever.
struct WindowBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicU64,
    aborted: AtomicBool,
    /// Waiters parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    spin_limit: AtomicU32,
    lock: Mutex<()>,
    wake: Condvar,
}

/// Bounds of the adaptive spin limit, in polls.
const MAX_SPINS: u32 = 10_000;
const MIN_SPINS: u32 = 1_000;

impl WindowBarrier {
    fn new(n: usize) -> Self {
        WindowBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            spin_limit: AtomicU32::new(MAX_SPINS),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            // SeqCst pairs with the sleeper's: either it sees the new
            // generation, or this sees it counted and wakes it.
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != gen;
        let check = || {
            assert!(
                !self.aborted.load(Ordering::Relaxed),
                "another shard worker panicked"
            );
        };
        let limit = self.spin_limit.load(Ordering::Relaxed);
        for _ in 0..limit {
            if released() {
                let grown = (limit * 2).min(MAX_SPINS);
                self.spin_limit.store(grown, Ordering::Relaxed);
                return;
            }
            check();
            std::hint::spin_loop();
        }
        self.spin_limit
            .store((limit / 2).max(MIN_SPINS), Ordering::Relaxed);
        let mut guard = self.lock.lock().expect("barrier lock");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen && !self.aborted.load(Ordering::SeqCst)
        {
            guard = self.wake.wait(guard).expect("barrier lock");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        check();
    }

    fn wake_all(&self) {
        let _guard = self.lock.lock().expect("barrier lock");
        self.wake.notify_all();
    }
}

impl Network {
    /// Partition the fabric and run subsequent [`Network::run_until`]
    /// calls on `n` parallel shards. Checkpoints, goldens and CSVs are
    /// byte-identical to the serial engine for every shard count.
    ///
    /// Must be called before the first event is dispatched (the split
    /// assumes it sees the whole initial state). A no-op — the run
    /// stays serial — when `n <= 1`, when the fabric has too few leaf
    /// switches to cut, when a cross-shard cable has zero latency, or
    /// when the installed fault schedule contains BECN-loss windows
    /// (their shared RNG stream draws in global CNP-arrival order).
    pub fn set_shards(&mut self, topo: &Topology, n: usize) {
        assert!(!self.primed, "set_shards after the first event");
        self.shards = None;
        if n <= 1 {
            return;
        }
        if let Some(f) = &self.faults {
            let has_becn_loss = f.schedule().faults().iter().any(|tf| {
                matches!(
                    tf.action,
                    FaultAction::BecnLossOpen { .. } | FaultAction::BecnLossClose { .. }
                )
            });
            if has_becn_loss {
                return;
            }
        }
        let part = partition_leaf_groups(topo, n);
        if part.n <= 1 {
            return;
        }
        let ch_owner: Vec<u32> = self
            .channels
            .iter()
            .map(|ch| match ch.to.0 {
                Dev::Switch(s) => part.switch_shard[s as usize],
                Dev::Hca(h) => part.hca_shard[h as usize],
            })
            .collect();
        let from_owner = |ch: &crate::network::Channel| match ch.from.0 {
            Dev::Switch(s) => part.switch_shard[s as usize],
            Dev::Hca(h) => part.hca_shard[h as usize],
        };
        let lookahead_ps = self
            .channels
            .iter()
            .zip(&ch_owner)
            .filter(|(ch, &to)| from_owner(ch) != to)
            .map(|(ch, _)| ch.delay.as_ps())
            .min()
            .unwrap_or(u64::MAX / 4);
        if lookahead_ps == 0 {
            // A zero-latency cut gives the windows no room to advance.
            return;
        }
        let fault_owner: Vec<u32> = match &self.faults {
            Some(f) => f
                .schedule()
                .faults()
                .iter()
                .map(|tf| match tf.action {
                    FaultAction::Drift { hca, .. }
                    | FaultAction::Pause { hca }
                    | FaultAction::Resume { hca } => part.hca_shard[hca as usize],
                    _ => 0,
                })
                .collect(),
            None => Vec::new(),
        };
        let owners = OwnerMap {
            sw: Arc::new(part.switch_shard),
            hca: Arc::new(part.hca_shard),
            ch: Arc::new(ch_owner),
            fault: Arc::new(fault_owner),
        };
        let mut nets = Vec::with_capacity(part.n);
        for s in 0..part.n {
            let mut sh = Network::new(topo, self.cfg.clone());
            // Shards never prime: the master's queue is authoritative,
            // and its entries arrive at the split.
            sh.primed = true;
            sh.shard_route = Some(Box::new(ShardRoute::new(s as u32, owners.clone(), part.n)));
            nets.push(Padded(Mutex::new(sh)));
        }
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.shards = Some(Box::new(ShardExec {
            n: part.n,
            nets,
            owners,
            lookahead_ps,
            workers: workers_for(part.n, cores),
            posts: (0..part.n).map(|_| Default::default()).collect(),
        }));
    }

    /// Effective shard count (1 when running serial).
    pub fn shard_count(&self) -> usize {
        self.shards.as_ref().map_or(1, |e| e.n)
    }

    /// The parallel counterpart of [`Network::run_until`], dispatched
    /// from its gate. Splits the fabric across the shards, advances
    /// them window by window to `t`, and merges back into `self` — at
    /// which point every observable is byte-identical to what the
    /// serial loop would hold.
    pub(crate) fn run_until_sharded(&mut self, t: Time) {
        if !self.primed {
            self.prime();
        }
        let mut ex = self.shards.take().expect("gated on shards.is_some()");
        let mut flow = self.split(&mut ex);
        // The lead worker holds the master for the drive: its replay
        // copies the shards' captures into the master's observer and
        // flight recorder, and it samples telemetry between rounds.
        drive(&mut ex, t, &mut flow, self);
        if let Some(tel) = self.telemetry.as_deref_mut() {
            final_sample(&ex, t, &flow, tel);
        }
        self.merge(&mut ex, &flow);
        self.shards = Some(ex);
    }

    /// Move every piece of runtime state to its owning shard: devices
    /// swap out (the master keeps pristine placeholders), pending
    /// events travel by value to their dispatch shard, fault state is
    /// cloned (deltas merge back), and each shard gets a zero audit
    /// ledger to accumulate its window updates into.
    fn split(&mut self, ex: &mut ShardExec) -> Flow {
        let snap = self.queue.snapshot();
        let mut per: Vec<Vec<(Time, u64, EventState)>> = Vec::new();
        per.resize_with(ex.n, Vec::new);
        for &(at, seq, ev) in &snap.entries {
            let owner = ex.owners.owner_of(&ev) as usize;
            let es = EventState::capture(ev, &self.pool);
            if let Event::SwArrive { h, .. } | Event::HcaArrive { h, .. } = ev {
                self.pool.release(h);
            }
            per[owner].push((at, seq, es));
        }
        let (n_channels, n_vls) = (self.channels.len(), self.cfg.n_vls as usize);
        for (s, entries) in per.into_iter().enumerate() {
            let sh = ex.nets[s].get_mut().expect("no poisoned shard");
            for (i, &o) in ex.owners.sw.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.switches[i], &mut sh.switches[i]);
                    sh.switches[i].remap_pool(&mut self.pool, &mut sh.pool);
                }
            }
            for (i, &o) in ex.owners.hca.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.hcas[i], &mut sh.hcas[i]);
                    sh.hcas[i].remap_pool(&mut self.pool, &mut sh.pool);
                }
            }
            sh.faults = self.faults.clone();
            sh.audit = self
                .audit
                .as_ref()
                .map(|_| Box::new(NetAudit::new(n_channels, n_vls, u64::MAX)));
            sh.obs = self.obs.for_shard();
            let installed: Vec<(Time, u64, Event)> = entries
                .into_iter()
                .map(|(at, seq, es)| (at, seq, es.install(&mut sh.pool)))
                .collect();
            sh.queue = CalendarQueue::from_snapshot(QueueSnapshot {
                now: snap.now,
                seq: 0,
                processed: 0,
                last_pop: None,
                entries: installed,
            });
            // The previous drive's last prologue left the route empty;
            // only the window queue's clock rewinds (a restore may have
            // moved the master back).
            let r = sh.shard_route.as_mut().expect("shards carry a route");
            debug_assert!(r.win.is_empty() && r.later.is_empty() && r.log.is_empty());
            r.win.reset();
            // The drive starts by replaying "window −1", parity 1: an
            // empty log whose only content is the split's pending
            // minimum.
            for (parity, post) in ex.posts[s].iter_mut().enumerate() {
                let post = post.get_mut().expect("no poisoned post");
                post.log.clear();
                post.n_prov = 0;
                post.out.resize_with(ex.n, Vec::new);
                post.out.iter_mut().for_each(Vec::clear);
                post.next_min = if parity == 1 {
                    sh.queue.peek_time()
                } else {
                    None
                };
                post.obs.clear();
            }
        }
        assert_eq!(
            self.pool.live(),
            0,
            "split left {} live packet(s) behind in the master arena",
            self.pool.live()
        );
        let (next_at, checks0) = self.audit.as_ref().map_or((u64::MAX, 0), |a| a.position());
        Flow {
            gseq: snap.seq,
            processed: snap.processed,
            last_pop: snap.last_pop,
            now: snap.now,
            split_stats: self.faults.as_ref().map(|f| *f.stats()),
            audit_every: self.audit.as_ref().map_or(u64::MAX, |a| a.interval()),
            next_at,
            checks0,
            audit_on: self.audit.is_some(),
            crossings: 0,
            cross_marks: (None, 0),
            sanction0: self.audit.as_ref().map_or(0, |a| a.sanctioned_packets()),
        }
    }

    /// Undo the split after the windows have run (the last round's
    /// prologues already folded every event into the shard queues):
    /// devices home, shard arenas drained (conservation asserted),
    /// queues concatenated under true keys, fault deltas and audit
    /// ledgers summed, and the audit cadence patched to the position
    /// the serial loop's periodic passes would have left it at.
    fn merge(&mut self, ex: &mut ShardExec, flow: &Flow) {
        let mut entries: Vec<(Time, u64, EventState)> = Vec::new();
        let mut merged_stats = flow.split_stats;
        for s in 0..ex.n {
            let sh = ex.nets[s].get_mut().expect("no poisoned shard");
            for (i, &o) in ex.owners.sw.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.switches[i], &mut sh.switches[i]);
                    self.switches[i].remap_pool(&mut sh.pool, &mut self.pool);
                }
            }
            for (i, &o) in ex.owners.hca.iter().enumerate() {
                if o == s as u32 {
                    std::mem::swap(&mut self.hcas[i], &mut sh.hcas[i]);
                    self.hcas[i].remap_pool(&mut sh.pool, &mut self.pool);
                }
            }
            let snap = sh.queue.snapshot();
            for &(at, seq, ev) in &snap.entries {
                let es = EventState::capture(ev, &sh.pool);
                if let Event::SwArrive { h, .. } | Event::HcaArrive { h, .. } = ev {
                    sh.pool.release(h);
                }
                entries.push((at, seq, es));
            }
            // The cross-shard hand-off oracle: every packet that entered
            // this shard's arena must have left it — a leftover is a
            // leak, and a double-free already tripped the generation
            // check on release (kept in release builds by the
            // `pool-paranoid` feature).
            assert_eq!(
                sh.pool.live(),
                0,
                "shard {s} leaked {} packet slot(s) across the merge",
                sh.pool.live()
            );
            sh.queue.reset();
            if let (Some(m), Some(f), Some(base)) =
                (merged_stats.as_mut(), &sh.faults, &flow.split_stats)
            {
                add_stats_delta(m, f.stats(), base);
            }
            sh.faults = None;
            if let Some(a) = sh.audit.take() {
                self.audit
                    .as_mut()
                    .expect("shard audits exist iff the master's does")
                    .absorb(&a);
            }
            self.obs.absorb(std::mem::take(&mut sh.obs));
        }
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        let installed: Vec<(Time, u64, Event)> = entries
            .into_iter()
            .map(|(at, seq, es)| (at, seq, es.install(&mut self.pool)))
            .collect();
        self.queue = CalendarQueue::from_snapshot(QueueSnapshot {
            now: flow.now,
            seq: flow.gseq,
            processed: flow.processed,
            last_pop: flow.last_pop,
            entries: installed,
        });
        if let (Some(f), Some(stats)) = (self.faults.as_deref_mut(), merged_stats) {
            let mut rt = f.runtime_state();
            rt.stats = stats;
            f.restore_runtime_state(&rt)
                .expect("restoring onto the machine the state came from");
        }
        if flow.crossings > 0 {
            // The serial loop ran a full pass at each cadence crossing;
            // one pass over the merged state checks the same ledgers
            // (they are constant-summed, just later), then the cadence
            // position and event-order watermarks are patched to what
            // the last serial pass would have recorded. Unchecked by the
            // flight recorder: the replay already noted the serial passes.
            self.audit_now().raise();
            let a = self.audit.as_mut().expect("crossings imply an audit");
            a.set_position(flow.next_at, flow.checks0 + flow.crossings);
            a.set_order_marks(flow.cross_marks.0, flow.cross_marks.1);
        }
    }

    /// Start-of-window bookkeeping on one shard, run by its worker in
    /// parallel with every other shard's: relabel the previous window's
    /// provisional events with their replay-agreed true keys, and
    /// install the events other shards sent here, resolving their keys
    /// through the same replay (`maps[src]` is shard `src`'s map).
    fn window_prologue(&mut self, maps: &[Vec<u64>], posts: &[RwLockReadGuard<'_, Post>]) {
        let r = self
            .shard_route
            .as_deref_mut()
            .expect("prologue runs on shards");
        debug_assert!(r.win.is_empty(), "windows drain their window queue");
        let my = r.my as usize;
        for (at, prov, ev) in r.later.drain(..) {
            self.queue.schedule_keyed(at, maps[my][prov as usize], ev);
        }
        for (src, post) in posts.iter().enumerate() {
            for m in &post.out[my] {
                let ev = m.ev.install(&mut self.pool);
                self.queue
                    .schedule_keyed(m.at, maps[src][m.prov as usize], ev);
            }
        }
        r.prov = 0;
        r.held_min = Time::MAX;
    }

    /// Dispatch every event on this shard with time ≤ `w_end`,
    /// interleaving the main queue (true keys) and the window queue
    /// (provisional keys) exactly as the serial engine would order
    /// them, and logging each dispatch for the replay.
    pub(crate) fn run_window(&mut self, w_end: Time, batch: &mut Vec<(u64, Event)>) {
        self.shard_route
            .as_mut()
            .expect("windows run on shards")
            .w_end = w_end;
        loop {
            // One main-queue peek per batch: pop it up to the window
            // queue's head (which `sched` keeps within the window), then
            // take the window queue's batch if it is due at the same
            // time or the main queue had nothing that early. True keys
            // are all < PROV_BASE, so the concatenation of the two
            // per-queue batches is already in key order — pre-window
            // events first, window-local events after, just as serial
            // seq assignment orders them.
            batch.clear();
            let t0 = self.obs.start();
            let r = self.shard_route.as_mut().expect("windows run on shards");
            let tw = r.win.peek_time();
            debug_assert!(tw.is_none_or(|tw| tw <= w_end));
            let t = match (self.queue.pop_batch_until(tw.unwrap_or(w_end), batch), tw) {
                (Some(tm), None) => tm,
                (Some(tm), Some(tw)) if tm < tw => tm,
                (_, Some(tw)) => {
                    r.win.pop_batch_until(tw, batch);
                    tw
                }
                (None, None) => break,
            };
            self.obs.stop(Subsystem::QueuePop, t0);
            for &(key, ev) in batch.iter() {
                let before = self.shard_route.as_ref().expect("shard").prov;
                let obs0 = self.obs.captured();
                self.dispatch_timed(t, ev);
                let n_obs = (self.obs.captured() - obs0) as u32;
                let r = self.shard_route.as_mut().expect("shard");
                r.log.push(DispatchRec {
                    at: t,
                    key,
                    n_sched: (r.prov - before) as u32,
                    n_obs,
                });
            }
        }
    }

    /// End of a window: move its log, outboxes and captured observation
    /// records into `post` — buffer swaps, the emptied buffers come back
    /// for the next window — with the shard's pending minimum.
    fn publish(&mut self, post: &mut Post) {
        let r = self
            .shard_route
            .as_deref_mut()
            .expect("windows run on shards");
        post.log.clear();
        std::mem::swap(&mut post.log, &mut r.log);
        post.n_prov = r.prov;
        for (out, sent) in post.out.iter_mut().zip(&mut r.outbox) {
            out.clear();
            std::mem::swap(out, sent);
        }
        let held = (r.held_min != Time::MAX).then_some(r.held_min);
        post.next_min = match (self.queue.peek_time(), held) {
            (Some(q), Some(h)) => Some(q.min(h)),
            (q, h) => q.or(h),
        };
        post.obs.clear();
        if let Some(c) = self.obs.capture.as_mut() {
            std::mem::swap(&mut post.obs, c);
        }
    }
}

/// `merged += shard − base`, field by field: every counter is a pure
/// sum of per-event increments, so per-shard deltas over the split
/// snapshot add up to exactly what the serial loop would have counted.
fn add_stats_delta(merged: &mut FaultStats, shard: &FaultStats, base: &FaultStats) {
    merged.becn_dropped += shard.becn_dropped - base.becn_dropped;
    merged.becn_spared += shard.becn_spared - base.becn_spared;
    merged.credits_stalled += shard.credits_stalled - base.credits_stalled;
    merged.credits_delayed += shard.credits_delayed - base.credits_delayed;
    merged.flap_transitions += shard.flap_transitions - base.flap_transitions;
    merged.becn_transitions += shard.becn_transitions - base.becn_transitions;
    merged.drifts_applied += shard.drifts_applied - base.drifts_applied;
    merged.pauses += shard.pauses - base.pauses;
    merged.resumes += shard.resumes - base.resumes;
}

/// Aborts the barrier if its thread unwinds, so a panic in one worker
/// surfaces in all of them rather than hanging.
struct AbortOnUnwind<'a>(&'a WindowBarrier);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.aborted.store(true, Ordering::SeqCst);
            self.0.wake_all();
        }
    }
}

/// Run windows to `t` across all shards on `ex.workers` threads, the
/// calling thread being worker 0. Worker `j` owns a contiguous block of
/// shards. Every round, each worker replays the previous window's
/// posted logs itself — a merge that depends only on the logs, so every
/// worker reaches the same true keys and the same next window end —
/// runs its shards' prologues, then their windows, and posts the
/// results; one barrier per window separates posting from reading.
/// Nothing runs serially between windows. The outcome is independent
/// of the worker count and of thread scheduling; with one worker no
/// thread is spawned and the barrier is a no-op.
fn drive(ex: &mut ShardExec, t: Time, flow: &mut Flow, master: &mut Network) {
    let (n, w) = (ex.n, ex.workers);
    let round = Round {
        nets: &ex.nets,
        posts: &ex.posts,
        owners: &ex.owners,
        lookahead_ps: ex.lookahead_ps,
        t,
        barrier: WindowBarrier::new(w),
        sampled: master.telemetry.is_some(),
        w_end_ps: AtomicU64::new(0),
    };
    let gseq = flow.gseq;
    std::thread::scope(|scope| {
        for j in 1..w {
            let round = &round;
            scope.spawn(move || round.work(j * n / w..(j + 1) * n / w, gseq, None));
        }
        round.work(0..n / w, gseq, Some((flow, master)));
    });
}

/// What every worker shares for one drive.
struct Round<'a> {
    nets: &'a [Padded<Mutex<Network>>],
    posts: &'a [[Padded<RwLock<Post>>; 2]],
    owners: &'a OwnerMap,
    lookahead_ps: u64,
    t: Time,
    barrier: WindowBarrier,
    /// Telemetry is on: the lead worker samples between the prologues
    /// and the windows while the others wait, and picks the window end.
    sampled: bool,
    w_end_ps: AtomicU64,
}

impl Round<'_> {
    /// One worker's rounds over `shards`. The lead (worker 0) also
    /// carries the replay bookkeeping and the master network.
    fn work(
        &self,
        shards: std::ops::Range<usize>,
        gseq: u64,
        mut lead: Option<(&mut Flow, &mut Network)>,
    ) {
        let _abort = AbortOnUnwind(&self.barrier);
        let mut rp = Replayer {
            maps: vec![Vec::new(); self.nets.len()],
            gseq,
        };
        let mut batch: Vec<(u64, Event)> = Vec::with_capacity(64);
        // Window k posts into parity k % 2; the first round replays the
        // split's "window −1" in parity 1.
        for k in 0usize.. {
            let t0 = lead.as_ref().and_then(|(_, m)| m.obs.start());
            let posts: Vec<_> = self
                .posts
                .iter()
                .map(|p| p[(k + 1) % 2].read().expect("no poisoned post"))
                .collect();
            rp.replay(&posts, lead.as_mut().map(|(f, o)| (&mut **f, &mut **o)));
            // Every worker derives the same gmin from the same posts.
            // Cross-shard events generated in (w₀, w₁] land at
            // ≥ gmin + L, so w₁ = gmin + L − 1 is the widest window that
            // cannot miss one; `None` once nothing at or before t is left.
            let gmin = posts.iter().filter_map(|p| p.next_min).min();
            let mut w_end = gmin
                .filter(|&g| g <= self.t)
                .map(|g| Time(g.as_ps().saturating_add(self.lookahead_ps - 1)).min(self.t));
            if self.sampled {
                // Every shard must be quiescent while the lead samples.
                for s in shards.clone() {
                    let mut net = self.nets[s].lock().expect("no poisoned shard");
                    net.window_prologue(&rp.maps, &posts);
                }
                self.barrier.wait();
                if let (Some((flow, m)), Some(w), Some(gmin)) = (lead.as_mut(), w_end, gmin) {
                    let tel = m
                        .telemetry
                        .as_deref_mut()
                        .expect("sampled runs have telemetry");
                    let capped = w.min(self.sample(gmin, flow, tel));
                    self.w_end_ps.store(capped.as_ps(), Ordering::Relaxed);
                }
                self.barrier.wait();
                w_end = w_end.map(|_| Time(self.w_end_ps.load(Ordering::Relaxed)));
            }
            if let Some((_, m)) = lead.as_mut() {
                m.obs.stop(Subsystem::Barrier, t0);
            }
            // One lock per shard per round: prologue, then window. The
            // last round only folds the final window's events in.
            for s in shards.clone() {
                let mut net = self.nets[s].lock().expect("no poisoned shard");
                if !self.sampled {
                    net.window_prologue(&rp.maps, &posts);
                }
                if let Some(w_end) = w_end {
                    let mut post = self.posts[s][k % 2].write().expect("no poisoned post");
                    net.run_window(w_end, &mut batch);
                    net.publish(&mut post);
                }
            }
            if w_end.is_none() {
                break;
            }
            self.barrier.wait();
        }
    }

    /// The lead's telemetry step between prologues and windows, every
    /// shard quiescent: sample the boundaries strictly before `gmin`,
    /// and return the next unconsumed boundary — the window must stop
    /// there, so no shard dispatches past a boundary before it is
    /// sampled. (After sampling, that boundary is ≥ gmin, so the cap
    /// never stalls the window.)
    fn sample(&self, gmin: Time, flow: &Flow, tel: &mut NetTelemetry) -> Time {
        // The serial loop samples a boundary lazily when the batch at
        // gmin pops, right after extracting its head event — so the
        // reading shows one more processed event and one less pending.
        if tel.due_before(gmin) {
            let guards = lock_all(self.nets);
            let view = build_view(
                &guards,
                self.owners,
                flow.processed + 1,
                total_pending(&guards) - 1,
            );
            while tel.due_before(gmin) {
                let b = tel.pop_boundary();
                tel.sample(b, &view);
            }
        }
        tel.next_boundary()
    }
}

fn lock_all(nets: &[Padded<Mutex<Network>>]) -> Vec<MutexGuard<'_, Network>> {
    nets.iter()
        .map(|m| m.lock().expect("no poisoned shard"))
        .collect()
}

/// Nothing left at or before `t`: flush the telemetry boundaries up to
/// and including `t` with the final counters, exactly like the serial
/// epilogue's inclusive sample.
fn final_sample(ex: &ShardExec, t: Time, flow: &Flow, tel: &mut NetTelemetry) {
    if tel.due_at(t) {
        let guards = lock_all(&ex.nets);
        let view = build_view(&guards, &ex.owners, flow.processed, total_pending(&guards));
        while tel.due_at(t) {
            let b = tel.pop_boundary();
            tel.sample(b, &view);
        }
    }
}

/// One worker's replay state: every shard's provisional-key map for
/// the window being replayed, and the serial engine's next sequence
/// number — kept in step on every worker by identical merges.
struct Replayer {
    maps: Vec<Vec<u64>>,
    gseq: u64,
}

/// The packed `(time, true key)` of log entry `c`, or [`DONE`]. A
/// provisional key always resolves: the dispatch that allocated it
/// precedes it in the same log, so the replay has already mapped it.
#[inline]
fn head(log: &[DispatchRec], map: &[u64], c: usize) -> u128 {
    match log.get(c) {
        None => DONE,
        Some(rec) => {
            // Branch-free: the lookup is clamped into range (the map
            // has slack) and discarded for true keys.
            let slot = (rec.key.wrapping_sub(PROV_BASE) as usize).min(map.len() - 1);
            let resolved = map[slot];
            pack(
                rec.at,
                if rec.key < PROV_BASE {
                    rec.key
                } else {
                    resolved
                },
            )
        }
    }
}

/// Map slots past the window's provisional count: room for [`head`]'s
/// clamped lookup and for the replay's fixed-width fill.
const MAP_SLACK: usize = 4;

/// One shard's log as the merge walks it.
struct Lane<'a> {
    log: &'a [DispatchRec],
    /// Next unreplayed record, and the next map slot it fills.
    c: usize,
    m: usize,
    /// The packed `(time, true key)` of record `c`, [`DONE`] at the end.
    head: u128,
    /// Capture-stream entries already replayed (lead only).
    ocur: usize,
}

impl Replayer {
    /// Replay one window: a k-way merge of the posted logs in global
    /// `(time, true key)` order. Each shard's head key is cached and
    /// only the shard that advanced re-derives it; picking the least
    /// head is a branch-free scan, since which shard leads is as good
    /// as random. Each replayed dispatch assigns its provisional events
    /// the serial engine's next sequence numbers. On the lead, audit
    /// cadence crossings and, with an instrument on, every dispatch
    /// also take the slow path ([`observe_dispatch`]).
    fn replay(
        &mut self,
        posts: &[RwLockReadGuard<'_, Post>],
        mut lead: Option<(&mut Flow, &mut Network)>,
    ) {
        let mut lanes: Vec<Lane<'_>> = posts
            .iter()
            .zip(&mut self.maps)
            .map(|(p, map)| {
                // Every provisional index the window allocated gets a
                // slot; the replay fills them in allocation order.
                map.clear();
                map.resize(p.n_prov as usize + MAP_SLACK, 0);
                Lane {
                    log: &p.log,
                    c: 0,
                    m: 0,
                    head: head(&p.log, map, 0),
                    ocur: 0,
                }
            })
            .collect();
        let observe = lead
            .as_ref()
            .is_some_and(|(_, m)| m.obs.flows.is_some() || m.telemetry.is_some());
        let slow_at = |lead: &Option<(&mut Flow, &mut Network)>| match lead {
            Some((f, _)) if !observe => f.next_at,
            Some(_) => 0,
            None => u64::MAX,
        };
        let mut gseq = self.gseq;
        let mut processed = lead.as_ref().map_or(0, |(f, _)| f.processed);
        let mut slow = slow_at(&lead);
        let mut last = None;
        loop {
            let mut s = 0;
            for i in 1..lanes.len() {
                s = if lanes[i].head < lanes[s].head { i } else { s };
            }
            let l = &mut lanes[s];
            let key = l.head;
            if key == DONE {
                break;
            }
            let map = &mut self.maps[s];
            let rec = &l.log[l.c];
            l.c += 1;
            let k = rec.n_sched as usize;
            // Most dispatches schedule a few events: fill a fixed-width
            // run (slots past `k` are rewritten by the next dispatch or
            // fall in the slack), and loop only for the rare rest.
            for (j, slot) in map[l.m..l.m + MAP_SLACK].iter_mut().enumerate() {
                *slot = gseq + j as u64;
            }
            for (j, slot) in map[l.m..l.m + k].iter_mut().enumerate().skip(MAP_SLACK) {
                *slot = gseq + j as u64;
            }
            l.m += k;
            gseq += k as u64;
            processed += 1;
            let at_key = (Time((key >> 64) as u64), key as u64);
            if processed >= slow {
                if let Some((flow, m)) = lead.as_mut() {
                    flow.processed = processed;
                    observe_dispatch(rec, at_key, l, &posts[s], flow, m);
                }
                slow = slow_at(&lead);
            }
            l.head = head(l.log, map, l.c);
            last = Some(at_key);
        }
        self.gseq = gseq;
        if let Some((flow, _)) = lead {
            if let Some((at, key)) = last {
                flow.last_pop = Some((at, key));
                flow.now = at;
            }
            flow.gseq = gseq;
            flow.processed = processed;
        }
    }
}

/// The lead's replay slow path for one dispatch: copy its slice of the
/// capture stream into the master's tracer and flight recorder (the
/// replay position IS the serial capture order, so record sequence
/// numbers come out identical), then step the audit cadence.
#[cold]
fn observe_dispatch(
    rec: &DispatchRec,
    key: (Time, u64),
    lane: &mut Lane<'_>,
    post: &Post,
    flow: &mut Flow,
    master: &mut Network,
) {
    let end = lane.ocur + rec.n_obs as usize;
    for c in &post.obs[lane.ocur..end] {
        match (c, &mut master.obs.tracer, &mut master.telemetry) {
            (Captured::Trace(r), Some(t), _) => t.push(*r),
            (Captured::Note(at, kind, subject, detail), _, Some(tel)) => {
                tel.flight
                    .record(*at, *kind, subject.clone(), detail.clone())
            }
            _ => unreachable!("shards capture only what the master observes"),
        }
    }
    lane.ocur = end;
    if flow.audit_on && flow.processed >= flow.next_at {
        flow.next_at = flow.processed + flow.audit_every;
        flow.crossings += 1;
        flow.cross_marks = (Some(key), flow.processed);
        // The serial pass here recorded a clean AuditPass note
        // (violations would have panicked the run; the merge's
        // deferred full pass re-checks that). Sanctioned drops are
        // constant during a drive — BECN-loss declines sharding.
        if let Some(tel) = master.telemetry.as_mut() {
            tel.flight.record(
                key.0,
                FlightKind::AuditPass,
                "audit",
                format!("clean; sanctioned drops {}", flow.sanction0),
            );
        }
    }
}

/// Global pending-event count across the shards — main queues plus
/// every not-yet-requeued window-local, later and handed-over event. At
/// a barrier this equals the serial engine's `pending()` exactly: the
/// windows drained every event with time < gmin, and nothing else.
fn total_pending(guards: &[MutexGuard<'_, Network>]) -> usize {
    guards
        .iter()
        .map(|g| {
            let r = g.shard_route.as_ref().expect("shard");
            g.queue.pending() + r.win.pending() + r.later.len()
        })
        .sum()
}

/// Assemble the sampler's whole-fabric view across the shard guards,
/// in global device-id order (each shard network holds full-size
/// device vectors; the owner map says which slot is live where).
fn build_view<'a>(
    guards: &'a [MutexGuard<'_, Network>],
    owners: &OwnerMap,
    events_processed: u64,
    queue_depth: usize,
) -> FabricView<'a> {
    FabricView {
        hcas: owners
            .hca
            .iter()
            .enumerate()
            .map(|(i, &o)| &guards[o as usize].hcas[i])
            .collect(),
        switches: owners
            .sw
            .iter()
            .enumerate()
            .map(|(i, &o)| &guards[o as usize].switches[i])
            .collect(),
        events_processed,
        queue_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DestPattern, NetConfig, TrafficClass};
    use ibsim_topo::FatTreeSpec;

    #[test]
    fn workers_never_exceed_shards_or_cores() {
        assert_eq!(workers_for(2, 2), 2);
        assert_eq!(workers_for(4, 2), 2);
        assert_eq!(workers_for(4, 1), 1);
        assert_eq!(workers_for(2, 16), 2);
        assert_eq!(workers_for(8, 8), 8);
        // Degenerate inputs still yield one worker.
        assert_eq!(workers_for(0, 4), 1);
        assert_eq!(workers_for(3, 0), 1);
    }

    /// Four shards on one worker and on two — several shards per worker,
    /// whatever the host's core count — hold the serial engine's exact
    /// state at every capture instant.
    #[test]
    fn more_shards_than_workers_matches_serial() {
        let topo = FatTreeSpec::TEST_8.build();
        let captures = [150, 350, 500].map(Time::from_us);
        let run = |shards: usize, workers: Option<usize>| {
            let mut net = Network::new(&topo, NetConfig::paper().with_seed(0x1B51_C0DE));
            for node in 0..topo.num_hcas as u32 {
                let dest = if node % 3 == 0 {
                    DestPattern::Fixed(1)
                } else {
                    DestPattern::UniformExceptSelf
                };
                net.set_classes(node, vec![TrafficClass::new(100, dest, 4096)]);
            }
            net.set_shards(&topo, shards);
            if let (Some(ex), Some(w)) = (net.shards.as_mut(), workers) {
                assert_eq!(ex.n, shards, "the fabric splits {shards} ways");
                ex.workers = w;
            }
            captures
                .iter()
                .map(|&t| {
                    net.run_until(t);
                    net.checkpoint()
                })
                .collect::<Vec<_>>()
        };
        let serial = run(1, None);
        for w in [1, 2] {
            assert!(
                run(4, Some(w)) == serial,
                "4 shards on {w} worker(s) diverged from serial"
            );
        }
    }
}

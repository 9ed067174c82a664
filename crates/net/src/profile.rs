//! Engine self-profiling: cheap per-subsystem wall-clock accounting
//! for the hot path, toggled by `--profile`.
//!
//! The profiler answers ROADMAP item 4's attribution question — where
//! do the nanoseconds go between the ~16–39M ops/s queue microbench
//! and the ~6.5–13M ev/s whole-network rate? Each dispatched event is
//! binned by the subsystem its event kind belongs to (routing,
//! VL arbitration, injection, sink, CC timers, faults, PFC), plus the
//! queue-pop, telemetry-sampling, audit and shard-barrier paths that
//! run between events.
//!
//! Profiling is strictly observational: it reads the monotonic clock
//! around work that already happens and never touches simulation
//! state, the event queue, or any RNG — a profile-on run is
//! byte-identical to a profile-off run for every simulation output.
//! When off it costs one branch per event (see `observe.rs`).

use serde::Serialize;

/// The engine subsystems the profiler attributes time to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub(crate) enum Subsystem {
    /// Calendar-queue batch extraction (`pop_batch_until`).
    QueuePop,
    /// Switch ingress: routing + VoQ enqueue (`SwArrive`).
    Routing,
    /// Switch output arbitration, credits, transmit (`SwTxDone`,
    /// `SwTryArb`, `SwCredit`).
    Arbitration,
    /// HCA injection: generator, shaper, credits (`HcaTxDone`,
    /// `HcaTrySend`, `HcaCredit`).
    Inject,
    /// HCA ingress + sink drain (`HcaArrive`, `SinkDone`).
    Sink,
    /// CC recovery timers (`CctiTick`).
    Cc,
    /// Fault-schedule transitions (`Fault`).
    Fault,
    /// PFC pause/resume application (`PfcSw`, `PfcHca`).
    Pfc,
    /// Telemetry boundary sampling.
    Telemetry,
    /// Invariant-oracle passes.
    Audit,
    /// Sharded-executor coordination: window barriers, replay, merge.
    Barrier,
}

const N_SUBSYSTEMS: usize = 11;

impl Subsystem {
    const ALL: [Subsystem; N_SUBSYSTEMS] = [
        Subsystem::QueuePop,
        Subsystem::Routing,
        Subsystem::Arbitration,
        Subsystem::Inject,
        Subsystem::Sink,
        Subsystem::Cc,
        Subsystem::Fault,
        Subsystem::Pfc,
        Subsystem::Telemetry,
        Subsystem::Audit,
        Subsystem::Barrier,
    ];

    fn name(self) -> &'static str {
        match self {
            Subsystem::QueuePop => "queue_pop",
            Subsystem::Routing => "routing",
            Subsystem::Arbitration => "arbitration",
            Subsystem::Inject => "inject",
            Subsystem::Sink => "sink",
            Subsystem::Cc => "cc",
            Subsystem::Fault => "fault",
            Subsystem::Pfc => "pfc",
            Subsystem::Telemetry => "telemetry",
            Subsystem::Audit => "audit",
            Subsystem::Barrier => "barrier",
        }
    }
}

/// Per-subsystem `{calls, ns}` accumulators. Each shard records into
/// its own; the bins sum into the master's at the merge.
#[derive(Debug, Default)]
pub(crate) struct EngineProfiler {
    calls: [u64; N_SUBSYSTEMS],
    ns: [u64; N_SUBSYSTEMS],
}

impl EngineProfiler {
    #[inline]
    pub(crate) fn record(&mut self, s: Subsystem, ns: u64) {
        let i = s as usize;
        self.calls[i] += 1;
        self.ns[i] += ns;
    }

    /// Fold another profiler's bins into this one (shard merge).
    pub(crate) fn merge(&mut self, other: &EngineProfiler) {
        for i in 0..N_SUBSYSTEMS {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Build the serializable breakdown. `events` is the engine's
    /// processed-event count for the run, so the report can state an
    /// overall ns/event next to the per-subsystem shares.
    pub(crate) fn report(&self, events: u64) -> ProfileReport {
        let total_ns = self.total_ns();
        let bins = Subsystem::ALL
            .iter()
            .map(|&s| {
                let i = s as usize;
                ProfileBin {
                    subsystem: s.name(),
                    calls: self.calls[i],
                    ns: self.ns[i],
                    ns_per_call: if self.calls[i] > 0 {
                        self.ns[i] as f64 / self.calls[i] as f64
                    } else {
                        0.0
                    },
                    share: if total_ns > 0 {
                        self.ns[i] as f64 / total_ns as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        ProfileReport {
            events,
            total_ns,
            ns_per_event: if events > 0 {
                total_ns as f64 / events as f64
            } else {
                0.0
            },
            bins,
        }
    }
}

/// One subsystem's row in the per-run JSON breakdown.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileBin {
    pub subsystem: &'static str,
    pub calls: u64,
    pub ns: u64,
    pub ns_per_call: f64,
    /// Fraction of the total profiled time.
    pub share: f64,
}

/// The per-run JSON document `--profile` writes.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileReport {
    /// Events the engine processed over the profiled run.
    pub events: u64,
    /// Sum over all subsystem bins.
    pub total_ns: u64,
    pub ns_per_event: f64,
    pub bins: Vec<ProfileBin>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_and_merge() {
        let mut a = EngineProfiler::default();
        a.record(Subsystem::Routing, 100);
        a.record(Subsystem::Routing, 50);
        a.record(Subsystem::Arbitration, 25);
        let mut b = EngineProfiler::default();
        b.record(Subsystem::Routing, 10);
        a.merge(&b);
        let routing = Subsystem::Routing as usize;
        assert_eq!(a.calls[routing], 3);
        assert_eq!(a.ns[routing], 160);
        assert_eq!(a.total_ns(), 185);
    }

    #[test]
    fn report_shares_sum_to_one() {
        let mut p = EngineProfiler::default();
        p.record(Subsystem::QueuePop, 300);
        p.record(Subsystem::Sink, 700);
        let r = p.report(10);
        assert_eq!(r.total_ns, 1000);
        assert_eq!(r.ns_per_event, 100.0);
        let sum: f64 = r.bins.iter().map(|b| b.share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(r.bins.len(), N_SUBSYSTEMS);
        // Serialises (the harness writes this as profile_{label}.json).
        let doc = serde_json::to_string(&r).unwrap();
        assert!(doc.contains("queue_pop"));
    }
}

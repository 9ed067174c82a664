//! The observation seam: one [`Observer`] per network holds everything
//! that watches the dispatch path without steering it — the per-packet
//! tracer, the flight-note switch and the engine self-profiler.
//!
//! A serial (or master) network's observer writes straight through:
//! trace records into its [`Tracer`], flight notes into the network's
//! telemetry recorder. A *shard* network's observer runs in capture
//! mode instead: it shares the master's flow filter, has no tracer,
//! and appends trace records and flight notes to one ordered stream
//! that the window posts with its dispatch log; the lead worker's
//! replay copies each dispatch's slice into the master in serial order
//! (see `shard.rs`). Every instrument costs one branch when off, and
//! none touches simulation state, the event queue or an RNG.

use crate::profile::{EngineProfiler, Subsystem};
use crate::telemetry::FlightKind;
use crate::trace::{TraceCtx, TracePoint, TraceRecord, Tracer, CC_SCOPE};
use crate::types::{NodeId, Packet};
use ibsim_engine::time::Time;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// One entry of a shard's capture stream.
pub(crate) enum Captured {
    Trace(TraceRecord),
    Note(Time, FlightKind, String, String),
}

#[derive(Default)]
pub(crate) struct Observer {
    /// The traced (src, dst) flows; `None` when tracing is off. Shards
    /// share the master's set.
    pub(crate) flows: Option<Arc<HashSet<(NodeId, NodeId)>>>,
    /// The collected records (serial and master only).
    pub(crate) tracer: Option<Tracer>,
    /// The engine self-profiler (`--profile`).
    pub(crate) prof: Option<Box<EngineProfiler>>,
    /// Dispatch paths format flight notes: telemetry is on here, or —
    /// on a shard — on the master.
    pub(crate) notes: bool,
    /// Capture mode (shards only): the current window's trace records
    /// and flight notes, in dispatch order.
    pub(crate) capture: Option<Vec<Captured>>,
}

impl Observer {
    /// Trace `flows` too, keeping the records already collected.
    pub(crate) fn enable_trace(&mut self, flows: impl IntoIterator<Item = (NodeId, NodeId)>) {
        Arc::make_mut(self.flows.get_or_insert_with(Arc::default)).extend(flows);
        self.tracer.get_or_insert_with(Tracer::default);
    }

    /// The capture-mode twin a shard runs with: the same flow filter
    /// and note switch, a fresh profiler iff this one profiles.
    pub(crate) fn for_shard(&self) -> Observer {
        Observer {
            flows: self.flows.clone(),
            tracer: None,
            prof: self.prof.as_ref().map(|_| Box::default()),
            notes: self.notes,
            capture: Some(Vec::new()),
        }
    }

    /// Fold a shard's observer back in at the merge. Its capture stream
    /// was already replayed; its profiler bins are pure sums.
    pub(crate) fn absorb(&mut self, shard: Observer) {
        debug_assert!(shard.capture.is_none_or(|c| c.is_empty()));
        if let (Some(m), Some(p)) = (self.prof.as_deref_mut(), shard.prof) {
            m.merge(&p);
        }
    }

    /// Record a packet-scoped point if the packet's flow is traced. A
    /// CNP for traced flow (s, d) travels d→s, so it is wanted when
    /// (dst, src) is traced.
    #[inline]
    pub(crate) fn trace(&mut self, at: Time, pkt: &Packet, point: TracePoint, ctx: TraceCtx) {
        let Some(flows) = &self.flows else { return };
        let flow = if pkt.is_cnp() {
            (pkt.dst, pkt.src)
        } else {
            (pkt.src, pkt.dst)
        };
        if flows.contains(&flow) {
            self.keep(TraceRecord::new(
                at,
                (pkt.src, pkt.dst, pkt.seq),
                pkt.is_cnp(),
                point,
                ctx,
            ));
        }
    }

    /// Record a fabric-scoped CC point (PFC pause edges); unfiltered.
    #[inline]
    pub(crate) fn trace_cc(&mut self, at: Time, point: TracePoint, ctx: TraceCtx) {
        if self.flows.is_some() {
            debug_assert!(!point.packet_scoped());
            self.keep(TraceRecord::new(
                at,
                (CC_SCOPE, CC_SCOPE, 0),
                false,
                point,
                ctx,
            ));
        }
    }

    /// Out of line: keeps the dispatch paths' untraced code compact.
    #[inline(never)]
    fn keep(&mut self, rec: TraceRecord) {
        match (&mut self.capture, &mut self.tracer) {
            (Some(c), _) => c.push(Captured::Trace(rec)),
            (None, Some(t)) => t.push(rec),
            (None, None) => unreachable!("records are kept only while tracing"),
        }
    }

    /// Length of the capture stream (0 outside capture mode).
    #[inline]
    pub(crate) fn captured(&self) -> usize {
        self.capture.as_ref().map_or(0, Vec::len)
    }

    /// The profiler's stopwatch: `Some(now)` iff profiling. Pair with
    /// [`Observer::stop`]; every timed site goes through these two.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    /// Bin the time since `t0` under `s` (no-op for `None`).
    #[inline]
    pub(crate) fn stop(&mut self, s: Subsystem, t0: Option<Instant>) {
        if let (Some(t0), Some(p)) = (t0, self.prof.as_deref_mut()) {
            p.record(s, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PacketKind;

    fn pkt(src: NodeId, dst: NodeId, seq: u32, kind: PacketKind) -> Packet {
        Packet {
            src,
            dst,
            bytes: 64,
            vl: 0,
            sl: 0,
            kind,
            fecn: false,
            seq,
            injected_at: Time(0),
        }
    }

    const DATA: PacketKind = PacketKind::Data { class: 0 };

    fn traced(flows: &[(NodeId, NodeId)]) -> Observer {
        let mut o = Observer::default();
        o.enable_trace(flows.iter().copied());
        o
    }

    #[test]
    fn tracer_filters_flows() {
        let mut o = traced(&[(1, 2)]);
        let ctx = TraceCtx {
            vl: 0,
            voq: 3,
            credit: 8,
        };
        o.trace(Time(10), &pkt(1, 2, 1, DATA), TracePoint::Inject, ctx);
        o.trace(Time(20), &pkt(3, 4, 1, DATA), TracePoint::Inject, ctx); // not traced
        o.trace(Time(30), &pkt(2, 1, 1, DATA), TracePoint::Inject, ctx); // direction matters
        let recs = o.tracer.as_ref().unwrap().records();
        assert_eq!(recs.len(), 1);
        // Context fields ride along untouched.
        assert_eq!((recs[0].vl, recs[0].voq, recs[0].credit), (0, 3, 8));
    }

    #[test]
    fn cnp_records_are_captured_under_the_reversed_key() {
        let mut o = traced(&[(1, 2)]);
        let ctx = TraceCtx::default();
        // The CNP for flow 1→2 travels 2→1; it must be kept.
        o.trace(
            Time(5),
            &pkt(2, 1, 0, PacketKind::Cnp),
            TracePoint::Inject,
            ctx,
        );
        // A data packet 2→1 is a different (untraced) flow.
        o.trace(Time(6), &pkt(2, 1, 3, DATA), TracePoint::Inject, ctx);
        let recs = o.tracer.as_ref().unwrap().records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].cnp);
    }
}

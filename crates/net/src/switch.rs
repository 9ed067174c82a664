//! The crossbar switch model: per-port input buffers with virtual output
//! queueing, round-robin output arbitration over (input, VL) pairs,
//! credit-based egress, virtual cut-through timing, and the switch side
//! of congestion control.
//!
//! This plays the role of the `Switch`/`SwitchPort` compound modules
//! (`ibuf`, `obuf`, `vlarb`, `ccmgr`) of the paper's OMNeT++ model.
//!
//! Hot state lives in flat structure-of-arrays form on the [`Switch`]
//! itself — credits, transmitter deadlines, round-robin cursors,
//! congestion detectors and the VoQs — indexed by `(port, vl)` so an
//! arbitration round touches a handful of contiguous cache lines
//! instead of hopping through per-port structs. Queued packets are
//! [`PktHandle`]s into the network's arena pool; each queue entry
//! caches the byte size so the candidate scan never dereferences the
//! pool. Per-`(out, vl)` occupancy bitmasks let the input scan skip
//! empty queues in O(popcount) instead of O(radix).

use crate::pool::{PacketPool, PktHandle};
use crate::types::{blocks_for, Packet, Vl};
use crate::vlarb::{VlArbState, VlArbTable, VlArbiter};
use ibsim_cc::{CcParams, PortVlCongestion, PortVlCongestionState};
use ibsim_engine::time::{Time, TimeDelta};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// A queued packet descriptor as checkpoints persist it: the full
/// packet plus its arbitration-eligibility instant (head arrival +
/// routing latency; cut-through, not store-and-forward).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Desc {
    pub pkt: Packet,
    pub ready_at: Time,
}

/// In-memory queue entry: pool handle plus the two fields the
/// arbitration scan reads (16 bytes, vs a 40-byte inline packet).
#[derive(Clone, Copy, Debug)]
struct HDesc {
    h: PktHandle,
    bytes: u32,
    ready_at: Time,
}

/// Per-port wiring and cold statistics. Everything the arbitration hot
/// path touches lives in the flat arrays on [`Switch`] instead.
#[derive(Clone, Debug)]
pub struct SwPort {
    /// Channel arriving at this port (None if uncabled).
    pub in_channel: Option<u32>,
    /// Channel leaving this port (None if uncabled).
    pub out_channel: Option<u32>,
    // ---- statistics ----------------------------------------------------
    pub forwarded_packets: u64,
    pub forwarded_bytes: u64,
    /// Arbitration rounds on this output where at least one head packet
    /// was ready to go but lacked whole-packet downstream credits and
    /// nothing could be granted — the moral equivalent of the
    /// `PortXmitWait` counter a fabric manager reads from real switches.
    pub xmit_wait: u64,
}

/// The decision produced by one successful arbitration round.
#[derive(Debug)]
pub struct Grant {
    /// Copy of the granted packet (FECN already applied — the pooled
    /// packet carries the same mark).
    pub pkt: Packet,
    /// Pool handle of the granted packet.
    pub h: PktHandle,
    pub in_port: u16,
    pub blocks: u32,
    /// Serialisation time on the output link.
    pub ser: TimeDelta,
}

/// A `radix`-port InfiniBand crossbar.
#[derive(Clone, Debug)]
pub struct Switch {
    pub ports: Vec<SwPort>,
    /// Linear forwarding table: destination LID → output port. Shared
    /// with the topology (and anyone else) — routing state is
    /// configuration, never mutated by the simulation.
    pub lft: Arc<Vec<u16>>,
    n_vls: u8,
    /// `voq[(out * n_vls + vl) * radix + in]` — packets buffered at
    /// input `in` waiting for `(out, vl)`. Output-major so one
    /// arbitration round's candidate scan walks contiguous queues.
    voq: Vec<VecDeque<HDesc>>,
    /// Occupancy bitmasks: bit `in` of word `(out*n_vls+vl)*mask_words
    /// + in/64` set iff `voq[(out*n_vls+vl)*radix + in]` is non-empty.
    waiting: Vec<u64>,
    /// Words per `(out, vl)` mask row: `radix.div_ceil(64)` (1 for any
    /// real InfiniBand radix).
    mask_words: usize,
    /// Downstream credits (64-byte blocks), `[port * n_vls + vl]`.
    credits: Vec<u32>,
    /// Transmitter occupied until this instant, `[port]`.
    busy_until: Vec<Time>,
    /// Per-VL round-robin cursor over input ports, `[port * n_vls + vl]`.
    rr_in: Vec<usize>,
    /// VL arbitration cursors, `[port]` (table shared via `Arc`).
    varb: Vec<VlArbiter>,
    /// Congestion detectors for each *output* `(port, vl)`,
    /// `[port * n_vls + vl]`.
    cong: Vec<PortVlCongestion>,
    /// PFC pause state (dcqcn backend); `None` under IB CC, where
    /// losslessness comes from credits alone.
    pfc: Option<PfcSw>,
}

/// Per-switch PFC pause machinery: ingress-occupancy XOFF/XON
/// thresholds plus the pause flags in both directions. All vectors are
/// `[port * n_vls + vl]` — ingress-port-major for the rx side,
/// egress-port-major for the tx side.
#[derive(Clone, Debug)]
struct PfcSw {
    xoff_blocks: u32,
    xon_blocks: u32,
    /// We have told our upstream to stop sending on this ingress
    /// `(port, vl)` and not yet resumed it.
    rx_paused: Vec<bool>,
    /// Our downstream has told this egress `(port, vl)` to stop.
    tx_paused: Vec<bool>,
    /// Pause frames emitted per ingress `(port, vl)`.
    pauses_sent: Vec<u64>,
    /// Resume frames emitted per ingress `(port, vl)`.
    resumes_sent: Vec<u64>,
}

impl Switch {
    pub fn new(radix: usize, n_vls: u8, lft: impl Into<Arc<Vec<u16>>>) -> Self {
        Self::with_arbitration(radix, n_vls, lft, VlArbTable::round_robin(n_vls))
    }

    /// Build with an explicit VL arbitration table.
    pub fn with_arbitration(
        radix: usize,
        n_vls: u8,
        lft: impl Into<Arc<Vec<u16>>>,
        arb: VlArbTable,
    ) -> Self {
        let nv = n_vls as usize;
        let arb = Arc::new(arb);
        let mask_words = radix.div_ceil(64);
        let ports = (0..radix)
            .map(|_| SwPort {
                in_channel: None,
                out_channel: None,
                forwarded_packets: 0,
                forwarded_bytes: 0,
                xmit_wait: 0,
            })
            .collect();
        Switch {
            ports,
            lft: lft.into(),
            n_vls,
            voq: (0..radix * nv * radix).map(|_| VecDeque::new()).collect(),
            waiting: vec![0; radix * nv * mask_words],
            mask_words,
            credits: vec![0; radix * nv],
            busy_until: vec![Time::ZERO; radix],
            rr_in: vec![0; radix * nv],
            varb: (0..radix).map(|_| VlArbiter::new(arb.clone())).collect(),
            cong: (0..radix * nv)
                .map(|_| PortVlCongestion::disabled())
                .collect(),
            pfc: None,
        }
    }

    pub fn radix(&self) -> usize {
        self.ports.len()
    }
    pub fn n_vls(&self) -> u8 {
        self.n_vls
    }

    /// Flat `(port, vl)` index.
    #[inline]
    fn pv(&self, port: usize, vl: usize) -> usize {
        port * self.n_vls as usize + vl
    }

    /// Output port toward `dst`.
    #[inline]
    pub fn route(&self, dst: u32) -> u16 {
        self.lft[dst as usize]
    }

    /// Downstream credits available on `(out_port, vl)`.
    #[inline]
    pub fn credit(&self, port: u16, vl: Vl) -> u32 {
        self.credits[self.pv(port as usize, vl as usize)]
    }

    /// Per-VL credit counters of `port` (length `n_vls`).
    #[inline]
    pub fn credits_of(&self, port: u16) -> &[u32] {
        let nv = self.n_vls as usize;
        &self.credits[port as usize * nv..][..nv]
    }

    /// Overwrite one credit counter (test setup).
    pub fn set_credit(&mut self, port: u16, vl: Vl, blocks: u32) {
        let i = self.pv(port as usize, vl as usize);
        self.credits[i] = blocks;
    }

    /// Instant `port`'s transmitter frees up.
    #[inline]
    pub fn busy_until(&self, port: u16) -> Time {
        self.busy_until[port as usize]
    }

    /// Congestion detector for output `(port, vl)`.
    #[inline]
    pub fn cong(&self, port: u16, vl: Vl) -> &PortVlCongestion {
        &self.cong[self.pv(port as usize, vl as usize)]
    }

    /// Mutable detector access (tests).
    pub fn cong_mut(&mut self, port: u16, vl: Vl) -> &mut PortVlCongestion {
        let i = self.pv(port as usize, vl as usize);
        &mut self.cong[i]
    }

    /// The VL arbiter's round-robin cursors for `port` — the scheduling
    /// state that decides who transmits next even when the queues look
    /// identical.
    pub fn vlarb_cursor(&self, port: u16) -> VlArbState {
        self.varb[port as usize].state()
    }

    /// Packets standing in all of this switch's VoQs.
    pub fn queued_packets(&self) -> usize {
        self.voq.iter().map(|q| q.len()).sum()
    }

    /// Packets standing in input port `in_port`'s VoQs, over all
    /// outputs and VLs.
    pub fn queued_packets_at(&self, in_port: u16) -> usize {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        (0..radix * nv)
            .map(|ov| self.voq[ov * radix + in_port as usize].len())
            .sum()
    }

    /// Install congestion detectors (CC on) for every cabled output.
    pub fn install_cc(&mut self, params: &CcParams, detect_capacity: u64, victim_ports: &[bool]) {
        let nv = self.n_vls as usize;
        for p in 0..self.ports.len() {
            if self.ports[p].out_channel.is_some() {
                let vm = victim_ports.get(p).copied().unwrap_or(false);
                for vl in 0..nv {
                    self.cong[p * nv + vl] = PortVlCongestion::new(params, detect_capacity, vm);
                }
            }
        }
    }

    /// Arm PFC (dcqcn backend): pause the upstream of an ingress
    /// `(port, VL)` when its buffered occupancy reaches `xoff_blocks`,
    /// resume once it drains back to `xon_blocks` (64-byte blocks).
    pub fn install_pfc(&mut self, xoff_blocks: u32, xon_blocks: u32) {
        let n = self.ports.len() * self.n_vls as usize;
        self.pfc = Some(PfcSw {
            xoff_blocks,
            xon_blocks,
            rx_paused: vec![false; n],
            tx_paused: vec![false; n],
            pauses_sent: vec![0; n],
            resumes_sent: vec![0; n],
        });
    }

    pub fn pfc_enabled(&self) -> bool {
        self.pfc.is_some()
    }

    /// The armed `(xoff, xon)` thresholds, if PFC is installed.
    pub fn pfc_thresholds(&self) -> Option<(u32, u32)> {
        self.pfc.as_ref().map(|p| (p.xoff_blocks, p.xon_blocks))
    }

    /// Called after every enqueue at `in_port`: crossing the XOFF
    /// threshold latches the pause flag and asks the caller to put a
    /// pause frame on the wire toward the upstream device.
    pub fn pfc_check_xoff(&mut self, in_port: u16, vl: Vl) -> bool {
        if self.pfc.is_none() {
            return false;
        }
        let occ = self.buffered_blocks(in_port, vl);
        let i = self.pv(in_port as usize, vl as usize);
        let pfc = self.pfc.as_mut().expect("checked above");
        if !pfc.rx_paused[i] && occ >= pfc.xoff_blocks as u64 {
            pfc.rx_paused[i] = true;
            pfc.pauses_sent[i] += 1;
            return true;
        }
        false
    }

    /// Called after a grant drained `in_port`: dropping back to the XON
    /// threshold clears the pause flag and asks the caller to put a
    /// resume frame on the wire.
    pub fn pfc_check_xon(&mut self, in_port: u16, vl: Vl) -> bool {
        if self.pfc.is_none() {
            return false;
        }
        let occ = self.buffered_blocks(in_port, vl);
        let i = self.pv(in_port as usize, vl as usize);
        let pfc = self.pfc.as_mut().expect("checked above");
        if pfc.rx_paused[i] && occ <= pfc.xon_blocks as u64 {
            pfc.rx_paused[i] = false;
            pfc.resumes_sent[i] += 1;
            return true;
        }
        false
    }

    /// A pause (`on`) or resume (`!on`) frame arrived from the device
    /// downstream of `out_port`.
    pub fn set_tx_paused(&mut self, out_port: u16, vl: Vl, on: bool) {
        let i = self.pv(out_port as usize, vl as usize);
        if let Some(pfc) = &mut self.pfc {
            pfc.tx_paused[i] = on;
        }
    }

    /// Is egress `(out_port, vl)` currently pause-gated?
    pub fn tx_paused(&self, out_port: u16, vl: Vl) -> bool {
        let i = self.pv(out_port as usize, vl as usize);
        self.pfc.as_ref().is_some_and(|p| p.tx_paused[i])
    }

    /// Have we paused the upstream of ingress `(in_port, vl)`?
    pub fn rx_paused(&self, in_port: u16, vl: Vl) -> bool {
        let i = self.pv(in_port as usize, vl as usize);
        self.pfc.as_ref().is_some_and(|p| p.rx_paused[i])
    }

    /// `(pauses_sent, resumes_sent)` for ingress `(in_port, vl)`.
    pub fn pfc_pause_counts(&self, in_port: u16, vl: Vl) -> (u64, u64) {
        let i = self.pv(in_port as usize, vl as usize);
        match &self.pfc {
            Some(p) => (p.pauses_sent[i], p.resumes_sent[i]),
            None => (0, 0),
        }
    }

    /// Total pause frames this switch has emitted (telemetry).
    pub fn pfc_pauses_total(&self) -> u64 {
        self.pfc.as_ref().map_or(0, |p| p.pauses_sent.iter().sum())
    }

    /// Fault-injection hook for oracle tests: silently discard the head
    /// packet of the first non-empty VoQ fed by `in_port`, releasing its
    /// pool slot — the drop a buggy buffer manager could commit while
    /// the ingress is paused. Nothing ledgers it, so the
    /// `PauseLosslessness` check must flag it.
    pub fn drop_queued_for_test(&mut self, in_port: u16, pool: &mut PacketPool) -> Option<Packet> {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        let inp = in_port as usize;
        for ov in 0..radix * nv {
            let q = &mut self.voq[ov * radix + inp];
            if let Some(d) = q.pop_front() {
                if q.is_empty() {
                    self.waiting[ov * self.mask_words + (inp >> 6)] &= !(1u64 << (inp & 63));
                }
                return Some(pool.release(d.h));
            }
        }
        None
    }

    /// Buffer an arriving packet (head at `now`) at `in_port`, routed to
    /// `out_port`; it becomes arbitrable at `ready_at`.
    pub fn enqueue(
        &mut self,
        in_port: u16,
        out_port: u16,
        h: PktHandle,
        ready_at: Time,
        pool: &PacketPool,
    ) {
        let pkt = pool.get(h);
        let (vl, bytes) = (pkt.vl as usize, pkt.bytes);
        let ov = self.pv(out_port as usize, vl);
        let has_credits = self.credits[ov] > 0;
        self.cong[ov].on_enqueue(bytes as u64, has_credits);
        let inp = in_port as usize;
        self.voq[ov * self.ports.len() + inp].push_back(HDesc { h, bytes, ready_at });
        self.waiting[ov * self.mask_words + (inp >> 6)] |= 1u64 << (inp & 63);
    }

    /// Total packets queued toward `out_port` across all inputs and VLs
    /// (diagnostics).
    pub fn queued_toward(&self, out_port: u16) -> usize {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        (0..nv)
            .flat_map(|vl| {
                let ov = out_port as usize * nv + vl;
                (0..radix).map(move |inp| (ov, inp))
            })
            .map(|(ov, inp)| self.voq[ov * radix + inp].len())
            .sum()
    }

    /// One arbitration round for `out_port` at `now`: the VL arbiter
    /// picks a lane among those with an eligible head packet (past its
    /// routing latency, whole-packet downstream credits available —
    /// virtual cut-through needs whole-packet buffering), then inputs
    /// are served round-robin within the lane.
    ///
    /// On success the packet is dequeued, credits are consumed, the
    /// transmitter is marked busy and — with CC installed — the FECN
    /// marking decision is applied (to the pooled packet and the
    /// returned copy alike). The caller handles event scheduling.
    pub fn arbitrate(
        &mut self,
        out_port: u16,
        now: Time,
        link_tx: impl Fn(u32) -> TimeDelta,
        cc: Option<&CcParams>,
        pool: &mut PacketPool,
    ) -> Option<Grant> {
        let o = out_port as usize;
        let nv = self.n_vls as usize;
        let radix = self.ports.len();
        if self.busy_until[o] > now {
            return None;
        }
        // Per-VL candidate: the first input (round robin from this
        // VL's cursor) whose head packet is past its routing latency,
        // with whole-packet downstream credits available. The occupancy
        // bitmask narrows the scan to non-empty queues.
        let mut sizes = [None::<u32>; 16];
        let mut cand_input = [0usize; 16];
        let mut credit_blocked = false;
        for vl in 0..nv {
            let ov = o * nv + vl;
            // PFC: a pause-gated egress priority fields no candidate
            // (and is not a credit stall — the resume frame re-arms it).
            if let Some(pfc) = &self.pfc {
                if pfc.tx_paused[ov] {
                    continue;
                }
            }
            let start = self.rr_in[ov];
            let credits = self.credits[ov];
            let qbase = ov * radix;
            let mut consider =
                |inp: usize, voq: &[VecDeque<HDesc>], credit_blocked: &mut bool| -> bool {
                    let head = voq[qbase + inp].front().expect("occupancy bit set");
                    if head.ready_at <= now {
                        if credits >= blocks_for(head.bytes) {
                            sizes[vl] = Some(head.bytes);
                            cand_input[vl] = inp;
                            return true;
                        }
                        *credit_blocked = true;
                    }
                    false
                };
            if self.mask_words == 1 {
                let mask = self.waiting[ov];
                // Round-robin order: bits start.. then 0..start.
                let rotate = !0u64 << (start & 63);
                'scan: for mut m in [mask & rotate, mask & !rotate] {
                    while m != 0 {
                        let inp = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if consider(inp, &self.voq, &mut credit_blocked) {
                            break 'scan;
                        }
                    }
                }
            } else {
                let wbase = ov * self.mask_words;
                let mut inp = start;
                for _ in 0..radix {
                    let occupied = self.waiting[wbase + (inp >> 6)] & (1u64 << (inp & 63)) != 0;
                    if occupied && consider(inp, &self.voq, &mut credit_blocked) {
                        break;
                    }
                    inp += 1;
                    if inp == radix {
                        inp = 0;
                    }
                }
            }
        }
        let Some(vl) = self.varb[o].pick_sized(&sizes[..nv]) else {
            if credit_blocked {
                // Data stood ready but downstream buffer space alone
                // held the output idle: one stalled arbitration round.
                self.ports[o].xmit_wait += 1;
            }
            return None;
        };
        let vl = vl as usize;
        let inp = cand_input[vl];
        let ov = o * nv + vl;
        self.rr_in[ov] = (inp + 1) % radix;
        let q = &mut self.voq[ov * radix + inp];
        let hd = q.pop_front().expect("candidate head vanished");
        if q.is_empty() {
            self.waiting[ov * self.mask_words + (inp >> 6)] &= !(1u64 << (inp & 63));
        }
        let blocks = blocks_for(hd.bytes);
        let ser = link_tx(hd.bytes);

        self.credits[ov] -= blocks;
        let has_credits = self.credits[ov] > 0;
        // FECN decision uses the congestion state *including* this
        // packet, then the occupancy drops (fused hook).
        let fecn = match cc {
            Some(params) => self.cong[ov].on_forward(hd.bytes, has_credits, params),
            None => {
                self.cong[ov].on_dequeue(hd.bytes as u64, has_credits);
                false
            }
        };
        let pkt = {
            let p = pool.get_mut(hd.h);
            if fecn {
                p.fecn = true;
            }
            *p
        };
        self.busy_until[o] = now + ser;
        let op = &mut self.ports[o];
        op.forwarded_packets += 1;
        op.forwarded_bytes += hd.bytes as u64;

        Some(Grant {
            pkt,
            h: hd.h,
            in_port: inp as u16,
            blocks,
            ser,
        })
    }

    /// Flow-control blocks standing in `in_port`'s input buffer on `vl`
    /// (across all output VoQs) — the buffered term of the credit
    /// conservation ledger for the channel feeding that port.
    pub fn buffered_blocks(&self, in_port: u16, vl: Vl) -> u64 {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        (0..radix)
            .map(|o| o * nv + vl as usize)
            .flat_map(|ov| self.voq[ov * radix + in_port as usize].iter())
            .map(|d| blocks_for(d.bytes) as u64)
            .sum()
    }

    /// Bytes standing in VoQs across all inputs toward `(out_port, vl)`
    /// — the ground truth the congestion detector's occupancy counter
    /// shadows.
    pub fn queued_bytes_toward(&self, out_port: u16, vl: Vl) -> u64 {
        let radix = self.ports.len();
        let ov = self.pv(out_port as usize, vl as usize);
        (0..radix)
            .flat_map(|inp| self.voq[ov * radix + inp].iter())
            .map(|d| d.bytes as u64)
            .sum()
    }

    /// Fault-injection hook for oracle tests: make `blocks` credits on
    /// `out_port`/`vl` vanish without any packet movement — exactly the
    /// corruption a refactor of the credit path could introduce. This is
    /// an *unsanctioned* loss: unlike the scheduled faults in
    /// `ibsim-faults`, nothing ledgers it, so the oracle must flag it.
    /// Always compiled so integration tests can prove the oracle stays
    /// armed while sanctioned faults are active.
    pub fn leak_credits_for_test(&mut self, out_port: u16, vl: Vl, blocks: u32) {
        let i = self.pv(out_port as usize, vl as usize);
        self.credits[i] = self.credits[i].saturating_sub(blocks);
    }

    /// Credit update from downstream for `out_port`.
    pub fn add_credits(&mut self, out_port: u16, vl: Vl, blocks: u32) {
        let i = self.pv(out_port as usize, vl as usize);
        self.credits[i] += blocks;
        let has = self.credits[i] > 0;
        self.cong[i].on_credit_change(has);
    }

    /// Sum of FECN marks applied by this switch.
    pub fn marked_packets(&self) -> u64 {
        self.cong.iter().map(|c| c.marked_packets()).sum()
    }

    /// Move every queued packet handle from `src` to `dst`, releasing
    /// the source slots (see `Hca::remap_pool`): device migration
    /// between the master network and a shard carries the VoQ contents
    /// into the destination's arena.
    pub(crate) fn remap_pool(&mut self, src: &mut PacketPool, dst: &mut PacketPool) {
        for q in self.voq.iter_mut() {
            for d in q.iter_mut() {
                d.h = dst.alloc(src.release(d.h));
            }
        }
    }

    /// Export the switch's complete mutable state (checkpoint),
    /// resolving queued handles to full packets. The wiring (channels,
    /// LFT, arbitration tables, detector thresholds) is configuration,
    /// rebuilt from the topology and `NetConfig`. The serialized shape
    /// is identical to the pre-pool per-port layout, so golden
    /// checkpoints stay byte-stable.
    pub fn state(&self, pool: &PacketPool) -> SwitchState {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        SwitchState {
            ports: (0..radix)
                .map(|p| SwPortState {
                    voq: (0..radix * nv)
                        .map(|ov| {
                            self.voq[ov * radix + p]
                                .iter()
                                .map(|d| Desc {
                                    pkt: *pool.get(d.h),
                                    ready_at: d.ready_at,
                                })
                                .collect()
                        })
                        .collect(),
                    busy_until: self.busy_until[p],
                    credits: self.credits[p * nv..][..nv].to_vec(),
                    varb: self.varb[p].state(),
                    rr_in: self.rr_in[p * nv..][..nv]
                        .iter()
                        .map(|&i| i as u32)
                        .collect(),
                    cong: self.cong[p * nv..][..nv]
                        .iter()
                        .map(|c| c.state())
                        .collect(),
                    forwarded_packets: self.ports[p].forwarded_packets,
                    forwarded_bytes: self.ports[p].forwarded_bytes,
                    xmit_wait: self.ports[p].xmit_wait,
                })
                .collect(),
            pfc: self.pfc.as_ref().map(|f| PfcSwState {
                xoff_blocks: f.xoff_blocks,
                xon_blocks: f.xon_blocks,
                rx_paused: f.rx_paused.clone(),
                tx_paused: f.tx_paused.clone(),
                pauses_sent: f.pauses_sent.clone(),
                resumes_sent: f.resumes_sent.clone(),
            }),
        }
    }

    /// Overwrite the switch's mutable state (checkpoint restore),
    /// allocating every queued packet into `pool`. Validates every
    /// per-port table width against this switch's geometry before
    /// touching anything.
    pub fn restore_state(&mut self, s: &SwitchState, pool: &mut PacketPool) -> Result<(), String> {
        let radix = self.ports.len();
        let nv = self.n_vls as usize;
        if s.ports.len() != radix {
            return Err(format!(
                "switch state has {} ports, fabric has {}",
                s.ports.len(),
                radix
            ));
        }
        for (i, ps) in s.ports.iter().enumerate() {
            if ps.voq.len() != radix * nv {
                return Err(format!(
                    "port {i}: state has {} VoQs, fabric has {}",
                    ps.voq.len(),
                    radix * nv
                ));
            }
            if ps.credits.len() != nv || ps.cong.len() != nv || ps.rr_in.len() != nv {
                return Err(format!("port {i}: per-VL table width mismatch"));
            }
        }
        self.waiting.fill(0);
        for (p, ps) in s.ports.iter().enumerate() {
            for (ov, qs) in ps.voq.iter().enumerate() {
                let q = &mut self.voq[ov * radix + p];
                q.clear();
                for d in qs {
                    q.push_back(HDesc {
                        h: pool.alloc(d.pkt),
                        bytes: d.pkt.bytes,
                        ready_at: d.ready_at,
                    });
                }
                if !q.is_empty() {
                    self.waiting[ov * self.mask_words + (p >> 6)] |= 1u64 << (p & 63);
                }
            }
            self.busy_until[p] = ps.busy_until;
            self.credits[p * nv..][..nv].copy_from_slice(&ps.credits);
            self.varb[p].restore_state(&ps.varb);
            for (vl, &i) in ps.rr_in.iter().enumerate() {
                self.rr_in[p * nv + vl] = i as usize;
            }
            for (vl, cs) in ps.cong.iter().enumerate() {
                self.cong[p * nv + vl].restore_state(cs);
            }
            self.ports[p].forwarded_packets = ps.forwarded_packets;
            self.ports[p].forwarded_bytes = ps.forwarded_bytes;
            self.ports[p].xmit_wait = ps.xmit_wait;
        }
        match (&mut self.pfc, &s.pfc) {
            (None, None) => {}
            (Some(live), Some(st)) => {
                let n = radix * nv;
                if st.rx_paused.len() != n
                    || st.tx_paused.len() != n
                    || st.pauses_sent.len() != n
                    || st.resumes_sent.len() != n
                {
                    return Err("pfc state table width mismatch".to_string());
                }
                live.xoff_blocks = st.xoff_blocks;
                live.xon_blocks = st.xon_blocks;
                live.rx_paused = st.rx_paused.clone();
                live.tx_paused = st.tx_paused.clone();
                live.pauses_sent = st.pauses_sent.clone();
                live.resumes_sent = st.resumes_sent.clone();
            }
            (Some(_), None) => {
                return Err("switch state lacks the pfc section the live switch carries".into())
            }
            (None, Some(_)) => {
                return Err("switch state carries a pfc section the live switch lacks".into())
            }
        }
        Ok(())
    }
}

/// Serializable image of a switch's PFC pause machinery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PfcSwState {
    pub xoff_blocks: u32,
    pub xon_blocks: u32,
    pub rx_paused: Vec<bool>,
    pub tx_paused: Vec<bool>,
    pub pauses_sent: Vec<u64>,
    pub resumes_sent: Vec<u64>,
}

/// Serializable image of one [`SwPort`]'s mutable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwPortState {
    /// `voq[out_port * n_vls + vl]`, each queue front-to-back.
    pub voq: Vec<Vec<Desc>>,
    pub busy_until: Time,
    pub credits: Vec<u32>,
    /// VL-arbiter round-robin cursors.
    pub varb: VlArbState,
    /// Per-VL round-robin cursor over input ports.
    pub rr_in: Vec<u32>,
    pub cong: Vec<PortVlCongestionState>,
    pub forwarded_packets: u64,
    pub forwarded_bytes: u64,
    pub xmit_wait: u64,
}

/// Serializable image of a [`Switch`]'s mutable state.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchState {
    pub ports: Vec<SwPortState>,
    /// PFC pause state; present only under the dcqcn backend.
    pub pfc: Option<PfcSwState>,
}

// Hand-written serde: the `pfc` key is omitted when absent, so every
// ibcc checkpoint — including the committed v1 goldens — keeps its
// exact pre-PFC shape.
impl Serialize for SwitchState {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![("ports".to_string(), self.ports.to_value())];
        if let Some(pfc) = &self.pfc {
            pairs.push(("pfc".to_string(), pfc.to_value()));
        }
        serde::Value::Object(pairs)
    }
}

impl Deserialize for SwitchState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let ports = v
            .get("ports")
            .ok_or_else(|| serde::Error::custom("missing field `ports` in SwitchState"))?;
        Ok(SwitchState {
            ports: Vec::<SwPortState>::from_value(ports)?,
            pfc: match v.get("pfc") {
                None | Some(serde::Value::Null) => None,
                Some(x) => Some(PfcSwState::from_value(x)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PacketKind;
    use ibsim_engine::time::Bandwidth;

    const BW: Bandwidth = Bandwidth::from_gbps(20);

    fn pkt(dst: u32, bytes: u32) -> Packet {
        Packet {
            src: 0,
            dst,
            bytes,
            vl: 0,
            sl: 0,
            kind: PacketKind::Data { class: 0 },
            fecn: false,
            seq: 0,
            injected_at: Time::ZERO,
        }
    }

    fn enq(s: &mut Switch, pool: &mut PacketPool, inp: u16, out: u16, p: Packet, ready: u64) {
        let h = pool.alloc(p);
        s.enqueue(inp, out, h, Time(ready), pool);
    }

    /// 4-port switch, port i routes dst i, everything cabled.
    fn sw() -> Switch {
        let mut s = Switch::new(4, 1, vec![0, 1, 2, 3]);
        for p in 0..4 {
            s.ports[p].in_channel = Some(0);
            s.ports[p].out_channel = Some(0);
            s.set_credit(p as u16, 0, 128);
        }
        s
    }

    #[test]
    fn grants_ready_packet() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        let g = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        assert_eq!(g.in_port, 0);
        assert_eq!(g.blocks, 32);
        assert_eq!(g.ser, TimeDelta(819_200));
        assert_eq!(s.credit(1, 0), 128 - 32);
        assert_eq!(s.busy_until(1), Time(819_200));
        assert_eq!(s.ports[1].forwarded_packets, 1);
        assert_eq!(pool.get(g.h), &g.pkt);
    }

    #[test]
    fn respects_ready_time() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 500);
        assert!(s
            .arbitrate(1, Time(499), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert!(s
            .arbitrate(1, Time(500), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
    }

    #[test]
    fn busy_output_grants_nothing() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert!(s
            .arbitrate(1, Time(1), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        // After the transmitter frees up, the second packet goes.
        assert!(s
            .arbitrate(1, Time(819_200), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
    }

    #[test]
    fn requires_whole_packet_credits() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.set_credit(1, 0, 31); // one block short of a 2 KiB packet
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        s.add_credits(1, 0, 1);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert_eq!(s.credit(1, 0), 0);
    }

    #[test]
    fn round_robin_across_inputs() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        for inp in [0u16, 2, 3] {
            enq(&mut s, &mut pool, inp, 1, pkt(1, 64), 0);
            enq(&mut s, &mut pool, inp, 1, pkt(1, 64), 0);
        }
        let mut order = vec![];
        let mut t = Time(0);
        for _ in 0..6 {
            let g = s
                .arbitrate(1, t, |b| BW.tx_time(b as u64), None, &mut pool)
                .unwrap();
            order.push(g.in_port);
            pool.release(g.h);
            t = s.busy_until(1);
        }
        assert_eq!(order, [0, 2, 3, 0, 2, 3], "round robin interleaves inputs");
    }

    #[test]
    fn per_flow_fifo_within_queue() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        let mut p1 = pkt(1, 64);
        p1.seq = 1;
        let mut p2 = pkt(1, 64);
        p2.seq = 2;
        enq(&mut s, &mut pool, 0, 1, p1, 0);
        enq(&mut s, &mut pool, 0, 1, p2, 0);
        let g1 = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        let g2 = s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                None,
                &mut pool,
            )
            .unwrap();
        assert_eq!((g1.pkt.seq, g2.pkt.seq), (1, 2));
    }

    #[test]
    fn fecn_marked_under_congestion() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        let params = CcParams::paper_table1();
        // Tiny detect capacity: threshold = max(16/16..) -> 1/16 of 1024 = 64.
        s.install_cc(&params, 1024, &[false; 4]);
        // Queue 2 packets toward port 1 -> 4096 bytes >> 64-byte threshold.
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        let g = s
            .arbitrate(
                1,
                Time(0),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool,
            )
            .unwrap();
        assert!(g.pkt.fecn, "root port above threshold marks");
        assert!(pool.get(g.h).fecn, "pooled packet carries the mark too");
        assert_eq!(s.marked_packets(), 1);
    }

    #[test]
    fn no_fecn_without_credits_unless_victim_masked() {
        let params = CcParams::paper_table1();
        // Victim (no credits, no mask): no marking.
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.install_cc(&params, 1024, &[false; 4]);
        s.set_credit(1, 0, 32); // just enough to forward one packet
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        // After this grant the port has zero credits -> victim.
        let g = s
            .arbitrate(
                1,
                Time(0),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool,
            )
            .unwrap();
        // First grant happened while credits were available: marks.
        assert!(g.pkt.fecn);
        // Second: no credits -> cannot even forward; and the detector
        // has left/never entered congestion for marking purposes.
        assert!(s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                Some(&params),
                &mut pool
            )
            .is_none());

        // Same situation with Victim_Mask: state is held even at zero
        // credits, so when credits return the packet is marked.
        let mut s = sw();
        let mut pool = PacketPool::new();
        s.install_cc(&params, 1024, &[false, true, false, false]);
        s.set_credit(1, 0, 0);
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 2, 1, pkt(1, 2048), 0);
        assert!(
            s.cong(1, 0).in_congestion(),
            "masked port congests without credits"
        );
    }

    #[test]
    fn uncabled_ports_get_no_detectors() {
        let mut s = Switch::new(4, 1, vec![0, 1, 2, 3]);
        s.ports[0].out_channel = Some(0);
        let params = CcParams::paper_table1();
        s.install_cc(&params, 1024, &[false; 4]);
        // Port 3 is uncabled; its detector stays disabled.
        s.cong_mut(3, 0).on_enqueue(1 << 20, true);
        assert!(!s.cong(3, 0).in_congestion());
    }

    #[test]
    fn queued_toward_counts_all_inputs() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 2, pkt(2, 64), 0);
        enq(&mut s, &mut pool, 1, 2, pkt(2, 64), 0);
        enq(&mut s, &mut pool, 3, 2, pkt(2, 64), 0);
        assert_eq!(s.queued_toward(2), 3);
        assert_eq!(s.queued_toward(1), 0);
    }

    #[test]
    fn xmit_wait_counts_credit_stalls_only() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        // Not yet ready: idle, not stalled.
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 900);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert_eq!(s.ports[1].xmit_wait, 0);
        // Ready but credit-starved: a stall per arbitration round.
        s.set_credit(1, 0, 0);
        assert!(s
            .arbitrate(1, Time(900), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert!(s
            .arbitrate(1, Time(901), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert_eq!(s.ports[1].xmit_wait, 2);
        // Credits restored: the grant proceeds and stalls stop counting.
        s.add_credits(1, 0, 128);
        assert!(s
            .arbitrate(1, Time(902), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
        assert_eq!(s.ports[1].xmit_wait, 2);
    }

    #[test]
    fn audit_helpers_count_blocks_and_bytes() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0); // 32 blocks from input 0
        enq(&mut s, &mut pool, 2, 1, pkt(1, 64), 0); // 1 block from input 2
        assert_eq!(s.buffered_blocks(0, 0), 32);
        assert_eq!(s.buffered_blocks(2, 0), 1);
        assert_eq!(s.buffered_blocks(1, 0), 0);
        assert_eq!(s.queued_bytes_toward(1, 0), 2048 + 64);
        assert_eq!(s.queued_bytes_toward(2, 0), 0);
        assert_eq!(s.queued_packets_at(0), 1);
        let total: usize = (0..4).map(|p| s.queued_packets_at(p)).sum();
        assert_eq!(total, s.queued_toward(1));
    }

    #[test]
    fn multi_vl_arbitration() {
        let mut s = Switch::new(2, 2, vec![0, 1]);
        for p in 0..2u16 {
            s.ports[p as usize].in_channel = Some(0);
            s.ports[p as usize].out_channel = Some(0);
            s.set_credit(p, 0, 128);
            s.set_credit(p, 1, 128);
        }
        let mut pool = PacketPool::new();
        let mut p0 = pkt(1, 64);
        p0.vl = 0;
        let mut p1 = pkt(1, 64);
        p1.vl = 1;
        enq(&mut s, &mut pool, 0, 1, p0, 0);
        enq(&mut s, &mut pool, 0, 1, p1, 0);
        let g1 = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        let g2 = s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                None,
                &mut pool,
            )
            .unwrap();
        let vls = [g1.pkt.vl, g2.pkt.vl];
        assert!(vls.contains(&0) && vls.contains(&1), "both VLs served");
    }

    #[test]
    fn pfc_xoff_xon_cycle() {
        let mut s = sw();
        s.install_pfc(40, 10);
        let mut pool = PacketPool::new();
        // 2048 B = 32 blocks: the first enqueue sits below XOFF, the
        // second crosses it.
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        assert!(!s.pfc_check_xoff(0, 0));
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        assert!(s.pfc_check_xoff(0, 0), "64 blocks >= 40: pause upstream");
        assert!(s.rx_paused(0, 0));
        assert!(!s.pfc_check_xoff(0, 0), "already paused: no duplicate");
        // Drain: 32 blocks left (> XON, stay paused), then 0 (resume).
        let g = s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .unwrap();
        pool.release(g.h);
        assert!(!s.pfc_check_xon(g.in_port, 0), "32 > 10: stay paused");
        let g = s
            .arbitrate(
                1,
                s.busy_until(1),
                |b| BW.tx_time(b as u64),
                None,
                &mut pool,
            )
            .unwrap();
        pool.release(g.h);
        assert!(s.pfc_check_xon(g.in_port, 0));
        assert!(!s.rx_paused(0, 0));
        assert_eq!(s.pfc_pause_counts(0, 0), (1, 1));
    }

    #[test]
    fn pfc_tx_pause_gates_arbitration() {
        let mut s = sw();
        s.install_pfc(1000, 10);
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        s.set_tx_paused(1, 0, true);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_none());
        assert_eq!(s.ports[1].xmit_wait, 0, "pause is not a credit stall");
        s.set_tx_paused(1, 0, false);
        assert!(s
            .arbitrate(1, Time(0), |b| BW.tx_time(b as u64), None, &mut pool)
            .is_some());
    }

    #[test]
    fn pfc_state_roundtrips_and_refuses_mismatch() {
        let mut s = sw();
        s.install_pfc(40, 10);
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        s.pfc_check_xoff(0, 0);
        s.set_tx_paused(2, 0, true);
        let snap = s.state(&pool);
        assert!(snap.pfc.is_some());
        let mut s2 = sw();
        s2.install_pfc(40, 10);
        let mut pool2 = PacketPool::new();
        s2.restore_state(&snap, &mut pool2).unwrap();
        assert!(s2.rx_paused(0, 0));
        assert!(s2.tx_paused(2, 0));
        assert_eq!(s2.state(&pool2), snap);
        // A PFC-less switch must refuse a PFC-bearing state and vice versa.
        let mut plain = sw();
        let mut pool3 = PacketPool::new();
        assert!(plain.restore_state(&snap, &mut pool3).is_err());
        let plain_snap = sw().state(&PacketPool::new());
        let mut s3 = sw();
        s3.install_pfc(40, 10);
        assert!(s3
            .restore_state(&plain_snap, &mut PacketPool::new())
            .is_err());
    }

    #[test]
    fn drop_queued_for_test_discards_head() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 0);
        let dropped = s.drop_queued_for_test(0, &mut pool).unwrap();
        assert_eq!(dropped.bytes, 2048);
        assert_eq!(pool.live(), 0);
        assert_eq!(s.queued_packets(), 0);
        assert!(s.drop_queued_for_test(0, &mut pool).is_none());
    }

    #[test]
    fn state_roundtrip_via_pool() {
        let mut s = sw();
        let mut pool = PacketPool::new();
        enq(&mut s, &mut pool, 0, 1, pkt(1, 2048), 7);
        enq(&mut s, &mut pool, 2, 3, pkt(3, 64), 9);
        let snap = s.state(&pool);
        let mut s2 = sw();
        let mut pool2 = PacketPool::new();
        s2.restore_state(&snap, &mut pool2).unwrap();
        assert_eq!(s2.state(&pool2), snap);
        assert_eq!(pool2.live(), 2);
        // The restored switch arbitrates identically.
        let g = s2
            .arbitrate(1, Time(7), |b| BW.tx_time(b as u64), None, &mut pool2)
            .unwrap();
        assert_eq!(g.pkt.bytes, 2048);
    }
}

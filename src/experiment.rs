//! One-call experiment runners: build a network, install a scenario,
//! warm up, measure, and summarise — the common skeleton of every
//! table and figure in the paper.

use crate::options::{Armed, RunOptions};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{NetConfig, PAPER_MSG_BYTES};
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::Serialize;

/// Warmup and measurement durations of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunDurations {
    /// Simulated time excluded from measurement (congestion trees and
    /// CCTI state form during this window).
    pub warmup: TimeDelta,
    /// Simulated time measured.
    pub measure: TimeDelta,
}

impl RunDurations {
    pub fn new_ms(warmup_ms: u64, measure_ms: u64) -> Self {
        RunDurations {
            warmup: TimeDelta::from_ms(warmup_ms),
            measure: TimeDelta::from_ms(measure_ms),
        }
    }
    pub fn total(&self) -> TimeDelta {
        self.warmup + self.measure
    }
}

/// Everything a single simulation run reports.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioResult {
    /// Was congestion control enabled?
    pub cc: bool,
    /// Average receive rate of the hotspot nodes (Gbit/s). For
    /// moving-hotspot runs this reflects the *final* hotspot set; the
    /// figures report `all_rx` for those scenarios, as the paper does.
    pub hotspot_rx: f64,
    /// Average receive rate of the non-hotspot nodes (Gbit/s).
    pub non_hotspot_rx: f64,
    /// Average receive rate over all nodes (Gbit/s).
    pub all_rx: f64,
    /// Sum of all nodes' receive rates (Gbit/s) — "total network
    /// throughput" in the paper's Table II.
    pub total_rx: f64,
    /// The paper's `tmax`: theoretical max non-hotspot receive rate.
    pub tmax: f64,
    /// FECN marks applied by switches during the whole run.
    pub fecn_marks: u64,
    /// BECNs processed by sources during the whole run.
    pub becns: u64,
    /// Highest CCTI at the end of the run.
    pub max_ccti: u16,
    /// Median end-to-end data latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end data latency in microseconds.
    pub latency_p99_us: f64,
    /// Jain's fairness index over contributor shares at the hotspots
    /// (None when nothing reached a hotspot in the window).
    pub fairness: Option<f64>,
    /// CNPs sanctioned-dropped by an installed fault schedule (0 when
    /// the run had no faults).
    pub sanctioned_becn_drops: u64,
    /// Events processed (simulator work, not a paper metric).
    pub events: u64,
}

/// As [`run_scenario_with`], with options resolved from the
/// environment ([`RunOptions::from_env`]). `contributors_active =
/// false` silences the contributor nodes (the "no hotspots" baseline
/// rows of Table II).
pub fn run_scenario_opts(
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
) -> ScenarioResult {
    let opts = RunOptions::from_env().unwrap_or_else(|e| panic!("{e}"));
    run_scenario_with(
        &opts,
        topo,
        cfg,
        roles,
        dur,
        hotspot_lifetime,
        contributors_active,
    )
}

/// Run one hotspot scenario under `opts`. `hotspot_lifetime = None`
/// keeps hotspots fixed (silent/windy forests); `Some(L)` moves every
/// hotspot each `L` of simulated time (the stormy forests of §V-C),
/// starting during warmup so the measured window sees steady-state
/// churn. `contributors_active = false` silences the contributor nodes.
/// End-of-run audits tolerate the drops a fault schedule sanctions but
/// fail on any other ledger violation.
pub fn run_scenario_with(
    opts: &RunOptions,
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
) -> ScenarioResult {
    let inj = cfg.inj_rate;
    let label = crate::checkpoint::run_label(
        &roles,
        &dur,
        hotspot_lifetime,
        contributors_active,
        opts.faults.as_ref(),
    );
    let Armed {
        mut net,
        traffic: mut sc,
        mut ckpt,
        resume,
    } = opts.arm(topo, cfg, Some(label), |net| {
        let sc = Scenario::install_opts(roles, net, PAPER_MSG_BYTES, contributors_active);
        let hotspots = sc.assignment.hotspots.clone();
        (sc, Some(hotspots))
    });
    let t_end = Time::ZERO + dur.total();

    // Optional resume: fast-forward the freshly configured (but not yet
    // primed) fabric from this run's checkpoint. Hotspot moves the saved
    // run performed before the capture are replayed first — retargeting
    // rewires class *configuration*, which the checkpoint deliberately
    // does not carry. The move scheduled at the capture instant itself
    // (if any) fired after the save, so it is left to the resumed epoch
    // loop below.
    let resumed_at = resume.map(|(at, state)| {
        if let Some(life) = hotspot_lifetime {
            let mut m = Time::ZERO + life;
            while m < at {
                sc.move_hotspots(&mut net);
                m += life;
            }
        }
        net.restore(&state)
            .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
        at
    });

    match hotspot_lifetime {
        None => {
            ckpt.run_until(&mut net, Time::ZERO + dur.warmup);
            if !net.is_measuring() {
                net.start_measurement();
            }
            ckpt.run_until(&mut net, t_end);
        }
        Some(life) => {
            assert!(!life.is_zero(), "hotspot lifetime must be positive");
            let mut t = Time::ZERO;
            if let Some(at) = resumed_at {
                // Re-enter the epoch loop at the last boundary strictly
                // before the capture, so a move scheduled exactly at the
                // capture instant still fires.
                while t + life < at {
                    t += life;
                }
            }
            let mut measuring = net.is_measuring();
            while t < t_end {
                let next_move = t + life;
                let warmup_end = Time::ZERO + dur.warmup;
                if !measuring && warmup_end <= next_move.min(t_end) {
                    ckpt.run_until(&mut net, warmup_end);
                    if !net.is_measuring() {
                        net.start_measurement();
                    }
                    measuring = true;
                }
                let stop = next_move.min(t_end);
                ckpt.run_until(&mut net, stop);
                t = stop;
                if t < t_end {
                    sc.move_hotspots(&mut net);
                }
            }
            if !measuring && !net.is_measuring() {
                net.start_measurement();
            }
        }
    }
    net.stop_measurement();
    let cc_hint = if net.cc_enabled() { "cc_on" } else { "cc_off" };
    // A broken ledger fails the run rather than reporting corrupt numbers.
    opts.finish(&mut net, cc_hint, &sc.assignment.hotspots)
        .raise();

    let lat = net.latency_histogram();
    let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
    ScenarioResult {
        cc: net.cc_enabled(),
        hotspot_rx: sc.hotspot_avg_rx(&net),
        non_hotspot_rx: sc.non_hotspot_avg_rx(&net),
        all_rx: sc.all_avg_rx(&net),
        total_rx: net.total_rx_gbps(),
        tmax: sc.tmax_gbps(inj),
        fecn_marks: net.total_fecn_marks(),
        becns: net.total_becns(),
        max_ccti: net.max_ccti(),
        latency_p50_us: to_us(lat.quantile(0.5)),
        latency_p99_us: to_us(lat.quantile(0.99)),
        fairness: sc.hotspot_fairness(&net),
        sanctioned_becn_drops: net.sanctioned_becn_drops(),
        events: net.events_processed(),
    }
}

/// A CC-on/CC-off pair of runs over the same workload (identical seeds
/// and therefore identical traffic), the unit of every comparison plot.
#[derive(Clone, Debug, Serialize)]
pub struct CcComparison {
    pub off: ScenarioResult,
    pub on: ScenarioResult,
}

impl CcComparison {
    /// Total-throughput improvement factor from enabling CC (the y-axis
    /// of figures 5(c)–8(c)).
    pub fn improvement(&self) -> f64 {
        if self.off.total_rx == 0.0 {
            return 1.0;
        }
        self.on.total_rx / self.off.total_rx
    }
}

/// Run the same scenario under `opts` with CC off and on. Both runs
/// share the options, fault schedule included, so the comparison
/// isolates what CC buys — or costs — under identical degradation.
pub fn run_cc_pair(
    opts: &RunOptions,
    topo: &Topology,
    base_cfg: &NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
) -> CcComparison {
    let mut cfg_off = base_cfg.clone();
    cfg_off.cc = None;
    let mut cfg_on = base_cfg.clone();
    if cfg_on.cc.is_none() {
        cfg_on.cc = Some(ibsim_cc::CcParams::paper_table1());
    }
    CcComparison {
        off: run_scenario_with(opts, topo, cfg_off, roles, dur, hotspot_lifetime, true),
        on: run_scenario_with(opts, topo, cfg_on, roles, dur, hotspot_lifetime, true),
    }
}

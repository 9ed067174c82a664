//! Fault drills: run a hotspot scenario with a fault schedule, sample
//! throughput in fixed bins across the fault window, and distil the
//! samples into per-run recovery metrics (time-to-recover, victim
//! floor, CCTI decay) via [`ibsim_faults::RecoveryMetrics`].

use crate::experiment::RunDurations;
use crate::options::{Armed, RunOptions};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_faults::{FaultStats, RecoveryMetrics, Sample};
use ibsim_net::{FlightKind, NetConfig, PAPER_MSG_BYTES};
use ibsim_topo::Topology;
use ibsim_traffic::{RoleSpec, Scenario};
use serde::Serialize;

/// Everything one drill run reports — serialised as the CI artifact.
#[derive(Clone, Debug, Serialize)]
pub struct DrillReport {
    /// Spec echo: when the first transition fires / the last clears, µs.
    pub fault_start_us: f64,
    pub fault_clear_us: f64,
    /// Per-bin victim (non-hotspot) throughput and worst CCTI.
    pub samples: Vec<Sample>,
    /// The distilled recovery metrics (None when the run ended before a
    /// pre-fault baseline existed).
    pub recovery: Option<RecoveryMetrics>,
    /// What the schedule actually did.
    pub fault_stats: FaultStats,
    /// Sanctioned CNP drops ledgered by the oracle (0 when audit off).
    pub audited_sanctioned_drops: u64,
    /// Unsanctioned violations found by the end-of-run audit pass. The
    /// caller fails the run when this is nonzero.
    pub unsanctioned_violations: usize,
    /// The configured victim-throughput floor (Gbit/s), if any.
    pub floor_gbps: Option<f64>,
    /// Bins whose victim throughput fell below the floor. Each breach
    /// is also recorded in the flight window; the first one dumps it.
    pub floor_breaches: usize,
}

/// Run `roles` on `topo` for `dur.total()` under `opts` (its fault
/// schedule is the drill's), sampling the non-hotspot receive rate
/// every `bin`. The measurement meters restart per bin, so each
/// [`Sample`] is an independent window average; warmup bins are
/// sampled too (the recovery baseline needs pre-fault bins). The
/// end-of-run audit report is returned unraised, so callers get the
/// artifact whatever it finds.
///
/// `floor_gbps` sets an optional victim-throughput floor. Every bin
/// below it is counted and recorded as a `FloorBreach` flight event;
/// the first breach dumps the flight window (events + current metric
/// sample) to `flight_breach_drill.json` in `opts.out` — the same
/// automatic-dump contract an unsanctioned audit violation has.
///
/// The per-bin loop does not checkpoint: `opts` must not ask it to.
pub fn run_drill_floor(
    opts: &RunOptions,
    topo: &Topology,
    cfg: NetConfig,
    roles: RoleSpec,
    dur: RunDurations,
    bin: TimeDelta,
    floor_gbps: Option<f64>,
) -> (DrillReport, ibsim_check::AuditReport) {
    assert!(!bin.is_zero(), "drill bin must be positive");
    let Armed {
        mut net,
        traffic: sc,
        ..
    } = opts.arm(topo, cfg, None, |net| {
        let sc = Scenario::install_opts(roles, net, PAPER_MSG_BYTES, true);
        let hotspots = sc.assignment.hotspots.clone();
        (sc, Some(hotspots))
    });

    let t_end = Time::ZERO + dur.total();
    let mut samples: Vec<Sample> = Vec::new();
    let mut floor_breaches = 0usize;
    let mut t = Time::ZERO;
    while t < t_end {
        let stop = (t + bin).min(t_end);
        net.start_measurement();
        net.run_until(stop);
        net.stop_measurement();
        let s = Sample {
            t_us: stop.as_ps() as f64 / 1e6,
            gbps: sc.non_hotspot_avg_rx(&net),
            max_ccti: net.max_ccti(),
        };
        if floor_gbps.is_some_and(|floor| s.gbps < floor) {
            floor_breaches += 1;
            net.flight_note(
                FlightKind::FloorBreach,
                "drill",
                format!(
                    "bin ending {:.0}µs: victims {:.3} Gbit/s < floor {:.3}",
                    s.t_us,
                    s.gbps,
                    floor_gbps.unwrap()
                ),
            );
            if floor_breaches == 1 {
                if let Some(doc) = net.flight_dump_json("drill floor breach") {
                    std::fs::create_dir_all(&opts.out).expect("create artifact dir");
                    std::fs::write(opts.out.join("flight_breach_drill.json"), doc)
                        .expect("write breach dump");
                }
            }
        }
        samples.push(s);
        t = stop;
    }

    let (start, clear) = opts
        .faults
        .as_ref()
        .and_then(|s| s.span())
        .map(|(s, c)| (s.as_ps() as f64 / 1e6, c.as_ps() as f64 / 1e6))
        .unwrap_or((0.0, 0.0));
    let recovery = RecoveryMetrics::compute(&samples, start, clear);
    let audit = opts.finish(&mut net, "drill", &sc.assignment.hotspots);
    let report = DrillReport {
        fault_start_us: start,
        fault_clear_us: clear,
        samples,
        recovery,
        fault_stats: net.fault_stats().copied().unwrap_or_default(),
        audited_sanctioned_drops: audit.sanctioned_drops,
        unsanctioned_violations: audit.unsanctioned().count(),
        floor_gbps,
        floor_breaches,
    };
    (report, audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_cc::CcBackend;
    use ibsim_net::FaultSchedule;
    use ibsim_topo::FatTreeSpec;

    fn drill_roles(n: usize) -> RoleSpec {
        RoleSpec {
            num_nodes: n,
            num_hotspots: 1,
            b_pct: 0,
            b_p: 0,
            c_pct_of_rest: 80,
        }
    }

    /// A TEST_8 drill under environment options plus `spec`'s faults.
    fn drill(
        spec: &str,
        backend: CcBackend,
        dur: RunDurations,
        bin_us: u64,
        floor: Option<f64>,
    ) -> DrillReport {
        let opts = RunOptions {
            backend,
            faults: Some(FaultSchedule::from_spec(spec, 7).unwrap()),
            ..RunOptions::from_env().unwrap()
        };
        let topo = FatTreeSpec::TEST_8.build();
        let bin = TimeDelta::from_us(bin_us);
        run_drill_floor(
            &opts,
            &topo,
            NetConfig::paper(),
            drill_roles(8),
            dur,
            bin,
            floor,
        )
        .0
    }

    #[test]
    fn drill_samples_cover_the_run_and_metrics_emerge() {
        let report = drill(
            "flap:link=hca:2,at=1500us,dur=500us,factor=stall",
            CcBackend::IbCc,
            RunDurations::new_ms(1, 3),
            250,
            None,
        );
        assert_eq!(report.samples.len(), 16, "4 ms / 250 us bins");
        assert!(report.samples.windows(2).all(|w| w[0].t_us < w[1].t_us));
        assert_eq!(report.fault_start_us, 1500.0);
        assert_eq!(report.fault_clear_us, 2000.0);
        let r = report.recovery.expect("6 pre-fault bins exist");
        assert!(r.pre_fault_gbps > 0.0);
        assert!(
            r.floor_gbps < r.pre_fault_gbps,
            "a stalled victim link must dent throughput: floor {} vs pre {}",
            r.floor_gbps,
            r.pre_fault_gbps
        );
        assert_eq!(report.unsanctioned_violations, 0);
    }

    #[test]
    fn floor_breaches_are_counted_per_bin() {
        let spec = "flap:link=hca:2,at=400us,dur=200us,factor=stall";
        let dur = RunDurations::new_ms(0, 1);
        // Unreachable floor: every bin breaches.
        let report = drill(spec, CcBackend::IbCc, dur, 250, Some(1e6));
        assert_eq!(report.floor_gbps, Some(1e6));
        assert_eq!(report.floor_breaches, report.samples.len());
        // Throughput is never negative: no breach.
        let report = drill(spec, CcBackend::IbCc, dur, 250, Some(0.0));
        assert_eq!(report.floor_breaches, 0);
    }

    #[test]
    fn drill_recovers_after_the_flap_clears() {
        let report = drill(
            "flap:link=hca:2,at=1000us,dur=300us,factor=stall",
            CcBackend::IbCc,
            RunDurations::new_ms(1, 4),
            200,
            None,
        );
        let r = report.recovery.expect("pre-fault bins exist");
        let ttr = r
            .time_to_recover_us
            .expect("throughput must return to 95% of baseline");
        assert!(ttr >= 0.0);
        assert!(r.post_fault_gbps > 0.9 * r.pre_fault_gbps);
    }

    #[test]
    fn drill_runs_the_selected_backend() {
        let run = |backend| {
            let spec = "flap:link=hca:2,at=400us,dur=200us,factor=stall";
            drill(spec, backend, RunDurations::new_ms(0, 1), 250, None).samples
        };
        let (ib, dc) = (run(CcBackend::IbCc), run(CcBackend::Dcqcn));
        assert_ne!(
            format!("{ib:?}"),
            format!("{dc:?}"),
            "a DCQCN drill must run a DCQCN network, not IB CC"
        );
    }
}

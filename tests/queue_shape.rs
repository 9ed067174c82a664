//! The event queue's work on the load that once degraded it: Table II's
//! no-hotspot baseline, every victim injecting in lockstep at one rate,
//! so dozens of events share each timestamp. The counters are exact and
//! machine-independent, so the bounds pin the queue's shape, not speed.

use ibsim::prelude::*;

#[test]
fn lockstep_baseline_stays_bucketed() {
    let topo = FatTreeSpec::QUICK_72.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: Preset::Quick.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    // The "No hotspots, no CC" cell: contributors silenced.
    let mut net = Network::new(&topo, NetConfig::paper_no_cc());
    Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, false);
    net.run_until(Time::from_ms(2));

    let s = net.queue_stats();
    let events = net.events_processed();
    assert!(
        events > 100_000,
        "the cell must do real work: {events} events"
    );
    assert!(
        s.spilled * 100 <= s.inserts,
        "ties must stay bucketed, not spill: {s:?}"
    );
    assert!(s.retunes <= 8, "the geometry must settle: {s:?}");
    assert!(
        s.scanned <= 2 * events,
        "a batch walk must pass few entries of later timestamps: {s:?} over {events} events"
    );
}

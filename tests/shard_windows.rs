//! Pins the sharded executor's window count, beside the byte-equality
//! suite in `shard_equivalence.rs`: the number of windows (the
//! profiler's `barrier` calls, one per round) for a small run. Window
//! ends follow from the earliest pending event anywhere; a bookkeeping
//! slip that loses track of a held event would still replay correctly
//! inside the window it lands in, but shows up here as a different
//! window count.

use ibsim::prelude::*;

/// TEST_8, one hotspot, CC on: the fabric the equivalence suite uses.
fn loaded_net(topo: &Topology) -> Network {
    let mut net = Network::new(topo, NetConfig::paper().with_seed(0x1B51_C0DE));
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let _sc = Scenario::install_opts(roles, &mut net, PAPER_MSG_BYTES, true);
    net
}

fn barrier_calls(net: &Network) -> u64 {
    let report = net.profile_report().expect("profiling is on");
    report
        .bins
        .iter()
        .find(|b| b.subsystem == "barrier")
        .expect("report has a barrier bin")
        .calls
}

/// Cumulative window counts at 150, 350 and 500 µs. The window end is
/// `gmin + lookahead − 1` with `gmin` global, so the count does not
/// depend on the shard count.
#[test]
fn window_count_is_pinned() {
    let topo = FatTreeSpec::TEST_8.build();
    for n in [2, 4] {
        let mut net = loaded_net(&topo);
        net.enable_profile();
        net.set_shards(&topo, n);
        assert_eq!(net.shard_count(), n);
        let got: Vec<u64> = [150, 350, 500]
            .into_iter()
            .map(|t| {
                net.run_until(Time::from_us(t));
                barrier_calls(&net)
            })
            .collect();
        assert_eq!(got, [2222, 4844, 6630], "window count at {n} shards");
    }
}

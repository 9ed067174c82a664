//! A virtualised-cluster scenario — the paper's motivating example for
//! *moving* congestion trees: "a cluster running a set of virtual
//! machines or virtual jobs, where the communication pattern is
//! unknown" (§III-C).
//!
//! Jobs come and go: every millisecond a different set of nodes turns
//! into an incast aggregation point. We sweep the churn rate and show
//! that congestion control keeps helping even as the pattern gets more
//! frantic — and that its advantage shrinks as the traffic itself
//! becomes the decongestant, exactly the trend of the paper's §V-C.
//!
//! ```text
//! cargo run --release --example cloud_burst
//! ```

use ibsim::prelude::*;

fn main() {
    let preset = Preset::Quick;
    let topo = preset.topology();
    // Every node is a B node: 60 % of its traffic goes to its job's
    // current aggregation point, 40 % is ordinary peer traffic.
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 100,
        b_p: 60,
        c_pct_of_rest: 0,
    };
    let dur = preset.moving_durations();
    let lifetimes = preset.lifetimes();

    println!(
        "cloud burst: {} nodes, aggregation points move as jobs churn\n",
        topo.num_hcas
    );
    println!("churn (hotspot lifetime)   avg rx, CC off   avg rx, CC on   CC gain");

    let pairs = parallel_map(&lifetimes, 0, |&life| {
        run_cc_pair(
            &RunOptions::from_env().unwrap(),
            &topo,
            &preset.net_config(),
            roles,
            dur,
            Some(life),
        )
    });

    let mut last_gain = f64::INFINITY;
    let mut gains = Vec::new();
    for (life, pair) in lifetimes.iter().zip(&pairs) {
        let gain = pair.on.all_rx / pair.off.all_rx;
        println!(
            "{:>10.2} ms          {:>10.0} Mbit/s   {:>10.0} Mbit/s   {:>6.2}x",
            life.as_ms_f64(),
            pair.off.all_rx * 1e3,
            pair.on.all_rx * 1e3,
            gain
        );
        gains.push(gain);
        last_gain = gain;
    }

    println!(
        "\nCC never hurts ({} of {} churn rates improved), and the advantage \
         shrinks as churn rises:\nfast-moving hotspots dissolve their own \
         congestion trees before a control loop matters much.",
        gains.iter().filter(|&&g| g > 1.0).count(),
        gains.len()
    );
    assert!(
        last_gain >= 0.95,
        "CC should not hurt even at extreme churn"
    );
}

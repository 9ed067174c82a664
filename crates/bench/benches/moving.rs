//! Bench for **Figures 9–10** (moving congestion trees): a CC-pair
//! cell with hotspots relocating mid-run, at two churn rates.

use criterion::{criterion_group, criterion_main, Criterion};
use ibsim::prelude::*;
use ibsim_bench::{bench_cfg, bench_durations};

fn moving_pair(lifetime_us: u64) -> CcComparison {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    run_cc_pair(
        &RunOptions::from_env().unwrap(),
        &topo,
        &bench_cfg(true),
        roles,
        bench_durations(),
        Some(TimeDelta::from_us(lifetime_us)),
    )
}

fn moving(c: &mut Criterion) {
    // Shape check: even at bench scale (8 nodes, where the CCT index is
    // very coarse and extreme churn outruns the feedback loop) CC must
    // stay within a modest factor of no-CC at moderate churn.
    let pair = moving_pair(200);
    assert!(
        pair.on.all_rx > pair.off.all_rx * 0.6,
        "CC collapsed under churn: {} vs {}",
        pair.on.all_rx,
        pair.off.all_rx
    );

    let mut g = c.benchmark_group("moving");
    g.sample_size(10);
    for life in [200u64, 50] {
        g.bench_function(format!("pair_lifetime_{life}us"), |b| {
            b.iter(|| moving_pair(life))
        });
    }
    g.finish();
}

criterion_group!(benches, moving);
criterion_main!(benches);

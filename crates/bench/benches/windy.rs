//! Bench for **Figures 5–8** (windy forests): one CC-pair cell per
//! representative p value, with the panel-(c) shape asserted (the
//! improvement curve must rise from p=0 into the interior).

use criterion::{criterion_group, criterion_main, Criterion};
use ibsim::prelude::*;
use ibsim_bench::{bench_cfg, bench_durations};

fn windy_pair_with(p: u32, dur: RunDurations) -> CcComparison {
    let topo = FatTreeSpec::TEST_8.build();
    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: 1,
        b_pct: 100,
        b_p: p,
        c_pct_of_rest: 80,
    };
    run_cc_pair(
        &RunOptions::from_env().unwrap(),
        &topo,
        &bench_cfg(true),
        roles,
        dur,
        None,
    )
}

fn windy_pair(p: u32) -> CcComparison {
    windy_pair_with(p, bench_durations())
}

fn windy(c: &mut Criterion) {
    // Shape check with windows long enough for congestion trees to
    // form (the timed cells below use short windows purely for speed).
    let at0 = windy_pair_with(0, RunDurations::new_ms(2, 4));
    let at60 = windy_pair_with(60, RunDurations::new_ms(2, 4));
    assert!(
        at60.improvement() > at0.improvement(),
        "interior p must beat p=0: {} vs {}",
        at60.improvement(),
        at0.improvement()
    );

    let mut g = c.benchmark_group("windy");
    g.sample_size(10);
    for p in [0u32, 60, 100] {
        g.bench_function(format!("pair_p{p}"), |b| b.iter(|| windy_pair(p)));
    }
    g.finish();
}

criterion_group!(benches, windy);
criterion_main!(benches);

//! Bench for **Table II** (silent forest): runs the four cells of the
//! table at bench scale and asserts the headline inequality (CC lifts
//! total throughput) still holds while measuring the cost of a cell.

use criterion::{criterion_group, criterion_main, Criterion};
use ibsim::prelude::*;
use ibsim_bench::{bench_cfg, bench_durations, tiny_roles};

fn cell(cc: bool, contributors: bool) -> ScenarioResult {
    let (topo, roles) = tiny_roles();
    run_scenario_opts(
        &topo,
        bench_cfg(cc),
        roles,
        bench_durations(),
        None,
        contributors,
    )
}

fn table2(c: &mut Criterion) {
    // Shape check once, outside the timed loop — with windows long
    // enough for the congestion tree to form and CC to respond (the
    // timed cells below use much shorter windows purely for speed).
    let (topo, roles) = tiny_roles();
    let shape = |cc: bool| {
        run_scenario_opts(
            &topo,
            bench_cfg(cc),
            roles,
            RunDurations::new_ms(2, 4),
            None,
            true,
        )
    };
    let off = shape(false);
    let on = shape(true);
    assert!(
        on.total_rx > off.total_rx,
        "CC must lift total throughput: {} -> {}",
        off.total_rx,
        on.total_rx
    );

    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("silent_cell_cc_off", |b| b.iter(|| cell(false, true)));
    g.bench_function("silent_cell_cc_on", |b| b.iter(|| cell(true, true)));
    g.bench_function("baseline_cell_victims_only", |b| {
        b.iter(|| cell(true, false))
    });
    g.finish();
}

criterion_group!(benches, table2);
criterion_main!(benches);

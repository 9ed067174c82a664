//! Bench for the ablation suite: the cost of a silent-forest cell under
//! the parameter variants DESIGN.md calls out (threshold weight, CCT
//! step, SL- vs QP-mode).

use criterion::{criterion_group, criterion_main, Criterion};
use ibsim::prelude::*;
use ibsim_bench::{bench_durations, tiny_roles};

fn cell_with(params: CcParams) -> ScenarioResult {
    let (topo, roles) = tiny_roles();
    let mut cfg = NetConfig::paper();
    cfg.cc = Some(params);
    run_scenario_opts(&topo, cfg, roles, bench_durations(), None, true)
}

fn ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);

    g.bench_function("threshold_w1", |b| {
        b.iter(|| {
            cell_with(CcParams {
                threshold: 1,
                ..CcParams::paper_table1()
            })
        })
    });
    g.bench_function("threshold_w15", |b| {
        b.iter(|| cell_with(CcParams::paper_table1()))
    });
    g.bench_function("cct_step8", |b| {
        b.iter(|| {
            cell_with(CcParams {
                cct: Cct::populate(128, CctShape::Linear { step: 8 }),
                ..CcParams::paper_table1()
            })
        })
    });
    g.bench_function("sl_mode", |b| {
        b.iter(|| {
            cell_with(CcParams {
                mode: CcMode::ServiceLevel,
                ..CcParams::paper_table1()
            })
        })
    });
    g.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);

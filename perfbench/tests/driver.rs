//! The driver's own checks: fat8-scaled workloads pass, the driver's
//! call sequence reproduces the library runners, and the metric
//! catalogue matches `BENCHMARK.json`.

use ibsim::prelude::*;
use ibsim_perfbench::{
    per_layer, run_iteration, synthesize_trace, CellResult, Iteration, Kind, Mode, Plan, Traffic,
    END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 7;

fn trace_file(plan: &Plan, tag: &str) -> Option<PathBuf> {
    (plan.kind == Kind::Trace).then(|| {
        let p = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}.ibtr"));
        synthesize_trace(plan, SEED, &p);
        p
    })
}

fn run(plan: &Plan, trace: &Option<PathBuf>, mode: Mode) -> Iteration {
    run_iteration(plan, SEED, trace.as_deref(), mode)
}

#[test]
fn fat8_workloads_pass_their_checks_traced_and_untraced() {
    for kind in [Kind::Silent, Kind::Windy, Kind::Trace] {
        let plan = Plan::fat8(kind);
        let trace = trace_file(&plan, &format!("checks-{kind:?}"));
        let plain = run(&plan, &trace, Mode::UNTRACED);
        let traced = run(&plan, &trace, Mode::TRACED);
        let serial = (plan.shards > 1).then(|| {
            run(
                &plan,
                &trace,
                Mode {
                    shards: Some(1),
                    ..Mode::UNTRACED
                },
            )
        });
        for it in [Some(&plain), Some(&traced), serial.as_ref()]
            .into_iter()
            .flatten()
        {
            assert_eq!(it.failures(), Vec::<String>::new(), "{kind:?}");
            assert_eq!(it.digest, plain.digest, "{kind:?}: digests differ");
            assert_eq!(it.results().len(), plan.cells(SEED).len());
        }
        assert!(plain.spans.is_empty(), "untraced runs record no spans");
        assert!(traced.cells.iter().all(|c| c.profile.is_some()));
        if kind == Kind::Windy {
            assert_eq!(traced.cells[0].counters.shard_count, 2);
            assert_eq!(serial.as_ref().unwrap().cells[0].counters.shard_count, 1);
        }

        let layer = per_layer(&traced, &plain, serial.as_ref(), 0.5);
        let names: Vec<&str> = layer.keys().copied().collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        want.sort();
        assert_eq!(names, want);
        assert!(layer["engine.events"] > 0.0);
        assert_eq!(
            layer["shard.barrier.calls"] > 0.0,
            kind == Kind::Windy,
            "only the sharded workload crosses shard barriers"
        );
        if kind == Kind::Trace {
            assert_eq!(layer["traffic.records_fed"], plan.trace_flows as f64);
        }
        // Every span but the root has an enclosing span that contains it.
        for s in &traced.spans[1..] {
            let p = &traced.spans[s.parent.expect("non-root spans have a parent")];
            assert!(
                p.start <= s.start && s.end <= p.end,
                "{} outside {}",
                s.name,
                p.name
            );
        }
        if let Some(p) = trace {
            std::fs::remove_file(p).ok();
        }
    }
}

#[test]
fn setup_only_passes_time_setup_and_run_nothing() {
    let plan = Plan::fat8(Kind::Silent);
    let it = run(&plan, &None, Mode::SETUP);
    assert!(it.setup_s > 0.0);
    assert!(it.results().is_empty());
    assert!(it.cells.iter().all(|c| c.counters.events == 0));
}

#[test]
fn driver_reproduces_the_library_runners() {
    let json = |r: &CellResult| match r {
        CellResult::Scenario(r) => serde_json::to_string(r).unwrap(),
        CellResult::Workload(r) => serde_json::to_string(r).unwrap(),
    };
    for kind in [Kind::Silent, Kind::Windy, Kind::Trace] {
        let plan = Plan::fat8(kind);
        let trace = trace_file(&plan, &format!("runners-{kind:?}"));
        let it = run(&plan, &trace, Mode::UNTRACED);
        let topo = plan.fabric.build();
        for (cell, got) in plan.cells(SEED).iter().zip(it.results()) {
            let want = match &cell.traffic {
                Traffic::Scenario { roles, active } => CellResult::Scenario(run_scenario_opts(
                    &topo,
                    cell.cfg.clone(),
                    *roles,
                    plan.dur,
                    None,
                    *active,
                )),
                Traffic::Trace => {
                    let path = trace.as_ref().unwrap().to_string_lossy().into_owned();
                    let spec = WorkloadSpec::parse(&format!("trace:{path}")).unwrap();
                    CellResult::Workload(run_workload(&topo, cell.cfg.clone(), &spec, plan.dur))
                }
            };
            assert_eq!(json(got), json(&want), "{kind:?} {}", cell.label);
        }
        if let Some(p) = trace {
            std::fs::remove_file(p).ok();
        }
    }
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| -> Vec<(String, String, String)> {
        match doc.get(key) {
            Some(serde_json::Value::Array(xs)) => xs
                .iter()
                .map(|x| {
                    let s = |k: &str| match x.get(k) {
                        Some(serde_json::Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{k}: {other:?}"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let ours = |defs: &[ibsim_perfbench::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    };
    assert_eq!(list("end_to_end"), ours(END_TO_END));
    assert_eq!(list("per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = match doc.get("workloads") {
        Some(serde_json::Value::Array(xs)) => xs
            .iter()
            .map(|w| match w.get("name") {
                Some(serde_json::Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            })
            .collect(),
        other => panic!("workloads: {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
    for name in WORKLOADS {
        assert!(Plan::paper(name, 2).is_some(), "{name} has no plan");
    }
}

#[test]
fn refuses_ibsim_environment_and_unknown_workloads() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(bin)
        .args(["--workload", "trace-648", "--seconds", "1"])
        .env("IBSIM_SHARDS", "4")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("IBSIM_SHARDS"));

    let out = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}

//! Benchmark driver. Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload silent-648 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs the workload's cells over and over for `--seconds` and prints,
//! as its last stdout line, one JSON object: `correct`, `attempted` and
//! `failed` (one cell is one operation) and the metrics — the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! A line before it records the machine, the simulated-result digest
//! and the exact work counters.

use ibsim_perfbench::{
    median, out_dir, peak_rss_mb, per_layer, run_iteration, spans_json, synthesize_trace,
    Iteration, Kind, Mode, Plan, END_TO_END, PER_LAYER, WORKLOADS,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Set-up-only passes after each untraced iteration; `setup_s` is
/// their median. They run warm — after a full iteration has filled the
/// allocator's free lists and woken the CPU — and a pass costs only
/// milliseconds, so many are cheap.
const SETUP_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn refuse(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2);
}

fn invalid<T>(flag: &str, val: &str) -> T {
    refuse(&format!("{flag} {val}: not a valid value"))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| refuse(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| invalid(&flag, &val)),
            "--seconds" => {
                args.seconds = val.parse().unwrap_or_else(|_| invalid(&flag, &val));
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    invalid::<()>(&flag, &val);
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => invalid(&flag, &val),
                }
            }
            _ => refuse(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Machine context recorded with every result set.
fn context(args: &Args, nproc: usize, rounds: usize) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_head".into(), Value::Str(git_head())),
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("repeats".into(), Value::U64(rounds as u64)),
    ])
}

/// The checked-out commit, read from `.git` without running git;
/// "none" outside a git checkout.
fn git_head() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    std::fs::read_to_string(git.join(r))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Failure messages, and the failed cells among `all`: a cell fails
/// its own check, and every cell of an iteration whose digest differs
/// from `digest` fails with it.
fn check(all: &[&Iteration], digest: u64) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    let mut failed = 0;
    for it in all {
        let cell_failures = it.failures();
        if it.digest != digest {
            failures.push(format!(
                "sim_digest {:016x} differs from the first iteration's {digest:016x}",
                it.digest
            ));
            failed += it.cells.len();
        } else {
            failed += cell_failures.len();
        }
        failures.extend(cell_failures);
    }
    (failures, failed)
}

/// Exact work counters of each cell.
fn counters_json(it: &Iteration) -> Value {
    Value::Object(
        it.cells
            .iter()
            .map(|c| {
                let k = &c.counters;
                (
                    c.label.to_string(),
                    Value::Object(vec![
                        ("events".into(), Value::U64(k.events)),
                        ("packets_injected".into(), Value::U64(k.packets_injected)),
                        ("packets_delivered".into(), Value::U64(k.packets_delivered)),
                        ("fecn_marks".into(), Value::U64(k.fecn_marks)),
                        ("becns".into(), Value::U64(k.becns)),
                        ("records_fed".into(), Value::U64(k.records_fed)),
                        ("shards".into(), Value::U64(k.shard_count as u64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn main() {
    let args = parse_args();
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("IBSIM_"))
    {
        refuse(&format!(
            "environment variable {} is set; IBSIM_* variables change what runs, unset it",
            k.to_string_lossy()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(plan) = Plan::paper(&args.workload, nproc) else {
        refuse(&format!(
            "unknown workload `{}`; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    };
    if plan.shards > nproc {
        refuse(&format!(
            "{} needs {} shards but nproc is {nproc}",
            args.workload, plan.shards
        ));
    }

    let start = Instant::now();
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create the benchmark's output directory");
    let trace_path: Option<PathBuf> = (plan.kind == Kind::Trace)
        .then(|| out.join(format!("trace-{}-{}.ibtr", args.seed, std::process::id())));
    // Input generation, excluded from every timed iteration.
    let synth_s = match &trace_path {
        Some(p) => synthesize_trace(&plan, args.seed, p),
        None => {
            let t0 = Instant::now();
            std::hint::black_box(plan.cells(args.seed));
            t0.elapsed().as_secs_f64()
        }
    };
    let trace = trace_path.as_deref();

    // Rounds: one untraced iteration and the set-up passes, plus with
    // `--trace 1` a traced iteration (and the untraced serial twin of a
    // sharded cell). Stop when the next round would overrun `--seconds`.
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<(Iteration, Option<Iteration>)> = Vec::new();
    let mut setup = Vec::new();
    loop {
        let r0 = Instant::now();
        untraced.push(run_iteration(&plan, args.seed, trace, Mode::UNTRACED));
        for _ in 0..SETUP_PASSES {
            setup.push(run_iteration(&plan, args.seed, trace, Mode::SETUP).setup_s);
        }
        if args.trace {
            let t = run_iteration(&plan, args.seed, trace, Mode::TRACED);
            let serial = (plan.shards > 1).then(|| {
                run_iteration(
                    &plan,
                    args.seed,
                    trace,
                    Mode {
                        shards: Some(1),
                        ..Mode::UNTRACED
                    },
                )
            });
            traced.push((t, serial));
        }
        let round = r0.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + round > args.seconds {
            break;
        }
    }
    if let Some(p) = trace {
        std::fs::remove_file(p).ok();
    }

    // Checks: every cell's own check, and one digest for every
    // iteration of this seed — untraced, traced and serial alike.
    let all: Vec<&Iteration> = untraced
        .iter()
        .chain(traced.iter().flat_map(|(t, s)| std::iter::once(t).chain(s)))
        .collect();
    let digest = all[0].digest;
    let (failures, failed) = check(&all, digest);
    let attempted: usize = all.iter().map(|it| it.cells.len()).sum();
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }

    let info = Value::Object(vec![
        ("context".into(), context(&args, nproc, all.len())),
        ("sim_digest".into(), Value::Str(format!("{digest:016x}"))),
        ("counters".into(), counters_json(&untraced[0])),
        (
            "wall_s_samples".into(),
            Value::Array(untraced.iter().map(|it| Value::F64(it.wall_s)).collect()),
        ),
    ]);
    println!("{}", serde_json::to_string(&info).expect("info serialises"));

    let metrics: Vec<(String, Value)> = if args.trace {
        let per: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .zip(&untraced)
            .map(|((t, s), u)| per_layer(t, u, s.as_ref(), synth_s))
            .collect();
        let spans = Value::Array(traced.iter().map(|(t, _)| spans_json(&t.spans)).collect());
        let dump = out.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(
            &dump,
            serde_json::to_string(&spans).expect("spans serialise"),
        )
        .expect("write span dump");
        eprintln!("perfbench: spans in {}", dump.display());
        PER_LAYER
            .iter()
            .map(|d| {
                let xs: Vec<f64> = per.iter().map(|p| p[d.name]).collect();
                (d.name.to_string(), metric(median(&xs), d.unit))
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "wall_s" => median(&untraced.iter().map(|it| it.wall_s).collect::<Vec<_>>()),
            "setup_s" => median(&setup),
            "cpu_s" => median(&untraced.iter().map(|it| it.cpu_s).collect::<Vec<_>>()),
            "peak_rss_mb" => peak_rss_mb(),
            _ => unreachable!("END_TO_END names are handled above"),
        };
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), metric(value(d.name), d.unit)))
            .collect()
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failures.is_empty())),
        ("attempted".into(), Value::U64(attempted as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
}

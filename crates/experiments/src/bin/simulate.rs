//! Run any hotspot scenario from a JSON specification — the
//! config-file front door a downstream user reaches for first.
//!
//! ```text
//! cargo run --release -p ibsim-experiments --bin simulate -- configs/silent_forest.json
//! ```
//!
//! The spec format is documented on [`ibsim_experiments::spec::SimSpec`];
//! see `configs/` for ready-made examples. Results print as a table and
//! as JSON on stdout (`--json` for JSON only).

use ibsim::prelude::*;
use ibsim_experiments::spec::SimSpec;
use ibsim_experiments::{f2, f3, Args, CKPT_FLAGS, RUN_FLAGS};

fn main() {
    let args = Args::parse(&[RUN_FLAGS, CKPT_FLAGS, &["json"]]);
    let opts = args.run_options();
    let Some(path) = args.positionals.first() else {
        eprintln!("usage: simulate <spec.json> [--json]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let spec = SimSpec::from_json(&text).unwrap_or_else(|e| panic!("bad spec: {e}"));
    let (on, off) = spec
        .run(&opts)
        .unwrap_or_else(|e| panic!("run failed: {e}"));

    if args.get_flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&(&on, &off)).expect("serialise")
        );
        return;
    }

    let mut rows = vec![];
    let mut push = |r: &ScenarioResult| {
        rows.push(vec![
            if r.cc { "on" } else { "off" }.to_string(),
            f3(r.hotspot_rx),
            f3(r.non_hotspot_rx),
            f3(r.all_rx),
            f2(r.total_rx),
            format!("{:.1}", r.latency_p50_us),
            format!("{:.1}", r.latency_p99_us),
            r.fairness.map(|f| format!("{f:.3}")).unwrap_or_default(),
        ]);
    };
    push(&on);
    if let Some(off) = &off {
        push(off);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "cc",
                "hotspot",
                "non-hotspot",
                "all",
                "total",
                "p50 us",
                "p99 us",
                "fairness"
            ],
            &rows
        )
    );
}

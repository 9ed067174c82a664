//! Synthesize compact binary flow traces (the `IBTR` format that
//! `--workload trace:<path>` replays) from closed-form distributions —
//! deterministic in `--seed`, streamed to disk in constant memory.
//!
//! ```text
//! # a million uniform flows over 648 nodes at ~60 % offered load
//! cargo run --release -p ibsim-experiments --bin tracegen -- \
//!     --nodes 648 --flows 1000000 --bytes 4096 --load-pct 60 out.ibtr
//!
//! # hotspot-skewed: 40 % of flows into 4 fixed targets
//! cargo run --release -p ibsim-experiments --bin tracegen -- \
//!     --nodes 72 --flows 100000 --hotspots 4 --hot-pct 40 out.ibtr
//! ```
//!
//! `--mean-gap-ns` sets the inter-arrival directly; `--load-pct`
//! derives it from the paper's 13.5 Gbit/s injection cap instead.

use ibsim_experiments::Args;
use ibsim_traffic::{TraceGenSpec, TracePattern, TraceReader};

fn main() {
    let args = Args::parse(&[&[
        "nodes",
        "flows",
        "bytes",
        "hotspots",
        "hot-pct",
        "mean-gap-ns",
        "load-pct",
        "seed",
    ]]);
    let path = args
        .positionals
        .first()
        .expect("tracegen wants an output path");
    let nodes = args.get_u32("nodes", 8);
    let flows = args.get_u64("flows", 10_000);
    let bytes = args.get_u32("bytes", 4096);
    let hotspots = args.get_u32("hotspots", 0);
    let pattern = if hotspots > 0 {
        TracePattern::Hotspot {
            hotspots,
            pct: args.get_u32("hot-pct", 30),
        }
    } else {
        TracePattern::Uniform
    };
    let mean_gap_ns = match args.get("mean-gap-ns") {
        Some(_) => args.get_u64("mean-gap-ns", 0),
        None => {
            let load = args.get_u64("load-pct", 60);
            TraceGenSpec::uniform_load(nodes, flows, bytes, 13.5, load as u32).mean_gap_ns
        }
    };
    let spec = TraceGenSpec {
        nodes,
        flows,
        bytes,
        mean_gap_ns,
        pattern,
        seed: args.seed(),
    };
    ibsim_traffic::flowtrace::synthesize_to(&spec, path)
        .unwrap_or_else(|e| panic!("tracegen: {e}"));
    let meta = std::fs::metadata(path).expect("stat output");
    let r = TraceReader::open(path).expect("re-open written trace");
    eprintln!(
        "tracegen: {} — {} flows over {} nodes, {} bytes each, mean gap {} ns ({} bytes on disk, {:.1} B/record)",
        path,
        r.records(),
        r.nodes(),
        bytes,
        mean_gap_ns,
        meta.len(),
        (meta.len().saturating_sub(20)) as f64 / flows.max(1) as f64,
    );
}

//! Divergence bisector CLI: find when and where a one-knob CC change
//! first alters simulator state.
//!
//! ```text
//! cargo run --release --bin bisect -- \
//!     --preset quick --perturb threshold=7 --resolution-us 50
//! ```
//!
//! Runs the preset's hotspot scenario twice per probe — once with the
//! paper's Table I CC parameters, once with one parameter perturbed —
//! and binary-searches checkpoint times for the first window in which
//! the two full state trees differ, reporting the diverging fields as
//! JSON-pointer paths.

use ibsim::bisect::{bisect_divergence, perturb_cc, DEFAULT_IGNORE};
use ibsim::prelude::*;
use ibsim_state::render_diff;
use std::collections::HashMap;

fn parse_args() -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            panic!("unexpected positional argument {a:?}");
        };
        if let Some((k, v)) = key.split_once('=') {
            flags.insert(k.to_string(), v.to_string());
        } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
            let v = it.next().unwrap();
            flags.insert(key.to_string(), v);
        } else {
            flags.insert(key.to_string(), "true".to_string());
        }
    }
    flags
}

fn main() {
    let args = parse_args();
    let preset = match args.get("preset").map(String::as_str) {
        None => Preset::Quick,
        Some(s) => Preset::parse(s)
            .unwrap_or_else(|| panic!("unknown preset {s:?}; try quick|medium|paper")),
    };
    let seed: u64 = args
        .get("seed")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--seed wants a number, got {v:?}"))
        })
        .unwrap_or(0x1B51_C0DE);
    let resolution_us: u64 = args
        .get("resolution-us")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--resolution-us wants a number, got {v:?}"))
        })
        .unwrap_or(50);
    assert!(resolution_us > 0, "--resolution-us must be positive");
    let perturb = args
        .get("perturb")
        .map(String::as_str)
        .unwrap_or("threshold=7");
    let (key, value) = perturb
        .split_once('=')
        .unwrap_or_else(|| panic!("--perturb wants KEY=VALUE, got {perturb:?}"));
    let value: u64 = value
        .parse()
        .unwrap_or_else(|_| panic!("--perturb {key}: wants a number, got {value:?}"));

    let topo = preset.topology();
    let cfg_a = preset.net_config().with_seed(seed);
    assert!(
        cfg_a.cc.is_some(),
        "preset must have CC enabled to perturb it"
    );
    let mut cfg_b = cfg_a.clone();
    perturb_cc(cfg_b.cc.as_mut().unwrap(), key, value);
    if cfg_a.cc == cfg_b.cc {
        panic!("--perturb {key}={value} equals the baseline value; nothing to bisect");
    }

    let roles = RoleSpec {
        num_nodes: topo.num_hcas,
        num_hotspots: preset.num_hotspots(),
        b_pct: 0,
        b_p: 0,
        c_pct_of_rest: 80,
    };
    let horizon = Time::ZERO + preset.durations().total();
    eprintln!(
        "bisect: preset={} nodes={} perturb {key}={value} horizon={:.1} us resolution={} us",
        preset.name(),
        topo.num_hcas,
        horizon.as_us_f64(),
        resolution_us,
    );

    match bisect_divergence(
        &topo,
        &cfg_a,
        &cfg_b,
        roles,
        horizon,
        TimeDelta::from_us(resolution_us),
        DEFAULT_IGNORE,
    ) {
        None => {
            println!(
                "no divergence: state trees identical over [0, {:.1}] us (perturbation {key}={value} is inert here)",
                horizon.as_us_f64()
            );
        }
        Some(d) => {
            println!(
                "first divergence in ({:.1}, {:.1}] us ({} probes)",
                d.clean_at.as_us_f64(),
                d.diverged_at.as_us_f64(),
                d.probes
            );
            if let Some(f) = d.first_field() {
                println!("first diverging field: {f}");
            }
            let shown = d.diffs.len().min(20);
            println!(
                "state diff at t={:.1} us ({} of {} fields):",
                d.diverged_at.as_us_f64(),
                shown,
                d.diffs.len()
            );
            print!("{}", render_diff(&d.diffs[..shown]));
        }
    }
}

//! Shared plumbing for the experiment binaries: a tiny argument parser
//! (no external CLI dependency) with per-bin flag tables, the
//! resolution of a command line's [`RunOptions`], and common output
//! helpers.

pub mod spec;

use ibsim::{Preset, RunOptions};
use std::collections::HashMap;
use std::path::PathBuf;

/// The run flags: one per [`RunOptions`] field a command line sets.
/// Every simulating bin accepts them.
pub const RUN_FLAGS: &[&str] = &[
    "audit",
    "cc-backend",
    "faults",
    "out",
    "profile",
    "shards",
    "telemetry",
    "trace-flows",
];

/// The checkpoint/resume run flags, accepted by the bins whose runners
/// honour them.
pub const CKPT_FLAGS: &[&str] = &["checkpoint-at", "checkpoint-dir", "resume-from"];

/// Parsed `--key value` arguments plus positionals.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    pub positionals: Vec<String>,
}

/// Print `msg` prefixed with the binary's name and exit with status 2.
fn die(msg: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin).file_name().unwrap_or_default();
    eprintln!("{}: {msg}", bin.to_string_lossy());
    std::process::exit(2)
}

/// Edit distance between `a` and `b` (insert, delete, substitute).
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

impl Args {
    /// Parse `std::env::args()` (skipping `argv[0]`) against `table`,
    /// the bin's flag table (e.g. `&[RUN_FLAGS, CKPT_FLAGS, &["x"]]`).
    /// `--key value` and `--key=value` are both accepted; bare `--key`
    /// stores "true". An unknown flag, `--help` included, exits with
    /// status 2 (see [`Args::check`]).
    pub fn parse(table: &[&[&str]]) -> Args {
        let args = Self::from_iter(std::env::args().skip(1));
        args.check(table).unwrap_or_else(|e| die(&e));
        args
    }

    /// Build from an explicit argument sequence (tests, embedding).
    // Not the std trait: this is a fallible-free constructor that also
    // takes owned Strings; the name matches clap's convention.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((k, v)) = key.split_once('=') {
                    args.flags.insert(k.to_string(), v.to_string());
                } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                    let v = it.next().unwrap();
                    args.flags.insert(key.to_string(), v);
                } else {
                    args.flags.insert(key.to_string(), "true".to_string());
                }
            } else {
                args.positionals.push(a);
            }
        }
        args
    }

    /// Reject any flag outside `table` — and any dash-led positional,
    /// a flag typed with one dash — naming the nearest known flag and
    /// listing the accepted ones.
    pub fn check(&self, table: &[&[&str]]) -> Result<(), String> {
        let mut known: Vec<&str> = table.concat();
        known.sort_unstable();
        // (as typed, bare name) of each unknown flag.
        let mut bad: Vec<(String, &str)> = self
            .flags
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .map(|k| (format!("--{k}"), k.as_str()))
            .chain(
                self.positionals
                    .iter()
                    .filter(|p| p.starts_with('-'))
                    .map(|p| (p.clone(), p.trim_start_matches('-'))),
            )
            .collect();
        bad.sort_unstable();
        let Some((typed, name)) = bad.first() else {
            return Ok(());
        };
        let hint = known
            .iter()
            .map(|k| (edit_distance(name, k), k))
            .min()
            .filter(|(d, _)| *d <= 2.max(name.len() / 3))
            .map(|(_, k)| format!(" (did you mean --{k}?)"))
            .unwrap_or_default();
        let accepted: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
        Err(format!(
            "unknown flag {typed}{hint}\naccepted flags: {}",
            accepted.join(" ")
        ))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} wants a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    pub fn get_u32(&self, key: &str, default: u32) -> u32 {
        self.get_u64(key, default as u64) as u32
    }

    pub fn get_flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }

    /// The shared `--preset {quick|medium|paper}` flag.
    pub fn preset(&self) -> Preset {
        match self.get("preset") {
            None => Preset::Quick,
            Some(s) => Preset::parse(s)
                .unwrap_or_else(|| panic!("unknown preset {s:?}; try quick|medium|paper")),
        }
    }

    /// The shared `--seed N` flag.
    pub fn seed(&self) -> u64 {
        self.get_u64("seed", 0x1B51_C0DE)
    }

    /// The shared `--threads N` flag (0 = auto).
    pub fn threads(&self) -> usize {
        self.get_u64("threads", 0) as usize
    }

    /// This command line's [`RunOptions`]: the run flags over the
    /// `IBSIM_*` environment over the defaults. Exits with status 2,
    /// naming the flag or variable, on a bad value.
    ///
    /// * `--audit` arms the fabric invariant oracle;
    /// * `--cc-backend {ibcc,dcqcn}` selects the backend of CC-on runs;
    /// * `--shards N` runs each simulation on `N` parallel shards
    ///   (byte-identical to serial; only the wall clock changes);
    /// * `--telemetry[=EVERY_US]` records a fabric time series (default
    ///   every 100 µs) plus the flight recorder;
    /// * `--trace-flows SRC:DST[,…]` or `--trace-flows hotspots` traces
    ///   those flows hop by hop;
    /// * `--profile` bins hot-path time by engine subsystem;
    /// * `--faults SPEC` compiles a fault schedule against `--seed`;
    /// * `--checkpoint-at US`, `--checkpoint-dir DIR`, `--resume-from
    ///   DIR` save each run's state at `US` µs / resume from it;
    /// * `--out DIR` is where every artifact and the bin's own tables
    ///   land (default `results/`).
    pub fn run_options(&self) -> RunOptions {
        self.try_run_options().unwrap_or_else(|e| die(&e))
    }

    fn try_run_options(&self) -> Result<RunOptions, String> {
        use ibsim::options::{parse_flows, parse_positive};
        let mut o = RunOptions::from_env()?;
        o.audit |= self.get_flag("audit");
        if let Some(s) = self.get("cc-backend") {
            o.backend = ibsim_cc::CcBackend::parse(s)
                .ok_or_else(|| format!("--cc-backend={s:?}: try ibcc|dcqcn"))?;
        }
        if let Some(n) = self.get("shards") {
            o.shards = parse_positive("--shards", n)? as usize;
        }
        o.telemetry = match self.get("telemetry") {
            None | Some("false") => None,
            Some("true") => Some(100),
            Some(us) => Some(parse_positive("--telemetry", us)?),
        }
        .map(ibsim_engine::time::TimeDelta::from_us);
        if let Some(spec) = self.get("trace-flows") {
            o.trace = Some(parse_flows(spec).map_err(|e| format!("--trace-flows: {e}"))?);
        }
        o.profile = self.get_flag("profile");
        if let Some(spec) = self.get("faults") {
            let schedule = ibsim_net::FaultSchedule::from_spec(spec, self.seed());
            o.faults = Some(schedule.map_err(|e| format!("--faults: {e}"))?);
        }
        if let Some(us) = self.get("checkpoint-at") {
            let us = parse_positive("--checkpoint-at", us)?;
            o.checkpoint_at = Some(ibsim_engine::time::Time::from_us(us));
        }
        if let Some(dir) = self.get("checkpoint-dir") {
            o.checkpoint_dir = dir.into();
        }
        o.resume_from = self.get("resume-from").map(PathBuf::from);
        if let Some(dir) = self.get("out") {
            o.out = dir.into();
        }
        Ok(o)
    }

    /// The shared `--workload SPEC` flag: a production-shaped workload
    /// (`incast:…`, `eb:…`, `collective:…` or `trace:<path>`) to run on
    /// the binary's fabric *instead of* its hotspot scenario. See
    /// `WorkloadSpec::parse` for the grammar.
    pub fn workload(&self) -> Option<ibsim_traffic::WorkloadSpec> {
        self.get("workload").map(|s| {
            ibsim_traffic::WorkloadSpec::parse(s).unwrap_or_else(|e| panic!("--workload: {e}"))
        })
    }
}

/// Run one `--workload` end to end on `topo` under `opts` and report:
/// an ASCII summary on stdout plus `workload_<name>.csv` in `opts.out`.
/// Shared by the `workloads` bin and the `--workload` escape hatch on
/// the scenario binaries (`windy`, `table2`).
pub fn run_workload_cli(
    opts: &RunOptions,
    topo: &ibsim_topo::Topology,
    cfg: ibsim_net::NetConfig,
    spec: &ibsim_traffic::WorkloadSpec,
    dur: ibsim::RunDurations,
) -> ibsim::WorkloadResult {
    let r = ibsim::run_workload_with(opts, topo, cfg, spec, dur);
    let mut rows: Vec<Vec<String>> = r
        .category_rx
        .iter()
        .map(|(name, gbps)| vec![name.clone(), f3(*gbps)])
        .collect();
    rows.push(vec!["total".into(), f3(r.total_rx)]);
    println!("workload {} on {} nodes:", r.workload, topo.num_hcas);
    println!(
        "{}",
        ibsim::prelude::ascii_table(&["category", "avg rx (Gbit/s)"], &rows)
    );
    println!(
        "  p50 {:.2} us  p99 {:.2} us  fecn {}  becn {}  max_ccti {}  drained {} ({:.1} us)",
        r.latency_p50_us,
        r.latency_p99_us,
        r.fecn_marks,
        r.becns,
        r.max_ccti,
        r.drained,
        r.drained_at_us
    );
    let out = &opts.out;
    std::fs::create_dir_all(out).expect("create out dir");
    let csv_rows: Vec<Vec<String>> = r
        .category_rx
        .iter()
        .map(|(name, gbps)| {
            vec![
                r.workload.clone(),
                name.clone(),
                f3(*gbps),
                f3(r.total_rx),
                f3(r.latency_p50_us),
                f3(r.latency_p99_us),
                r.drained.to_string(),
                r.events.to_string(),
            ]
        })
        .collect();
    ibsim::prelude::write_csv(
        &out.join(format!("workload_{}.csv", spec.name())),
        &[
            "workload",
            "category",
            "avg_rx_gbps",
            "total_rx_gbps",
            "p50_us",
            "p99_us",
            "drained",
            "events",
        ],
        &csv_rows,
    )
    .expect("write workload csv");
    r
}

/// Format a float with 3 decimals for tables.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}
/// Format a float with 2 decimals for tables.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::from_iter(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn key_value_styles() {
        let a = parse(&["pos", "--x", "25", "--preset=paper", "--verbose"]);
        assert_eq!(a.get("x"), Some("25"));
        assert_eq!(a.get("preset"), Some("paper"));
        assert!(a.get_flag("verbose"));
        assert_eq!(a.positionals, vec!["pos"]);
        assert_eq!(a.preset(), Preset::Paper);
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.preset(), Preset::Quick);
        assert_eq!(a.get_u64("nope", 7), 7);
        assert!(!a.get_flag("missing"));
        assert_eq!(a.try_run_options().unwrap().out, PathBuf::from("results"));
    }

    #[test]
    #[should_panic]
    fn bad_number_panics() {
        parse(&["--n", "abc"]).get_u64("n", 0);
    }

    #[test]
    fn flag_followed_by_flag() {
        // A value that looks like a flag is not eaten as a value.
        let a = parse(&["--a", "--b", "val"]);
        assert_eq!(a.get("a"), Some("true"));
        assert_eq!(a.get("b"), Some("val"));
    }

    const TABLE: &[&[&str]] = &[RUN_FLAGS, CKPT_FLAGS, &["preset", "seed"]];

    #[test]
    fn declared_flags_pass_the_table() {
        let a = parse(&["--preset", "quick", "--shards", "4", "--audit", "--out=o"]);
        assert_eq!(a.check(TABLE), Ok(()));
        assert_eq!(parse(&["spec.json"]).check(TABLE), Ok(()));
    }

    #[test]
    fn unknown_flags_name_the_nearest_and_list_the_table() {
        for (argv, bad, near) in [
            (
                &["--preset", "quick", "--shard", "4"][..],
                "--shard",
                "shards",
            ),
            (&["--audti"][..], "--audti", "audit"),
            (&["-shards", "4"][..], "-shards", "shards"),
        ] {
            let err = parse(argv).check(TABLE).expect_err(bad);
            assert!(err.starts_with(&format!("unknown flag {bad} ")), "{err}");
            assert!(err.contains(&format!("did you mean --{near}?")), "{err}");
            assert!(
                err.contains("accepted flags: --audit --cc-backend"),
                "{err}"
            );
        }
        // The retired --trace-out is unknown like any other flag.
        let err = parse(&["--trace-out", "dir"]).check(TABLE).unwrap_err();
        assert!(err.starts_with("unknown flag --trace-out"), "{err}");
        let err = parse(&["--help"]).check(TABLE).unwrap_err();
        assert!(err.starts_with("unknown flag --help\n"), "{err}");
        assert!(
            err.contains("--checkpoint-at") && err.contains("--seed"),
            "{err}"
        );
        // A bin without checkpoint support rejects the checkpoint flags.
        let err = parse(&["--checkpoint-at", "9000"])
            .check(&[RUN_FLAGS])
            .unwrap_err();
        assert!(err.starts_with("unknown flag --checkpoint-at"), "{err}");
    }

    #[test]
    fn run_flags_override_the_environment() {
        let a = parse(&[
            "--shards",
            "2",
            "--audit",
            "--cc-backend",
            "dcqcn",
            "--telemetry",
            "--profile",
            "--trace-flows",
            "hotspots",
            "--faults",
            "becnloss:link=hcas,p=0.5",
            "--checkpoint-at",
            "9000",
            "--checkpoint-dir",
            "ck",
            "--resume-from",
            "rs",
            "--out",
            "o",
        ]);
        let o = a.try_run_options().unwrap();
        assert_eq!(o.shards, 2);
        assert!(o.audit && o.profile);
        assert_eq!(o.backend, ibsim_cc::CcBackend::Dcqcn);
        assert_eq!(
            o.telemetry,
            Some(ibsim_engine::time::TimeDelta::from_us(100))
        );
        assert_eq!(o.trace, Some(ibsim::FlowSpec::Hotspots));
        assert!(o.faults.is_some());
        assert_eq!(
            o.checkpoint_at,
            Some(ibsim_engine::time::Time::from_us(9000))
        );
        assert_eq!(o.checkpoint_dir, PathBuf::from("ck"));
        assert_eq!(o.resume_from, Some(PathBuf::from("rs")));
        assert_eq!(o.out, PathBuf::from("o"));
        let o = parse(&["--telemetry=50"]).try_run_options().unwrap();
        assert_eq!(
            o.telemetry,
            Some(ibsim_engine::time::TimeDelta::from_us(50))
        );
    }

    #[test]
    fn bad_run_flag_values_are_errors_naming_the_flag() {
        for (flag, v) in [
            ("shards", "abc"),
            ("shards", "0"),
            ("cc-backend", "tcp"),
            ("telemetry", "0"),
            ("trace-flows", "7"),
            ("faults", "nonsense"),
            ("checkpoint-at", "soon"),
        ] {
            let err = parse(&[&format!("--{flag}"), v])
                .try_run_options()
                .unwrap_err();
            assert!(err.starts_with(&format!("--{flag}")), "{err}");
        }
    }
}

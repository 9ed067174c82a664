//! One resolved configuration value per run.
//!
//! The runners take *what* to simulate as arguments (topology,
//! [`NetConfig`], roles or workload, durations). [`RunOptions`] holds
//! *how* the run executes and what it records: the CC backend, the
//! invariant oracle, telemetry, flow tracing, profiling, a fault
//! schedule, the shard count, checkpoint capture and resume, and the
//! directory artifacts land in. It is resolved once — binaries go
//! flags → environment → defaults (`ibsim_experiments::Args::run_options`),
//! library callers use [`RunOptions::from_env`] or build the value
//! directly — and passed explicitly to every runner.
//!
//! Every runner brackets its event loop with the two steps defined
//! here: [`RunOptions::arm`] builds the network with each requested
//! layer and installs the traffic; [`RunOptions::finish`] writes the
//! run's artifacts and returns the end-of-run audit report.
//!
//! Four environment variables set run options, each for a CI leg that
//! runs processes which never parse flags: `IBSIM_AUDIT`,
//! `IBSIM_AUDIT_EVERY`, `IBSIM_SHARDS` and `IBSIM_TELEMETRY_DET`.
//! `IBSIM_AUDIT_REPORT`, `IBSIM_FLIGHT_DUMP` and the test-only
//! `IBSIM_BLESS` are read where they take effect. Any other `IBSIM_*`
//! name is rejected, so a misspelt variable cannot silently do nothing.

use crate::checkpoint::{self, Checkpointer};
use ibsim_cc::CcBackend;
use ibsim_check::AuditReport;
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{
    chrome_trace_json, records_csv, FaultSchedule, NetConfig, Network, NetworkState, NodeId,
    TelemetryConfig,
};
use ibsim_topo::Topology;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The `IBSIM_*` variables a process may set.
const ENV_VARS: [&str; 7] = [
    "IBSIM_AUDIT",
    "IBSIM_AUDIT_EVERY",
    "IBSIM_SHARDS",
    "IBSIM_TELEMETRY_DET",
    "IBSIM_AUDIT_REPORT",
    "IBSIM_FLIGHT_DUMP",
    "IBSIM_BLESS",
];

/// How one run executes and what it records.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// CC backend of every CC-on run (`--cc-backend`). CC-off configs
    /// stay the plain lossless fabric both backends are compared
    /// against; DCQCN also needs the marking detector only CC params
    /// install.
    pub backend: CcBackend,
    /// Arm the fabric invariant oracle (`--audit`, `IBSIM_AUDIT`).
    pub audit: bool,
    /// Events between periodic audit passes (`IBSIM_AUDIT_EVERY`).
    pub audit_every: u64,
    /// Telemetry sampling period, `None` = off (`--telemetry[=US]`).
    pub telemetry: Option<TimeDelta>,
    /// Zero the sampler's two wall-clock columns so sample tables are
    /// byte-reproducible (`IBSIM_TELEMETRY_DET`).
    pub telemetry_det: bool,
    /// Flows to trace hop by hop (`--trace-flows`).
    pub trace: Option<FlowSpec>,
    /// Bin hot-path wall-clock by engine subsystem (`--profile`).
    pub profile: bool,
    /// Fault schedule installed before the first event (`--faults`).
    pub faults: Option<FaultSchedule>,
    /// Parallel shards, 1 = serial (`--shards`, `IBSIM_SHARDS`).
    pub shards: usize,
    /// Save a full-state checkpoint when the clock first reaches this
    /// instant (`--checkpoint-at`).
    pub checkpoint_at: Option<Time>,
    /// Where checkpoints are saved (`--checkpoint-dir`).
    pub checkpoint_dir: PathBuf,
    /// Fast-forward each run from its checkpoint in this directory,
    /// when one exists (`--resume-from`).
    pub resume_from: Option<PathBuf>,
    /// Where telemetry, trace and profile artifacts land (`--out`).
    pub out: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            backend: CcBackend::IbCc,
            audit: false,
            audit_every: 50_000,
            telemetry: None,
            telemetry_det: false,
            trace: None,
            profile: false,
            faults: None,
            shards: 1,
            checkpoint_at: None,
            checkpoint_dir: PathBuf::from("checkpoints"),
            resume_from: None,
            out: PathBuf::from("results"),
        }
    }
}

/// What `--trace-flows` asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowSpec {
    /// Explicit `SRC:DST` pairs.
    Flows(Vec<(NodeId, NodeId)>),
    /// Every flow *into* the run's hotspots, which are drawn from the
    /// scenario RNG: [`RunOptions::arm`] resolves it once the traffic is
    /// installed, and refuses it for traffic without hotspots.
    Hotspots,
}

/// Parse a `--trace-flows` value: either the `hotspots` keyword or a
/// `SRC:DST[,SRC:DST…]` flow list (e.g. `0:3` or `0:3,5:3`).
pub fn parse_flows(spec: &str) -> Result<FlowSpec, String> {
    if spec.trim() == "hotspots" {
        return Ok(FlowSpec::Hotspots);
    }
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (s, d) = part
                .split_once(':')
                .ok_or_else(|| format!("flow {part:?} wants SRC:DST (or the keyword hotspots)"))?;
            let s = s
                .trim()
                .parse()
                .map_err(|_| format!("bad source node {s:?} in flow {part:?}"))?;
            let d = d
                .trim()
                .parse()
                .map_err(|_| format!("bad dest node {d:?} in flow {part:?}"))?;
            Ok((s, d))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(FlowSpec::Flows)
}

/// Parse a positive integer setting; the error names `name` and `v`.
pub fn parse_positive(name: &str, v: &str) -> Result<u64, String> {
    match v.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name}={v:?}: expected a positive integer")),
    }
}

fn parse_switch(name: &str, v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(format!("{name}={v:?}: expected 1|true|on or 0|false|off")),
    }
}

/// A network armed for one run by [`RunOptions::arm`].
pub struct Armed<T> {
    pub net: Network,
    /// What the `install` closure returned.
    pub traffic: T,
    /// Splits `run_until` at the checkpoint instant, if any.
    pub ckpt: Checkpointer,
    /// The saved clock and state this run resumes from. The runner
    /// restores it, after replaying whatever configuration the
    /// checkpoint does not carry.
    pub resume: Option<(Time, NetworkState)>,
}

/// Per-process artifact label counter (`run000`, `run001`, …), advanced
/// once per run that writes artifacts, so parallel sweeps never clobber
/// each other's files.
static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);

impl RunOptions {
    /// Options from `IBSIM_*` variables over the defaults. Variables
    /// outside the `IBSIM_` namespace are ignored; a bad value or an
    /// unknown `IBSIM_*` name is an error naming the variable.
    pub fn from_vars<K: AsRef<str>, V: AsRef<str>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<RunOptions, String> {
        let mut o = RunOptions::default();
        for (k, v) in vars {
            let (k, v) = (k.as_ref(), v.as_ref());
            match k {
                "IBSIM_AUDIT" => o.audit = parse_switch(k, v)?,
                "IBSIM_AUDIT_EVERY" => o.audit_every = parse_positive(k, v)?,
                "IBSIM_SHARDS" => o.shards = parse_positive(k, v)? as usize,
                "IBSIM_TELEMETRY_DET" => o.telemetry_det = parse_switch(k, v)?,
                _ if k.starts_with("IBSIM_") && !ENV_VARS.contains(&k) => {
                    return Err(format!(
                        "unknown environment variable {k}; the IBSIM_* variables are {}",
                        ENV_VARS.join(", ")
                    ))
                }
                _ => {}
            }
        }
        Ok(o)
    }

    /// Options from this process's environment: [`RunOptions::from_vars`]
    /// over every `IBSIM_*` variable.
    pub fn from_env() -> Result<RunOptions, String> {
        Self::from_vars(std::env::vars_os().filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("IBSIM_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        }))
    }

    /// The arm step. Builds the network for `cfg` under the selected
    /// backend; arms audit, telemetry, explicit trace flows and
    /// profiling; installs the fault schedule, then the sharded
    /// executor (which inspects the schedule); installs the run's
    /// traffic via `install`, which returns it together with its
    /// hotspots (`None` for a runner whose traffic has none); resolves
    /// `--trace-flows hotspots` against those; and, for a runner that
    /// checkpoints (`label` is `Some`), sets up the capture hook and
    /// loads the state to resume from.
    ///
    /// Panics when checkpointing is requested of a runner that cannot
    /// honour it (`label` is `None`), or hotspot tracing of one whose
    /// traffic has no hotspots.
    pub fn arm<T>(
        &self,
        topo: &Topology,
        mut cfg: NetConfig,
        label: Option<String>,
        install: impl FnOnce(&mut Network) -> (T, Option<Vec<NodeId>>),
    ) -> Armed<T> {
        if cfg.cc.is_some() {
            cfg.cc_backend = self.backend;
        }
        let mut net = Network::new(topo, cfg);
        if self.audit {
            net.enable_audit(self.audit_every);
        }
        if let Some(every) = self.telemetry {
            let mut tc = TelemetryConfig::every(every);
            tc.deterministic_wall = self.telemetry_det;
            net.enable_telemetry(tc);
        }
        if let Some(FlowSpec::Flows(flows)) = &self.trace {
            net.enable_trace(flows.iter().copied());
        }
        if self.profile {
            net.enable_profile();
        }
        if let Some(schedule) = &self.faults {
            net.install_faults(schedule.clone());
        }
        if self.shards > 1 {
            net.set_shards(topo, self.shards);
        }
        let (traffic, hotspots) = install(&mut net);
        if self.trace == Some(FlowSpec::Hotspots) {
            let hotspots = hotspots.expect("--trace-flows hotspots: this runner has no hotspots");
            for h in hotspots {
                net.enable_trace(
                    (0..topo.num_hcas as NodeId)
                        .filter(|&n| n != h)
                        .map(|n| (n, h)),
                );
            }
        }
        let (ckpt, resume) = match label {
            Some(label) => {
                let resume = self
                    .resume_from
                    .as_deref()
                    .and_then(|dir| checkpoint::load_for(dir, &net, &label));
                let save = self
                    .checkpoint_at
                    .map(|at| (at, self.checkpoint_dir.clone()));
                let resumed_at = resume.as_ref().map(|(at, _)| *at);
                (Checkpointer::new(save, resumed_at, label), resume)
            }
            None => {
                assert!(
                    self.checkpoint_at.is_none() && self.resume_from.is_none(),
                    "this runner cannot checkpoint or resume"
                );
                (Checkpointer::new(None, None, String::new()), None)
            }
        };
        Armed {
            net,
            traffic,
            ckpt,
            resume,
        }
    }

    /// The finish step. Writes the run's telemetry, trace and profile
    /// artifacts into `out` under one `runNNN_{hint}` label, then runs
    /// the end-of-run audit pass (an empty report when the oracle is
    /// off). Artifacts go first, so they survive a failing audit.
    /// Runners `raise()` the report; the fault drill reports it.
    #[must_use]
    pub fn finish(&self, net: &mut Network, hint: &str, hotspots: &[NodeId]) -> AuditReport {
        if net.telemetry_enabled() || net.tracer().is_some() || net.profile_enabled() {
            let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
            write_artifacts(&self.out, net, &format!("run{seq:03}_{hint}"), hotspots);
        }
        net.audit_checked()
    }
}

/// `telemetry_{label}.csv` (the sample table), `flight_{label}.json`
/// (flight-recorder window + current sample) and `figure_{label}.csv`
/// (the paper-figure layout) when telemetry is armed;
/// `trace_{label}.json` (Chrome trace-event / Perfetto) and
/// `trace_{label}.csv` (one row per record) when tracing is;
/// `profile_{label}.json` when profiling is.
fn write_artifacts(dir: &Path, net: &Network, label: &str, hotspots: &[NodeId]) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create artifact dir {}: {e}", dir.display()));
    let write = |name: String, body: String| {
        std::fs::write(dir.join(&name), body).unwrap_or_else(|e| panic!("write {name}: {e}"))
    };
    if let Some(tel) = net.telemetry() {
        write(format!("telemetry_{label}.csv"), tel.table().to_csv());
        let flight = net
            .flight_dump_json("end of run")
            .expect("telemetry is armed");
        write(format!("flight_{label}.json"), flight);
        let figure = crate::figures::FigureSeries::from_table(tel.table(), hotspots);
        write(format!("figure_{label}.csv"), figure.to_csv());
    }
    if let Some(tracer) = net.tracer() {
        let doc = chrome_trace_json(tracer.records());
        let doc = serde_json::to_string_pretty(&doc).expect("trace doc serialises");
        write(format!("trace_{label}.json"), doc);
        write(format!("trace_{label}.csv"), records_csv(tracer.records()));
    }
    if let Some(report) = net.profile_report() {
        let doc = serde_json::to_string_pretty(&report).expect("profile report serialises");
        write(format!("profile_{label}.json"), doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_net::{DestPattern, TrafficClass};
    use ibsim_topo::{single_switch, FatTreeSpec};

    fn vars(v: &[(&str, &str)]) -> Result<RunOptions, String> {
        RunOptions::from_vars(v.iter().copied())
    }

    #[test]
    fn kept_variables_parse_strictly() {
        let o = vars(&[
            ("IBSIM_AUDIT", "1"),
            ("IBSIM_AUDIT_EVERY", "20000"),
            ("IBSIM_SHARDS", " 4\n"),
            ("IBSIM_TELEMETRY_DET", "on"),
            ("IBSIM_AUDIT_REPORT", "audit.json"),
            ("IBSIM_FLIGHT_DUMP", "flight.json"),
            ("IBSIM_BLESS", "1"),
            ("PATH", "/bin"),
        ])
        .unwrap();
        assert!(o.audit && o.telemetry_det);
        assert_eq!((o.audit_every, o.shards), (20_000, 4));
        assert!(!vars(&[("IBSIM_AUDIT", "false")]).unwrap().audit);
        assert_eq!(vars(&[("IBSIM_SHARDS", "1")]).unwrap().shards, 1);
        assert!(!vars(&[("IBSIM_TELEMETRY_DET", "0")]).unwrap().telemetry_det);

        for (k, bad) in [
            ("IBSIM_AUDIT", "yes"),
            ("IBSIM_AUDIT", ""),
            ("IBSIM_AUDIT_EVERY", "abc"),
            ("IBSIM_AUDIT_EVERY", "0"),
            ("IBSIM_SHARDS", "four"),
            ("IBSIM_SHARDS", "0"),
            ("IBSIM_SHARDS", "-2"),
            ("IBSIM_SHARDS", "2.5"),
            ("IBSIM_SHARDS", ""),
            ("IBSIM_TELEMETRY_DET", "2"),
        ] {
            let err = vars(&[(k, bad)]).expect_err(bad);
            assert!(err.contains(&format!("{k}={bad:?}")), "{err}");
        }
    }

    #[test]
    fn unknown_and_retired_variables_are_rejected_by_name() {
        for k in ["IBSIM_TELEMETRY", "IBSIM_CKPT_DIRR"] {
            let err = vars(&[(k, "1")]).expect_err(k);
            assert!(err.contains(k) && err.contains("IBSIM_SHARDS"), "{err}");
        }
    }

    #[test]
    fn parse_flow_lists() {
        assert_eq!(parse_flows("0:3").unwrap(), FlowSpec::Flows(vec![(0, 3)]));
        assert_eq!(
            parse_flows("1:0, 2:0").unwrap(),
            FlowSpec::Flows(vec![(1, 0), (2, 0)])
        );
        assert_eq!(parse_flows("hotspots").unwrap(), FlowSpec::Hotspots);
        assert!(parse_flows("7").is_err());
        assert!(parse_flows("a:b").is_err());
    }

    fn arm(o: &RunOptions, topo: &Topology, cfg: NetConfig) -> Network {
        o.arm(topo, cfg, None, |_| ((), None)).net
    }

    #[test]
    fn backend_rewrites_cc_on_configs_only() {
        let topo = single_switch(4, 2);
        let o = RunOptions {
            backend: CcBackend::Dcqcn,
            ..RunOptions::default()
        };
        assert_eq!(
            arm(&o, &topo, NetConfig::paper()).cc_backend(),
            CcBackend::Dcqcn
        );
        let off = arm(&o, &topo, NetConfig::paper_no_cc());
        assert_eq!(off.cfg.cc_backend, CcBackend::IbCc);
        let ib = arm(&RunOptions::default(), &topo, NetConfig::paper_dcqcn());
        assert_eq!(ib.cc_backend(), CcBackend::IbCc);
    }

    #[test]
    fn defaults_run_serial_unobserved_ib_cc() {
        let o = RunOptions::default();
        assert_eq!(
            (o.backend, o.shards, o.audit_every),
            (CcBackend::IbCc, 1, 50_000)
        );
        assert!(!o.audit && !o.profile && !o.telemetry_det);
        assert!(o.telemetry.is_none() && o.trace.is_none() && o.faults.is_none());
        assert!(o.checkpoint_at.is_none() && o.resume_from.is_none());
        assert_eq!(o.out, PathBuf::from("results"));
        let none: [(&str, &str); 0] = [];
        let env = RunOptions::from_vars(none).unwrap();
        assert_eq!(format!("{env:?}"), format!("{o:?}"));
    }

    #[test]
    fn arm_installs_the_audit() {
        let topo = single_switch(4, 2);
        let o = RunOptions {
            audit: true,
            ..RunOptions::default()
        };
        assert!(arm(&o, &topo, NetConfig::paper()).audit_enabled());
        assert!(!arm(&RunOptions::default(), &topo, NetConfig::paper()).audit_enabled());
    }

    #[test]
    fn arm_installs_the_sharded_executor() {
        let topo = FatTreeSpec::TEST_8.build();
        let o = RunOptions {
            shards: 4,
            ..RunOptions::default()
        };
        assert!(arm(&o, &topo, NetConfig::paper()).shard_count() > 1);
        let serial = arm(&RunOptions::default(), &topo, NetConfig::paper());
        assert_eq!(serial.shard_count(), 1);
        // One leaf group: nothing to cut, the executor stays serial.
        let single = single_switch(4, 2);
        assert_eq!(arm(&o, &single, NetConfig::paper()).shard_count(), 1);
    }

    #[test]
    fn finish_writes_every_armed_layer_under_one_label() {
        let dir = std::env::temp_dir().join(format!("ibsim_opts_{}", std::process::id()));
        let o = RunOptions {
            telemetry: Some(TimeDelta::from_us(50)),
            trace: Some(FlowSpec::Flows(vec![(1, 0)])),
            profile: true,
            out: dir.clone(),
            ..RunOptions::default()
        };
        let topo = single_switch(8, 4);
        let mut net = arm(&o, &topo, NetConfig::paper());
        assert!(net.telemetry_enabled() && net.tracer().is_some() && net.profile_enabled());
        for n in 1..4 {
            net.set_classes(n, vec![TrafficClass::new(100, DestPattern::Fixed(0), 4096)]);
        }
        net.run_until(Time::from_us(300));
        assert!(o.finish(&mut net, "cc_on", &[0]).is_clean());

        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let label = names[0]
            .strip_prefix("figure_")
            .and_then(|n| n.strip_suffix(".csv"))
            .expect("figure CSV first")
            .to_string();
        assert!(
            label.starts_with("run") && label.ends_with("_cc_on"),
            "{label}"
        );
        let want: Vec<String> = [
            "figure_{}.csv",
            "flight_{}.json",
            "profile_{}.json",
            "telemetry_{}.csv",
            "trace_{}.csv",
            "trace_{}.json",
        ]
        .iter()
        .map(|f| f.replace("{}", &label))
        .collect();
        assert_eq!(names, want);
        let read = |f: &str| std::fs::read_to_string(dir.join(f.replace("{}", &label))).unwrap();
        let csv = read("telemetry_{}.csv");
        assert!(csv.starts_with("t_us,"), "sample CSV header");
        assert_eq!(csv.lines().count(), 1 + 7, "300µs / 50µs + 1 samples");
        assert!(read("flight_{}.json").contains("\"events\""));
        let figure = read("figure_{}.csv");
        assert!(figure.starts_with("t_us,"), "figure CSV header");
        assert!(figure.lines().count() > 1, "figure CSV has samples");
        assert!(read("trace_{}.json").contains("traceEvents"));
        let trace = read("trace_{}.csv");
        assert!(trace.starts_with("at_ps,src,dst,seq,cnp,point,vl,voq,credit,detail"));
        assert!(trace.lines().count() > 1, "traced flow produced records");
        let prof = read("profile_{}.json");
        assert!(prof.contains("queue_pop") && prof.contains("ns_per_event"));
        std::fs::remove_dir_all(&dir).ok();

        // Nothing armed: no artifacts, no directory.
        let o = RunOptions {
            out: dir.clone(),
            ..RunOptions::default()
        };
        let mut net = arm(&o, &topo, NetConfig::paper());
        assert!(!net.telemetry_enabled() && net.tracer().is_none() && !net.profile_enabled());
        assert!(o.finish(&mut net, "off", &[]).is_clean());
        assert!(!dir.exists());
    }

    #[test]
    #[should_panic(expected = "cannot checkpoint")]
    fn checkpointing_a_runner_without_a_label_panics() {
        let o = RunOptions {
            checkpoint_at: Some(Time::from_us(10)),
            ..RunOptions::default()
        };
        arm(&o, &single_switch(4, 2), NetConfig::paper());
    }

    #[test]
    #[should_panic(expected = "has no hotspots")]
    fn tracing_hotspots_of_a_runner_without_hotspots_panics() {
        let o = RunOptions {
            trace: Some(FlowSpec::Hotspots),
            ..RunOptions::default()
        };
        arm(&o, &single_switch(4, 2), NetConfig::paper());
    }
}

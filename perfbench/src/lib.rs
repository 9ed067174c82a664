//! Host-time benchmark of the paper's workloads, built only from the
//! public API: `FatTreeSpec::build`, `Network::new`,
//! `Network::set_shards`, `Scenario::install_opts` /
//! `WorkloadSpec::install`, `TraceFeeder::feed_until`, segmented
//! `Network::run_until` and `ibsim::parallel_map` across cells.
//!
//! Every call is timed from outside. An untraced iteration records
//! only the set-up total and the wall time; a traced iteration records
//! one [`Span`] per call and turns on the engine self-profiler, from
//! which the per-layer metrics are derived. Both run the same
//! segmented call sequence, so their simulated results (and therefore
//! their [`Iteration::digest`]) must be identical.

use ibsim::{RunDurations, ScenarioResult, WorkloadResult};
use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{NetConfig, Network, ProfileReport, PAPER_MSG_BYTES};
use ibsim_topo::{FatTreeSpec, Topology};
use ibsim_traffic::flowtrace::{synthesize_to, TraceGenSpec};
use ibsim_traffic::{RoleSpec, Scenario, WorkloadKind, WorkloadSpec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One metric the benchmark reports, as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("cpu_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("topo.build_s", "s", "lower"),
    m("net.new_s", "s", "lower"),
    m("traffic.install_s", "s", "lower"),
    m("shard.partition_s", "s", "lower"),
    m("engine.events", "count", "lower"),
    m("engine.pop_batches", "count", "lower"),
    m("engine.queue_pop_ns_per_event", "ns", "lower"),
    m("engine.events_per_s", "1/s", "higher"),
    m("net.routing.events", "count", "lower"),
    m("net.routing.ns_per_event", "ns", "lower"),
    m("net.arbitration.events", "count", "lower"),
    m("net.arbitration.ns_per_event", "ns", "lower"),
    m("net.inject.events", "count", "lower"),
    m("net.inject.ns_per_event", "ns", "lower"),
    m("net.sink.events", "count", "lower"),
    m("net.sink.ns_per_event", "ns", "lower"),
    m("net.packets_injected", "count", "higher"),
    m("net.packets_delivered", "count", "higher"),
    m("net.events_per_delivered_packet", "ratio", "lower"),
    m("cc.events", "count", "lower"),
    m("cc.ns_per_event", "ns", "lower"),
    m("cc.fecn_marks", "count", "lower"),
    m("cc.becns", "count", "lower"),
    m("shard.barrier.calls", "count", "lower"),
    m("shard.barrier_share", "ratio", "lower"),
    m("shard.slowdown_vs_serial", "ratio", "lower"),
    m("sweep.critical_cell_s", "s", "lower"),
    m("sweep.idle_worker_s", "s", "lower"),
    m("traffic.feed_s", "s", "lower"),
    m("traffic.records_fed", "count", "higher"),
    m("traffic.synth_s", "s", "lower"),
    m("trace.overhead", "ratio", "lower"),
];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["silent-648", "windy-648-sharded", "trace-648"];

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The four Table II cells (no hotspots / 8 hotspots × CC off/on),
    /// fanned out with `parallel_map`, as the `table2` bin runs them.
    Silent,
    /// One windy-forest cell, CC on, x = 100 % B nodes at p = 50 %,
    /// under the sharded executor.
    Windy,
    /// Replay of a synthesized uniform trace until the fabric drains.
    Trace,
}

/// A workload's fabric, windows and parallelism.
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: Kind,
    pub fabric: FatTreeSpec,
    pub hotspots: usize,
    pub dur: RunDurations,
    /// `run_until` is called on this simulated-time grid (scenario
    /// cells; trace replay uses `ibsim::workload::SEGMENT`).
    pub grid: TimeDelta,
    /// Trace replay: records synthesized.
    pub trace_flows: u64,
    /// Shards per cell (`set_shards`).
    pub shards: usize,
    /// `parallel_map` workers across cells.
    pub workers: usize,
}

/// Trace replay: flow size and offered load (percent of injection rate).
const TRACE_BYTES: u32 = 4096;
const TRACE_LOAD_PCT: u32 = 60;

impl Plan {
    /// The benchmark's paper-scale plan for `name`, with `nproc`
    /// workers available.
    pub fn paper(name: &str, nproc: usize) -> Option<Plan> {
        let base = Plan {
            kind: Kind::Silent,
            fabric: FatTreeSpec::PAPER_648,
            hotspots: 8,
            dur: RunDurations::new_ms(20, 2),
            grid: TimeDelta::from_ms(1),
            trace_flows: 0,
            shards: 1,
            workers: 1,
        };
        Some(match name {
            "silent-648" => Plan {
                workers: nproc,
                ..base
            },
            "windy-648-sharded" => Plan {
                kind: Kind::Windy,
                shards: 2,
                ..base
            },
            "trace-648" => Plan {
                kind: Kind::Trace,
                dur: RunDurations {
                    warmup: TimeDelta::from_us(500),
                    measure: TimeDelta::from_ms(2),
                },
                trace_flows: 400_000,
                ..base
            },
            _ => return None,
        })
    }

    /// The same workload scaled to the 8-node test fat tree.
    pub fn fat8(kind: Kind) -> Plan {
        Plan {
            kind,
            fabric: FatTreeSpec::TEST_8,
            hotspots: 1,
            dur: RunDurations::new_ms(1, 2),
            grid: TimeDelta::from_us(500),
            trace_flows: if kind == Kind::Trace { 4_000 } else { 0 },
            shards: if kind == Kind::Windy { 2 } else { 1 },
            workers: if kind == Kind::Silent { 2 } else { 1 },
        }
    }

    /// Input for trace replay, drawn from `seed`.
    fn trace_spec(&self, seed: u64) -> TraceGenSpec {
        let nodes = self.fabric.num_hosts() as u32;
        let inj = NetConfig::paper().inj_rate.as_gbps_f64();
        TraceGenSpec {
            seed,
            ..TraceGenSpec::uniform_load(nodes, self.trace_flows, TRACE_BYTES, inj, TRACE_LOAD_PCT)
        }
    }

    /// The cells of one iteration, in report order.
    pub fn cells(&self, seed: u64) -> Vec<CellSpec> {
        let cfg = NetConfig::paper().with_seed(seed);
        let off = |c: &NetConfig| NetConfig {
            cc: None,
            ..c.clone()
        };
        let roles = |b_pct, b_p| RoleSpec {
            num_nodes: self.fabric.num_hosts(),
            num_hotspots: self.hotspots,
            b_pct,
            b_p,
            c_pct_of_rest: 80,
        };
        let scenario = |label: &'static str, cfg: NetConfig, roles, active| CellSpec {
            label,
            cfg,
            traffic: Traffic::Scenario { roles, active },
        };
        match self.kind {
            Kind::Silent => vec![
                scenario("no_hotspots_cc_off", off(&cfg), roles(0, 0), false),
                scenario("no_hotspots_cc_on", cfg.clone(), roles(0, 0), false),
                scenario("hotspots_cc_off", off(&cfg), roles(0, 0), true),
                scenario("hotspots_cc_on", cfg, roles(0, 0), true),
            ],
            Kind::Windy => vec![scenario("windy_x100_p50_cc_on", cfg, roles(100, 50), true)],
            Kind::Trace => vec![CellSpec {
                label: "trace_replay_cc_on",
                cfg,
                traffic: Traffic::Trace,
            }],
        }
    }
}

/// The traffic one cell installs.
#[derive(Clone, Debug)]
pub enum Traffic {
    Scenario { roles: RoleSpec, active: bool },
    Trace,
}

#[derive(Clone, Debug)]
pub struct CellSpec {
    pub label: &'static str,
    pub cfg: NetConfig,
    pub traffic: Traffic,
}

/// A cell's simulated result: exactly what `run_scenario_opts` or
/// `run_workload` return for the same inputs.
#[derive(Clone, Debug)]
pub enum CellResult {
    Scenario(ScenarioResult),
    Workload(WorkloadResult),
}

impl CellResult {
    fn to_value(&self) -> Value {
        match self {
            CellResult::Scenario(r) => serde_json::to_value(r),
            CellResult::Workload(r) => serde_json::to_value(r),
        }
    }
}

/// Exact work counters of one cell (machine-independent).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub events: u64,
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub fecn_marks: u64,
    pub becns: u64,
    pub records_fed: u64,
    pub shard_count: usize,
}

/// One timed call: name, start and end (seconds since the iteration
/// began), and the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Times calls; keeps spans only when tracing.
struct Recorder {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    parent: Option<usize>,
}

impl Recorder {
    fn new(epoch: Instant, traced: bool) -> Self {
        Recorder {
            epoch,
            spans: traced.then(Vec::new),
            parent: None,
        }
    }

    /// Run `f` as one span; returns its result and duration (s).
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let start = (t0 - self.epoch).as_secs_f64();
        let saved = self.parent;
        let id = self.spans.as_mut().map(|s| {
            s.push(Span {
                name,
                start,
                end: start,
                parent: saved,
            });
            s.len() - 1
        });
        if id.is_some() {
            self.parent = id;
        }
        let r = f(self);
        self.parent = saved;
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(s), Some(i)) = (self.spans.as_mut(), id) {
            s[i].end = start + secs;
        }
        (r, secs)
    }

    /// Append another recorder's spans, its roots under `root`.
    fn adopt(&mut self, child: Vec<Span>, root: Option<usize>) {
        if let Some(s) = self.spans.as_mut() {
            let off = s.len();
            s.extend(child.into_iter().map(|sp| Span {
                parent: sp.parent.map(|p| p + off).or(root),
                ..sp
            }));
        }
    }
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub label: &'static str,
    /// `None` when the cell panicked; the failure is in `check`.
    pub result: Option<CellResult>,
    pub counters: Counters,
    pub profile: Option<ProfileReport>,
    /// Host seconds in set-up calls (`Network::new`, `set_shards`,
    /// traffic install).
    pub setup_s: f64,
    /// Host seconds for the whole cell.
    pub wall_s: f64,
    /// The cell's own correctness check.
    pub check: Result<(), String>,
    spans: Vec<Span>,
}

/// Inputs shared by every cell of one iteration.
struct Ctx<'a> {
    plan: &'a Plan,
    topo: &'a Topology,
    trace: Option<&'a Path>,
    epoch: Instant,
    traced: bool,
    shards: usize,
    setup_only: bool,
}

fn run_cell(ctx: &Ctx, cell: &CellSpec) -> CellRun {
    let mut rec = Recorder::new(ctx.epoch, ctx.traced);
    let mut setup_s = 0.0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rec.time("cell", |rec| {
            let (mut net, s) = rec.time("net.new", |_| Network::new(ctx.topo, cell.cfg.clone()));
            setup_s += s;
            if ctx.traced {
                net.enable_profile();
            }
            let ((), s) = rec.time("shard.partition", |_| net.set_shards(ctx.topo, ctx.shards));
            setup_s += s;
            match &cell.traffic {
                Traffic::Scenario { roles, active } => {
                    let (sc, s) = rec.time("traffic.install", |_| {
                        Scenario::install_opts(*roles, &mut net, PAPER_MSG_BYTES, *active)
                    });
                    setup_s += s;
                    if ctx.setup_only {
                        return None;
                    }
                    Some(run_scenario_cell(ctx, rec, &mut net, &sc, cell))
                }
                Traffic::Trace => {
                    let path = ctx.trace.expect("trace workloads synthesize a trace first");
                    let spec = WorkloadSpec {
                        kind: WorkloadKind::TraceReplay {
                            path: path.to_string_lossy().into_owned(),
                        },
                    };
                    let (wl, s) = rec.time("traffic.install", |_| spec.install(&mut net));
                    setup_s += s;
                    let wl = wl.unwrap_or_else(|e| panic!("trace install: {e}"));
                    if ctx.setup_only {
                        return None;
                    }
                    Some(run_trace_cell(ctx, rec, &mut net, wl))
                }
            }
        })
    }));
    let (out, wall_s, check) = match outcome {
        Ok((Some((r, c, p, check)), wall_s)) => (Some((r, c, p)), wall_s, check),
        Ok((None, wall_s)) => (None, wall_s, Ok(())),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".into());
            (None, 0.0, Err(format!("{}: panicked: {msg}", cell.label)))
        }
    };
    let (result, counters, profile) = match out {
        Some((r, c, p)) => (Some(r), c, p),
        None => (None, Counters::default(), None),
    };
    CellRun {
        label: cell.label,
        result,
        counters,
        profile,
        setup_s,
        wall_s,
        check,
        spans: rec.spans.take().unwrap_or_default(),
    }
}

type CellOut = (
    CellResult,
    Counters,
    Option<ProfileReport>,
    Result<(), String>,
);

fn counters(net: &Network, records_fed: u64) -> Counters {
    Counters {
        events: net.events_processed(),
        packets_injected: net.total_injected_packets(),
        packets_delivered: net.total_delivered_packets(),
        fecn_marks: net.total_fecn_marks(),
        becns: net.total_becns(),
        records_fed,
        shard_count: net.shard_count(),
    }
}

/// The `run_scenario_opts` sequence with `run_until` cut on the grid.
fn run_scenario_cell(
    ctx: &Ctx,
    rec: &mut Recorder,
    net: &mut Network,
    sc: &Scenario,
    cell: &CellSpec,
) -> CellOut {
    let warmup_end = Time::ZERO + ctx.plan.dur.warmup;
    let t_end = Time::ZERO + ctx.plan.dur.total();
    let mut t = Time::ZERO;
    while t < t_end {
        let mut next = (t + ctx.plan.grid).min(t_end);
        if t < warmup_end && warmup_end < next {
            next = warmup_end;
        }
        rec.time("net.run_until", |_| net.run_until(next));
        t = next;
        if t == warmup_end && !net.is_measuring() {
            net.start_measurement();
        }
    }
    net.stop_measurement();
    let (result, _) = rec.time("traffic.readout", |_| {
        let lat = net.latency_histogram();
        let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
        ScenarioResult {
            cc: net.cc_enabled(),
            hotspot_rx: sc.hotspot_avg_rx(net),
            non_hotspot_rx: sc.non_hotspot_avg_rx(net),
            all_rx: sc.all_avg_rx(net),
            total_rx: net.total_rx_gbps(),
            tmax: sc.tmax_gbps(cell.cfg.inj_rate),
            fecn_marks: net.total_fecn_marks(),
            becns: net.total_becns(),
            max_ccti: net.max_ccti(),
            latency_p50_us: to_us(lat.quantile(0.5)),
            latency_p99_us: to_us(lat.quantile(0.99)),
            fairness: sc.hotspot_fairness(net),
            sanctioned_becn_drops: net.sanctioned_becn_drops(),
            events: net.events_processed(),
        }
    });
    let c = counters(net, 0);
    let check = if c.shard_count != ctx.shards {
        Err(format!(
            "{}: asked for {} shards, the executor runs {}",
            cell.label, ctx.shards, c.shard_count
        ))
    } else if result.total_rx <= 0.0 {
        Err(format!("{}: nothing was delivered", cell.label))
    } else {
        Ok(())
    };
    (CellResult::Scenario(result), c, net.profile_report(), check)
}

/// The `run_workload` segment loop: feed one segment ahead, run to
/// the boundary, stop once the trace is fed and the fabric drained.
fn run_trace_cell(
    ctx: &Ctx,
    rec: &mut Recorder,
    net: &mut Network,
    mut wl: ibsim_traffic::Workload,
) -> CellOut {
    const SEGMENT: TimeDelta = ibsim::workload::SEGMENT;
    let dur = ctx.plan.dur;
    let warmup_end = Time::ZERO + dur.warmup;
    let t_end = Time::ZERO + dur.total();
    let drain_cap = t_end + TimeDelta(4 * dur.total().0);
    if warmup_end == Time::ZERO {
        net.start_measurement();
    }
    let mut s = Time::ZERO;
    let mut drained_at = None;
    while s < drain_cap {
        let next = (s + SEGMENT).min(drain_cap);
        if let Some(feeder) = wl.feeder.as_mut() {
            rec.time("traffic.feed", |_| feeder.feed_until(net, next + SEGMENT))
                .0
                .unwrap_or_else(|e| panic!("trace feed: {e}"));
        }
        for edge in [warmup_end, t_end] {
            if s < edge && edge <= next {
                rec.time("net.run_until", |_| net.run_until(edge));
                if edge == warmup_end && !net.is_measuring() {
                    net.start_measurement();
                } else if edge == t_end && net.is_measuring() {
                    net.stop_measurement();
                }
            }
        }
        rec.time("net.run_until", |_| net.run_until(next));
        s = next;
        let fed_done = wl.feeder.as_ref().is_none_or(|f| f.done());
        if drained_at.is_none() && fed_done && net.workload_drained() {
            drained_at = Some(s);
        }
        if s >= t_end && drained_at.is_some() {
            break;
        }
    }
    if net.is_measuring() {
        net.stop_measurement();
    }
    let records_fed = wl.feeder.as_ref().map_or(0, |f| f.records_fed());
    let (result, _) = rec.time("traffic.readout", |_| {
        let lat = net.latency_histogram();
        let to_us = |ps: Option<u64>| ps.map_or(0.0, |v| v as f64 / 1e6);
        WorkloadResult {
            workload: wl.spec.to_string(),
            cc: net.cc_enabled(),
            category_rx: wl.category_rates(net),
            total_rx: net.total_rx_gbps(),
            latency_p50_us: to_us(lat.quantile(0.5)),
            latency_p99_us: to_us(lat.quantile(0.99)),
            fecn_marks: net.total_fecn_marks(),
            becns: net.total_becns(),
            max_ccti: net.max_ccti(),
            drained: drained_at.is_some(),
            drained_at_us: drained_at.map_or(0.0, |t| t.as_us_f64()),
            offered_bytes: wl.offered_bytes,
            records_fed,
            events: net.events_processed(),
        }
    });
    let check = if !result.drained {
        Err("trace replay did not drain".to_string())
    } else if let Err(e) = net.check_credits_at_rest() {
        Err(format!("credits not at rest after drain: {e}"))
    } else if records_fed != ctx.plan.trace_flows {
        Err(format!(
            "fed {records_fed} records of {} synthesized",
            ctx.plan.trace_flows
        ))
    } else {
        Ok(())
    };
    (
        CellResult::Workload(result),
        counters(net, records_fed),
        net.profile_report(),
        check,
    )
}

/// One pass over a workload's cells.
#[derive(Clone, Debug)]
pub struct Iteration {
    pub cells: Vec<CellRun>,
    /// First call to results in hand, set-up included (s).
    pub wall_s: f64,
    /// Topology build plus every cell's set-up calls (s).
    pub setup_s: f64,
    /// Process CPU (user + system) over the iteration (s).
    pub cpu_s: f64,
    /// The sweep (`parallel_map`) alone (s).
    pub sweep_s: f64,
    /// Workers the sweep ran on.
    pub workers: usize,
    /// FNV-1a of every simulated statistic the cells returned.
    pub digest: u64,
    pub spans: Vec<Span>,
}

impl Iteration {
    pub fn failures(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter_map(|c| c.check.clone().err())
            .collect()
    }

    pub fn results(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref())
            .collect()
    }
}

/// How one iteration runs.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Record spans and turn on the engine profiler.
    pub traced: bool,
    /// Stop each cell after its set-up calls.
    pub setup_only: bool,
    /// Override the plan's shard count (the serial twin of a sharded
    /// cell).
    pub shards: Option<usize>,
}

impl Mode {
    pub const UNTRACED: Mode = Mode {
        traced: false,
        setup_only: false,
        shards: None,
    };
    pub const TRACED: Mode = Mode {
        traced: true,
        ..Mode::UNTRACED
    };
    pub const SETUP: Mode = Mode {
        setup_only: true,
        ..Mode::UNTRACED
    };
}

/// Run every cell of `plan` once. `trace` is the synthesized trace for
/// [`Kind::Trace`].
pub fn run_iteration(plan: &Plan, seed: u64, trace: Option<&Path>, mode: Mode) -> Iteration {
    let epoch = Instant::now();
    let cpu0 = process_cpu_s();
    let mut rec = Recorder::new(epoch, mode.traced);
    let cells = plan.cells(seed);
    let workers = plan.workers.min(cells.len()).max(1);
    let ((topo_s, runs, sweep_s), wall_s) = rec.time("iteration", |rec| {
        let (topo, topo_s) = rec.time("topo.build", |_| plan.fabric.build());
        let ctx = Ctx {
            plan,
            topo: &topo,
            trace,
            epoch,
            traced: mode.traced,
            shards: mode.shards.unwrap_or(plan.shards),
            setup_only: mode.setup_only,
        };
        let (mut runs, sweep_s) = rec.time("sweep", |_| {
            ibsim::parallel_map(&cells, workers, |c| run_cell(&ctx, c))
        });
        let sweep = rec.spans.as_ref().map(|s| s.len() - 1);
        for run in &mut runs {
            rec.adopt(std::mem::take(&mut run.spans), sweep);
        }
        (topo_s, runs, sweep_s)
    });
    let cpu_s = process_cpu_s() - cpu0;
    let setup_s = topo_s + runs.iter().map(|c| c.setup_s).sum::<f64>();
    let digest = fnv1a(
        serde_json::to_string(&Value::Array(
            runs.iter()
                .filter_map(|c| c.result.as_ref().map(CellResult::to_value))
                .collect(),
        ))
        .expect("results serialise")
        .as_bytes(),
    );
    let mut it = Iteration {
        cells: runs,
        wall_s,
        setup_s,
        cpu_s,
        sweep_s,
        workers,
        digest,
        spans: rec.spans.take().unwrap_or_default(),
    };
    if plan.kind == Kind::Silent && !mode.setup_only {
        check_cc_recovers_victims(&mut it);
    }
    it
}

/// The paper's central claim on Table II: with hotspots, enabling CC
/// raises the non-hotspot receive rate. Fails the CC-on hotspot cell
/// otherwise.
fn check_cc_recovers_victims(it: &mut Iteration) {
    let nonhs = |label: &str| {
        it.cells
            .iter()
            .find(|c| c.label == label)
            .and_then(|c| match &c.result {
                Some(CellResult::Scenario(r)) => Some(r.non_hotspot_rx),
                _ => None,
            })
    };
    if let (Some(off), Some(on)) = (nonhs("hotspots_cc_off"), nonhs("hotspots_cc_on")) {
        if on <= off {
            let cell = it
                .cells
                .iter_mut()
                .find(|c| c.label == "hotspots_cc_on")
                .expect("silent plans have a CC-on hotspot cell");
            if cell.check.is_ok() {
                cell.check = Err(format!(
                    "hotspots_cc_on: non-hotspot rate {on} Gbit/s does not exceed CC off's {off}"
                ));
            }
        }
    }
}

/// Synthesize the trace replay input for `seed` into `path`; returns
/// the host seconds it took.
pub fn synthesize_trace(plan: &Plan, seed: u64, path: &Path) -> f64 {
    let t0 = Instant::now();
    synthesize_to(&plan.trace_spec(seed), path).expect("write synthesized trace");
    t0.elapsed().as_secs_f64()
}

/// Per-layer metrics of one traced iteration `it`, with the untraced
/// iteration of the same round and, for a sharded workload, that
/// round's untraced serial twin. `synth_s` is the input generation time.
pub fn per_layer(
    it: &Iteration,
    untraced: &Iteration,
    serial: Option<&Iteration>,
    synth_s: f64,
) -> BTreeMap<&'static str, f64> {
    let span_s = |name: &str| -> f64 {
        it.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    };
    let profiles: Vec<&ProfileReport> =
        it.cells.iter().filter_map(|c| c.profile.as_ref()).collect();
    let bin = |name: &str| -> (u64, u64) {
        profiles
            .iter()
            .flat_map(|p| p.bins.iter())
            .filter(|b| b.subsystem == name)
            .fold((0, 0), |(c, n), b| (c + b.calls, n + b.ns))
    };
    let total_ns: u64 = profiles.iter().map(|p| p.total_ns).sum();
    let sum = |f: fn(&Counters) -> u64| -> f64 {
        it.cells.iter().map(|c| f(&c.counters)).sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_event = |name: &str| {
        let (calls, ns) = bin(name);
        ratio(ns as f64, calls as f64)
    };
    let events = sum(|c| c.events);
    let delivered = sum(|c| c.packets_delivered);
    let cell_wall: Vec<f64> = it.cells.iter().map(|c| c.wall_s).collect();
    let slowdown = match serial {
        Some(s) => ratio(untraced.sweep_s, s.sweep_s),
        None => 1.0,
    };
    let mut out = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        out.insert(k, v);
    };
    put("topo.build_s", span_s("topo.build"));
    put("net.new_s", span_s("net.new"));
    put("traffic.install_s", span_s("traffic.install"));
    put("shard.partition_s", span_s("shard.partition"));
    put("engine.events", events);
    put("engine.pop_batches", bin("queue_pop").0 as f64);
    put(
        "engine.queue_pop_ns_per_event",
        ratio(bin("queue_pop").1 as f64, events),
    );
    put(
        "engine.events_per_s",
        ratio(events, span_s("net.run_until")),
    );
    for (subsystem, events_k, ns_k) in [
        ("routing", "net.routing.events", "net.routing.ns_per_event"),
        (
            "arbitration",
            "net.arbitration.events",
            "net.arbitration.ns_per_event",
        ),
        ("inject", "net.inject.events", "net.inject.ns_per_event"),
        ("sink", "net.sink.events", "net.sink.ns_per_event"),
    ] {
        put(events_k, bin(subsystem).0 as f64);
        put(ns_k, per_event(subsystem));
    }
    put("net.packets_injected", sum(|c| c.packets_injected));
    put("net.packets_delivered", delivered);
    put("net.events_per_delivered_packet", ratio(events, delivered));
    put("cc.events", bin("cc").0 as f64);
    put("cc.ns_per_event", per_event("cc"));
    put("cc.fecn_marks", sum(|c| c.fecn_marks));
    put("cc.becns", sum(|c| c.becns));
    put("shard.barrier.calls", bin("barrier").0 as f64);
    put(
        "shard.barrier_share",
        ratio(bin("barrier").1 as f64, total_ns as f64),
    );
    put("shard.slowdown_vs_serial", slowdown);
    put(
        "sweep.critical_cell_s",
        cell_wall.iter().cloned().fold(0.0, f64::max),
    );
    put(
        "sweep.idle_worker_s",
        it.workers as f64 * it.sweep_s - cell_wall.iter().sum::<f64>(),
    );
    put(
        "traffic.feed_s",
        span_s("traffic.feed") + span_s("traffic.readout"),
    );
    put("traffic.records_fed", sum(|c| c.records_fed));
    put("traffic.synth_s", synth_s);
    put("trace.overhead", ratio(it.wall_s, untraced.wall_s));
    out
}

/// Spans as a JSON array (`name`, `start_s`, `end_s`, `parent`).
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_s".into(), Value::F64(s.start)),
                    ("end_s".into(), Value::F64(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Median of `xs` (the mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // Fields 14 and 15 of stat(5): utime and stime; `fields[0]` is field 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Where the benchmark keeps its generated trace and span dumps.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

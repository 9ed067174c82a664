//! Checkpoint file format for experiment runs, and the hook runners
//! capture through.
//!
//! With [`crate::RunOptions::checkpoint_at`] set, every run saves a
//! full-state checkpoint into `checkpoint_dir` when its simulated clock
//! first reaches that instant; with `resume_from` set, each run looks
//! for its own checkpoint there and fast-forwards the fabric to the
//! saved state. Runs with no matching file start from scratch, so a
//! multi-run binary (Table II's four cells, a CC pair) resumes exactly
//! the cells that were checkpointed.
//!
//! One file per run: the name encodes the topology digest (switch /
//! HCA / channel counts, VLs, seed, CC on/off) *and* a workload label
//! (role split, durations, hotspot lifetime, fault count), because a
//! single binary runs many scenarios over the same fabric and seed.
//! Resuming against a file whose header digest disagrees with the live
//! fabric fails loudly, naming the first mismatching field — the
//! format- and topology-validation layer lives in `ibsim-state`.

use ibsim_engine::time::{Time, TimeDelta};
use ibsim_net::{FaultSchedule, Network, NetworkState};
use ibsim_state::{CheckpointHeader, TopoDigest};
use ibsim_traffic::RoleSpec;
use serde::Deserialize;
use std::path::{Path, PathBuf};

use crate::experiment::RunDurations;

/// Splits each `run_until` segment at the pending checkpoint instant,
/// if one falls inside it: run to the capture instant, save, then
/// finish the segment. Capture therefore happens *before* boundary
/// actions at the same instant (starting measurement, moving hotspots,
/// feeding a trace), and the resume path re-executes those actions.
pub struct Checkpointer {
    /// Capture instant and directory, until the capture happens.
    save: Option<(Time, PathBuf)>,
    label: String,
}

impl Checkpointer {
    /// A hook saving at `save` (instant, directory) under `label`. A
    /// run resumed at or beyond the capture instant never re-saves it —
    /// the file it came from already holds that state.
    pub(crate) fn new(
        save: Option<(Time, PathBuf)>,
        resumed_at: Option<Time>,
        label: String,
    ) -> Self {
        let save = save.filter(|(at, _)| resumed_at.is_none_or(|r| *at > r));
        Checkpointer { save, label }
    }

    pub fn run_until(&mut self, net: &mut Network, to: Time) {
        if self.save.as_ref().is_some_and(|(at, _)| *at <= to) {
            let (at, dir) = self.save.take().expect("checked above");
            net.run_until(at);
            save(&dir, net, &self.label);
        }
        net.run_until(to);
    }
}

/// The live fabric's identity, embedded in every checkpoint header and
/// re-validated on resume.
pub fn digest(net: &Network) -> TopoDigest {
    TopoDigest {
        switches: net.switches.len() as u64,
        hcas: net.hcas.len() as u64,
        channels: net.channels.len() as u64,
        n_vls: net.cfg.n_vls as u64,
        seed: net.cfg.seed,
        cc: net.cc_enabled(),
        backend: net.cc_backend().name().to_string(),
    }
}

/// The workload half of a run's checkpoint file name: everything that
/// distinguishes two runs sharing a fabric and seed.
pub(crate) fn run_label(
    roles: &RoleSpec,
    dur: &RunDurations,
    hotspot_lifetime: Option<TimeDelta>,
    contributors_active: bool,
    faults: Option<&FaultSchedule>,
) -> String {
    format!(
        "r{}-{}-{}-{}-{}_w{}m{}_l{}_a{}_f{}",
        roles.num_nodes,
        roles.num_hotspots,
        roles.b_pct,
        roles.b_p,
        roles.c_pct_of_rest,
        dur.warmup.as_ps(),
        dur.measure.as_ps(),
        hotspot_lifetime.map_or(0, |l| l.as_ps()),
        contributors_active as u8,
        faults.map_or(0, |f| f.faults().len()),
    )
}

/// The checkpoint label of a production-workload run: the canonical
/// `--workload` string (sanitized for file names) plus the durations,
/// and the fault count as in [`run_label`] when a schedule is installed
/// (fault-free runs keep the name they had before workloads took one).
pub(crate) fn workload_label(
    spec: &ibsim_traffic::WorkloadSpec,
    dur: &RunDurations,
    faults: Option<&FaultSchedule>,
) -> String {
    let s: String = spec
        .to_string()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let f = faults.map_or(String::new(), |f| format!("_f{}", f.faults().len()));
    format!(
        "wl-{}_w{}m{}{f}",
        s,
        dur.warmup.as_ps(),
        dur.measure.as_ps()
    )
}

/// Deterministic checkpoint file name for one run. The backend tag is
/// only spliced in for non-default backends, so every ibcc checkpoint
/// keeps its pre-backend-refactor name.
pub fn file_name(d: &TopoDigest, label: &str) -> String {
    let backend = if d.backend == ibsim_state::BACKEND_IBCC {
        String::new()
    } else {
        format!("_{}", d.backend)
    };
    format!(
        "ckpt_s{}h{}c{}v{}_seed{:x}_cc{}{}_{}.json",
        d.switches, d.hcas, d.channels, d.n_vls, d.seed, d.cc as u8, backend, label
    )
}

/// Save a checkpoint of `net` into `out`, returning the path.
/// Panics on I/O failure: a silently missing checkpoint would turn a
/// later resume into a silent from-scratch rerun.
pub(crate) fn save(out: &Path, net: &Network, label: &str) -> PathBuf {
    let d = digest(net);
    std::fs::create_dir_all(out)
        .unwrap_or_else(|e| panic!("checkpoint: cannot create {}: {e}", out.display()));
    let path = out.join(file_name(&d, label));
    let header = CheckpointHeader::new(net.now().as_ps(), net.events_processed(), d);
    ibsim_state::save(&path, &header, &net.checkpoint())
        .unwrap_or_else(|e| panic!("checkpoint: {e}"));
    eprintln!(
        "checkpoint: saved {} at t={:.1} us ({} events)",
        path.display(),
        net.now().as_us_f64(),
        net.events_processed()
    );
    path
}

/// Look for this run's checkpoint in `from`. Returns the saved clock
/// and decoded state, or `None` when no matching file exists. A file
/// that exists but fails format, topology or payload validation panics
/// with the structured `ibsim-state` error — resuming from the wrong
/// checkpoint must never degrade into a silent cold start.
pub(crate) fn load_for(from: &Path, net: &Network, label: &str) -> Option<(Time, NetworkState)> {
    let d = digest(net);
    let path = from.join(file_name(&d, label));
    if !path.exists() {
        return None;
    }
    let (header, state) =
        ibsim_state::load(&path).unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
    header
        .validate_topo(&d)
        .unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
    let state = NetworkState::from_value(&state)
        .unwrap_or_else(|e| panic!("resume {}: corrupt state: {e}", path.display()));
    eprintln!(
        "checkpoint: resuming {} from t={:.1} us ({} events)",
        path.display(),
        Time(header.at_ps).as_us_f64(),
        header.events_processed
    );
    Some((Time(header.at_ps), state))
}

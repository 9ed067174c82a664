//! Declarative scenario specifications: run any hotspot scenario from a
//! JSON file, no recompilation — the role the OMNeT++ `.ini` files play
//! for the paper's simulator.

use ibsim::prelude::*;
use serde::{Deserialize, Serialize};

/// Which topology to build.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum TopoSpec {
    /// Two-level folded Clos (the paper's family).
    FatTree(FatTreeSpec),
    /// Three-level folded Clos.
    FatTree3(FatTree3Spec),
    /// 2-D mesh or torus.
    Torus(TorusSpec),
    /// One crossbar.
    SingleSwitch { ports: usize, hosts: usize },
}

impl TopoSpec {
    pub fn build(&self) -> Topology {
        match *self {
            TopoSpec::FatTree(s) => s.build(),
            TopoSpec::FatTree3(s) => s.build(),
            TopoSpec::Torus(s) => s.build(),
            TopoSpec::SingleSwitch { ports, hosts } => single_switch(ports, hosts),
        }
    }
}

/// A complete scenario: topology, placement, durations and the network
/// configuration. `roles.num_nodes` may be 0 (= filled from topology).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimSpec {
    pub topology: TopoSpec,
    pub roles: RoleSpec,
    #[serde(default = "default_warmup_ms")]
    pub warmup_ms: u64,
    #[serde(default = "default_measure_ms")]
    pub measure_ms: u64,
    /// Hotspot lifetime in microseconds; None keeps hotspots fixed.
    #[serde(default)]
    pub hotspot_lifetime_us: Option<u64>,
    /// Full network configuration (defaults to the paper's, CC on).
    #[serde(default = "NetConfig::paper")]
    pub net: NetConfig,
    /// Also run the identical scenario with CC disabled and report both.
    #[serde(default)]
    pub compare_cc_off: bool,
    /// A production-shaped workload to run *instead of* the hotspot
    /// scenario (`roles` is then ignored). Same shapes as the
    /// `--workload` flag: incast, event builder, collectives, trace
    /// replay.
    #[serde(default)]
    pub workload: Option<ibsim_traffic::WorkloadSpec>,
}

fn default_warmup_ms() -> u64 {
    2
}
fn default_measure_ms() -> u64 {
    4
}

impl SimSpec {
    pub fn from_json(s: &str) -> Result<SimSpec, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Resolve, validate, and run. Returns the CC-configured result and,
    /// when `compare_cc_off`, the CC-off twin. Specs carrying a
    /// `workload` belong to [`run_workload`](Self::run_workload).
    pub fn run(
        &self,
        opts: &RunOptions,
    ) -> Result<(ScenarioResult, Option<ScenarioResult>), String> {
        if self.workload.is_some() {
            return Err("spec carries a workload; use run_workload()".into());
        }
        let topo = self.topology.build();
        topo.validate()?;
        let mut roles = self.roles;
        if roles.num_nodes == 0 {
            roles.num_nodes = topo.num_hcas;
        }
        if roles.num_nodes != topo.num_hcas {
            return Err(format!(
                "roles.num_nodes {} != topology nodes {}",
                roles.num_nodes, topo.num_hcas
            ));
        }
        self.net.validate()?;
        let dur = RunDurations::new_ms(self.warmup_ms, self.measure_ms);
        let life = self.hotspot_lifetime_us.map(TimeDelta::from_us);
        let main = run_scenario_with(opts, &topo, self.net.clone(), roles, dur, life, true);
        let off = if self.compare_cc_off {
            let mut cfg = self.net.clone();
            cfg.cc = None;
            Some(run_scenario_with(opts, &topo, cfg, roles, dur, life, true))
        } else {
            None
        };
        Ok((main, off))
    }

    /// Run the spec's production workload (and, when `compare_cc_off`,
    /// its CC-off twin) on the declared topology.
    pub fn run_workload(
        &self,
        opts: &RunOptions,
    ) -> Result<(WorkloadResult, Option<WorkloadResult>), String> {
        let Some(wl) = &self.workload else {
            return Err("spec has no workload; use run()".into());
        };
        let topo = self.topology.build();
        topo.validate()?;
        self.net.validate()?;
        let dur = RunDurations::new_ms(self.warmup_ms, self.measure_ms);
        let main = run_workload_with(opts, &topo, self.net.clone(), wl, dur);
        let off = if self.compare_cc_off {
            let mut cfg = self.net.clone();
            cfg.cc = None;
            Some(run_workload_with(opts, &topo, cfg, wl, dur))
        } else {
            None
        };
        Ok((main, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "topology": { "FatTree": { "radix": 4, "leafs": 4 } },
        "roles": { "num_nodes": 0, "num_hotspots": 1,
                   "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 },
        "warmup_ms": 1, "measure_ms": 1
    }"#;

    #[test]
    fn minimal_spec_parses_and_runs() {
        let spec = SimSpec::from_json(MINIMAL).unwrap();
        let (r, off) = spec.run(&RunOptions::from_env().unwrap()).unwrap();
        assert!(r.cc);
        assert!(off.is_none());
        assert!(r.hotspot_rx > 5.0, "{r:?}");
    }

    #[test]
    fn cc_off_twin() {
        let mut spec = SimSpec::from_json(MINIMAL).unwrap();
        spec.compare_cc_off = true;
        let (_, off) = spec.run(&RunOptions::from_env().unwrap()).unwrap();
        assert!(!off.unwrap().cc);
    }

    #[test]
    fn net_overrides_apply() {
        let json = r#"{
            "topology": { "SingleSwitch": { "ports": 4, "hosts": 3 } },
            "roles": { "num_nodes": 0, "num_hotspots": 1,
                       "b_pct": 0, "b_p": 0, "c_pct_of_rest": 100 },
            "warmup_ms": 1, "measure_ms": 1,
            "net": { "mtu": 1024, "seed": 7 }
        }"#;
        let spec = SimSpec::from_json(json).unwrap();
        assert_eq!(spec.net.mtu, 1024);
        assert_eq!(spec.net.seed, 7);
        // Unspecified fields fall back to the paper defaults.
        assert_eq!(spec.net.link_bw.as_gbps_f64(), 20.0);
        spec.run(&RunOptions::from_env().unwrap()).unwrap();
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let json = r#"{
            "topology": { "SingleSwitch": { "ports": 4, "hosts": 3 } },
            "roles": { "num_nodes": 99, "num_hotspots": 1,
                       "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 }
        }"#;
        let spec = SimSpec::from_json(json).unwrap();
        assert!(spec
            .run(&RunOptions::from_env().unwrap())
            .unwrap_err()
            .contains("num_nodes"));
    }

    #[test]
    fn torus_and_fattree3_specs_run() {
        for topo in [
            r#"{ "Torus": { "xdim": 3, "ydim": 3, "hosts_per_switch": 1, "wrap": true } }"#,
            r#"{ "FatTree3": { "hosts_per_leaf": 2, "leaf_up": 2, "mid_up": 2,
                               "leafs_per_pod": 2, "pods": 2 } }"#,
        ] {
            let json = format!(
                r#"{{ "topology": {topo},
                     "roles": {{ "num_nodes": 0, "num_hotspots": 1,
                                "b_pct": 0, "b_p": 0, "c_pct_of_rest": 80 }},
                     "warmup_ms": 1, "measure_ms": 1 }}"#
            );
            let spec = SimSpec::from_json(&json).unwrap();
            spec.run(&RunOptions::from_env().unwrap()).unwrap();
        }
    }
}

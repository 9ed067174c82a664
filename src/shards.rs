//! Process-wide toggle for the sharded parallel executor.
//!
//! The executor itself lives in `ibsim_net` (`Network::set_shards`);
//! this module decides *how many* shards a run uses, so that every
//! experiment binary and library entry point agrees on one switch:
//!
//! * `--shards N` on any experiment binary calls [`force`]`(N)`;
//! * the `IBSIM_SHARDS` environment variable sets the count for
//!   processes that never parse flags — the CI parallel leg sets it for
//!   the whole test suite.
//!
//! [`arm`] applies the decision to a freshly-built [`Network`]; the
//! experiment runners call it after faults are installed (the executor
//! inspects the schedule) and before the first event is dispatched.
//! Sharding never changes results — checkpoints, goldens and CSVs are
//! byte-identical to the serial engine for every count — so the switch
//! is purely about wall-clock time.

use ibsim_net::Network;
use ibsim_topo::Topology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// 0 = follow the environment, otherwise the forced shard count
/// (1 = forced serial).
static FORCE: AtomicUsize = AtomicUsize::new(0);

/// Override the environment (last call wins; `--shards` uses this).
pub fn force(n: usize) {
    FORCE.store(n.max(1), Ordering::Relaxed);
}

/// The shard count runs use: forced value if set, else `IBSIM_SHARDS`,
/// else 1 (serial). Panics, naming the value, when `IBSIM_SHARDS` is
/// set to anything but a positive integer — a typo must not silently
/// run serial.
pub fn count() -> usize {
    match FORCE.load(Ordering::Relaxed) {
        0 => {
            static ENV: OnceLock<usize> = OnceLock::new();
            *ENV.get_or_init(|| match std::env::var("IBSIM_SHARDS") {
                Ok(v) => parse_count(&v).unwrap_or_else(|e| panic!("{e}")),
                Err(std::env::VarError::NotPresent) => 1,
                Err(std::env::VarError::NotUnicode(v)) => {
                    panic!("IBSIM_SHARDS={v:?}: expected a positive shard count")
                }
            })
        }
        n => n,
    }
}

/// Parse an `IBSIM_SHARDS` value: a positive integer (surrounding
/// whitespace allowed). The error names the offending value.
fn parse_count(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "IBSIM_SHARDS={v:?}: expected a positive shard count"
        )),
    }
}

/// Install the sharded executor on `net` when the count is above one.
/// Call after faults are installed and before the first event is
/// dispatched. Fabrics or schedules the executor cannot split (single
/// leaf group, BECN-loss faults) silently stay serial.
pub fn arm(net: &mut Network, topo: &Topology) {
    let n = count();
    if n > 1 {
        net.set_shards(topo, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_net::NetConfig;
    use ibsim_topo::FatTreeSpec;

    #[test]
    fn parse_count_accepts_positive_integers_only() {
        assert_eq!(parse_count("4"), Ok(4));
        assert_eq!(parse_count(" 2\n"), Ok(2));
        assert_eq!(parse_count("1"), Ok(1));
        for bad in ["four", "0", "-2", "", "2.5"] {
            let err = parse_count(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err} names {bad:?}");
        }
    }

    // One test owns the global toggle: interleaving force() calls from
    // parallel tests would race.
    #[test]
    fn force_wins_and_arms_networks() {
        force(4);
        assert_eq!(count(), 4);
        let topo = FatTreeSpec::TEST_8.build();
        let mut net = Network::new(&topo, NetConfig::paper());
        arm(&mut net, &topo);
        assert!(net.shard_count() > 1);

        // One leaf group: nothing to cut, the arm is a silent no-op.
        let single = ibsim_topo::single_switch(4, 2);
        let mut net = Network::new(&single, NetConfig::paper());
        arm(&mut net, &single);
        assert_eq!(net.shard_count(), 1);

        force(1);
        assert_eq!(count(), 1);
        let mut net = Network::new(&topo, NetConfig::paper());
        arm(&mut net, &topo);
        assert_eq!(net.shard_count(), 1);
    }
}

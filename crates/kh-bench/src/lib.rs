//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's figures as tables,
//! scatter plots, and CSV; the Criterion benches in `benches/` measure
//! the same configurations under the statistical harness. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison each target feeds.

pub mod harness;
pub mod legacy;

use kh_core::config::StackKind;
use kh_core::machine::{Machine, RunReport};
use kh_core::MachineConfig;
use kh_workloads::Workload;

/// Run one workload under a stack on the Pine A64 profile.
pub fn run_once(stack: StackKind, seed: u64, w: &mut dyn Workload) -> RunReport {
    let cfg = MachineConfig::pine_a64(stack, seed);
    Machine::new(cfg).run(w)
}

/// Standard trial count used by the figure binaries (the paper used
/// repeated runs on the SBC; five trials keeps stdev meaningful and the
/// harness fast).
pub const TRIALS: u32 = 5;

/// Base seed for all figure regeneration, so published artifacts are
/// reproducible bit-for-bit.
pub const SEED: u64 = 0x5C21;

/// Log the experiment-pool width once at startup. Figure regeneration is
/// parallel by default (`KH_JOBS` or `khsim --jobs` override the width);
/// results are bit-identical for any worker count, so this is purely
/// informational.
pub fn announce_pool(what: &str) {
    eprintln!(
        "{what}: experiment pool with {} worker(s)",
        kh_core::pool::jobs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_sim::Nanos;
    use kh_workloads::selfish::{SelfishConfig, SelfishDetour};

    #[test]
    fn run_once_produces_a_report() {
        let mut w = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(100),
            ..Default::default()
        });
        let r = run_once(StackKind::HafniumKitten, SEED, &mut w);
        assert_eq!(r.workload, "selfish-detour");
        assert!(r.elapsed >= Nanos::from_millis(100));
    }
}

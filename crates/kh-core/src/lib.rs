//! Integration layer: the full-stack node simulation and the experiment
//! harness.
//!
//! This crate wires the substrates together into the three system
//! configurations the paper evaluates:
//!
//! | Config | Scheduler | Isolation | Translation |
//! |--------|-----------|-----------|-------------|
//! | [`StackKind::NativeKitten`] | Kitten, bare metal | none | stage-1 |
//! | [`StackKind::HafniumKitten`] | Kitten primary VM | Hafnium stage-2 | two-stage |
//! | [`StackKind::HafniumLinux`] | Linux primary VM | Hafnium stage-2 | two-stage |
//!
//! [`machine::Machine`] is the discrete-event executor: it boots the SPM
//! (for virtualized configs), places the benchmark in a secondary VM,
//! and advances virtual time phase by phase, injecting host ticks, guest
//! ticks, and background noise with their full architectural costs (trap
//! round trips, VM context switches, cache/TLB pollution). The loop that
//! interleaves that noise into a phase is [`noise`], shared with
//! [`parallel::ParallelMachine`] and the cluster nodes.
//!
//! [`experiment`] runs repeated trials and aggregates statistics;
//! [`figures`] regenerates every figure and table of the paper's
//! evaluation section, plus the ablations from its future-work list.

pub mod config;
pub mod experiment;
pub mod figures;
pub mod machine;
pub mod noise;
pub mod parallel;
pub mod pool;
pub mod victim;

pub use config::{MachineConfig, StackKind, StackOptions};
pub use experiment::{run_trials, run_trials_pooled, TrialStats};
pub use machine::{Machine, RunReport};
pub use parallel::{BarrierMode, ParallelMachine, ParallelReport};
pub use pool::Pool;
pub use victim::{VictimReport, VictimVm, VICTIM_VM};

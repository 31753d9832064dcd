//! kh-cluster — deterministic multi-machine simulation.
//!
//! Scales the single-machine executor (`kh_core::machine`) out to a
//! cluster: N full machine stacks — each its own Hafnium SPM with a
//! Kitten or Linux primary and a service secondary — joined by a
//! switched network fabric under **one shared event queue and one
//! virtual clock**.
//!
//! The layering:
//!
//! - [`attest`] — cluster-wide remote attestation: a deterministic
//!   full-mesh challenge/response handshake over boot-chain
//!   measurements, run before any traffic, quarantining nodes whose
//!   evidence fails the boot-time key registry;
//! - [`node`] — one booted stack per node, with a lazily-advanced OS
//!   noise cursor that keeps per-node randomness out of the shared
//!   queue (the determinism invariant) and noise schedules independent
//!   of traffic (the isolation invariant);
//! - [`fabric`] — the switch: per-destination bounded egress queues
//!   over the same `LinkProfile` the guest NICs use, with
//!   `kh_sim::FabricFaultPlan` hooks for loss, corruption, reorder,
//!   jitter, and partitions;
//! - [`cluster`] — topology, the config, the [`run`] entry point, and
//!   [`ClusterReport`] (latency histogram, per-request CSV trace with
//!   terminal outcomes, per-node noise);
//! - [`scenario`] — the one event loop every run goes through. svcload
//!   is its depth-0 case; `kh_scenario` specs add arbitrary-depth
//!   fan-out trees with wait-for-all or quorum-k joins at every
//!   coordinator, and open-loop arrivals or closed-loop sessions with
//!   think time. Every leg runs the end-to-end reliability layer
//!   (deadlines, seeded-backoff retries, hedging, admission control,
//!   crash recovery — plus the *adaptive* layer: live-quantile hedge
//!   delays, token-bucket retry budgets, per-(tier, destination)
//!   circuit breakers, CoDel queue-delay admission, and server-side
//!   duplicate absorption); HPC noisy neighbors can be colocated on
//!   designated nodes;
//! - [`figures`] — the Kitten-vs-Linux server ablation under identical
//!   offered load, plus the reliability fault-matrix sweep, the
//!   metastability load×drop grid (static vs adaptive), the scenario
//!   fan-out/colocation figures, and the scenario-reliability
//!   stack×fault×depth×policy grid.
//!
//! Everything is a pure function of `(config, seed)`: same seed, same
//! bytes out — across worker counts, and with fault injection armed.

pub mod attest;
pub mod cluster;
pub mod fabric;
pub mod figures;
pub mod node;
pub mod scenario;

pub use attest::{handshake, AttestationReport, PairVerdict};
pub use cluster::{
    run, ClusterConfig, ClusterReport, NodeReport, RecoveryRecord, ReliabilityStats, RequestRecord,
    DEFAULT_ADMISSION_LIMIT,
};
pub use fabric::{Delivery, Fabric, FabricStats, PortStats, DEFAULT_QUEUE_DEPTH};
pub use figures::{
    ablation_cluster, colocation_compare, fanout_amplification, fanout_sweep, metastability_sweep,
    reliability_matrix, reliability_scenarios, render_cluster, render_colocation, render_fanout,
    render_metastability, render_reliability, render_scenario_reliability, scenario_for_depth,
    scenario_reliability, MetastabilityRow, ReliabilityPolicy, ScenarioReliabilityRow, ARMS,
};
pub use node::{AdmissionPolicy, Node, NodeStats, Role};
pub use scenario::ScenarioStats;

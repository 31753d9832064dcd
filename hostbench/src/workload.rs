//! The four benchmark workloads: what one timed pass runs, its
//! zero-traffic set-up twin, the checks every pass must pass, and the
//! simulated results read from its reports.
//!
//! Every input comes from the seed through the crates' own generators
//! (`ClusterConfig::seed`, `MachineConfig::seed`); the benchmark only
//! picks sizes. Simulated durations are scaled by `Spec::scale`: 1 for
//! timed passes, 1/10 for the warm-up, 1/50 under `--smoke`.

use crate::util::{nearest_rank, RankQuantile};
use kh_cluster::{run, scenario_for_depth, ClusterConfig, ClusterReport};
use kh_core::{Machine, MachineConfig, RunReport, StackKind};
use kh_sim::{FabricFaultSpec, Nanos};
use kh_workloads::adaptive::AdaptivePolicy;
use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
use std::time::{Duration, Instant};

// Window sizes keep each run of a pass near a third of a host second
// on one 2.1 GHz Xeon vCPU, so a 20-second run times 50 or more of them, and
// keep every pass's sample set large enough for an exact p99 with tens
// to hundreds of samples beyond it.

/// Simulated window of each `svcload` arm: ~48 k requests per arm at
/// 32 clients with 500 µs mean gaps.
const SVCLOAD_WINDOW: Nanos = Nanos::from_millis(750);
/// Simulated window of `deep-adaptive`: ~7 k client requests, each
/// fanning out into six legs. The ~48 k trace records stay well clear
/// of a power of two, so no seed doubles the records vector's capacity
/// and jumps peak memory.
const DEEP_WINDOW: Nanos = Nanos::from_millis(2_500);
/// Nodes of `fleet-attest`: the O(n²) attestation mesh alone takes
/// about a quarter of a host second at this size.
const FLEET_NODES: usize = 256;
/// Simulated window of `fleet-attest`: ~19 k requests over 128 clients,
/// light enough that bring-up dominates.
const FLEET_WINDOW: Nanos = Nanos::from_secs(3);
/// Simulated run of selfish-detour on each of the four stacks: ~2.1 k
/// detours, nine in ten from the Linux primary.
const SELFISH_WINDOW: Nanos = Nanos::from_secs(6);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop svcload, 64 nodes, three server arms in sequence.
    Svcload,
    /// Depth-3 quorum scenario under the adaptive layer on a lossy fabric.
    DeepAdaptive,
    /// 256 attested nodes under light traffic: bring-up dominates.
    FleetAttest,
    /// Single-machine selfish-detour on every stack: no cluster code.
    MachineSelfish,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Svcload,
        Workload::DeepAdaptive,
        Workload::FleetAttest,
        Workload::MachineSelfish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Svcload => "svcload",
            Workload::DeepAdaptive => "deep-adaptive",
            Workload::FleetAttest => "fleet-attest",
            Workload::MachineSelfish => "machine-selfish",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One workload at one seed and scale.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
}

impl Spec {
    fn scaled(&self, d: Nanos) -> Nanos {
        Nanos((d.as_nanos() as f64 * self.scale) as u64)
    }

    /// The cluster runs of one pass, in order (empty for the machine
    /// workload).
    pub fn cluster_configs(&self) -> Vec<ClusterConfig> {
        let seed = self.seed;
        match self.workload {
            Workload::Svcload => [
                StackKind::NativeTheseus,
                StackKind::HafniumKitten,
                StackKind::HafniumLinux,
            ]
            .into_iter()
            .map(|stack| {
                let mut cfg = ClusterConfig::new(64, stack, seed);
                cfg.svcload.duration = self.window();
                cfg
            })
            .collect(),
            Workload::DeepAdaptive => {
                let mut cfg = ClusterConfig::new(32, StackKind::HafniumKitten, seed);
                cfg.svcload.duration = self.window();
                cfg.scenario = Some(scenario_for_depth(3, 5833));
                cfg.adaptive = Some(AdaptivePolicy::default());
                let drop = FabricFaultSpec::parse("drop:0.02").expect("drop spec parses");
                cfg.faults = Some((drop, seed ^ 0xFAB5));
                vec![cfg]
            }
            Workload::FleetAttest => {
                let mut cfg = ClusterConfig::new(FLEET_NODES, StackKind::HafniumLinux, seed);
                cfg.svcload.duration = self.window();
                cfg.svcload.mean_interarrival = Nanos::from_millis(20);
                cfg.attest = true;
                vec![cfg]
            }
            Workload::MachineSelfish => Vec::new(),
        }
    }

    /// Simulated window of one run: the open-loop arrival window of a
    /// cluster run, or the length of one selfish-detour run.
    pub fn window(&self) -> Nanos {
        self.scaled(match self.workload {
            Workload::Svcload => SVCLOAD_WINDOW,
            Workload::DeepAdaptive => DEEP_WINDOW,
            Workload::FleetAttest => FLEET_WINDOW,
            Workload::MachineSelfish => SELFISH_WINDOW,
        })
    }
}

/// What one pass produced.
pub enum Reports {
    Cluster(Vec<ClusterReport>),
    Machine(Vec<RunReport>),
}

/// Host time inside the outer calls of a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub cluster_run: Duration,
    pub machine_boot: Duration,
    pub machine_run: Duration,
}

/// Run one pass: its reports and the host time of each of its runs
/// (one `cluster::run`, or one stack's `Machine::new` + `Machine::run`).
/// Only these outer calls are timed, never anything inside the
/// simulator; `spans` also splits machine boot from machine run.
pub fn run_pass(spec: &Spec, mut spans: Option<&mut Spans>) -> (Reports, Vec<f64>) {
    let mut times = Vec::new();
    let reports = match spec.workload {
        Workload::MachineSelfish => Reports::Machine(
            StackKind::ALL
                .iter()
                .map(|&stack| {
                    let t0 = Instant::now();
                    let mut machine = Machine::new(MachineConfig::pine_a64(stack, spec.seed));
                    let t1 = Instant::now();
                    let mut w = SelfishDetour::new(SelfishConfig {
                        duration: spec.window(),
                        ..Default::default()
                    });
                    let report = machine.run(&mut w);
                    let t2 = Instant::now();
                    times.push((t2 - t0).as_secs_f64());
                    if let Some(s) = spans.as_deref_mut() {
                        s.machine_boot += t1 - t0;
                        s.machine_run += t2 - t1;
                    }
                    report
                })
                .collect(),
        ),
        _ => Reports::Cluster(
            spec.cluster_configs()
                .iter()
                .map(|cfg| {
                    let t0 = Instant::now();
                    let report = run(cfg);
                    let dt = t0.elapsed();
                    times.push(dt.as_secs_f64());
                    if let Some(s) = spans.as_deref_mut() {
                        s.cluster_run += dt;
                    }
                    report
                })
                .collect(),
        ),
    };
    (reports, times)
}

/// Host time of one zero-traffic twin: the pass's configs with
/// `svcload.duration = 0` (node boot, attestation, noise replay to the
/// empty run's horizon), or `Machine::new` for every stack.
pub fn run_setup(spec: &Spec) -> Duration {
    match spec.workload {
        Workload::MachineSelfish => {
            let t0 = Instant::now();
            let machines: Vec<Machine> = StackKind::ALL
                .iter()
                .map(|&stack| Machine::new(MachineConfig::pine_a64(stack, spec.seed)))
                .collect();
            let dt = t0.elapsed();
            drop(machines);
            dt
        }
        _ => {
            let configs: Vec<ClusterConfig> = spec
                .cluster_configs()
                .into_iter()
                .map(|mut cfg| {
                    cfg.svcload.duration = Nanos::ZERO;
                    cfg
                })
                .collect();
            let t0 = Instant::now();
            let reports: Vec<ClusterReport> = configs.iter().map(run).collect();
            let dt = t0.elapsed();
            assert!(reports.iter().all(|r| r.sent == 0), "twin sends nothing");
            dt
        }
    }
}

/// The conservation checks every pass passes before any metric prints.
pub fn check(reports: &Reports) -> Result<(), String> {
    match reports {
        Reports::Cluster(rs) => rs.iter().try_for_each(check_cluster),
        Reports::Machine(rs) => rs.iter().try_for_each(|r| {
            if r.aborted || r.elapsed == Nanos::ZERO || r.output.detours().is_none() {
                Err(format!(
                    "{:?}: aborted={} elapsed={} output={}",
                    r.stack,
                    r.aborted,
                    r.elapsed,
                    r.output.detours().map_or("not detours", |_| "detours"),
                ))
            } else {
                Ok(())
            }
        }),
    }
}

fn check_cluster(r: &ClusterReport) -> Result<(), String> {
    let label = r.server_stack.label();
    let mut tier0 = 0u64;
    let mut ok = 0u64;
    for rec in r.records.iter().filter(|rec| rec.tier == 0) {
        tier0 += 1;
        if rec.outcome.is_ok() {
            ok += 1;
            if rec.completed.is_none_or(|c| c < rec.sent) {
                return Err(format!(
                    "{label}: ok request {} has no causal completion",
                    rec.id
                ));
            }
        }
    }
    let outcomes = &r.reliability.outcomes;
    if tier0 != r.sent {
        return Err(format!(
            "{label}: {tier0} tier-0 records for {} sent",
            r.sent
        ));
    }
    if outcomes.total() != r.sent || outcomes.good() != ok {
        return Err(format!(
            "{label}: outcome counters [{}] do not reconcile with {} sent, {ok} ok records",
            outcomes.render(),
            r.sent
        ));
    }
    if r.completed != ok {
        return Err(format!("{label}: completed {} != ok {ok}", r.completed));
    }
    Ok(())
}

/// FNV-1a-64 of everything the simulation decided: the per-request
/// CSV and every node's noise histogram, or the full machine reports.
/// Each piece is hashed on its own and the piece hashes are hashed in
/// order, so no piece outlives its hash and the digest adds little to
/// the peak memory the benchmark reports.
pub fn digest(reports: &Reports) -> u64 {
    let mut sums = Vec::new();
    let mut add = |piece: String| {
        sums.extend_from_slice(&kh_virtio::checksum(piece.as_bytes()).to_le_bytes());
    };
    match reports {
        Reports::Cluster(rs) => {
            for r in rs {
                add(r.csv());
                for n in &r.per_node {
                    add(format!("{:?}", n.noise_hist));
                }
            }
        }
        Reports::Machine(rs) => {
            for r in rs {
                add(format!("{r:?}"));
            }
        }
    }
    kh_virtio::checksum(&sums)
}

/// Exact nearest-rank tails of one sample set. A quantile is None
/// when fewer than ten samples lie beyond it: it is refused, not
/// printed.
#[derive(Debug, Clone, Copy)]
pub struct Tails {
    pub p50: Option<RankQuantile>,
    pub p99: Option<RankQuantile>,
    pub p999: Option<RankQuantile>,
    pub samples: usize,
    pub max: u64,
}

impl Tails {
    /// The highest of p99.9 and p99 with ten samples beyond it: the
    /// deepest tail this sample set can honestly report.
    pub fn tail(&self) -> Option<(&'static str, RankQuantile)> {
        self.p999
            .map(|q| ("p999", q))
            .or(self.p99.map(|q| ("p99", q)))
    }

    /// Tails of `samples` (ns), asserting the p999 <= max invariant the
    /// bucketed histograms break.
    fn of(what: &str, mut samples: Vec<u64>) -> Result<Tails, String> {
        samples.sort_unstable();
        let t = Tails {
            p50: nearest_rank(&samples, 1, 2),
            p99: nearest_rank(&samples, 99, 100),
            p999: nearest_rank(&samples, 999, 1000),
            samples: samples.len(),
            max: samples.last().copied().unwrap_or(0),
        };
        match t.p999 {
            Some(q) if q.value > t.max => Err(format!("{what}: p999 {} > max {}", q.value, t.max)),
            _ => Ok(t),
        }
    }
}

/// The simulated results of one pass.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Tier-0 ok latencies (Kitten arm on `svcload`), or detour lengths
    /// pooled over the four stacks on `machine-selfish`.
    pub tails: Tails,
    pub p99_linux: Option<Tails>,
    pub p99_theseus: Option<Tails>,
    /// Non-ok tier-0 outcomes over requests sent; aborted over runs.
    pub fail_frac: f64,
    /// Noise-stolen CPU time per simulated second, in ppm, on nodes or
    /// machines running that stack (0 where none does).
    pub stolen_ppm_kitten: f64,
    pub stolen_ppm_linux: f64,
    /// Simulated seconds the pass covered (virtual time of each run's
    /// last event, summed).
    pub sim_seconds: f64,
    /// Tier >= 1 ok leg latencies, when the pass fans out.
    pub legs: Option<Tails>,
    pub digest: u64,
}

fn ok_latencies(r: &ClusterReport, tier0: bool) -> Vec<u64> {
    r.records
        .iter()
        .filter(|rec| (rec.tier == 0) == tier0 && rec.outcome.is_ok())
        .filter_map(|rec| rec.completed.map(|c| c.saturating_sub(rec.sent).as_nanos()))
        .collect()
}

pub fn summarize(spec: &Spec, reports: &Reports) -> Result<SimSummary, String> {
    let digest = digest(reports);
    match reports {
        Reports::Cluster(rs) => {
            let arm = |stack: StackKind| rs.iter().find(|r| r.server_stack == stack);
            let primary = match spec.workload {
                Workload::Svcload => arm(StackKind::HafniumKitten).expect("svcload runs Kitten"),
                _ => &rs[0],
            };
            let arm_p99 = |stack| -> Result<Option<Tails>, String> {
                match (spec.workload, arm(stack)) {
                    (Workload::Svcload, Some(r)) => {
                        Tails::of(stack.label(), ok_latencies(r, true)).map(Some)
                    }
                    _ => Ok(None),
                }
            };
            let sent: u64 = rs.iter().map(|r| r.sent).sum();
            let good: u64 = rs.iter().map(|r| r.reliability.outcomes.good()).sum();
            let legs = ok_latencies(primary, false);
            // Every node replays noise out to the run's fixed horizon,
            // two windows plus 50 ms (`kh_cluster::run`).
            let window = spec.window();
            let horizon = (window + window + Nanos::from_millis(50)).as_nanos() as f64;
            let stolen_ppm = |stack: StackKind| {
                let nodes = rs
                    .iter()
                    .flat_map(|r| &r.per_node)
                    .filter(|n| n.stack == stack);
                let (stolen, count) = nodes.fold((0.0, 0.0), |(s, c), n| {
                    (s + n.stats.stolen.as_nanos() as f64, c + 1.0)
                });
                if count > 0.0 {
                    stolen / (count * horizon) * 1e6
                } else {
                    0.0
                }
            };
            Ok(SimSummary {
                tails: Tails::of("tier-0 latency", ok_latencies(primary, true))?,
                p99_linux: arm_p99(StackKind::HafniumLinux)?,
                p99_theseus: arm_p99(StackKind::NativeTheseus)?,
                fail_frac: (sent - good) as f64 / sent.max(1) as f64,
                stolen_ppm_kitten: stolen_ppm(StackKind::HafniumKitten),
                stolen_ppm_linux: stolen_ppm(StackKind::HafniumLinux),
                sim_seconds: rs.iter().map(|r| r.elapsed.as_secs_f64()).sum(),
                legs: if legs.is_empty() {
                    None
                } else {
                    Some(Tails::of("leg latency", legs)?)
                },
                digest,
            })
        }
        Reports::Machine(rs) => {
            let detours: Vec<u64> = rs
                .iter()
                .flat_map(|r| r.output.detours().unwrap_or(&[]))
                .map(|d| d.duration.as_nanos())
                .collect();
            let ppm = |stack: StackKind| {
                rs.iter().find(|r| r.stack == stack).map_or(0.0, |r| {
                    r.stolen.as_nanos() as f64 / r.elapsed.as_nanos() as f64 * 1e6
                })
            };
            Ok(SimSummary {
                tails: Tails::of("detour length", detours)?,
                p99_linux: None,
                p99_theseus: None,
                fail_frac: rs.iter().filter(|r| r.aborted).count() as f64 / rs.len() as f64,
                stolen_ppm_kitten: ppm(StackKind::HafniumKitten),
                stolen_ppm_linux: ppm(StackKind::HafniumLinux),
                sim_seconds: rs.iter().map(|r| r.elapsed.as_secs_f64()).sum(),
                legs: None,
                digest,
            })
        }
    }
}

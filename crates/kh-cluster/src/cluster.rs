//! The cluster: N nodes, one event queue, one clock.
//!
//! Topology is fixed by node count: the first half of the nodes are
//! clients, the second half servers, and client `i` pins to server
//! `clients + (i % servers)`. Clients always run the Kitten-primary
//! stack so the *offered load and client-side costs are byte-identical*
//! across the server-stack comparison — the ablation measures the
//! servers, nothing else.
//!
//! [`run`] hands every config to the one executor in
//! [`crate::scenario`]. Its shared event queue carries only cross-node
//! events (request arrivals, fabric deliveries, timers); per-node OS
//! noise lives in each node's own lazily-advanced cursor (see
//! [`crate::node`]). That split is what makes the run
//! order-independent: processing a Deliver for node 3 never consumes
//! randomness belonging to node 5.

use crate::fabric::{FabricStats, DEFAULT_QUEUE_DEPTH};
use crate::figures::us;
use crate::node::{AdmissionPolicy, NodeStats, Role};
use crate::scenario::{execute, ScenarioStats};
use kh_arch::platform::Platform;
use kh_core::config::StackKind;
use kh_metrics::hist::LogHistogram;
use kh_metrics::outcome::OutcomeCounters;
use kh_metrics::table::Table;
use kh_scenario::{ArrivalShape, Scenario};
use kh_sim::{FabricFaultSpec, FabricFaultStats, Nanos};
use kh_workloads::adaptive::AdaptivePolicy;
use kh_workloads::svcload::{RequestOutcome, RetryPolicy, SvcLoadConfig};

pub use crate::node::DEFAULT_ADMISSION_LIMIT;

/// How many future arrivals each client keeps filed in the event queue.
/// Refilled in one generator pass when the batch drains; arrival *times*
/// are identical to one-at-a-time generation (same per-client stream,
/// same draw order), only the filing is amortised.
pub(crate) const ARRIVAL_BATCH: usize = 32;

/// Everything a cluster run needs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total node count (>= 2): first half clients, second half servers.
    pub nodes: usize,
    /// Stack the *server* nodes run (clients are always Kitten-primary).
    pub server_stack: StackKind,
    pub platform: Platform,
    pub seed: u64,
    pub svcload: SvcLoadConfig,
    /// Switch egress queue depth, frames per port.
    pub queue_depth: usize,
    /// Fabric fault plan: (spec, fault seed). None = clean fabric.
    pub faults: Option<(FabricFaultSpec, u64)>,
    /// Client-side reliability policy. None = fire-and-forget (a lost
    /// frame silently erases its request, outcome `Failed`).
    pub retry: Option<RetryPolicy>,
    /// The adaptive reliability layer: hedge delays follow each
    /// destination's *live* latency quantile, retransmits/hedges pay
    /// from a token-bucket budget, per-destination circuit breakers
    /// stop retransmits into silence, and servers run CoDel
    /// queue-delay admission (from the policy's `codel_*` fields,
    /// overriding `admission`). Takes precedence over `retry` when
    /// both are set.
    pub adaptive: Option<AdaptivePolicy>,
    /// Server admission policy (ignored when `adaptive` is set).
    pub admission: AdmissionPolicy,
    /// How long the Kitten primary takes to notice a dead secondary
    /// (`Spm::vm_is_crashed` poll cadence) before driving restart.
    pub detect_latency: Nanos,
    /// Service-core time a restart costs (stage-2 rebuild, reboot).
    pub restart_cost: Nanos,
    /// Traffic scenario. None runs svcload, the depth-0 scenario
    /// `arrive=exp:<svcload.mean_interarrival>`: open-loop arrivals,
    /// one fixed-phase serve per request, no backend tier.
    pub scenario: Option<Scenario>,
    /// Run the remote-attestation handshake ([`crate::attest`]) at
    /// bring-up, before any traffic. Nodes whose evidence fails the
    /// registry are quarantined: requests targeting them terminate in
    /// [`RequestOutcome::Refused`] without ever touching the wire.
    pub attest: bool,
}

impl ClusterConfig {
    /// The paper's evaluation platform with `nodes` nodes.
    pub fn new(nodes: usize, server_stack: StackKind, seed: u64) -> Self {
        ClusterConfig {
            nodes: nodes.max(2),
            server_stack,
            platform: Platform::pine_a64_lts(),
            seed,
            svcload: SvcLoadConfig::default(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            faults: None,
            retry: None,
            adaptive: None,
            admission: AdmissionPolicy::default(),
            detect_latency: Nanos::from_millis(1),
            restart_cost: Nanos::from_millis(2),
            scenario: None,
            attest: false,
        }
    }

    /// Client node count (first `clients()` indices).
    pub fn clients(&self) -> usize {
        (self.nodes / 2).max(1)
    }

    /// Server node count.
    pub fn servers(&self) -> usize {
        (self.nodes - self.clients()).max(1)
    }
}

/// One request's life, for the run trace CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    pub id: u64,
    pub client: u16,
    pub server: u16,
    pub sent: Nanos,
    /// None when the request never completed (lost, shed, expired).
    /// Always paired with a terminal [`RequestOutcome`] — analysis code
    /// matches on `outcome` instead of unwrapping this.
    pub completed: Option<Nanos>,
    /// Transmissions made for this request (1 = first send only).
    pub attempts: u32,
    /// How the request's story ended.
    pub outcome: RequestOutcome,
    /// 0 = client-facing request, 1 = a backend leg of a fan-out.
    pub tier: u8,
    /// Fan-out degree of the request's tree (0 = single-tier).
    pub fanout: u16,
}

/// Aggregate reliability-layer counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Terminal outcome of every generated request.
    pub outcomes: OutcomeCounters,
    /// Backoff-scheduled retransmissions actually sent.
    pub retransmits: u64,
    /// Hedge transmissions actually sent.
    pub hedges: u64,
    /// NACKs servers sent when shedding.
    pub nacks_sent: u64,
    /// Checksum-rejected frames observed at any receiver.
    pub corrupt_rx: u64,
    /// Request frames that arrived at a down (crashed) service VM.
    pub crash_drops: u64,
    /// Retransmits withheld by the adaptive budget or circuit breaker.
    pub retries_suppressed: u64,
    /// Hedges withheld by the adaptive budget or circuit breaker.
    pub hedges_suppressed: u64,
    /// Duplicate attempts the server response cache answered without
    /// re-admission or a second service.
    pub dups_absorbed: u64,
    /// Times any destination's circuit breaker tripped open.
    pub breaker_opens: u64,
}

/// One service-VM crash and its recovery, for time-to-recovery gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    pub node: u16,
    /// When the fault killed the service VM.
    pub crashed_at: Nanos,
    /// When the primary saw `vm_is_crashed` and started the restart.
    pub detected_at: Nanos,
    /// When the restarted service VM accepts requests again.
    pub recovered_at: Nanos,
}

impl RecoveryRecord {
    /// Crash-to-serving downtime.
    pub fn downtime(&self) -> Nanos {
        self.recovered_at.saturating_sub(self.crashed_at)
    }
}

/// What one node contributed, for the report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    pub index: u16,
    pub role: Role,
    pub stack: StackKind,
    pub stats: NodeStats,
    pub noise_hist: LogHistogram,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub server_stack: StackKind,
    pub nodes: usize,
    pub clients: usize,
    pub servers: usize,
    pub seed: u64,
    /// Requests generated by all clients.
    pub sent: u64,
    /// Requests whose response made it back.
    pub completed: u64,
    /// End-to-end latency over all completed requests.
    pub latency: LogHistogram,
    pub records: Vec<RequestRecord>,
    pub per_node: Vec<NodeReport>,
    pub fabric: FabricStats,
    pub fault_stats: FabricFaultStats,
    /// Reliability-layer counters (all zero on a clean, policy-less run).
    pub reliability: ReliabilityStats,
    /// One entry per `crashsvc` fault that fired.
    pub recoveries: Vec<RecoveryRecord>,
    /// Multi-tier counters; Some only for scenario runs.
    pub scenario: Option<ScenarioStats>,
    /// Remote-attestation handshake result; Some only when
    /// `cfg.attest` was set.
    pub attestation: Option<crate::attest::AttestationReport>,
    /// Virtual time of the last event processed.
    pub elapsed: Nanos,
}

/// Run `cfg` over a freshly booted cluster.
///
/// Every run goes through the one executor in [`crate::scenario`]. A
/// config without a scenario is svcload: the depth-0 scenario
/// `arrive=exp:<mean_interarrival>` (one leg per request, served by its
/// frontend alone). Its report carries no [`ScenarioStats`].
pub fn run(cfg: &ClusterConfig) -> ClusterReport {
    match &cfg.scenario {
        Some(scn) => execute(cfg, scn),
        None => execute(
            cfg,
            &Scenario {
                arrival: ArrivalShape::Exp {
                    mean: cfg.svcload.mean_interarrival,
                },
                ..Scenario::default()
            },
        ),
    }
}

impl ClusterReport {
    /// Loss fraction: requests that never completed.
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.completed as f64 / self.sent as f64
    }

    /// Fraction of requests whose client got an answer.
    pub fn goodput(&self) -> f64 {
        self.reliability.outcomes.goodput()
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "cluster svcload: {} nodes ({} clients -> {} {} servers), seed {}",
                self.nodes,
                self.clients,
                self.servers,
                self.server_stack.label(),
                self.seed
            ),
            &[
                "sent", "done", "loss%", "p50 us", "p99 us", "p999 us", "max us",
            ],
        );
        t.row(
            "latency",
            vec![
                self.sent.to_string(),
                self.completed.to_string(),
                format!("{:.2}", self.loss() * 100.0),
                us(self.latency.median()),
                us(self.latency.p99()),
                us(self.latency.p999()),
                us(self.latency.max()),
            ],
        );
        let mut out = t.render();
        let mut nt = Table::new(
            "per-node noise (events below horizon)",
            &["role", "stack", "events", "stolen us", "served"],
        );
        for n in &self.per_node {
            nt.row(
                format!("node{}", n.index),
                vec![
                    format!("{:?}", n.role),
                    n.stack.label().to_string(),
                    n.noise_hist.count().to_string(),
                    format!("{:.1}", n.stats.stolen.as_nanos() as f64 / 1_000.0),
                    n.stats.served.to_string(),
                ],
            );
        }
        out.push('\n');
        out.push_str(&nt.render());
        if let Some(a) = &self.attestation {
            out.push('\n');
            out.push_str(&a.render());
            out.push('\n');
        }
        if self.fault_stats.total() > 0 || self.fabric.queue_drops > 0 {
            out.push_str(&format!(
                "\nfabric: {} forwarded, {} queue drops, {} fault drops, {} reordered, {} jittered, {} partition drops, {} corrupted\n",
                self.fabric.frames_forwarded,
                self.fabric.queue_drops,
                self.fault_stats.frames_dropped,
                self.fault_stats.frames_reordered,
                self.fault_stats.frames_jittered,
                self.fault_stats.partition_drops,
                self.fault_stats.frames_corrupted,
            ));
        }
        let r = &self.reliability;
        if r.retransmits + r.hedges + r.nacks_sent + r.corrupt_rx + r.crash_drops > 0
            || r.outcomes.good() != r.outcomes.total()
        {
            out.push_str(&format!(
                "reliability: goodput {:.3}%, outcomes [{}], {} retransmits, {} hedges, {} nacks, {} corrupt rx, {} crash drops\n",
                self.goodput() * 100.0,
                r.outcomes.render(),
                r.retransmits,
                r.hedges,
                r.nacks_sent,
                r.corrupt_rx,
                r.crash_drops,
            ));
        }
        if r.retries_suppressed + r.hedges_suppressed + r.dups_absorbed + r.breaker_opens > 0 {
            out.push_str(&format!(
                "adaptive: {} retries suppressed, {} hedges suppressed, {} dups absorbed, {} breaker opens\n",
                r.retries_suppressed,
                r.hedges_suppressed,
                r.dups_absorbed,
                r.breaker_opens,
            ));
        }
        for rec in &self.recoveries {
            out.push_str(&format!(
                "recovery: node{} crashed at {}ns, detected +{}ns, serving again +{}ns\n",
                rec.node,
                rec.crashed_at.as_nanos(),
                rec.detected_at.saturating_sub(rec.crashed_at).as_nanos(),
                rec.downtime().as_nanos(),
            ));
        }
        if let Some(s) = &self.scenario {
            out.push_str(&format!(
                "scenario: {} (effective fanout {}, depth {})\n  legs: {} sent, {} ok, {} shed, {} failed, {} refused, {} late; joins: {} ok, {} failed\n  tier1 p50/p99 us: {}/{}\n",
                s.spec,
                s.fanout,
                s.depth,
                s.legs_sent,
                s.legs_ok,
                s.legs_shed,
                s.legs_failed,
                s.legs_refused,
                s.late_legs,
                s.joins_ok,
                s.joins_failed,
                us(s.tier1.median()),
                us(s.tier1.p99()),
            ));
            if !s.hpc_nodes.is_empty() {
                out.push_str(&format!(
                    "  hpc neighbors on {:?}: {} quanta, {:.1}ms busy below horizon\n",
                    s.hpc_nodes,
                    s.hpc_quanta,
                    s.hpc_busy.as_nanos() as f64 / 1e6,
                ));
            }
        }
        out
    }

    /// The per-request trace as CSV — the byte-identity artifact the
    /// determinism tests (and `khsim cluster --out`) compare.
    pub fn csv(&self) -> String {
        let mut s = String::from(
            "req,client,server,sent_ns,completed_ns,latency_ns,attempts,outcome,tier,fanout\n",
        );
        for r in &self.records {
            let (done, lat) = match r.completed {
                Some(c) => (
                    c.as_nanos().to_string(),
                    c.saturating_sub(r.sent).as_nanos().to_string(),
                ),
                None => (String::new(), String::new()),
            };
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.id,
                r.client,
                r.server,
                r.sent.as_nanos(),
                done,
                lat,
                r.attempts,
                r.outcome.label(),
                r.tier,
                r.fanout,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(stack: StackKind, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(4, stack, seed);
        c.svcload = SvcLoadConfig::quick();
        c
    }

    #[test]
    fn four_node_cluster_completes_the_load() {
        let r = run(&quick(StackKind::HafniumKitten, 1));
        assert_eq!(r.nodes, 4);
        assert_eq!(r.clients, 2);
        assert_eq!(r.servers, 2);
        assert!(r.sent > 50, "sent = {}", r.sent);
        assert_eq!(r.completed, r.sent, "clean fabric loses nothing");
        assert_eq!(r.latency.count(), r.completed);
        assert!(r.latency.median() > 0.0);
        // Every record resolved Ok, is complete, and causally ordered —
        // matched on outcome, never unwrapped: an uncompleted request
        // is a first-class result, not a panic hazard.
        assert!(r.records.iter().all(|rec| {
            rec.outcome.is_ok()
                && rec.attempts == 1
                && matches!(rec.completed, Some(done) if done > rec.sent)
        }));
        assert_eq!(r.goodput(), 1.0);
        assert_eq!(r.reliability.outcomes.ok, r.sent);
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = run(&quick(StackKind::HafniumLinux, 7));
        let b = run(&quick(StackKind::HafniumLinux, 7));
        assert_eq!(a.csv(), b.csv());
        assert_eq!(a.render(), b.render());
        let c = run(&quick(StackKind::HafniumLinux, 8));
        assert_ne!(a.csv(), c.csv());
    }

    #[test]
    fn offered_load_is_stack_independent() {
        let kitten = run(&quick(StackKind::HafniumKitten, 3));
        let linux = run(&quick(StackKind::HafniumLinux, 3));
        assert_eq!(kitten.sent, linux.sent, "open loop: same arrivals");
        let sends = |r: &ClusterReport| {
            r.records
                .iter()
                .map(|rec| (rec.id, rec.client, rec.sent))
                .collect::<Vec<_>>()
        };
        assert_eq!(sends(&kitten), sends(&linux));
    }

    #[test]
    fn kitten_servers_have_tighter_tails_than_linux() {
        let kitten = run(&quick(StackKind::HafniumKitten, 5));
        let linux = run(&quick(StackKind::HafniumLinux, 5));
        assert!(
            kitten.latency.p99() <= linux.latency.p99(),
            "p99: kitten {} vs linux {}",
            kitten.latency.p99(),
            linux.latency.p99()
        );
        assert!(
            kitten.latency.p999() <= linux.latency.p999(),
            "p999: kitten {} vs linux {}",
            kitten.latency.p999(),
            linux.latency.p999()
        );
    }

    #[test]
    fn faulty_fabric_loses_frames_deterministically() {
        let mut cfg = quick(StackKind::HafniumKitten, 9);
        cfg.faults = Some((
            FabricFaultSpec::parse("drop:0.05,jitter:0.2:50us,reorder:0.05").unwrap(),
            3,
        ));
        let a = run(&cfg);
        assert!(a.completed < a.sent, "5% drop must lose something");
        assert!(a.fault_stats.frames_dropped > 0);
        assert!(a.loss() > 0.0);
        // No reliability layer: every loss is a silent-drop Failure.
        assert_eq!(a.reliability.outcomes.failed, a.sent - a.completed);
        assert_eq!(a.fabric.loss_drops, a.fault_stats.frames_dropped);
        let b = run(&cfg);
        assert_eq!(a.csv(), b.csv(), "faulted runs are reproducible");
    }

    #[test]
    fn retries_recover_random_loss() {
        let mut cfg = quick(StackKind::HafniumKitten, 9);
        cfg.faults = Some((FabricFaultSpec::parse("drop:0.05").unwrap(), 3));
        let bare = run(&cfg);
        assert!(bare.goodput() < 1.0, "no-retry arm must lose requests");
        cfg.retry = Some(RetryPolicy::default());
        let armed = run(&cfg);
        assert_eq!(armed.sent, bare.sent, "open loop: same offered load");
        assert!(
            armed.goodput() >= 0.99,
            "goodput with retries = {}",
            armed.goodput()
        );
        assert!(armed.goodput() > bare.goodput());
        assert!(armed.reliability.retransmits > 0);
        assert!(armed
            .records
            .iter()
            .any(|r| matches!(r.outcome, RequestOutcome::Ok { attempt } if attempt > 0)));
        // Armed runs stay byte-reproducible.
        let again = run(&cfg);
        assert_eq!(armed.csv(), again.csv());
    }

    #[test]
    fn hedging_duplicates_slow_requests() {
        let mut cfg = quick(StackKind::HafniumKitten, 11);
        cfg.faults = Some((FabricFaultSpec::parse("drop:0.1").unwrap(), 5));
        cfg.retry = Some(RetryPolicy {
            // Hedge well before the first backoff so hedges win races.
            hedge_delay: Some(Nanos::from_micros(900)),
            ..RetryPolicy::default()
        });
        let r = run(&cfg);
        assert!(r.reliability.hedges > 0, "hedge timer must fire");
        assert!(
            r.records
                .iter()
                .any(|rec| matches!(rec.outcome, RequestOutcome::OkHedged { .. })),
            "some hedge transmission should win"
        );
        assert!(r.goodput() >= 0.99, "goodput = {}", r.goodput());
    }

    #[test]
    fn admission_control_sheds_with_explicit_nacks() {
        let mut cfg = quick(StackKind::HafniumKitten, 13);
        // Overdrive one server pair and bound the queue tightly.
        cfg.svcload.mean_interarrival = Nanos::from_micros(40);
        cfg.admission = AdmissionPolicy::Fixed { limit: 2 };
        cfg.retry = Some(RetryPolicy::default());
        let r = run(&cfg);
        assert!(r.reliability.nacks_sent > 0, "overload must shed");
        assert!(
            r.records
                .iter()
                .any(|rec| rec.outcome == RequestOutcome::Shed),
            "shed requests end as Shed, not silent loss"
        );
        assert_eq!(
            r.reliability.outcomes.failed, 0,
            "with the policy armed nothing fails silently"
        );
        let shed_total: u64 = r.per_node.iter().map(|n| n.stats.shed).sum();
        assert_eq!(shed_total, r.reliability.nacks_sent);
    }

    #[test]
    fn duplicate_attempts_never_shed_or_double_serve() {
        // An aggressive static policy (hedge every request at 300us,
        // backoff floor near the median) floods servers with
        // duplicates; before the response cache this self-shed with
        // zero faults. Now every duplicate of an admitted request is
        // absorbed: no NACKs, no sheds, no double service.
        let mut cfg = quick(StackKind::HafniumKitten, 29);
        cfg.retry = Some(RetryPolicy {
            hedge_delay: Some(Nanos::from_micros(300)),
            base_backoff: Nanos::from_millis(1),
            max_backoff: Nanos::from_millis(2),
            ..RetryPolicy::default()
        });
        let r = run(&cfg);
        assert!(
            r.reliability.hedges + r.reliability.retransmits > 0,
            "the policy must generate duplicates for this test to bite"
        );
        assert!(r.reliability.dups_absorbed > 0, "cache must absorb them");
        assert_eq!(r.reliability.nacks_sent, 0, "no self-induced shedding");
        let served: u64 = r.per_node.iter().map(|n| n.stats.served).sum();
        assert_eq!(served, r.sent, "each request is served exactly once");
        let dup_hits: u64 = r.per_node.iter().map(|n| n.stats.dup_hits).sum();
        assert_eq!(dup_hits, r.reliability.dups_absorbed);
        assert_eq!(r.goodput(), 1.0);
    }

    #[test]
    fn adaptive_no_faults_tail_tracks_retries_off() {
        let off = run(&quick(StackKind::HafniumKitten, 31));
        let mut cfg = quick(StackKind::HafniumKitten, 31);
        cfg.adaptive = Some(AdaptivePolicy::default());
        let adaptive = run(&cfg);
        assert_eq!(adaptive.sent, off.sent, "open loop: same offered load");
        assert_eq!(adaptive.goodput(), 1.0);
        // The whole point: arming the adaptive policy on a healthy
        // cluster must not manufacture a tail (static hedging at a
        // frozen baseline inflated p99 ~17x here).
        assert!(
            adaptive.latency.p99() <= off.latency.p99() * 1.5,
            "adaptive p99 {} vs off p99 {}",
            adaptive.latency.p99(),
            off.latency.p99()
        );
        assert_eq!(
            adaptive.reliability.breaker_opens, 0,
            "healthy cluster never trips a breaker"
        );
        // Reproducible with the full adaptive stack armed.
        let again = run(&cfg);
        assert_eq!(adaptive.csv(), again.csv());
        assert_eq!(adaptive.render(), again.render());
    }

    #[test]
    fn adaptive_partition_recovers_at_least_retries_off_goodput() {
        let mut cfg = quick(StackKind::HafniumKitten, 33);
        let victim = cfg.clients();
        cfg.faults = Some((
            FabricFaultSpec::parse(&format!("partition@10ms:5ms:{victim}")).unwrap(),
            3,
        ));
        let off = run(&cfg);
        assert!(off.goodput() < 1.0, "partition must hurt the bare arm");
        cfg.adaptive = Some(AdaptivePolicy::default());
        let adaptive = run(&cfg);
        assert_eq!(adaptive.sent, off.sent, "open loop: same offered load");
        assert!(
            adaptive.goodput() >= off.goodput(),
            "adaptive {} vs off {}",
            adaptive.goodput(),
            off.goodput()
        );
        assert!(
            adaptive.reliability.retransmits > 0,
            "recovery needs retransmits"
        );
    }

    #[test]
    fn corrupt_frames_are_detected_not_misparsed() {
        let mut cfg = quick(StackKind::HafniumKitten, 17);
        cfg.faults = Some((FabricFaultSpec::parse("corrupt:0.1").unwrap(), 7));
        let r = run(&cfg);
        assert!(r.fault_stats.frames_corrupted > 0);
        assert!(r.reliability.corrupt_rx > 0, "checksum catches mangling");
        assert!(
            r.records
                .iter()
                .any(|rec| rec.outcome == RequestOutcome::Corrupt),
            "a corrupted reply is attributed to its request"
        );
        // With retries armed the corruption is survivable.
        cfg.retry = Some(RetryPolicy::default());
        let armed = run(&cfg);
        assert!(armed.goodput() >= 0.99, "goodput = {}", armed.goodput());
    }

    #[test]
    fn crashsvc_recovers_within_the_gate() {
        let mut cfg = quick(StackKind::HafniumKitten, 19);
        let victim = cfg.clients(); // first server node
        cfg.faults = Some((
            FabricFaultSpec::parse(&format!("crashsvc@10ms:{victim}")).unwrap(),
            1,
        ));
        cfg.retry = Some(RetryPolicy::default());
        let r = run(&cfg);
        assert_eq!(r.recoveries.len(), 1);
        let rec = r.recoveries[0];
        assert_eq!(rec.node as usize, victim);
        assert_eq!(rec.crashed_at, Nanos::from_millis(10));
        assert_eq!(rec.detected_at, rec.crashed_at + cfg.detect_latency);
        assert!(
            rec.downtime() <= cfg.detect_latency + cfg.restart_cost + Nanos::from_millis(1),
            "downtime {}ns",
            rec.downtime().as_nanos()
        );
        assert_eq!(r.fault_stats.svc_crashes, 1);
        let crashed_node = &r.per_node[victim];
        assert_eq!(crashed_node.stats.restarts, 1);
        assert!(r.goodput() >= 0.99, "goodput = {}", r.goodput());
        // Reproducible, crash and all.
        assert_eq!(run(&cfg).csv(), r.csv());
    }

    #[test]
    fn clean_attestation_does_not_perturb_traffic() {
        // Arming the handshake with nothing tampered is free: every
        // node attests, nobody is quarantined, and the request trace is
        // byte-identical to the unattested run — the handshake draws
        // only from its own stream roots.
        let base = run(&quick(StackKind::HafniumKitten, 23));
        let mut cfg = quick(StackKind::HafniumKitten, 23);
        cfg.attest = true;
        let attested = run(&cfg);
        let a = attested.attestation.as_ref().unwrap();
        assert!(a.all_clean());
        assert_eq!(a.nodes, 4);
        assert_eq!(attested.csv(), base.csv());
        assert!(base.attestation.is_none());
    }

    #[test]
    fn tampered_node_is_quarantined_and_refused() {
        // tamper@3 forges the second server's measurement. Every
        // request routed at it is refused without touching the wire;
        // the other server's records and every node's noise histogram
        // are byte-identical to the tamper-free attested run.
        let mut clean = quick(StackKind::HafniumKitten, 29);
        clean.attest = true;
        let clean_r = run(&clean);

        let mut cfg = quick(StackKind::HafniumKitten, 29);
        cfg.attest = true;
        cfg.faults = Some((FabricFaultSpec::parse("tamper@3").unwrap(), 1));
        let r = run(&cfg);

        let a = r.attestation.as_ref().unwrap();
        assert_eq!(a.quarantined, vec![3]);
        let refused: Vec<_> = r.records.iter().filter(|rec| rec.server == 3).collect();
        assert!(!refused.is_empty());
        assert!(refused
            .iter()
            .all(|rec| rec.outcome == RequestOutcome::Refused && rec.attempts == 0));
        assert_eq!(r.reliability.outcomes.refused, refused.len() as u64);
        assert!(r.goodput() < 1.0);

        // The healthy server's traffic is untouched (client 0 -> server
        // 2 shares no fabric port with the quarantined pair) ...
        let healthy = |rep: &ClusterReport| {
            rep.records
                .iter()
                .filter(|rec| rec.server == 2)
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(healthy(&r), healthy(&clean_r));
        // ... and noise never depended on traffic in the first place:
        // every node's histogram, the quarantined one included, is
        // bit-identical with the tamper armed.
        for (t, c) in r.per_node.iter().zip(clean_r.per_node.iter()) {
            assert_eq!(t.noise_hist, c.noise_hist, "node {}", t.index);
        }
        // Reproducible, quarantine and all.
        assert_eq!(run(&cfg).csv(), r.csv());
    }

    #[test]
    fn theseus_servers_run_the_cluster_load() {
        let r = run(&quick(StackKind::NativeTheseus, 31));
        assert_eq!(r.completed, r.sent);
        assert!(r.sent > 50);
        // Theseus nodes tick quietly and run no guest: their noise
        // event count undercuts the Kitten arm's.
        let kitten = run(&quick(StackKind::HafniumKitten, 31));
        let server_noise = |rep: &ClusterReport| {
            rep.per_node
                .iter()
                .filter(|n| n.role == Role::Server)
                .map(|n| n.noise_hist.count())
                .sum::<u64>()
        };
        assert!(server_noise(&r) <= server_noise(&kitten));
        assert_eq!(r.goodput(), 1.0);
    }
}

//! The cluster ablation: Kitten-primary vs Linux-primary servers under
//! identical offered load.
//!
//! Both arms run the *same* client nodes, the same arrival streams, and
//! the same fabric; only the server stack differs. The table restates
//! the paper's noise argument as service tail latency: a 250 Hz + kthread
//! primary next to the service VM costs you the p99/p999, not the median.

use crate::cluster::{self, ClusterConfig, ClusterReport};
use kh_core::config::StackKind;
use kh_core::pool::Pool;
use kh_metrics::table::Table;
use kh_scenario::Scenario;
use kh_sim::{FabricFaultSpec, Nanos};
use kh_workloads::adaptive::AdaptivePolicy;
use kh_workloads::svcload::{RetryPolicy, SvcLoadConfig};

/// The server stacks the ablation compares, from
/// [`StackKind::CLUSTER_ARMS`]: both virtualized primaries plus the
/// safe-language Theseus lower bound.
pub const ARMS: [StackKind; 3] = StackKind::CLUSTER_ARMS;

/// Run every arm (pooled, deterministic for any worker count) and return
/// the reports in [`ARMS`] order.
pub fn ablation_cluster(nodes: usize, seed: u64, svcload: SvcLoadConfig) -> Vec<ClusterReport> {
    Pool::with_default_jobs().run_indexed(ARMS.len(), |i| {
        let mut cfg = ClusterConfig::new(nodes, ARMS[i], seed);
        cfg.svcload = svcload;
        cluster::run(&cfg)
    })
}

/// Nanoseconds as a table cell in microseconds, `-` when undefined.
pub(crate) fn us(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{:.1}", v / 1_000.0)
    }
}

/// Render the two-arm comparison as the paper-style table.
pub fn render_cluster(reports: &[ClusterReport]) -> String {
    let nodes = reports.first().map(|r| r.nodes).unwrap_or(0);
    let mut t = Table::new(
        format!("cluster svcload tail latency, {nodes} nodes (us)"),
        &["sent", "done", "p50", "p99", "p999", "max"],
    );
    for r in reports {
        t.row(
            r.server_stack.label(),
            vec![
                r.sent.to_string(),
                r.completed.to_string(),
                us(r.latency.median()),
                us(r.latency.p99()),
                us(r.latency.p999()),
                us(r.latency.max()),
            ],
        );
    }
    t.render()
}

/// The reliability sweep's fault scenarios for a cluster of `nodes`:
/// `(label, fault spec)`, with `None` the clean-fabric baseline. The
/// partition and crash scenarios target the first server node.
pub fn reliability_scenarios(nodes: usize) -> Vec<(String, Option<String>)> {
    let victim = (nodes / 2).max(1); // first server index
    vec![
        ("no-faults".to_string(), None),
        ("drop0.05".to_string(), Some("drop:0.05".to_string())),
        (
            "partition".to_string(),
            Some(format!("partition@10ms:5ms:{victim}")),
        ),
        (
            "crashsvc".to_string(),
            Some(format!("crashsvc@10ms:{victim}")),
        ),
    ]
}

/// Run the reliability cell: `{no-faults, drop, partition, crashsvc}`
/// × `{retries off, retries on}` on Kitten-primary servers, pooled and
/// deterministic for any worker count. The retries-on arm runs the
/// *adaptive* policy — live-quantile hedging, retry budgets, and the
/// per-destination circuit breaker — so retransmits into a known-dead
/// destination stop instead of stuffing the fabric (the static policy
/// measurably *lost* goodput under partition). Returns
/// `(scenario, retries_on, report)` rows in a fixed order.
pub fn reliability_matrix(
    nodes: usize,
    seed: u64,
    svcload: SvcLoadConfig,
    policy: AdaptivePolicy,
) -> Vec<(String, bool, ClusterReport)> {
    let combos: Vec<(String, Option<String>, bool)> = reliability_scenarios(nodes)
        .into_iter()
        .flat_map(|(name, spec)| [(name.clone(), spec.clone(), false), (name, spec, true)])
        .collect();
    let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
        let (_, spec, retries) = &combos[i];
        let mut cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
        cfg.svcload = svcload;
        if let Some(s) = spec {
            let spec = FabricFaultSpec::parse(s).expect("scenario specs parse");
            cfg.faults = Some((spec, seed ^ 0xFAB5));
        }
        if *retries {
            cfg.adaptive = Some(policy);
        }
        cluster::run(&cfg)
    });
    combos
        .into_iter()
        .zip(reports)
        .map(|((name, _, retries), r)| (name, retries, r))
        .collect()
}

/// Render the reliability matrix as a table.
pub fn render_reliability(rows: &[(String, bool, ClusterReport)]) -> String {
    let nodes = rows.first().map(|(_, _, r)| r.nodes).unwrap_or(0);
    let mut t = Table::new(
        format!("cluster reliability sweep, {nodes} nodes"),
        &[
            "retries", "sent", "goodput%", "retx", "hedges", "shed", "p99 us", "outcomes",
        ],
    );
    for (name, retries, r) in rows {
        t.row(
            format!("{name}{}", if *retries { "+retry" } else { "" }),
            vec![
                if *retries { "on" } else { "off" }.to_string(),
                r.sent.to_string(),
                format!("{:.3}", r.goodput() * 100.0),
                r.reliability.retransmits.to_string(),
                r.reliability.hedges.to_string(),
                r.reliability.nacks_sent.to_string(),
                us(r.latency.p99()),
                r.reliability.outcomes.render(),
            ],
        );
    }
    t.render()
}

/// Which reliability layer a metastability-grid cell arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityPolicy {
    /// Fire-and-forget: losses stay lost, but nothing feeds back.
    Off,
    /// The static [`RetryPolicy`]: frozen hedge delay, no budget, no
    /// breaker, fixed admission — the arm that collapses.
    Static,
    /// The adaptive layer: live-quantile hedging, budgets, breakers,
    /// CoDel admission.
    Adaptive,
}

impl ReliabilityPolicy {
    pub const ALL: [ReliabilityPolicy; 3] = [
        ReliabilityPolicy::Off,
        ReliabilityPolicy::Static,
        ReliabilityPolicy::Adaptive,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            ReliabilityPolicy::Off => "off",
            ReliabilityPolicy::Static => "static",
            ReliabilityPolicy::Adaptive => "adaptive",
        }
    }

    /// Arm this policy on `cfg`: `Static` sets `cfg.retry`, `Adaptive`
    /// sets `cfg.adaptive`, `Off` leaves both unset.
    pub fn apply(self, cfg: &mut ClusterConfig, retry: RetryPolicy, adaptive: AdaptivePolicy) {
        match self {
            ReliabilityPolicy::Off => {}
            ReliabilityPolicy::Static => cfg.retry = Some(retry),
            ReliabilityPolicy::Adaptive => cfg.adaptive = Some(adaptive),
        }
    }
}

/// One cell of the metastability grid.
#[derive(Debug, Clone)]
pub struct MetastabilityRow {
    /// Mean interarrival per client, µs (smaller = more load).
    pub interarrival_us: u64,
    /// Fabric random-loss probability (0 = clean).
    pub drop: f64,
    pub policy: ReliabilityPolicy,
    pub report: ClusterReport,
}

/// The metastability sweep: a load × drop-rate grid, each cell run
/// with retries off, the static policy, and the adaptive policy — the
/// figure that shows *where* the static layer's load feedback tips a
/// healthy cluster into congestion collapse and that the adaptive
/// layer holds the tail flat over the same grid. `static_policy`
/// should carry the frozen baseline-derived hedge delay that triggers
/// the collapse (the historical configuration under test); pooled and
/// deterministic for any worker count.
pub fn metastability_sweep(
    nodes: usize,
    seed: u64,
    base: SvcLoadConfig,
    loads_us: &[u64],
    drops: &[f64],
    static_policy: RetryPolicy,
    adaptive_policy: AdaptivePolicy,
) -> Vec<MetastabilityRow> {
    let combos: Vec<(u64, f64, ReliabilityPolicy)> = loads_us
        .iter()
        .flat_map(|&ia| {
            drops.iter().flat_map(move |&drop| {
                ReliabilityPolicy::ALL
                    .iter()
                    .map(move |&policy| (ia, drop, policy))
            })
        })
        .collect();
    let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
        let (ia, drop, policy) = combos[i];
        let mut cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
        cfg.svcload = base;
        cfg.svcload.mean_interarrival = Nanos::from_micros(ia);
        if drop > 0.0 {
            let spec = FabricFaultSpec::parse(&format!("drop:{drop}")).expect("drop spec parses");
            cfg.faults = Some((spec, seed ^ 0xFAB5));
        }
        policy.apply(&mut cfg, static_policy, adaptive_policy);
        cluster::run(&cfg)
    });
    combos
        .into_iter()
        .zip(reports)
        .map(
            |((interarrival_us, drop, policy), report)| MetastabilityRow {
                interarrival_us,
                drop,
                policy,
                report,
            },
        )
        .collect()
}

/// Render the metastability grid as a table.
pub fn render_metastability(rows: &[MetastabilityRow]) -> String {
    let nodes = rows.first().map(|r| r.report.nodes).unwrap_or(0);
    let mut t = Table::new(
        format!("metastability grid (load x drop x policy), {nodes} nodes"),
        &[
            "policy", "sent", "goodput%", "retx", "hedges", "shed", "p50 us", "p99 us",
        ],
    );
    for row in rows {
        let r = &row.report;
        t.row(
            format!(
                "ia={}us drop={} {}",
                row.interarrival_us,
                row.drop,
                row.policy.label()
            ),
            vec![
                row.policy.label().to_string(),
                r.sent.to_string(),
                format!("{:.3}", r.goodput() * 100.0),
                r.reliability.retransmits.to_string(),
                r.reliability.hedges.to_string(),
                r.reliability.nacks_sent.to_string(),
                us(r.latency.median()),
                us(r.latency.p99()),
            ],
        );
    }
    t.render()
}

/// Build the canonical depth-`d` reliability scenario: quorum-1 fan-out
/// of two at tier 1 (so one crashed or partitioned backend never sinks
/// the join) and a single-leg chain below it, which keeps offered legs
/// linear in depth while exercising coordinator joins at every tier.
/// Service is deterministic at every tier so OS noise is the only
/// stack difference — the paper's comparison; heavy-tailed multipliers
/// would swamp the stack effect with stack-identical randomness.
pub fn scenario_for_depth(depth: usize, interarrival_us: u64) -> Scenario {
    let mut spec = format!("arrive=exp:{interarrival_us}us,svc=det,backend=det");
    if depth >= 1 {
        spec.push_str(",fanout=2:quorum:1");
        for t in 2..=depth {
            spec.push_str(&format!(",tier={t}:1:all"));
        }
    }
    Scenario::parse(&spec).expect("depth scenario spec parses")
}

/// One cell of the scenario-reliability grid.
#[derive(Debug, Clone)]
pub struct ScenarioReliabilityRow {
    pub stack: StackKind,
    /// Fault-scenario label from [`reliability_scenarios`].
    pub fault: String,
    pub policy: ReliabilityPolicy,
    /// Fan-out depth of the scenario the cell ran.
    pub depth: usize,
    pub report: ClusterReport,
}

/// The scenario-reliability grid: stack arm × fault scenario × retry
/// policy × fan-out depth, every cell a full scenario run through the
/// per-leg terminal-outcome pipeline. This is the figure the tentpole
/// is for: retried and hedged multi-tier traffic under crash faults is
/// where isolation overhead shows up in tails. `interarrival_us` is
/// the depth-1 arrival gap; deeper cells stretch it by their offered
/// phases per request (`2·depth + 1` for [`scenario_for_depth`]'s
/// shape) so per-server utilization — not the saturation point — is
/// what stays fixed across the depth axis. Pooled and deterministic
/// for any worker count; rows come back stack-major, then fault, then
/// depth, then policy. The static and adaptive arms run the default
/// [`RetryPolicy`] and [`AdaptivePolicy`].
pub fn scenario_reliability(
    nodes: usize,
    seed: u64,
    svcload: SvcLoadConfig,
    faults: &[(String, Option<String>)],
    depths: &[usize],
    interarrival_us: u64,
) -> Vec<ScenarioReliabilityRow> {
    let combos: Vec<(StackKind, String, Option<String>, usize, ReliabilityPolicy)> = ARMS
        .iter()
        .flat_map(|&stack| {
            faults.iter().flat_map(move |(name, spec)| {
                depths.iter().flat_map(move |&depth| {
                    let name = name.clone();
                    let spec = spec.clone();
                    ReliabilityPolicy::ALL
                        .iter()
                        .map(move |&policy| (stack, name.clone(), spec.clone(), depth, policy))
                })
            })
        })
        .collect();
    let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
        let (stack, _, spec, depth, policy) = &combos[i];
        let mut cfg = ClusterConfig::new(nodes, *stack, seed);
        cfg.svcload = svcload;
        let ia = interarrival_us * (2 * *depth as u64 + 1) / 3;
        cfg.scenario = Some(scenario_for_depth(*depth, ia));
        if let Some(s) = spec {
            let spec = FabricFaultSpec::parse(s).expect("fault specs parse");
            cfg.faults = Some((spec, seed ^ 0xFAB5));
        }
        policy.apply(&mut cfg, RetryPolicy::default(), AdaptivePolicy::default());
        cluster::run(&cfg)
    });
    combos
        .into_iter()
        .zip(reports)
        .map(
            |((stack, fault, _, depth, policy), report)| ScenarioReliabilityRow {
                stack,
                fault,
                policy,
                depth,
                report,
            },
        )
        .collect()
}

/// Render the scenario-reliability grid as a table.
pub fn render_scenario_reliability(rows: &[ScenarioReliabilityRow]) -> String {
    let nodes = rows.first().map(|r| r.report.nodes).unwrap_or(0);
    let mut t = Table::new(
        format!("scenario reliability grid (stack x fault x depth x policy), {nodes} nodes"),
        &[
            "policy",
            "sent",
            "goodput%",
            "retx",
            "hedges",
            "crashdrop",
            "joins",
            "p99 us",
        ],
    );
    for row in rows {
        let r = &row.report;
        let s = r.scenario.as_ref();
        t.row(
            format!(
                "{} {} d={} {}",
                row.stack.label(),
                row.fault,
                row.depth,
                row.policy.label()
            ),
            vec![
                row.policy.label().to_string(),
                r.sent.to_string(),
                format!("{:.3}", r.goodput() * 100.0),
                r.reliability.retransmits.to_string(),
                r.reliability.hedges.to_string(),
                r.reliability.crash_drops.to_string(),
                s.map(|s| format!("{}/{}", s.joins_ok, s.joins_ok + s.joins_failed))
                    .unwrap_or_else(|| "-".to_string()),
                us(r.latency.p99()),
            ],
        );
    }
    t.render()
}

/// Run the fan-out sweep: both server stacks × the given degrees, under
/// the same scenario otherwise. Degree 0 rows are the single-tier
/// baselines the amplification figures normalize against. Pooled and
/// deterministic for any worker count; rows come back in
/// (stack-major, degree-minor) order.
pub fn fanout_sweep(
    nodes: usize,
    seed: u64,
    svcload: SvcLoadConfig,
    base: &Scenario,
    degrees: &[usize],
) -> Vec<(StackKind, usize, ClusterReport)> {
    let combos: Vec<(StackKind, usize)> = ARMS
        .iter()
        .flat_map(|&stack| degrees.iter().map(move |&d| (stack, d)))
        .collect();
    let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
        let (stack, degree) = combos[i];
        let mut scn = base.clone();
        scn.fanout = degree;
        let mut cfg = ClusterConfig::new(nodes, stack, seed);
        cfg.svcload = svcload;
        cfg.scenario = Some(scn);
        cluster::run(&cfg)
    });
    combos
        .into_iter()
        .zip(reports)
        .map(|((stack, d), r)| (stack, d, r))
        .collect()
}

/// p99 amplification of each sweep row over its stack's first (lowest
/// degree) row — the figure's y-axis.
pub fn fanout_amplification(
    rows: &[(StackKind, usize, ClusterReport)],
) -> Vec<(StackKind, usize, f64)> {
    rows.iter()
        .map(|(stack, d, r)| {
            let base = rows
                .iter()
                .find(|(s, _, _)| s == stack)
                .map(|(_, _, b)| b.latency.p99())
                .unwrap_or(f64::NAN);
            (*stack, *d, r.latency.p99() / base)
        })
        .collect()
}

/// Render the fan-out sweep as the paper-style table.
pub fn render_fanout(rows: &[(StackKind, usize, ClusterReport)]) -> String {
    let nodes = rows.first().map(|(_, _, r)| r.nodes).unwrap_or(0);
    let amps = fanout_amplification(rows);
    let mut t = Table::new(
        format!("scenario fan-out sweep, {nodes} nodes"),
        &["fanout", "sent", "done", "p50 us", "p99 us", "p99 amp"],
    );
    for ((stack, d, r), (_, _, amp)) in rows.iter().zip(&amps) {
        t.row(
            format!("{} f={d}", stack.label()),
            vec![
                d.to_string(),
                r.sent.to_string(),
                r.completed.to_string(),
                us(r.latency.median()),
                us(r.latency.p99()),
                format!("{amp:.2}"),
            ],
        );
    }
    t.render()
}

/// Run the colocation comparison: both server stacks × {clean, with the
/// scenario's HPC neighbors}. The scenario must carry a `colocate`
/// clause; the clean arm strips it and changes nothing else.
pub fn colocation_compare(
    nodes: usize,
    seed: u64,
    svcload: SvcLoadConfig,
    scn: &Scenario,
) -> Vec<(StackKind, bool, ClusterReport)> {
    let combos: Vec<(StackKind, bool)> = ARMS
        .iter()
        .flat_map(|&stack| [(stack, false), (stack, true)])
        .collect();
    let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
        let (stack, colocated) = combos[i];
        let mut scn = scn.clone();
        if !colocated {
            scn.colocate = None;
        }
        let mut cfg = ClusterConfig::new(nodes, stack, seed);
        cfg.svcload = svcload;
        cfg.scenario = Some(scn);
        cluster::run(&cfg)
    });
    combos
        .into_iter()
        .zip(reports)
        .map(|((stack, c), r)| (stack, c, r))
        .collect()
}

/// Render the colocation comparison as a table.
pub fn render_colocation(rows: &[(StackKind, bool, ClusterReport)]) -> String {
    let nodes = rows.first().map(|(_, _, r)| r.nodes).unwrap_or(0);
    let mut t = Table::new(
        format!("scenario HPC colocation, {nodes} nodes"),
        &["neighbor", "sent", "done", "p50 us", "p99 us", "p999 us"],
    );
    for (stack, colocated, r) in rows {
        let neighbor = if *colocated {
            r.scenario
                .as_ref()
                .map(|s| format!("{:?}", s.hpc_nodes))
                .unwrap_or_else(|| "on".to_string())
        } else {
            "none".to_string()
        };
        t.row(
            format!("{}{}", stack.label(), if *colocated { "+hpc" } else { "" }),
            vec![
                neighbor,
                r.sent.to_string(),
                r.completed.to_string(),
                us(r.latency.median()),
                us(r.latency.p99()),
                us(r.latency.p999()),
            ],
        );
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_core::pool;

    #[test]
    fn ablation_orders_the_tails() {
        let reports = ablation_cluster(4, 2, SvcLoadConfig::quick());
        assert_eq!(reports.len(), ARMS.len());
        let (kitten, linux, theseus) = (&reports[0], &reports[1], &reports[2]);
        assert_eq!(kitten.server_stack, StackKind::HafniumKitten);
        assert_eq!(linux.server_stack, StackKind::HafniumLinux);
        assert_eq!(theseus.server_stack, StackKind::NativeTheseus);
        assert_eq!(kitten.sent, linux.sent, "identical offered load");
        assert_eq!(kitten.sent, theseus.sent, "identical offered load");
        assert!(kitten.latency.p99() <= linux.latency.p99());
        assert!(kitten.latency.p999() <= linux.latency.p999());
        // The safe-language arm is the lower bound: no stage-2, no
        // world switches, a quieter host.
        assert!(theseus.latency.p99() <= kitten.latency.p99());
        let table = render_cluster(&reports);
        assert!(table.contains("Kitten") && table.contains("Linux") && table.contains("Theseus"));
    }

    #[test]
    fn reliability_matrix_covers_the_scenarios() {
        let rows = reliability_matrix(4, 3, SvcLoadConfig::quick(), AdaptivePolicy::default());
        assert_eq!(rows.len(), 8, "4 scenarios x retries off/on");
        // The drop scenario: retries-off loses, retries-on recovers.
        let drop_off = rows
            .iter()
            .find(|(n, retries, _)| n == "drop0.05" && !retries)
            .unwrap();
        let drop_on = rows
            .iter()
            .find(|(n, retries, _)| n == "drop0.05" && *retries)
            .unwrap();
        assert!(drop_off.2.goodput() < 1.0);
        assert!(drop_on.2.goodput() >= 0.99);
        // The partition scenario: the breaker-armed adaptive arm never
        // does worse than no retries at all (the static policy did).
        let part_off = rows
            .iter()
            .find(|(n, retries, _)| n == "partition" && !retries)
            .unwrap();
        let part_on = rows
            .iter()
            .find(|(n, retries, _)| n == "partition" && *retries)
            .unwrap();
        assert!(
            part_on.2.goodput() >= part_off.2.goodput(),
            "adaptive {} vs off {}",
            part_on.2.goodput(),
            part_off.2.goodput()
        );
        let table = render_reliability(&rows);
        assert!(table.contains("crashsvc+retry"));
    }

    #[test]
    fn reliability_matrix_is_worker_count_independent() {
        let fingerprint = |jobs| {
            pool::set_jobs(jobs);
            let rows = reliability_matrix(4, 5, SvcLoadConfig::quick(), AdaptivePolicy::default());
            pool::set_jobs(1);
            rows.iter()
                .map(|(n, retries, r)| format!("{n},{retries}\n{}", r.csv()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn metastability_grid_covers_every_cell_once() {
        let rows = metastability_sweep(
            4,
            13,
            SvcLoadConfig::quick(),
            &[500, 300],
            &[0.0, 0.05],
            RetryPolicy {
                hedge_delay: Some(kh_sim::Nanos::from_millis(2)),
                ..RetryPolicy::default()
            },
            AdaptivePolicy::default(),
        );
        assert_eq!(rows.len(), 12, "2 loads x 2 drops x 3 policies");
        // Offered load depends only on the (load, drop) cell, not the
        // policy: arming a reliability layer perturbs nothing upstream.
        for cell in rows.chunks(3) {
            assert_eq!(cell[0].report.sent, cell[1].report.sent);
            assert_eq!(cell[0].report.sent, cell[2].report.sent);
        }
        // At the clean baseline cell, adaptive matches off's tail to
        // within the no-self-inflicted-tail gate.
        let off = &rows[0];
        let adaptive = &rows[2];
        assert_eq!(off.policy, ReliabilityPolicy::Off);
        assert_eq!(adaptive.policy, ReliabilityPolicy::Adaptive);
        assert!(
            adaptive.report.latency.p99() <= off.report.latency.p99() * 1.5,
            "adaptive p99 {} vs off {}",
            adaptive.report.latency.p99(),
            off.report.latency.p99()
        );
        let table = render_metastability(&rows);
        assert!(table.contains("adaptive") && table.contains("drop=0.05"));
    }

    #[test]
    fn metastability_sweep_is_worker_count_independent() {
        let fingerprint = |jobs| {
            pool::set_jobs(jobs);
            let rows = metastability_sweep(
                4,
                15,
                SvcLoadConfig::quick(),
                &[400],
                &[0.0, 0.05],
                RetryPolicy::default(),
                AdaptivePolicy::default(),
            );
            pool::set_jobs(1);
            rows.iter()
                .map(|r| {
                    format!(
                        "{},{},{}\n{}",
                        r.interarrival_us,
                        r.drop,
                        r.policy.label(),
                        r.report.csv()
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn fanout_sweep_amplifies_the_tail() {
        let scn = Scenario::parse("arrive=exp:800us,svc=det,backend=exp").unwrap();
        let rows = fanout_sweep(8, 7, SvcLoadConfig::quick(), &scn, &[0, 2]);
        assert_eq!(rows.len(), ARMS.len() * 2, "every arm x 2 degrees");
        let amps = fanout_amplification(&rows);
        for (stack, d, amp) in &amps {
            if *d == 0 {
                assert!((amp - 1.0).abs() < 1e-9, "{stack:?} baseline amp {amp}");
            } else {
                assert!(
                    *amp >= 1.0,
                    "{stack:?} f={d}: fan-out joins wait on the slowest leg (amp {amp})"
                );
            }
        }
        let table = render_fanout(&rows);
        assert!(table.contains("p99 amp"));
    }

    #[test]
    fn colocation_compare_strips_only_the_neighbor() {
        let scn = Scenario::parse("arrive=exp:700us,svc=exp,colocate=hpcg:5").unwrap();
        let rows = colocation_compare(8, 9, SvcLoadConfig::quick(), &scn);
        assert_eq!(rows.len(), ARMS.len() * 2, "every arm x clean/colocated");
        for pair in rows.chunks(2) {
            let (clean, colo) = (&pair[0].2, &pair[1].2);
            assert!(!pair[0].1 && pair[1].1);
            assert_eq!(clean.sent, colo.sent, "open loop: same offered load");
            assert!(colo.latency.p99() >= clean.latency.p99());
            assert!(clean.scenario.as_ref().unwrap().hpc_nodes.is_empty());
            assert_eq!(colo.scenario.as_ref().unwrap().hpc_nodes, vec![5]);
        }
        let table = render_colocation(&rows);
        assert!(table.contains("+hpc"));
    }

    #[test]
    fn scenario_figures_are_worker_count_independent() {
        let scn = Scenario::parse("arrive=exp:800us,backend=exp,colocate=hpcg:6").unwrap();
        let fingerprint = |jobs| {
            pool::set_jobs(jobs);
            let sweep = fanout_sweep(8, 11, SvcLoadConfig::quick(), &scn, &[1, 2]);
            let colo = colocation_compare(8, 11, SvcLoadConfig::quick(), &scn);
            pool::set_jobs(1);
            sweep
                .iter()
                .map(|(_, _, r)| r.csv())
                .chain(colo.iter().map(|(_, _, r)| r.csv()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn scenario_reliability_grid_covers_every_cell() {
        let faults = vec![
            ("no-faults".to_string(), None),
            ("crashsvc".to_string(), Some("crashsvc@4ms:5".to_string())),
        ];
        let rows = scenario_reliability(8, 21, SvcLoadConfig::quick(), &faults, &[1, 2], 900);
        assert_eq!(
            rows.len(),
            ARMS.len() * 2 * 2 * 3,
            "arm x fault x depth x policy"
        );
        // Offered load depends only on the (fault, depth) cell: arming
        // a policy never perturbs the arrival stream.
        for cell in rows.chunks(3) {
            assert_eq!(cell[0].report.sent, cell[1].report.sent);
            assert_eq!(cell[0].report.sent, cell[2].report.sent);
        }
        for row in &rows {
            let s = row.report.scenario.as_ref().unwrap();
            assert_eq!(s.depth, row.depth);
            if row.fault == "crashsvc" {
                assert_eq!(row.report.recoveries.len(), 1, "crash must recover");
            } else {
                assert!(row.report.recoveries.is_empty());
            }
        }
        let table = render_scenario_reliability(&rows);
        assert!(table.contains("crashsvc d=2 adaptive"));
    }

    #[test]
    fn scenario_reliability_is_worker_count_independent() {
        let faults = vec![("crashsvc".to_string(), Some("crashsvc@4ms:5".to_string()))];
        let fingerprint = |jobs| {
            pool::set_jobs(jobs);
            let rows = scenario_reliability(8, 23, SvcLoadConfig::quick(), &faults, &[2], 900);
            pool::set_jobs(1);
            rows.iter()
                .map(|r| {
                    format!(
                        "{},{},{},{}\n{}",
                        r.stack.label(),
                        r.fault,
                        r.depth,
                        r.policy.label(),
                        r.report.csv()
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn ablation_is_worker_count_independent() {
        let render = |jobs| {
            pool::set_jobs(jobs);
            let r = ablation_cluster(4, 6, SvcLoadConfig::quick());
            pool::set_jobs(1);
            let csv: Vec<String> = r.iter().map(|x| x.csv()).collect();
            (render_cluster(&r), csv)
        };
        assert_eq!(render(1), render(2));
    }
}

//! `khbench` — wall-clock performance harness for the simulator itself.
//!
//! Each subcommand is a cell of one harness ([`kh_bench::harness`]): it
//! parses the same flags, checks determinism across `--jobs 1/2/N` plus
//! a same-seed rerun, writes one JSON artifact with a `"gates"` object
//! (and a `"margins"` object for the comparison gates), and exits
//! non-zero when any gate fails. `khbench` with no arguments prints the
//! usage, generated from the cell table below.
//!
//! | cell | artifact | what it gates |
//! |------|----------|---------------|
//! | `perf` | `BENCH_parallel_walkcache.json` | pooled figure grid == serial; reports per-cell wall time and the walk cache on gups |
//! | `cluster` | `BENCH_cluster_svcload.json` | svcload ablation: Kitten ≤ Linux tails, Theseus ≤ Kitten p99 |
//! | `attestation` | `BENCH_cluster_attestation.json` | attested ablation ordering; a tampered node is quarantined without touching healthy nodes |
//! | `reliability` | `BENCH_cluster_reliability.json` | fault matrix: goodput with retries under drop, crash recovery budget, no self-shedding |
//! | `adaptive` | `BENCH_cluster_adaptive.json` | metastability: adaptive no-faults tail and partition goodput |
//! | `scenario` | `BENCH_cluster_scenario.json` | fan-out amplification, Kitten ≤ Linux, HPC-neighbour noise isolation |
//! | `scenario-reliability` | `BENCH_cluster_scenario_reliability.json` | adaptive ≥ static under crash, healthy-node noise, Theseus ≤ Kitten ≤ Linux at depth ≥ 2 |
//! | `hotpath` | `BENCH_host_hotpath.json` | walk-cache sim fields identical to the perf artifact; wheel ≥ heap; cached translate ≥ raw walk |

use kh_arch::mmu::{two_stage_translate, AccessKind, MemAttr, PagePerms, Stage1Table, Stage2Table};
use kh_arch::platform::Platform;
use kh_arch::walkcache::{WalkCache, WalkCacheStats};
use kh_bench::harness::{self, deterministic, member, time_median, Cell, Gate, Json, Opts, Report};
use kh_cluster::figures::{self as fig, ReliabilityPolicy, ARMS};
use kh_cluster::{ClusterConfig, ClusterReport};
use kh_core::config::{StackKind, StackOptions};
use kh_core::experiment::run_trials_pooled;
use kh_core::machine::Machine;
use kh_core::pool::Pool;
use kh_core::MachineConfig;
use kh_sim::{FabricFaultSpec, FaultPlan, FaultSpec, Nanos, SimRng};
use kh_workloads::adaptive::AdaptivePolicy;
use kh_workloads::gups::{GupsConfig, GupsModel};
use kh_workloads::hpcg::{HpcgConfig, HpcgModel};
use kh_workloads::netecho::{NetEchoConfig, NetEchoModel};
use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
use kh_workloads::svcload::{RetryPolicy, SvcLoadConfig};
use kh_workloads::Workload;
use std::process::ExitCode;

const PAGE_SIZE: u64 = 1 << 12;

/// The cells: name, default `--out`, default `--nodes` (none = the cell
/// runs no cluster), run function.
const CELLS: &[Cell] = &[
    Cell::new("perf", "BENCH_parallel_walkcache.json", None, perf),
    Cell::new("cluster", "BENCH_cluster_svcload.json", Some(4), cluster),
    Cell::new(
        "attestation",
        "BENCH_cluster_attestation.json",
        Some(4),
        attestation,
    ),
    Cell::new(
        "reliability",
        "BENCH_cluster_reliability.json",
        Some(4),
        reliability,
    ),
    Cell::new("adaptive", "BENCH_cluster_adaptive.json", Some(4), adaptive),
    Cell::new("scenario", "BENCH_cluster_scenario.json", Some(8), scenario),
    Cell::new(
        "scenario-reliability",
        "BENCH_cluster_scenario_reliability.json",
        Some(8),
        scenario_reliability,
    ),
    Cell {
        pooled: false,
        baseline: Some("BENCH_parallel_walkcache.json"),
        ..Cell::new("hotpath", "BENCH_host_hotpath.json", None, hotpath)
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// Parse the command line, run the cell, write its artifact. Exit 2 on
/// a bad command line, 1 when the write fails or any gate fails.
fn run(args: &[String]) -> ExitCode {
    let (cell, o) = match harness::parse(CELLS, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", harness::usage(CELLS));
            return ExitCode::from(2);
        }
    };
    eprintln!("khbench {}: {o:?}", cell.name);
    kh_core::pool::set_jobs(o.jobs);
    let report = (cell.run)(&o);
    if let Err(e) = std::fs::write(&o.out, report.artifact(cell, &o)) {
        eprintln!("error: cannot write {}: {e}", o.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", o.out);
    report.verdict()
}

fn svcload(quick: bool) -> SvcLoadConfig {
    if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    }
}

/// Every report's per-request trace, attestation verdicts folded in:
/// the fingerprint the cluster cells' determinism gates compare.
fn traces<'a>(reports: impl IntoIterator<Item = &'a ClusterReport>) -> String {
    reports
        .into_iter()
        .map(|r| {
            let attest = r.attestation.as_ref().map(|a| a.csv()).unwrap_or_default();
            format!("{attest}---\n{}", r.csv())
        })
        .collect::<Vec<_>>()
        .join("===\n")
}

/// Named leaves of a cluster report, rendered alike in every cell.
/// `keys` is a space-separated list.
fn report_fields(r: &ClusterReport, keys: &'static str) -> Vec<(&'static str, Json)> {
    let (rel, o) = (&r.reliability, &r.reliability.outcomes);
    let scn = || r.scenario.as_ref().expect("scenario run");
    let recovery = |rec: &kh_cluster::RecoveryRecord| {
        Json::Obj(vec![
            ("node", rec.node.into()),
            ("crashed_at_ns", rec.crashed_at.as_nanos().into()),
            ("detected_at_ns", rec.detected_at.as_nanos().into()),
            ("recovered_at_ns", rec.recovered_at.as_nanos().into()),
            ("downtime_ns", rec.downtime().as_nanos().into()),
        ])
    };
    let leaf = |key: &str| -> Json {
        match key {
            "stack" => r.server_stack.label().into(),
            "sent" => r.sent.into(),
            "completed" => r.completed.into(),
            "goodput" => Json::num(r.goodput(), 6),
            "p50_ns" => Json::num(r.latency.median(), 0),
            "p99_ns" => Json::num(r.latency.p99(), 0),
            "p999_ns" => Json::num(r.latency.p999(), 0),
            "max_ns" => Json::num(r.latency.max(), 0),
            "retransmits" => rel.retransmits.into(),
            "hedges" => rel.hedges.into(),
            "nacks_sent" => rel.nacks_sent.into(),
            "corrupt_rx" => rel.corrupt_rx.into(),
            "crash_drops" => rel.crash_drops.into(),
            "retries_suppressed" => rel.retries_suppressed.into(),
            "hedges_suppressed" => rel.hedges_suppressed.into(),
            "dups_absorbed" => rel.dups_absorbed.into(),
            "breaker_opens" => rel.breaker_opens.into(),
            "shed" => o.shed.into(),
            "outcomes" => Json::Obj(vec![
                ("ok", o.ok.into()),
                ("ok_hedged", o.ok_hedged.into()),
                ("shed", o.shed.into()),
                ("deadline", o.deadline.into()),
                ("corrupt", o.corrupt.into()),
                ("failed", o.failed.into()),
            ]),
            "recoveries" => Json::Arr(r.recoveries.iter().map(recovery).collect()),
            "legs_sent" => scn().legs_sent.into(),
            "legs_ok" => scn().legs_ok.into(),
            "joins_ok" => scn().joins_ok.into(),
            "joins_failed" => scn().joins_failed.into(),
            "hpc_nodes" => scn().hpc_nodes.clone().into(),
            "hpc_quanta" => scn().hpc_quanta.into(),
            "hpc_busy_ns" => scn().hpc_busy.as_nanos().into(),
            _ => unreachable!("no report leaf {key}"),
        }
    };
    keys.split_whitespace().map(|k| (k, leaf(k))).collect()
}

/// One artifact row: the cell's own `head` fields, then report leaves.
fn row(mut head: Vec<(&'static str, Json)>, r: &ClusterReport, keys: &'static str) -> Json {
    head.extend(report_fields(r, keys));
    Json::Obj(head)
}

fn small_gups() -> Box<dyn Workload + Send> {
    Box::new(GupsModel::new(GupsConfig {
        log2_table: 19,
        updates_per_entry: 2,
    }))
}

/// One wall-clock cell: a full Machine::run of the named workload.
fn cell_run(name: &'static str, seed: u64) -> impl FnMut() {
    move || {
        let mut m = Machine::new(MachineConfig::pine_a64(StackKind::HafniumKitten, seed));
        let duration = Nanos::from_millis(300);
        let selfish = || {
            let config = SelfishConfig {
                duration,
                ..Default::default()
            };
            Box::new(SelfishDetour::new(config))
        };
        let mut w: Box<dyn Workload> = match name {
            "gups" => small_gups(),
            "selfish" => selfish(),
            "netecho" => Box::new(NetEchoModel::new(NetEchoConfig::default())),
            "hpcg" => Box::new(HpcgModel::new(HpcgConfig::default())),
            "fault-storm" => {
                let spec = FaultSpec::parse(kh_core::figures::DEFAULT_FAULT_SPEC);
                let plan = FaultPlan::new(&spec.expect("builtin fault spec"), seed ^ 1, duration);
                m.inject_faults(plan);
                selfish()
            }
            other => panic!("unknown cell {other}"),
        };
        m.run(w.as_mut());
    }
}

/// Run the multi-trial grid (gups under every stack) on `pool` and
/// return a Debug fingerprint of every report, for bit-identity checks.
fn grid_fingerprint(pool: &Pool, trials: u32, seed: u64) -> String {
    let mut out = String::new();
    for &stack in &StackKind::ALL {
        let stats = run_trials_pooled(
            pool,
            Platform::pine_a64_lts(),
            stack,
            StackOptions::default(),
            trials,
            seed,
            small_gups,
        );
        out.push_str(&format!("{:?}\n", stats.reports));
    }
    out
}

struct WalkCacheResults {
    virtual_analytic_ns: u64,
    virtual_cached_ns: u64,
    virtual_speedup: f64,
    stats: WalkCacheStats,
    translate_uncached_ns: f64,
    translate_cached_ns: f64,
    translate_speedup: f64,
}

/// The simulated walk-cache leaves: `perf` writes them into its artifact
/// and `hotpath` looks for them in it, both from this one list.
fn walk_cache_sim_fields(wc: &WalkCacheResults) -> Vec<(&'static str, Json)> {
    let s = &wc.stats;
    vec![
        (
            "gups_virtual_elapsed_analytic_ns",
            wc.virtual_analytic_ns.into(),
        ),
        (
            "gups_virtual_elapsed_cached_ns",
            wc.virtual_cached_ns.into(),
        ),
        ("gups_virtual_speedup", Json::num(wc.virtual_speedup, 4)),
        ("hit_rate", Json::num(s.hit_rate(), 6)),
        ("hits", s.hits.into()),
        ("s1_prefix_hits", s.s1_prefix_hits.into()),
        ("misses", s.misses.into()),
        ("invalidations", s.invalidations.into()),
        ("steps_paid", s.steps_paid.into()),
        ("steps_saved", s.steps_saved.into()),
        ("walk_cost_factor", Json::num(s.walk_cost_factor(), 6)),
    ]
}

/// The host-time translate leaves `perf` and `hotpath` both report.
fn translate_fields(wc: &WalkCacheResults) -> [(&'static str, Json); 3] {
    [
        (
            "translate_uncached_ns_per_access",
            Json::num(wc.translate_uncached_ns, 2),
        ),
        (
            "translate_cached_ns_per_access",
            Json::num(wc.translate_cached_ns, 2),
        ),
        ("translate_wall_speedup", Json::num(wc.translate_speedup, 4)),
    ]
}

/// Shared fixture for the functional-translation microbenches: a
/// fragmented pair of stage tables plus a uniform-random access stream.
/// The guest heap is mapped page-by-page — how a guest kernel actually
/// populates a heap (fault-in order, no contiguity guarantee) — so the
/// stage-1 table is fragmented into one extent per page and an uncached
/// translate pays a real descent over it. The hypervisor's stage-2 uses
/// 2 MiB chunks, its realistic granularity.
struct TranslateFixture {
    s1: Stage1Table,
    s2: Stage2Table,
    vas: Vec<u64>,
}

fn translate_fixture(seed: u64, quick: bool) -> TranslateFixture {
    let pages: u64 = 4096; // 16 MiB of 4 KiB guest mappings
    let mut s1 = Stage1Table::new(1);
    for p in 0..pages {
        let (va, pa) = (0x4000_0000 + p * PAGE_SIZE, p * PAGE_SIZE);
        s1.map_with_granule(va, pa, PAGE_SIZE, PagePerms::RW, MemAttr::Normal, false)
            .unwrap();
    }
    let mut s2 = Stage2Table::new(2);
    let chunk: u64 = 512 * PAGE_SIZE; // 2 MiB
    for pa in (0..pages * PAGE_SIZE).step_by(chunk as usize) {
        s2.map(pa, 0x8000_0000 + pa, chunk, PagePerms::RWX, MemAttr::Normal)
            .unwrap();
    }
    let accesses: u64 = if quick { 50_000 } else { 200_000 };
    let vas: Vec<u64> = {
        let mut rng = SimRng::new(seed ^ 0x77616C6B);
        (0..accesses)
            .map(|_| 0x4000_0000 + rng.next_below(pages) * PAGE_SIZE)
            .collect()
    };
    TranslateFixture { s1, s2, vas }
}

/// Measure the walk cache on gups: simulated per-trial speedup (analytic
/// full-walk pricing vs replay-discounted pricing) and the raw wall-clock
/// cost of cached vs uncached functional translation.
fn walk_cache_bench(seed: u64, quick: bool) -> WalkCacheResults {
    let run = |model: bool| {
        let mut cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, seed);
        cfg.options.model_translation = model;
        let mut w = small_gups();
        Machine::new(cfg).run(w.as_mut())
    };
    let analytic = run(false);
    let cached = run(true);
    let stats = cached.walk_cache.expect("modeled run records stats");

    // Functional-translation microbench: same access stream through the
    // raw nested walk and through the walk cache.
    let TranslateFixture { s1, s2, vas } = translate_fixture(seed, quick);
    let accesses = vas.len() as u64;
    let repeats = if quick { 3 } else { 5 };
    let uncached_ns = time_median(repeats, || {
        let mut steps = 0u64;
        for &va in &vas {
            let (_, s) = two_stage_translate(&s1, &s2, va, AccessKind::Read).unwrap();
            steps += s as u64;
        }
        assert!(steps > 0);
    });
    let cached_ns = time_median(repeats, || {
        let mut wc = WalkCache::default();
        let mut hits = 0u64;
        for &va in &vas {
            let (_, s) = wc.translate2(&s1, &s2, va, AccessKind::Read).unwrap();
            hits += (s == 0) as u64;
        }
        assert!(hits > 0);
    });

    WalkCacheResults {
        virtual_analytic_ns: analytic.elapsed.as_nanos(),
        virtual_cached_ns: cached.elapsed.as_nanos(),
        virtual_speedup: analytic.elapsed.as_nanos() as f64
            / cached.elapsed.as_nanos().max(1) as f64,
        stats,
        translate_uncached_ns: uncached_ns as f64 / accesses as f64,
        translate_cached_ns: cached_ns as f64 / accesses as f64,
        translate_speedup: uncached_ns as f64 / cached_ns.max(1) as f64,
    }
}

/// `perf`: the pooled-vs-serial figure grid (gups under every stack),
/// per-workload Machine::run wall time, and the walk cache on gups.
fn perf(o: &Opts) -> Report {
    let trials: u32 = if o.quick { 4 } else { 8 };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint_at = |workers| grid_fingerprint(&Pool::new(workers), trials, o.seed);
    let (mut identical, _) = deterministic(o.jobs, fingerprint_at, String::clone);
    identical.name = "pooled_equals_serial";
    let serial_ns = time_median(o.repeats, || drop(fingerprint_at(1)));
    let pooled_ns = time_median(o.repeats, || drop(fingerprint_at(o.jobs)));
    let speedup = serial_ns as f64 / pooled_ns.max(1) as f64;
    eprintln!("grid: serial {serial_ns} ns, pooled {pooled_ns} ns, speedup {speedup:.2}x");
    let grid = Json::Obj(vec![
        ("cells", StackKind::ALL.len().into()),
        ("trials_per_cell", trials.into()),
        ("serial_wall_ns", serial_ns.into()),
        ("pooled_wall_ns", pooled_ns.into()),
        ("speedup", Json::num(speedup, 4)),
    ]);
    let cells = ["gups", "selfish", "netecho", "hpcg", "fault-storm"].map(|name| {
        let ns = time_median(o.repeats, cell_run(name, o.seed));
        eprintln!("cell {name}: median {:.2} ms", ns as f64 / 1e6);
        let repeats = o.repeats.into();
        Json::Obj(vec![
            ("name", name.into()),
            ("median_wall_ns", ns.into()),
            ("repeats", repeats),
        ])
    });
    let wc = walk_cache_bench(o.seed, o.quick);
    let mut walk_cache = walk_cache_sim_fields(&wc);
    walk_cache.extend(translate_fields(&wc));
    Report {
        schema: "khbench-perf-v2",
        fields: vec![
            ("host_parallelism", host.into()),
            ("grid", grid),
            ("cells", Json::Arr(cells.to_vec())),
            ("walk_cache", Json::Obj(walk_cache)),
        ],
        gates: vec![identical],
    }
}

/// `cluster`: the svcload ablation (Kitten, Linux, Theseus servers under
/// identical offered load), with per-arm wall time.
fn cluster(o: &Opts) -> Report {
    let svcload = svcload(o.quick);
    let run = |_| fig::ablation_cluster(o.nodes, o.seed, svcload);
    let (det, arms) = deterministic(o.jobs, run, |arms| traces(arms));
    eprintln!("{}", fig::render_cluster(&arms));
    let rows = arms.iter().map(|r| {
        let wall = time_median(o.repeats, || {
            let mut cfg = ClusterConfig::new(o.nodes, r.server_stack, o.seed);
            cfg.svcload = svcload;
            assert_eq!(kh_cluster::run(&cfg).sent, r.sent);
        });
        let keys = "stack sent completed p50_ns p99_ns p999_ns max_ns";
        row(vec![("median_wall_ns", wall.into())], r, keys)
    });
    let (k, l, t) = (&arms[0].latency, &arms[1].latency, &arms[2].latency);
    let kitten_vs_linux = [(k.p99(), l.p99()), (k.p999(), l.p999())];
    Report {
        schema: "khbench-cluster-svcload-v2",
        fields: vec![
            ("clients", arms[0].clients.into()),
            ("servers", arms[0].servers.into()),
            ("arms", Json::Arr(rows.collect())),
        ],
        gates: vec![
            det,
            Gate::le("tail_ordering_holds", &kitten_vs_linux),
            Gate::le("theseus_p99_le_kitten", &[(t.p99(), k.p99())]),
        ],
    }
}

/// `attestation`: the cluster bring-up attestation cell.
///
/// 1. **Handshake cost vs cluster size** — the all-pairs
///    challenge/response mesh over growing node counts: frames and
///    bytes grow quadratically, simulated completion time linearly
///    (verifiers sweep their peers in parallel).
/// 2. **Attested three-arm ablation** — svcload under Theseus, Kitten,
///    and Linux server arms with the handshake armed, gated on
///    byte-identical traces (attestation verdicts included) and on the
///    tail ordering Theseus <= Kitten <= Linux at p99.
/// 3. **Tamper cell** — `tamper@<last server>` forges one node's boot
///    measurement. The gate demands that node quarantined (every
///    request routed at it refused at arrival, zero attempts) while
///    every healthy server's records and every node's noise histogram
///    stay byte-identical to the tamper-free attested run.
fn attestation(o: &Opts) -> Report {
    use kh_cluster::{Node, RequestRecord, Role};
    use kh_virtio::LinkProfile;
    use kh_workloads::svcload::RequestOutcome;

    let svcload = svcload(o.quick);
    // Handshake cost vs cluster size, on a mesh built with the same
    // role split and seed discipline as a cluster run.
    let platform = Platform::pine_a64_lts();
    let link = LinkProfile::from_platform(&platform);
    let sizes = &[4usize, 8, 16, 32][..if o.quick { 3 } else { 4 }];
    let handshake = sizes.iter().map(|&n| {
        let mut node_seeds = SimRng::new(o.seed ^ 0x6B68_636C_7573); // "khclus"
        let mesh: Vec<Node> = (0..n)
            .map(|i| {
                let role = if i < n / 2 {
                    Role::Client
                } else {
                    Role::Server
                };
                let seed = node_seeds.split(i as u64).next_u64();
                Node::new(i as u16, role, StackKind::HafniumKitten, platform, seed)
            })
            .collect();
        let rep = kh_cluster::handshake(&mesh, o.seed, &[], &link);
        let wall = time_median(o.repeats, || {
            assert!(kh_cluster::handshake(&mesh, o.seed, &[], &link).all_clean());
        });
        Json::Obj(vec![
            ("nodes", n.into()),
            ("frames", rep.frames.into()),
            ("bytes", rep.bytes.into()),
            ("completed_at_ns", rep.completed_at.as_nanos().into()),
            ("median_wall_ns", wall.into()),
        ])
    });
    let handshake = Json::Arr(handshake.collect());

    let attested = |stack, tamper: Option<u16>| {
        let mut cfg = ClusterConfig::new(o.nodes, stack, o.seed);
        cfg.svcload = svcload;
        cfg.attest = true;
        if let Some(victim) = tamper {
            let spec = FabricFaultSpec::parse(&format!("tamper@{victim}")).expect("tamper spec");
            cfg.faults = Some((spec, 1));
        }
        kh_cluster::run(&cfg)
    };
    let run = |_| Pool::with_default_jobs().run_indexed(ARMS.len(), |i| attested(ARMS[i], None));
    let (det, arms) = deterministic(o.jobs, run, |arms| traces(arms));
    let (k, l, t) = (&arms[0].latency, &arms[1].latency, &arms[2].latency);

    // Tamper cell: forge the last server's measurement and diff against
    // the tamper-free attested run.
    let victim = (o.nodes - 1) as u16;
    let clean = attested(StackKind::HafniumKitten, None);
    let tampered = attested(StackKind::HafniumKitten, Some(victim));
    let quarantined = tampered.attestation.as_ref().map(|a| a.quarantined.clone());
    let on_victim = |rec: &&RequestRecord| rec.server == victim;
    let refused: Vec<_> = tampered.records.iter().filter(on_victim).collect();
    let refused_at_arrival =
        |rec: &&RequestRecord| rec.outcome == RequestOutcome::Refused && rec.attempts == 0;
    let quarantine = quarantined == Some(vec![victim])
        && !refused.is_empty()
        && refused.iter().all(refused_at_arrival);
    let healthy = |rep: &ClusterReport| {
        let recs = rep.records.iter().filter(|rec| !on_victim(rec));
        recs.cloned().collect::<Vec<_>>()
    };
    let nodes = clean.per_node.iter().zip(&tampered.per_node);
    let identical = healthy(&clean) == healthy(&tampered)
        && nodes.into_iter().all(|(c, t)| c.noise_hist == t.noise_hist);
    let n = refused.len();
    eprintln!("tamper@{victim}: quarantined {quarantined:?}, {n} refused");

    let rows = arms.iter().map(|r| {
        let a = r.attestation.as_ref().expect("attested arm");
        let mut row = report_fields(r, "stack sent completed p50_ns p99_ns p999_ns");
        row.push(("attest_frames", a.frames.into()));
        row.push(("attest_done_ns", a.completed_at.as_nanos().into()));
        Json::Obj(row)
    });
    Report {
        schema: "khbench-cluster-attestation-v2",
        fields: vec![
            ("handshake", handshake),
            ("arms", Json::Arr(rows.collect())),
        ],
        gates: vec![
            det,
            Gate::le("theseus_p99_le_kitten", &[(t.p99(), k.p99())]),
            Gate::le("kitten_p99_le_linux", &[(k.p99(), l.p99())]),
            Gate::holds("tamper_quarantined", quarantine, "victim not quarantined"),
            Gate::holds("healthy_byte_identity", identical, "healthy nodes moved"),
        ],
    }
}

/// `reliability`: `{no-faults, drop:0.05, partition, crashsvc}` x
/// `{retries off, on}` on Kitten servers. The retries-on arm runs the
/// *adaptive* policy — live-quantile hedging, token-bucket retry
/// budgets, per-destination circuit breakers — so hedge delays track
/// the observed latency instead of a frozen fault-free baseline (the
/// frozen configuration self-inflicted sheds under zero faults).
fn reliability(o: &Opts) -> Report {
    let svcload = svcload(o.quick);
    let run = || fig::reliability_matrix(o.nodes, o.seed, svcload, AdaptivePolicy::default());
    let (det, rows) = deterministic(o.jobs, |_| run(), |rows| traces(rows.iter().map(|r| &r.2)));
    eprintln!("{}", fig::render_reliability(&rows));
    let wall_ns = time_median(o.repeats, || assert_eq!(run().len(), rows.len()));

    let find = |name: &str, retries: bool| -> &ClusterReport {
        let hit = rows.iter().find(|(n, on, _)| n == name && *on == retries);
        &hit.expect("matrix covers all scenarios").2
    };
    let no_faults_on = &find("no-faults", true).reliability;
    let no_shed = no_faults_on.outcomes.shed == 0 && no_faults_on.nacks_sent == 0;
    let cfg = ClusterConfig::new(o.nodes, StackKind::HafniumKitten, o.seed);
    let budget = (cfg.detect_latency + cfg.restart_cost + Nanos::from_millis(1)).as_nanos() as f64;
    let crashes = [find("crashsvc", false), find("crashsvc", true)];
    let recovered = crashes.iter().all(|r| {
        !r.recoveries.is_empty()
            && r.recoveries
                .iter()
                .all(|rec| rec.recovered_at != Nanos::MAX)
    });
    let recoveries = crashes.iter().flat_map(|r| &r.recoveries);
    let downtimes: Vec<_> = recoveries
        .map(|rec| (rec.downtime().as_nanos() as f64, budget))
        .collect();
    let goodput = |name, retries| find(name, retries).goodput();

    let keys = "sent goodput p99_ns retransmits hedges nacks_sent corrupt_rx crash_drops \
                retries_suppressed hedges_suppressed dups_absorbed breaker_opens outcomes recoveries";
    let rows = rows.iter().map(|(name, retries, r)| {
        let head = vec![
            ("scenario", name.as_str().into()),
            ("retries", (*retries).into()),
        ];
        row(head, r, keys)
    });
    Report {
        schema: "khbench-cluster-reliability-v2",
        fields: vec![
            ("policy", "adaptive".into()),
            ("matrix_median_wall_ns", wall_ns.into()),
            ("rows", Json::Arr(rows.collect())),
        ],
        gates: vec![
            det,
            Gate::lt(
                "retries_off_loses_requests",
                &[(goodput("drop0.05", false), 1.0)],
            ),
            Gate::ge("goodput_gate_met", &[(goodput("drop0.05", true), 0.99)]),
            Gate::le("crash_recovery_within_gate", &downtimes)
                .requires(recovered, "a crashed service VM never recovered"),
            Gate::holds("no_self_shedding", no_shed, "sheds with no faults"),
            Gate::ge(
                "partition_no_worse",
                &[(goodput("partition", true), goodput("partition", false))],
            ),
        ],
    }
}

/// `adaptive`: the metastability cell — `{no-faults, drop:0.05,
/// partition}` x `{off, static frozen-hedge, adaptive}` plus the load x
/// drop metastability grid. The static arm carries the frozen
/// baseline-derived hedge delay (the historical configuration whose load
/// feedback collapses the tail); the adaptive arm is the fix under test.
fn adaptive(o: &Opts) -> Report {
    let svcload = svcload(o.quick);
    let kitten = || {
        let mut cfg = ClusterConfig::new(o.nodes, StackKind::HafniumKitten, o.seed);
        cfg.svcload = svcload;
        cfg
    };
    // The static hedge is frozen at a clean pre-run's p99, which keeps
    // the whole cell a pure function of `(config, seed)`.
    let baseline = kh_cluster::run(&kitten()).latency.p99();
    let mut static_policy = RetryPolicy::default();
    if baseline.is_finite() && baseline > 0.0 {
        static_policy.hedge_delay = Some(Nanos::from_nanos(baseline as u64));
    }
    let adaptive_policy = AdaptivePolicy::default();

    // The scenario matrix: the reliability sweep's first three fault
    // scenarios under every policy.
    let scenarios = fig::reliability_scenarios(o.nodes).into_iter().take(3);
    let combos: Vec<_> = scenarios
        .flat_map(|(name, spec)| ReliabilityPolicy::ALL.map(|p| (name.clone(), spec.clone(), p)))
        .collect();
    let run_matrix = || {
        Pool::with_default_jobs().run_indexed(combos.len(), |i| {
            let (_, spec, policy) = &combos[i];
            let mut cfg = kitten();
            if let Some(s) = spec {
                let spec = FabricFaultSpec::parse(s).expect("scenario specs parse");
                cfg.faults = Some((spec, o.seed ^ 0xFAB5));
            }
            policy.apply(&mut cfg, static_policy, adaptive_policy);
            kh_cluster::run(&cfg)
        })
    };
    let (loads, drops): (&[u64], &[f64]) = match o.quick {
        true => (&[500, 300], &[0.0, 0.05]),
        false => (&[500, 350, 250], &[0.0, 0.02, 0.05]),
    };
    let (n, seed) = (o.nodes, o.seed);
    let run_grid = || {
        fig::metastability_sweep(
            n,
            seed,
            svcload,
            loads,
            drops,
            static_policy,
            adaptive_policy,
        )
    };
    let (det, (rows, grid)) = deterministic(
        o.jobs,
        |_| (run_matrix(), run_grid()),
        |(rows, grid)| traces(rows.iter().chain(grid.iter().map(|g| &g.report))),
    );
    eprintln!("{}", fig::render_metastability(&grid));
    let wall_ns = time_median(o.repeats, || assert_eq!(run_matrix().len(), rows.len()));

    let find = |name: &str, policy| {
        let at = combos
            .iter()
            .position(|(n, _, p)| n == name && *p == policy);
        &rows[at.expect("matrix covers every cell")]
    };
    let by_policy = |name, value: fn(&ClusterReport) -> f64, digits| {
        let cell = |p: ReliabilityPolicy| (p.label(), Json::num(value(find(name, p)), digits));
        Json::Obj(ReliabilityPolicy::ALL.map(cell).to_vec())
    };
    let p99 = |p| find("no-faults", p).latency.p99();
    let goodput = |p| find("partition", p).goodput();
    let (off, adaptive) = (ReliabilityPolicy::Off, ReliabilityPolicy::Adaptive);
    let keys = "sent goodput p50_ns p99_ns retransmits hedges nacks_sent retries_suppressed \
                hedges_suppressed dups_absorbed breaker_opens outcomes";
    let scenarios = combos.iter().zip(&rows).map(|((name, _, p), r)| {
        let head = vec![
            ("scenario", name.as_str().into()),
            ("policy", p.label().into()),
        ];
        row(head, r, keys)
    });
    let grid_rows = grid.iter().map(|g| {
        let head = vec![
            ("interarrival_us", g.interarrival_us.into()),
            ("drop", Json::Num(g.drop.to_string())),
            ("policy", g.policy.label().into()),
        ];
        row(head, &g.report, "sent goodput p99_ns shed")
    });
    let static_hedge_ns = static_policy.hedge_delay.map_or(0, |d| d.as_nanos());
    Report {
        schema: "khbench-cluster-adaptive-v2",
        fields: vec![
            ("static_hedge_ns", static_hedge_ns.into()),
            ("matrix_median_wall_ns", wall_ns.into()),
            (
                "no_faults_p99_ns",
                by_policy("no-faults", |r| r.latency.p99(), 0),
            ),
            (
                "partition_goodput",
                by_policy("partition", ClusterReport::goodput, 6),
            ),
            ("scenarios", Json::Arr(scenarios.collect())),
            ("grid", Json::Arr(grid_rows.collect())),
        ],
        gates: vec![
            det,
            Gate::le(
                "no_faults_tail_gate_met",
                &[(p99(adaptive), p99(off) * 1.5)],
            ),
            Gate::ge(
                "partition_goodput_gate_met",
                &[(goodput(adaptive), goodput(off))],
            ),
        ],
    }
}

/// `scenario`: the fan-out amplification sweep (both server stacks x
/// degrees, p99 amplification over the single-tier baseline) and the
/// HPC-colocation comparison.
fn scenario(o: &Opts) -> Report {
    use kh_scenario::Scenario;

    let svcload = svcload(o.quick);
    let degrees: Vec<usize> = (0..4).filter(|&d| !o.quick || d != 2).collect();
    // Degree 0 is the single-tier baseline the amplification normalizes
    // against. The arrival gap keeps the deepest fan-out subcritical:
    // at degree f every request costs 1+f service phases, and the tail
    // comparison is only meaningful below saturation — a queue growing
    // for the whole window measures the window, not the stacks. Service
    // is deterministic so OS noise is the only stack difference (the
    // paper's comparison); heavy-tailed multipliers would swamp the
    // stack effect with stack-identical randomness.
    let sweep_spec = Scenario::parse("arrive=exp:2ms,svc=det,backend=det").expect("builtin");
    let clients = (o.nodes / 2).max(1);
    let victim = clients + (o.nodes - clients) / 2; // middle of the server half
    let colo_spec = format!("arrive=exp:800us,svc=exp,colocate=hpcg:{victim}");
    let colo_spec = Scenario::parse(&colo_spec).expect("builtin");
    let run_sweep = || fig::fanout_sweep(o.nodes, o.seed, svcload, &sweep_spec, &degrees);
    let run_colo = || fig::colocation_compare(o.nodes, o.seed, svcload, &colo_spec);
    let (det, (sweep, colo)) = deterministic(
        o.jobs,
        |_| (run_sweep(), run_colo()),
        |(sweep, colo)| traces(sweep.iter().map(|r| &r.2).chain(colo.iter().map(|r| &r.2))),
    );
    eprintln!("{}", fig::render_fanout(&sweep));
    eprintln!("{}", fig::render_colocation(&colo));
    let wall_ns = time_median(o.repeats, || assert_eq!(run_sweep().len(), sweep.len()));

    let amps = fig::fanout_amplification(&sweep);
    let amplified: Vec<_> = amps
        .iter()
        .map(|&(_, _, amp)| (if amp.is_finite() { amp } else { f64::NAN }, 1.0 - 1e-9))
        .collect();
    // The amplified p99 itself, per degree — not the ratio: the stack
    // with the tighter single-tier baseline always shows the larger
    // *relative* amplification, so the ratio would punish Kitten for
    // having a cleaner denominator.
    let p99_of = |stack, d| {
        let hit = sweep.iter().find(|(s, deg, _)| *s == stack && *deg == d);
        hit.map_or(f64::NAN, |(_, _, r)| r.latency.p99())
    };
    let (kitten, linux) = (StackKind::HafniumKitten, StackKind::HafniumLinux);
    let kitten_vs_linux: Vec<_> = degrees
        .iter()
        .map(|&d| (p99_of(kitten, d), p99_of(linux, d) + 1e-9))
        .collect();
    // Arming the neighbor must not move a single noise-histogram bucket
    // on any non-colocated node, and must slow the colocated tail.
    let isolated = colo.chunks(2).all(|pair| {
        let (clean, armed) = (&pair[0].2, &pair[1].2);
        let hpc = &armed.scenario.as_ref().expect("scenario run").hpc_nodes;
        let nodes = clean.per_node.iter().zip(&armed.per_node);
        nodes
            .into_iter()
            .all(|(c, a)| hpc.contains(&c.index) || c.noise_hist == a.noise_hist)
    });
    let colocated_vs_clean: Vec<_> = colo
        .chunks(2)
        .map(|p| (p[1].2.latency.p99(), p[0].2.latency.p99()))
        .collect();

    let sweep_json = sweep.iter().zip(&amps).map(|((_, d, r), (_, _, amp))| {
        let keys = "stack sent completed legs_sent legs_ok joins_ok p50_ns p99_ns";
        let mut fields = vec![("fanout", (*d).into())];
        fields.extend(report_fields(r, keys));
        fields.push(("p99_amplification", Json::num(*amp, 6)));
        Json::Obj(fields)
    });
    let colo_json = colo.iter().map(|(_, armed, r)| {
        let keys = "stack hpc_nodes hpc_quanta hpc_busy_ns sent completed p50_ns p99_ns p999_ns";
        row(vec![("colocated", (*armed).into())], r, keys)
    });
    Report {
        schema: "khbench-cluster-scenario-v2",
        fields: vec![
            ("sweep_spec", Json::Str(sweep_spec.to_string())),
            ("colocation_spec", Json::Str(colo_spec.to_string())),
            ("sweep_median_wall_ns", wall_ns.into()),
            ("sweep", Json::Arr(sweep_json.collect())),
            ("colocation", Json::Arr(colo_json.collect())),
        ],
        gates: vec![
            det,
            Gate::ge("amplification_gate_met", &amplified),
            Gate::le("kitten_p99_le_linux", &kitten_vs_linux),
            Gate::holds("noise_isolation_gate_met", isolated, "noise leaked"),
            Gate::ge("colocation_bites", &colocated_vs_clean),
        ],
    }
}

/// `scenario-reliability`: stack arm x fault scenario x retry policy x
/// fan-out depth, every cell a full multi-tier scenario through the
/// per-leg terminal-outcome pipeline with crash recovery wired in.
fn scenario_reliability(o: &Opts) -> Report {
    let svcload = svcload(o.quick);
    let depths: Vec<usize> = if o.quick { vec![1, 2] } else { vec![1, 2, 3] };
    // Arrivals stay well subcritical at the deepest chain: depth d
    // costs 1 + 2 + (d - 1) service phases per request through the
    // quorum-1 fan-out plus single-leg chain below it, and the tail
    // gate is only meaningful below saturation — a queue growing for
    // the whole window measures the window, not the stacks. It also
    // keeps queue delay under the CoDel target, so the adaptive arm
    // sheds nothing the static arm keeps.
    let interarrival_us = 2500;
    let clients = (o.nodes / 2).max(1);
    // The victim sits in the middle of the server half. Mid-scenario:
    // the VM dies at 40% of the window, with enough runway left for
    // detection, restart, and the drained backlog.
    let victim = (clients + (o.nodes - clients) / 2) as u16;
    let crash_ms = svcload.duration.as_nanos() * 2 / 5 / 1_000_000;
    let crash = format!("crashsvc@{crash_ms}ms:{victim}");
    let mut faults = vec![
        ("no-faults".to_string(), None),
        ("crashsvc".to_string(), Some(crash)),
    ];
    if !o.quick {
        faults.push(("drop0.04".to_string(), Some("drop:0.04".to_string())));
    }
    let (n, seed) = (o.nodes, o.seed);
    let run = || fig::scenario_reliability(n, seed, svcload, &faults, &depths, interarrival_us);
    let reports = |rows: &Vec<fig::ScenarioReliabilityRow>| traces(rows.iter().map(|r| &r.report));
    let (det, rows) = deterministic(o.jobs, |_| run(), reports);
    eprintln!("{}", fig::render_scenario_reliability(&rows));
    let wall_ns = time_median(o.repeats, || assert_eq!(run().len(), rows.len()));

    let find = |stack, fault: &str, depth, policy| {
        let cell = |r: &&fig::ScenarioReliabilityRow| {
            r.stack == stack && r.fault == fault && r.depth == depth && r.policy == policy
        };
        let hit = rows.iter().find(cell);
        &hit.expect("grid covers every cell").report
    };
    // With a service VM crashing mid-scenario, adaptive goodput is never
    // below static at any (stack, depth) cell.
    let (stat, adapt) = (ReliabilityPolicy::Static, ReliabilityPolicy::Adaptive);
    let adaptive_vs_static: Vec<_> = ARMS
        .iter()
        .flat_map(|&stack| depths.iter().map(move |&d| (stack, d)))
        .map(|(stack, d)| {
            let goodput = |p| find(stack, "crashsvc", d, p).goodput();
            (goodput(adapt) + 1e-9, goodput(stat))
        })
        .collect();
    // Arming a fault must not move a single noise-histogram bucket on
    // any node but the victim, at any cell of the grid.
    let isolated = rows.iter().filter(|r| r.fault != "no-faults").all(|r| {
        let clean = find(r.stack, "no-faults", r.depth, r.policy);
        let nodes = clean.per_node.iter().zip(&r.report.per_node);
        nodes
            .into_iter()
            .all(|(c, f)| c.index == victim || c.noise_hist == f.noise_hist)
    });
    // The paper's ordering survives retried multi-tier traffic: on the
    // clean fabric at depth >= 2, Theseus <= Kitten <= Linux p99 at
    // every policy.
    let deep = depths.iter().filter(|&&d| d >= 2);
    let cells = deep.flat_map(|&d| ReliabilityPolicy::ALL.map(|p| (d, p)));
    let stack_order: Vec<_> = cells
        .flat_map(|(d, policy)| {
            let p99 = |stack| find(stack, "no-faults", d, policy).latency.p99();
            let [ki, li, th] = ARMS.map(p99);
            [(th, ki + 1e-9), (ki, li + 1e-9)]
        })
        .collect();

    let keys = "sent completed goodput retransmits hedges retries_suppressed breaker_opens \
                crash_drops legs_sent legs_ok joins_ok joins_failed p50_ns p99_ns";
    let grid = rows.iter().map(|r| {
        let head = vec![
            ("stack", r.stack.label().into()),
            ("fault", r.fault.as_str().into()),
            ("depth", r.depth.into()),
            ("policy", r.policy.label().into()),
            ("recoveries", r.report.recoveries.len().into()),
        ];
        row(head, &r.report, keys)
    });
    Report {
        schema: "khbench-cluster-scenario-reliability-v2",
        fields: vec![
            ("depths", depths.clone().into()),
            ("interarrival_us", interarrival_us.into()),
            ("victim", victim.into()),
            ("crash_at_ms", crash_ms.into()),
            ("grid_median_wall_ns", wall_ns.into()),
            ("grid", Json::Arr(grid.collect())),
        ],
        gates: vec![
            det,
            Gate::ge("adaptive_goodput_ge_static", &adaptive_vs_static),
            Gate::holds("healthy_noise_identical", isolated, "healthy noise moved"),
            Gate::le("stack_p99_ordered", &stack_order),
        ],
    }
}

/// `hotpath`: the host hot-path cell. Times the production timing-wheel
/// event queue against the displaced `BinaryHeap` + tombstone baseline
/// (steady-state scheduling and cancellation churn), the open-addressed
/// walk cache against both the raw nested walk and the displaced FIFO
/// `HashMap` probe, and re-derives the gups walk-cache simulation fields
/// to confirm they are byte-identical to the committed perf artifact —
/// the proof that the hot-path rework moved host time only.
fn hotpath(o: &Opts) -> Report {
    use kh_bench::legacy::{LegacyBoundedMap, LegacyEventQueue};
    use kh_sim::EventQueue;

    // --- 1. Event queue: wheel vs displaced heap ---------------------
    // Steady-state load: `PENDING` events always in flight; each
    // iteration pops the earliest and schedules a replacement at a
    // pseudorandom offset up to 1 ms out (the simulator's typical
    // horizon mix). The churn load additionally schedules a second
    // event and cancels it immediately — the hedged-retry pattern that
    // motivated O(1) cancellation.
    const PENDING: u64 = 4096;
    let pure_ops: usize = if o.quick { 200_000 } else { 1_000_000 };
    let churn_ops: usize = pure_ops / 2;
    let qseed = o.seed ^ 0x686F_7470; // "hotp"
    let repeats = o.repeats;

    // One steady-state load on a fresh queue: `$pop` pops the earliest
    // event's payload; `$churn` adds the schedule-then-cancel pair.
    macro_rules! load {
        ($q:expr, $ops:expr, $churn:expr, $pop:expr) => {
            time_median(repeats, || {
                let mut q = $q;
                let mut rng = SimRng::new(qseed);
                let mut at = || Nanos::from_nanos(1 + rng.next_below(1_000_000));
                for i in 0..PENDING {
                    q.schedule_at(at(), i);
                }
                let mut sum = 0u64;
                for _ in 0..$ops {
                    if $churn {
                        q.schedule_after(at(), 1);
                        let victim = q.schedule_after(at(), 2);
                        assert!(q.cancel(victim));
                    }
                    let payload = $pop(&mut q);
                    if !$churn {
                        q.schedule_after(at(), payload);
                    }
                    sum = sum.wrapping_add(payload);
                }
                std::hint::black_box(sum);
            })
        };
    }
    let wheel = || EventQueue::<u64>::with_capacity(PENDING as usize);
    let wheel_pop = |q: &mut EventQueue<u64>| q.pop_next().expect("steady state").payload;
    let heap_pop = |q: &mut LegacyEventQueue<u64>| q.pop_next().expect("steady state").1;
    let wheel_pure_ns = load!(wheel(), pure_ops, false, wheel_pop);
    let heap_pure_ns = load!(LegacyEventQueue::new(), pure_ops, false, heap_pop);
    let wheel_churn_ns = load!(wheel(), churn_ops, true, wheel_pop);
    let heap_churn_ns = load!(LegacyEventQueue::new(), churn_ops, true, heap_pop);
    let per_op = |ns: u128, ops: usize| Json::num(ns as f64 / ops as f64, 2);
    let speedup = |heap: u128, wheel: u128| Json::num(heap as f64 / wheel.max(1) as f64, 4);
    let ops = (pure_ops + churn_ops) as f64 * 1e9;
    let wheel_eps = ops / (wheel_pure_ns + wheel_churn_ns).max(1) as f64;
    let heap_eps = ops / (heap_pure_ns + heap_churn_ns).max(1) as f64;
    eprintln!("event queue: wheel {wheel_eps:.0} ev/s vs heap {heap_eps:.0} ev/s");
    let event_queue = Json::Obj(vec![
        ("pending", PENDING.into()),
        ("pure_ops", pure_ops.into()),
        ("churn_ops", churn_ops.into()),
        ("wheel_pure_ns_per_op", per_op(wheel_pure_ns, pure_ops)),
        ("heap_pure_ns_per_op", per_op(heap_pure_ns, pure_ops)),
        ("pure_speedup", speedup(heap_pure_ns, wheel_pure_ns)),
        ("wheel_churn_ns_per_op", per_op(wheel_churn_ns, churn_ops)),
        ("heap_churn_ns_per_op", per_op(heap_churn_ns, churn_ops)),
        ("churn_speedup", speedup(heap_churn_ns, wheel_churn_ns)),
        ("wheel_events_per_sec", Json::num(wheel_eps, 0)),
        ("heap_events_per_sec", Json::num(heap_eps, 0)),
    ]);

    // --- 2. Walk cache: flat table vs raw walk vs displaced FIFO map --
    let wc = walk_cache_bench(o.seed, o.quick);
    let fixture = translate_fixture(o.seed, o.quick);
    // Displaced baseline: the FIFO HashMap+VecDeque probe layer at the
    // production combined-cache capacity, same hit pattern as the flat
    // table (uniform stream over 4096 pages -> ~100% steady-state hits).
    let legacy_cached_ns = time_median(repeats, || {
        let mut m: LegacyBoundedMap<u64> =
            LegacyBoundedMap::new(kh_arch::walkcache::DEFAULT_COMBINED_CAPACITY);
        let (s1, s2) = (&fixture.s1, &fixture.s2);
        let (mut hits, mut out) = (0u64, 0u64);
        for &va in &fixture.vas {
            let key = (2, 1, va >> 12);
            let page = match m.get(&key) {
                Some(&page) => {
                    hits += 1;
                    page
                }
                None => {
                    let (tr, _) = two_stage_translate(s1, s2, va, AccessKind::Read).unwrap();
                    m.insert(key, tr.out_addr & !0xFFF);
                    tr.out_addr & !0xFFF
                }
            };
            out ^= page | (va & 0xFFF);
        }
        assert!(hits > 0);
        std::hint::black_box(out);
    });
    let legacy_per_access = legacy_cached_ns as f64 / fixture.vas.len() as f64;
    let mut walk_cache = translate_fields(&wc).to_vec();
    walk_cache.push((
        "legacy_fifo_cached_ns_per_access",
        Json::num(legacy_per_access, 2),
    ));

    // --- 3. Sim-field identity vs the committed perf artifact --------
    // The simulated gups numbers just re-derived must appear in the
    // baseline exactly as `perf` writes them. Each needle carries the
    // key's quotes, so `"hits":` never matches inside `"s1_prefix_hits":`.
    let baseline = std::fs::read_to_string(&o.baseline).unwrap_or_default();
    let sim = walk_cache_sim_fields(&wc);
    let needles = sim.iter().map(|(k, v)| member(k, v));
    let missing: Vec<String> = needles.filter(|n| !baseline.contains(n.as_str())).collect();
    for n in &missing {
        eprintln!("sim identity: not byte-identical in {:?}: {n}", o.baseline);
    }
    let identical = missing.is_empty();
    let sim_identity = Json::Obj(vec![
        ("baseline_file", o.baseline.as_str().into()),
        ("fields_checked", sim.len().into()),
        ("fields_identical", (sim.len() - missing.len()).into()),
    ]);
    Report {
        schema: "khbench-hotpath-v2",
        fields: vec![
            ("event_queue", event_queue),
            ("walk_cache", Json::Obj(walk_cache)),
            ("sim_identity", sim_identity),
        ],
        gates: vec![
            Gate::holds("sim_fields_identical", identical, "sim fields differ"),
            Gate::ge(
                "translate_wall_speedup_ge_1",
                &[(wc.translate_speedup, 1.0)],
            ),
            Gate::ge("wheel_ge_heap", &[(wheel_eps, heap_eps)]),
        ],
    }
}

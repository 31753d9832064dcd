//! `khbench` — wall-clock performance harness for the simulator itself.
//!
//! Where the figure binaries measure *simulated* (virtual-time) results,
//! `khbench perf` measures how fast the simulator produces them: median
//! wall-clock per representative cell with warmup and repeats, the
//! pooled-vs-serial speedup on the multi-trial figure grid (with a
//! bit-identity determinism check), and the walk-cache fast path on the
//! TLB-miss-heavy gups workload. Results go to
//! `BENCH_parallel_walkcache.json`, the repo's perf trajectory artifact.
//!
//! ```text
//! khbench perf [--quick] [--jobs N] [--seed N] [--repeats N] [--out FILE]
//! khbench cluster [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
//! khbench reliability [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
//! ```
//!
//! `khbench cluster` runs the kh-cluster svcload ablation (Kitten vs
//! Linux servers under identical offered load), times each arm, checks
//! per-request-trace bit-identity across reruns and worker counts, and
//! writes `BENCH_cluster_svcload.json`.
//!
//! `khbench reliability` runs the fault-injection reliability cell:
//! `{no-faults, drop:0.05, partition, crashsvc}` x `{retries off, on}`
//! with the retries-on arm running the adaptive policy (live-quantile
//! hedging, retry budgets, circuit breakers). It gates on byte-identical
//! per-request traces across worker counts and reruns, goodput-with-
//! retries >= 99% under 5% frame loss (where retries-off measurably
//! loses requests), crash recovery inside the detect+restart budget,
//! zero self-inflicted sheds under no faults, and partition goodput no
//! worse than retries-off. Writes `BENCH_cluster_reliability.json`.
//!
//! `khbench adaptive` runs the metastability cell: `{no-faults,
//! drop:0.05, partition}` x `{off, static frozen-hedge, adaptive}` plus
//! the load x drop metastability grid. It gates on byte-identical traces
//! across `--jobs 1/2/N` and same-seed reruns, adaptive no-faults p99
//! <= 1.5x the retries-off tail (the static policy sits ~17x above it),
//! and adaptive partition goodput >= retries-off. Writes
//! `BENCH_cluster_adaptive.json`.
//!
//! `khbench scenario` runs the traffic-scenario cell: the fan-out degree
//! sweep (both server stacks x degrees, p99 amplification over the
//! single-tier baseline) and the HPC-colocation comparison. It gates on
//! byte-identical traces across `--jobs 1/2/N` and same-seed reruns,
//! amplification >= 1 at every degree with Kitten's amplification never
//! above Linux's, and bit-identical noise histograms on every
//! non-colocated node when a neighbor is armed. Writes
//! `BENCH_cluster_scenario.json`.
//!
//! `khbench scenario-reliability` runs the scenario-reliability grid:
//! stack arm x fault scenario x retry policy x fan-out depth, every
//! cell a full multi-tier scenario through the per-leg
//! terminal-outcome pipeline (per-(tier, destination) hedge trackers,
//! retry budgets, circuit breakers) with `crashsvc` recovery wired in.
//! It gates on byte-identical traces across `--jobs 1/2/N` and
//! same-seed reruns, adaptive goodput >= static goodput under a
//! mid-scenario service-VM crash, bit-identical noise histograms on
//! every healthy node with faults armed, and Theseus p99 <= Kitten p99
//! <= Linux p99 at fan-out depth >= 2. Writes
//! `BENCH_cluster_scenario_reliability.json`.
//!
//! `khbench hotpath` is the host hot-path cell: timing-wheel event
//! queue vs the displaced `BinaryHeap` baseline (steady-state
//! scheduling and cancellation churn), the open-addressed walk cache
//! vs the raw nested walk and the displaced FIFO `HashMap` probe, and
//! a byte-identity check of the freshly re-derived gups walk-cache
//! simulation fields against the committed perf artifact — proving the
//! rework moved host time only. Gates on sim-field identity,
//! `translate_wall_speedup >= 1`, and wheel events/sec >= heap. Writes
//! `BENCH_host_hotpath.json`.

use kh_arch::mmu::{two_stage_translate, AccessKind, MemAttr, PagePerms, Stage1Table, Stage2Table};
use kh_arch::platform::Platform;
use kh_arch::walkcache::WalkCache;
use kh_core::config::{StackKind, StackOptions};
use kh_core::experiment::run_trials_pooled;
use kh_core::machine::Machine;
use kh_core::pool::Pool;
use kh_core::MachineConfig;
use kh_sim::{FaultPlan, FaultSpec, Nanos, SimRng};
use kh_workloads::gups::{GupsConfig, GupsModel};
use kh_workloads::hpcg::{HpcgConfig, HpcgModel};
use kh_workloads::netecho::{NetEchoConfig, NetEchoModel};
use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
use kh_workloads::Workload;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

const PAGE_SIZE: u64 = 1 << 12;

fn usage() -> ExitCode {
    eprintln!(
        "khbench — simulator wall-clock performance harness

USAGE:
  khbench perf [--quick] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench cluster [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench attestation [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench reliability [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench adaptive [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench scenario [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench scenario-reliability [--quick] [--nodes N] [--jobs N] [--seed N] [--repeats N] [--out FILE]
  khbench hotpath [--quick] [--seed N] [--repeats N] [--baseline FILE] [--out FILE]

OPTIONS:
  --quick    smaller trial counts / fewer repeats (CI smoke profile)
  --nodes    cluster node count                    (default 4, scenario 8)
  --jobs     pooled worker count (default: KH_JOBS env, then host cores)
  --seed     base seed for all cells               (default 0x5C21)
  --repeats  timed repeats per cell after 1 warmup (default 5, quick 3)
  --baseline committed perf artifact the hotpath cell checks sim-field
             identity against    (default BENCH_parallel_walkcache.json)
  --out      output JSON path (default BENCH_parallel_walkcache.json,
             cluster: BENCH_cluster_svcload.json,
             attestation: BENCH_cluster_attestation.json,
             reliability: BENCH_cluster_reliability.json,
             adaptive: BENCH_cluster_adaptive.json,
             scenario: BENCH_cluster_scenario.json,
             scenario-reliability: BENCH_cluster_scenario_reliability.json,
             hotpath: BENCH_host_hotpath.json)"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--")?;
        if key == "quick" {
            map.insert(key.to_string(), "true".to_string());
        } else {
            map.insert(key.to_string(), it.next()?.clone());
        }
    }
    Some(map)
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time `f` with one warmup run and `repeats` timed runs; median ns.
fn time_median<F: FnMut()>(repeats: usize, mut f: F) -> u128 {
    f(); // warmup
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos());
    }
    median_ns(samples)
}

fn small_gups() -> Box<dyn Workload + Send> {
    Box::new(GupsModel::new(GupsConfig {
        log2_table: 19,
        updates_per_entry: 2,
    }))
}

/// One wall-clock cell: a full Machine::run of the named workload.
fn cell_run(name: &str, seed: u64) -> Box<dyn FnMut()> {
    let name = name.to_string();
    Box::new(move || {
        let stack = StackKind::HafniumKitten;
        match name.as_str() {
            "gups" => {
                let mut w = small_gups();
                Machine::new(MachineConfig::pine_a64(stack, seed)).run(w.as_mut());
            }
            "selfish" => {
                let mut w = SelfishDetour::new(SelfishConfig {
                    duration: Nanos::from_millis(300),
                    ..Default::default()
                });
                Machine::new(MachineConfig::pine_a64(stack, seed)).run(&mut w);
            }
            "netecho" => {
                let mut w = NetEchoModel::new(NetEchoConfig::default());
                Machine::new(MachineConfig::pine_a64(stack, seed)).run(&mut w);
            }
            "hpcg" => {
                let mut w = HpcgModel::new(HpcgConfig::default());
                Machine::new(MachineConfig::pine_a64(stack, seed)).run(&mut w);
            }
            "fault-storm" => {
                let spec = FaultSpec::parse(kh_core::figures::DEFAULT_FAULT_SPEC)
                    .expect("builtin fault spec");
                let duration = Nanos::from_millis(300);
                let mut m = Machine::new(MachineConfig::pine_a64(stack, seed));
                m.inject_faults(FaultPlan::new(&spec, seed ^ 1, duration));
                let mut w = SelfishDetour::new(SelfishConfig {
                    duration,
                    ..Default::default()
                });
                m.run(&mut w);
            }
            other => panic!("unknown cell {other}"),
        }
    })
}

/// Run the multi-trial grid (gups under all three stacks) on `pool` and
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
    stats: kh_arch::walkcache::WalkCacheStats,
    translate_uncached_ns: f64,
    translate_cached_ns: f64,
    translate_speedup: f64,
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
        s1.map_with_granule(
            0x4000_0000 + p * PAGE_SIZE,
            p * PAGE_SIZE,
            PAGE_SIZE,
            PagePerms::RW,
            MemAttr::Normal,
            false,
        )
        .unwrap();
    }
    let mut s2 = Stage2Table::new(2);
    let chunk: u64 = 512 * PAGE_SIZE; // 2 MiB
    let mut off = 0u64;
    while off < pages * PAGE_SIZE {
        s2.map(
            off,
            0x8000_0000 + off,
            chunk,
            PagePerms::RWX,
            MemAttr::Normal,
        )
        .unwrap();
        off += chunk;
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

fn cmd_perf(flags: &HashMap<String, String>) -> Option<()> {
    let quick = flags.contains_key("quick");
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel_walkcache.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => {
            let n: usize = j.parse().ok().filter(|&n| n >= 1)?;
            kh_core::pool::set_jobs(n);
            n
        }
        None => kh_core::pool::jobs(),
    };
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let trials: u32 = if quick { 4 } else { 8 };
    eprintln!("khbench perf: jobs={jobs} host_parallelism={host} quick={quick} seed={seed:#x}");

    // --- 1. Pooled vs serial figure grid -----------------------------
    let serial_pool = Pool::new(1);
    let pooled_pool = Pool::new(jobs);
    eprintln!(
        "grid: {} stacks x {trials} trials (gups), serial baseline...",
        StackKind::ALL.len()
    );
    let mut serial_fp = String::new();
    let serial_ns = time_median(repeats, || {
        serial_fp = grid_fingerprint(&serial_pool, trials, seed);
    });
    eprintln!("grid: pooled x{jobs}...");
    let mut pooled_fp = String::new();
    let pooled_ns = time_median(repeats, || {
        pooled_fp = grid_fingerprint(&pooled_pool, trials, seed);
    });
    let identical = serial_fp == pooled_fp && !serial_fp.is_empty();
    let grid_speedup = serial_ns as f64 / pooled_ns.max(1) as f64;
    eprintln!(
        "grid: serial {:.1} ms, pooled {:.1} ms, speedup {grid_speedup:.2}x, identical={identical}",
        serial_ns as f64 / 1e6,
        pooled_ns as f64 / 1e6
    );

    // --- 2. Per-cell wall clock --------------------------------------
    let cell_names = ["gups", "selfish", "netecho", "hpcg", "fault-storm"];
    let mut cell_json = Vec::new();
    for name in cell_names {
        let f = cell_run(name, seed);
        let ns = time_median(repeats, f);
        eprintln!(
            "cell {name}: median {:.2} ms over {repeats} repeats",
            ns as f64 / 1e6
        );
        cell_json.push(format!(
            "    {{ \"name\": \"{name}\", \"median_wall_ns\": {ns}, \"repeats\": {repeats} }}"
        ));
    }

    // --- 3. Walk cache on gups ---------------------------------------
    eprintln!("walk cache: gups analytic vs replay-discounted, translate microbench...");
    let wc = walk_cache_bench(seed, quick);
    eprintln!(
        "walk cache: hit rate {:.4}, virtual speedup {:.3}x, translate {:.1} -> {:.1} ns/access ({:.2}x)",
        wc.stats.hit_rate(),
        wc.virtual_speedup,
        wc.translate_uncached_ns,
        wc.translate_cached_ns,
        wc.translate_speedup
    );

    let json = format!(
        "{{\n  \"schema\": \"khbench-perf-v1\",\n  \"quick\": {quick},\n  \"seed\": {seed},\n  \
         \"jobs\": {jobs},\n  \"host_parallelism\": {host},\n  \"grid\": {{\n    \
         \"cells\": {cells},\n    \"trials_per_cell\": {trials},\n    \
         \"serial_wall_ns\": {serial_ns},\n    \"pooled_wall_ns\": {pooled_ns},\n    \
         \"speedup\": {grid_speedup:.4},\n    \"pooled_equals_serial\": {identical}\n  }},\n  \
         \"cells\": [\n{cell_rows}\n  ],\n  \"walk_cache\": {{\n    \
         \"gups_virtual_elapsed_analytic_ns\": {va},\n    \
         \"gups_virtual_elapsed_cached_ns\": {vc},\n    \
         \"gups_virtual_speedup\": {vs:.4},\n    \"hit_rate\": {hr:.6},\n    \
         \"hits\": {hits},\n    \"s1_prefix_hits\": {s1h},\n    \"misses\": {misses},\n    \
         \"invalidations\": {inv},\n    \"steps_paid\": {paid},\n    \"steps_saved\": {saved},\n    \
         \"walk_cost_factor\": {wcf:.6},\n    \
         \"translate_uncached_ns_per_access\": {tu:.2},\n    \
         \"translate_cached_ns_per_access\": {tc:.2},\n    \
         \"translate_wall_speedup\": {ts:.4}\n  }}\n}}\n",
        cells = StackKind::ALL.len(),
        cell_rows = cell_json.join(",\n"),
        va = wc.virtual_analytic_ns,
        vc = wc.virtual_cached_ns,
        vs = wc.virtual_speedup,
        hr = wc.stats.hit_rate(),
        hits = wc.stats.hits,
        s1h = wc.stats.s1_prefix_hits,
        misses = wc.stats.misses,
        inv = wc.stats.invalidations,
        paid = wc.stats.steps_paid,
        saved = wc.stats.steps_saved,
        wcf = wc.stats.walk_cost_factor(),
        tu = wc.translate_uncached_ns,
        tc = wc.translate_cached_ns,
        ts = wc.translate_speedup,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !identical {
        eprintln!("error: pooled grid diverged from serial — determinism broken");
        return None;
    }
    Some(())
}

/// `khbench cluster`: wall-clock + simulated tails for the svcload
/// ablation, with a bit-identity determinism gate (rerun same seed, and
/// serial vs pooled arms) baked into the exit code.
fn cmd_cluster(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::{ablation_cluster, ARMS};
    use kh_cluster::ClusterReport;
    use kh_workloads::svcload::SvcLoadConfig;

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_svcload.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    eprintln!("khbench cluster: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x}");

    let fingerprint = |reports: &[ClusterReport]| -> String {
        reports
            .iter()
            .map(|r| r.csv())
            .collect::<Vec<_>>()
            .join("---\n")
    };
    let run_arms = |workers: usize| -> Vec<ClusterReport> {
        kh_core::pool::set_jobs(workers);
        ablation_cluster(nodes, seed, svcload)
    };

    // Determinism gate: serial, pooled, and a same-seed rerun must all
    // produce byte-identical per-request traces.
    let serial = run_arms(1);
    let pooled = run_arms(jobs);
    let rerun = run_arms(jobs);
    let deterministic =
        fingerprint(&serial) == fingerprint(&pooled) && fingerprint(&pooled) == fingerprint(&rerun);
    eprintln!("determinism (serial == pooled == rerun): {deterministic}");

    // Wall clock per arm, timed at the requested worker count.
    kh_core::pool::set_jobs(jobs);
    let mut arm_wall_ns = Vec::new();
    for (i, arm) in ARMS.iter().enumerate() {
        let ns = time_median(repeats, || {
            let mut cfg = kh_cluster::ClusterConfig::new(nodes, *arm, seed);
            cfg.svcload = svcload;
            let r = kh_cluster::run(&cfg);
            assert_eq!(r.sent, serial[i].sent);
        });
        eprintln!(
            "arm {}: median {:.2} ms over {repeats} repeats",
            arm.label(),
            ns as f64 / 1e6
        );
        arm_wall_ns.push(ns);
    }

    let kitten = &pooled[0];
    let linux = &pooled[1];
    let theseus = &pooled[2];
    let tail_ordering_holds = kitten.latency.p99() <= linux.latency.p99()
        && kitten.latency.p999() <= linux.latency.p999();
    let theseus_p99_le_kitten = theseus.latency.p99() <= kitten.latency.p99();
    eprintln!(
        "tails (us): Theseus p99 {:.1} | Kitten p99 {:.1} p999 {:.1} | Linux p99 {:.1} p999 {:.1} | kitten<=linux: {tail_ordering_holds} theseus<=kitten: {theseus_p99_le_kitten}",
        theseus.latency.p99() / 1e3,
        kitten.latency.p99() / 1e3,
        kitten.latency.p999() / 1e3,
        linux.latency.p99() / 1e3,
        linux.latency.p999() / 1e3,
    );

    let arm_rows: Vec<String> = pooled
        .iter()
        .zip(&arm_wall_ns)
        .map(|(r, wall)| {
            format!(
                "    {{ \"stack\": \"{}\", \"sent\": {}, \"completed\": {}, \
                 \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0}, \
                 \"max_ns\": {:.0}, \"median_wall_ns\": {wall} }}",
                r.server_stack.label(),
                r.sent,
                r.completed,
                r.latency.median(),
                r.latency.p99(),
                r.latency.p999(),
                r.latency.max(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-svcload-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"clients\": {},\n  \
         \"servers\": {},\n  \"jobs\": {jobs},\n  \"repeats\": {repeats},\n  \
         \"deterministic\": {deterministic},\n  \
         \"tail_ordering_holds\": {tail_ordering_holds},\n  \
         \"theseus_p99_le_kitten\": {theseus_p99_le_kitten},\n  \"arms\": [\n{}\n  ]\n}}\n",
        kitten.clients,
        kitten.servers,
        arm_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!(
            "error: cluster traces diverged across reruns/worker counts — determinism broken"
        );
        return None;
    }
    if !tail_ordering_holds {
        eprintln!("error: Kitten-primary tails exceed Linux-primary under identical load");
        return None;
    }
    if !theseus_p99_le_kitten {
        eprintln!("error: Theseus-primary p99 exceeds Kitten-primary under identical load");
        return None;
    }
    Some(())
}

/// `khbench attestation`: the cluster bring-up attestation cell. Three
/// sub-experiments behind one exit code:
///
/// 1. **Handshake cost vs cluster size** — the all-pairs
///    challenge/response mesh over growing node counts: frames and
///    bytes grow quadratically, simulated completion time linearly
///    (verifiers sweep their peers in parallel).
/// 2. **Attested three-arm ablation** — svcload under Theseus, Kitten,
///    and Linux server arms with the handshake armed, gated on
///    byte-identical traces (attestation verdicts included) across
///    worker counts plus a rerun, and on the tail ordering
///    Theseus <= Kitten <= Linux at p99.
/// 3. **Tamper cell** — `tamper@<last server>` forges one node's boot
///    measurement. The gate demands that node quarantined (every
///    request routed at it refused at arrival, zero attempts) while
///    every healthy server's records and every node's noise histogram
///    stay byte-identical to the tamper-free attested run.
fn cmd_attestation(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::ARMS;
    use kh_cluster::{ClusterConfig, ClusterReport, Node, Role};
    use kh_sim::FabricFaultSpec;
    use kh_virtio::LinkProfile;
    use kh_workloads::svcload::{RequestOutcome, SvcLoadConfig};

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_attestation.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    eprintln!("khbench attestation: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x}");

    // Handshake cost vs cluster size, on a mesh built with the same
    // role split and seed discipline as a cluster run.
    let platform = Platform::pine_a64_lts();
    let link = LinkProfile::from_platform(&platform);
    let sizes: &[usize] = if quick { &[4, 8, 16] } else { &[4, 8, 16, 32] };
    let mut handshake_rows = Vec::new();
    for &n in sizes {
        let mut node_seeds = SimRng::new(seed ^ 0x6B68_636C_7573); // "khclus"
        let mesh: Vec<Node> = (0..n)
            .map(|i| {
                let role = if i < n / 2 {
                    Role::Client
                } else {
                    Role::Server
                };
                Node::new(
                    i as u16,
                    role,
                    StackKind::HafniumKitten,
                    platform,
                    node_seeds.split(i as u64).next_u64(),
                )
            })
            .collect();
        let rep = kh_cluster::handshake(&mesh, seed, &[], &link);
        let wall = time_median(repeats, || {
            let r = kh_cluster::handshake(&mesh, seed, &[], &link);
            assert!(r.all_clean());
        });
        eprintln!(
            "handshake n={n}: {} frames / {} bytes, done at {} us sim, median {:.1} us wall",
            rep.frames,
            rep.bytes,
            rep.completed_at.as_nanos() / 1_000,
            wall as f64 / 1e3,
        );
        handshake_rows.push(format!(
            "    {{ \"nodes\": {n}, \"frames\": {}, \"bytes\": {}, \
             \"completed_at_ns\": {}, \"median_wall_ns\": {wall} }}",
            rep.frames,
            rep.bytes,
            rep.completed_at.as_nanos(),
        ));
    }

    // Attested three-arm ablation; the fingerprint folds the verdict
    // table in so a nondeterministic handshake cannot hide behind
    // identical traffic.
    let run_arms = |workers: usize| -> Vec<ClusterReport> {
        kh_core::pool::set_jobs(workers);
        Pool::with_default_jobs().run_indexed(ARMS.len(), |i| {
            let mut cfg = ClusterConfig::new(nodes, ARMS[i], seed);
            cfg.svcload = svcload;
            cfg.attest = true;
            kh_cluster::run(&cfg)
        })
    };
    let fingerprint = |reports: &[ClusterReport]| -> String {
        reports
            .iter()
            .map(|r| {
                let attest = r.attestation.as_ref().map(|a| a.csv()).unwrap_or_default();
                format!("{attest}---\n{}", r.csv())
            })
            .collect::<Vec<_>>()
            .join("===\n")
    };
    let serial = run_arms(1);
    let pooled = run_arms(jobs);
    let rerun = run_arms(jobs);
    let deterministic =
        fingerprint(&serial) == fingerprint(&pooled) && fingerprint(&pooled) == fingerprint(&rerun);
    eprintln!("determinism (serial == pooled == rerun, attestation csv included): {deterministic}");

    let arm_for = |stack: StackKind| pooled.iter().find(|r| r.server_stack == stack);
    let theseus = arm_for(StackKind::NativeTheseus)?;
    let kitten = arm_for(StackKind::HafniumKitten)?;
    let linux = arm_for(StackKind::HafniumLinux)?;
    let theseus_p99_le_kitten = theseus.latency.p99() <= kitten.latency.p99();
    let kitten_p99_le_linux = kitten.latency.p99() <= linux.latency.p99();
    eprintln!(
        "attested tails (us): Theseus p99 {:.1} | Kitten p99 {:.1} | Linux p99 {:.1} | \
         theseus<=kitten: {theseus_p99_le_kitten} kitten<=linux: {kitten_p99_le_linux}",
        theseus.latency.p99() / 1e3,
        kitten.latency.p99() / 1e3,
        linux.latency.p99() / 1e3,
    );

    // Tamper cell: forge the last server's measurement and diff against
    // the tamper-free attested run.
    let victim = (nodes - 1) as u16;
    let run_tamper = |tamper: bool| -> ClusterReport {
        let mut cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
        cfg.svcload = svcload;
        cfg.attest = true;
        if tamper {
            let spec = FabricFaultSpec::parse(&format!("tamper@{victim}")).expect("tamper spec");
            cfg.faults = Some((spec, 1));
        }
        kh_cluster::run(&cfg)
    };
    let clean = run_tamper(false);
    let tampered = run_tamper(true);
    let quarantined = tampered
        .attestation
        .as_ref()
        .map(|a| a.quarantined.clone())
        .unwrap_or_default();
    let victim_records: Vec<_> = tampered
        .records
        .iter()
        .filter(|rec| rec.server == victim)
        .collect();
    let tamper_quarantined = quarantined == vec![victim]
        && !victim_records.is_empty()
        && victim_records
            .iter()
            .all(|rec| rec.outcome == RequestOutcome::Refused && rec.attempts == 0);
    let healthy = |rep: &ClusterReport| {
        rep.records
            .iter()
            .filter(|rec| rec.server != victim)
            .cloned()
            .collect::<Vec<_>>()
    };
    let healthy_byte_identity = healthy(&clean) == healthy(&tampered)
        && clean
            .per_node
            .iter()
            .zip(tampered.per_node.iter())
            .all(|(c, t)| c.noise_hist == t.noise_hist);
    eprintln!(
        "tamper@{victim}: quarantined {quarantined:?}, {} refused | \
         quarantine gate: {tamper_quarantined} | healthy byte-identity: {healthy_byte_identity}",
        victim_records.len(),
    );

    let arm_rows: Vec<String> = pooled
        .iter()
        .map(|r| {
            let a = r.attestation.as_ref().expect("attested arm");
            format!(
                "    {{ \"stack\": \"{}\", \"sent\": {}, \"completed\": {}, \
                 \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0}, \
                 \"attest_frames\": {}, \"attest_done_ns\": {} }}",
                r.server_stack.label(),
                r.sent,
                r.completed,
                r.latency.median(),
                r.latency.p99(),
                r.latency.p999(),
                a.frames,
                a.completed_at.as_nanos(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-attestation-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"jobs\": {jobs},\n  \
         \"repeats\": {repeats},\n  \
         \"deterministic\": {deterministic},\n  \
         \"theseus_p99_le_kitten\": {theseus_p99_le_kitten},\n  \
         \"kitten_p99_le_linux\": {kitten_p99_le_linux},\n  \
         \"tamper_quarantined\": {tamper_quarantined},\n  \
         \"healthy_byte_identity\": {healthy_byte_identity},\n  \
         \"handshake\": [\n{}\n  ],\n  \"arms\": [\n{}\n  ]\n}}\n",
        handshake_rows.join(",\n"),
        arm_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!("error: attested traces diverged across reruns/worker counts");
        return None;
    }
    if !theseus_p99_le_kitten || !kitten_p99_le_linux {
        eprintln!("error: attested ablation tail ordering Theseus <= Kitten <= Linux broken");
        return None;
    }
    if !tamper_quarantined {
        eprintln!("error: tampered node was not fully quarantined");
        return None;
    }
    if !healthy_byte_identity {
        eprintln!("error: quarantine perturbed healthy nodes' records or noise");
        return None;
    }
    Some(())
}

/// `khbench reliability`: the fault-matrix reliability cell with the
/// determinism, goodput, and crash-recovery gates baked into the exit
/// code. The retries-on arm runs the *adaptive* policy — live-quantile
/// hedging, token-bucket retry budgets, and the per-destination circuit
/// breaker — so the hedge delay tracks the observed latency
/// distribution instead of a frozen fault-free baseline (the frozen
/// configuration self-inflicted sheds under zero faults).
fn cmd_reliability(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::{reliability_matrix, render_reliability};
    use kh_cluster::{ClusterConfig, ClusterReport};
    use kh_sim::Nanos;
    use kh_workloads::adaptive::AdaptivePolicy;
    use kh_workloads::svcload::SvcLoadConfig;

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_reliability.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    eprintln!("khbench reliability: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x}");

    // The retries-on arm is the adaptive layer: hedge delays come from
    // per-destination live quantile trackers inside the run, so there is
    // no baseline pre-run and the policy stays a pure function of
    // `(config, seed)`.
    let policy = AdaptivePolicy::default();

    type Row = (String, bool, ClusterReport);
    let fingerprint = |rows: &[Row]| -> String {
        rows.iter()
            .map(|(name, retries, r)| format!("{name},{retries}\n{}", r.csv()))
            .collect::<Vec<_>>()
            .join("---\n")
    };
    let run_matrix = |workers: usize| -> Vec<Row> {
        kh_core::pool::set_jobs(workers);
        reliability_matrix(nodes, seed, svcload, policy)
    };

    // Determinism gate: --jobs 1, 2, and N plus a same-seed rerun must
    // all produce byte-identical per-request traces.
    let serial = run_matrix(1);
    let two = run_matrix(2);
    let pooled = run_matrix(jobs);
    let rerun = run_matrix(jobs);
    let fp = fingerprint(&serial);
    let deterministic = !fp.is_empty()
        && fp == fingerprint(&two)
        && fp == fingerprint(&pooled)
        && fp == fingerprint(&rerun);
    eprintln!("determinism (jobs 1 == 2 == {jobs} == rerun): {deterministic}");

    // Wall clock for the whole matrix at the requested worker count.
    kh_core::pool::set_jobs(jobs);
    let wall_ns = time_median(repeats, || {
        let rows = reliability_matrix(nodes, seed, svcload, policy);
        assert_eq!(rows.len(), pooled.len());
    });
    eprintln!(
        "matrix: median {:.2} ms over {repeats} repeats",
        wall_ns as f64 / 1e6
    );
    eprintln!("{}", render_reliability(&pooled));

    // Reliability gates, on the drop and crash scenarios.
    let find = |name: &str, retries: bool| -> &Row {
        pooled
            .iter()
            .find(|(n, on, _)| n == name && *on == retries)
            .expect("matrix covers all scenarios")
    };
    let retries_off_loses = find("drop0.05", false).2.goodput() < 1.0;
    let goodput_gate = find("drop0.05", true).2.goodput() >= 0.99;
    // The adaptive layer must not invent load under zero faults (the
    // frozen-hedge policy self-inflicted sheds) and must not lose
    // goodput under partition relative to retries-off (the static
    // policy's retransmit storm did).
    let no_faults_on = &find("no-faults", true).2;
    let no_self_shedding =
        no_faults_on.reliability.outcomes.shed == 0 && no_faults_on.reliability.nacks_sent == 0;
    let partition_no_worse =
        find("partition", true).2.goodput() >= find("partition", false).2.goodput();
    let recovery_budget = {
        let cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
        cfg.detect_latency + cfg.restart_cost + Nanos::from_millis(1)
    };
    let crash_rows = [find("crashsvc", false), find("crashsvc", true)];
    let recovery_gate = crash_rows.iter().all(|(_, _, r)| {
        !r.recoveries.is_empty()
            && r.recoveries
                .iter()
                .all(|rec| rec.recovered_at != Nanos::MAX && rec.downtime() <= recovery_budget)
    });
    eprintln!(
        "gates: retries_off_loses_requests={retries_off_loses} goodput_gate_met={goodput_gate} \
         crash_recovery_within_gate={recovery_gate} no_self_shedding={no_self_shedding} \
         partition_no_worse={partition_no_worse}"
    );

    let rows_json: Vec<String> = pooled
        .iter()
        .map(|(name, retries, r)| {
            let o = &r.reliability.outcomes;
            let recov: Vec<String> = r
                .recoveries
                .iter()
                .map(|rec| {
                    format!(
                        "{{ \"node\": {}, \"crashed_at_ns\": {}, \"detected_at_ns\": {}, \
                         \"recovered_at_ns\": {}, \"downtime_ns\": {} }}",
                        rec.node,
                        rec.crashed_at.as_nanos(),
                        rec.detected_at.as_nanos(),
                        rec.recovered_at.as_nanos(),
                        rec.downtime().as_nanos(),
                    )
                })
                .collect();
            format!(
                "    {{ \"scenario\": \"{name}\", \"retries\": {retries}, \"sent\": {}, \
                 \"goodput\": {:.6}, \"p99_ns\": {:.0}, \"retransmits\": {}, \"hedges\": {}, \
                 \"nacks_sent\": {}, \"corrupt_rx\": {}, \"crash_drops\": {}, \
                 \"retries_suppressed\": {}, \"hedges_suppressed\": {}, \
                 \"dups_absorbed\": {}, \"breaker_opens\": {}, \
                 \"outcomes\": {{ \"ok\": {}, \"ok_hedged\": {}, \"shed\": {}, \
                 \"deadline\": {}, \"corrupt\": {}, \"failed\": {} }}, \
                 \"recoveries\": [{}] }}",
                r.sent,
                r.goodput(),
                r.latency.p99(),
                r.reliability.retransmits,
                r.reliability.hedges,
                r.reliability.nacks_sent,
                r.reliability.corrupt_rx,
                r.reliability.crash_drops,
                r.reliability.retries_suppressed,
                r.reliability.hedges_suppressed,
                r.reliability.dups_absorbed,
                r.reliability.breaker_opens,
                o.ok,
                o.ok_hedged,
                o.shed,
                o.deadline,
                o.corrupt,
                o.failed,
                recov.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-reliability-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"jobs\": {jobs},\n  \
         \"repeats\": {repeats},\n  \"policy\": \"adaptive\",\n  \
         \"matrix_median_wall_ns\": {wall_ns},\n  \
         \"deterministic\": {deterministic},\n  \
         \"retries_off_loses_requests\": {retries_off_loses},\n  \
         \"goodput_gate_met\": {goodput_gate},\n  \
         \"crash_recovery_within_gate\": {recovery_gate},\n  \
         \"no_self_shedding\": {no_self_shedding},\n  \
         \"partition_no_worse\": {partition_no_worse},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!(
            "error: reliability traces diverged across reruns/worker counts — determinism broken"
        );
        return None;
    }
    if !retries_off_loses {
        eprintln!("error: drop:0.05 with retries off lost nothing — the fault path is inert");
        return None;
    }
    if !goodput_gate {
        eprintln!("error: goodput with retries under drop:0.05 fell below 99%");
        return None;
    }
    if !recovery_gate {
        eprintln!("error: crashsvc recovery missed the detect+restart budget");
        return None;
    }
    if !no_self_shedding {
        eprintln!("error: the adaptive layer shed or NACKed requests under zero faults");
        return None;
    }
    if !partition_no_worse {
        eprintln!("error: retries lost goodput under partition relative to retries-off");
        return None;
    }
    Some(())
}

/// `khbench adaptive`: the metastability cell — `{no-faults, drop:0.05,
/// partition}` × `{off, static, adaptive}` plus the load × drop
/// metastability grid — with the determinism, no-self-inflicted-tail,
/// and partition-goodput gates baked into the exit code. The static arm
/// carries the frozen baseline-derived hedge delay (the historical
/// configuration whose load feedback collapses the tail); the adaptive
/// arm is the fix under test.
fn cmd_adaptive(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::{
        metastability_sweep, render_metastability, MetastabilityRow, ReliabilityPolicy,
    };
    use kh_cluster::{ClusterConfig, ClusterReport};
    use kh_sim::FabricFaultSpec;
    use kh_workloads::adaptive::AdaptivePolicy;
    use kh_workloads::svcload::{RetryPolicy, SvcLoadConfig};

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_adaptive.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    eprintln!("khbench adaptive: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x}");

    // The static arm reproduces the historical configuration: a hedge
    // delay frozen at the fault-free baseline's p99. Deriving it from a
    // clean pre-run keeps the whole cell a pure function of
    // `(config, seed)`.
    let baseline = {
        let mut cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
        cfg.svcload = svcload;
        kh_cluster::run(&cfg)
    };
    let p99 = baseline.latency.p99();
    let mut static_policy = RetryPolicy::default();
    if p99.is_finite() && p99 > 0.0 {
        static_policy.hedge_delay = Some(Nanos::from_nanos(p99 as u64));
    }
    let static_hedge_ns = static_policy.hedge_delay.map(|d| d.as_nanos()).unwrap_or(0);
    let adaptive_policy = AdaptivePolicy::default();
    eprintln!(
        "static arm hedge frozen at baseline p99: {:.1} us",
        static_hedge_ns as f64 / 1e3
    );

    // Scenario matrix: {no-faults, drop, partition} x the three policies.
    let victim = (nodes / 2).max(1); // first server index
    let scenarios: Vec<(String, Option<String>)> = vec![
        ("no-faults".to_string(), None),
        ("drop0.05".to_string(), Some("drop:0.05".to_string())),
        (
            "partition".to_string(),
            Some(format!("partition@10ms:5ms:{victim}")),
        ),
    ];
    type Row = (String, ReliabilityPolicy, ClusterReport);
    let combos: Vec<(String, Option<String>, ReliabilityPolicy)> = scenarios
        .iter()
        .flat_map(|(name, spec)| {
            ReliabilityPolicy::ALL
                .iter()
                .map(move |&policy| (name.clone(), spec.clone(), policy))
        })
        .collect();
    let run_matrix = |workers: usize| -> Vec<Row> {
        kh_core::pool::set_jobs(workers);
        let reports = Pool::with_default_jobs().run_indexed(combos.len(), |i| {
            let (_, spec, policy) = &combos[i];
            let mut cfg = ClusterConfig::new(nodes, StackKind::HafniumKitten, seed);
            cfg.svcload = svcload;
            if let Some(s) = spec {
                let spec = FabricFaultSpec::parse(s).expect("scenario specs parse");
                cfg.faults = Some((spec, seed ^ 0xFAB5));
            }
            match policy {
                ReliabilityPolicy::Off => {}
                ReliabilityPolicy::Static => cfg.retry = Some(static_policy),
                ReliabilityPolicy::Adaptive => cfg.adaptive = Some(adaptive_policy),
            }
            kh_cluster::run(&cfg)
        });
        combos
            .iter()
            .zip(reports)
            .map(|((name, _, policy), r)| (name.clone(), *policy, r))
            .collect()
    };
    let grid_loads: &[u64] = if quick { &[500, 300] } else { &[500, 350, 250] };
    let grid_drops: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.02, 0.05]
    };
    let run_grid = |workers: usize| -> Vec<MetastabilityRow> {
        kh_core::pool::set_jobs(workers);
        metastability_sweep(
            nodes,
            seed,
            svcload,
            grid_loads,
            grid_drops,
            static_policy,
            adaptive_policy,
        )
    };

    // Gate 1 — determinism: --jobs 1, 2, and N plus a same-seed rerun
    // must all produce byte-identical per-request traces, for the
    // scenario matrix and the grid both.
    let fingerprint = |rows: &[Row], grid: &[MetastabilityRow]| -> String {
        rows.iter()
            .map(|(name, policy, r)| format!("{name},{}\n{}", policy.label(), r.csv()))
            .chain(grid.iter().map(|g| {
                format!(
                    "{},{},{}\n{}",
                    g.interarrival_us,
                    g.drop,
                    g.policy.label(),
                    g.report.csv()
                )
            }))
            .collect::<Vec<_>>()
            .join("---\n")
    };
    let fp_at = |workers: usize| fingerprint(&run_matrix(workers), &run_grid(workers));
    let fp1 = fp_at(1);
    let deterministic =
        !fp1.is_empty() && fp1 == fp_at(2) && fp1 == fp_at(jobs) && fp1 == fp_at(jobs);
    eprintln!("determinism (jobs 1 == 2 == {jobs} == rerun): {deterministic}");

    kh_core::pool::set_jobs(jobs);
    let rows = run_matrix(jobs);
    let grid = run_grid(jobs);
    eprintln!("{}", render_metastability(&grid));

    let find = |name: &str, policy: ReliabilityPolicy| -> &ClusterReport {
        rows.iter()
            .find(|(n, p, _)| n == name && *p == policy)
            .map(|(_, _, r)| r)
            .expect("matrix covers all scenario x policy cells")
    };
    // Gate 2 — no self-inflicted tail: under zero faults the adaptive
    // layer's p99 stays within 1.5x of fire-and-forget (the static
    // policy sits an order of magnitude above it).
    let off_p99 = find("no-faults", ReliabilityPolicy::Off).latency.p99();
    let static_p99 = find("no-faults", ReliabilityPolicy::Static).latency.p99();
    let adaptive_p99 = find("no-faults", ReliabilityPolicy::Adaptive).latency.p99();
    let tail_gate = adaptive_p99 <= off_p99 * 1.5;
    eprintln!(
        "no-faults p99 (us): off {:.1} | static {:.1} | adaptive {:.1} | gate (<=1.5x off): {tail_gate}",
        off_p99 / 1e3,
        static_p99 / 1e3,
        adaptive_p99 / 1e3
    );
    // Gate 3 — partition goodput: the adaptive layer recovers at least
    // what fire-and-forget delivers (the static retransmit storm lost
    // goodput against that same bar).
    let part_off = find("partition", ReliabilityPolicy::Off).goodput();
    let part_static = find("partition", ReliabilityPolicy::Static).goodput();
    let part_adaptive = find("partition", ReliabilityPolicy::Adaptive).goodput();
    let goodput_gate = part_adaptive >= part_off;
    eprintln!(
        "partition goodput: off {part_off:.4} | static {part_static:.4} | \
         adaptive {part_adaptive:.4} | gate (adaptive >= off): {goodput_gate}"
    );

    // Wall clock for the scenario matrix at the requested worker count.
    let wall_ns = time_median(repeats, || {
        let r = run_matrix(jobs);
        assert_eq!(r.len(), rows.len());
    });
    eprintln!(
        "matrix: median {:.2} ms over {repeats} repeats",
        wall_ns as f64 / 1e6
    );

    let row_json = |name: &str, policy: ReliabilityPolicy, r: &ClusterReport| -> String {
        let o = &r.reliability.outcomes;
        format!(
            "    {{ \"scenario\": \"{name}\", \"policy\": \"{}\", \"sent\": {}, \
             \"goodput\": {:.6}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \
             \"retransmits\": {}, \"hedges\": {}, \"nacks_sent\": {}, \
             \"retries_suppressed\": {}, \"hedges_suppressed\": {}, \
             \"dups_absorbed\": {}, \"breaker_opens\": {}, \
             \"outcomes\": {{ \"ok\": {}, \"ok_hedged\": {}, \"shed\": {}, \
             \"deadline\": {}, \"corrupt\": {}, \"failed\": {} }} }}",
            policy.label(),
            r.sent,
            r.goodput(),
            r.latency.median(),
            r.latency.p99(),
            r.reliability.retransmits,
            r.reliability.hedges,
            r.reliability.nacks_sent,
            r.reliability.retries_suppressed,
            r.reliability.hedges_suppressed,
            r.reliability.dups_absorbed,
            r.reliability.breaker_opens,
            o.ok,
            o.ok_hedged,
            o.shed,
            o.deadline,
            o.corrupt,
            o.failed,
        )
    };
    let scenario_rows: Vec<String> = rows
        .iter()
        .map(|(name, policy, r)| row_json(name, *policy, r))
        .collect();
    let grid_rows: Vec<String> = grid
        .iter()
        .map(|g| {
            format!(
                "    {{ \"interarrival_us\": {}, \"drop\": {}, \"policy\": \"{}\", \
                 \"sent\": {}, \"goodput\": {:.6}, \"p99_ns\": {:.0}, \"shed\": {} }}",
                g.interarrival_us,
                g.drop,
                g.policy.label(),
                g.report.sent,
                g.report.goodput(),
                g.report.latency.p99(),
                g.report.reliability.outcomes.shed,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-adaptive-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"jobs\": {jobs},\n  \
         \"repeats\": {repeats},\n  \"static_hedge_ns\": {static_hedge_ns},\n  \
         \"matrix_median_wall_ns\": {wall_ns},\n  \
         \"deterministic\": {deterministic},\n  \
         \"no_faults_tail_gate_met\": {tail_gate},\n  \
         \"partition_goodput_gate_met\": {goodput_gate},\n  \
         \"no_faults_p99_ns\": {{ \"off\": {off_p99:.0}, \"static\": {static_p99:.0}, \
         \"adaptive\": {adaptive_p99:.0} }},\n  \
         \"partition_goodput\": {{ \"off\": {part_off:.6}, \"static\": {part_static:.6}, \
         \"adaptive\": {part_adaptive:.6} }},\n  \
         \"scenarios\": [\n{}\n  ],\n  \"grid\": [\n{}\n  ]\n}}\n",
        scenario_rows.join(",\n"),
        grid_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!(
            "error: adaptive traces diverged across reruns/worker counts — determinism broken"
        );
        return None;
    }
    if !tail_gate {
        eprintln!("error: adaptive no-faults p99 exceeded 1.5x the retries-off tail");
        return None;
    }
    if !goodput_gate {
        eprintln!("error: adaptive partition goodput fell below the retries-off bar");
        return None;
    }
    Some(())
}

/// `khbench scenario`: the traffic-scenario cell — fan-out amplification
/// sweep plus the HPC-colocation comparison — with the determinism,
/// amplification-ordering, and noise-isolation gates baked into the
/// exit code.
fn cmd_scenario(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::{
        colocation_compare, fanout_amplification, fanout_sweep, render_colocation, render_fanout,
    };
    use kh_cluster::ClusterReport;
    use kh_scenario::Scenario;
    use kh_workloads::svcload::SvcLoadConfig;

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(8))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_scenario.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    let degrees: Vec<usize> = if quick {
        vec![0, 1, 3]
    } else {
        vec![0, 1, 2, 3]
    };
    // Degree 0 is the single-tier baseline the amplification normalizes
    // against. The arrival gap keeps the deepest fan-out subcritical:
    // at degree f every request costs 1+f service phases, and the tail
    // comparison is only meaningful below saturation — a queue growing
    // for the whole window measures the window, not the stacks. Service
    // is deterministic so OS noise is the only stack difference (the
    // paper's comparison); heavy-tailed multipliers would swamp the
    // stack effect with stack-identical randomness.
    let sweep_spec = Scenario::parse("arrive=exp:2ms,svc=det,backend=det").expect("builtin");
    let clients = (nodes / 2).max(1);
    let victim = clients + (nodes - clients) / 2; // middle of the server half
    let colo_spec = Scenario::parse(&format!("arrive=exp:800us,svc=exp,colocate=hpcg:{victim}"))
        .expect("builtin");
    eprintln!(
        "khbench scenario: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x} degrees={degrees:?}"
    );
    eprintln!("sweep spec: {sweep_spec}");
    eprintln!("colocation spec: {colo_spec}");

    type SweepRow = (StackKind, usize, ClusterReport);
    type ColoRow = (StackKind, bool, ClusterReport);
    let fingerprint = |sweep: &[SweepRow], colo: &[ColoRow]| -> String {
        sweep
            .iter()
            .map(|(_, _, r)| r.csv())
            .chain(colo.iter().map(|(_, _, r)| r.csv()))
            .collect::<Vec<_>>()
            .join("---\n")
    };
    let run_all = |workers: usize| -> (Vec<SweepRow>, Vec<ColoRow>) {
        kh_core::pool::set_jobs(workers);
        (
            fanout_sweep(nodes, seed, svcload, &sweep_spec, &degrees),
            colocation_compare(nodes, seed, svcload, &colo_spec),
        )
    };

    // Gate 1 — determinism: --jobs 1, 2, and N plus a same-seed rerun
    // must all produce byte-identical per-request traces (tier and
    // fanout columns included).
    let (s1, c1) = run_all(1);
    let (s2, c2) = run_all(2);
    let (sweep, colo) = run_all(jobs);
    let (sr, cr) = run_all(jobs);
    let fp = fingerprint(&s1, &c1);
    let deterministic = !fp.is_empty()
        && fp == fingerprint(&s2, &c2)
        && fp == fingerprint(&sweep, &colo)
        && fp == fingerprint(&sr, &cr);
    eprintln!("determinism (jobs 1 == 2 == {jobs} == rerun): {deterministic}");

    // Gate 2 — amplification: every degree's p99 is at least its stack's
    // single-tier baseline, and Kitten's amplification never exceeds
    // Linux's at the same degree.
    let amps = fanout_amplification(&sweep);
    let amplification_gate = amps
        .iter()
        .all(|(_, _, amp)| amp.is_finite() && *amp >= 1.0 - 1e-9);
    // The amplified p99 itself, per degree — not the ratio: the stack
    // with the tighter single-tier baseline always shows the larger
    // *relative* amplification, so the ratio would punish Kitten for
    // having a cleaner denominator.
    let kitten_p99_le_linux = degrees.iter().all(|d| {
        let p99_of = |stack: StackKind| {
            sweep
                .iter()
                .find(|(s, deg, _)| *s == stack && deg == d)
                .map(|(_, _, r)| r.latency.p99())
                .unwrap_or(f64::NAN)
        };
        p99_of(StackKind::HafniumKitten) <= p99_of(StackKind::HafniumLinux) + 1e-9
    });

    // Gate 3 — noise isolation: arming the neighbor must not move a
    // single noise-histogram bucket on any non-colocated node.
    let noise_gate = colo.chunks(2).all(|pair| {
        let (clean, armed) = (&pair[0].2, &pair[1].2);
        let hpc = &armed.scenario.as_ref().expect("scenario run").hpc_nodes;
        clean
            .per_node
            .iter()
            .zip(armed.per_node.iter())
            .all(|(c, a)| hpc.contains(&c.index) || c.noise_hist == a.noise_hist)
    });
    // And the neighbor must actually hurt: colocated p99 >= clean p99.
    let colocation_bites = colo
        .chunks(2)
        .all(|pair| pair[1].2.latency.p99() >= pair[0].2.latency.p99());
    eprintln!(
        "gates: deterministic={deterministic} amplification_gate={amplification_gate} \
         kitten_p99_le_linux={kitten_p99_le_linux} noise_gate={noise_gate} \
         colocation_bites={colocation_bites}"
    );
    eprintln!("{}", render_fanout(&sweep));
    eprintln!("{}", render_colocation(&colo));

    // Wall clock for the sweep at the requested worker count.
    kh_core::pool::set_jobs(jobs);
    let wall_ns = time_median(repeats, || {
        let rows = fanout_sweep(nodes, seed, svcload, &sweep_spec, &degrees);
        assert_eq!(rows.len(), sweep.len());
    });
    eprintln!(
        "sweep: median {:.2} ms over {repeats} repeats",
        wall_ns as f64 / 1e6
    );

    let sweep_rows: Vec<String> = sweep
        .iter()
        .zip(&amps)
        .map(|((stack, d, r), (_, _, amp))| {
            let s = r.scenario.as_ref().expect("scenario run");
            format!(
                "    {{ \"stack\": \"{}\", \"fanout\": {d}, \"sent\": {}, \"completed\": {}, \
                 \"legs_sent\": {}, \"legs_ok\": {}, \"joins_ok\": {}, \
                 \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p99_amplification\": {amp:.6} }}",
                stack.label(),
                r.sent,
                r.completed,
                s.legs_sent,
                s.legs_ok,
                s.joins_ok,
                r.latency.median(),
                r.latency.p99(),
            )
        })
        .collect();
    let colo_rows: Vec<String> = colo
        .iter()
        .map(|(stack, armed, r)| {
            let s = r.scenario.as_ref().expect("scenario run");
            format!(
                "    {{ \"stack\": \"{}\", \"colocated\": {armed}, \"hpc_nodes\": {:?}, \
                 \"hpc_quanta\": {}, \"hpc_busy_ns\": {}, \"sent\": {}, \"completed\": {}, \
                 \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0} }}",
                stack.label(),
                s.hpc_nodes,
                s.hpc_quanta,
                s.hpc_busy.as_nanos(),
                r.sent,
                r.completed,
                r.latency.median(),
                r.latency.p99(),
                r.latency.p999(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-scenario-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"jobs\": {jobs},\n  \
         \"repeats\": {repeats},\n  \"sweep_spec\": \"{sweep_spec}\",\n  \
         \"colocation_spec\": \"{colo_spec}\",\n  \
         \"sweep_median_wall_ns\": {wall_ns},\n  \
         \"deterministic\": {deterministic},\n  \
         \"amplification_gate_met\": {amplification_gate},\n  \
         \"kitten_p99_le_linux\": {kitten_p99_le_linux},\n  \
         \"noise_isolation_gate_met\": {noise_gate},\n  \
         \"colocation_bites\": {colocation_bites},\n  \
         \"sweep\": [\n{}\n  ],\n  \"colocation\": [\n{}\n  ]\n}}\n",
        sweep_rows.join(",\n"),
        colo_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!(
            "error: scenario traces diverged across reruns/worker counts — determinism broken"
        );
        return None;
    }
    if !amplification_gate {
        eprintln!("error: fan-out failed to amplify the tail over the single-tier baseline");
        return None;
    }
    if !kitten_p99_le_linux {
        eprintln!("error: Kitten amplified p99 exceeded Linux at some fan-out degree");
        return None;
    }
    if !noise_gate {
        eprintln!("error: an HPC neighbor moved a non-colocated node's noise histogram");
        return None;
    }
    if !colocation_bites {
        eprintln!("error: the HPC neighbor left the colocated tail unchanged — the model is inert");
        return None;
    }
    Some(())
}

/// `khbench scenario-reliability`: the scenario-reliability grid —
/// stack arm x fault scenario x retry policy x fan-out depth, every
/// cell a full multi-tier scenario run through the per-leg
/// terminal-outcome pipeline with crash recovery wired in — with the
/// determinism, adaptive-vs-static goodput, healthy-node noise
/// isolation, and stack tail-ordering gates baked into the exit code.
fn cmd_scenario_reliability(flags: &HashMap<String, String>) -> Option<()> {
    use kh_cluster::figures::{
        render_scenario_reliability, scenario_reliability, ReliabilityPolicy,
        ScenarioReliabilityRow,
    };
    use kh_workloads::svcload::SvcLoadConfig;

    let quick = flags.contains_key("quick");
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(8))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster_scenario_reliability.json".to_string());
    let jobs = match flags.get("jobs") {
        Some(j) => j.parse().ok().filter(|&n| n >= 1)?,
        None => kh_core::pool::jobs(),
    };
    let svcload = if quick {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };
    let depths: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 3] };
    // Arrivals stay well subcritical at the deepest chain: depth d
    // costs 1 + 2 + (d - 1) service phases per request through the
    // quorum-1 fan-out plus single-leg chain below it, and the tail
    // comparison (gate 4) is only meaningful below saturation — a
    // queue growing for the whole window measures the window, not the
    // stacks. It also keeps queue delay under the CoDel target, so the
    // adaptive arm sheds nothing the static arm keeps (gate 2).
    let interarrival_us = 2500;
    let clients = (nodes / 2).max(1);
    // The victim sits in the middle of the server half. Mid-scenario:
    // the VM dies at 40% of the window, with enough runway left for
    // detection, restart, and the drained backlog.
    let victim = (clients + (nodes - clients) / 2) as u16;
    let crash_ms = svcload.duration.as_nanos() * 2 / 5 / 1_000_000;
    let mut faults: Vec<(String, Option<String>)> = vec![
        ("no-faults".to_string(), None),
        (
            "crashsvc".to_string(),
            Some(format!("crashsvc@{crash_ms}ms:{victim}")),
        ),
    ];
    if !quick {
        faults.push(("drop0.04".to_string(), Some("drop:0.04".to_string())));
    }
    eprintln!(
        "khbench scenario-reliability: nodes={nodes} jobs={jobs} quick={quick} seed={seed:#x} \
         depths={depths:?} victim={victim} crash={crash_ms}ms"
    );

    let fingerprint = |rows: &[ScenarioReliabilityRow]| -> String {
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
            .join("---\n")
    };
    let run_grid = |workers: usize| -> Vec<ScenarioReliabilityRow> {
        kh_core::pool::set_jobs(workers);
        scenario_reliability(nodes, seed, svcload, &faults, &depths, interarrival_us)
    };

    // Gate 1 — determinism: --jobs 1, 2, and N plus a same-seed rerun
    // must produce byte-identical per-request traces, reliability
    // machinery, crash recovery, and all.
    let r1 = run_grid(1);
    let r2 = run_grid(2);
    let rows = run_grid(jobs);
    let rerun = run_grid(jobs);
    let fp = fingerprint(&r1);
    let deterministic = !fp.is_empty()
        && fp == fingerprint(&r2)
        && fp == fingerprint(&rows)
        && fp == fingerprint(&rerun);
    eprintln!("determinism (jobs 1 == 2 == {jobs} == rerun): {deterministic}");

    let find = |stack: StackKind, fault: &str, depth: usize, policy: ReliabilityPolicy| {
        rows.iter().find(|r| {
            r.stack == stack && r.fault == fault && r.depth == depth && r.policy == policy
        })
    };

    // Gate 2 — the adaptive layer earns its keep where it matters: with
    // a service VM crashing mid-scenario, adaptive goodput is never
    // below static at any (stack, depth) cell.
    let mut adaptive_ge_static = true;
    for &stack in kh_cluster::figures::ARMS.iter() {
        for &d in &depths {
            let st = find(stack, "crashsvc", d, ReliabilityPolicy::Static)?;
            let ad = find(stack, "crashsvc", d, ReliabilityPolicy::Adaptive)?;
            let (gs, ga) = (st.report.goodput(), ad.report.goodput());
            if ga + 1e-9 < gs {
                eprintln!(
                    "gate miss: {} d={d} crashsvc adaptive {ga:.6} < static {gs:.6}",
                    stack.label()
                );
                adaptive_ge_static = false;
            }
        }
    }

    // Gate 3 — crash isolation: arming the crash fault must not move a
    // single noise-histogram bucket on any node but the victim, at any
    // cell of the grid.
    let healthy_noise_identical = rows.iter().all(|r| {
        if r.fault == "no-faults" {
            return true;
        }
        let Some(clean) = find(r.stack, "no-faults", r.depth, r.policy) else {
            return false;
        };
        clean
            .report
            .per_node
            .iter()
            .zip(r.report.per_node.iter())
            .all(|(c, f)| c.index == victim || c.noise_hist == f.noise_hist)
    });

    // Gate 4 — the paper's ordering survives retried multi-tier
    // traffic: on the clean fabric at depth >= 2, Theseus p99 <=
    // Kitten p99 <= Linux p99 at every policy.
    let mut stack_order = true;
    for &d in depths.iter().filter(|&&d| d >= 2) {
        for &policy in ReliabilityPolicy::ALL.iter() {
            let p99 = |stack: StackKind| {
                find(stack, "no-faults", d, policy)
                    .map(|r| r.report.latency.p99())
                    .unwrap_or(f64::NAN)
            };
            let (th, ki, li) = (
                p99(StackKind::NativeTheseus),
                p99(StackKind::HafniumKitten),
                p99(StackKind::HafniumLinux),
            );
            if !(th <= ki + 1e-9 && ki <= li + 1e-9) {
                eprintln!(
                    "gate miss: d={d} {} p99 theseus/kitten/linux = {th:.0}/{ki:.0}/{li:.0}",
                    policy.label()
                );
                stack_order = false;
            }
        }
    }
    eprintln!(
        "gates: deterministic={deterministic} adaptive_goodput_ge_static={adaptive_ge_static} \
         healthy_noise_identical={healthy_noise_identical} stack_p99_ordered={stack_order}"
    );
    eprintln!("{}", render_scenario_reliability(&rows));

    // Wall clock for one full grid at the requested worker count.
    kh_core::pool::set_jobs(jobs);
    let wall_ns = time_median(repeats, || {
        let r = run_grid(jobs);
        assert_eq!(r.len(), rows.len());
    });
    eprintln!(
        "grid: median {:.2} ms over {repeats} repeats",
        wall_ns as f64 / 1e6
    );

    let grid_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            let s = r.scenario.as_ref().expect("scenario run");
            format!(
                "    {{ \"stack\": \"{}\", \"fault\": \"{}\", \"depth\": {}, \"policy\": \"{}\", \
                 \"sent\": {}, \"completed\": {}, \"goodput\": {:.6}, \
                 \"retransmits\": {}, \"hedges\": {}, \"retries_suppressed\": {}, \
                 \"breaker_opens\": {}, \"crash_drops\": {}, \"recoveries\": {}, \
                 \"legs_sent\": {}, \"legs_ok\": {}, \"joins_ok\": {}, \"joins_failed\": {}, \
                 \"p50_ns\": {:.0}, \"p99_ns\": {:.0} }}",
                row.stack.label(),
                row.fault,
                row.depth,
                row.policy.label(),
                r.sent,
                r.completed,
                r.goodput(),
                r.reliability.retransmits,
                r.reliability.hedges,
                r.reliability.retries_suppressed,
                r.reliability.breaker_opens,
                r.reliability.crash_drops,
                r.recoveries.len(),
                s.legs_sent,
                s.legs_ok,
                s.joins_ok,
                s.joins_failed,
                r.latency.median(),
                r.latency.p99(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"khbench-cluster-scenario-reliability-v1\",\n  \"quick\": {quick},\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"jobs\": {jobs},\n  \
         \"repeats\": {repeats},\n  \"depths\": {depths:?},\n  \
         \"interarrival_us\": {interarrival_us},\n  \"victim\": {victim},\n  \
         \"crash_at_ms\": {crash_ms},\n  \"grid_median_wall_ns\": {wall_ns},\n  \
         \"deterministic\": {deterministic},\n  \
         \"adaptive_goodput_ge_static\": {adaptive_ge_static},\n  \
         \"healthy_noise_identical\": {healthy_noise_identical},\n  \
         \"stack_p99_ordered\": {stack_order},\n  \
         \"grid\": [\n{}\n  ]\n}}\n",
        grid_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if !deterministic {
        eprintln!(
            "error: scenario-reliability traces diverged across reruns/worker counts — \
             determinism broken"
        );
        return None;
    }
    if !adaptive_ge_static {
        eprintln!("error: adaptive goodput fell below static under a mid-scenario crash");
        return None;
    }
    if !healthy_noise_identical {
        eprintln!("error: a fault moved a healthy node's noise histogram");
        return None;
    }
    if !stack_order {
        eprintln!("error: stack p99 ordering broke at depth >= 2");
        return None;
    }
    Some(())
}

/// `khbench hotpath`: the host hot-path cell. Times the production
/// timing-wheel event queue against the displaced `BinaryHeap` +
/// tombstone baseline (steady-state scheduling and cancellation churn),
/// the open-addressed walk cache against both the raw nested walk and
/// the displaced FIFO `HashMap` probe, and re-derives the gups
/// walk-cache simulation fields to confirm they are byte-identical to
/// the committed perf artifact — the proof that the hot-path rework
/// moved host time only. Gates (reflected in the exit code):
/// `sim_fields_identical`, `translate_wall_speedup >= 1`, and wheel
/// events/sec >= heap. Writes `BENCH_host_hotpath.json`.
fn cmd_hotpath(flags: &HashMap<String, String>) -> Option<()> {
    use kh_bench::legacy::{LegacyBoundedMap, LegacyEventQueue};
    use kh_sim::EventQueue;

    let quick = flags.contains_key("quick");
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(kh_bench::SEED))?;
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(if quick { 3 } else { 5 }))?;
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_host_hotpath.json".to_string());
    let baseline_path = flags
        .get("baseline")
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel_walkcache.json".to_string());
    eprintln!("khbench hotpath: quick={quick} seed={seed:#x} repeats={repeats}");

    // --- 1. Event queue: wheel vs displaced heap ---------------------
    // Steady-state load: `PENDING` events always in flight; each
    // iteration pops the earliest and schedules a replacement at a
    // pseudorandom offset up to 1 ms out (the simulator's typical
    // horizon mix). The churn load additionally schedules a second
    // event and cancels it immediately — the hedged-retry pattern that
    // motivated O(1) cancellation.
    const PENDING: u64 = 4096;
    let pure_ops: usize = if quick { 200_000 } else { 1_000_000 };
    let churn_ops: usize = pure_ops / 2;
    let qseed = seed ^ 0x686F_7470; // "hotp"

    eprintln!("event queue: pure scheduling, {pure_ops} pop+schedule pairs...");
    let wheel_pure_ns = time_median(repeats, || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(PENDING as usize);
        let mut rng = SimRng::new(qseed);
        for i in 0..PENDING {
            q.schedule_at(Nanos::from_nanos(1 + rng.next_below(1_000_000)), i);
        }
        let mut sum = 0u64;
        for _ in 0..pure_ops {
            let ev = q.pop_next().expect("steady state");
            q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), ev.payload);
            sum = sum.wrapping_add(ev.payload);
        }
        std::hint::black_box(sum);
    });
    let heap_pure_ns = time_median(repeats, || {
        let mut q: LegacyEventQueue<u64> = LegacyEventQueue::new();
        let mut rng = SimRng::new(qseed);
        for i in 0..PENDING {
            q.schedule_at(Nanos::from_nanos(1 + rng.next_below(1_000_000)), i);
        }
        let mut sum = 0u64;
        for _ in 0..pure_ops {
            let (_, payload) = q.pop_next().expect("steady state");
            q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), payload);
            sum = sum.wrapping_add(payload);
        }
        std::hint::black_box(sum);
    });

    eprintln!("event queue: cancellation churn, {churn_ops} schedule x2 + cancel + pop...");
    let wheel_churn_ns = time_median(repeats, || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(PENDING as usize);
        let mut rng = SimRng::new(qseed);
        for i in 0..PENDING {
            q.schedule_at(Nanos::from_nanos(1 + rng.next_below(1_000_000)), i);
        }
        let mut sum = 0u64;
        for _ in 0..churn_ops {
            let _keep = q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), 1);
            let victim = q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), 2);
            assert!(q.cancel(victim));
            let ev = q.pop_next().expect("steady state");
            sum = sum.wrapping_add(ev.payload);
        }
        std::hint::black_box(sum);
    });
    let heap_churn_ns = time_median(repeats, || {
        let mut q: LegacyEventQueue<u64> = LegacyEventQueue::new();
        let mut rng = SimRng::new(qseed);
        for i in 0..PENDING {
            q.schedule_at(Nanos::from_nanos(1 + rng.next_below(1_000_000)), i);
        }
        let mut sum = 0u64;
        for _ in 0..churn_ops {
            let _keep = q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), 1);
            let victim = q.schedule_after(Nanos::from_nanos(1 + rng.next_below(1_000_000)), 2);
            assert!(q.cancel(victim));
            let (_, payload) = q.pop_next().expect("steady state");
            sum = sum.wrapping_add(payload);
        }
        std::hint::black_box(sum);
    });

    let pure_speedup = heap_pure_ns as f64 / wheel_pure_ns.max(1) as f64;
    let churn_speedup = heap_churn_ns as f64 / wheel_churn_ns.max(1) as f64;
    let wheel_total = wheel_pure_ns + wheel_churn_ns;
    let heap_total = heap_pure_ns + heap_churn_ns;
    let wheel_eps = (pure_ops + churn_ops) as f64 * 1e9 / wheel_total.max(1) as f64;
    let heap_eps = (pure_ops + churn_ops) as f64 * 1e9 / heap_total.max(1) as f64;
    let gate_wheel = wheel_eps >= heap_eps;
    eprintln!(
        "event queue: pure {:.1} -> {:.1} ns/op ({pure_speedup:.2}x), churn {:.1} -> {:.1} ns/op \
         ({churn_speedup:.2}x), wheel {:.2}M ev/s vs heap {:.2}M ev/s",
        heap_pure_ns as f64 / pure_ops as f64,
        wheel_pure_ns as f64 / pure_ops as f64,
        heap_churn_ns as f64 / churn_ops as f64,
        wheel_churn_ns as f64 / churn_ops as f64,
        wheel_eps / 1e6,
        heap_eps / 1e6,
    );

    // --- 2. Walk cache: flat table vs raw walk vs displaced FIFO map --
    eprintln!("walk cache: gups sim fields + translate microbench...");
    let wc = walk_cache_bench(seed, quick);
    let fixture = translate_fixture(seed, quick);
    let accesses = fixture.vas.len() as u64;
    // Displaced baseline: the FIFO HashMap+VecDeque probe layer at the
    // production combined-cache capacity, same hit pattern as the flat
    // table (uniform stream over 4096 pages -> ~100% steady-state hits).
    let legacy_cached_ns = time_median(repeats, || {
        let mut m: LegacyBoundedMap<u64> =
            LegacyBoundedMap::new(kh_arch::walkcache::DEFAULT_COMBINED_CAPACITY);
        let mut hits = 0u64;
        let mut out = 0u64;
        for &va in &fixture.vas {
            let vpn = va >> 12;
            match m.get(&(2, 1, vpn)) {
                Some(&page) => {
                    hits += 1;
                    out ^= page | (va & 0xFFF);
                }
                None => {
                    let (tr, _) =
                        two_stage_translate(&fixture.s1, &fixture.s2, va, AccessKind::Read)
                            .unwrap();
                    m.insert((2, 1, vpn), tr.out_addr & !0xFFF);
                    out ^= tr.out_addr;
                }
            }
        }
        assert!(hits > 0);
        std::hint::black_box(out);
    });
    let legacy_cached_per_access = legacy_cached_ns as f64 / accesses as f64;
    let gate_translate = wc.translate_speedup >= 1.0;
    eprintln!(
        "walk cache: translate {:.1} -> {:.1} ns/access ({:.2}x); displaced FIFO probe {:.1} ns/access",
        wc.translate_uncached_ns, wc.translate_cached_ns, wc.translate_speedup, legacy_cached_per_access,
    );

    // --- 3. Sim-field identity vs the committed perf artifact --------
    // The hot-path rework is host-time-only: the simulated gups numbers
    // it just re-derived must appear byte-for-byte in the committed
    // artifact. Needles carry the leading quote so e.g. `"hits":` never
    // matches inside `"s1_prefix_hits":`.
    let needles = [
        format!(
            "\"gups_virtual_elapsed_analytic_ns\": {}",
            wc.virtual_analytic_ns
        ),
        format!(
            "\"gups_virtual_elapsed_cached_ns\": {}",
            wc.virtual_cached_ns
        ),
        format!("\"gups_virtual_speedup\": {:.4}", wc.virtual_speedup),
        format!("\"hit_rate\": {:.6}", wc.stats.hit_rate()),
        format!("\"hits\": {}", wc.stats.hits),
        format!("\"s1_prefix_hits\": {}", wc.stats.s1_prefix_hits),
        format!("\"misses\": {}", wc.stats.misses),
        format!("\"invalidations\": {}", wc.stats.invalidations),
        format!("\"steps_paid\": {}", wc.stats.steps_paid),
        format!("\"steps_saved\": {}", wc.stats.steps_saved),
        format!("\"walk_cost_factor\": {:.6}", wc.stats.walk_cost_factor()),
    ];
    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let missing: Vec<&str> = if baseline.is_empty() {
        eprintln!("sim identity: cannot read {baseline_path} — gate fails");
        needles.iter().map(|n| n.as_str()).collect()
    } else {
        needles
            .iter()
            .map(|n| n.as_str())
            .filter(|n| !baseline.contains(*n))
            .collect()
    };
    for n in &missing {
        eprintln!("sim identity: field not byte-identical in {baseline_path}: {n}");
    }
    let gate_sim = missing.is_empty();
    eprintln!(
        "sim identity: {}/{} walk-cache sim fields byte-identical to {baseline_path}",
        needles.len() - missing.len(),
        needles.len()
    );

    eprintln!(
        "gates: sim_fields_identical={gate_sim} translate_wall_speedup_ge_1={gate_translate} \
         wheel_ge_heap={gate_wheel}"
    );

    let json = format!(
        "{{\n  \"schema\": \"khbench-hotpath-v1\",\n  \"quick\": {quick},\n  \"seed\": {seed},\n  \
         \"repeats\": {repeats},\n  \"event_queue\": {{\n    \
         \"pending\": {PENDING},\n    \"pure_ops\": {pure_ops},\n    \"churn_ops\": {churn_ops},\n    \
         \"wheel_pure_ns_per_op\": {wpure:.2},\n    \"heap_pure_ns_per_op\": {hpure:.2},\n    \
         \"pure_speedup\": {pure_speedup:.4},\n    \
         \"wheel_churn_ns_per_op\": {wchurn:.2},\n    \"heap_churn_ns_per_op\": {hchurn:.2},\n    \
         \"churn_speedup\": {churn_speedup:.4},\n    \
         \"wheel_events_per_sec\": {weps:.0},\n    \"heap_events_per_sec\": {heps:.0}\n  }},\n  \
         \"walk_cache\": {{\n    \
         \"translate_uncached_ns_per_access\": {tu:.2},\n    \
         \"translate_cached_ns_per_access\": {tc:.2},\n    \
         \"translate_wall_speedup\": {ts:.4},\n    \
         \"legacy_fifo_cached_ns_per_access\": {lf:.2}\n  }},\n  \
         \"sim_identity\": {{\n    \"baseline_file\": \"{baseline_path}\",\n    \
         \"fields_checked\": {nf},\n    \"fields_identical\": {ni}\n  }},\n  \
         \"gates\": {{\n    \"sim_fields_identical\": {gate_sim},\n    \
         \"translate_wall_speedup_ge_1\": {gate_translate},\n    \
         \"wheel_ge_heap\": {gate_wheel}\n  }}\n}}\n",
        wpure = wheel_pure_ns as f64 / pure_ops as f64,
        hpure = heap_pure_ns as f64 / pure_ops as f64,
        wchurn = wheel_churn_ns as f64 / churn_ops as f64,
        hchurn = heap_churn_ns as f64 / churn_ops as f64,
        weps = wheel_eps,
        heps = heap_eps,
        tu = wc.translate_uncached_ns,
        tc = wc.translate_cached_ns,
        ts = wc.translate_speedup,
        lf = legacy_cached_per_access,
        nf = needles.len(),
        ni = needles.len() - missing.len(),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return None;
    }
    eprintln!("wrote {out_path}");
    if gate_sim && gate_translate && gate_wheel {
        Some(())
    } else {
        None
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    let ok = match cmd.as_str() {
        "perf" => cmd_perf(&flags),
        "cluster" => cmd_cluster(&flags),
        "attestation" => cmd_attestation(&flags),
        "reliability" => cmd_reliability(&flags),
        "adaptive" => cmd_adaptive(&flags),
        "scenario" => cmd_scenario(&flags),
        "scenario-reliability" => cmd_scenario_reliability(&flags),
        "hotpath" => cmd_hotpath(&flags),
        _ => None,
    };
    match ok {
        Some(()) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}

//! `khsim` — command-line driver for the kitten-hafnium simulation.
//!
//! ```text
//! khsim run --workload hpcg --stack kitten --seed 7 --platform pine
//! khsim run --workload selfish --stack linux --trials 3
//! khsim parallel --threads 4 --stack kitten
//! khsim cluster --nodes 4 --workload svcload --stack linux
//! khsim figures            # regenerate every paper figure
//! khsim trace --workload netecho --stack linux    # event trace as CSV
//! khsim list               # show workloads / stacks / platforms
//! ```

use kitten_hafnium::arch::platform::Platform;
use kitten_hafnium::core::config::{MachineConfig, StackKind, StackOptions};
use kitten_hafnium::core::figures;
use kitten_hafnium::core::machine::Machine;
use kitten_hafnium::core::parallel::{BarrierMode, ParallelMachine};
use kitten_hafnium::hafnium::irq::IrqRoutingPolicy;
use kitten_hafnium::sim::fault::{FaultPlan, FaultSpec};
use kitten_hafnium::sim::trace::{events_to_csv, TraceRecorder};
use kitten_hafnium::sim::Nanos;
use kitten_hafnium::workloads::blkstream::{BlkStreamConfig, BlkStreamModel};
use kitten_hafnium::workloads::ftq::{Ftq, FtqConfig};
use kitten_hafnium::workloads::gups::{GupsConfig, GupsModel};
use kitten_hafnium::workloads::hpcg::{HpcgConfig, HpcgModel};
use kitten_hafnium::workloads::nas::NasBenchmark;
use kitten_hafnium::workloads::netecho::{NetEchoConfig, NetEchoModel};
use kitten_hafnium::workloads::selfish::{SelfishConfig, SelfishDetour};
use kitten_hafnium::workloads::stream::{StreamConfig, StreamModel};
use kitten_hafnium::workloads::{Workload, WorkloadOutput};
use std::collections::HashMap;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &[
    "selfish",
    "ftq",
    "stream",
    "randomaccess",
    "hpcg",
    "nas-lu",
    "nas-bt",
    "nas-cg",
    "nas-ep",
    "nas-sp",
    "netecho",
    "blkstream",
];

fn usage() -> ExitCode {
    eprintln!(
        "khsim v{} — the kitten-hafnium reproduction driver

USAGE:
  khsim run [--workload W] [--stack S] [--seed N] [--platform P] [--trials N]
            [--faults SPEC] [--fault-seed N] [--jobs N]
  khsim parallel [--threads N] [--stack S] [--seed N] [--no-barrier]
  khsim cluster [--nodes N] [--workload svcload] [--stack S] [--seed N]
                [--faults SPEC] [--fault-seed N] [--quick] [--ablation]
                [--retries] [--adaptive] [--reliability] [--metastability]
                [--attest] [--scenario SPEC|FILE.khs] [--queue-depth N]
                [--out FILE] [--jobs N]
  khsim figures [--trials N] [--seed N] [--jobs N]
  khsim trace [--workload W] [--stack S] [--seed N] [--platform P]
              [--routing primary|selective] [--out FILE]
  khsim list

OPTIONS:
  --workload    one of: {}
  --stack       native | kitten | linux | theseus  (default kitten;
                cluster accepts kitten | linux | theseus)
  --platform    pine | rpi3 | qemu | tx2       (default pine)
  --seed        u64                            (default 0x5C21)
  --trials      repeat count with seed+i       (default 1)
  --threads     parallel worker threads        (default 4)
  --faults      fault spec, e.g. crash@200ms,drop-mailbox:0.1,lose-irq:0.05
                (`default` = the built-in storm); injected into a victim
                secondary VM, never the benchmark. For `cluster` the spec
                is a fabric spec: drop:P,corrupt:P,reorder:P,
                jitter:P:EXTRA,partition@T:DUR:NODE,crashsvc@T:NODE,
                tamper@NODE (forged boot measurement; needs --attest)
  --nodes       cluster node count (>= 2): first half clients, second
                half servers (default 4)
  --quick       cluster: 50 ms load window instead of 200 ms
  --ablation    cluster: run every server-stack arm (kitten, linux,
                theseus) and print the comparison
  --retries     cluster: arm the default RetryPolicy (deadline, seeded
                backoff retransmits); lost requests retry instead of
                silently failing
  --adaptive    cluster: arm the adaptive reliability layer (live-quantile
                hedging, token-bucket retry budgets, per-destination
                circuit breakers, CoDel queue-delay admission)
  --reliability cluster: run the {{no-faults, drop, partition, crashsvc}}
                x {{retries off/on}} matrix and print the sweep table
  --metastability
                cluster: run the load x drop x {{off, static, adaptive}}
                grid and print where the static layer tips into collapse.
                The three sweeps run one at a time and take only --nodes,
                --seed, --quick and --jobs
  --attest      cluster: run the remote-attestation handshake before
                traffic; nodes failing the measurement registry are
                quarantined (pair with --faults tamper@NODE)
  --scenario    cluster: a traffic scenario — inline one-liner or a .khs
                file path, e.g. arrive=exp:500us,svc=exp,fanout=3:quorum:2
                or arrive=mmpp:300us:5ms:5ms,colocate=hpcg:6+7. Deeper
                tiers chain with tier=2:2:all,tier=3:1:quorum:1; closed-
                loop sessions replace arrive= with clients=4:think:300us;
                retry=client|tN:off|static|adaptive overrides the
                --retries/--adaptive default per leg. Scenario legs run
                the full reliability pipeline, and --faults crashsvc@T:N
                (plus drop/partition) composes with scenario runs
  --queue-depth cluster: switch egress queue depth, frames per port
                (default {}; a scenario's queues= clause overrides)
  --out         cluster/trace: write the per-request CSV here
  --fault-seed  u64 seed for the fault streams (default 1)
  --jobs        experiment-pool worker threads (default: KH_JOBS env var,
                then host cores). Results are identical for any value.",
        kitten_hafnium::VERSION,
        WORKLOADS.join(" | "),
        kitten_hafnium::cluster::DEFAULT_QUEUE_DEPTH
    );
    ExitCode::from(2)
}

/// Each subcommand and the flags its usage line lists — the only ones
/// it accepts.
const SUBCOMMANDS: &[(&str, &str)] = &[
    (
        "run",
        "workload stack seed platform trials faults fault-seed jobs",
    ),
    ("parallel", "threads stack seed no-barrier"),
    (
        "cluster",
        "nodes workload stack seed faults fault-seed quick ablation retries adaptive \
         reliability metastability attest scenario queue-depth out jobs",
    ),
    ("figures", "trials seed jobs"),
    ("trace", "workload stack seed platform routing out"),
    ("list", ""),
];

/// Flags that take no value.
const SWITCHES: &str =
    "no-barrier quick ablation retries adaptive reliability metastability attest";

/// Parse `args` for subcommand `cmd`, refusing any flag its usage line
/// does not list.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let takes = SUBCOMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, takes)| *takes)
        .ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = match a.strip_prefix("--") {
            Some(key) if takes.split_whitespace().any(|f| f == key) => key,
            _ => return Err(format!("khsim {cmd} does not take {a:?}")),
        };
        let value = if SWITCHES.split_whitespace().any(|f| f == key) {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn stack_of(name: &str) -> Option<StackKind> {
    match name {
        "native" => Some(StackKind::NativeKitten),
        "kitten" => Some(StackKind::HafniumKitten),
        "linux" => Some(StackKind::HafniumLinux),
        "theseus" => Some(StackKind::NativeTheseus),
        _ => None,
    }
}

fn platform_of(name: &str) -> Option<Platform> {
    match name {
        "pine" => Some(Platform::pine_a64_lts()),
        "rpi3" => Some(Platform::raspberry_pi3()),
        "qemu" => Some(Platform::qemu_virt()),
        "tx2" => Some(Platform::thunderx2()),
        _ => None,
    }
}

fn workload_of(name: &str) -> Option<Box<dyn Workload + Send>> {
    match name {
        "selfish" => Some(Box::new(SelfishDetour::new(SelfishConfig::default()))),
        "ftq" => Some(Box::new(Ftq::new(FtqConfig::default()))),
        "stream" => Some(Box::new(StreamModel::new(StreamConfig::default()))),
        "randomaccess" | "gups" => Some(Box::new(GupsModel::new(GupsConfig::default()))),
        "hpcg" => Some(Box::new(HpcgModel::new(HpcgConfig::default()))),
        "nas-lu" => Some(NasBenchmark::Lu.model()),
        "nas-bt" => Some(NasBenchmark::Bt.model()),
        "nas-cg" => Some(NasBenchmark::Cg.model()),
        "nas-ep" => Some(NasBenchmark::Ep.model()),
        "nas-sp" => Some(NasBenchmark::Sp.model()),
        "netecho" => Some(Box::new(NetEchoModel::new(NetEchoConfig::default()))),
        "blkstream" => Some(Box::new(BlkStreamModel::new(BlkStreamConfig::default()))),
        _ => None,
    }
}

fn describe(output: &WorkloadOutput) -> String {
    match output {
        WorkloadOutput::Throughput { value, unit } => format!("{value:.6} {}", unit.label()),
        WorkloadOutput::Detours(d) => {
            let total: u64 = d.iter().map(|x| x.duration.as_nanos()).sum();
            format!("{} detours, {} total detour time", d.len(), Nanos(total))
        }
        WorkloadOutput::Series { label, values } => {
            format!(
                "{label}: {} samples, noise cv = {:.5}",
                values.len(),
                Ftq::noise_cv(values)
            )
        }
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Option<()> {
    let workload = flags.get("workload").map(|s| s.as_str()).unwrap_or("hpcg");
    let stack = stack_of(flags.get("stack").map(|s| s.as_str()).unwrap_or("kitten"))?;
    let platform = platform_of(flags.get("platform").map(|s| s.as_str()).unwrap_or("pine"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(0x5C21))?;
    let trials: u64 = flags
        .get("trials")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(1))?;
    let fault_spec = match flags.get("faults").map(|s| s.as_str()) {
        None => None,
        Some("default") => Some(FaultSpec::parse(figures::DEFAULT_FAULT_SPEC).expect("builtin")),
        Some(raw) => match FaultSpec::parse(raw) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: bad --faults spec: {e}");
                return None;
            }
        },
    };
    let fault_seed: u64 = flags
        .get("fault-seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(1))?;

    println!(
        "workload={workload} stack={} platform={} seed={seed:#x} trials={trials}",
        stack.label(),
        platform.name
    );
    for t in 0..trials {
        let cfg = MachineConfig {
            platform,
            stack,
            options: StackOptions::default(),
            seed: seed + t,
        };
        let mut machine = Machine::new(cfg);
        if let Some(spec) = &fault_spec {
            // Horizon beyond any bundled workload; events past the end
            // of the run simply never fire.
            machine.inject_faults(FaultPlan::new(spec, fault_seed, Nanos::from_secs(30)));
        }
        let mut w = workload_of(workload)?;
        let r = machine.run(w.as_mut());
        println!(
            "  trial {t}: {:<44} elapsed={:<12} interruptions={:<5} stolen={}",
            describe(&r.output),
            format!("{}", r.elapsed),
            r.interruptions,
            r.stolen
        );
        if let Some(v) = &r.victim {
            let f = &r.fault_stats;
            println!(
                "    faults: {} injected (crash {}, hang {}, drop {}, corrupt {}, \
                 doorbell -{}/+{}, irq -{}/+{}, timer {})",
                f.total(),
                f.crashes,
                f.hangs,
                f.mailbox_dropped,
                f.mailbox_corrupted,
                f.doorbells_lost,
                f.doorbells_spurious,
                f.irqs_lost,
                f.irqs_spurious,
                f.timer_delays,
            );
            println!(
                "    victim: {} beats ({} delivered, {} missed), {} restarts, \
                 {} rekicks, {} frames echoed, {} sends abandoned",
                v.heartbeats,
                v.delivered,
                v.missed,
                r.vm_restarts,
                v.rekicks,
                v.frames_echoed,
                v.sends_abandoned,
            );
        }
    }
    Some(())
}

fn cmd_parallel(flags: &HashMap<String, String>) -> Option<()> {
    let stack = stack_of(flags.get("stack").map(|s| s.as_str()).unwrap_or("kitten"))?;
    let threads: u16 = flags
        .get("threads")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(0x5C21))?;
    let barrier = if flags.contains_key("no-barrier") {
        BarrierMode::None
    } else {
        BarrierMode::PerPhase
    };
    let cfg = MachineConfig::pine_a64(stack, seed);
    let cores = cfg.platform.num_cores;
    if !(1..=cores).contains(&threads) {
        eprintln!("error: --threads {threads} is outside 1..={cores}, the platform's cores");
        return None;
    }
    let mut m = ParallelMachine::new(cfg, threads);
    let workloads = (0..threads).map(|_| NasBenchmark::Lu.model()).collect();
    let r = m.run(workloads, barrier);
    println!(
        "parallel LU x{threads} on {}: aggregate {:.2} Mop/s, elapsed {}, barrier wait {}, {} barriers",
        stack.label(),
        r.aggregate_throughput(),
        r.elapsed,
        r.total_barrier_wait(),
        r.barriers
    );
    Some(())
}

/// `khsim cluster`: N machine stacks under one clock driving the
/// svcload tail-latency workload over the simulated fabric.
fn cmd_cluster(flags: &HashMap<String, String>) -> Option<()> {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::sim::fault::{FabricFaultPlan, FabricFaultSpec};
    use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
    use kitten_hafnium::workloads::svcload::{RetryPolicy, SvcLoadConfig};

    let workload = flags
        .get("workload")
        .map(|s| s.as_str())
        .unwrap_or("svcload");
    if workload != "svcload" {
        eprintln!("error: the cluster driver only knows the svcload workload");
        return None;
    }
    let nodes: usize = flags
        .get("nodes")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(4))?;
    if nodes < 2 {
        eprintln!("error: --nodes {nodes} is below the 2-node minimum");
        return None;
    }
    // A sweep runs its own grid of configurations: it takes the load
    // (--nodes, --seed, --quick) but no flag of a single run, and runs
    // alone.
    let sweeps: Vec<&str> = ["ablation", "reliability", "metastability"]
        .into_iter()
        .filter(|s| flags.contains_key(*s))
        .collect();
    if let [first, second, ..] = sweeps[..] {
        eprintln!("error: --{first} and --{second} are separate sweeps; run one at a time");
        return None;
    }
    let run_flags = [
        "faults",
        "fault-seed",
        "scenario",
        "retries",
        "adaptive",
        "attest",
        "queue-depth",
        "out",
        "stack",
    ];
    if let (Some(sweep), Some(flag)) = (
        sweeps.first(),
        run_flags.iter().find(|f| flags.contains_key(**f)),
    ) {
        eprintln!("error: --{sweep} runs its own grid and does not take --{flag}");
        return None;
    }
    let stack = stack_of(flags.get("stack").map(|s| s.as_str()).unwrap_or("kitten"))?;
    if !stack.supports_cluster() {
        eprintln!("error: cluster nodes need a cluster-capable stack (kitten | linux | theseus)");
        return None;
    }
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(0x5C21))?;
    let svcload = if flags.contains_key("quick") {
        SvcLoadConfig::quick()
    } else {
        SvcLoadConfig::default()
    };

    if flags.contains_key("ablation") {
        let reports = cluster::ablation_cluster(nodes, seed, svcload);
        println!("{}", cluster::render_cluster(&reports));
        return Some(());
    }
    if flags.contains_key("reliability") {
        let rows = cluster::reliability_matrix(nodes, seed, svcload, AdaptivePolicy::default());
        println!("{}", cluster::render_reliability(&rows));
        return Some(());
    }
    if flags.contains_key("metastability") {
        // The static arm carries a frozen 2 ms hedge delay — the
        // historical fault-free-baseline configuration whose load
        // feedback the grid is built to expose.
        let static_policy = RetryPolicy {
            hedge_delay: Some(kitten_hafnium::sim::Nanos::from_millis(2)),
            ..RetryPolicy::default()
        };
        let rows = cluster::metastability_sweep(
            nodes,
            seed,
            svcload,
            &[500, 350, 250],
            &[0.0, 0.02, 0.05],
            static_policy,
            AdaptivePolicy::default(),
        );
        println!("{}", cluster::render_metastability(&rows));
        return Some(());
    }

    let mut cfg = ClusterConfig::new(nodes, stack, seed);
    cfg.svcload = svcload;
    if let Some(depth) = flags.get("queue-depth") {
        match depth.parse::<usize>() {
            Ok(n) if n >= 1 => cfg.queue_depth = n,
            _ => {
                eprintln!("error: --queue-depth wants an integer >= 1");
                return None;
            }
        }
    }
    if let Some(raw) = flags.get("scenario") {
        // A path to a .khs file, or the spec inline — same grammar.
        let text = if std::path::Path::new(raw).is_file() {
            match std::fs::read_to_string(raw) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {raw}: {e}");
                    return None;
                }
            }
        } else {
            raw.clone()
        };
        match kitten_hafnium::scenario::Scenario::parse(&text) {
            Ok(s) => cfg.scenario = Some(s),
            Err(e) => {
                eprintln!("error: bad --scenario spec: {e}");
                return None;
            }
        }
    }
    if flags.contains_key("retries") {
        cfg.retry = Some(RetryPolicy::default());
    }
    if flags.contains_key("adaptive") {
        cfg.adaptive = Some(AdaptivePolicy::default());
    }
    if flags.contains_key("attest") {
        cfg.attest = true;
    }
    if let Some(raw) = flags.get("faults") {
        let spec = match FabricFaultSpec::parse(raw) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: bad --faults spec: {e}");
                return None;
            }
        };
        let fault_seed: u64 = flags
            .get("fault-seed")
            .map(|s| s.parse().ok())
            .unwrap_or(Some(1))?;
        // A clause naming a node the run does not have would never fire.
        let plan = FabricFaultPlan::new(&spec, fault_seed);
        let last = nodes - 1;
        let servers = cfg.clients()..nodes;
        let bad_target = if let Some(e) = plan
            .svc_crash_events()
            .iter()
            .find(|e| !servers.contains(&(e.node as usize)))
        {
            Some(format!(
                "crashsvc targets node {}, but the servers are nodes {}..={last}",
                e.node, servers.start
            ))
        } else if let Some(n) = plan
            .partitioned_nodes()
            .into_iter()
            .chain(plan.tampered_nodes().iter().copied())
            .find(|&n| n as usize > last)
        {
            Some(format!("node {n} does not exist (nodes are 0..={last})"))
        } else if !plan.tampered_nodes().is_empty() && !cfg.attest {
            Some("tamper@NODE needs --attest".to_string())
        } else {
            None
        };
        if let Some(why) = bad_target {
            eprintln!("error: --faults {raw}: {why}");
            return None;
        }
        cfg.faults = Some((spec, fault_seed));
    }
    let report = cluster::run(&cfg);
    println!("{}", report.render());
    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, report.csv()) {
            eprintln!("error: cannot write {path}: {e}");
            return None;
        }
        eprintln!("wrote {path}");
    }
    Some(())
}

fn cmd_figures(flags: &HashMap<String, String>) -> Option<()> {
    let trials: u32 = flags
        .get("trials")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(3))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(0x5C21))?;
    let profiles = figures::figures_4_to_6(seed, Nanos::from_secs(1));
    println!(
        "{}",
        figures::render_selfish(&profiles, Nanos::from_secs(1))
    );
    let micro = figures::figure_7_8(trials, seed);
    println!("{}", micro.normalized_table());
    println!("{}", micro.raw_table());
    let nas = figures::figure_9_10(trials, seed);
    println!("{}", nas.normalized_table());
    println!("{}", nas.raw_table());
    let spec = FaultSpec::parse(figures::DEFAULT_FAULT_SPEC).expect("builtin");
    let faults = figures::ablation_faults(seed, 1, &spec);
    println!("{}", figures::render_faults(&faults));
    Some(())
}

/// `khsim trace`: run one workload with event tracing and dump the
/// recorded events — including the virtio doorbell / IRQ-injection
/// events for the I/O workloads — as CSV (stdout or `--out FILE`).
fn cmd_trace(flags: &HashMap<String, String>) -> Option<()> {
    let workload = flags
        .get("workload")
        .map(|s| s.as_str())
        .unwrap_or("netecho");
    let stack = stack_of(flags.get("stack").map(|s| s.as_str()).unwrap_or("kitten"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().ok())
        .unwrap_or(Some(0x5C21))?;
    let routing = match flags
        .get("routing")
        .map(|s| s.as_str())
        .unwrap_or("primary")
    {
        "primary" => IrqRoutingPolicy::AllToPrimary,
        "selective" => IrqRoutingPolicy::Selective,
        _ => return None,
    };

    let csv = match workload {
        // The I/O workloads trace the virtio path itself: every doorbell
        // and completion-interrupt injection, priced.
        "netecho" | "blkstream" => {
            let mut tr = TraceRecorder::new(1 << 20);
            let (frames, requests) = if workload == "netecho" {
                (512, 0)
            } else {
                (0, 256)
            };
            let row = figures::virtio_io_run(stack, routing, frames, requests, 16, Some(&mut tr));
            eprintln!(
                "{workload} on {} / {routing:?}: {} doorbells ({} suppressed), {} irqs ({} forwarded)",
                stack.label(),
                row.doorbells,
                row.doorbells_suppressed,
                row.irqs_delivered,
                row.irqs_forwarded
            );
            let events = tr.drain();
            events_to_csv(events.iter())
        }
        _ => {
            let platform =
                platform_of(flags.get("platform").map(|s| s.as_str()).unwrap_or("pine"))?;
            let cfg = MachineConfig {
                platform,
                stack,
                options: StackOptions::default(),
                seed,
            };
            let mut machine = Machine::new(cfg);
            machine.enable_tracing(1 << 20);
            let mut w = workload_of(workload)?;
            let r = machine.run(w.as_mut());
            eprintln!(
                "{workload} on {}: {} ({} events traced)",
                stack.label(),
                describe(&r.output),
                machine.trace().len()
            );
            machine.trace().to_csv()
        }
    };

    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("error: cannot write {path}: {e}");
                return None;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    Some(())
}

fn cmd_list() {
    println!("workloads : {}", WORKLOADS.join(", "));
    println!("stacks    : native, kitten, linux, theseus");
    println!("platforms : pine (Pine A64-LTS), rpi3, qemu, tx2 (ThunderX2)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(cmd, rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(jobs) = flags.get("jobs") {
        match jobs.parse::<usize>() {
            Ok(n) if n >= 1 => kitten_hafnium::core::pool::set_jobs(n),
            _ => return usage(),
        }
    }
    let ok = match cmd.as_str() {
        "run" => cmd_run(&flags),
        "parallel" => cmd_parallel(&flags),
        "cluster" => cmd_cluster(&flags),
        "figures" => cmd_figures(&flags),
        "trace" => cmd_trace(&flags),
        "list" => {
            cmd_list();
            Some(())
        }
        _ => None,
    };
    match ok {
        Some(()) => ExitCode::SUCCESS,
        None => usage(),
    }
}

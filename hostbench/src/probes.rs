//! The traced run's per-layer metrics.
//!
//! Two kinds, never mixed:
//!
//! - **Counts**, read from one untraced pass's reports. They are
//!   deterministic for a seed, so a change to one layer compares
//!   exactly against its parent.
//! - **Host time per call**, measured after the timed passes by driving
//!   one public layer function on fresh state with the workload's own
//!   parameters (phase, frame sizes, gaps, pending depth, node count,
//!   policies). `calls` comes from the counts above and
//!   `share = ns_per_call × calls / wall`. Spans wrap only the outer
//!   calls of a traced pass (`cluster::run`, `Machine::new`,
//!   `Machine::run`); nothing inside the simulator is instrumented.
//!
//! A layer a workload never enters still gets its probe, run at a
//! representative cluster or machine (four Kitten nodes, default
//! svcload; selfish-detour on Hafnium+Kitten), with `calls = 0` and
//! `share = 0`.

use crate::workload::{Reports, SimSummary, Spans, Spec, Tails, Workload};
use crate::{Metric, Metrics};
use kh_arch::platform::Platform;
use kh_cluster::{handshake, AdmissionPolicy, ClusterConfig, Fabric, Node, Role};
use kh_core::{Machine, MachineConfig, StackKind};
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::SpmConfig;
use kh_hafnium::vm::VmId;
use kh_metrics::hist::LogHistogram;
use kh_metrics::quantile::WindowedQuantile;
use kh_sim::{EventQueue, FabricFaultPlan, Nanos, SimRng};
use kh_virtio::LinkProfile;
use kh_workloads::adaptive::{CircuitBreaker, RetryBudget};
use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
use kh_workloads::svcload::{decode_frame, request_frame_into, response_frame_into};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each probe runs for, in slices of `PROBE_SLICE`, and the
/// fewest slices it takes however long one call is.
const PROBE_BUDGET: Duration = Duration::from_millis(40);
const PROBE_SLICE: Duration = Duration::from_millis(5);
const MIN_SLICES: usize = 3;
/// Future arrivals each cluster client keeps filed in the event queue
/// (crate-private `ARRIVAL_BATCH` in `kh_cluster::cluster`).
const ARRIVAL_BATCH: f64 = 32.0;
/// Noise recording horizon for probe nodes: never reached.
const FAR: Nanos = Nanos(u64::MAX / 4);

/// One server stack's share of a pass, for weighting stack-dependent
/// probes.
#[derive(Debug, Clone, Copy)]
struct StackLoad {
    stack: StackKind,
    nodes: u64,
    noise_events: u64,
    served: u64,
}

/// Deterministic counters of one pass, summed over its runs.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    runs: u64,
    nodes: u64,
    clients: u64,
    servers: u64,
    sent: u64,
    completed: u64,
    records: u64,
    attempts: u64,
    served: u64,
    shed: u64,
    dup_hits: u64,
    noise_events: u64,
    vcpu_runs: u64,
    stolen_ns: u64,
    frames: u64,
    bytes: u64,
    drops: u64,
    retransmits: u64,
    hedges: u64,
    suppressed: u64,
    breaker_opens: u64,
    legs_sent: u64,
    legs_ok: u64,
    late_legs: u64,
    attested_runs: u64,
    attest_frames: u64,
    attest_completion_ns: u64,
    machine_runs: u64,
    interruptions: u64,
    host_ticks: u64,
    guest_ticks: u64,
    background_events: u64,
    machine_vcpu_runs: u64,
    machine_sim_ms: f64,
    stacks: Vec<StackLoad>,
}

impl Counts {
    pub fn of(reports: &Reports) -> Counts {
        let mut c = Counts::default();
        match reports {
            Reports::Cluster(rs) => {
                for r in rs {
                    c.runs += 1;
                    c.nodes += r.nodes as u64;
                    c.clients += r.clients as u64;
                    c.servers += r.servers as u64;
                    c.sent += r.sent;
                    c.completed += r.completed;
                    c.records += r.records.len() as u64;
                    c.attempts += r
                        .records
                        .iter()
                        .filter(|rec| rec.tier == 0)
                        .map(|rec| rec.attempts as u64)
                        .sum::<u64>();
                    for n in &r.per_node {
                        let s = &n.stats;
                        let noise = s.host_ticks + s.guest_ticks + s.background_events;
                        c.served += s.served;
                        c.shed += s.shed;
                        c.dup_hits += s.dup_hits;
                        c.noise_events += noise;
                        c.vcpu_runs += s.vcpu_runs;
                        c.stolen_ns += s.stolen.as_nanos();
                        let load = match c.stacks.iter_mut().find(|l| l.stack == n.stack) {
                            Some(l) => l,
                            None => {
                                c.stacks.push(StackLoad {
                                    stack: n.stack,
                                    nodes: 0,
                                    noise_events: 0,
                                    served: 0,
                                });
                                c.stacks.last_mut().expect("just pushed")
                            }
                        };
                        load.nodes += 1;
                        load.noise_events += noise;
                        load.served += s.served;
                    }
                    c.frames += r.fabric.frames_forwarded;
                    c.bytes += r.fabric.bytes_forwarded;
                    c.drops += r.fabric.total_drops();
                    let rel = &r.reliability;
                    c.retransmits += rel.retransmits;
                    c.hedges += rel.hedges;
                    c.suppressed += rel.retries_suppressed + rel.hedges_suppressed;
                    c.breaker_opens += rel.breaker_opens;
                    if let Some(s) = &r.scenario {
                        c.legs_sent += s.legs_sent;
                        c.legs_ok += s.legs_ok;
                        c.late_legs += s.late_legs;
                    }
                    if let Some(a) = &r.attestation {
                        c.attested_runs += 1;
                        c.attest_frames += a.frames;
                        c.attest_completion_ns += a.completed_at.as_nanos();
                    }
                }
            }
            Reports::Machine(rs) => {
                for r in rs {
                    c.machine_runs += 1;
                    c.interruptions += r.interruptions;
                    c.host_ticks += r.host_ticks;
                    c.guest_ticks += r.guest_ticks;
                    c.background_events += r.background_events;
                    c.machine_vcpu_runs += r.vcpu_runs;
                    c.machine_sim_ms += r.elapsed.as_nanos() as f64 / 1e6;
                }
            }
        }
        c
    }

    /// Events the executor must have popped: arrivals, deliveries,
    /// retransmits and hedges. A lower bound, because timers that fire
    /// into an already-resolved request are invisible from outside.
    fn events_lb(&self) -> u64 {
        self.sent + self.frames + self.retransmits + self.hedges
    }
}

/// What the traced invocation measured besides the probes.
pub struct Traced {
    /// Untraced pass time as the end-to-end `wall_s` computes it,
    /// seconds.
    pub wall_s: f64,
    /// Fast quartile of the traced passes' total times, seconds: the
    /// denominator of every share. The spans are per-pass totals too,
    /// so a direct span's share never exceeds one.
    pub traced_wall_s: f64,
    /// Median over the runs of traced passes of their time over the
    /// mean of the same run in the untraced passes either side, minus
    /// one. Pairing cancels host slowdowns that last longer than three
    /// passes.
    pub overhead: f64,
    /// Spans of the traced passes (fast quartile of each).
    pub spans: Spans,
    /// Host time of `ClusterReport::csv` over the counted pass's reports.
    pub csv: Duration,
    /// Peak RSS of a pass above its zero-traffic twin, bytes.
    pub rss_above_twin: f64,
}

/// Run `batch` (which makes some calls and returns how many) in slices
/// of at least one batch until the probe budget is spent;
/// host nanoseconds per call in the fastest slice. Like the fast
/// quartile of the timed passes, the fastest slice skips the moments a
/// busy neighbour slows the host, so shares compare like with like.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut slices = 0;
    while slices < MIN_SLICES || start.elapsed() < PROBE_BUDGET {
        slices += 1;
        let slice = Instant::now();
        let mut calls = batch();
        while slice.elapsed() < PROBE_SLICE {
            calls += batch();
        }
        if calls > 0 {
            best = best.min(slice.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    assert!(best.is_finite(), "probe made no calls within its budget");
    best
}

/// Average of a stack-dependent probe, weighted by each stack's share
/// of `weight` in the pass (unweighted over the stacks present when
/// the weight is zero everywhere).
fn weighted(
    stacks: &[StackLoad],
    weight: impl Fn(&StackLoad) -> u64,
    mut probe: impl FnMut(StackKind) -> f64,
) -> f64 {
    let total: u64 = stacks.iter().map(&weight).sum();
    let mut acc = 0.0;
    for s in stacks {
        let w = if total == 0 {
            1.0 / stacks.len() as f64
        } else {
            weight(s) as f64 / total as f64
        };
        if w > 0.0 {
            acc += w * probe(s.stack);
        }
    }
    acc
}

fn server(stack: StackKind, platform: Platform, seed: u64) -> Node {
    Node::new(0, Role::Server, stack, platform, seed)
}

/// Per-call nanoseconds of every probed layer.
struct Probed {
    frame: f64,
    nic: f64,
    serve: f64,
    admit: f64,
    noise: f64,
    boot: f64,
    event: f64,
    transit: f64,
    tracker: f64,
    gate: f64,
    handshake: f64,
    hist: f64,
    vcpu_run: f64,
}

fn probe_layers(cfg: &ClusterConfig, counts: &Counts, tails: &Tails, window: Nanos) -> Probed {
    let platform = cfg.platform;
    let seed = cfg.seed;
    let svc = cfg.svcload;
    let stacks = if counts.stacks.is_empty() {
        vec![StackLoad {
            stack: cfg.server_stack,
            nodes: 1,
            noise_events: 1,
            served: 1,
        }]
    } else {
        counts.stacks.clone()
    };
    // Simulated spacing of the calls the pass made: per server between
    // services, per node between frames. A representative cluster (no
    // counts) spaces at the configured arrival gap.
    let spaced = |node_windows: u64, calls: u64| {
        if calls == 0 {
            svc.mean_interarrival
        } else {
            Nanos((window.as_nanos() as f64 * node_windows as f64 / calls as f64).max(1.0) as u64)
        }
    };
    let serve_gap = spaced(counts.servers, counts.served);
    let frame_gap = spaced(counts.nodes, counts.frames);
    let latency_mean = tails.p50.map_or(1e6, |q| q.value as f64);
    let adaptive = cfg.adaptive.unwrap_or_default();
    let admission = match &cfg.adaptive {
        Some(a) => AdmissionPolicy::CoDel {
            target: a.codel_target,
            interval: a.codel_interval,
        },
        None => cfg.admission,
    };

    // svcload.frame: encode + decode, request and response sizes.
    let frame = {
        let mut buf = Vec::new();
        let mut id = 0u64;
        ns_per_call(|| {
            for _ in 0..256 {
                id += 1;
                request_frame_into(&svc, id, 1, Nanos(id), 0, &mut buf);
                black_box(decode_frame(black_box(&buf)).is_ok());
                response_frame_into(&svc, id, 1, Nanos(id), 0, &mut buf);
                black_box(decode_frame(black_box(&buf)).is_ok());
            }
            512
        })
    };

    // node.nic: one send and one receive per frame, on a Kitten node
    // (clients always run Kitten; its 10 Hz ticks keep noise out).
    let nic = {
        let mut n = Node::new(0, Role::Client, StackKind::HafniumKitten, platform, seed);
        let mut req = Vec::new();
        let mut resp = Vec::new();
        request_frame_into(&svc, 1, 0, Nanos::ZERO, 0, &mut req);
        response_frame_into(&svc, 1, 0, Nanos::ZERO, 0, &mut resp);
        let mut t = Nanos::ZERO;
        ns_per_call(|| {
            for _ in 0..128 {
                t += frame_gap;
                black_box(n.send(t, &req, FAR));
                t += frame_gap;
                black_box(n.receive(t, &resp, FAR));
            }
            256
        })
    };

    // node.serve: Node::serve minus the noise it replays, measured as
    // the same ready times driven through advance_noise_to on a twin.
    let phase = svc.service_phase();
    let serve = weighted(
        &stacks,
        |s| s.served,
        |stack| {
            let mut a = server(stack, platform, seed);
            let mut t = Nanos::ZERO;
            let with_noise = ns_per_call(|| {
                for _ in 0..128 {
                    t += serve_gap;
                    black_box(a.serve(t, &phase, FAR));
                }
                128
            });
            let mut b = server(stack, platform, seed);
            let mut t = Nanos::ZERO;
            let noise_only = ns_per_call(|| {
                for _ in 0..128 {
                    t += serve_gap;
                    b.advance_noise_to(t, FAR);
                }
                128
            });
            (with_noise - noise_only).max(0.0)
        },
    );

    // node.admit: the workload's admission policy at its service gap.
    let admit = weighted(
        &stacks,
        |s| s.served,
        |stack| {
            let mut n = server(stack, platform, seed);
            let mut t = Nanos::ZERO;
            ns_per_call(|| {
                for _ in 0..256 {
                    t += serve_gap;
                    black_box(n.admit_with(t, &admission));
                }
                256
            })
        },
    );

    // node.noise: replay a fresh node's noise, per event fired.
    let noise = weighted(
        &stacks,
        |s| s.noise_events,
        |stack| {
            let mut n = server(stack, platform, seed);
            let mut t = Nanos::ZERO;
            ns_per_call(|| {
                let before = n.stats.host_ticks + n.stats.guest_ticks + n.stats.background_events;
                // Tens of events per step on every stack (Kitten ticks
                // at 10 Hz, Linux at 250 Hz plus background bursts).
                t += Nanos::from_secs(2);
                n.advance_noise_to(t, FAR);
                n.stats.host_ticks + n.stats.guest_ticks + n.stats.background_events - before
            })
        },
    );

    // node.boot: Node::new, nodes dropped outside the timed region.
    let boot = weighted(
        &stacks,
        |s| s.nodes,
        |stack| {
            let mut booted = Vec::new();
            let ns = ns_per_call(|| {
                booted.push(server(stack, platform, seed ^ booted.len() as u64));
                1
            });
            drop(booted);
            ns
        },
    );

    // sim.event: pop + reschedule at the pass's pending depth, estimated
    // by Little's law: each client's filed arrival batch plus events per
    // simulated second times the median latency.
    let sim_s = window.as_secs_f64() * counts.runs as f64;
    let (depth, mean_delta) = if counts.events_lb() == 0 || sim_s == 0.0 {
        (64.0, 1e6)
    } else {
        let rate = counts.events_lb() as f64 / sim_s;
        let depth = (counts.clients as f64 / counts.runs as f64) * ARRIVAL_BATCH
            + rate / counts.runs as f64 * latency_mean / 1e9;
        (depth.max(1.0), depth / (rate / counts.runs as f64) * 1e9)
    };
    let event = {
        let mut rng = SimRng::new(seed);
        let deltas: Vec<Nanos> = (0..4096)
            .map(|_| Nanos(1 + rng.next_exp(mean_delta) as u64))
            .collect();
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..depth as usize {
            q.schedule_at(deltas[i % deltas.len()], i as u32);
        }
        let mut k = 0usize;
        ns_per_call(|| {
            for _ in 0..1024 {
                let ev = q.pop_next().expect("queue holds its depth");
                k = (k + 1) % deltas.len();
                q.schedule_at(ev.at + deltas[k], ev.payload);
            }
            1024
        })
    };

    // fabric.transit: the workload's link, queue depth, ports and fault
    // plan, client -> server and back at the per-frame gap.
    let transit = {
        let ports = cfg.nodes;
        let clients = cfg.clients();
        let mut f = Fabric::new(
            LinkProfile::from_platform(&platform),
            cfg.queue_depth,
            ports,
        );
        if let Some((spec, fault_seed)) = &cfg.faults {
            f.faults = FabricFaultPlan::new(spec, *fault_seed);
        }
        let step = Nanos((frame_gap.as_nanos() / ports as u64).max(1));
        let (req, resp) = (svc.request_bytes as u64, svc.response_bytes as u64);
        let mut t = Nanos::ZERO;
        let mut i = 0usize;
        ns_per_call(|| {
            for _ in 0..256 {
                i += 1;
                let (c, s) = (
                    (i % clients) as u16,
                    (clients + i % (ports - clients)) as u16,
                );
                t += step;
                black_box(f.transit(c, s, req, t));
                black_box(f.transit(s, c, resp, t));
            }
            512
        })
    };

    // adaptive.tracker: record a latency, read the hedge quantile.
    let tracker = {
        let mut w = WindowedQuantile::new(adaptive.window);
        let mut rng = SimRng::new(seed);
        let (qn, qd) = adaptive.hedge_quantile;
        ns_per_call(|| {
            for _ in 0..256 {
                w.record(1 + rng.next_exp(latency_mean) as u64);
                black_box(w.quantile(qn, qd));
            }
            256
        })
    };

    // adaptive.gate: a send earning budget, a breaker check, a spend
    // attempt and a success report.
    let gate = {
        let mut budget = RetryBudget::new(adaptive.budget_percent, adaptive.budget_burst);
        let mut breaker = CircuitBreaker::new(
            adaptive.breaker_threshold,
            adaptive.breaker_open_base,
            adaptive.breaker_jitter,
            SimRng::new(seed),
        );
        let mut t = Nanos::ZERO;
        ns_per_call(|| {
            for _ in 0..256 {
                t += serve_gap;
                budget.on_send();
                black_box(breaker.allow_attempt(t));
                black_box(budget.try_spend());
                breaker.on_success();
            }
            256
        })
    };

    // attest.handshake: the full mesh over the workload's node count
    // and stack mix (clients Kitten, servers the workload's stack).
    let handshake_ns = {
        let clients = cfg.clients();
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| {
                let (role, stack) = if i < clients {
                    (Role::Client, StackKind::HafniumKitten)
                } else {
                    (Role::Server, cfg.server_stack)
                };
                Node::new(i as u16, role, stack, platform, seed ^ i as u64)
            })
            .collect();
        let link = LinkProfile::from_platform(&platform);
        ns_per_call(|| {
            black_box(handshake(&nodes, seed, &[], &link));
            1
        })
    };

    // metrics.hist: LogHistogram::record of latency-shaped samples.
    let hist = {
        let mut h = LogHistogram::for_latency();
        let mut rng = SimRng::new(seed);
        let samples: Vec<f64> = (0..4096).map(|_| rng.next_exp(latency_mean)).collect();
        ns_per_call(|| {
            for &v in &samples {
                h.record(black_box(v));
            }
            samples.len() as u64
        })
    };

    // hafnium.vcpu_run: the preempt + VcpuRun pair every host tick
    // drives through the SPM, on a freshly booted primary + secondary.
    let vcpu_run = {
        let manifest = BootManifest::new()
            .with_vm(VmManifest::new(
                "kitten-primary",
                VmKind::Primary,
                64 << 20,
                platform.num_cores,
            ))
            .with_vm(VmManifest::new("svc", VmKind::Secondary, 64 << 20, 1));
        let (mut spm, _) =
            kh_hafnium::boot::boot(SpmConfig::default_for(platform), &manifest, vec![])
                .expect("probe manifest boots");
        let mut t = Nanos::ZERO;
        ns_per_call(|| {
            for _ in 0..256 {
                t += Nanos::from_micros(100);
                spm.preempt(0);
                spm.hypercall(
                    VmId::PRIMARY,
                    0,
                    0,
                    HfCall::VcpuRun {
                        vm: VmId(2),
                        vcpu: 0,
                    },
                    t,
                )
                .expect("secondary dispatches");
            }
            256
        })
    };

    Probed {
        frame,
        nic,
        serve,
        admit,
        noise,
        boot,
        event,
        transit,
        tracker,
        gate,
        handshake: handshake_ns,
        hist,
        vcpu_run,
    }
}

/// Every per-layer metric, in a fixed order, for one workload.
pub fn per_layer(spec: &Spec, counts: &Counts, sim: &SimSummary, traced: &Traced) -> Metrics {
    let machine = spec.workload == Workload::MachineSelfish;
    // The cluster whose parameters drive the cluster probes; on the
    // machine workload, a representative four-node Kitten cluster.
    let probe_cfg = spec
        .cluster_configs()
        .into_iter()
        .next()
        .unwrap_or_else(|| {
            let mut cfg = ClusterConfig::new(4, StackKind::HafniumKitten, spec.seed);
            cfg.svcload.duration = Nanos::from_millis(20);
            cfg
        });
    let p = probe_layers(&probe_cfg, counts, &sim.tails, spec.window());
    let adaptive = probe_cfg.adaptive.is_some();
    let wall_ns = traced.traced_wall_s * 1e9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Direct spans where the workload makes the call; elsewhere, the
    // same call at the representative size, per the same unit.
    let (cluster_run_ns, csv_ns) = if machine {
        let t0 = Instant::now();
        let r = kh_cluster::run(&probe_cfg);
        let run_ns = t0.elapsed().as_nanos() as f64 / r.sent.max(1) as f64;
        let t1 = Instant::now();
        black_box(r.csv());
        (
            run_ns,
            t1.elapsed().as_nanos() as f64 / r.records.len().max(1) as f64,
        )
    } else {
        (
            traced.spans.cluster_run.as_nanos() as f64 / counts.sent.max(1) as f64,
            traced.csv.as_nanos() as f64 / counts.records.max(1) as f64,
        )
    };
    let (machine_boot_ns, machine_run_ns) = if machine {
        (
            traced.spans.machine_boot.as_nanos() as f64 / counts.machine_runs.max(1) as f64,
            traced.spans.machine_run.as_nanos() as f64 / counts.machine_sim_ms.max(1e-9),
        )
    } else {
        let mut booted = Vec::new();
        let boot = ns_per_call(|| {
            for stack in StackKind::ALL {
                booted.push(Machine::new(MachineConfig::pine_a64(stack, spec.seed)));
            }
            StackKind::ALL.len() as u64
        });
        drop(booted);
        let mut m = Machine::new(MachineConfig::pine_a64(StackKind::HafniumKitten, spec.seed));
        let mut w = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(20),
            ..Default::default()
        });
        let t0 = Instant::now();
        black_box(m.run(&mut w));
        (boot, t0.elapsed().as_nanos() as f64 / 20.0)
    };

    let layers: [(&str, f64, u64); 17] = [
        ("svcload.frame", p.frame, counts.frames + counts.drops),
        ("node.nic", p.nic, counts.frames),
        ("node.serve", p.serve, counts.served),
        ("node.admit", p.admit, counts.served + counts.shed),
        ("node.noise", p.noise, counts.noise_events),
        ("node.boot", p.boot, counts.nodes),
        ("sim.event", p.event, counts.events_lb()),
        ("fabric.transit", p.transit, counts.frames + counts.drops),
        (
            "adaptive.tracker",
            p.tracker,
            if adaptive {
                counts.sent + counts.legs_sent
            } else {
                0
            },
        ),
        (
            "adaptive.gate",
            p.gate,
            if adaptive {
                counts.sent
                    + counts.legs_sent
                    + counts.retransmits
                    + counts.hedges
                    + counts.suppressed
            } else {
                0
            },
        ),
        ("attest.handshake", p.handshake, counts.attested_runs),
        (
            "metrics.hist",
            p.hist,
            2 * counts.completed + counts.legs_ok + counts.noise_events,
        ),
        ("report.csv", csv_ns, counts.records),
        ("cluster.run", cluster_run_ns, counts.sent),
        ("machine.boot", machine_boot_ns, counts.machine_runs),
        (
            "machine.run",
            machine_run_ns,
            counts.machine_sim_ms.round() as u64,
        ),
        (
            "hafnium.vcpu_run",
            p.vcpu_run,
            counts.vcpu_runs + counts.machine_vcpu_runs,
        ),
    ];
    let share = |ns: f64, calls: u64| ns * calls as f64 / wall_ns;
    // Layers that run inside cluster::run; hafnium.vcpu_run is left out
    // because node.noise already covers the ticks that drive it.
    let in_run = [
        "svcload.frame",
        "node.nic",
        "node.serve",
        "node.admit",
        "node.noise",
        "node.boot",
        "sim.event",
        "fabric.transit",
        "adaptive.tracker",
        "adaptive.gate",
        "attest.handshake",
        "metrics.hist",
    ];
    let layered: f64 = layers
        .iter()
        .filter(|(name, ..)| in_run.contains(name))
        .map(|&(_, ns, calls)| share(ns, calls))
        .sum();

    let mut m = Metrics::default();
    for x in [
        Metric::new("node.served", counts.served as f64, "count"),
        Metric::new("node.noise_events", counts.noise_events as f64, "count"),
        Metric::new("node.vcpu_runs", counts.vcpu_runs as f64, "count"),
        Metric::new("node.stolen_ms", counts.stolen_ns as f64 / 1e6, "ms"),
        Metric::new("node.shed", counts.shed as f64, "count"),
        Metric::new("node.dup_hits", counts.dup_hits as f64, "count"),
        Metric::new("fabric.frames", counts.frames as f64, "count"),
        Metric::new("fabric.bytes", counts.bytes as f64, "B"),
        Metric::new("fabric.drops", counts.drops as f64, "count"),
        Metric::new(
            "fabric.frames_per_req",
            ratio(counts.frames, counts.sent),
            "ratio",
        ),
        Metric::new("rel.retransmits", counts.retransmits as f64, "count"),
        Metric::new("rel.hedges", counts.hedges as f64, "count"),
        Metric::new("rel.suppressed", counts.suppressed as f64, "count"),
        Metric::new("rel.breaker_opens", counts.breaker_opens as f64, "count"),
        Metric::new(
            "rel.attempts_per_req",
            ratio(counts.attempts, counts.completed),
            "ratio",
        ),
        Metric::new("scenario.legs_sent", counts.legs_sent as f64, "count"),
        Metric::new(
            "scenario.leg_ok_ratio",
            ratio(counts.legs_ok, counts.legs_sent),
            "frac",
        ),
        Metric::new("scenario.late_legs", counts.late_legs as f64, "count"),
    ] {
        m.push(x);
    }
    m.quantile("scenario.tier1_p99_us", sim.legs.as_ref(), |t| {
        t.p99.map(|q| ("p99", q))
    });
    for x in [
        Metric::new("attest.frames", counts.attest_frames as f64, "count"),
        Metric::new(
            "attest.completion_us",
            counts.attest_completion_ns as f64 / 1e3,
            "us",
        ),
        Metric::new("sim.events_lb", counts.events_lb() as f64, "count"),
        Metric::new(
            "report.bytes_per_req",
            if counts.sent == 0 {
                0.0
            } else {
                traced.rss_above_twin / counts.sent as f64
            },
            "B",
        ),
        Metric::new(
            "machine.interruptions",
            counts.interruptions as f64,
            "count",
        ),
        Metric::new("machine.host_ticks", counts.host_ticks as f64, "count"),
        Metric::new("machine.guest_ticks", counts.guest_ticks as f64, "count"),
        Metric::new(
            "machine.background_events",
            counts.background_events as f64,
            "count",
        ),
        Metric::new(
            "machine.vcpu_runs",
            counts.machine_vcpu_runs as f64,
            "count",
        ),
        Metric::new("sim.samples", sim.tails.samples as f64, "count"),
        Metric::new("sim.max_us", sim.tails.max as f64 / 1e3, "us"),
        Metric::new("sim.fail_frac", sim.fail_frac, "frac"),
        Metric::new("sim.stolen_ppm_kitten", sim.stolen_ppm_kitten, "ppm"),
        Metric::new("sim.stolen_ppm_linux", sim.stolen_ppm_linux, "ppm"),
        Metric::new("host.req_per_s", counts.sent as f64 / traced.wall_s, "1/s"),
    ] {
        m.push(x);
    }
    m.quantile("sim.tail_us", Some(&sim.tails), Tails::tail);
    m.quantile("sim.p99_linux_us", sim.p99_linux.as_ref(), |t| {
        t.p99.map(|q| ("p99", q))
    });
    m.quantile("sim.p99_theseus_us", sim.p99_theseus.as_ref(), |t| {
        t.p99.map(|q| ("p99", q))
    });
    for (name, ns, calls) in layers {
        m.push(Metric::new(&format!("{name}.ns_per_call"), ns, "ns"));
        m.push(Metric::new(&format!("{name}.calls"), calls as f64, "count"));
        m.push(Metric::new(
            &format!("{name}.share"),
            share(ns, calls),
            "frac",
        ));
    }
    let run_share = share(cluster_run_ns, counts.sent);
    m.push(Metric::new(
        "cluster.other.share",
        run_share - layered,
        "frac",
    ));
    m.push(Metric::new("trace.overhead_frac", traced.overhead, "frac"));
    m
}

//! Reproducibility: the entire stack is deterministic given a seed —
//! a requirement for publishable noise measurements and for the figure
//! artifacts being regenerable bit-for-bit.

use kitten_hafnium::core::config::StackKind;
use kitten_hafnium::core::figures::{figure_7_8, figures_4_to_6};
use kitten_hafnium::core::machine::Machine;
use kitten_hafnium::core::MachineConfig;
use kitten_hafnium::sim::Nanos;
use kitten_hafnium::workloads::nas::NasBenchmark;
use kitten_hafnium::workloads::selfish::{SelfishConfig, SelfishDetour};

#[test]
fn selfish_traces_replay_exactly() {
    let run = |seed: u64| {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumLinux, seed);
        let mut m = Machine::new(cfg);
        let mut w = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(300),
            ..Default::default()
        });
        let r = m.run(&mut w);
        (
            r.output.detours().unwrap().to_vec(),
            r.elapsed,
            r.stolen,
            r.interruptions,
        )
    };
    assert_eq!(run(9), run(9), "same seed must replay the same trace");
    let (d1, ..) = run(9);
    let (d2, ..) = run(10);
    assert_ne!(d1, d2, "different seeds must differ");
}

#[test]
fn faulted_runs_replay_byte_identically() {
    use kitten_hafnium::sim::fault::{FaultPlan, FaultSpec};

    // The ISSUE acceptance: same `--fault-seed` + spec => the trace CSV
    // (benchmark noise AND victim-side fault activity) is byte-identical.
    let csv = |fault_seed: u64| {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 77);
        let mut m = Machine::new(cfg);
        m.enable_tracing(1 << 20);
        let spec = FaultSpec::parse(
            "crash@40ms,hang@120ms:15ms,drop-mailbox:0.2,lose-doorbell:0.2,\
             lose-irq:0.2,corrupt-ring:0.1,delay-timer:2:1ms",
        )
        .unwrap();
        m.inject_faults(FaultPlan::new(&spec, fault_seed, Nanos::from_millis(200)));
        let mut w = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(200),
            ..Default::default()
        });
        let r = m.run(&mut w);
        assert!(r.victim.is_some());
        m.trace().to_csv()
    };
    let a = csv(3);
    assert_eq!(a, csv(3), "same fault seed must replay byte-identically");
    assert_ne!(
        a,
        csv(4),
        "a different fault seed must change the victim's history"
    );
    // The victim's activity really is in the trace being compared.
    assert!(a.contains("victim crash"));
}

#[test]
fn figure_regeneration_is_stable() {
    let a = figure_7_8(2, 123);
    let b = figure_7_8(2, 123);
    for bi in 0..a.benches.len() {
        for &stack in &StackKind::ALL {
            assert_eq!(a.mean(stack, bi), b.mean(stack, bi));
        }
    }
    assert_eq!(a.csv(), b.csv());
}

#[test]
fn noise_profile_csv_is_reproducible() {
    let d = Nanos::from_millis(300);
    let p1 = figures_4_to_6(777, d);
    let p2 = figures_4_to_6(777, d);
    for (a, b) in p1.iter().zip(&p2) {
        assert_eq!(a.detours, b.detours);
        assert_eq!(a.report.stolen, b.report.stolen);
    }
}

#[test]
fn nas_models_are_deterministic_across_stacks() {
    for bench in [NasBenchmark::Lu, NasBenchmark::Ep] {
        for stack in StackKind::ALL {
            let run = || {
                let cfg = MachineConfig::pine_a64(stack, 5);
                let mut w = bench.model();
                Machine::new(cfg).run(w.as_mut()).elapsed
            };
            assert_eq!(run(), run(), "{} on {stack:?}", bench.label());
        }
    }
}

#[test]
fn native_kernels_are_deterministic() {
    use kitten_hafnium::workloads::nas::{cg, ep};
    let a = ep::run_native(&ep::EpConfig { log2_pairs: 14 });
    let b = ep::run_native(&ep::EpConfig { log2_pairs: 14 });
    assert_eq!(a.sx, b.sx);
    assert_eq!(a.annulus, b.annulus);
    let c1 = cg::run_native(
        &cg::CgConfig {
            n: 200,
            ..Default::default()
        },
        9,
    );
    let c2 = cg::run_native(
        &cg::CgConfig {
            n: 200,
            ..Default::default()
        },
        9,
    );
    assert_eq!(c1.zeta, c2.zeta);
}

#[test]
fn netecho_under_linux_primary_is_bit_identical() {
    use kitten_hafnium::core::figures::virtio_io_run;
    use kitten_hafnium::hafnium::irq::IrqRoutingPolicy;
    use kitten_hafnium::sim::trace::TraceRecorder;
    use kitten_hafnium::workloads::netecho::{NetEchoConfig, NetEchoModel};

    // The modeled workload under the Linux-primary machine.
    let run = |seed: u64| {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumLinux, seed);
        let mut m = Machine::new(cfg);
        let mut w = NetEchoModel::new(NetEchoConfig::default());
        let r = m.run(&mut w);
        (r.output, r.elapsed, r.stolen, r.interruptions)
    };
    assert_eq!(run(41), run(41), "same seed must replay bit-identically");
    assert_ne!(run(41).1, run(42).1, "different seeds must differ");

    // The priced virtio path, including its event trace.
    let io = || {
        let mut tr = TraceRecorder::new(1 << 16);
        let row = virtio_io_run(
            StackKind::HafniumLinux,
            IrqRoutingPolicy::AllToPrimary,
            128,
            64,
            16,
            Some(&mut tr),
        );
        let events: Vec<(u64, String)> = tr
            .drain()
            .into_iter()
            .map(|e| (e.at.as_nanos(), format!("{:?}|{}", e.category, e.detail)))
            .collect();
        (
            row.net_per_frame,
            row.blk_per_request,
            row.doorbells,
            row.irqs_delivered,
            events,
        )
    };
    assert_eq!(io(), io(), "the virtio trace must replay bit-identically");
}

// ---------------------------------------------------------------------
// Experiment pool: pooling is a pure wall-clock optimization — results
// must be byte-identical to the serial engine for ANY worker count.
// ---------------------------------------------------------------------

mod pool_determinism {
    use super::*;
    use kitten_hafnium::arch::platform::Platform;
    use kitten_hafnium::core::config::StackOptions;
    use kitten_hafnium::core::experiment::run_trials_pooled;
    use kitten_hafnium::core::pool::Pool;
    use kitten_hafnium::workloads::gups::{GupsConfig, GupsModel};
    use kitten_hafnium::workloads::Workload;
    use proptest::prelude::*;

    fn gups() -> Box<dyn Workload + Send> {
        Box::new(GupsModel::new(GupsConfig {
            log2_table: 18,
            updates_per_entry: 1,
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// RunReports from the pooled engine are byte-identical (Debug
        /// fingerprint) to the serial engine across random seeds, trial
        /// counts, stacks, and worker counts (1, 2, ..., beyond-host).
        #[test]
        fn pooled_reports_match_serial(
            seed in 0u64..10_000,
            trials in 1u32..5,
            workers in 1usize..9,
            stack_idx in 0usize..StackKind::ALL.len(),
        ) {
            let stack = StackKind::ALL[stack_idx];
            let fingerprint = |pool: &Pool| {
                let stats = run_trials_pooled(
                    pool,
                    Platform::pine_a64_lts(),
                    stack,
                    StackOptions::default(),
                    trials,
                    seed,
                    gups,
                );
                format!("{:?}", stats.reports)
            };
            let serial = fingerprint(&Pool::new(1));
            let pooled = fingerprint(&Pool::new(workers));
            prop_assert_eq!(serial, pooled);
        }

        /// Full trace CSVs (per-event noise records) produced inside the
        /// pool are byte-identical to the same machines run serially.
        #[test]
        fn pooled_trace_csvs_match_serial(
            base_seed in 0u64..10_000,
            workers in 2usize..7,
        ) {
            let csv_for = |seed: u64| {
                let mut m = Machine::new(MachineConfig::pine_a64(
                    StackKind::HafniumKitten,
                    seed,
                ));
                m.enable_tracing(1 << 16);
                let mut w = SelfishDetour::new(SelfishConfig {
                    duration: Nanos::from_millis(20),
                    ..Default::default()
                });
                m.run(&mut w);
                m.trace().to_csv()
            };
            let n = 3usize;
            let serial: Vec<String> =
                (0..n).map(|i| csv_for(base_seed + i as u64)).collect();
            let pooled = Pool::new(workers)
                .run_indexed(n, |i| csv_for(base_seed + i as u64));
            prop_assert_eq!(serial, pooled);
        }
    }
}

/// Cluster-scale determinism: the multi-machine fabric runs must be
/// byte-identical — across repeated same-seed runs, across pool worker
/// counts, and with fabric fault injection armed.
mod cluster_determinism {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::core::pool;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::workloads::svcload::SvcLoadConfig;

    fn quick(stack: StackKind, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(4, stack, seed);
        c.svcload = SvcLoadConfig::quick();
        c
    }

    #[test]
    fn cluster_reports_and_traces_replay_byte_identically() {
        let artifacts = |seed: u64| {
            let r = cluster::run(&quick(StackKind::HafniumLinux, seed));
            (r.render(), r.csv())
        };
        assert_eq!(artifacts(42), artifacts(42));
        assert_ne!(artifacts(42).1, artifacts(43).1);
    }

    #[test]
    fn cluster_ablation_is_identical_for_any_worker_count() {
        // One test exercises all worker counts (set_jobs is process
        // global; serializing inside a single test avoids cross-test
        // interference on the shared default).
        let arms_fingerprint = |jobs: usize| {
            pool::set_jobs(jobs);
            let reports = cluster::ablation_cluster(4, 11, SvcLoadConfig::quick());
            pool::set_jobs(1);
            reports
                .iter()
                .map(|r| format!("{}\n{}", r.render(), r.csv()))
                .collect::<Vec<_>>()
        };
        let serial = arms_fingerprint(1);
        for jobs in [2, 4, 8] {
            assert_eq!(serial, arms_fingerprint(jobs), "jobs={jobs}");
        }
    }

    /// The Theseus arm with the attestation handshake armed is as
    /// reproducible as the stage-2 arms: same seed, any worker count,
    /// and a rerun all collapse to one byte string. The fingerprint
    /// folds in the verdict table so a wandering handshake cannot
    /// hide behind stable traffic.
    #[test]
    fn theseus_attested_runs_replay_byte_identically_for_any_worker_count() {
        use kitten_hafnium::core::pool::Pool;

        let artifacts = |seed: u64| {
            let mut cfg = quick(StackKind::NativeTheseus, seed);
            cfg.attest = true;
            let r = cluster::run(&cfg);
            let a = r.attestation.as_ref().unwrap();
            assert!(a.all_clean());
            assert_eq!(r.completed, r.sent);
            format!("{}\n{}\n{}", a.csv(), r.render(), r.csv())
        };
        assert_eq!(artifacts(17), artifacts(17), "rerun must replay");
        assert_ne!(artifacts(17), artifacts(18), "seeds must matter");

        // All three attested server arms, swept under jobs 1, 2, and N.
        let arms = StackKind::CLUSTER_ARMS;
        let arms_fingerprint = |jobs: usize| {
            pool::set_jobs(jobs);
            let reports = Pool::with_default_jobs().run_indexed(arms.len(), |i| {
                let mut cfg = quick(arms[i], 17);
                cfg.attest = true;
                cluster::run(&cfg)
            });
            pool::set_jobs(1);
            reports
                .iter()
                .map(|r| format!("{}\n{}", r.attestation.as_ref().unwrap().csv(), r.csv()))
                .collect::<Vec<_>>()
        };
        let serial = arms_fingerprint(1);
        for jobs in [2, 4, 8] {
            assert_eq!(serial, arms_fingerprint(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn faulted_cluster_runs_replay_byte_identically() {
        let csv = |fault_seed: u64| {
            let mut cfg = quick(StackKind::HafniumKitten, 7);
            cfg.faults = Some((
                FabricFaultSpec::parse(
                    "drop:0.05,reorder:0.1,jitter:0.2:40us,partition@10ms:15ms:3",
                )
                .unwrap(),
                fault_seed,
            ));
            let r = cluster::run(&cfg);
            assert!(r.completed < r.sent, "faults must cost something");
            (r.render(), r.csv())
        };
        assert_eq!(csv(5), csv(5), "same fault seed, same bytes");
        assert_ne!(csv(5).1, csv(6).1, "fault streams are seeded");
    }

    /// The full reliability layer — retries with hedging, frame
    /// corruption, and a service-VM crash with recovery — replays
    /// byte-identically per seed. Retry/hedge randomness rides its own
    /// per-request streams, so arming the policy is deterministic too.
    #[test]
    fn reliability_layer_replays_byte_identically() {
        use kitten_hafnium::workloads::svcload::RetryPolicy;
        let artifacts = |seed: u64| {
            let mut cfg = quick(StackKind::HafniumKitten, seed);
            cfg.faults = Some((
                FabricFaultSpec::parse("drop:0.05,corrupt:0.02,crashsvc@10ms:3").unwrap(),
                seed ^ 0xF,
            ));
            cfg.retry = Some(RetryPolicy {
                hedge_delay: Some(kitten_hafnium::sim::Nanos::from_millis(2)),
                ..RetryPolicy::default()
            });
            let r = cluster::run(&cfg);
            assert!(r.reliability.retransmits > 0, "drops must trigger retries");
            assert!(r.fault_stats.frames_corrupted > 0, "corrupt gate must fire");
            assert_eq!(r.recoveries.len(), 1, "the crash must fire and recover");
            (r.render(), r.csv())
        };
        assert_eq!(artifacts(21), artifacts(21), "same seed, same bytes");
        assert_ne!(artifacts(21).1, artifacts(22).1);
    }

    /// The reliability fault matrix is worker-count independent: the
    /// pooled sweep produces the same per-request traces for any jobs
    /// value, which is what `khbench reliability` gates on in CI.
    #[test]
    fn reliability_matrix_is_identical_for_any_worker_count() {
        use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
        let fingerprint = |jobs: usize| {
            pool::set_jobs(jobs);
            let rows = cluster::reliability_matrix(
                4,
                13,
                SvcLoadConfig::quick(),
                AdaptivePolicy::default(),
            );
            pool::set_jobs(1);
            rows.iter()
                .map(|(name, retries, r)| format!("{name},{retries}\n{}", r.csv()))
                .collect::<Vec<_>>()
        };
        let serial = fingerprint(1);
        for jobs in [2, 4] {
            assert_eq!(serial, fingerprint(jobs), "jobs={jobs}");
        }
    }

    /// The full adaptive layer — live-quantile hedging, retry budgets,
    /// circuit breakers, CoDel admission, duplicate absorption — replays
    /// byte-identically per seed under fault injection. Its extra
    /// randomness (breaker reopen jitter) rides a dedicated per-node
    /// stream split off the run seed, so arming it stays deterministic.
    #[test]
    fn adaptive_layer_replays_byte_identically() {
        use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
        let artifacts = |seed: u64| {
            let mut cfg = quick(StackKind::HafniumKitten, seed);
            cfg.faults = Some((
                FabricFaultSpec::parse("drop:0.05,corrupt:0.02,crashsvc@10ms:3").unwrap(),
                seed ^ 0xF,
            ));
            cfg.adaptive = Some(AdaptivePolicy::default());
            let r = cluster::run(&cfg);
            assert!(r.reliability.retransmits > 0, "drops must trigger retries");
            assert_eq!(r.recoveries.len(), 1, "the crash must fire and recover");
            (r.render(), r.csv())
        };
        assert_eq!(artifacts(21), artifacts(21), "same seed, same bytes");
        assert_ne!(artifacts(21).1, artifacts(22).1);
    }

    /// A full scenario run — MMPP arrivals, fan-out with a quorum join,
    /// an HPC neighbor — replays byte-identically per seed, and the
    /// scenario figures are worker-count independent: the sampled
    /// sequences ride per-request seeded streams, never a shared
    /// cursor, which is what `khbench scenario` gates on in CI.
    #[test]
    fn scenario_runs_are_identical_for_any_worker_count() {
        use kitten_hafnium::scenario::Scenario;
        let scn = Scenario::parse(
            "arrive=mmpp:500us:4ms:2ms,svc=exp,backend=lognormal:0.8,\
             fanout=3:quorum:2,colocate=nas-cg:6",
        )
        .unwrap();
        let artifacts = |seed: u64| {
            let mut cfg = ClusterConfig::new(8, StackKind::HafniumKitten, seed);
            cfg.svcload = SvcLoadConfig::quick();
            cfg.scenario = Some(scn.clone());
            let r = cluster::run(&cfg);
            assert!(r.scenario.as_ref().unwrap().legs_sent > 0);
            (r.render(), r.csv())
        };
        assert_eq!(artifacts(31), artifacts(31), "same seed, same bytes");
        assert_ne!(artifacts(31).1, artifacts(32).1);

        let sweep_base = Scenario::parse("arrive=exp:800us,svc=det,backend=exp").unwrap();
        let fingerprint = |jobs: usize| {
            pool::set_jobs(jobs);
            let rows =
                cluster::fanout_sweep(8, 33, SvcLoadConfig::quick(), &sweep_base, &[0, 2, 3]);
            let colo = cluster::colocation_compare(8, 33, SvcLoadConfig::quick(), &scn);
            pool::set_jobs(1);
            rows.iter()
                .map(|(_, _, r)| r.csv())
                .chain(colo.iter().map(|(_, _, r)| r.csv()))
                .collect::<Vec<_>>()
        };
        let serial = fingerprint(1);
        for jobs in [2, 4] {
            assert_eq!(serial, fingerprint(jobs), "jobs={jobs}");
        }
    }

    /// A reliability-armed scenario — depth-3 tier chain, closed-loop
    /// clients, per-leg retry overrides, the adaptive layer, and a
    /// mid-run service-VM crash — replays byte-identically per seed,
    /// and the scenario-reliability figure grid is worker-count
    /// independent. Retry jitter rides "khsrty" per-leg streams and
    /// breaker reopen jitter rides "khsbrk" per-destination streams,
    /// so arming the whole pipeline never perturbs arrival, service,
    /// think-time, or fault draws.
    #[test]
    fn reliability_armed_scenarios_replay_byte_identically() {
        use kitten_hafnium::cluster::figures;
        use kitten_hafnium::scenario::Scenario;
        use kitten_hafnium::workloads::adaptive::AdaptivePolicy;

        let scn = Scenario::parse(
            "clients=4:think:400us,svc=det,backend=det,\
             fanout=2:quorum:1,tier=2:1:all,retry=t2:static,retry=t1:adaptive",
        )
        .unwrap();
        let artifacts = |seed: u64| {
            let mut cfg = ClusterConfig::new(8, StackKind::HafniumKitten, seed);
            cfg.svcload = SvcLoadConfig::quick();
            cfg.scenario = Some(scn.clone());
            cfg.adaptive = Some(AdaptivePolicy::default());
            cfg.faults = Some((
                FabricFaultSpec::parse("drop:0.04,crashsvc@20ms:5").unwrap(),
                seed ^ 0xFA,
            ));
            let r = cluster::run(&cfg);
            assert_eq!(r.recoveries.len(), 1, "the crash must fire and recover");
            assert!(r.reliability.retransmits > 0, "drops must trigger retries");
            let s = r.scenario.as_ref().unwrap();
            assert_eq!(s.depth, 2);
            assert!(s.legs_sent > 0);
            (r.render(), r.csv())
        };
        assert_eq!(artifacts(41), artifacts(41), "same seed, same bytes");
        assert_ne!(artifacts(41).1, artifacts(42).1);

        // The pooled stack x fault x depth x policy grid behind
        // `khbench scenario-reliability` fingerprints identically for
        // any worker count.
        let faults = vec![
            ("no-faults".to_string(), None),
            ("crashsvc".to_string(), Some("crashsvc@20ms:5".to_string())),
        ];
        let fingerprint = |jobs: usize| {
            pool::set_jobs(jobs);
            let rows = figures::scenario_reliability(
                8,
                43,
                SvcLoadConfig::quick(),
                &faults,
                &[1, 2],
                2500,
            );
            pool::set_jobs(1);
            rows.iter()
                .map(|row| {
                    format!(
                        "{},{},{},{:?}\n{}",
                        row.stack.label(),
                        row.fault,
                        row.depth,
                        row.policy,
                        row.report.csv()
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = fingerprint(1);
        for jobs in [2, 4] {
            assert_eq!(serial, fingerprint(jobs), "jobs={jobs}");
        }
    }
}

/// Golden byte-identity: pinned digests of what the cluster simulation
/// decided — the per-request CSV, every node's noise histogram, and the
/// reliability counters — over a matrix of svcload configs and tiered
/// scenarios. Replay tests only compare a run against itself; these
/// digests fail the moment any simulated behaviour moves, so a refactor
/// of the executor has to keep every run byte-identical to pass.
mod golden {
    use kitten_hafnium::cluster::{self, AdmissionPolicy, ClusterConfig, ClusterReport};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::scenario::Scenario;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::sim::Nanos;
    use kitten_hafnium::virtio::checksum;
    use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
    use kitten_hafnium::workloads::svcload::{RetryPolicy, SvcLoadConfig};

    /// FNV-1a over the CSV, each node's noise histogram and the
    /// reliability counters, piece by piece.
    fn digest(r: &ClusterReport) -> u64 {
        let mut sums = Vec::new();
        let mut add =
            |piece: &str| sums.extend_from_slice(&checksum(piece.as_bytes()).to_le_bytes());
        add(&r.csv());
        for n in &r.per_node {
            add(&format!("{:?}", n.noise_hist));
        }
        add(&format!("{:?}", r.reliability));
        checksum(&sums)
    }

    fn faults(spec: &str, seed: u64) -> Option<(FabricFaultSpec, u64)> {
        Some((FabricFaultSpec::parse(spec).unwrap(), seed))
    }

    /// The eleven scenario-less policies, applied to a 4-node config
    /// (clients 0-1, servers 2-3).
    fn svcload_policy(name: &str, cfg: &mut ClusterConfig) {
        let server = cfg.clients();
        match name {
            "plain" => {}
            "drop-jitter-reorder" => {
                cfg.faults = faults("drop:0.05,jitter:0.2:50us,reorder:0.05", 3)
            }
            "drop-retry" => {
                cfg.faults = faults("drop:0.05", 3);
                cfg.retry = Some(RetryPolicy::default());
            }
            "hedge" => {
                cfg.faults = faults("drop:0.1", 5);
                cfg.retry = Some(RetryPolicy {
                    hedge_delay: Some(Nanos::from_micros(900)),
                    ..RetryPolicy::default()
                });
            }
            "fixed-overload" => {
                cfg.svcload.mean_interarrival = Nanos::from_micros(40);
                cfg.admission = AdmissionPolicy::Fixed { limit: 2 };
                cfg.retry = Some(RetryPolicy::default());
            }
            "adaptive" => cfg.adaptive = Some(AdaptivePolicy::default()),
            "adaptive-partition" => {
                cfg.faults = faults(&format!("partition@10ms:5ms:{server}"), 3);
                cfg.adaptive = Some(AdaptivePolicy::default());
            }
            "corrupt-retry" => {
                cfg.faults = faults("corrupt:0.1", 7);
                cfg.retry = Some(RetryPolicy::default());
            }
            "crashsvc-retry" => {
                cfg.faults = faults(&format!("crashsvc@10ms:{server}"), 1);
                cfg.retry = Some(RetryPolicy::default());
            }
            "attest-tamper" => {
                cfg.attest = true;
                cfg.faults = faults("tamper@3", 1);
            }
            "adaptive-overload" => {
                cfg.svcload.mean_interarrival = Nanos::from_micros(40);
                cfg.adaptive = Some(AdaptivePolicy::default());
            }
            other => panic!("unknown policy {other}"),
        }
    }

    /// One digest per policy over 3 stacks x seeds {1, 9, 33}.
    const SVCLOAD_GOLDEN: [(&str, u64); 11] = [
        ("plain", 0xd6a2_040a_f4c0_ad2e),
        ("drop-jitter-reorder", 0xf867_154e_059b_2831),
        ("drop-retry", 0x4b7d_98dc_0721_ce22),
        ("hedge", 0x6838_08e1_3b87_a800),
        ("fixed-overload", 0x619e_2a47_4ffa_4fb8),
        ("adaptive", 0x2db9_3e1a_4fcb_656a),
        ("adaptive-partition", 0x596e_61aa_c013_7bd6),
        ("corrupt-retry", 0x1b28_75a0_69f4_4ebd),
        ("crashsvc-retry", 0xb44a_28ea_41d6_6ebe),
        ("attest-tamper", 0x157c_6f63_6f49_ce2a),
        ("adaptive-overload", 0x85c0_cad6_4fac_9772),
    ];

    #[test]
    fn svcload_matrix_matches_golden_digests() {
        let mut failures = Vec::new();
        for (name, want) in SVCLOAD_GOLDEN {
            let mut sums = Vec::new();
            for stack in StackKind::CLUSTER_ARMS {
                for seed in [1, 9, 33] {
                    let mut cfg = ClusterConfig::new(4, stack, seed);
                    cfg.svcload = SvcLoadConfig::quick();
                    svcload_policy(name, &mut cfg);
                    sums.extend_from_slice(&digest(&cluster::run(&cfg)).to_le_bytes());
                }
            }
            let got = checksum(&sums);
            if got != want {
                failures.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
            }
        }
        assert!(
            failures.is_empty(),
            "digests moved:\n{}",
            failures.join("\n")
        );
    }

    /// svcload is the depth-0 scenario `arrive=exp:<mean_interarrival>`:
    /// every policy, stack and seed digests the same with that scenario
    /// spelled out, and only the spelled-out run reports scenario stats.
    #[test]
    fn svcload_runs_as_the_depth0_exp_scenario() {
        for (name, _) in SVCLOAD_GOLDEN {
            for stack in StackKind::CLUSTER_ARMS {
                for seed in [1, 9, 33] {
                    let mut cfg = ClusterConfig::new(4, stack, seed);
                    cfg.svcload = SvcLoadConfig::quick();
                    svcload_policy(name, &mut cfg);
                    let plain = cluster::run(&cfg);
                    let mean = cfg.svcload.mean_interarrival.as_micros();
                    let spec = format!("arrive=exp:{mean}us");
                    cfg.scenario = Some(Scenario::parse(&spec).unwrap());
                    let spelled = cluster::run(&cfg);
                    assert_eq!(
                        digest(&plain),
                        digest(&spelled),
                        "{name} on {stack:?}, seed {seed}"
                    );
                    assert!(plain.scenario.is_none() && spelled.scenario.is_some());
                }
            }
        }
    }

    /// Tiered scenarios at 8 nodes: depth 0, 1 and 3, open and closed
    /// loop, static, adaptive and per-leg `retry=` overrides, with
    /// drops, corruption and a mid-run service-VM crash.
    fn scenario_cases() -> Vec<(&'static str, ClusterConfig)> {
        let case = |spec: &str, seed: u64, tweak: &dyn Fn(&mut ClusterConfig)| {
            let mut cfg = ClusterConfig::new(8, StackKind::HafniumKitten, seed);
            cfg.svcload = SvcLoadConfig::quick();
            cfg.scenario = Some(Scenario::parse(spec).unwrap());
            tweak(&mut cfg);
            cfg
        };
        vec![
            (
                "depth0-open",
                case("arrive=exp:500us,svc=exp", 3, &|_| {}),
            ),
            (
                "depth0-closed-retry",
                case("clients=4:think:300us,svc=det", 5, &|c| {
                    c.faults = faults("drop:0.05", 2);
                    c.retry = Some(RetryPolicy::default());
                }),
            ),
            (
                "depth1-quorum-adaptive",
                case(
                    "arrive=exp:800us,svc=det,backend=exp,fanout=3:quorum:2",
                    7,
                    &|c| {
                        c.server_stack = StackKind::HafniumLinux;
                        c.faults = faults("drop:0.04,corrupt:0.02", 4);
                        c.adaptive = Some(AdaptivePolicy::default());
                    },
                ),
            ),
            (
                "depth1-retry-override",
                case(
                    "arrive=exp:1ms,svc=det,backend=det,fanout=2:all,retry=t1:adaptive",
                    29,
                    &|c| {
                        c.faults = faults("drop:0.08", 2);
                        c.retry = Some(RetryPolicy::default());
                    },
                ),
            ),
            (
                "depth3-adaptive-crash",
                case(
                    "arrive=exp:2ms,svc=det,backend=det,fanout=2:quorum:1,tier=2:2:all,tier=3:1:all",
                    19,
                    &|c| {
                        c.server_stack = StackKind::NativeTheseus;
                        c.faults = faults("drop:0.02,crashsvc@20ms:5", 6);
                        c.adaptive = Some(AdaptivePolicy::default());
                    },
                ),
            ),
            (
                "depth3-closed-overrides",
                case(
                    "clients=4:think:400us,svc=det,backend=exp,fanout=2:quorum:1,\
                     tier=2:1:all,tier=3:1:all,retry=t2:static,retry=t1:adaptive",
                    41,
                    &|c| {
                        c.faults = faults("drop:0.04,crashsvc@20ms:5", 0xFA);
                        c.retry = Some(RetryPolicy::default());
                    },
                ),
            ),
            (
                "depth0-colocated-linux",
                case("arrive=exp:500us,svc=exp,colocate=hpcg:6", 13, &|c| {
                    c.server_stack = StackKind::HafniumLinux;
                }),
            ),
        ]
    }

    const SCENARIO_GOLDEN: [(&str, u64); 7] = [
        ("depth0-open", 0x5fc2_39da_7857_8a29),
        ("depth0-closed-retry", 0x1aef_f9d1_3d73_6fee),
        ("depth1-quorum-adaptive", 0x6638_85f4_bf90_102a),
        ("depth1-retry-override", 0x16e0_5bad_e0d2_2f18),
        ("depth3-adaptive-crash", 0x702a_fe0a_249d_4c73),
        ("depth3-closed-overrides", 0xa77b_f7c3_3d8f_86e1),
        ("depth0-colocated-linux", 0x8724_6bb2_6ae1_7623),
    ];

    #[test]
    fn scenarios_match_golden_digests() {
        let mut failures = Vec::new();
        for ((name, cfg), (pinned_name, want)) in scenario_cases().into_iter().zip(SCENARIO_GOLDEN)
        {
            assert_eq!(name, pinned_name);
            let got = digest(&cluster::run(&cfg));
            if got != want {
                failures.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
            }
        }
        assert!(
            failures.is_empty(),
            "digests moved:\n{}",
            failures.join("\n")
        );
    }

    /// Single-machine runs: `RunReport` Debug plus the trace CSV, one
    /// case per noise source and per caller-only event (faults,
    /// co-tenant slices, the translation replay, an injected abort or
    /// component restart, a host-tick override), and HPCG, STREAM and
    /// NAS CG on one virtualized and one native stack each, and two
    /// native stacks running selfish twice on one machine.
    fn machine_cases() -> Vec<(&'static str, u64)> {
        use kitten_hafnium::core::config::CoTenantSlices;
        use kitten_hafnium::core::figures::DEFAULT_FAULT_SPEC;
        use kitten_hafnium::core::machine::Machine;
        use kitten_hafnium::core::MachineConfig;
        use kitten_hafnium::sim::fault::{FaultPlan, FaultSpec};
        use kitten_hafnium::workloads::gups::{GupsConfig, GupsModel};
        use kitten_hafnium::workloads::hpcg::{HpcgConfig, HpcgModel};
        use kitten_hafnium::workloads::nas::cg::{CgConfig, CgModel};
        use kitten_hafnium::workloads::netecho::{NetEchoConfig, NetEchoModel};
        use kitten_hafnium::workloads::selfish::{SelfishConfig, SelfishDetour};
        use kitten_hafnium::workloads::stream::{StreamConfig, StreamModel};
        use kitten_hafnium::workloads::Workload;

        let selfish = |ms: u64| -> Box<dyn Workload> {
            Box::new(SelfishDetour::new(SelfishConfig {
                duration: Nanos::from_millis(ms),
                ..Default::default()
            }))
        };
        let gups = || -> Box<dyn Workload> {
            Box::new(GupsModel::new(GupsConfig {
                log2_table: 18,
                updates_per_entry: 2,
            }))
        };
        // 8 MiB: four times the TLB reach, so the walk term (and the
        // translation replay's discount on it) is priced.
        let big_gups = || -> Box<dyn Workload> {
            Box::new(GupsModel::new(GupsConfig {
                log2_table: 20,
                updates_per_entry: 1,
            }))
        };
        // Phase shapes other than selfish's and GUPS's: HPCG's and CG's
        // blocked stencils and STREAM's four kernels in rotation.
        let hpcg = || -> Box<dyn Workload> {
            Box::new(HpcgModel::new(HpcgConfig {
                nx: 16,
                ny: 16,
                nz: 16,
                max_iters: 20,
                ..Default::default()
            }))
        };
        let stream = || -> Box<dyn Workload> {
            Box::new(StreamModel::new(StreamConfig {
                ntimes: 5,
                ..Default::default()
            }))
        };
        let cg = || -> Box<dyn Workload> {
            Box::new(CgModel::new(CgConfig {
                niter: 8,
                ..Default::default()
            }))
        };
        let run = |stack: StackKind,
                   seed: u64,
                   tweak: &dyn Fn(&mut MachineConfig),
                   plan: Option<FaultPlan>,
                   mut w: Box<dyn Workload>| {
            let mut cfg = MachineConfig::pine_a64(stack, seed);
            tweak(&mut cfg);
            let mut m = Machine::new(cfg);
            m.enable_tracing(1 << 20);
            if let Some(plan) = plan {
                m.inject_faults(plan);
            }
            let r = m.run(w.as_mut());
            let mut sums = Vec::new();
            sums.extend_from_slice(&checksum(format!("{r:?}").as_bytes()).to_le_bytes());
            sums.extend_from_slice(&checksum(m.trace().to_csv().as_bytes()).to_le_bytes());
            checksum(&sums)
        };
        // Two runs on one machine: the second starts from the RNG state
        // the first left, so every draw the first took is pinned too.
        // Native stacks only: a virtualized run leaves its VCPU running.
        let twice = |stack: StackKind, seed: u64| {
            let mut m = Machine::new(MachineConfig::pine_a64(stack, seed));
            m.enable_tracing(1 << 20);
            let mut sums = Vec::new();
            for _ in 0..2 {
                let r = m.run(selfish(100).as_mut());
                sums.extend_from_slice(&checksum(format!("{r:?}").as_bytes()).to_le_bytes());
            }
            sums.extend_from_slice(&checksum(m.trace().to_csv().as_bytes()).to_le_bytes());
            checksum(&sums)
        };
        let storm = || {
            let spec = FaultSpec::parse(DEFAULT_FAULT_SPEC).unwrap();
            Some(FaultPlan::new(&spec, 1, Nanos::from_millis(200)))
        };
        let co_tenant = |c: &mut MachineConfig| {
            c.options.co_tenant = Some(CoTenantSlices {
                own_slice_ns: 3_000_000,
                other_slice_ns: 3_000_000,
            })
        };
        let fault_at = |c: &mut MachineConfig| c.options.inject_fault_at_ns = Some(100_000_000);
        let plain = |_: &mut MachineConfig| {};
        vec![
            (
                "selfish-native",
                run(StackKind::NativeKitten, 3, &plain, None, selfish(300)),
            ),
            (
                "selfish-kitten",
                run(StackKind::HafniumKitten, 3, &plain, None, selfish(300)),
            ),
            (
                "selfish-linux",
                run(StackKind::HafniumLinux, 3, &plain, None, selfish(300)),
            ),
            (
                "selfish-theseus",
                run(StackKind::NativeTheseus, 3, &plain, None, selfish(300)),
            ),
            (
                "gups-translation-kitten",
                run(
                    StackKind::HafniumKitten,
                    5,
                    &|c| c.options.model_translation = true,
                    None,
                    gups(),
                ),
            ),
            (
                "netecho-linux",
                run(
                    StackKind::HafniumLinux,
                    7,
                    &plain,
                    None,
                    Box::new(NetEchoModel::new(NetEchoConfig::default())),
                ),
            ),
            (
                "storm-kitten",
                run(StackKind::HafniumKitten, 11, &plain, storm(), selfish(200)),
            ),
            (
                "storm-linux",
                run(StackKind::HafniumLinux, 11, &plain, storm(), selfish(200)),
            ),
            (
                "cotenant-linux",
                run(StackKind::HafniumLinux, 13, &co_tenant, None, gups()),
            ),
            (
                "cotenant-native",
                run(StackKind::NativeKitten, 13, &co_tenant, None, gups()),
            ),
            (
                "fault-at-theseus",
                run(StackKind::NativeTheseus, 17, &fault_at, None, selfish(300)),
            ),
            (
                "fault-at-kitten",
                run(StackKind::HafniumKitten, 17, &fault_at, None, selfish(300)),
            ),
            (
                "host-hz-linux",
                run(
                    StackKind::HafniumLinux,
                    19,
                    &|c| c.options.host_tick_hz = Some(1000),
                    None,
                    selfish(200),
                ),
            ),
            (
                "hpcg-kitten",
                run(StackKind::HafniumKitten, 23, &plain, None, hpcg()),
            ),
            (
                "hpcg-theseus",
                run(StackKind::NativeTheseus, 23, &plain, None, hpcg()),
            ),
            (
                "stream-linux",
                run(StackKind::HafniumLinux, 29, &plain, None, stream()),
            ),
            (
                "stream-native",
                run(StackKind::NativeKitten, 29, &plain, None, stream()),
            ),
            (
                "cg-linux",
                run(StackKind::HafniumLinux, 31, &plain, None, cg()),
            ),
            (
                "cg-native",
                run(StackKind::NativeKitten, 31, &plain, None, cg()),
            ),
            (
                "gups-translation-linux",
                run(
                    StackKind::HafniumLinux,
                    37,
                    &|c| c.options.model_translation = true,
                    None,
                    big_gups(),
                ),
            ),
            ("selfish-twice-theseus", twice(StackKind::NativeTheseus, 41)),
            ("selfish-twice-native", twice(StackKind::NativeKitten, 41)),
        ]
    }

    const MACHINE_GOLDEN: [(&str, u64); 22] = [
        ("selfish-native", 0x5be3_8621_c032_8dfe),
        ("selfish-kitten", 0xf2ef_9710_1a7a_b03e),
        ("selfish-linux", 0xfc4b_6cf0_275d_daa5),
        ("selfish-theseus", 0x8809_6131_39f3_df0a),
        ("gups-translation-kitten", 0x134b_5fe3_4183_a3f6),
        ("netecho-linux", 0x8f85_bd92_64c5_4269),
        ("storm-kitten", 0x0a47_36b1_ee0b_5046),
        ("storm-linux", 0x3a5a_8a47_93cf_0c3b),
        ("cotenant-linux", 0xce23_3a37_dfb3_60f9),
        ("cotenant-native", 0xc40e_e38c_9eca_0a15),
        ("fault-at-theseus", 0xadff_4cd5_6de3_b38a),
        ("fault-at-kitten", 0x41ae_b576_c7ef_a65b),
        ("host-hz-linux", 0xc3e6_8aed_7bac_273d),
        ("hpcg-kitten", 0x60a7_f0ef_e384_4d3f),
        ("hpcg-theseus", 0x8aeb_6c68_88d3_4edc),
        ("stream-linux", 0x5173_6747_bdc7_d890),
        ("stream-native", 0xe327_3a68_cd28_ba17),
        ("cg-linux", 0xcd4c_4893_b377_f3a5),
        ("cg-native", 0x8fbd_3043_954f_34b7),
        ("gups-translation-linux", 0x2291_9908_7834_769a),
        ("selfish-twice-theseus", 0xba83_b7b7_4148_8cda),
        ("selfish-twice-native", 0x7441_2b4a_45a0_44e4),
    ];

    #[test]
    fn machine_runs_match_golden_digests() {
        let mut failures = Vec::new();
        for ((name, got), (pinned_name, want)) in machine_cases().into_iter().zip(MACHINE_GOLDEN) {
            assert_eq!(name, pinned_name);
            if got != want {
                failures.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
            }
        }
        assert!(
            failures.is_empty(),
            "digests moved:\n{}",
            failures.join("\n")
        );
    }

    /// `ParallelReport` Debug for LU x4 under per-phase barriers and EP
    /// x4 without, under both tenancies, one digest per stack.
    const PARALLEL_GOLDEN: [(StackKind, u64); 4] = [
        (StackKind::NativeKitten, 0x296e_e90f_bc49_d5cd),
        (StackKind::HafniumKitten, 0xedd7_3ab4_884e_5b1d),
        (StackKind::HafniumLinux, 0x14a4_b5ac_413a_30e5),
        (StackKind::NativeTheseus, 0x4a20_a6fe_c10d_abc5),
    ];

    #[test]
    fn parallel_runs_match_golden_digests() {
        use kitten_hafnium::core::parallel::{BarrierMode, ParallelMachine, Tenancy};
        use kitten_hafnium::core::MachineConfig;
        use kitten_hafnium::workloads::nas::NasBenchmark;

        let mut failures = Vec::new();
        for (stack, want) in PARALLEL_GOLDEN {
            let mut sums = Vec::new();
            for tenancy in [Tenancy::SingleVm, Tenancy::VmPerThread] {
                for (bench, barrier) in [
                    (NasBenchmark::Lu, BarrierMode::PerPhase),
                    (NasBenchmark::Ep, BarrierMode::None),
                ] {
                    let cfg = MachineConfig::pine_a64(stack, 29);
                    let mut m = ParallelMachine::with_tenancy(cfg, 4, tenancy);
                    let r = m.run((0..4).map(|_| bench.model()).collect(), barrier);
                    sums.extend_from_slice(&checksum(format!("{r:?}").as_bytes()).to_le_bytes());
                }
            }
            let got = checksum(&sums);
            if got != want {
                failures.push(format!("{stack:?}: {got:#018x} (pinned {want:#018x})"));
            }
        }
        assert!(
            failures.is_empty(),
            "digests moved:\n{}",
            failures.join("\n")
        );
    }

    /// `virtio_io_run`: the row's Debug and every traced doorbell and
    /// IRQ-injection event, on each cluster stack under both routing
    /// policies and doorbell batches {0, 1, 16}. 200 frames and 100
    /// requests leave a partial last burst at batch 16.
    const VIRTIO_GOLDEN: [(StackKind, u64); 3] = [
        (StackKind::HafniumKitten, 0x5593_c1f0_abe4_d64c),
        (StackKind::HafniumLinux, 0x3028_efc4_46fc_619e),
        (StackKind::NativeTheseus, 0x5ecd_c269_4362_7b30),
    ];

    #[test]
    fn virtio_runs_match_golden_digests() {
        use kitten_hafnium::core::figures::virtio_io_run;
        use kitten_hafnium::hafnium::irq::IrqRoutingPolicy;
        use kitten_hafnium::sim::trace::TraceRecorder;

        let mut failures = Vec::new();
        for (stack, want) in VIRTIO_GOLDEN {
            let mut sums = Vec::new();
            for policy in [IrqRoutingPolicy::AllToPrimary, IrqRoutingPolicy::Selective] {
                for batch in [0, 1, 16] {
                    let mut tr = TraceRecorder::new(1 << 20);
                    let row = virtio_io_run(stack, policy, 200, 100, batch, Some(&mut tr));
                    assert_eq!(tr.dropped(), 0, "the trace must hold every event");
                    sums.extend_from_slice(&checksum(format!("{row:?}").as_bytes()).to_le_bytes());
                    sums.extend_from_slice(&checksum(tr.to_csv().as_bytes()).to_le_bytes());
                }
            }
            let got = checksum(&sums);
            if got != want {
                failures.push(format!("{stack:?}: {got:#018x} (pinned {want:#018x})"));
            }
        }
        assert!(
            failures.is_empty(),
            "digests moved:\n{}",
            failures.join("\n")
        );
    }
}

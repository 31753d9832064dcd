//! Security-invariant integration tests: the properties the paper's
//! isolation argument rests on, checked on the assembled stack.

use kitten_hafnium::arch::el::SecurityState;
use kitten_hafnium::arch::platform::Platform;
use kitten_hafnium::hafnium::boot::boot;
use kitten_hafnium::hafnium::hypercall::{HfCall, HfError, HfReturn};
use kitten_hafnium::hafnium::manifest::{BootManifest, MmioRegion, VmKind, VmManifest};
use kitten_hafnium::hafnium::spm::{Spm, SpmConfig};
use kitten_hafnium::hafnium::verify::TrustedKey;
use kitten_hafnium::hafnium::vm::VmId;
use kitten_hafnium::sim::Nanos;

const MB: u64 = 1 << 20;

fn base_manifest() -> BootManifest {
    BootManifest::new()
        .with_vm(VmManifest::new("primary", VmKind::Primary, 64 * MB, 4))
        .with_vm(VmManifest::new("login", VmKind::SuperSecondary, 64 * MB, 1))
        .with_vm(VmManifest::new("app-a", VmKind::Secondary, 128 * MB, 2))
        .with_vm(VmManifest::new("app-b", VmKind::Secondary, 128 * MB, 2))
}

fn booted() -> Spm {
    let cfg = SpmConfig::default_for(Platform::pine_a64_lts());
    boot(cfg, &base_manifest(), vec![]).unwrap().0
}

#[test]
fn no_vm_can_reach_another_vms_memory() {
    let spm = booted();
    let ids = spm.vm_ids();
    for &a in &ids {
        for &b in &ids {
            if a == b {
                continue;
            }
            for (_, pa, len) in spm.vm(b).unwrap().stage2.physical_extents() {
                // Probe start, middle, last byte of every extent.
                for probe in [pa, pa + len / 2, pa + len - 1] {
                    assert!(
                        !spm.vm_reaches_pa(a, probe),
                        "VM {a:?} reaches VM {b:?} memory at {probe:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn hypervisor_memory_is_unreachable_by_all_vms() {
    let spm = booted();
    use kitten_hafnium::hafnium::spm::{DRAM_BASE, HYP_RESERVED};
    for id in spm.vm_ids() {
        for probe in [DRAM_BASE, DRAM_BASE + HYP_RESERVED - 1] {
            assert!(
                !spm.vm_reaches_pa(id, probe),
                "{id:?} reaches hypervisor memory"
            );
        }
    }
}

#[test]
fn scheduling_privilege_is_primary_only() {
    let mut spm = booted();
    let app_a = VmId(2);
    let app_b = VmId(3);
    // Secondary cannot run another VM.
    assert_eq!(
        spm.hypercall(
            app_a,
            0,
            0,
            HfCall::VcpuRun { vm: app_b, vcpu: 0 },
            Nanos::ZERO
        ),
        Err(HfError::Denied)
    );
    // Super-secondary cannot either — semi-privileged means devices, not
    // CPU control.
    assert_eq!(
        spm.hypercall(
            VmId::SUPER_SECONDARY,
            0,
            0,
            HfCall::VcpuRun { vm: app_a, vcpu: 0 },
            Nanos::ZERO
        ),
        Err(HfError::Denied)
    );
    // Nor inject interrupts into other VMs.
    assert_eq!(
        spm.hypercall(
            app_a,
            0,
            0,
            HfCall::InterruptInject {
                vm: app_b,
                vcpu: 0,
                intid: 40
            },
            Nanos::ZERO
        ),
        Err(HfError::Denied)
    );
    // Nor create or destroy VMs.
    assert_eq!(
        spm.hypercall(
            VmId::SUPER_SECONDARY,
            0,
            0,
            HfCall::VmDestroy(app_a),
            Nanos::ZERO
        ),
        Err(HfError::Denied)
    );
}

#[test]
fn device_mmio_goes_only_to_device_owners() {
    let cfg = SpmConfig::default_for(Platform::pine_a64_lts());
    let uart = MmioRegion {
        name: "uart0".into(),
        base: 0x01C2_8000,
        len: 0x1000,
        irq: Some(64),
    };
    let manifest = BootManifest::new()
        .with_vm(VmManifest::new("primary", VmKind::Primary, 64 * MB, 4))
        .with_vm(
            VmManifest::new("login", VmKind::SuperSecondary, 64 * MB, 1).with_device(uart.clone()),
        )
        .with_vm(VmManifest::new("sneaky", VmKind::Secondary, 64 * MB, 1).with_device(uart));
    let (spm, _) = boot(cfg, &manifest, vec![]).unwrap();
    assert!(
        spm.vm_reaches_pa(VmId::SUPER_SECONDARY, 0x01C2_8000),
        "login VM owns the UART"
    );
    assert!(
        !spm.vm_reaches_pa(VmId(2), 0x01C2_8000),
        "secondary manifest device entries are ignored"
    );
}

#[test]
fn isolation_survives_dynamic_churn() {
    let mut cfg = SpmConfig::default_for(Platform::pine_a64_lts());
    cfg.allow_dynamic_partitions = true;
    let (mut spm, _) = boot(cfg, &base_manifest(), vec![]).unwrap();
    // Create/destroy VMs in a churn loop; after every operation the
    // pairwise isolation invariant must hold.
    let mut live: Vec<VmId> = Vec::new();
    for round in 0..20u64 {
        if round % 3 == 2 && !live.is_empty() {
            let victim = live.remove(0);
            spm.hypercall(VmId::PRIMARY, 0, 0, HfCall::VmDestroy(victim), Nanos::ZERO)
                .unwrap();
        } else {
            let r = spm.hypercall(
                VmId::PRIMARY,
                0,
                0,
                HfCall::VmCreate {
                    name: format!("churn-{round}"),
                    mem_bytes: 64 * MB,
                    vcpus: 1,
                    image: vec![],
                    signature: None,
                },
                Nanos::ZERO,
            );
            match r {
                Ok(HfReturn::Created(id)) => live.push(id),
                Err(HfError::NoMemory) => {
                    // Full: destroy someone and continue.
                    if let Some(victim) = live.pop() {
                        spm.hypercall(VmId::PRIMARY, 0, 0, HfCall::VmDestroy(victim), Nanos::ZERO)
                            .unwrap();
                    }
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(spm.audit_isolation().is_ok(), "round {round}");
    }
}

#[test]
fn trustzone_secure_world_is_a_disjoint_partition() {
    let mut cfg = SpmConfig::default_for(Platform::pine_a64_lts());
    cfg.trustzone = true;
    cfg.secure_mem_bytes = 256 * MB;
    let manifest = BootManifest::new()
        .with_vm(VmManifest::new("primary", VmKind::Primary, 64 * MB, 4))
        .with_vm(VmManifest::new("tee", VmKind::Secondary, 128 * MB, 1).secure())
        .with_vm(VmManifest::new("ns-app", VmKind::Secondary, 128 * MB, 1));
    let (spm, _) = boot(cfg, &manifest, vec![]).unwrap();
    let tee = VmId(2);
    let ns = VmId(3);
    assert_eq!(spm.vm(tee).unwrap().world, SecurityState::Secure);
    assert_eq!(spm.vm(ns).unwrap().world, SecurityState::NonSecure);
    // Architectural rule: non-secure world cannot access secure memory.
    assert!(!SecurityState::NonSecure.may_access(SecurityState::Secure));
    // And the allocator enforced the static split.
    let (_, tee_pa, _) = spm.vm(tee).unwrap().stage2.physical_extents()[0];
    let (_, ns_pa, _) = spm.vm(ns).unwrap().stage2.physical_extents()[0];
    let dram_end = kitten_hafnium::hafnium::spm::DRAM_BASE + Platform::pine_a64_lts().dram_bytes;
    assert!(tee_pa >= dram_end - 256 * MB);
    assert!(ns_pa < dram_end - 256 * MB);
}

#[test]
fn verified_boot_is_all_or_nothing() {
    let key = TrustedKey::new("release", b"k");
    let sign = |name: &str, image: &[u8]| {
        VmManifest::new(name, VmKind::Secondary, 64 * MB, 1)
            .with_image(image.to_vec())
            .signed_with(b"k")
    };
    let primary = VmManifest::new("primary", VmKind::Primary, 64 * MB, 4)
        .with_image(b"kitten".to_vec())
        .signed_with(b"k");
    // All signed: boots.
    let mut cfg = SpmConfig::default_for(Platform::pine_a64_lts());
    cfg.require_signed_images = true;
    let good = BootManifest::new()
        .with_vm(primary.clone())
        .with_vm(sign("a", b"image-a"))
        .with_vm(sign("b", b"image-b"));
    assert!(boot(cfg.clone(), &good, vec![key.clone()]).is_ok());
    // One forged signature anywhere: boot fails.
    let mut forged = sign("evil", b"image-evil");
    forged.signature = Some([0u8; 32]);
    let bad = BootManifest::new().with_vm(primary).with_vm(forged);
    assert!(boot(cfg, &bad, vec![key]).is_err());
}

#[test]
fn secondary_feature_restrictions_hold_after_boot() {
    use kitten_hafnium::arch::sysreg::{FeatureClass, TrapPolicy};
    let spm = booted();
    let app = spm.vm(VmId(2)).unwrap();
    for feature in [
        FeatureClass::Pmu,
        FeatureClass::Debug,
        FeatureClass::CacheSetWay,
        FeatureClass::PhysicalTimer,
        FeatureClass::GicDirect,
    ] {
        assert_eq!(
            app.sysregs.policy(feature),
            TrapPolicy::Undefined,
            "{feature:?} must be blocked for secondaries"
        );
    }
    // The login VM gets devices but not CPU power control.
    let login = spm.vm(VmId::SUPER_SECONDARY).unwrap();
    assert_eq!(
        login.sysregs.policy(FeatureClass::GicDirect),
        TrapPolicy::Allow
    );
    assert_eq!(
        login.sysregs.policy(FeatureClass::PowerControl),
        TrapPolicy::Emulate
    );
}

#[test]
fn virtqueue_pages_stay_private_to_the_grant_parties() {
    use kitten_hafnium::arch::mmu::AccessKind;
    use kitten_hafnium::virtio::QueueRegion;

    let mut spm = booted();
    let driver = VmId(2); // app-a
    let device = VmId::SUPER_SECONDARY; // login / I/O servant
    let outsider = VmId(3); // app-b — not a party to the grant

    let region = QueueRegion::establish(&mut spm, driver, device, 2, 256, 2048).unwrap();
    assert!(region.verify(&spm), "parties mapped and audit clean");

    // Both parties reach the queue pages...
    for vm in [driver, device] {
        assert!(
            spm.vm(vm)
                .unwrap()
                .stage2
                .translate(region.grant.ipa, AccessKind::Write)
                .is_ok(),
            "{vm:?} must map its own queue region"
        );
        assert!(spm.vm_reaches_pa(vm, region.grant.pa));
    }

    // ...but a VM outside the grant can neither translate the queue IPA
    // nor reach the backing frames through any of its own mappings.
    assert!(
        spm.vm(outsider)
            .unwrap()
            .stage2
            .translate(region.grant.ipa, AccessKind::Read)
            .is_err(),
        "outsider must not translate another VM's virtqueue window"
    );
    for probe in [
        region.grant.pa,
        region.grant.pa + region.grant.len / 2,
        region.grant.pa + region.grant.len - 1,
    ] {
        assert!(
            !spm.vm_reaches_pa(outsider, probe),
            "outsider reaches virtqueue frame {probe:#x}"
        );
    }
    // The declared grant keeps the audit green despite the shared frames.
    assert!(spm.audit_isolation().is_ok());

    // Revocation restores full exclusivity: nobody but the owner side
    // can see the frames any more.
    let pa = region.grant.pa;
    let ipa = region.grant.ipa;
    region.revoke(&mut spm).unwrap();
    for vm in [driver, device] {
        assert!(
            spm.vm(vm)
                .unwrap()
                .stage2
                .translate(ipa, AccessKind::Read)
                .is_err(),
            "{vm:?} must lose the mapping on revoke"
        );
        assert!(!spm.vm_reaches_pa(vm, pa) || spm.audit_isolation().is_ok());
    }
    assert!(spm.audit_isolation().is_ok());
}

#[test]
fn a_crashing_neighbour_leaves_the_benchmark_histogram_untouched() {
    // The paper's core claim, under active sabotage: a secondary that
    // crashes, hangs, and loses messages/doorbells/IRQs must not move
    // the benchmark partition's noise histogram by a single bit.
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::core::machine::Machine;
    use kitten_hafnium::core::MachineConfig;
    use kitten_hafnium::metrics::hist::LogHistogram;
    use kitten_hafnium::sim::fault::{FaultPlan, FaultSpec};
    use kitten_hafnium::workloads::ftq::{Ftq, FtqConfig};
    use kitten_hafnium::workloads::selfish::{SelfishConfig, SelfishDetour};

    for stack in [StackKind::HafniumKitten, StackKind::HafniumLinux] {
        let spec = FaultSpec::parse(
            "crash@30ms,crash@90ms,hang@150ms:25ms,drop-mailbox:0.4,\
             corrupt-mailbox:0.1,lose-doorbell:0.4,lose-irq:0.4,corrupt-ring:0.2",
        )
        .unwrap();
        let run = |faulted: bool| {
            let mut m = Machine::new(MachineConfig::pine_a64(stack, 51));
            if faulted {
                m.inject_faults(FaultPlan::new(&spec, 9, Nanos::from_millis(250)));
            }
            let mut w = SelfishDetour::new(SelfishConfig {
                duration: Nanos::from_millis(250),
                ..Default::default()
            });
            let r = m.run(&mut w);
            let mut hist = LogHistogram::for_detours();
            for d in r.output.detours().unwrap() {
                hist.record(d.duration.as_nanos() as f64);
            }
            (hist, r.elapsed, r.stolen)
        };
        let clean = run(false);
        let faulted = run(true);
        assert_eq!(clean.0, faulted.0, "{stack:?} selfish histogram moved");
        assert_eq!(clean.1, faulted.1, "{stack:?} elapsed moved");
        assert_eq!(clean.2, faulted.2, "{stack:?} stolen time moved");

        // Same check through the FTQ lens: work-per-quantum series.
        let ftq = |faulted: bool| {
            let mut m = Machine::new(MachineConfig::pine_a64(stack, 52));
            if faulted {
                m.inject_faults(FaultPlan::new(&spec, 9, Nanos::from_millis(250)));
            }
            let mut w = Ftq::new(FtqConfig::default());
            let r = m.run(&mut w);
            r.output.series().unwrap().to_vec()
        };
        assert_eq!(ftq(false), ftq(true), "{stack:?} FTQ series moved");
    }
}

/// Cluster-scale isolation: a partitioned, fault-stormed victim node
/// must not perturb the healthy nodes — their noise profiles and the
/// healthy client/server pair's request latencies stay byte-identical
/// to a clean run. This is the paper's single-machine noise-isolation
/// claim restated across a fabric.
#[test]
fn a_partitioned_node_leaves_healthy_nodes_untouched() {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::workloads::svcload::SvcLoadConfig;

    // 4 nodes: clients 0,1 pin to servers 2,3. Node 3 is the victim.
    let cfg_base = {
        let mut c = ClusterConfig::new(4, StackKind::HafniumKitten, 99);
        c.svcload = SvcLoadConfig::quick();
        c
    };
    let clean = cluster::run(&cfg_base);
    let faulted = {
        let mut c = cfg_base.clone();
        // Partition-only spec: probability gates stay at zero, so the
        // fault plan consumes no randomness for surviving frames and the
        // healthy half of the cluster sees literally the same world.
        c.faults = Some((FabricFaultSpec::parse("partition@5ms:40ms:3").unwrap(), 1));
        cluster::run(&c)
    };

    // The victim's traffic is lost...
    assert!(faulted.completed < clean.completed);
    assert!(faulted.fault_stats.partition_drops > 0);
    // ... but every node's noise profile — victim included, since noise
    // schedules are traffic-independent by construction — is unchanged.
    for (c, f) in clean.per_node.iter().zip(&faulted.per_node) {
        assert_eq!(
            c.noise_hist, f.noise_hist,
            "node{} noise profile must not see the partition",
            c.index
        );
    }
    // And the healthy pair (client 0 -> server 2) completes the same
    // requests at the same times, to the nanosecond.
    let pair = |r: &cluster::ClusterReport| {
        r.records
            .iter()
            .filter(|rec| rec.server == 2)
            .map(|rec| (rec.id, rec.sent, rec.completed))
            .collect::<Vec<_>>()
    };
    assert_eq!(pair(&clean), pair(&faulted));
    // The victim-bound requests are exactly the ones that got hurt.
    let victim_losses = faulted
        .records
        .iter()
        .filter(|rec| rec.server == 3 && rec.completed.is_none())
        .count();
    assert_eq!(
        clean.completed as usize - faulted.completed as usize,
        victim_losses
    );
}

/// Crash-recovery isolation: a `crashsvc` fault that kills one server's
/// service VM mid-run must (1) recover within the detect+restart budget
/// via the Kitten primary's `vm_is_crashed` -> `restart_vm` path, and
/// (2) leave every healthy node's request records and noise profile
/// byte-identical to a fault-free run. The crash window steals the same
/// virtual time from the victim's host ticks whether or not the service
/// VM is live, so even the victim's noise histogram is unchanged.
#[test]
fn a_crashed_service_vm_recovers_without_perturbing_healthy_nodes() {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::workloads::svcload::SvcLoadConfig;

    // 4 nodes: clients 0,1 pin to servers 2,3. Node 3's service VM is
    // killed at t=10ms.
    let cfg_base = {
        let mut c = ClusterConfig::new(4, StackKind::HafniumKitten, 77);
        c.svcload = SvcLoadConfig::quick();
        c
    };
    let clean = cluster::run(&cfg_base);
    let faulted = {
        let mut c = cfg_base.clone();
        c.faults = Some((FabricFaultSpec::parse("crashsvc@10ms:3").unwrap(), 1));
        cluster::run(&c)
    };

    // The crash fired, was detected, and the restart landed inside the
    // budget: detect latency + restart cost + 1ms of queue slack.
    assert_eq!(faulted.recoveries.len(), 1);
    let rec = &faulted.recoveries[0];
    assert_eq!(rec.node, 3);
    assert_eq!(rec.detected_at, rec.crashed_at + cfg_base.detect_latency);
    assert!(
        rec.recovered_at != kitten_hafnium::sim::Nanos::MAX,
        "service VM never came back"
    );
    assert!(
        rec.downtime() <= cfg_base.detect_latency + cfg_base.restart_cost + Nanos::from_millis(1),
        "recovery took {:?}, budget {:?} + {:?}",
        rec.downtime(),
        cfg_base.detect_latency,
        cfg_base.restart_cost
    );
    // Requests in the crash window were really lost (no retry policy
    // armed here), and the node served again afterwards.
    assert!(faulted.reliability.crash_drops > 0);
    assert!(faulted.completed < clean.completed);
    let victim = &faulted.per_node[3];
    assert_eq!(victim.stats.restarts, 1);
    assert!(victim.stats.served > 0, "restarted VM must serve again");

    // Healthy pair (client 0 -> server 2): identical records, to the
    // nanosecond.
    let pair = |r: &cluster::ClusterReport| {
        r.records
            .iter()
            .filter(|rec| rec.server == 2)
            .map(|rec| (rec.id, rec.sent, rec.completed))
            .collect::<Vec<_>>()
    };
    assert_eq!(pair(&clean), pair(&faulted));

    // Noise profiles — victim included — are bit-identical to the
    // fault-free run: crash and restart ride the existing host-tick
    // schedule instead of inventing new timer traffic.
    for (c, f) in clean.per_node.iter().zip(&faulted.per_node) {
        assert_eq!(
            c.noise_hist, f.noise_hist,
            "node{} noise profile must not see the crash",
            c.index
        );
    }
}

/// Crash-recovery isolation at depth: a `crashsvc` fired in the middle
/// of a depth-3 scenario run must stay confined to the chains that
/// route through the victim. With 8 clients on 8 servers and a
/// degree-1 chain per request (frontend -> +1 -> +2 -> +3 mod 8),
/// client `c`'s chain covers server locals {c..c+3}; killing server
/// local 4 taints exactly clients 1-4. Every record owned by clients
/// 0, 5, 6, 7 — tier-0 rows and all three backend-leg rows — must be
/// bit-identical to the fault-free run, and every one of the 16 noise
/// histograms (victim included) must be unchanged: the crash window
/// steals virtual time from the victim's existing host-tick schedule
/// instead of inventing traffic, and scenario draws ride per-leg seed
/// streams that never touch the noise cursors.
#[test]
fn a_mid_scenario_crash_stays_confined_to_chains_through_the_victim() {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::scenario::Scenario;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::workloads::svcload::SvcLoadConfig;

    // 16 nodes: clients 0-7, servers 8-15. Deterministic service at
    // every tier and light arrivals (~0.1 per-server utilization) keep
    // server queues empty, so the victim chains' missing frames cannot
    // time-shift healthy chains through a shared serve queue or NIC.
    // A stretched detect latency widens the crash window enough that
    // a tainted chain provably dies inside it at this arrival rate.
    let scn = Scenario::parse(
        "arrive=exp:20ms,svc=det,backend=det,fanout=1:all,tier=2:1:all,tier=3:1:all",
    )
    .unwrap();
    let cfg_base = {
        let mut c = ClusterConfig::new(16, StackKind::HafniumKitten, 25);
        c.svcload = SvcLoadConfig::quick();
        c.scenario = Some(scn);
        c.detect_latency = Nanos::from_millis(4);
        c
    };
    let clean = cluster::run(&cfg_base);
    let faulted = {
        let mut c = cfg_base.clone();
        c.faults = Some((FabricFaultSpec::parse("crashsvc@10ms:12").unwrap(), 7));
        cluster::run(&c)
    };
    assert_eq!(faulted.scenario.as_ref().unwrap().depth, 3);

    // The crash fired on node 12 (server local 4), recovered inside
    // the detect+restart budget, and really cost traffic: requests in
    // the window died (fire-and-forget — no retry clause armed).
    assert_eq!(faulted.recoveries.len(), 1);
    let rec = &faulted.recoveries[0];
    assert_eq!(rec.node, 12);
    assert_eq!(rec.detected_at, rec.crashed_at + cfg_base.detect_latency);
    assert!(
        rec.downtime() <= cfg_base.detect_latency + cfg_base.restart_cost + Nanos::from_millis(1),
        "recovery took {:?}",
        rec.downtime()
    );
    assert!(faulted.reliability.crash_drops > 0);
    assert!(faulted.completed < clean.completed);
    let victim = &faulted.per_node[12];
    assert_eq!(victim.stats.restarts, 1);
    assert!(victim.stats.served > 0, "restarted VM must serve again");

    // Chains owned by clients 0, 5, 6, 7 never route through server
    // local 4. Every one of their rows — the client-facing request and
    // each backend leg, across all three tiers — matches the clean run
    // to the nanosecond.
    let healthy = [0u16, 5, 6, 7];
    let chains = |r: &cluster::ClusterReport| {
        let owner: std::collections::HashMap<u64, u16> = r
            .records
            .iter()
            .filter(|rec| rec.tier == 0)
            .map(|rec| (rec.id, rec.client))
            .collect();
        r.records
            .iter()
            .filter(|rec| healthy.contains(&owner[&rec.id]))
            .map(|rec| format!("{rec:?}"))
            .collect::<Vec<_>>()
    };
    let clean_chains = chains(&clean);
    assert_eq!(clean_chains, chains(&faulted));
    // Sanity: the healthy slice really exercises every tier.
    for t in 0..=3u8 {
        assert!(
            clean_chains
                .iter()
                .any(|s| s.contains(&format!("tier: {t}"))),
            "no healthy-chain rows at tier {t}"
        );
    }

    // Noise profiles — victim included — are bit-identical across all
    // 16 nodes.
    for (c, f) in clean.per_node.iter().zip(&faulted.per_node) {
        assert_eq!(
            c.noise_hist, f.noise_hist,
            "node{} noise profile must not see the mid-scenario crash",
            c.index
        );
    }
}

/// Colocation isolation: an HPC noisy neighbor armed on one node must
/// be invisible everywhere else. Three layers of the claim:
/// (1) arming a *scenario at all* leaves every node's noise histogram
/// bit-identical to the plain svcload run — scenario sampling rides its
/// own seed streams ("khscna"/"khscns"/"khscnh"), never the noise
/// cursors; (2) adding the neighbor leaves non-colocated nodes' noise
/// and request records identical to the nanosecond; (3) the colocated
/// node itself still preserves per-node noise invariance (its neighbor
/// steals service time, not timer traffic).
#[test]
fn an_hpc_neighbor_perturbs_only_its_own_node() {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::scenario::Scenario;
    use kitten_hafnium::workloads::svcload::SvcLoadConfig;

    // 8 nodes: clients 0-3 pin to servers 4-7. Node 6 gets the neighbor,
    // so only client 2's traffic crosses it.
    let cfg_base = {
        let mut c = ClusterConfig::new(8, StackKind::HafniumKitten, 55);
        c.svcload = SvcLoadConfig::quick();
        c
    };
    let plain = cluster::run(&cfg_base);
    let scenario = {
        let mut c = cfg_base.clone();
        c.scenario = Some(Scenario::parse("arrive=exp:600us,svc=exp").unwrap());
        cluster::run(&c)
    };
    let colocated = {
        let mut c = cfg_base.clone();
        c.scenario = Some(Scenario::parse("arrive=exp:600us,svc=exp,colocate=hpcg:6").unwrap());
        cluster::run(&c)
    };

    // (1) Scenario arrivals and service draws never touch noise streams:
    // all three runs — plain svcload included — share every noise
    // histogram bit for bit.
    for ((p, s), c) in plain
        .per_node
        .iter()
        .zip(&scenario.per_node)
        .zip(&colocated.per_node)
    {
        assert_eq!(
            p.noise_hist, s.noise_hist,
            "node{}: arming a scenario moved a noise bucket",
            p.index
        );
        assert_eq!(
            s.noise_hist, c.noise_hist,
            "node{}: the neighbor moved a noise bucket",
            s.index
        );
    }

    // (2) Non-colocated servers see the same requests at the same
    // nanoseconds whether or not node 6 hosts a neighbor.
    let stats = colocated.scenario.as_ref().unwrap();
    assert_eq!(stats.hpc_nodes, vec![6]);
    assert!(stats.hpc_quanta > 0, "the neighbor must actually run");
    let others = |r: &cluster::ClusterReport| {
        r.records
            .iter()
            .filter(|rec| rec.server != 6)
            .map(|rec| (rec.id, rec.client, rec.sent, rec.completed))
            .collect::<Vec<_>>()
    };
    assert_eq!(others(&scenario), others(&colocated));

    // (3) The colocated node pays for its neighbor in service tails,
    // and nothing else: same offered load, worse completion times.
    assert_eq!(scenario.sent, colocated.sent, "open loop: same arrivals");
    let victim_latency = |r: &cluster::ClusterReport| {
        r.records
            .iter()
            .filter_map(|rec| {
                rec.completed
                    .filter(|_| rec.server == 6)
                    .map(|done| done.saturating_sub(rec.sent).as_nanos())
            })
            .sum::<u64>()
    };
    assert!(
        victim_latency(&colocated) > victim_latency(&scenario),
        "the neighbor must cost the colocated node's clients time"
    );
}

/// Attestation quarantine isolation: a node presenting a forged boot
/// measurement is refused by every peer before the first request flows,
/// and the quarantine is surgical — every healthy server's request
/// records and every node's noise histogram (the quarantined node's
/// included) are byte-identical to the tamper-free attested run. The
/// handshake and the tamper clause draw only from their own seeded
/// streams, so arming them cannot leak timing into anyone else's world.
#[test]
fn a_tampered_node_is_quarantined_without_perturbing_healthy_nodes() {
    use kitten_hafnium::cluster::{self, ClusterConfig};
    use kitten_hafnium::core::config::StackKind;
    use kitten_hafnium::sim::fault::FabricFaultSpec;
    use kitten_hafnium::workloads::svcload::{RequestOutcome, SvcLoadConfig};

    // 4 nodes: clients 0,1 pin to servers 2,3. Node 3 forges its boot
    // measurement; node 2 stays honest.
    let attested = {
        let mut c = ClusterConfig::new(4, StackKind::HafniumKitten, 57);
        c.svcload = SvcLoadConfig::quick();
        c.attest = true;
        c
    };
    let clean = cluster::run(&attested);
    let tampered = {
        let mut c = attested.clone();
        c.faults = Some((FabricFaultSpec::parse("tamper@3").unwrap(), 1));
        cluster::run(&c)
    };

    // The clean mesh admits everyone; the tampered mesh quarantines
    // exactly the forger — its signature still verifies (the key is
    // not compromised, the image is) but the registry comparison fails.
    assert!(clean.attestation.as_ref().unwrap().all_clean());
    let a = tampered.attestation.as_ref().unwrap();
    assert_eq!(a.quarantined, vec![3]);
    assert!(a
        .verdicts
        .iter()
        .filter(|v| v.peer == 3)
        .all(|v| v.sig_ok && !v.measurement_ok));

    // Every request routed at the forger dies at arrival: refused,
    // zero attempts, nothing on the wire.
    let refused: Vec<_> = tampered
        .records
        .iter()
        .filter(|rec| rec.server == 3)
        .collect();
    assert!(!refused.is_empty());
    assert!(refused
        .iter()
        .all(|rec| rec.outcome == RequestOutcome::Refused && rec.attempts == 0));

    // The honest server's clients see the same world to the nanosecond...
    let honest = |r: &cluster::ClusterReport| {
        r.records
            .iter()
            .filter(|rec| rec.server == 2)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(honest(&clean), honest(&tampered));
    // ... and every node's noise profile is untouched, the quarantined
    // node's included: it still boots, still ticks, just serves no one.
    for (c, t) in clean.per_node.iter().zip(&tampered.per_node) {
        assert_eq!(
            c.noise_hist, t.noise_hist,
            "node{} noise profile must not see the quarantine",
            c.index
        );
    }
}

//! Multi-core execution: one workload (thread) per core, optional
//! per-phase barrier synchronization.
//!
//! The paper's node has four cores, and its future-work section calls
//! for studying "the performance isolation capabilities of our approach
//! when multiple workloads are hosted on the same compute node." This
//! executor provides the mechanism:
//!
//! * each core gets its own noise streams (its own tick alignment and,
//!   under Linux, its own kthread mix),
//! * DRAM bandwidth is shared: concurrently streaming cores split the
//!   platform bandwidth,
//! * in [`BarrierMode::PerPhase`], all threads synchronize at phase
//!   boundaries — OpenMP-style — so a noise event on *any* core delays
//!   *every* core. This is the amplification mechanism behind the
//!   classic "OS noise at scale" results and behind NPB LU's special
//!   sensitivity to FWK noise.
//!
//! Each core's phases run through the noise-interleaving kernel the
//! single-core executor uses ([`crate::noise::run_phase`]), one
//! [`crate::noise::NoiseCursor`] per core over one shared host model.

use crate::config::{MachineConfig, StackKind};
use crate::noise::{run_phase, spm_tick, Fired, NoiseCursor, NoiseModel, Quirks};
use kh_arch::cpu::{CoreTimer, Phase, PhaseCost, PollutionState};
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::{Spm, SpmConfig};
use kh_hafnium::vm::VmId;
use kh_sim::{Nanos, SimRng};
use kh_workloads::{Workload, WorkloadOutput};

const MB: u64 = 1 << 20;

/// How threads synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMode {
    /// Independent threads (embarrassingly parallel).
    None,
    /// All threads complete phase *k* before any starts phase *k+1*
    /// (OpenMP parallel-for semantics).
    PerPhase,
}

/// Per-core statistics from a parallel run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    pub interruptions: u64,
    pub stolen: Nanos,
    /// Time spent waiting at barriers for slower cores.
    pub barrier_wait: Nanos,
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelReport {
    pub outputs: Vec<WorkloadOutput>,
    /// Wall time: the last core's completion.
    pub elapsed: Nanos,
    pub per_core: Vec<CoreStats>,
    pub barriers: u64,
}

impl ParallelReport {
    /// Total useful throughput (sum over cores reporting throughput).
    pub fn aggregate_throughput(&self) -> f64 {
        self.outputs.iter().filter_map(|o| o.throughput()).sum()
    }

    /// Total time lost to barrier skew.
    pub fn total_barrier_wait(&self) -> Nanos {
        Nanos(
            self.per_core
                .iter()
                .map(|c| c.barrier_wait.as_nanos())
                .sum(),
        )
    }
}

struct CoreCtx {
    now: Nanos,
    cursor: NoiseCursor,
    jitter_rng: SimRng,
    stats: CoreStats,
    done: bool,
}

/// How workload threads map onto VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenancy {
    /// All threads are VCPUs of one secondary VM (a parallel job).
    SingleVm,
    /// Each thread is its own isolated secondary VM (co-resident
    /// tenants — the paper's multi-workload scenario).
    VmPerThread,
}

/// The multi-core machine.
pub struct ParallelMachine {
    cfg: MachineConfig,
    timer: CoreTimer,
    noise: NoiseModel,
    spm: Option<Spm>,
    /// (vm, vcpu) the thread on core i drives.
    placements: Vec<(VmId, u16)>,
}

impl ParallelMachine {
    /// Build the machine for `threads` workload threads (≤ core count),
    /// all VCPUs of one secondary VM.
    pub fn new(cfg: MachineConfig, threads: u16) -> Self {
        Self::with_tenancy(cfg, threads, Tenancy::SingleVm)
    }

    /// Build with an explicit tenancy model.
    pub fn with_tenancy(cfg: MachineConfig, threads: u16, tenancy: Tenancy) -> Self {
        assert!(threads >= 1 && threads <= cfg.platform.num_cores);
        let timer = CoreTimer::new(cfg.platform);
        let mut rng = SimRng::new(cfg.seed ^ 0x7061_7261);
        let noise = NoiseModel::new(&cfg, cfg.platform.num_cores, &mut rng, Quirks::PARALLEL);
        let placements: Vec<(VmId, u16)> = match tenancy {
            Tenancy::SingleVm => (0..threads).map(|c| (VmId(2), c)).collect(),
            Tenancy::VmPerThread => (0..threads).map(|c| (VmId(2 + c), 0)).collect(),
        };
        let spm = cfg.stack.is_virtualized().then(|| {
            let spm_cfg = SpmConfig::default_for(cfg.platform);
            let primary_name = match cfg.stack {
                StackKind::HafniumKitten => "kitten-primary",
                _ => "linux-primary",
            };
            let mut manifest = BootManifest::new().with_vm(VmManifest::new(
                primary_name,
                VmKind::Primary,
                64 * MB,
                cfg.platform.num_cores,
            ));
            match tenancy {
                Tenancy::SingleVm => {
                    manifest = manifest.with_vm(VmManifest::new(
                        "bench",
                        VmKind::Secondary,
                        512 * MB,
                        threads,
                    ));
                }
                Tenancy::VmPerThread => {
                    for i in 0..threads {
                        manifest = manifest.with_vm(VmManifest::new(
                            format!("tenant-{i}"),
                            VmKind::Secondary,
                            256 * MB,
                            1,
                        ));
                    }
                }
            }
            let (mut spm, _) = kh_hafnium::boot::boot(spm_cfg, &manifest, vec![])
                .expect("parallel manifest boots");
            // Dispatch each thread's VCPU on its core.
            for (core, &(vm, vcpu)) in placements.iter().enumerate() {
                spm.hypercall(
                    VmId::PRIMARY,
                    core as u16,
                    core as u16,
                    HfCall::VcpuRun { vm, vcpu },
                    Nanos::ZERO,
                )
                .expect("initial parallel dispatch");
            }
            spm
        });
        ParallelMachine {
            cfg,
            timer,
            noise,
            spm,
            placements,
        }
    }

    pub fn spm(&self) -> Option<&Spm> {
        self.spm.as_ref()
    }

    /// Execute one phase on one core starting at `ctx.now`; returns the
    /// completion time. A host tick preempts and re-dispatches the
    /// core's VCPU; guest ticks steal their time without driving the SPM.
    fn advance(&mut self, core: u16, ctx: &mut CoreCtx, phase: &Phase, streams: u32) -> Nanos {
        let mut clean = PollutionState::default();
        let regime = self.noise.regime();
        let cost = self.timer.price(phase, regime, &mut clean, streams.max(1));
        let work = self.noise.work(cost.time, &mut ctx.jitter_rng);
        let (vm, vcpu) = self.placements[core as usize];
        let spm = &mut self.spm;
        let mut tick = |f: &Fired, now: Nanos| {
            if let Some(spm) = spm.as_mut() {
                spm_tick(spm, None, (core, vm, vcpu), f.source, now, true);
            }
        };
        let span = (ctx.now, work);
        let run = run_phase(
            &mut self.noise,
            &mut ctx.cursor,
            &self.timer,
            phase,
            span,
            &mut tick,
        );
        ctx.stats.interruptions += run.noise.total_events();
        ctx.stats.stolen += run.noise.total_stolen();
        ctx.now = run.end;
        ctx.now
    }

    /// Run the workloads (one per core) to completion.
    pub fn run(
        &mut self,
        mut workloads: Vec<Box<dyn Workload + Send>>,
        barrier: BarrierMode,
    ) -> ParallelReport {
        let threads = workloads.len() as u16;
        assert!(threads >= 1 && threads <= self.cfg.platform.num_cores);
        let mut seed_rng = SimRng::new(self.cfg.seed ^ 0x636F_7265);
        let mut ctxs: Vec<CoreCtx> = (0..threads)
            .map(|c| {
                let mut r = seed_rng.split(c as u64);
                CoreCtx {
                    now: Nanos::ZERO,
                    cursor: NoiseCursor::start(&mut self.noise, c, &mut r),
                    jitter_rng: r.split(c as u64 + 100),
                    stats: CoreStats::default(),
                    done: false,
                }
            })
            .collect();
        // Phases complete at each core's own time; the per-phase cost is
        // not reported back.
        let no_cost = PhaseCost::default();
        let mut barriers = 0u64;

        match barrier {
            BarrierMode::PerPhase => loop {
                // Collect this round's phases.
                let mut round: Vec<(usize, Phase)> = Vec::new();
                for (i, w) in workloads.iter_mut().enumerate() {
                    if ctxs[i].done {
                        continue;
                    }
                    match w.next_phase(ctxs[i].now) {
                        Some(p) => round.push((i, p)),
                        None => ctxs[i].done = true,
                    }
                }
                if round.is_empty() {
                    break;
                }
                let streams = round.iter().filter(|(_, p)| p.dram_bytes > 0).count() as u32;
                let mut round_end = Nanos::ZERO;
                let mut ends: Vec<(usize, Nanos)> = Vec::new();
                for (i, phase) in &round {
                    let end = self.advance(*i as u16, &mut ctxs[*i], phase, streams.max(1));
                    round_end = round_end.max(end);
                    ends.push((*i, end));
                }
                // Complete phases at each core's own time, then barrier:
                // interruptions during the wait cost the workload nothing.
                for (i, end) in &ends {
                    workloads[*i].phase_complete(*end, &no_cost);
                    ctxs[*i].stats.barrier_wait += round_end.saturating_sub(*end);
                }
                for (i, _) in &ends {
                    ctxs[*i].cursor.skip_to(&mut self.noise, round_end);
                    ctxs[*i].now = round_end;
                }
                barriers += 1;
            },
            BarrierMode::None => {
                // Static bandwidth sharing: every thread with any
                // DRAM-heavy phase counts as a streamer for the whole
                // run (the conservative approximation; exact interleaved
                // accounting matters only when phase mixes differ a lot).
                let streams = threads as u32;
                for i in 0..workloads.len() {
                    let core = i as u16;
                    while let Some(phase) = workloads[i].next_phase(ctxs[i].now) {
                        let end = self.advance(core, &mut ctxs[i], &phase, streams);
                        workloads[i].phase_complete(end, &no_cost);
                    }
                }
            }
        }

        let elapsed = ctxs.iter().map(|c| c.now).max().unwrap_or(Nanos::ZERO);
        let outputs = workloads
            .iter_mut()
            .zip(&ctxs)
            .map(|(w, c)| w.finish(c.now))
            .collect();
        if let Some(spm) = self.spm.as_ref() {
            spm.audit_isolation().expect("isolation preserved");
        }
        ParallelReport {
            outputs,
            elapsed,
            per_core: ctxs.into_iter().map(|c| c.stats).collect(),
            barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_workloads::nas::NasBenchmark;
    use kh_workloads::stream::{StreamConfig, StreamModel};

    fn lu_threads(n: usize) -> Vec<Box<dyn Workload + Send>> {
        (0..n).map(|_| NasBenchmark::Lu.model()).collect()
    }

    #[test]
    fn four_threads_complete_with_barriers() {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 3);
        let mut m = ParallelMachine::new(cfg, 4);
        let r = m.run(lu_threads(4), BarrierMode::PerPhase);
        assert_eq!(r.outputs.len(), 4);
        assert!(r.barriers > 0);
        for o in &r.outputs {
            assert!(o.throughput().unwrap() > 0.0);
        }
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn barrier_wait_reflects_noise_skew() {
        let wait_for = |stack| {
            let cfg = MachineConfig::pine_a64(stack, 7);
            let mut m = ParallelMachine::new(cfg, 4);
            let r = m.run(lu_threads(4), BarrierMode::PerPhase);
            (r.total_barrier_wait(), r.elapsed)
        };
        let (kitten_wait, kitten_elapsed) = wait_for(StackKind::HafniumKitten);
        let (linux_wait, linux_elapsed) = wait_for(StackKind::HafniumLinux);
        assert!(
            linux_wait > kitten_wait.scaled(2),
            "linux barrier skew {linux_wait} should dwarf kitten {kitten_wait}"
        );
        assert!(linux_elapsed > kitten_elapsed);
    }

    #[test]
    fn noise_amplification_under_barriers() {
        // Parallel LU with barriers must lose more to the Linux primary
        // than the serial run does: any core's burst delays all.
        let normalized = |barrier| {
            let run = |stack| {
                let cfg = MachineConfig::pine_a64(stack, 11);
                let mut m = ParallelMachine::new(cfg, 4);
                let r = m.run(lu_threads(4), barrier);
                (r.aggregate_throughput(), r.elapsed)
            };
            let (kitten, _) = run(StackKind::HafniumKitten);
            let (linux, _) = run(StackKind::HafniumLinux);
            linux / kitten
        };
        let with_barriers = normalized(BarrierMode::PerPhase);
        let without = normalized(BarrierMode::None);
        assert!(
            with_barriers < without,
            "barriers amplify noise: {with_barriers} vs {without}"
        );
        assert!(with_barriers > 0.8, "but not absurdly: {with_barriers}");
    }

    #[test]
    fn bandwidth_contention_caps_parallel_stream() {
        let cfg = MachineConfig::pine_a64(StackKind::NativeKitten, 1);
        let mut m1 = ParallelMachine::new(cfg, 1);
        let single = m1.run(
            vec![Box::new(StreamModel::new(StreamConfig::default()))],
            BarrierMode::None,
        );
        let mut m4 = ParallelMachine::new(cfg, 4);
        let quad = m4.run(
            (0..4)
                .map(|_| Box::new(StreamModel::new(StreamConfig::default())) as _)
                .collect(),
            BarrierMode::None,
        );
        let single_bw = single.aggregate_throughput();
        let quad_bw = quad.aggregate_throughput();
        // Four streaming cores share one memory controller: aggregate
        // bandwidth stays near the single-core figure, far below 4x.
        assert!(
            quad_bw < single_bw * 1.5,
            "quad {quad_bw} vs single {single_bw}"
        );
    }

    #[test]
    fn vm_per_thread_tenancy_is_fully_isolated() {
        use kh_workloads::gups::{GupsConfig, GupsModel};
        let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 13);
        let mut m = ParallelMachine::with_tenancy(cfg, 4, Tenancy::VmPerThread);
        let ws: Vec<Box<dyn Workload + Send>> = (0..4)
            .map(|_| {
                Box::new(GupsModel::new(GupsConfig {
                    log2_table: 19,
                    updates_per_entry: 2,
                })) as _
            })
            .collect();
        let r = m.run(ws, BarrierMode::None);
        assert_eq!(r.outputs.len(), 4);
        let spm = m.spm().unwrap();
        // One primary + four tenant VMs, pairwise isolated.
        assert_eq!(spm.vm_count(), 5);
        assert!(spm.audit_isolation().is_ok());
        // Each tenant made progress.
        for o in &r.outputs {
            assert!(o.throughput().unwrap() > 0.0);
        }
    }

    #[test]
    fn tenancy_models_perform_equivalently_for_independent_work() {
        // With no cross-thread sharing in the workloads, the VM-per-
        // thread and single-VM tenancies cost the same — isolation
        // between tenants is free, the paper's core claim.
        use kh_workloads::nas::NasBenchmark;
        let run = |tenancy| {
            let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 23);
            let mut m = ParallelMachine::with_tenancy(cfg, 4, tenancy);
            let ws = (0..4).map(|_| NasBenchmark::Ep.model()).collect();
            m.run(ws, BarrierMode::None).aggregate_throughput()
        };
        let single = run(Tenancy::SingleVm);
        let multi = run(Tenancy::VmPerThread);
        let ratio = multi / single;
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let cfg = MachineConfig::pine_a64(StackKind::HafniumLinux, 42);
            let mut m = ParallelMachine::new(cfg, 2);
            let r = m.run(lu_threads(2), BarrierMode::PerPhase);
            (r.elapsed, r.total_barrier_wait())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn too_many_threads_rejected() {
        let cfg = MachineConfig::pine_a64(StackKind::NativeKitten, 1);
        let mut m = ParallelMachine::new(cfg, 4);
        let _ = m.run(lu_threads(5), BarrierMode::None);
    }
}

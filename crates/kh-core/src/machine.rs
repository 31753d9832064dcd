//! The discrete-event machine executor.
//!
//! One [`Machine`] simulates one node running one benchmark under a
//! [`StackKind`]. For virtualized stacks it boots a real
//! [`kh_hafnium::spm::Spm`] from a manifest (Kitten or Linux primary +
//! the benchmark's secondary VM), drives the actual `vcpu_run` /
//! `preempt` / vGIC state machine on every scheduling event, and charges
//! the architectural costs — trap round trips, EL2 VM context switches,
//! tick handlers, background bursts, and the cache/TLB pollution each one
//! inflicts on the interrupted benchmark.
//!
//! Those costs and their interleaving into each phase come from the
//! noise kernel ([`crate::noise`]) that the multi-core executor and the
//! cluster nodes share; this executor adds, through its hooks, the SPM
//! driving, trace records, the victim's faults, the injected fault, and
//! the translation replay's walk-cost factor.

use crate::config::{MachineConfig, StackKind};
use crate::noise::{
    run_phase, spm_dispatch, spm_tick, Fired, Hooks, NoiseCursor, NoiseModel, Quirks, Source,
};
use crate::victim::{VictimReport, VictimVm};
use kh_arch::cpu::{AccessPattern, CoreTimer, Phase};
use kh_arch::mmu::{AccessKind, MemAttr, PagePerms, Stage1Table, BLOCK_SIZE, PAGE_SIZE};
use kh_arch::walkcache::WalkCacheStats;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::{Spm, SpmConfig};
use kh_hafnium::vm::VmId;
use kh_kitten::secondary::SecondaryPort;
use kh_sim::{DrawAhead, FaultPlan, FaultStats, Nanos, SimRng, TraceCategory, TraceRecorder};
use kh_theseus::TheseusRuntime;
use kh_workloads::{Workload, WorkloadOutput};

const MB: u64 = 1 << 20;

/// Everything a run produced, beyond the workload's own output.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub stack: StackKind,
    pub output: WorkloadOutput,
    /// Total virtual time from first phase to completion.
    pub elapsed: Nanos,
    /// Count of all interruptions the benchmark experienced.
    pub interruptions: u64,
    /// CPU time stolen from the benchmark by those interruptions.
    pub stolen: Nanos,
    pub host_ticks: u64,
    pub guest_ticks: u64,
    pub background_events: u64,
    /// Co-tenant slices that displaced the benchmark (interference
    /// ablation only).
    pub co_tenant_slices: u64,
    /// `vcpu_run` hypercalls issued by the primary during the run.
    pub vcpu_runs: u64,
    /// True when an injected stage-2 fault aborted the VM before the
    /// benchmark completed.
    pub aborted: bool,
    /// What the fault plan injected (all zeros without `--faults`).
    pub fault_stats: FaultStats,
    /// How the victim secondary fared (None without a fault plan).
    pub victim: Option<VictimReport>,
    /// Secondary restarts the SPM performed during the run.
    pub vm_restarts: u64,
    /// Walk-cache counters from the translation replay (None unless
    /// `StackOptions::model_translation` was enabled on a virtualized
    /// stack).
    pub walk_cache: Option<WalkCacheStats>,
}

/// The per-run machine.
pub struct Machine {
    cfg: MachineConfig,
    timer: CoreTimer,
    noise: NoiseModel,
    spm: Option<Spm>,
    port: Option<SecondaryPort>,
    rng: SimRng,
    workload_vm: VmId,
    trace: TraceRecorder,
    /// Fault-injection plan (inert by default). All its randomness comes
    /// from its own seed's streams, never from `rng` — a faulted run and
    /// a clean run with the same workload seed see identical noise.
    faults: FaultPlan,
    /// The sacrificial secondary absorbing the plan's injections.
    victim: Option<VictimVm>,
    /// Guest stage-1 table for the translation replay (present only when
    /// `model_translation` is on and the stack is virtualized). Grown
    /// lazily to cover each phase's footprint.
    s1_replay: Option<Stage1Table>,
    /// Bytes of the replay VA window mapped so far.
    replay_mapped: u64,
    /// RNG for replay access sampling. A dedicated stream (like the
    /// fault plan's): enabling the replay must not shift the noise
    /// drawn from `rng`, so a modeled and an unmodeled run with the same
    /// seed see identical tick alignment and jitter.
    replay_rng: SimRng,
    /// Component runtime (NativeTheseus only): owns the stack's
    /// measurement and the cooperative-restart fault story that stands
    /// in for the SPM's `restart_vm`.
    theseus: Option<TheseusRuntime>,
}

impl Machine {
    /// Build (and for virtualized stacks, boot) the machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut timing_platform = cfg.platform;
        if cfg.options.guest_block_mappings {
            // 2 MiB block descriptors: each TLB entry covers 512x the
            // reach of a 4 KiB page.
            timing_platform.tlb_entries *= 512;
        }
        let timer = CoreTimer::new(timing_platform);
        let mut rng = SimRng::new(cfg.seed ^ 0x6B68_636F_7265);
        let noise = NoiseModel::new(&cfg, cfg.platform.num_cores, &mut rng, Quirks::MACHINE);
        let (spm, port, workload_vm) = if cfg.stack.is_virtualized() {
            let mut spm_cfg = SpmConfig::default_for(cfg.platform);
            spm_cfg.routing = cfg.options.routing;
            spm_cfg.require_signed_images = cfg.options.verify_images;
            spm_cfg.allow_dynamic_partitions = cfg.options.dynamic_partitions;
            let primary_name = match cfg.stack {
                StackKind::HafniumKitten => "kitten-primary",
                _ => "linux-primary",
            };
            let manifest = BootManifest::new()
                .with_vm(VmManifest::new(
                    primary_name,
                    VmKind::Primary,
                    64 * MB,
                    cfg.platform.num_cores,
                ))
                .with_vm(VmManifest::new("bench", VmKind::Secondary, 512 * MB, 1));
            let (spm, _report) = kh_hafnium::boot::boot(spm_cfg, &manifest, vec![])
                .expect("benchmark manifest boots");
            let workload_vm = VmId(2);
            let port = SecondaryPort::new(workload_vm);
            port.boot_probe().expect("secondary port has workarounds");
            (Some(spm), Some(port), workload_vm)
        } else {
            (None, None, VmId(0))
        };
        let s1_replay = (cfg.options.model_translation && cfg.stack.is_virtualized())
            .then(|| Stage1Table::new(1));
        let replay_rng = SimRng::new(cfg.seed ^ 0x6B68_7761_6C6B);
        Machine {
            cfg,
            timer,
            noise,
            spm,
            port,
            rng,
            workload_vm,
            trace: TraceRecorder::disabled(),
            faults: FaultPlan::none(),
            victim: None,
            s1_replay,
            replay_mapped: 0,
            replay_rng,
            theseus: (cfg.stack == StackKind::NativeTheseus).then(|| TheseusRuntime::new(cfg.seed)),
        }
    }

    /// The component runtime, for post-run inspection (NativeTheseus
    /// only).
    pub fn theseus(&self) -> Option<&TheseusRuntime> {
        self.theseus.as_ref()
    }

    /// Arm a fault-injection plan. For virtualized stacks this also
    /// boots the victim secondary that absorbs the injections; for
    /// native stacks the plan is inert (there is no hypervisor to fault
    /// against). Call before [`Machine::run`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if !plan.is_empty() && self.cfg.stack.is_virtualized() {
            if let Some(spm) = self.spm.as_mut() {
                spm.create_vm(
                    crate::victim::VICTIM_VM,
                    &VmManifest::new("victim", VmKind::Secondary, 64 * MB, 1),
                )
                .expect("victim VM boots");
                self.victim = Some(VictimVm::new(self.cfg.platform));
            }
        }
        self.faults = plan;
    }

    /// The armed plan's injection counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults.stats
    }

    /// The SPM, for post-run inspection (virtualized stacks only).
    pub fn spm(&self) -> Option<&Spm> {
        self.spm.as_ref()
    }

    /// Replay a sample of the phase's memory accesses through the real
    /// stage-1/stage-2 tables via the SPM's walk cache, and return the
    /// measured walk-cost factor (fraction of full nested-walk cost
    /// actually paid) for this phase. Returns 1.0 — i.e. the analytic
    /// full-cost model — when the replay is disabled or the phase touches
    /// no memory.
    fn replay_translation(&mut self, phase: &Phase) -> f64 {
        const REPLAY_VA_BASE: u64 = 0x4000_0000;
        /// Accesses sampled per phase: enough to warm and exercise the
        /// cache, small enough to keep simulation overhead bounded.
        const REPLAY_SAMPLES: u64 = 1024;

        let (Some(s1), Some(spm)) = (self.s1_replay.as_mut(), self.spm.as_mut()) else {
            return 1.0;
        };
        if phase.mem_refs == 0 || phase.footprint == 0 {
            return 1.0;
        }
        // Grow the guest mapping to cover this phase's footprint. Granule
        // follows the stack's mapping policy: 2 MiB blocks when the guest
        // kernel uses them, 4 KiB pages otherwise.
        let blocks = self.cfg.options.guest_block_mappings;
        let granule = if blocks { BLOCK_SIZE } else { PAGE_SIZE };
        let want = phase.footprint.div_ceil(granule) * granule;
        if want > self.replay_mapped {
            s1.map_with_granule(
                REPLAY_VA_BASE + self.replay_mapped,
                self.replay_mapped,
                want - self.replay_mapped,
                PagePerms::RW,
                MemAttr::Normal,
                blocks,
            )
            .expect("replay window extends contiguously");
            self.replay_mapped = want;
        }
        let pages = (phase.footprint / PAGE_SIZE).max(1);
        let samples = phase.mem_refs.min(REPLAY_SAMPLES);
        let before = spm.walk_cache_stats();
        for s in 0..samples {
            let vpn = match phase.pattern {
                // GUPS-style: uniform over the whole table.
                AccessPattern::Random => self.replay_rng.next_below(pages),
                // Unit stride sweeps the footprint.
                AccessPattern::Stream => s % pages,
                // Cache-blocked: hot working set far below the footprint.
                AccessPattern::Blocked { .. } => self.replay_rng.next_below(pages.min(512)),
                AccessPattern::Compute => 0,
            };
            let va = REPLAY_VA_BASE + vpn * PAGE_SIZE + (s % PAGE_SIZE);
            let _ = spm.translate_guest(self.workload_vm, s1, va, AccessKind::Read);
        }
        spm.walk_cache_stats().since(&before).walk_cost_factor()
    }

    /// Enable machine-event tracing (ring buffer of `capacity` records).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceRecorder::new(capacity);
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Run a workload to completion on core 0.
    pub fn run(&mut self, w: &mut dyn Workload) -> RunReport {
        let core = 0u16;
        let mut now = Nanos::ZERO;
        let mut report = RunReport {
            workload: w.name().to_string(),
            stack: self.cfg.stack,
            output: WorkloadOutput::Detours(Vec::new()),
            elapsed: Nanos::ZERO,
            interruptions: 0,
            stolen: Nanos::ZERO,
            host_ticks: 0,
            guest_ticks: 0,
            background_events: 0,
            co_tenant_slices: 0,
            vcpu_runs: 0,
            aborted: false,
            fault_stats: FaultStats::default(),
            victim: None,
            vm_restarts: 0,
            walk_cache: None,
        };

        // Tick schedules start at a random phase offset so repeated
        // trials sample the tick/benchmark alignment space.
        let mut cursor = NoiseCursor::start(&mut self.noise, core, &mut self.rng)
            .with_co_tenant(self.cfg.options.co_tenant);
        let guest_period = self.noise.guest_period();

        // Virtualized: the primary dispatches the benchmark VCPU, and
        // the guest arms its virtual timer.
        if let (Some(spm), Some(port), Some(p)) = (self.spm.as_mut(), &self.port, guest_period) {
            spm_dispatch(spm, port, core, p, now);
            report.vcpu_runs += 1;
        }

        // Virtualized stacks take an unrecoverable stage-2 abort;
        // Theseus survives the same injection by unwinding and relinking
        // the faulted component (one-shot: `fault_at` is cleared after).
        let faultable = self.cfg.stack.is_virtualized() || self.theseus.is_some();
        let fault_at = self.cfg.options.inject_fault_at_ns.filter(|_| faultable);
        let mut fault_at = fault_at.map_or(Nanos::MAX, Nanos);
        // Per-phase timing jitter models DRAM refresh/thermal variation:
        // the source of run-to-run stdev. Each phase's draw is taken a
        // phase ahead; `self.rng` follows the taken draws only, so the
        // next run starts where this run's phases left the stream.
        let mut jitter = DrawAhead::new(self.rng.clone());
        while let Some(phase) = w.next_phase(now) {
            // Walk-cache discount from the functional translation replay;
            // exactly 1.0 (the analytic full-cost model) when disabled.
            let walk_factor = if self.s1_replay.is_some() {
                self.replay_translation(&phase)
            } else {
                1.0
            };
            let cost = self.noise.price(&self.timer, &phase, 1, walk_factor);
            self.rng.clone_from(jitter.rng());
            let work = self.noise.work_from(cost.time, &jitter.take());
            let mut hooks = MachineHooks {
                spm: self.spm.as_mut(),
                guest: self.port.as_ref().zip(guest_period),
                vm: self.workload_vm,
                victim: self.victim.as_mut(),
                faults: &mut self.faults,
                trace: &mut self.trace,
                theseus: self.theseus.as_mut(),
                fault_at: &mut fault_at,
                report: &mut report,
            };
            let span = (now, work);
            let run = run_phase(
                &mut self.noise,
                &mut cursor,
                &self.timer,
                &phase,
                span,
                &mut hooks,
            );
            now = run.end;
            report.host_ticks += run.noise.events(Source::HostTick);
            report.guest_ticks += run.noise.events(Source::GuestTick);
            report.co_tenant_slices += run.noise.events(Source::CoTenant);
            report.background_events += run.noise.events(Source::Background);
            report.interruptions += run.noise.total_events();
            report.stolen += run.noise.total_stolen();
            if run.stopped {
                report.aborted = true;
                break;
            }
            w.phase_complete(now, &cost);
        }

        report.elapsed = now;
        report.output = w.finish(now);
        report.fault_stats = self.faults.stats;
        report.victim = self.victim.as_ref().map(|v| v.report);
        if let Some(spm) = self.spm.as_ref() {
            report.vm_restarts = spm.stats.vm_restarts;
            if self.s1_replay.is_some() {
                report.walk_cache = Some(spm.walk_cache_stats());
            }
            // The isolation invariant must survive the whole run.
            spm.audit_isolation().expect("isolation preserved");
        }
        if let Some(rt) = self.theseus.as_ref() {
            report.vm_restarts = rt.total_restarts;
            // The language-level analogue of the SPM audit: every cell
            // live, restart ledger balanced.
            rt.audit().expect("component isolation preserved");
        }
        report
    }
}

/// What a machine run adds to the kernel's loop on core 0: the SPM
/// driven through every tick, the trace, the victim's faults run on
/// their own core up to each horizon, and the one-shot injected fault
/// (a Theseus component restart or a stage-2 abort), which wins a tie
/// with a noise event.
struct MachineHooks<'a> {
    spm: Option<&'a mut Spm>,
    guest: Option<(&'a SecondaryPort, Nanos)>,
    vm: VmId,
    victim: Option<&'a mut VictimVm>,
    faults: &'a mut FaultPlan,
    trace: &'a mut TraceRecorder,
    theseus: Option<&'a mut TheseusRuntime>,
    fault_at: &'a mut Nanos,
    report: &'a mut RunReport,
}

impl Hooks for MachineHooks<'_> {
    const OWN_FIRST: bool = true;

    fn noise(&mut self, f: &Fired, now: Nanos) {
        if let Some(spm) = self.spm.as_deref_mut() {
            if spm_tick(spm, self.guest, (0, self.vm, 0), f.source, now, true) {
                self.report.vcpu_runs += 1;
            }
        }
        self.trace
            .emit(now, 0, f.source.category(), f.stolen, f.label);
    }

    /// Drive every victim-side happening (scheduled injections and
    /// heartbeats) due at or before `boundary`, in time order. All of it
    /// runs on the victim's core: the benchmark's timeline on core 0 is
    /// untouched, which is exactly the isolation property under test.
    fn horizon(&mut self, boundary: Nanos) {
        let (Some(victim), Some(spm)) = (self.victim.as_deref_mut(), self.spm.as_deref_mut())
        else {
            return;
        };
        loop {
            let next_fault = self.faults.next_scheduled_at().unwrap_or(Nanos::MAX);
            let next_beat = victim.next_beat;
            if next_fault > boundary && next_beat > boundary {
                return;
            }
            if next_fault <= next_beat {
                for ev in self.faults.take_due(next_fault) {
                    victim.apply(ev, spm, self.trace);
                }
            } else {
                victim.beat(spm, self.faults, self.trace);
            }
        }
    }

    fn next_own(&mut self, _now: Nanos) -> Nanos {
        *self.fault_at
    }

    fn own(&mut self, now: Nanos) -> Option<Nanos> {
        *self.fault_at = Nanos::MAX;
        if let Some(rt) = self.theseus.as_deref_mut() {
            // The service component panics mid-phase. The runtime
            // detects the unwind, drops the cell's heap, and relinks a
            // fresh instance; the benchmark resumes where it stopped.
            let stolen = rt.crash_svc() + rt.restart_svc();
            let category = TraceCategory::ContextSwitch;
            self.trace
                .emit(now, 0, category, stolen, "component-restart");
            self.report.interruptions += 1;
            self.report.stolen += stolen;
            return Some(stolen);
        }
        // The benchmark VM takes an unrecoverable stage-2 abort
        // mid-phase: Hafnium reports `Aborted` to the primary and the
        // VCPU never runs again.
        if let Some(spm) = self.spm.as_deref_mut() {
            use kh_hafnium::vm::{VcpuRunExit, VcpuState};
            spm.finish_run(0, VcpuRunExit::Aborted);
            let state = spm.vm(self.vm).and_then(|vm| vm.vcpu(0)).map(|v| v.state);
            debug_assert!(matches!(state, Some(VcpuState::Aborted)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackOptions;
    use kh_workloads::gups::{GupsConfig, GupsModel};
    use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
    use kh_workloads::stream::{StreamConfig, StreamModel};

    fn cfg(stack: StackKind, seed: u64) -> MachineConfig {
        MachineConfig::pine_a64(stack, seed)
    }

    fn selfish(duration_ms: u64) -> Box<SelfishDetour> {
        Box::new(SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(duration_ms),
            ..Default::default()
        }))
    }

    fn small_gups() -> Box<GupsModel> {
        Box::new(GupsModel::new(GupsConfig {
            log2_table: 20,
            updates_per_entry: 2,
        }))
    }

    #[test]
    fn model_translation_reports_walk_cache_stats() {
        let mut c = cfg(StackKind::HafniumKitten, 5);
        c.options.model_translation = true;
        let mut m = Machine::new(c);
        let r = m.run(small_gups().as_mut());
        let wc = r.walk_cache.expect("replay must record stats");
        assert!(wc.lookups() > 0);
        assert!(wc.hit_rate() > 0.0, "warm phases must hit the walk cache");
        assert!(wc.walk_cost_factor() < 1.0);
    }

    #[test]
    fn model_translation_off_reports_none_and_is_unchanged() {
        let run = |model: bool| {
            let mut c = cfg(StackKind::HafniumKitten, 5);
            c.options.model_translation = model;
            let mut m = Machine::new(c);
            m.run(small_gups().as_mut())
        };
        let off = run(false);
        assert!(off.walk_cache.is_none());
        // The replay draws from its own RNG stream and only *discounts*
        // walk time: the modeled run is at least as fast, never noisier.
        let on = run(true);
        assert!(on.elapsed <= off.elapsed);
        assert_eq!(on.host_ticks, off.host_ticks);
    }

    #[test]
    fn model_translation_speeds_up_gups_under_virtualization() {
        let run = |model: bool| {
            let mut c = cfg(StackKind::HafniumKitten, 11);
            c.options.model_translation = model;
            let mut m = Machine::new(c);
            m.run(small_gups().as_mut()).elapsed
        };
        let analytic = run(false);
        let cached = run(true);
        assert!(
            cached < analytic,
            "walk cache must shorten two-stage gups: {cached:?} vs {analytic:?}"
        );
    }

    #[test]
    fn native_stack_ignores_model_translation() {
        let mut c = cfg(StackKind::NativeKitten, 3);
        c.options.model_translation = true;
        let mut m = Machine::new(c);
        let r = m.run(small_gups().as_mut());
        assert!(r.walk_cache.is_none(), "no stage 2 to cache natively");
    }

    #[test]
    fn native_kitten_has_few_detours() {
        let mut m = Machine::new(cfg(StackKind::NativeKitten, 1));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // 10 Hz tick over 1 s: ~10 detours, nothing else.
        assert!(
            (5..=15).contains(&detours.len()),
            "native detours = {}",
            detours.len()
        );
        assert_eq!(r.background_events, 0);
        assert_eq!(r.vcpu_runs, 0, "no hypervisor in native mode");
    }

    #[test]
    fn kitten_primary_adds_little_noise() {
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 2));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // Host 10 Hz + guest 10 Hz: ~20 events, still tiny.
        assert!(
            (10..=30).contains(&detours.len()),
            "kitten detours = {}",
            detours.len()
        );
        assert!(r.vcpu_runs > 0, "the SPM dispatch path must be exercised");
        assert_eq!(r.background_events, 0, "kitten has no kthreads");
    }

    #[test]
    fn linux_primary_is_noisy_and_scattered() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 3));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let linux_detours = r.output.detours().unwrap().len();
        let mut m2 = Machine::new(cfg(StackKind::HafniumKitten, 3));
        let mut w2 = selfish(1000);
        let kitten_detours = m2.run(w2.as_mut()).output.detours().unwrap().len();
        assert!(
            linux_detours > kitten_detours * 5,
            "linux {linux_detours} vs kitten {kitten_detours}"
        );
        assert!(r.background_events > 10, "kthread noise must appear");
    }

    #[test]
    fn detour_magnitudes_increase_under_virtualization() {
        // Figure 5's observation: same count, slightly larger latency.
        let max_detour = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = selfish(1000);
            let r = m.run(w.as_mut());
            r.output
                .detours()
                .unwrap()
                .iter()
                .map(|d| d.duration)
                .max()
                .unwrap_or(Nanos::ZERO)
        };
        let native = max_detour(StackKind::NativeKitten, 5);
        let kitten = max_detour(StackKind::HafniumKitten, 5);
        assert!(
            kitten > native,
            "virtualized detours ({kitten}) must exceed native ({native})"
        );
    }

    #[test]
    fn gups_ordering_matches_figure_7() {
        let gups = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = gups(StackKind::NativeKitten, 7);
        let kitten = gups(StackKind::HafniumKitten, 7);
        let linux = gups(StackKind::HafniumLinux, 7);
        assert!(
            native > kitten && kitten > linux,
            "native {native} > kitten {kitten} > linux {linux}"
        );
        let kitten_loss = 1.0 - kitten / native;
        let linux_loss = 1.0 - linux / native;
        // Paper band: Kitten −4.6%, Linux −7%.
        assert!(
            (0.01..0.15).contains(&kitten_loss),
            "kitten loss {kitten_loss}"
        );
        assert!(linux_loss > kitten_loss, "{linux_loss} vs {kitten_loss}");
    }

    #[test]
    fn stream_is_insensitive_to_the_stack() {
        let stream = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(StreamModel::new(StreamConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = stream(StackKind::NativeKitten, 11);
        let kitten = stream(StackKind::HafniumKitten, 11);
        let linux = stream(StackKind::HafniumLinux, 11);
        for (label, v) in [("kitten", kitten), ("linux", linux)] {
            let delta = (1.0 - v / native).abs();
            assert!(delta < 0.02, "{label} stream delta {delta}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = Machine::new(cfg(StackKind::HafniumLinux, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig {
                log2_table: 18,
                updates_per_entry: 2,
            }));
            let r = m.run(w.as_mut());
            (r.elapsed, r.interruptions, r.stolen)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn isolation_holds_through_the_run() {
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 1));
        let mut w = selfish(100);
        m.run(w.as_mut());
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn stolen_time_is_accounted() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 9));
        let mut w = selfish(500);
        let r = m.run(w.as_mut());
        assert!(r.stolen > Nanos::ZERO);
        assert!(r.elapsed > Nanos::from_millis(500));
        assert_eq!(
            r.interruptions,
            r.host_ticks + r.guest_ticks + r.background_events
        );
    }

    #[test]
    fn trace_records_machine_events() {
        use kh_sim::TraceCategory;
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 8));
        m.enable_tracing(100_000);
        let mut w = selfish(500);
        let r = m.run(w.as_mut());
        let trace = m.trace();
        assert_eq!(
            trace.count(TraceCategory::TimerTick) as u64,
            r.host_ticks + r.guest_ticks
        );
        assert_eq!(
            trace.count(TraceCategory::BackgroundTask) as u64,
            r.background_events
        );
        // Trace time accounting matches the report.
        let ticks = trace.time_in(TraceCategory::TimerTick, 0);
        let bg = trace.time_in(TraceCategory::BackgroundTask, 0);
        assert_eq!(ticks + bg, r.stolen);
        // Events carry labels.
        assert!(trace.iter().any(|e| e.detail == "host-tick"));
        assert!(trace.iter().any(|e| e.detail == "kworker"));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 8));
        let mut w = selfish(100);
        m.run(w.as_mut());
        assert!(m.trace().is_empty());
    }

    #[test]
    fn injected_fault_aborts_the_vm_cleanly() {
        use kh_hafnium::hypercall::{HfCall, HfError};
        use kh_hafnium::vm::{VcpuState, VmId};
        let mut c = cfg(StackKind::HafniumKitten, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        assert!(r.aborted);
        assert!(
            r.elapsed < Nanos::from_millis(150),
            "run must stop at the fault: {}",
            r.elapsed
        );
        // The VCPU is dead and cannot be re-run; the primary and
        // isolation survive.
        let spm = m.spm.as_mut().unwrap();
        assert!(matches!(
            spm.vm(VmId(2)).unwrap().vcpu(0).unwrap().state,
            VcpuState::Aborted
        ));
        assert_eq!(
            spm.hypercall(
                VmId::PRIMARY,
                0,
                0,
                HfCall::VcpuRun {
                    vm: VmId(2),
                    vcpu: 0
                },
                r.elapsed
            ),
            Err(HfError::NotRunnable)
        );
        assert_eq!(spm.current(0), Some((VmId::PRIMARY, 0)));
        assert!(spm.audit_isolation().is_ok());
    }

    #[test]
    fn fault_injection_is_inert_for_native_runs() {
        let mut c = cfg(StackKind::NativeKitten, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(300);
        let r = m.run(w.as_mut());
        assert!(!r.aborted, "no hypervisor, no stage-2 fault to take");
        assert!(r.elapsed >= Nanos::from_millis(300));
    }

    #[test]
    fn fault_plan_degrades_only_the_victim() {
        use kh_sim::{FaultPlan, FaultSpec};
        let clean = {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 21));
            let mut w = selfish(300);
            m.run(w.as_mut())
        };
        let faulted = {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 21));
            let spec = FaultSpec::parse(
                "crash@50ms,hang@120ms:30ms,drop-mailbox:0.3,corrupt-mailbox:0.2,\
                 lose-doorbell:0.3,lose-irq:0.3,spurious-doorbell:5,spurious-irq:5,\
                 delay-timer:5:1ms,corrupt-ring:0.2",
            )
            .unwrap();
            m.inject_faults(FaultPlan::new(&spec, 7, Nanos::from_millis(300)));
            let mut w = selfish(300);
            m.run(w.as_mut())
        };
        // The acceptance criterion: the benchmark's noise profile is
        // bit-identical with and without the storm next door.
        assert_eq!(clean.output.detours(), faulted.output.detours());
        assert_eq!(clean.elapsed, faulted.elapsed);
        assert_eq!(clean.stolen, faulted.stolen);
        assert_eq!(clean.interruptions, faulted.interruptions);
        // ... while the victim visibly degrades.
        let v = faulted.victim.expect("victim report under a plan");
        assert!(v.heartbeats > 100, "heartbeats = {}", v.heartbeats);
        assert_eq!(v.crashes, 1);
        assert_eq!(v.hangs, 1);
        assert!(v.missed > 0, "a 30ms hang must miss beats");
        assert!(v.dropped + v.corrupt > 0);
        assert!(
            v.frames_echoed > 0,
            "the echo service must still make progress"
        );
        assert!(
            v.rekicks > 0,
            "lost doorbells must be recovered by the watchdog"
        );
        assert_eq!(faulted.vm_restarts, 1);
        assert!(faulted.fault_stats.total() > 0);
        // And a clean run carries no victim at all.
        assert!(clean.victim.is_none());
        assert_eq!(clean.fault_stats.total(), 0);
        assert_eq!(clean.vm_restarts, 0);
    }

    #[test]
    fn faulted_run_is_deterministic_per_fault_seed() {
        use kh_sim::{FaultPlan, FaultSpec};
        let run = |fault_seed| {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 13));
            let spec = FaultSpec::parse("drop-mailbox:0.5,lose-doorbell:0.5,lose-irq:0.5").unwrap();
            m.inject_faults(FaultPlan::new(&spec, fault_seed, Nanos::from_millis(200)));
            let mut w = selfish(200);
            let r = m.run(w.as_mut());
            (r.victim.unwrap(), r.fault_stats)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different streams, different losses");
    }

    #[test]
    fn crashed_victim_leaves_isolation_auditable() {
        use kh_sim::{FaultPlan, FaultSpec};
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 17));
        let spec = FaultSpec::parse("crash@20ms,crash@60ms").unwrap();
        m.inject_faults(FaultPlan::new(&spec, 1, Nanos::from_millis(100)));
        let mut w = selfish(100);
        let r = m.run(w.as_mut());
        assert_eq!(r.victim.unwrap().crashes, 2);
        assert_eq!(r.vm_restarts, 2);
        // run() already audits, but make the property explicit here.
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn theseus_is_as_quiet_as_native() {
        let mut m = Machine::new(cfg(StackKind::NativeTheseus, 1));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // Same 10 Hz tick as the native LWK, nothing else — and the 1us
        // handler is so cheap it ducks under the detour threshold.
        assert!(
            (5..=15).contains(&r.host_ticks),
            "theseus host ticks = {}",
            r.host_ticks
        );
        assert!(detours.len() <= 15, "theseus detours = {}", detours.len());
        assert_eq!(r.background_events, 0, "no daemons in the safe stack");
        assert_eq!(r.vcpu_runs, 0, "no hypervisor underneath");
        assert!(m.theseus().unwrap().svc_alive());
    }

    #[test]
    fn theseus_pays_only_the_safety_tax_on_gups() {
        let gups = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = gups(StackKind::NativeKitten, 7);
        let theseus = gups(StackKind::NativeTheseus, 7);
        let kitten = gups(StackKind::HafniumKitten, 7);
        // Bounds checks cost less than stage-2 walks: the safe stack
        // sits strictly between bare metal and the virtualized LWK.
        assert!(
            native > theseus && theseus > kitten,
            "native {native} > theseus {theseus} > kitten {kitten}"
        );
        let tax = 1.0 - theseus / native;
        assert!((0.005..0.03).contains(&tax), "safety tax {tax}");
    }

    #[test]
    fn theseus_fault_restarts_the_component_and_finishes() {
        let mut c = cfg(StackKind::NativeTheseus, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(300);
        let r = m.run(w.as_mut());
        // No SPM abort: the crashed cell is unwound and relinked in
        // place and the run carries on to completion.
        assert!(!r.aborted, "component restart must not kill the run");
        assert!(r.elapsed >= Nanos::from_millis(300));
        assert_eq!(r.vm_restarts, 1, "one component restart recorded");
        let rt = m.theseus().unwrap();
        assert!(rt.svc_alive());
        assert_eq!(rt.total_restarts, 1);
        assert!(rt.audit().is_ok());
    }

    #[test]
    fn theseus_restart_undercuts_spm_reboot() {
        use kh_theseus::runtime::{FAULT_DETECT, RELINK_COST, UNWIND_COST};
        let stolen = |stack| {
            let mut c = cfg(stack, 6);
            c.options.inject_fault_at_ns = Some(Nanos::from_millis(50).as_nanos());
            let mut m = Machine::new(c);
            let mut w = selfish(300);
            let r = m.run(w.as_mut());
            (r.aborted, r.stolen)
        };
        let (theseus_aborted, _) = stolen(StackKind::NativeTheseus);
        let (kitten_aborted, _) = stolen(StackKind::HafniumKitten);
        assert!(!theseus_aborted && kitten_aborted);
        // The cooperative unwind + relink is bounded well under the
        // SPM's image re-verification reboot path (>= 300us).
        let restart = FAULT_DETECT + UNWIND_COST + RELINK_COST;
        assert!(restart < Nanos::from_micros(300), "restart = {restart}");
    }

    #[test]
    fn guest_tick_rate_is_configurable() {
        let mut c = cfg(StackKind::HafniumKitten, 4);
        c.options = StackOptions {
            guest_tick_hz: 100,
            ..Default::default()
        };
        let mut m = Machine::new(c);
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        assert!(
            (80..=130).contains(&r.guest_ticks),
            "guest ticks = {}",
            r.guest_ticks
        );
    }
}

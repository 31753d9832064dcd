//! The noise-interleaving kernel every executor shares.
//!
//! The paper's claim — Kitten removes scheduler noise while the SPM
//! charges a fixed trap tax — is computed by one loop: price a phase,
//! then interleave host ticks, guest ticks and background bursts into
//! it, each stealing its handler and world-switch time and leaving
//! cache/TLB damage the phase must re-warm. [`crate::Machine`],
//! [`crate::ParallelMachine`] and the cluster's `Node` all run that loop
//! here:
//!
//! * [`NoiseModel`] is one machine's noise: its host kernel's timing
//!   profile, the guest kernel's tick (virtualized stacks), and what each
//!   event steals under the stack.
//! * [`NoiseCursor`] is one core's place in that model: when its next
//!   host tick, guest tick, co-tenant slice and background burst fall
//!   due. [`NoiseCursor::fire`] consumes the earliest.
//! * [`run_phase`] turns a priced phase into its end time, interleaving
//!   cursor events and re-warm, and tallies stolen time per [`Source`].
//!
//! What only one caller does — driving the SPM on a tick, trace records,
//! an injected fault, a colocated neighbour's quanta — plugs in through
//! [`Hooks`]. Where the callers still disagree, the difference is a named
//! field of [`Quirks`] or a hook argument, listed in DESIGN §10.

use crate::config::{CoTenantSlices, MachineConfig, StackKind};
use kh_arch::cpu::{CoreTimer, Phase, PollutionState, TranslationRegime};
use kh_arch::el::ExceptionLevel;
use kh_arch::noise::{NoiseEvent, OsTimingModel};
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::spm::Spm;
use kh_hafnium::vm::VmId;
use kh_kitten::profile::KittenProfile;
use kh_kitten::secondary::SecondaryPort;
use kh_linux::profile::LinuxProfile;
use kh_sim::{Nanos, SimRng, TraceCategory};
use kh_theseus::{TheseusProfile, SAFETY_TAX};

/// Extra TLB/cache damage of a full VM switch (beyond the tick handler's
/// own footprint): VMID tagging avoids full flushes, but the primary's
/// working set still displaces guest entries.
const VM_SWITCH_POLLUTION: PollutionState = PollutionState {
    tlb_evicted: 12,
    cache_lines_evicted: 96,
};
/// Cache/TLB damage a co-tenant VM's slice does: a whole competing
/// working set ran, so most of the benchmark's cached state is gone.
const CO_TENANT_POLLUTION: PollutionState = PollutionState {
    tlb_evicted: 400,
    cache_lines_evicted: 6000,
};

/// Where the executors' noise loops still differ. Each field keeps one
/// caller's behaviour byte for byte until the model decides it.
#[derive(Debug, Clone, Copy)]
pub struct Quirks {
    /// A virtualized host tick also leaves the VM switch's own TLB/cache
    /// damage (12 TLB entries, 96 lines).
    pub vm_switch_pollution: bool,
    /// The next background burst is drawn from the fired burst's own
    /// time rather than from the core's clock, so the schedule is a pure
    /// function of the seed however late the cursor is replayed.
    pub burst_from_event: bool,
    /// The first guest tick's offset is drawn before the host tick's.
    pub guest_offset_first: bool,
}

impl Quirks {
    pub const MACHINE: Quirks = Quirks {
        vm_switch_pollution: true,
        burst_from_event: false,
        guest_offset_first: false,
    };
    pub const PARALLEL: Quirks = Quirks {
        guest_offset_first: true,
        ..Quirks::MACHINE
    };
    pub const NODE: Quirks = Quirks {
        vm_switch_pollution: false,
        burst_from_event: true,
        guest_offset_first: false,
    };
}

/// What interrupted the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    HostTick,
    GuestTick,
    CoTenant,
    Background,
}

impl Source {
    /// The trace category an event of this source records under.
    #[inline]
    pub fn category(self) -> TraceCategory {
        match self {
            Source::HostTick | Source::GuestTick => TraceCategory::TimerTick,
            Source::CoTenant => TraceCategory::ContextSwitch,
            Source::Background => TraceCategory::BackgroundTask,
        }
    }
}

/// One fired noise event.
#[derive(Debug, Clone, Copy)]
pub struct Fired {
    pub source: Source,
    /// When the event fell due.
    pub at: Nanos,
    /// CPU time it took from the benchmark.
    pub stolen: Nanos,
    /// Cache/TLB damage the benchmark re-warms afterwards.
    pub pollution: PollutionState,
    pub label: &'static str,
}

/// Events and stolen time per [`Source`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub events: [u64; 4],
    pub stolen: [Nanos; 4],
}

impl Tally {
    #[inline]
    pub fn events(&self, s: Source) -> u64 {
        self.events[s as usize]
    }

    #[inline]
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    #[inline]
    pub fn total_stolen(&self) -> Nanos {
        self.stolen.iter().fold(Nanos::ZERO, |a, &b| a + b)
    }
}

/// One machine's noise: the host and guest kernels' timing profiles and
/// the price of each event source under the stack.
pub struct NoiseModel {
    host: Box<dyn OsTimingModel>,
    guest: Option<KittenProfile>,
    regime: TranslationRegime,
    quirks: Quirks,
    jitter_sigma: f64,
    /// Work-time multiplier: the safe-language tax under Theseus, exactly
    /// 1.0 for every other stack.
    tax: f64,
    host_tick: (Nanos, PollutionState),
    guest_tick: Nanos,
    /// World switches around a background burst: the secondary exits,
    /// the primary context-switches to its kthread and back, and the
    /// secondary resumes.
    burst_overhead: Nanos,
    /// The same around a co-tenant slice (native: two context switches).
    slice_overhead: Nanos,
}

impl NoiseModel {
    /// The stack's host kernel on `cores` cores (Linux draws its kthread
    /// seed from `rng`) and, when virtualized, the guest Kitten.
    pub fn new(cfg: &MachineConfig, cores: u16, rng: &mut SimRng, quirks: Quirks) -> Self {
        let host: Box<dyn OsTimingModel> = match (cfg.stack, cfg.options.host_tick_hz) {
            (StackKind::HafniumLinux, Some(hz)) => {
                Box::new(LinuxProfile::with_hz(rng.next_u64(), cores, hz))
            }
            (StackKind::HafniumLinux, None) => Box::new(LinuxProfile::new(rng.next_u64(), cores)),
            (StackKind::NativeTheseus, hz) => {
                Box::new(hz.map_or_else(TheseusProfile::default, TheseusProfile::with_tick_hz))
            }
            (_, hz) => {
                Box::new(hz.map_or_else(KittenProfile::default, KittenProfile::with_tick_hz))
            }
        };
        let p = &cfg.platform;
        let virtualized = cfg.stack.is_virtualized();
        let theseus = cfg.stack == StackKind::NativeTheseus;
        let el1_el2 =
            p.transitions
                .round_trip(ExceptionLevel::El1, ExceptionLevel::El2, p.core_freq);
        let vm_switch = p
            .core_freq
            .cycles_to_nanos(p.transitions.vm_context_switch_cycles);
        let ctx = host.ctx_switch_cost().scaled(2);
        let burst = el1_el2.scaled(2) + vm_switch.scaled(2) + ctx;
        // Virtualized: the secondary exits to EL2, Hafnium switches to the
        // primary's VCPU, its tick handler runs, and it re-runs the
        // secondary. Theseus: a same-level vector dispatch around the
        // handler. Native Kitten: an EL0<->EL1 trap round trip.
        let host_tick_steal = if virtualized {
            el1_el2.scaled(2) + vm_switch.scaled(2) + host.tick_cost()
        } else if theseus {
            host.tick_cost()
        } else {
            p.transitions
                .round_trip(ExceptionLevel::El0, ExceptionLevel::El1, p.core_freq)
                + host.tick_cost()
        };
        let mut host_pollution = host.tick_pollution();
        if virtualized && quirks.vm_switch_pollution {
            host_pollution.add(VM_SWITCH_POLLUTION);
        }
        let guest = virtualized.then(|| KittenProfile::with_tick_hz(cfg.options.guest_tick_hz));
        // The virtual timer fires, Hafnium injects it through the
        // para-virtual interface, and the guest handler's `interrupt_get`
        // adds another EL1->EL2 round trip.
        let guest_tick = guest.as_ref().map_or(Nanos::ZERO, |g| {
            el1_el2.scaled(2) + g.tick_cost + p.core_freq.cycles_to_nanos(p.gic.ack_eoi_cycles())
        });
        NoiseModel {
            regime: if virtualized {
                TranslationRegime::TwoStage
            } else {
                TranslationRegime::Stage1Only
            },
            quirks,
            jitter_sigma: cfg.options.jitter_sigma,
            tax: 1.0 + if theseus { SAFETY_TAX } else { 0.0 },
            host_tick: (host_tick_steal, host_pollution),
            guest_tick,
            burst_overhead: burst,
            slice_overhead: if virtualized { burst } else { ctx },
            host,
            guest,
        }
    }

    /// The host kernel's timing profile.
    pub fn host(&self) -> &dyn OsTimingModel {
        self.host.as_ref()
    }

    /// The guest Kitten's tick period (virtualized stacks only).
    #[inline]
    pub fn guest_period(&self) -> Option<Nanos> {
        self.guest.as_ref().map(|g| g.tick_period)
    }

    /// The translation regime benchmark work runs under.
    #[inline]
    pub fn regime(&self) -> TranslationRegime {
        self.regime
    }

    /// A phase's priced `time` with its DRAM/thermal jitter (one Gaussian
    /// draw from `rng`) and the stack's work tax applied.
    #[inline]
    pub fn work(&self, time: Nanos, rng: &mut SimRng) -> Nanos {
        let jitter = 1.0 + rng.next_gaussian() * self.jitter_sigma;
        Nanos((time.as_nanos() as f64 * jitter.max(0.5) * self.tax) as u64)
    }

    /// Extra time `phase` needs after an interruption left `pollution`.
    fn rewarm(&self, timer: &CoreTimer, phase: &Phase, pollution: PollutionState) -> Nanos {
        let mut p = pollution;
        let empty = Phase {
            instructions: 0,
            mem_refs: 0,
            flops: 0,
            footprint: phase.footprint,
            dram_bytes: 0,
            pattern: phase.pattern,
        };
        timer.price(&empty, self.regime, &mut p, 1).time
    }
}

/// One core's next event of each source.
pub struct NoiseCursor {
    core: u16,
    host_tick_at: Nanos,
    guest_tick_at: Nanos,
    co_tenant_at: Nanos,
    co_tenant: Option<CoTenantSlices>,
    background: Option<NoiseEvent>,
}

impl NoiseCursor {
    /// Start `core`'s schedule: tick offsets drawn from `rng` so repeated
    /// trials sample the tick/benchmark alignment, and the first burst.
    pub fn start(noise: &mut NoiseModel, core: u16, rng: &mut SimRng) -> Self {
        let mut offset = |period: Nanos| Nanos(1 + rng.next_below(period.as_nanos().max(1)));
        let (host, guest) = (noise.host.tick_period(), noise.guest_period());
        let (host_tick_at, guest_tick_at) = if noise.quirks.guest_offset_first {
            let guest_at = guest.map_or(Nanos::MAX, &mut offset);
            (offset(host), guest_at)
        } else {
            (offset(host), guest.map_or(Nanos::MAX, &mut offset))
        };
        NoiseCursor {
            core,
            host_tick_at,
            guest_tick_at,
            co_tenant_at: Nanos::MAX,
            co_tenant: None,
            background: noise.host.next_background(core, Nanos::ZERO),
        }
    }

    /// Share the core with a co-tenant VM, first switching to it after
    /// one of the benchmark's own slices.
    pub(crate) fn with_co_tenant(mut self, slices: Option<CoTenantSlices>) -> Self {
        self.co_tenant = slices;
        self.co_tenant_at = slices.map_or(Nanos::MAX, |c| Nanos(c.own_slice_ns.max(1)));
        self
    }

    /// When the earliest pending event falls due.
    #[inline]
    pub fn next_at(&self) -> Nanos {
        let bg = self.background.as_ref().map_or(Nanos::MAX, |e| e.at);
        self.host_tick_at
            .min(self.guest_tick_at)
            .min(self.co_tenant_at)
            .min(bg)
    }

    /// Consume the earliest pending event with the core's clock at `now`
    /// and schedule that source's next. Ties fire host tick, guest tick,
    /// co-tenant slice, background burst, in that order.
    pub fn fire(&mut self, noise: &mut NoiseModel, now: Nanos) -> Fired {
        let at = self.next_at();
        let (source, stolen, pollution, label) = if at == self.host_tick_at {
            self.host_tick_at += noise.host.tick_period();
            let (stolen, pollution) = noise.host_tick;
            (Source::HostTick, stolen, pollution, "host-tick")
        } else if at == self.guest_tick_at {
            let guest = noise.guest.as_ref().expect("guest tick implies guest");
            self.guest_tick_at += guest.tick_period;
            let p = guest.tick_pollution;
            (Source::GuestTick, noise.guest_tick, p, "guest-tick")
        } else if at == self.co_tenant_at {
            // The co-tenant VM runs its slice: a full switch out and back
            // plus the slice itself.
            let c = self.co_tenant.expect("co-tenant slice implies config");
            let stolen = noise.slice_overhead + Nanos(c.other_slice_ns);
            self.co_tenant_at = now + stolen + Nanos(c.own_slice_ns.max(1));
            (Source::CoTenant, stolen, CO_TENANT_POLLUTION, "co-tenant")
        } else {
            let ev = self.background.take().expect("background burst");
            let from = if noise.quirks.burst_from_event {
                ev.at
            } else {
                now
            };
            self.background = noise.host.next_background(self.core, from);
            let stolen = noise.burst_overhead + ev.duration;
            (Source::Background, stolen, ev.pollution, ev.label)
        };
        Fired {
            source,
            at,
            stolen,
            pollution,
            label,
        }
    }

    /// Fire every event due at or before `t`, each at its own time.
    pub fn fire_due(&mut self, noise: &mut NoiseModel, t: Nanos, hooks: &mut impl Hooks) {
        while self.next_at() <= t {
            let fired = self.fire(noise, self.next_at());
            hooks.noise(&fired, fired.at);
        }
    }

    /// Move the tick and burst schedules past `to` without firing: the
    /// core idled (at a barrier), so what fell due in between cost the
    /// benchmark nothing.
    pub(crate) fn skip_to(&mut self, noise: &mut NoiseModel, to: Nanos) {
        let host_period = noise.host.tick_period();
        while self.host_tick_at <= to {
            self.host_tick_at += host_period;
        }
        if let Some(p) = noise.guest_period() {
            while self.guest_tick_at <= to {
                self.guest_tick_at += p;
            }
        }
        while self.background.as_ref().is_some_and(|e| e.at <= to) {
            self.background = noise.host.next_background(self.core, to);
        }
    }
}

/// What a caller adds to the kernel's loop. Every method defaults to
/// "nothing", and a closure `FnMut(&Fired, Nanos)` is a `Hooks` whose
/// only addition is [`Hooks::noise`].
pub trait Hooks {
    /// Whether the caller's own event fires before a noise event due at
    /// the same instant.
    const OWN_FIRST: bool = false;

    /// A noise event fired; the core's clock reads `now` (≥ `fired.at`).
    fn noise(&mut self, _fired: &Fired, _now: Nanos) {}

    /// The phase is about to run up to `horizon`.
    fn horizon(&mut self, _horizon: Nanos) {}

    /// If something else owns the core at `now`, when it hands back and
    /// the pollution it leaves.
    fn occupied(&mut self, _now: Nanos) -> Option<(Nanos, PollutionState)> {
        None
    }

    /// When the caller's own next event falls due (`Nanos::MAX`: never).
    fn next_own(&mut self, _now: Nanos) -> Nanos {
        Nanos::MAX
    }

    /// The caller's own event fires at `now`: the time it takes, or `None`
    /// to stop the run there.
    fn own(&mut self, _now: Nanos) -> Option<Nanos> {
        Some(Nanos::ZERO)
    }
}

impl<F: FnMut(&Fired, Nanos)> Hooks for F {
    fn noise(&mut self, fired: &Fired, now: Nanos) {
        self(fired, now)
    }
}

/// Where a phase's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseRun {
    /// When the phase completed, or when a hook stopped it.
    pub end: Nanos,
    pub stopped: bool,
    /// Cache/TLB re-warm after every interruption.
    pub rewarm: Nanos,
    /// Time something else owned the core ([`Hooks::occupied`]).
    pub waited: Nanos,
    /// Time the caller's own events took ([`Hooks::own`]).
    pub own: Nanos,
    pub noise: Tally,
}

/// Run `work` of `phase` from `start` on the core `cursor` tracks,
/// interleaving every noise event that falls due, and `hooks`' own, until
/// the work is done. Each noise event steals its time and adds the
/// re-warm of its pollution to the work left. An event that fell due
/// while an earlier one was being serviced fires at once.
// Always inlined: most phases fire nothing, and a call per phase cost
// the selfish-detour run (millions of 2 000-instruction phases) about a
// tenth of its host time.
#[inline(always)]
pub fn run_phase<H: Hooks>(
    noise: &mut NoiseModel,
    cursor: &mut NoiseCursor,
    timer: &CoreTimer,
    phase: &Phase,
    (start, work): (Nanos, Nanos),
    hooks: &mut H,
) -> PhaseRun {
    let mut run = PhaseRun {
        end: start,
        ..PhaseRun::default()
    };
    let mut remaining = work;
    let mut fired_count = 0u64;
    loop {
        if let Some((until, pollution)) = hooks.occupied(run.end) {
            run.waited += until - run.end;
            run.end = until;
            let extra = noise.rewarm(timer, phase, pollution);
            run.rewarm += extra;
            remaining += extra;
            continue;
        }
        let next_noise = cursor.next_at();
        let own_at = hooks.next_own(run.end);
        let next = next_noise.min(own_at);
        let finish = run.end.checked_add(remaining);
        hooks.horizon(finish.unwrap_or(Nanos::MAX).min(next));
        if finish.is_none_or(|f| f <= next) {
            run.end += remaining;
            break;
        }
        remaining = remaining.saturating_sub(next.saturating_sub(run.end));
        run.end = run.end.max(next);
        if own_at < next_noise || (H::OWN_FIRST && own_at == next_noise) {
            let Some(took) = hooks.own(run.end) else {
                run.stopped = true;
                return run;
            };
            run.end += took;
            run.own += took;
            continue;
        }
        let fired = cursor.fire(noise, run.end);
        hooks.noise(&fired, run.end);
        fired_count += 1;
        run.noise.events[fired.source as usize] += 1;
        run.noise.stolen[fired.source as usize] += fired.stolen;
        run.end += fired.stolen;
        let extra = noise.rewarm(timer, phase, fired.pollution);
        run.rewarm += extra;
        remaining += extra;
    }
    debug_assert_eq!(
        run.end - start,
        work + run.rewarm + run.waited + run.own + run.noise.total_stolen(),
        "a phase's time is its work, re-warm, waits and stolen time"
    );
    debug_assert_eq!(run.noise.total_events(), fired_count);
    run
}

/// Drive the SPM through a tick that fired on `core` at `t`. A host tick
/// preempts the running secondary and, when `redispatch`, the primary
/// runs `vcpu` again. A guest tick, when the executor has a para-virtual
/// `guest` port, injects the virtual timer, drains it and re-arms it for
/// the tick period. Returns whether a `vcpu_run` was issued.
pub fn spm_tick(
    spm: &mut Spm,
    guest: Option<(&SecondaryPort, Nanos)>,
    (core, vm, vcpu): (u16, VmId, u16),
    source: Source,
    t: Nanos,
    redispatch: bool,
) -> bool {
    match (source, guest) {
        (Source::HostTick, _) => {
            spm.preempt(core);
            if redispatch {
                spm.hypercall(VmId::PRIMARY, core, core, HfCall::VcpuRun { vm, vcpu }, t)
                    .expect("re-dispatch after tick");
            }
            redispatch
        }
        (Source::GuestTick, Some((port, period))) => {
            let intid = port.vtimer_intid;
            let inject = HfCall::InterruptInject { vm, vcpu, intid };
            let _ = spm.hypercall(VmId::PRIMARY, core, core, inject, t);
            let _ = port.next_interrupt(spm, vcpu, core, t);
            let arm = HfCall::ArmVtimer {
                delay_ns: period.as_nanos(),
            };
            let _ = spm.hypercall(vm, vcpu, core, arm, t);
            false
        }
        _ => false,
    }
}

/// The primary dispatches VCPU 0 of `port`'s VM on `core` at `t`, and
/// the guest arms its virtual timer for `period`.
pub fn spm_dispatch(spm: &mut Spm, port: &SecondaryPort, core: u16, period: Nanos, t: Nanos) {
    let run = HfCall::VcpuRun {
        vm: port.vm,
        vcpu: 0,
    };
    spm.hypercall(VmId::PRIMARY, core, core, run, t)
        .expect("dispatch the secondary");
    port.init_timer(spm, 0, core, period, t)
        .expect("vtimer init");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_workloads::gups::{GupsConfig, GupsModel};
    use kh_workloads::Workload;

    /// The accounting identity on a Linux host's full noise mix: every
    /// nanosecond of a phase is work, re-warm or stolen, and the
    /// per-source tally counts every event the hooks saw.
    #[test]
    fn phase_time_is_work_plus_rewarm_plus_stolen() {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumLinux, 7);
        let mut rng = SimRng::new(7);
        let mut noise = NoiseModel::new(&cfg, 4, &mut rng, Quirks::MACHINE);
        let mut cursor = NoiseCursor::start(&mut noise, 0, &mut rng);
        let timer = CoreTimer::new(cfg.platform);
        let mut w = GupsModel::new(GupsConfig::default());
        let (mut now, mut events, mut seen) = (Nanos::ZERO, [0u64; 4], 0u64);
        while let Some(phase) = w.next_phase(now) {
            let mut clean = PollutionState::default();
            let cost = timer.price(&phase, noise.regime(), &mut clean, 1);
            let work = noise.work(cost.time, &mut rng);
            let mut count = |_: &Fired, _: Nanos| seen += 1;
            let run = run_phase(
                &mut noise,
                &mut cursor,
                &timer,
                &phase,
                (now, work),
                &mut count,
            );
            assert_eq!(run.end - now, work + run.rewarm + run.noise.total_stolen());
            assert!(!run.stopped && run.waited == Nanos::ZERO && run.own == Nanos::ZERO);
            for (e, n) in events.iter_mut().zip(run.noise.events) {
                *e += n;
            }
            now = run.end;
            w.phase_complete(now, &cost);
        }
        assert_eq!(events.iter().sum::<u64>(), seen);
        for s in [Source::HostTick, Source::GuestTick, Source::Background] {
            assert!(events[s as usize] > 0, "{s:?} never fired");
        }
        assert_eq!(events[Source::CoTenant as usize], 0);
    }
}

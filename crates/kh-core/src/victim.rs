//! The fault-injection victim: a sacrificial secondary VM.
//!
//! The isolation-under-faults experiment needs two secondaries with
//! different jobs: the *benchmark* VM (VmId 2, core 0) whose noise
//! profile is the measurement, and this *victim* VM, which absorbs every
//! injected fault. The victim runs a heartbeat service loop on its own
//! core — the primary pings it over the mailbox and it echoes frames
//! through a virtio-net queue pair — and the [`kh_sim::FaultPlan`]
//! decides which heartbeats lose messages, doorbells, IRQs, or the whole
//! VM. Everything here is priced at zero on the benchmark's core: the
//! paper's claim is precisely that a misbehaving partition costs its
//! neighbours nothing, and the machine asserts it by comparing the
//! benchmark's histogram against a fault-free run bit for bit.
//!
//! Determinism: the victim draws no randomness of its own. All
//! variability comes from the plan's per-component streams, so the same
//! `--fault-seed` and spec replay the same victim history.

use kh_arch::platform::Platform;
use kh_hafnium::hypercall::{HfCall, HfReturn};
use kh_hafnium::spm::Spm;
use kh_hafnium::vm::{VcpuRunExit, VmId};
use kh_kitten::retry::{no_progress, send_with_retry, MailboxRetryPolicy};
use kh_sim::{FaultEvent, FaultKind, FaultPlan, Nanos, TraceCategory, TraceRecorder};
use kh_virtio::frontend::Frontend;
use kh_virtio::net::{EchoBackend, VirtioNet};

/// The victim's fixed VM id (primary 0, super-secondary 1, bench 2).
pub const VICTIM_VM: VmId = VmId(3);
/// The physical core the victim's service path runs on. The benchmark
/// owns core 0; every victim-side cost lands here instead.
pub const VICTIM_CORE: u16 = 1;
/// Heartbeat period of the victim service loop.
pub const BEAT_PERIOD: Nanos = Nanos(500_000);

const VICTIM_IRQ: u32 = 91;
const QUEUE_SIZE: u16 = 64;

/// How the victim fared under the plan — the "degradation" side of the
/// ablation table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimReport {
    /// Heartbeat rounds attempted.
    pub heartbeats: u64,
    /// Pings that reached the victim intact.
    pub delivered: u64,
    /// Pings dropped in flight by the plan.
    pub dropped: u64,
    /// Pings delivered corrupted.
    pub corrupt: u64,
    /// Beats skipped because the victim was hung.
    pub missed: u64,
    /// Crashes taken (each followed by an SPM restart).
    pub crashes: u64,
    /// Hangs endured.
    pub hangs: u64,
    pub hung_time: Nanos,
    /// Extra mailbox send attempts the primary spent on a busy victim.
    pub send_retries: u64,
    /// Sends abandoned after the retry budget.
    pub sends_abandoned: u64,
    /// Doorbells re-rung by the watchdog after a loss.
    pub rekicks: u64,
    /// Frames the victim echoed end to end.
    pub frames_echoed: u64,
    /// Corrupt ring entries the defensive virtqueue walk rejected.
    pub ring_rejections: u64,
    /// Accumulated tick lateness from delay-timer injections.
    pub timer_delay: Nanos,
}

/// The victim VM's device state plus its service-loop cursor.
pub struct VictimVm {
    pub vm: VmId,
    platform: Platform,
    net: VirtioNet,
    driver: Frontend,
    backend: EchoBackend,
    /// Next heartbeat time (delay-timer faults push it out).
    pub next_beat: Nanos,
    hung_until: Nanos,
    pub report: VictimReport,
}

impl VictimVm {
    pub fn new(platform: Platform) -> Self {
        VictimVm {
            vm: VICTIM_VM,
            platform,
            net: VirtioNet::new(&platform, VICTIM_IRQ, QUEUE_SIZE, 0),
            driver: kh_kitten::virtio::frontend(),
            backend: EchoBackend::default(),
            next_beat: BEAT_PERIOD,
            hung_until: Nanos::ZERO,
            report: VictimReport::default(),
        }
    }

    /// Apply one scheduled injection. (The probability gates are
    /// consumed by [`Self::beat`], not here.)
    pub fn apply(&mut self, ev: FaultEvent, spm: &mut Spm, trace: &mut TraceRecorder) {
        match ev.kind {
            FaultKind::SecondaryCrash => self.crash(ev.at, spm, trace),
            FaultKind::SecondaryHang { stall } => {
                self.report.hangs += 1;
                self.report.hung_time += stall;
                self.hung_until = self.hung_until.max(ev.at + stall);
                trace.emit(
                    ev.at,
                    VICTIM_CORE,
                    TraceCategory::VmLifecycle,
                    stall,
                    format!("victim hang {}ns", stall.as_nanos()),
                );
            }
            FaultKind::DoorbellSpurious => {
                // A phantom kick: the device polls. Usually it finds
                // nothing, but work stranded by an earlier lost doorbell
                // gets picked up for free.
                let rep = self.net.device_poll(&mut self.backend);
                self.report.frames_echoed += rep.tx_done;
                trace.emit(
                    ev.at,
                    VICTIM_CORE,
                    TraceCategory::Doorbell,
                    Nanos::ZERO,
                    "victim spurious doorbell",
                );
            }
            FaultKind::IrqSpurious => {
                // A phantom completion IRQ: the frontend drains whatever
                // happens to be there (usually nothing; completions
                // stranded by an earlier lost IRQ if not).
                let _ = self.driver.drain_net(&mut self.net);
                trace.emit(
                    ev.at,
                    VICTIM_CORE,
                    TraceCategory::IrqInject,
                    Nanos::ZERO,
                    "victim spurious irq",
                );
            }
            FaultKind::TimerDelay { extra } => {
                self.next_beat += extra;
                self.report.timer_delay += extra;
                trace.emit(
                    ev.at,
                    VICTIM_CORE,
                    TraceCategory::TimerTick,
                    Nanos::ZERO,
                    format!("victim tick delayed {}ns", extra.as_nanos()),
                );
            }
        }
    }

    /// Crash the victim through the real SPM path and restart it:
    /// dispatch on its own core, abort, detect, rebuild stage-2.
    fn crash(&mut self, at: Nanos, spm: &mut Spm, trace: &mut TraceRecorder) {
        self.report.crashes += 1;
        let dispatched = spm
            .hypercall(
                VmId::PRIMARY,
                VICTIM_CORE,
                VICTIM_CORE,
                HfCall::VcpuRun {
                    vm: self.vm,
                    vcpu: 0,
                },
                at,
            )
            .is_ok();
        if dispatched {
            spm.finish_run(VICTIM_CORE, VcpuRunExit::Aborted);
        }
        debug_assert!(spm.vm_is_crashed(self.vm));
        trace.emit(
            at,
            VICTIM_CORE,
            TraceCategory::VmLifecycle,
            Nanos::ZERO,
            "victim crash",
        );
        if spm.restart_vm(self.vm).is_ok() {
            // The crashed instance's device state dies with it; the
            // fresh instance brings up fresh queues.
            self.net = VirtioNet::new(&self.platform, VICTIM_IRQ, QUEUE_SIZE, 0);
            self.driver = kh_kitten::virtio::frontend();
            self.hung_until = Nanos::ZERO;
            trace.emit(
                at,
                VICTIM_CORE,
                TraceCategory::VmLifecycle,
                Nanos::ZERO,
                "victim restart",
            );
        }
    }

    /// One heartbeat round: primary pings the victim over the mailbox
    /// (with bounded retry), the victim echoes a frame through virtio,
    /// and the plan's gates decide what goes missing along the way.
    pub fn beat(&mut self, spm: &mut Spm, plan: &mut FaultPlan, trace: &mut TraceRecorder) {
        let at = self.next_beat;
        self.next_beat += BEAT_PERIOD;
        self.report.heartbeats += 1;

        if at < self.hung_until {
            // Hung: the victim services nothing. The primary's ping
            // lands in the slot once, then every further ping exhausts
            // its retry budget against Busy — the bounded-backoff path.
            self.report.missed += 1;
            self.ping(spm, at);
            trace.emit(
                at,
                VICTIM_CORE,
                TraceCategory::VmLifecycle,
                Nanos::ZERO,
                "victim hung: beat missed",
            );
            return;
        }

        // Recovered (or healthy): first re-ring any doorbell the
        // watchdog says went unanswered.
        if self.driver.should_rekick(at) {
            self.report.rekicks += 1;
            trace.emit(
                at,
                VICTIM_CORE,
                TraceCategory::Doorbell,
                Nanos::ZERO,
                "victim watchdog re-kick",
            );
            self.device_service(at, plan, trace);
        }

        // Mailbox leg: the victim drains the slot (the ping from the
        // previous round, or one queued while it was hung), then the
        // primary pings again for the next round. Draining first keeps
        // the single-slot channel live across hang recovery.
        if let Ok(HfReturn::Msg(_)) = spm.hypercall(self.vm, 0, VICTIM_CORE, HfCall::Recv, at) {
            if plan.drop_mailbox() {
                // Lost in flight: the victim never saw it.
                self.report.dropped += 1;
            } else if plan.corrupt_mailbox() {
                // Delivered scrambled: fails to decode.
                self.report.corrupt += 1;
            } else {
                self.report.delivered += 1;
            }
        }
        self.ping(spm, at);

        // Virtio leg: echo one frame.
        let _ = self.net.post_rx(256);
        match self.net.send_frame(&[0xAB; 64]) {
            Ok(kick_needed) => {
                if plan.corrupt_ring() {
                    // A buggy/adversarial guest publishes a descriptor
                    // pointing outside the table; the device-side walk
                    // must reject it and keep going.
                    self.net.tx.inject_corrupt_avail(QUEUE_SIZE + 7);
                    self.report.ring_rejections += 1;
                }
                if kick_needed {
                    self.driver.note_kick(at);
                    if plan.lose_doorbell() {
                        trace.emit(
                            at,
                            VICTIM_CORE,
                            TraceCategory::Doorbell,
                            Nanos::ZERO,
                            "victim doorbell lost",
                        );
                        // Device never polls; the watchdog recovers it
                        // on a later beat.
                    } else {
                        self.device_service(at, plan, trace);
                    }
                } else {
                    // Suppressed doorbell: the device is still polling
                    // from earlier work.
                    self.device_service(at, plan, trace);
                }
            }
            Err(_) => {
                // Queue full (completions starved by lost IRQs): the
                // watchdog path will unwedge it.
            }
        }
    }

    /// Device poll + completion-IRQ delivery, with the IRQ-loss gate.
    fn device_service(&mut self, at: Nanos, plan: &mut FaultPlan, trace: &mut TraceRecorder) {
        let rep = self.net.device_poll(&mut self.backend);
        self.report.frames_echoed += rep.tx_done;
        if rep.irqs > 0 && plan.lose_irq() {
            trace.emit(
                at,
                VICTIM_CORE,
                TraceCategory::IrqInject,
                Nanos::ZERO,
                "victim completion irq lost",
            );
            // Completions sit unreaped; the armed watchdog re-kicks.
            return;
        }
        let _ = self.driver.drain_net(&mut self.net);
    }

    /// Primary → victim ping with bounded retry.
    fn ping(&mut self, spm: &mut Spm, at: Nanos) -> bool {
        match send_with_retry(
            spm,
            VmId::PRIMARY,
            VICTIM_CORE,
            VICTIM_CORE,
            self.vm,
            b"ping",
            at,
            MailboxRetryPolicy::kitten(),
            no_progress,
        ) {
            Ok(o) => {
                self.report.send_retries += (o.attempts - 1) as u64;
                if !o.delivered {
                    self.report.sends_abandoned += 1;
                }
                o.delivered
            }
            Err(_) => false,
        }
    }
}

//! One cluster node: a full virtualized machine stack.
//!
//! Each [`Node`] boots a real [`Spm`] from a manifest (Kitten or Linux
//! primary + the `svc` secondary), prices its NIC traffic on the same
//! link and copy model as a virtio-net device, and accounts OS noise
//! with the noise-interleaving kernel the single-machine executor runs
//! ([`kh_core::noise`]).
//!
//! The noise is a *lazily-advanced* [`NoiseCursor`] rather than entries
//! in the cluster's shared event queue: each node tracks its next host
//! tick, guest tick, and background burst, and [`Node::advance_noise_to`]
//! replays everything due up to a boundary — bumping `busy_until` by each
//! event's stolen time and driving the real SPM preempt/`vcpu_run`/vGIC
//! state machine. [`Node::serve`] runs each request through
//! [`run_phase`], which interleaves the events due inside its service
//! window, and the quanta of a colocated HPC neighbour, into it. Two
//! invariants fall out of this design:
//!
//! 1. **Determinism.** Noise draws come from the node's own RNG streams
//!    in event-time order, never interleaved with other nodes or with
//!    fabric randomness, so the replay is independent of event-queue
//!    processing order across nodes.
//! 2. **Traffic independence.** Noise events are generated from their
//!    *own* schedule (`next_background` is re-seeded from the event's
//!    time, not from whenever traffic happened to trigger the replay),
//!    and the noise histogram records every event below a fixed horizon
//!    exactly once — so a node's noise profile is byte-identical whether
//!    it served one request or thousands, which is what the cluster
//!    isolation test asserts.

use kh_arch::cpu::{CoreTimer, Phase, PollutionState, TranslationRegime};
use kh_arch::el::ExceptionLevel;
use kh_arch::platform::Platform;
use kh_core::config::{MachineConfig, StackKind, StackOptions};
use kh_core::noise::{
    jittered, run_phase, spm_dispatch, spm_tick, Fired, Hooks, NoiseCursor, NoiseModel, Quirks,
    Source,
};
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::{Spm, SpmConfig};
use kh_hafnium::vm::{VcpuRunExit, VmId};
use kh_kitten::secondary::SecondaryPort;
use kh_metrics::hist::LogHistogram;
use kh_scenario::HpcKind;
use kh_sim::{DrawAhead, Nanos, SimRng};
use kh_theseus::TheseusRuntime;
use kh_virtio::net::tx_charge;
use kh_virtio::{IoCostModel, LinkProfile, NetStats};
use kh_workloads::Workload;
use std::collections::{HashMap, VecDeque};

const MB: u64 = 1 << 20;

/// CPU-sharing quantum grid a colocated HPC neighbor runs on: quantum
/// `k` covers `[k*P, (k+1)*P)` and the neighbor occupies its head.
pub const HPC_QUANTUM_PERIOD: Nanos = Nanos::from_micros(200);
/// Largest fraction of a quantum the neighbor may occupy — the service
/// core always gets a share, so colocation inflates tails rather than
/// starving the run outright.
const HPC_DUTY_CAP: f64 = 0.75;

/// A colocated HPC workload sharing this node's service core.
///
/// The occupancy schedule is a *lazily-priced quantum grid*, the same
/// discipline as the noise cursor: quantum `k`'s occupancy is priced
/// from the neighbor's own phase stream and RNG in index order, so the
/// schedule is a pure function of (kind, seed) — independent of traffic,
/// worker count, and of whether anyone ever queries it. Pricing uses the
/// node's real [`CoreTimer`], so an HPCG neighbor's occupancy reflects
/// HPCG's actual arithmetic intensity under the two-stage regime.
struct HpcNeighbor {
    kind: HpcKind,
    workload: Box<dyn Workload + Send>,
    jitter: DrawAhead,
    /// `quanta[k] = (occupied_until, pollution)`: the neighbor owns
    /// `[k*P, occupied_until)` and leaves `pollution` behind for the
    /// resuming service phase to re-warm.
    quanta: Vec<(Nanos, PollutionState)>,
}

impl HpcNeighbor {
    fn new(kind: HpcKind, seed: u64) -> Self {
        HpcNeighbor {
            kind,
            workload: kind.model(),
            jitter: DrawAhead::new(SimRng::new(seed)),
            quanta: Vec::new(),
        }
    }

    /// Price quanta in order through index `k`.
    fn ensure(&mut self, timer: &CoreTimer, jitter_sigma: f64, k: usize) {
        while self.quanta.len() <= k {
            let idx = self.quanta.len() as u64;
            let start = HPC_QUANTUM_PERIOD.scaled(idx);
            let phase = match self.workload.next_phase(start) {
                Some(p) => p,
                None => {
                    // The benchmark ran to completion; the neighbor
                    // starts it over and keeps computing.
                    self.workload = self.kind.model();
                    self.workload
                        .next_phase(start)
                        .expect("fresh HPC model yields a phase")
                }
            };
            let mut clean = PollutionState::default();
            let cost = timer.price(&phase, TranslationRegime::TwoStage, &mut clean, 1);
            let cap = (HPC_QUANTUM_PERIOD.as_nanos() as f64 * HPC_DUTY_CAP) as u64;
            let dur = jittered(cost.time, jitter_sigma, 1.0, &self.jitter.take());
            let dur = dur.as_nanos().clamp(1, cap);
            self.workload.phase_complete(start + Nanos(dur), &cost);
            // What one slice displaces of the *victim's* hot set — not
            // the neighbor's whole footprint. Uncapped eviction counts
            // would charge the resuming request a full-L2 re-warm every
            // quantum, which exceeds the service share of the quantum
            // and the service queue would never drain.
            let pollution = PollutionState {
                tlb_evicted: (phase.footprint / 4096).min(64),
                cache_lines_evicted: (phase.footprint / 64).min(256),
            };
            self.quanta.push((start + Nanos(dur), pollution));
        }
    }

    /// If the neighbour owns the core at `t`, the instant it hands back
    /// plus the pollution it leaves behind.
    fn window_at(
        &mut self,
        timer: &CoreTimer,
        jitter_sigma: f64,
        t: Nanos,
    ) -> Option<(Nanos, PollutionState)> {
        let k = (t.as_nanos() / HPC_QUANTUM_PERIOD.as_nanos()) as usize;
        self.ensure(timer, jitter_sigma, k);
        let (end, pollution) = self.quanta[k];
        (t < end).then_some((end, pollution))
    }
}

/// Default bound on a server's outstanding service queue under the
/// fixed admission policy; past it, admission sheds with an explicit
/// NACK.
pub const DEFAULT_ADMISSION_LIMIT: usize = 64;

/// How a server decides whether an arriving request may enter the
/// service queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Shed once `limit` admitted requests are outstanding — a bound on
    /// instantaneous queue *length*. Simple, but blind to how long the
    /// queue has been bad: a burst of `limit` requests sheds even if
    /// the queue drains in microseconds.
    Fixed { limit: usize },
    /// CoDel-style: shed only when queue *sojourn* (how long an
    /// admitted request would wait before service starts) has stayed
    /// above `target` for a full `interval`, then shed at an
    /// increasing rate (`interval / sqrt(drops)`) until sojourn drops
    /// back under target. Sheds on sustained excess, not transient
    /// bursts — the admission half of the metastability fix.
    CoDel { target: Nanos, interval: Nanos },
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::Fixed {
            limit: DEFAULT_ADMISSION_LIMIT,
        }
    }
}

/// CoDel control-law state, one per server node. All integer-nanos.
#[derive(Debug, Clone, Copy, Default)]
struct CoDelState {
    /// When sojourn first exceeded target (+interval), if it still does.
    first_above: Option<Nanos>,
    /// In the shedding regime.
    dropping: bool,
    /// Next shed instant while dropping.
    drop_next: Nanos,
    /// Sheds this dropping episode (sets the control-law rate).
    drop_count: u64,
}

/// Integer square root (floor), for the CoDel drop-rate law.
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return v;
    }
    let mut x = v;
    let mut y = (x as u128).div_ceil(2) as u64;
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// What a node is for in the cluster topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Runs the open-loop request generator.
    Client,
    /// Runs the service secondary that answers requests.
    Server,
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    pub host_ticks: u64,
    pub guest_ticks: u64,
    pub background_events: u64,
    pub vcpu_runs: u64,
    /// CPU time all noise events stole on this node.
    pub stolen: Nanos,
    /// Requests this node served (servers only).
    pub served: u64,
    /// Requests refused by admission control (servers only).
    pub shed: u64,
    /// Duplicate attempts (hedges/retransmits) of an already-served
    /// request absorbed by the response cache instead of re-entering
    /// admission (servers only).
    pub dup_hits: u64,
    /// Requests that arrived while the service VM was down.
    pub crash_drops: u64,
    /// Times the primary restarted a crashed service VM.
    pub restarts: u64,
}

/// The isolation substrate under a node's service: either a real
/// Hafnium SPM with a guest secondary (the virtualized stacks), or the
/// Theseus runtime's software-isolated components in a single address
/// space (no stage 2, no world switches, no guest tick).
enum Backend {
    Spm {
        /// Boxed: an SPM (stage-2 tables, mailboxes, vGIC state) dwarfs
        /// the Theseus runtime, and nodes move through `Vec<Node>`.
        spm: Box<Spm>,
        port: SecondaryPort,
        svc_vm: VmId,
        /// The guest Kitten's virtual-timer period.
        vtimer: Nanos,
    },
    Theseus(TheseusRuntime),
}

/// One full machine stack wired into the cluster fabric.
pub struct Node {
    pub index: u16,
    pub role: Role,
    cfg: MachineConfig,
    timer: CoreTimer,
    noise: NoiseModel,
    cursor: NoiseCursor,
    backend: Backend,
    /// Boot-chain measurement, fixed at boot; attestation evidence.
    measurement: [u8; 32],
    /// The NIC's access link and copy costs: a frame is priced from
    /// its length alone.
    link: LinkProfile,
    io: IoCostModel,
    /// NIC counters of the current service instance.
    net: NetStats,
    service_rng: SimRng,
    /// Completion times of admitted requests still in the service
    /// queue; admission control bounds its occupancy.
    pending_done: VecDeque<Nanos>,
    /// Response cache: request id → service completion instant, for
    /// every request admitted since the last crash. Duplicate attempts
    /// replay the cached answer instead of consuming an admission slot
    /// and a second full service — an at-most-once execution guarantee
    /// against the client's at-least-once transmission layer.
    served_cache: HashMap<u64, Nanos>,
    /// CoDel admission control-law state (servers only).
    codel: CoDelState,
    /// True between a `crashsvc` fault and the primary's restart.
    crashed: bool,
    /// Colocated HPC neighbor sharing the service core (scenario mode).
    hpc: Option<HpcNeighbor>,
    /// When this node's service core is next free.
    pub busy_until: Nanos,
    /// Stolen-time distribution of noise events below the horizon.
    pub noise_hist: LogHistogram,
    /// End-to-end request latency (clients record completions here).
    pub latency_hist: LogHistogram,
    pub stats: NodeStats,
}

impl Node {
    /// Boot one node. The stack must support clustering: virtualized
    /// stacks peer virtio devices through the SPM; Theseus brings its
    /// own in-kernel driver components instead.
    pub fn new(index: u16, role: Role, stack: StackKind, platform: Platform, seed: u64) -> Self {
        assert!(
            stack.supports_cluster(),
            "cluster nodes must run a virtualized stack or Theseus"
        );
        let cfg = MachineConfig {
            platform,
            stack,
            options: StackOptions::default(),
            seed,
        };
        let timer = CoreTimer::new(platform);
        let mut rng = SimRng::new(seed ^ 0x6B68_6E6F_6465); // "khnode"
        let mut noise = NoiseModel::new(&cfg, 1, &mut rng, Quirks::NODE); // one service core
        let mut stats = NodeStats::default();
        let (backend, measurement) = if stack == StackKind::NativeTheseus {
            let rt = TheseusRuntime::new(seed);
            let measurement = rt.measurement();
            (Backend::Theseus(rt), measurement)
        } else {
            let primary_name = match stack {
                StackKind::HafniumKitten => "kitten-primary",
                _ => "linux-primary",
            };
            let manifest = BootManifest::new()
                .with_vm(VmManifest::new(
                    primary_name,
                    VmKind::Primary,
                    64 * MB,
                    platform.num_cores,
                ))
                .with_vm(VmManifest::new("svc", VmKind::Secondary, 64 * MB, 1));
            let (mut spm, report) =
                kh_hafnium::boot::boot(SpmConfig::default_for(platform), &manifest, vec![])
                    .expect("cluster node manifest boots");
            // Fold the measured boot chain (EL3 firmware → EL2 Hafnium
            // → each EL1 image) into the single digest this node will
            // present as attestation evidence.
            let mut chain = kh_hafnium::sha256::Sha256::new();
            for stage in &report.stages {
                chain.update(stage.name.as_bytes());
                chain.update(stage.measurement.as_bytes());
            }
            let measurement = chain.finalize();
            let svc_vm = VmId(2);
            let port = SecondaryPort::new(svc_vm);
            port.boot_probe().expect("secondary port has workarounds");
            let vtimer = noise.guest_period().expect("virtualized nodes run a guest");

            // Initial dispatch + vtimer arming, exactly as Machine::run
            // does.
            spm_dispatch(&mut spm, &port, 0, vtimer, Nanos::ZERO);
            stats.vcpu_runs += 1;
            (
                Backend::Spm {
                    spm: Box::new(spm),
                    port,
                    svc_vm,
                    vtimer,
                },
                measurement,
            )
        };

        // Tick schedules start at a random phase offset, one stream per
        // node, drawn in a fixed order (host, then guest). Theseus has
        // no guest and takes no second draw.
        let cursor = NoiseCursor::start(&mut noise, 0, &mut rng);
        let service_rng = SimRng::new(seed ^ 0x6B68_7376_636A); // "khsvcj"

        Node {
            index,
            role,
            cfg,
            timer,
            noise,
            cursor,
            backend,
            measurement,
            link: LinkProfile::from_platform(&platform),
            io: IoCostModel::new(&platform),
            net: NetStats::default(),
            service_rng,
            pending_done: VecDeque::new(),
            served_cache: HashMap::new(),
            codel: CoDelState::default(),
            crashed: false,
            hpc: None,
            busy_until: Nanos::ZERO,
            noise_hist: LogHistogram::for_detours(),
            latency_hist: LogHistogram::for_latency(),
            stats,
        }
    }

    /// Fixed per-request dispatch overhead on the service path.
    ///
    /// Under Hafnium the request crosses the hypervisor both ways: the
    /// RX interrupt enters at EL2 and is injected into the service VM
    /// (EL1<->EL2 round trip), the SPM context-switches the VM in and
    /// back out, and the response doorbell traps to EL2 again. Theseus
    /// has no EL2 — the driver hands the request to the service
    /// component and back with two in-address-space context switches.
    /// Priced from the platform's calibrated transition costs, same as
    /// the single-machine executor pays through real SPM hypercalls.
    fn dispatch_overhead(&self) -> Nanos {
        match &self.backend {
            Backend::Spm { .. } => {
                let t = &self.cfg.platform.transitions;
                let cycles = 2 * t.vm_context_switch_cycles
                    + 2 * t.round_trip_cycles(ExceptionLevel::El1, ExceptionLevel::El2);
                self.cfg.platform.core_freq.cycles_to_nanos(cycles)
            }
            Backend::Theseus(_) => self.noise.host().ctx_switch_cost().scaled(2),
        }
    }

    /// Replay every noise event due at or before `t`.
    pub fn advance_noise_to(&mut self, t: Nanos, horizon: Nanos) {
        let mut hooks = NodeHooks {
            backend: &mut self.backend,
            crashed: self.crashed,
            stats: &mut self.stats,
            noise_hist: &mut self.noise_hist,
            busy_until: &mut self.busy_until,
            horizon,
            hpc: None,
        };
        self.cursor.fire_due(&mut self.noise, t, &mut hooks);
    }

    /// Transmit `frame` through this node's NIC at `now`, once the
    /// service core is free. Returns the instant the frame enters the
    /// switch: the driver copy, access-link serialization and base
    /// latency ([`tx_charge`], the price a `VirtioNet` device charges),
    /// all from the frame's length. The fabric carries the frame itself.
    pub fn send(&mut self, now: Nanos, frame: &[u8], horizon: Nanos) -> Nanos {
        self.advance_noise_to(now, horizon);
        let start = now.max(self.busy_until);
        let bytes = frame.len() as u64;
        self.net.frames_tx += 1;
        self.net.bytes_tx += bytes;
        start + tx_charge(&self.io, &self.link, bytes)
    }

    /// A frame arrives from the fabric at `now`. Returns the instant the
    /// payload is in guest memory: the RX copy of its length. The RX
    /// buffer always fits the frame, so nothing is truncated or dropped.
    pub fn receive(&mut self, now: Nanos, frame: &[u8], horizon: Nanos) -> Nanos {
        self.advance_noise_to(now, horizon);
        let bytes = frame.len() as u64;
        self.net.frames_rx += 1;
        self.net.bytes_rx += bytes;
        now + self.io.copy(bytes)
    }

    /// Run the per-request service computation starting no earlier than
    /// `ready`, interleaving any noise events that fire inside the
    /// window (each adds its stolen time plus cache/TLB re-warm) and any
    /// quanta a colocated HPC neighbour owns (the service resumes at the
    /// hand-back and re-warms what the neighbour trashed). Returns the
    /// completion instant; `busy_until` advances to it.
    pub fn serve(&mut self, ready: Nanos, phase: &Phase, horizon: Nanos) -> Nanos {
        self.advance_noise_to(ready, horizon);
        let start = ready.max(self.busy_until);
        let cost = self.noise.price(&self.timer, phase, 1, 1.0);
        // Per-request DRAM/thermal jitter, same sigma as the machine
        // executor, from this node's dedicated stream.
        let draw = self.service_rng.next_gaussian_draw();
        let work = self.noise.work_from(cost.time, &draw) + self.dispatch_overhead();
        let sigma = self.cfg.options.jitter_sigma;
        let mut hooks = NodeHooks {
            backend: &mut self.backend,
            crashed: self.crashed,
            stats: &mut self.stats,
            noise_hist: &mut self.noise_hist,
            busy_until: &mut self.busy_until,
            horizon,
            hpc: self.hpc.as_mut().map(|h| (h, &self.timer, sigma)),
        };
        let span = (start, work);
        let run = run_phase(
            &mut self.noise,
            &mut self.cursor,
            &self.timer,
            phase,
            span,
            &mut hooks,
        );
        self.busy_until = run.end;
        self.stats.served += 1;
        self.pending_done.push_back(run.end);
        run.end
    }

    /// Move an HPC neighbor onto this node's service core. The
    /// neighbor's occupancy schedule rides its own RNG stream (`seed`),
    /// so colocating one node never perturbs any other node's draws —
    /// the scenario gates assert non-colocated nodes' noise histograms
    /// stay bit-identical.
    pub fn colocate_hpc(&mut self, kind: HpcKind, seed: u64) {
        self.hpc = Some(HpcNeighbor::new(kind, seed));
    }

    /// Total neighbor occupancy over quanta starting below `horizon`:
    /// `(quanta, busy)`. Prices the full grid, so the answer is a pure
    /// function of (kind, seed, horizon) regardless of traffic.
    pub fn hpc_occupancy_below(&mut self, horizon: Nanos) -> Option<(u64, Nanos)> {
        let sigma = self.cfg.options.jitter_sigma;
        let h = self.hpc.as_mut()?;
        let last = (horizon.as_nanos().saturating_sub(1) / HPC_QUANTUM_PERIOD.as_nanos()) as usize;
        h.ensure(&self.timer, sigma, last);
        let mut busy = Nanos::ZERO;
        for (k, (end, _)) in h.quanta.iter().enumerate().take(last + 1) {
            busy += end.saturating_sub(HPC_QUANTUM_PERIOD.scaled(k as u64));
        }
        Some((last as u64 + 1, busy))
    }

    /// Admission control: may a request arriving at `now` enter the
    /// service queue? A shed is counted here; the caller answers with
    /// an explicit NACK, never a silent drop.
    pub fn admit_with(&mut self, now: Nanos, policy: &AdmissionPolicy) -> bool {
        match *policy {
            AdmissionPolicy::Fixed { limit } => self.admit_fixed(now, limit),
            AdmissionPolicy::CoDel { target, interval } => self.admit_codel(now, target, interval),
        }
    }

    /// Fixed-limit admission: requests whose service already completed
    /// free their slot; at `limit` outstanding the request is shed.
    fn admit_fixed(&mut self, now: Nanos, limit: usize) -> bool {
        while self.pending_done.front().is_some_and(|d| *d <= now) {
            self.pending_done.pop_front();
        }
        if self.pending_done.len() >= limit.max(1) {
            self.stats.shed += 1;
            false
        } else {
            true
        }
    }

    /// CoDel admission: the sojourn a request admitted at `now` faces
    /// is how long the service core stays busy ahead of it. Shedding
    /// starts only after sojourn has exceeded `target` continuously
    /// for `interval`, then sheds at `interval / sqrt(n)` spacing
    /// until sojourn recovers — sustained excess sheds, transient
    /// bursts ride through.
    fn admit_codel(&mut self, now: Nanos, target: Nanos, interval: Nanos) -> bool {
        let sojourn = self.busy_until.saturating_sub(now);
        if sojourn < target {
            self.codel.first_above = None;
            self.codel.dropping = false;
            return true;
        }
        match self.codel.first_above {
            None => {
                self.codel.first_above = Some(now + interval);
                true
            }
            Some(first_above) if now < first_above => true,
            Some(_) => {
                if !self.codel.dropping {
                    self.codel.dropping = true;
                    self.codel.drop_count = 0;
                    self.codel.drop_next = now;
                }
                if now >= self.codel.drop_next {
                    self.codel.drop_count += 1;
                    let step = interval.as_nanos() / isqrt(self.codel.drop_count).max(1);
                    self.codel.drop_next = now + Nanos(step.max(1));
                    self.stats.shed += 1;
                    false
                } else {
                    true
                }
            }
        }
    }

    /// If request `id` was already admitted and served since the last
    /// crash, its cached completion instant — the dedupe check the
    /// cluster runs *before* admission, so a hedge or retransmit of an
    /// in-flight request never consumes an admission slot or a second
    /// service. Counts the hit.
    pub fn cached_response(&mut self, id: u64) -> Option<Nanos> {
        let hit = self.served_cache.get(&id).copied();
        if hit.is_some() {
            self.stats.dup_hits += 1;
        }
        hit
    }

    /// Record request `id`'s service completion in the response cache.
    pub fn note_served(&mut self, id: u64, done: Nanos) {
        self.served_cache.insert(id, done);
    }

    /// Is the service VM currently down (crashed, not yet restarted)?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Kill the service VM through the real SPM path at `now`: preempt,
    /// dispatch, abort. In-flight work dies with the VM — clients get
    /// their answers back via the retry path. Noise accounting is
    /// untouched, so the node's noise profile stays byte-identical to a
    /// fault-free run (the isolation tests assert this).
    pub fn crash_svc(&mut self, now: Nanos, horizon: Nanos) {
        self.advance_noise_to(now, horizon);
        match &mut self.backend {
            Backend::Spm { spm, svc_vm, .. } => {
                spm.preempt(0);
                let dispatched = spm
                    .hypercall(
                        VmId::PRIMARY,
                        0,
                        0,
                        HfCall::VcpuRun {
                            vm: *svc_vm,
                            vcpu: 0,
                        },
                        now,
                    )
                    .is_ok();
                if dispatched {
                    self.stats.vcpu_runs += 1;
                    spm.finish_run(0, VcpuRunExit::Aborted);
                }
                debug_assert!(spm.vm_is_crashed(*svc_vm));
            }
            Backend::Theseus(rt) => {
                // The language boundary catches the fault; the service
                // cell is marked dead until the restart relinks it.
                let _detect = rt.crash_svc();
            }
        }
        self.crashed = true;
        self.pending_done.clear();
        // Cached responses and queue-delay history die with the VM.
        self.served_cache.clear();
        self.codel = CoDelState::default();
    }

    /// The Kitten primary noticed the dead secondary (via
    /// `Spm::vm_is_crashed`) and drives recovery: rebuild stage-2
    /// through `Spm::restart_vm`, bring up a fresh NIC (its counters
    /// restart at zero), re-arm the vtimer, and charge `restart_cost`
    /// of service-core time. Returns the instant the service is
    /// accepting requests again.
    pub fn restart_svc(&mut self, now: Nanos, restart_cost: Nanos, horizon: Nanos) -> Nanos {
        self.advance_noise_to(now, horizon);
        // The crashed instance's device state dies with it; the fresh
        // instance's NIC counts from zero.
        self.net = NetStats::default();
        match &mut self.backend {
            Backend::Spm {
                spm,
                port,
                svc_vm,
                vtimer,
            } => {
                debug_assert!(spm.vm_is_crashed(*svc_vm));
                spm.restart_vm(*svc_vm).expect("svc restart");
                spm_dispatch(spm, port, 0, *vtimer, now);
                self.stats.vcpu_runs += 1;
            }
            Backend::Theseus(rt) => {
                // Cooperative unwind + relink of the dead cell; no image
                // re-verification, no stage-2 rebuild.
                let _restart = rt.restart_svc();
            }
        }
        self.crashed = false;
        self.stats.restarts += 1;
        self.busy_until = self.busy_until.max(now) + restart_cost;
        self.busy_until
    }

    /// Per-device NIC counters.
    pub fn net_stats(&self) -> &NetStats {
        &self.net
    }

    /// The paper's invariant, audited per node at end of run: SPM
    /// page-table/mailbox isolation for the virtualized stacks, the
    /// component-ledger audit for Theseus.
    pub fn audit_isolation(&self) -> Result<(), String> {
        match &self.backend {
            Backend::Spm { spm, .. } => spm.audit_isolation().map_err(|e| format!("{e:?}")),
            Backend::Theseus(rt) => rt.audit(),
        }
    }

    /// Boot-chain measurement this node presents as attestation
    /// evidence: the folded boot-stage digest chain for virtualized
    /// stacks, the Theseus component-manifest digest for the safe
    /// stack.
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// The Theseus runtime, when this node runs the safe stack.
    pub fn theseus(&self) -> Option<&TheseusRuntime> {
        match &self.backend {
            Backend::Theseus(rt) => Some(rt),
            Backend::Spm { .. } => None,
        }
    }
}

/// What a noise event does to a node beyond the kernel's accounting:
/// the SPM is driven at the event's own time (a crashed secondary is not
/// re-dispatched, and the tick still steals its time, so the noise
/// profile is crash-invariant), `busy_until` moves past it, and events
/// below `horizon` enter the noise histogram. While serving, a colocated
/// HPC neighbour's quanta own the core; a quantum boundary loses a tie
/// with a noise event.
struct NodeHooks<'a> {
    backend: &'a mut Backend,
    crashed: bool,
    stats: &'a mut NodeStats,
    noise_hist: &'a mut LogHistogram,
    busy_until: &'a mut Nanos,
    horizon: Nanos,
    hpc: Option<(&'a mut HpcNeighbor, &'a CoreTimer, f64)>,
}

impl Hooks for NodeHooks<'_> {
    fn noise(&mut self, f: &Fired, _now: Nanos) {
        match f.source {
            Source::HostTick => self.stats.host_ticks += 1,
            Source::GuestTick => self.stats.guest_ticks += 1,
            _ => self.stats.background_events += 1,
        }
        // On Theseus the tick is a plain EL1 handler: no SPM state
        // machine to drive, just the handler's own cost.
        if let Backend::Spm {
            spm,
            port,
            svc_vm,
            vtimer,
        } = self.backend
        {
            let guest = Some((&*port, *vtimer));
            if spm_tick(spm, guest, (0, *svc_vm, 0), f.source, f.at, !self.crashed) {
                self.stats.vcpu_runs += 1;
            }
        }
        if f.at < self.horizon {
            self.noise_hist.record(f.stolen.as_nanos() as f64);
        }
        self.stats.stolen += f.stolen;
        *self.busy_until = (*self.busy_until).max(f.at) + f.stolen;
    }

    fn occupied(&mut self, now: Nanos) -> Option<(Nanos, PollutionState)> {
        let (h, timer, sigma) = self.hpc.as_mut()?;
        h.window_at(timer, *sigma, now)
    }

    /// Start of the next HPC quantum strictly after `now`.
    fn next_own(&mut self, now: Nanos) -> Nanos {
        let next = HPC_QUANTUM_PERIOD.scaled(now.as_nanos() / HPC_QUANTUM_PERIOD.as_nanos() + 1);
        self.hpc.as_ref().map_or(Nanos::MAX, |_| next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_virtio::{EchoBackend, NetBackend, VirtioNet};
    use kh_workloads::svcload::SvcLoadConfig;

    fn node(stack: StackKind, seed: u64) -> Node {
        Node::new(0, Role::Server, stack, Platform::pine_a64_lts(), seed)
    }

    #[test]
    fn noise_replay_is_a_pure_function_of_the_seed() {
        let horizon = Nanos::from_millis(50);
        let replay = |seed| {
            let mut n = node(StackKind::HafniumLinux, seed);
            n.advance_noise_to(horizon, horizon);
            (n.stats, n.noise_hist.count(), n.busy_until)
        };
        assert_eq!(replay(3), replay(3));
        assert_ne!(replay(3), replay(4));
    }

    #[test]
    fn noise_histogram_is_traffic_independent() {
        let horizon = Nanos::from_millis(50);
        let phase = SvcLoadConfig::default().service_phase();
        // Idle node: noise replayed in one sweep.
        let mut idle = node(StackKind::HafniumLinux, 9);
        idle.advance_noise_to(horizon, horizon);
        // Busy node: same seed, but noise replayed piecewise around
        // serving a stream of requests.
        let mut busy = node(StackKind::HafniumLinux, 9);
        let mut t = Nanos::from_micros(100);
        while t < Nanos::from_millis(40) {
            busy.serve(t, &phase, horizon);
            t += Nanos::from_micros(400);
        }
        busy.advance_noise_to(horizon, horizon);
        // The recorded profile is identical; raw counters may differ
        // because a backlogged server replays (unrecorded) noise past
        // the horizon while draining its queue.
        assert_eq!(
            idle.noise_hist, busy.noise_hist,
            "serving traffic must not perturb the noise profile"
        );
        assert!(busy.stats.host_ticks >= idle.stats.host_ticks);
    }

    #[test]
    fn linux_node_is_noisier_than_kitten() {
        let horizon = Nanos::from_millis(100);
        let count = |stack| {
            let mut n = node(stack, 5);
            n.advance_noise_to(horizon, horizon);
            n.noise_hist.count()
        };
        let kitten = count(StackKind::HafniumKitten);
        let linux = count(StackKind::HafniumLinux);
        assert!(
            linux > kitten * 5,
            "linux noise events {linux} vs kitten {kitten}"
        );
    }

    #[test]
    fn serve_pays_compute_plus_noise() {
        let phase = SvcLoadConfig::default().service_phase();
        let horizon = Nanos::from_millis(10);
        let mut n = node(StackKind::HafniumKitten, 2);
        let done = n.serve(Nanos::from_micros(10), &phase, horizon);
        assert!(done > Nanos::from_micros(10));
        assert_eq!(n.busy_until, done);
        // A second request queued behind the first starts at busy_until.
        let done2 = n.serve(Nanos::from_micros(11), &phase, horizon);
        assert!(done2 > done);
        assert_eq!(n.stats.served, 2);
        assert!(n.audit_isolation().is_ok());
    }

    #[test]
    fn admission_bounds_the_service_queue() {
        let phase = SvcLoadConfig::default().service_phase();
        let horizon = Nanos::from_millis(10);
        let mut n = node(StackKind::HafniumKitten, 6);
        let t = Nanos::from_micros(10);
        let fixed = AdmissionPolicy::Fixed { limit: 2 };
        assert!(n.admit_with(t, &fixed));
        n.serve(t, &phase, horizon);
        assert!(n.admit_with(t, &fixed));
        n.serve(t, &phase, horizon);
        assert!(
            !n.admit_with(t, &fixed),
            "queue full: third concurrent request shed"
        );
        assert_eq!(n.stats.shed, 1);
        // Once the queued work completes, capacity frees up.
        let later = n.busy_until + Nanos(1);
        assert!(n.admit_with(later, &fixed));
        assert_eq!(n.stats.shed, 1);
    }

    #[test]
    fn crash_and_restart_drive_the_real_spm() {
        let phase = SvcLoadConfig::default().service_phase();
        let horizon = Nanos::from_millis(50);
        let mut n = node(StackKind::HafniumLinux, 8);
        assert!(!n.is_crashed());
        n.send(Nanos::from_micros(10), &[0u8; 128], horizon);
        n.receive(Nanos::from_micros(20), &[0u8; 128], horizon);
        assert_eq!(n.net_stats().frames_tx, 1);
        n.crash_svc(Nanos::from_micros(100), horizon);
        assert!(n.is_crashed());
        // Noise keeps replaying while the secondary is down (the host
        // tick has nothing to re-dispatch but still steals its time).
        n.advance_noise_to(Nanos::from_millis(5), horizon);
        let up = n.restart_svc(Nanos::from_millis(5), Nanos::from_millis(2), horizon);
        assert!(!n.is_crashed());
        assert_eq!(
            *n.net_stats(),
            NetStats::default(),
            "fresh NIC counts from zero"
        );
        assert!(up >= Nanos::from_millis(7), "restart cost charged");
        assert_eq!(n.stats.restarts, 1);
        assert!(n.audit_isolation().is_ok());
        let done = n.serve(up, &phase, horizon);
        assert!(done > up, "service answers again after recovery");
    }

    #[test]
    fn crash_window_does_not_perturb_the_noise_profile() {
        let horizon = Nanos::from_millis(50);
        let mut clean = node(StackKind::HafniumLinux, 9);
        clean.advance_noise_to(horizon, horizon);
        let mut crashed = node(StackKind::HafniumLinux, 9);
        crashed.crash_svc(Nanos::from_millis(10), horizon);
        crashed.restart_svc(Nanos::from_millis(12), Nanos::from_millis(2), horizon);
        crashed.advance_noise_to(horizon, horizon);
        assert_eq!(
            clean.noise_hist, crashed.noise_hist,
            "crash+restart must leave the noise histogram byte-identical"
        );
    }

    #[test]
    fn colocated_neighbor_slows_service_but_not_noise() {
        let phase = SvcLoadConfig::default().service_phase();
        let horizon = Nanos::from_millis(20);
        let run = |colocate: bool| {
            let mut n = node(StackKind::HafniumKitten, 12);
            if colocate {
                n.colocate_hpc(HpcKind::Hpcg, 77);
            }
            let mut t = Nanos::from_micros(100);
            let mut last = Nanos::ZERO;
            while t < Nanos::from_millis(10) {
                last = n.serve(t, &phase, horizon);
                t += Nanos::from_micros(500);
            }
            n.advance_noise_to(horizon, horizon);
            (last, n.noise_hist.clone())
        };
        let (clean_done, clean_noise) = run(false);
        let (colo_done, colo_noise) = run(true);
        assert!(
            colo_done > clean_done,
            "neighbor must cost service time: {colo_done:?} vs {clean_done:?}"
        );
        assert_eq!(
            clean_noise, colo_noise,
            "colocation must not perturb the node's own noise profile"
        );
    }

    #[test]
    fn hpc_occupancy_is_a_pure_function_of_seed_and_horizon() {
        let horizon = Nanos::from_millis(20);
        let phase = SvcLoadConfig::default().service_phase();
        // Idle node vs one that served traffic: same occupancy answer.
        let mut idle = node(StackKind::HafniumKitten, 12);
        idle.colocate_hpc(HpcKind::NasCg, 77);
        let mut busy = node(StackKind::HafniumKitten, 12);
        busy.colocate_hpc(HpcKind::NasCg, 77);
        let mut t = Nanos::from_micros(100);
        while t < Nanos::from_millis(8) {
            busy.serve(t, &phase, horizon);
            t += Nanos::from_micros(400);
        }
        assert_eq!(
            idle.hpc_occupancy_below(horizon),
            busy.hpc_occupancy_below(horizon)
        );
        let (quanta, occ) = idle.hpc_occupancy_below(horizon).unwrap();
        assert_eq!(quanta, 100, "20ms of 200us quanta");
        assert!(occ > Nanos::ZERO);
        // Duty cap: occupancy never exceeds 75% of wall time. (A heavy
        // neighbor like NAS-CG saturates the cap on every quantum, so
        // its schedule may be seed-invariant — the cap, not the seed,
        // is the binding constraint.)
        assert!(occ.as_nanos() <= horizon.as_nanos() * 3 / 4);
    }

    /// What a fresh virtio-net device charges for one frame: the TX pass
    /// through a backend that keeps the frame, and the extra an echo
    /// pays to land the same frame in a posted `max(len, 64)`-byte RX
    /// buffer.
    fn device_charges(platform: &Platform, len: usize) -> (Nanos, Nanos) {
        struct Sink;
        impl NetBackend for Sink {
            fn frame(&mut self, _: &[u8]) -> Option<Vec<u8>> {
                None
            }
        }
        let frame = vec![0u8; len];
        let pass = |backend: &mut dyn NetBackend| {
            let mut d = VirtioNet::new(platform, 78, 256, 0);
            d.post_rx(len.max(64) as u32).unwrap();
            d.send_frame(&frame).unwrap();
            let report = d.device_poll(backend);
            assert_eq!(d.stats.rx_dropped, 0);
            report.time
        };
        let tx = pass(&mut Sink);
        let echo = pass(&mut EchoBackend::default());
        (tx, echo - tx)
    }

    #[test]
    fn send_and_receive_price_the_nic_path() {
        let horizon = Nanos::from_millis(10);
        let lens = [0usize, 1, 63, 64, 65, 640, 1500];
        // 1 GbE on the embedded board, 10 GbE on the server part.
        for platform in [Platform::pine_a64_lts(), Platform::thunderx2()] {
            let mut n = Node::new(0, Role::Server, StackKind::HafniumKitten, platform, 4);
            let mut t = Nanos::from_micros(50);
            for &len in &lens {
                let (tx, rx) = device_charges(&platform, len);
                let frame = vec![7u8; len];
                n.advance_noise_to(t, horizon);
                let start = t.max(n.busy_until);
                assert_eq!(n.send(t, &frame, horizon), start + tx, "send of {len} B");
                t += Nanos::from_micros(40);
                assert_eq!(n.receive(t, &frame, horizon), t + rx, "receive of {len} B");
                t += Nanos::from_micros(40);
            }
            let bytes: u64 = lens.iter().map(|&l| l as u64).sum();
            // One more send, unanswered, so the two directions differ.
            n.send(t, &[0u8; 100], horizon);
            let want = NetStats {
                frames_tx: lens.len() as u64 + 1,
                frames_rx: lens.len() as u64,
                bytes_tx: bytes + 100,
                bytes_rx: bytes,
                rx_dropped: 0,
            };
            assert_eq!(*n.net_stats(), want);
        }
    }

    #[test]
    fn integer_sqrt_is_exact_floor() {
        for v in 0u64..2_000 {
            let r = isqrt(v);
            assert!(r * r <= v, "isqrt({v}) = {r}");
            assert!((r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn codel_rides_through_transient_excess() {
        let mut n = node(StackKind::HafniumKitten, 21);
        let policy = AdmissionPolicy::CoDel {
            target: Nanos::from_millis(1),
            interval: Nanos::from_millis(10),
        };
        // Queue momentarily 5ms deep, but the excess lasts under one
        // interval: everything is admitted.
        n.busy_until = Nanos::from_millis(5);
        assert!(n.admit_with(Nanos::ZERO, &policy));
        assert!(n.admit_with(Nanos::from_millis(2), &policy));
        // Sojourn back under target: state resets, still admitting.
        assert!(n.admit_with(Nanos::from_millis(4) + Nanos::from_micros(500), &policy));
        assert_eq!(n.stats.shed, 0);
    }

    #[test]
    fn codel_sheds_on_sustained_sojourn_excess() {
        let mut n = node(StackKind::HafniumKitten, 22);
        let target = Nanos::from_millis(1);
        let interval = Nanos::from_millis(10);
        let policy = AdmissionPolicy::CoDel { target, interval };
        // Hold the queue 20ms deep continuously: past one interval of
        // sustained excess, sheds begin and accelerate.
        let mut shed = 0u64;
        let mut t = Nanos::ZERO;
        while t < Nanos::from_millis(40) {
            n.busy_until = t + Nanos::from_millis(20);
            if !n.admit_with(t, &policy) {
                shed += 1;
            }
            t += Nanos::from_micros(200);
        }
        assert!(shed > 0, "sustained excess must shed");
        assert_eq!(n.stats.shed, shed);
        // Everything before the first full interval elapsed rode through.
        assert!(
            shed < 40 * 5,
            "CoDel sheds at the control-law rate, not every request"
        );
    }

    #[test]
    fn response_cache_absorbs_duplicates_and_clears_on_crash() {
        let mut n = node(StackKind::HafniumKitten, 23);
        let horizon = Nanos::from_millis(50);
        assert_eq!(n.cached_response(7), None);
        n.note_served(7, Nanos::from_micros(900));
        assert_eq!(n.cached_response(7), Some(Nanos::from_micros(900)));
        assert_eq!(n.stats.dup_hits, 1);
        n.crash_svc(Nanos::from_millis(1), horizon);
        assert_eq!(n.cached_response(7), None, "cache dies with the VM");
        assert_eq!(n.stats.dup_hits, 1);
    }
}

//! Deterministic fault injection.
//!
//! The paper's isolation claim is only meaningful under adversity: a
//! crashed, hung, or actively misbehaving secondary must not perturb
//! the primary's noise profile. This module turns a textual fault spec
//! (`crash@200ms,drop-mailbox:0.01`) plus a seed into a [`FaultPlan`] —
//! a fully expanded, reproducible schedule of injections.
//!
//! Determinism guarantees:
//!
//! * Every random decision is drawn from streams split off a dedicated
//!   fault root seed (`SimRng::new(fault_seed)`), one child stream per
//!   component (mailbox, doorbell, IRQ, ring, timer, lifecycle). The
//!   machine's own noise streams are never consulted, so two runs with
//!   the same workload seed — one with faults, one without — see
//!   bit-identical primary-side noise.
//! * Scheduled injections (crashes, hangs, spurious doorbells/IRQs,
//!   delayed ticks) are expanded to concrete virtual times at plan
//!   construction; per-event gates (message drops, doorbell/IRQ loss,
//!   ring corruption) consume their component stream in arrival order,
//!   which the single-threaded engine makes a total order.

use crate::rng::SimRng;
use crate::time::{parse_duration, Nanos};
use std::fmt;

/// Labels for the per-component fault streams ([`SimRng::split`]).
const STREAM_LIFECYCLE: u64 = 1;
const STREAM_MAILBOX: u64 = 2;
const STREAM_DOORBELL: u64 = 3;
const STREAM_IRQ: u64 = 4;
const STREAM_RING: u64 = 5;
const STREAM_TIMER: u64 = 6;
/// Fabric streams (cluster network faults) — split off the same root so
/// one fault seed covers both machine-level and fabric-level injection,
/// while every component still has its own independent stream.
const STREAM_FABRIC_DROP: u64 = 7;
const STREAM_FABRIC_REORDER: u64 = 8;
const STREAM_FABRIC_JITTER: u64 = 9;
const STREAM_FABRIC_CORRUPT: u64 = 10;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The victim secondary VM takes an unrecoverable abort.
    SecondaryCrash,
    /// The victim secondary stops responding for `stall`.
    SecondaryHang { stall: Nanos },
    /// A spurious doorbell with no published buffers behind it.
    DoorbellSpurious,
    /// A spurious completion IRQ with no completions behind it.
    IrqSpurious,
    /// A timer tick delivered `extra` late.
    TimerDelay { extra: Nanos },
}

/// A scheduled injection at a concrete virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: Nanos,
    pub kind: FaultKind,
}

/// Errors from [`FaultSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

/// One clause of a fault spec.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Clause {
    /// `crash@<time>` — crash the victim secondary at the given time.
    CrashAt(Nanos),
    /// `hang@<time>:<dur>` — victim stops responding for `dur`.
    HangAt(Nanos, Nanos),
    /// `drop-mailbox:<p>` — drop each mailbox send with probability p.
    DropMailbox(f64),
    /// `corrupt-mailbox:<p>` — corrupt each delivered message with
    /// probability p.
    CorruptMailbox(f64),
    /// `lose-doorbell:<p>` — swallow each rung doorbell with
    /// probability p.
    LoseDoorbell(f64),
    /// `spurious-doorbell:<n>` — n phantom doorbells at random times.
    SpuriousDoorbell(u32),
    /// `lose-irq:<p>` — swallow each completion IRQ with probability p.
    LoseIrq(f64),
    /// `spurious-irq:<n>` — n phantom completion IRQs at random times.
    SpuriousIrq(u32),
    /// `delay-timer:<n>:<extra>` — n ticks delivered `extra` late, at
    /// random times.
    DelayTimer(u32, Nanos),
    /// `corrupt-ring:<p>` — corrupt each virtqueue publish with
    /// probability p.
    CorruptRing(f64),
}

/// A parsed fault specification: the what, without the when. Feed it to
/// [`FaultPlan::new`] with a seed and horizon to expand it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    clauses: Vec<Clause>,
}

fn parse_time(s: &str) -> Result<Nanos, FaultParseError> {
    parse_duration(s).ok_or_else(|| {
        FaultParseError(format!(
            "bad time `{s}` (want e.g. 200ms, 50us, 3s, 1200ns)"
        ))
    })
}

fn parse_prob(s: &str) -> Result<f64, FaultParseError> {
    let p: f64 = s
        .parse()
        .map_err(|_| FaultParseError(format!("bad probability `{s}`")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultParseError(format!("probability `{s}` not in [0, 1]")));
    }
    Ok(p)
}

fn parse_count(s: &str) -> Result<u32, FaultParseError> {
    s.parse()
        .map_err(|_| FaultParseError(format!("bad count `{s}`")))
}

impl FaultSpec {
    /// Parse a comma-separated clause list, e.g.
    /// `crash@200ms,drop-mailbox:0.01,spurious-irq:8`.
    pub fn parse(spec: &str) -> Result<FaultSpec, FaultParseError> {
        let mut clauses = Vec::new();
        for raw in spec.split(',') {
            let c = raw.trim();
            if c.is_empty() {
                continue;
            }
            let clause = if let Some(rest) = c.strip_prefix("crash@") {
                Clause::CrashAt(parse_time(rest)?)
            } else if let Some(rest) = c.strip_prefix("hang@") {
                let (at, dur) = rest
                    .split_once(':')
                    .ok_or_else(|| FaultParseError(format!("`{c}` wants hang@<time>:<dur>")))?;
                Clause::HangAt(parse_time(at)?, parse_time(dur)?)
            } else if let Some(rest) = c.strip_prefix("drop-mailbox:") {
                Clause::DropMailbox(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("corrupt-mailbox:") {
                Clause::CorruptMailbox(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("lose-doorbell:") {
                Clause::LoseDoorbell(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("spurious-doorbell:") {
                Clause::SpuriousDoorbell(parse_count(rest)?)
            } else if let Some(rest) = c.strip_prefix("lose-irq:") {
                Clause::LoseIrq(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("spurious-irq:") {
                Clause::SpuriousIrq(parse_count(rest)?)
            } else if let Some(rest) = c.strip_prefix("delay-timer:") {
                let (n, extra) = rest.split_once(':').ok_or_else(|| {
                    FaultParseError(format!("`{c}` wants delay-timer:<n>:<extra>"))
                })?;
                Clause::DelayTimer(parse_count(n)?, parse_time(extra)?)
            } else if let Some(rest) = c.strip_prefix("corrupt-ring:") {
                Clause::CorruptRing(parse_prob(rest)?)
            } else {
                return Err(FaultParseError(format!("unknown clause `{c}`")));
            };
            clauses.push(clause);
        }
        Ok(FaultSpec { clauses })
    }

    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match c {
                Clause::CrashAt(t) => write!(f, "crash@{}ns", t.as_nanos())?,
                Clause::HangAt(t, d) => write!(f, "hang@{}ns:{}ns", t.as_nanos(), d.as_nanos())?,
                Clause::DropMailbox(p) => write!(f, "drop-mailbox:{p}")?,
                Clause::CorruptMailbox(p) => write!(f, "corrupt-mailbox:{p}")?,
                Clause::LoseDoorbell(p) => write!(f, "lose-doorbell:{p}")?,
                Clause::SpuriousDoorbell(n) => write!(f, "spurious-doorbell:{n}")?,
                Clause::LoseIrq(p) => write!(f, "lose-irq:{p}")?,
                Clause::SpuriousIrq(n) => write!(f, "spurious-irq:{n}")?,
                Clause::DelayTimer(n, e) => write!(f, "delay-timer:{n}:{}ns", e.as_nanos())?,
                Clause::CorruptRing(p) => write!(f, "corrupt-ring:{p}")?,
            }
        }
        Ok(())
    }
}

/// Counters for what actually fired, layer by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub crashes: u64,
    pub hangs: u64,
    pub mailbox_dropped: u64,
    pub mailbox_corrupted: u64,
    pub doorbells_lost: u64,
    pub doorbells_spurious: u64,
    pub irqs_lost: u64,
    pub irqs_spurious: u64,
    pub timer_delays: u64,
    pub ring_corruptions: u64,
}

impl FaultStats {
    /// Total injections across every kind.
    pub fn total(&self) -> u64 {
        self.crashes
            + self.hangs
            + self.mailbox_dropped
            + self.mailbox_corrupted
            + self.doorbells_lost
            + self.doorbells_spurious
            + self.irqs_lost
            + self.irqs_spurious
            + self.timer_delays
            + self.ring_corruptions
    }
}

/// A fully expanded, deterministic injection schedule plus the per-event
/// probability gates, each on its own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scheduled injections, sorted by time (stable for equal times).
    scheduled: Vec<FaultEvent>,
    /// Cursor over `scheduled` (events fire once, in order).
    next_scheduled: usize,
    drop_mailbox_p: f64,
    corrupt_mailbox_p: f64,
    lose_doorbell_p: f64,
    lose_irq_p: f64,
    corrupt_ring_p: f64,
    mailbox_rng: SimRng,
    doorbell_rng: SimRng,
    irq_rng: SimRng,
    ring_rng: SimRng,
    pub stats: FaultStats,
}

impl FaultPlan {
    /// A plan that injects nothing (every gate closed, no schedule).
    pub fn none() -> FaultPlan {
        FaultPlan::new(&FaultSpec::default(), 0, Nanos::ZERO)
    }

    /// Expand `spec` over `[0, horizon)` using streams derived from
    /// `fault_seed`. The same (spec, seed, horizon) triple always yields
    /// the same plan.
    pub fn new(spec: &FaultSpec, fault_seed: u64, horizon: Nanos) -> FaultPlan {
        let mut root = SimRng::new(fault_seed);
        let mut lifecycle = root.split(STREAM_LIFECYCLE);
        let mailbox_rng = root.split(STREAM_MAILBOX);
        let mut doorbell_rng = root.split(STREAM_DOORBELL);
        let mut irq_rng = root.split(STREAM_IRQ);
        let ring_rng = root.split(STREAM_RING);
        let mut timer_rng = root.split(STREAM_TIMER);

        let span = horizon.as_nanos().max(1);
        let mut scheduled = Vec::new();
        let mut drop_mailbox_p = 0.0;
        let mut corrupt_mailbox_p = 0.0;
        let mut lose_doorbell_p = 0.0;
        let mut lose_irq_p = 0.0;
        let mut corrupt_ring_p = 0.0;

        for clause in &spec.clauses {
            match *clause {
                Clause::CrashAt(at) => scheduled.push(FaultEvent {
                    at,
                    kind: FaultKind::SecondaryCrash,
                }),
                Clause::HangAt(at, stall) => scheduled.push(FaultEvent {
                    at,
                    kind: FaultKind::SecondaryHang { stall },
                }),
                Clause::SpuriousDoorbell(n) => {
                    for _ in 0..n {
                        scheduled.push(FaultEvent {
                            at: Nanos(lifecycle_draw(&mut doorbell_rng, span)),
                            kind: FaultKind::DoorbellSpurious,
                        });
                    }
                }
                Clause::SpuriousIrq(n) => {
                    for _ in 0..n {
                        scheduled.push(FaultEvent {
                            at: Nanos(lifecycle_draw(&mut irq_rng, span)),
                            kind: FaultKind::IrqSpurious,
                        });
                    }
                }
                Clause::DelayTimer(n, extra) => {
                    for _ in 0..n {
                        scheduled.push(FaultEvent {
                            at: Nanos(lifecycle_draw(&mut timer_rng, span)),
                            kind: FaultKind::TimerDelay { extra },
                        });
                    }
                }
                Clause::DropMailbox(p) => drop_mailbox_p = combine(drop_mailbox_p, p),
                Clause::CorruptMailbox(p) => corrupt_mailbox_p = combine(corrupt_mailbox_p, p),
                Clause::LoseDoorbell(p) => lose_doorbell_p = combine(lose_doorbell_p, p),
                Clause::LoseIrq(p) => lose_irq_p = combine(lose_irq_p, p),
                Clause::CorruptRing(p) => corrupt_ring_p = combine(corrupt_ring_p, p),
            }
        }
        // One throwaway draw keeps the lifecycle stream "used" whatever
        // the spec, so adding clauses later cannot silently repurpose it.
        let _ = lifecycle.next_u64();
        scheduled.sort_by_key(|e| e.at);

        FaultPlan {
            scheduled,
            next_scheduled: 0,
            drop_mailbox_p,
            corrupt_mailbox_p,
            lose_doorbell_p,
            lose_irq_p,
            corrupt_ring_p,
            mailbox_rng,
            doorbell_rng,
            irq_rng,
            ring_rng,
            stats: FaultStats::default(),
        }
    }

    /// Does this plan ever inject anything?
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
            && self.drop_mailbox_p == 0.0
            && self.corrupt_mailbox_p == 0.0
            && self.lose_doorbell_p == 0.0
            && self.lose_irq_p == 0.0
            && self.corrupt_ring_p == 0.0
    }

    /// The full expanded schedule (inspection/tests).
    pub fn scheduled(&self) -> &[FaultEvent] {
        &self.scheduled
    }

    /// Time of the next scheduled injection not yet taken.
    pub fn next_scheduled_at(&self) -> Option<Nanos> {
        self.scheduled.get(self.next_scheduled).map(|e| e.at)
    }

    /// Take every scheduled injection due at or before `now`, in order.
    pub fn take_due(&mut self, now: Nanos) -> Vec<FaultEvent> {
        let mut due = Vec::new();
        while let Some(e) = self.scheduled.get(self.next_scheduled) {
            if e.at > now {
                break;
            }
            match e.kind {
                FaultKind::SecondaryCrash => self.stats.crashes += 1,
                FaultKind::SecondaryHang { .. } => self.stats.hangs += 1,
                FaultKind::DoorbellSpurious => self.stats.doorbells_spurious += 1,
                FaultKind::IrqSpurious => self.stats.irqs_spurious += 1,
                FaultKind::TimerDelay { .. } => self.stats.timer_delays += 1,
            }
            due.push(*e);
            self.next_scheduled += 1;
        }
        due
    }

    // -- per-event gates (each on its own stream) ----------------------

    /// Should this mailbox send be dropped in flight?
    pub fn drop_mailbox(&mut self) -> bool {
        if self.drop_mailbox_p > 0.0 && self.mailbox_rng.chance(self.drop_mailbox_p) {
            self.stats.mailbox_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Should this delivered mailbox message be corrupted?
    pub fn corrupt_mailbox(&mut self) -> bool {
        if self.corrupt_mailbox_p > 0.0 && self.mailbox_rng.chance(self.corrupt_mailbox_p) {
            self.stats.mailbox_corrupted += 1;
            true
        } else {
            false
        }
    }

    /// Should this doorbell be swallowed before the device sees it?
    pub fn lose_doorbell(&mut self) -> bool {
        if self.lose_doorbell_p > 0.0 && self.doorbell_rng.chance(self.lose_doorbell_p) {
            self.stats.doorbells_lost += 1;
            true
        } else {
            false
        }
    }

    /// Should this completion IRQ be swallowed before the driver sees it?
    pub fn lose_irq(&mut self) -> bool {
        if self.lose_irq_p > 0.0 && self.irq_rng.chance(self.lose_irq_p) {
            self.stats.irqs_lost += 1;
            true
        } else {
            false
        }
    }

    /// Should this virtqueue publish be corrupted on the ring?
    pub fn corrupt_ring(&mut self) -> bool {
        if self.corrupt_ring_p > 0.0 && self.ring_rng.chance(self.corrupt_ring_p) {
            self.stats.ring_corruptions += 1;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------
// Fabric faults (cluster network)
// ---------------------------------------------------------------------

/// One clause of a fabric fault spec.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FabricClause {
    /// `drop:<p>` — drop each frame in transit with probability p.
    DropFrame(f64),
    /// `reorder:<p>` — hold each frame one extra wire-time with
    /// probability p, letting later traffic overtake it.
    Reorder(f64),
    /// `jitter:<p>:<extra>` — with probability p, delay a frame by a
    /// uniform extra in `[0, extra)`.
    Jitter(f64, Nanos),
    /// `partition@<time>:<dur>:<node>` — the node is unreachable (every
    /// frame to or from it is dropped at the switch) during the window.
    Partition(Nanos, Nanos, u16),
    /// `corrupt:<p>` — with probability p, a frame is delivered with its
    /// payload mangled in transit (the receiver's header checksum is
    /// what catches it).
    Corrupt(f64),
    /// `crashsvc@<time>:<node>` — the service secondary VM on the named
    /// node takes an unrecoverable abort at the given time; the node's
    /// primary must detect and restart it.
    CrashSvc(Nanos, u16),
    /// `tamper@<node>` — the named node's boot-chain measurement is
    /// forged: the evidence it presents during remote attestation does
    /// not match the registry's golden value, so peers must refuse it.
    /// Consumes no randomness — arming it perturbs no other stream.
    Tamper(u16),
}

/// A scheduled service-VM crash on one cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcCrashEvent {
    pub at: Nanos,
    pub node: u16,
}

/// A parsed fabric fault specification (the cluster-side analogue of
/// [`FaultSpec`]): link loss, reordering, delay jitter, in-transit
/// corruption, node partitions, and scheduled service-VM crashes. Feed
/// it to [`FabricFaultPlan::new`] with a seed.
///
/// ```
/// use kh_sim::FabricFaultSpec;
/// let spec = FabricFaultSpec::parse("drop:0.05,corrupt:0.01,crashsvc@10ms:3").unwrap();
/// assert!(!spec.is_empty());
/// assert_eq!(FabricFaultSpec::parse(&spec.to_string()).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricFaultSpec {
    clauses: Vec<FabricClause>,
}

impl FabricFaultSpec {
    /// Parse a comma-separated clause list, e.g.
    /// `drop:0.01,reorder:0.05,jitter:0.1:50us,corrupt:0.02,partition@100ms:40ms:3,crashsvc@50ms:2`.
    pub fn parse(spec: &str) -> Result<FabricFaultSpec, FaultParseError> {
        let mut clauses = Vec::new();
        for raw in spec.split(',') {
            let c = raw.trim();
            if c.is_empty() {
                continue;
            }
            let clause = if let Some(rest) = c.strip_prefix("drop:") {
                FabricClause::DropFrame(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("reorder:") {
                FabricClause::Reorder(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("jitter:") {
                let (p, extra) = rest
                    .split_once(':')
                    .ok_or_else(|| FaultParseError(format!("`{c}` wants jitter:<p>:<extra>")))?;
                FabricClause::Jitter(parse_prob(p)?, parse_time(extra)?)
            } else if let Some(rest) = c.strip_prefix("partition@") {
                let mut parts = rest.splitn(3, ':');
                let err = || FaultParseError(format!("`{c}` wants partition@<time>:<dur>:<node>"));
                let at = parse_time(parts.next().ok_or_else(err)?)?;
                let dur = parse_time(parts.next().ok_or_else(err)?)?;
                let node: u16 = parts
                    .next()
                    .ok_or_else(err)?
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad node in `{c}`")))?;
                FabricClause::Partition(at, dur, node)
            } else if let Some(rest) = c.strip_prefix("corrupt:") {
                FabricClause::Corrupt(parse_prob(rest)?)
            } else if let Some(rest) = c.strip_prefix("crashsvc@") {
                let (at, node) = rest.split_once(':').ok_or_else(|| {
                    FaultParseError(format!("`{c}` wants crashsvc@<time>:<node>"))
                })?;
                let node: u16 = node
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad node in `{c}`")))?;
                FabricClause::CrashSvc(parse_time(at)?, node)
            } else if let Some(rest) = c.strip_prefix("tamper@") {
                let node: u16 = rest
                    .parse()
                    .map_err(|_| FaultParseError(format!("`{c}` wants tamper@<node>")))?;
                FabricClause::Tamper(node)
            } else {
                return Err(FaultParseError(format!("unknown fabric clause `{c}`")));
            };
            clauses.push(clause);
        }
        Ok(FabricFaultSpec { clauses })
    }

    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

impl fmt::Display for FabricFaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match c {
                FabricClause::DropFrame(p) => write!(f, "drop:{p}")?,
                FabricClause::Reorder(p) => write!(f, "reorder:{p}")?,
                FabricClause::Jitter(p, e) => write!(f, "jitter:{p}:{}ns", e.as_nanos())?,
                FabricClause::Partition(t, d, n) => {
                    write!(f, "partition@{}ns:{}ns:{n}", t.as_nanos(), d.as_nanos())?
                }
                FabricClause::Corrupt(p) => write!(f, "corrupt:{p}")?,
                FabricClause::CrashSvc(t, n) => write!(f, "crashsvc@{}ns:{n}", t.as_nanos())?,
                FabricClause::Tamper(n) => write!(f, "tamper@{n}")?,
            }
        }
        Ok(())
    }
}

/// Counters for what the fabric plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricFaultStats {
    /// Frames dropped by the random-loss gate.
    pub frames_dropped: u64,
    /// Frames held back by the reorder gate.
    pub frames_reordered: u64,
    /// Frames delayed by the jitter gate.
    pub frames_jittered: u64,
    /// Frames dropped because an endpoint was partitioned.
    pub partition_drops: u64,
    /// Frames delivered with their payload mangled in transit.
    pub frames_corrupted: u64,
    /// Service-VM crashes injected.
    pub svc_crashes: u64,
}

impl FabricFaultStats {
    /// Total injections across every kind.
    pub fn total(&self) -> u64 {
        self.frames_dropped
            + self.frames_reordered
            + self.frames_jittered
            + self.partition_drops
            + self.frames_corrupted
            + self.svc_crashes
    }
}

/// A deterministic fabric fault plan: per-frame probability gates on
/// dedicated RNG streams plus explicit partition windows. The same
/// (spec, seed) pair always yields the same decisions in frame-arrival
/// order; the streams are split off the same root as [`FaultPlan`]'s but
/// never shared with it, so arming one plan cannot perturb the other.
#[derive(Debug, Clone)]
pub struct FabricFaultPlan {
    drop_p: f64,
    reorder_p: f64,
    jitter_p: f64,
    jitter_extra: Nanos,
    corrupt_p: f64,
    partitions: Vec<(Nanos, Nanos, u16)>,
    svc_crashes: Vec<SvcCrashEvent>,
    tampered: Vec<u16>,
    drop_rng: SimRng,
    reorder_rng: SimRng,
    jitter_rng: SimRng,
    corrupt_rng: SimRng,
    pub stats: FabricFaultStats,
}

impl FabricFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FabricFaultPlan {
        FabricFaultPlan::new(&FabricFaultSpec::default(), 0)
    }

    /// Expand `spec` using streams derived from `fault_seed`.
    pub fn new(spec: &FabricFaultSpec, fault_seed: u64) -> FabricFaultPlan {
        let mut root = SimRng::new(fault_seed);
        let drop_rng = root.split(STREAM_FABRIC_DROP);
        let reorder_rng = root.split(STREAM_FABRIC_REORDER);
        let jitter_rng = root.split(STREAM_FABRIC_JITTER);
        let corrupt_rng = root.split(STREAM_FABRIC_CORRUPT);
        let mut drop_p = 0.0;
        let mut reorder_p = 0.0;
        let mut jitter_p = 0.0;
        let mut corrupt_p = 0.0;
        let mut jitter_extra = Nanos::ZERO;
        let mut partitions = Vec::new();
        let mut svc_crashes = Vec::new();
        let mut tampered = Vec::new();
        for clause in &spec.clauses {
            match *clause {
                FabricClause::DropFrame(p) => drop_p = combine(drop_p, p),
                FabricClause::Reorder(p) => reorder_p = combine(reorder_p, p),
                FabricClause::Jitter(p, extra) => {
                    jitter_p = combine(jitter_p, p);
                    jitter_extra = jitter_extra.max(extra);
                }
                FabricClause::Corrupt(p) => corrupt_p = combine(corrupt_p, p),
                FabricClause::Partition(at, dur, node) => {
                    partitions.push((at, at + dur, node));
                }
                FabricClause::CrashSvc(at, node) => {
                    svc_crashes.push(SvcCrashEvent { at, node });
                }
                FabricClause::Tamper(node) => tampered.push(node),
            }
        }
        svc_crashes.sort_by_key(|e| (e.at, e.node));
        tampered.sort_unstable();
        tampered.dedup();
        FabricFaultPlan {
            drop_p,
            reorder_p,
            jitter_p,
            jitter_extra,
            corrupt_p,
            partitions,
            svc_crashes,
            tampered,
            drop_rng,
            reorder_rng,
            jitter_rng,
            corrupt_rng,
            stats: FabricFaultStats::default(),
        }
    }

    /// Does this plan ever inject anything?
    pub fn is_empty(&self) -> bool {
        self.drop_p == 0.0
            && self.reorder_p == 0.0
            && self.jitter_p == 0.0
            && self.corrupt_p == 0.0
            && self.partitions.is_empty()
            && self.svc_crashes.is_empty()
            && self.tampered.is_empty()
    }

    /// The scheduled service-VM crashes, sorted by (time, node). The
    /// cluster schedules one recovery sequence per entry and reports
    /// each via [`FabricFaultStats::svc_crashes`] when it fires.
    pub fn svc_crash_events(&self) -> &[SvcCrashEvent] {
        &self.svc_crashes
    }

    /// Record that a scheduled service-VM crash actually fired.
    pub fn note_svc_crash(&mut self) {
        self.stats.svc_crashes += 1;
    }

    /// Nodes whose boot-chain measurement is forged (`tamper@<node>`
    /// clauses), sorted and deduplicated. The attestation handshake
    /// consults this list; no randomness is drawn for it, so arming a
    /// tamper clause leaves every other node's streams untouched.
    pub fn tampered_nodes(&self) -> &[u16] {
        &self.tampered
    }

    /// The nodes named by any partition window (healthy-node tests use
    /// this to know which endpoints are victims).
    pub fn partitioned_nodes(&self) -> Vec<u16> {
        let mut nodes: Vec<u16> = self.partitions.iter().map(|&(_, _, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Is `node` inside one of its partition windows at `now`? Counts a
    /// partition drop when true (callers ask exactly once per frame).
    pub fn partitioned(&mut self, node: u16, now: Nanos) -> bool {
        let hit = self
            .partitions
            .iter()
            .any(|&(from, to, n)| n == node && now >= from && now < to);
        if hit {
            self.stats.partition_drops += 1;
        }
        hit
    }

    /// Should this frame be dropped in transit?
    pub fn drop_frame(&mut self) -> bool {
        if self.drop_p > 0.0 && self.drop_rng.chance(self.drop_p) {
            self.stats.frames_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Should this frame arrive with its payload mangled? Corruption is
    /// a delivery fault, not a drop: the frame still arrives (and still
    /// pays wire time); the receiver is expected to catch it by checksum.
    pub fn corrupt_frame(&mut self) -> bool {
        if self.corrupt_p > 0.0 && self.corrupt_rng.chance(self.corrupt_p) {
            self.stats.frames_corrupted += 1;
            // Each hit still draws the salt that once picked the byte to
            // flip. Nothing reads it, but dropping the draw would shift
            // the corrupt stream and move every later corrupt decision.
            self.corrupt_rng.next_u64();
            true
        } else {
            false
        }
    }

    /// Extra hold applied to this frame by the reorder gate: `hold` (one
    /// wire-time, supplied by the switch) with probability p, letting the
    /// next frame on the port overtake this one.
    pub fn reorder_hold(&mut self, hold: Nanos) -> Nanos {
        if self.reorder_p > 0.0 && self.reorder_rng.chance(self.reorder_p) {
            self.stats.frames_reordered += 1;
            hold
        } else {
            Nanos::ZERO
        }
    }

    /// Extra delay jitter for this frame: uniform in `[0, extra)` with
    /// probability p, zero otherwise.
    pub fn jitter(&mut self) -> Nanos {
        if self.jitter_p > 0.0 && self.jitter_rng.chance(self.jitter_p) {
            self.stats.frames_jittered += 1;
            Nanos(
                self.jitter_rng
                    .next_below(self.jitter_extra.as_nanos().max(1)),
            )
        } else {
            Nanos::ZERO
        }
    }
}

/// Uniform injection time over the horizon.
fn lifecycle_draw(rng: &mut SimRng, span: u64) -> u64 {
    rng.next_below(span)
}

/// Combine independent per-event probabilities from repeated clauses:
/// P(either fires) = 1 - (1-a)(1-b).
fn combine(a: f64, b: f64) -> f64 {
    1.0 - (1.0 - a) * (1.0 - b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let spec = FaultSpec::parse(
            "crash@200ms,hang@150ms:2ms,drop-mailbox:0.01,corrupt-mailbox:0.02,\
             lose-doorbell:0.05,spurious-doorbell:8,lose-irq:0.03,spurious-irq:4,\
             delay-timer:16:50us,corrupt-ring:0.1",
        )
        .unwrap();
        assert_eq!(spec.clauses.len(), 10);
        assert_eq!(spec.clauses[0], Clause::CrashAt(Nanos::from_millis(200)));
        assert_eq!(
            spec.clauses[1],
            Clause::HangAt(Nanos::from_millis(150), Nanos::from_millis(2))
        );
        assert_eq!(
            spec.clauses[8],
            Clause::DelayTimer(16, Nanos::from_micros(50))
        );
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(FaultSpec::parse("explode@5ms").is_err());
        assert!(FaultSpec::parse("crash@fast").is_err());
        assert!(FaultSpec::parse("drop-mailbox:1.5").is_err());
        assert!(FaultSpec::parse("hang@5ms").is_err(), "missing duration");
        assert!(FaultSpec::parse("delay-timer:4").is_err(), "missing delay");
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let spec = FaultSpec::parse("").unwrap();
        assert!(spec.is_empty());
        let plan = FaultPlan::new(&spec, 1, Nanos::from_secs(1));
        assert!(plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn display_round_trips() {
        let s = "crash@200000000ns,drop-mailbox:0.01,spurious-irq:4";
        let spec = FaultSpec::parse(s).unwrap();
        assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("spurious-doorbell:16,delay-timer:8:10us").unwrap();
        let a = FaultPlan::new(&spec, 42, Nanos::from_secs(1));
        let b = FaultPlan::new(&spec, 42, Nanos::from_secs(1));
        assert_eq!(a.scheduled(), b.scheduled());
        let c = FaultPlan::new(&spec, 43, Nanos::from_secs(1));
        assert_ne!(
            a.scheduled(),
            c.scheduled(),
            "different seed, different times"
        );
    }

    #[test]
    fn schedule_is_sorted_and_within_horizon() {
        let spec = FaultSpec::parse("spurious-irq:64,spurious-doorbell:64").unwrap();
        let horizon = Nanos::from_millis(10);
        let plan = FaultPlan::new(&spec, 7, horizon);
        assert_eq!(plan.scheduled().len(), 128);
        let mut prev = Nanos::ZERO;
        for e in plan.scheduled() {
            assert!(e.at >= prev, "schedule must be sorted");
            assert!(e.at < horizon, "injection outside horizon");
            prev = e.at;
        }
    }

    #[test]
    fn take_due_fires_once_in_order() {
        let spec = FaultSpec::parse("crash@5ms,hang@2ms:1ms").unwrap();
        let mut plan = FaultPlan::new(&spec, 1, Nanos::from_secs(1));
        assert_eq!(plan.next_scheduled_at(), Some(Nanos::from_millis(2)));
        let due = plan.take_due(Nanos::from_millis(3));
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0].kind, FaultKind::SecondaryHang { .. }));
        let due = plan.take_due(Nanos::from_millis(10));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::SecondaryCrash);
        assert!(plan.take_due(Nanos::from_secs(1)).is_empty());
        assert_eq!(plan.stats.crashes, 1);
        assert_eq!(plan.stats.hangs, 1);
    }

    #[test]
    fn gates_draw_from_independent_streams() {
        let spec = FaultSpec::parse("drop-mailbox:0.5,lose-doorbell:0.5,lose-irq:0.5").unwrap();
        // Interleaving order of *different* gates must not change any
        // single gate's decision sequence.
        let mut a = FaultPlan::new(&spec, 9, Nanos::from_secs(1));
        let mut b = FaultPlan::new(&spec, 9, Nanos::from_secs(1));
        let seq_a: Vec<bool> = (0..64).map(|_| a.drop_mailbox()).collect();
        // b consults the doorbell and IRQ gates between mailbox draws.
        let seq_b: Vec<bool> = (0..64)
            .map(|_| {
                let _ = b.lose_doorbell();
                let _ = b.lose_irq();
                b.drop_mailbox()
            })
            .collect();
        assert_eq!(seq_a, seq_b, "streams must be independent per component");
    }

    #[test]
    fn repeated_probability_clauses_combine() {
        let spec = FaultSpec::parse("drop-mailbox:0.5,drop-mailbox:0.5").unwrap();
        let plan = FaultPlan::new(&spec, 1, Nanos::from_secs(1));
        assert!((plan.drop_mailbox_p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fabric_spec_parses_and_round_trips() {
        let s = "drop:0.01,reorder:0.05,jitter:0.1:50000ns,partition@100000000ns:40000000ns:3";
        let spec = FabricFaultSpec::parse(s).unwrap();
        assert_eq!(spec.clauses.len(), 4);
        assert_eq!(FabricFaultSpec::parse(&spec.to_string()).unwrap(), spec);
        assert!(FabricFaultSpec::parse("explode:0.5").is_err());
        assert!(
            FabricFaultSpec::parse("jitter:0.5").is_err(),
            "missing extra"
        );
        assert!(
            FabricFaultSpec::parse("partition@5ms:2ms").is_err(),
            "missing node"
        );
        assert!(FabricFaultSpec::parse("").unwrap().is_empty());
        assert!(FabricFaultPlan::none().is_empty());
    }

    #[test]
    fn fabric_corrupt_and_crashsvc_parse_and_round_trip() {
        let s = "corrupt:0.01,crashsvc@25000000ns:3,crashsvc@5000000ns:1";
        let spec = FabricFaultSpec::parse(s).unwrap();
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(FabricFaultSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(
            spec.clauses[1],
            FabricClause::CrashSvc(Nanos::from_millis(25), 3)
        );
        assert!(FabricFaultSpec::parse("crashsvc@5ms").is_err(), "no node");
        assert!(FabricFaultSpec::parse("crashsvc@5ms:x").is_err());
        assert!(FabricFaultSpec::parse("corrupt:2").is_err(), "p > 1");
        // Tamper clauses round-trip, dedupe, and draw no randomness.
        let t = FabricFaultSpec::parse("tamper@2,tamper@2,tamper@1").unwrap();
        assert_eq!(FabricFaultSpec::parse(&t.to_string()).unwrap(), t);
        let tplan = FabricFaultPlan::new(&t, 9);
        assert!(!tplan.is_empty());
        assert_eq!(tplan.tampered_nodes(), &[1, 2]);
        assert!(FabricFaultSpec::parse("tamper@x").is_err());
        // Crash events come out sorted by time regardless of spec order.
        let plan = FabricFaultPlan::new(&spec, 1);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.svc_crash_events(),
            &[
                SvcCrashEvent {
                    at: Nanos::from_millis(5),
                    node: 1
                },
                SvcCrashEvent {
                    at: Nanos::from_millis(25),
                    node: 3
                },
            ]
        );
    }

    #[test]
    fn fabric_corrupt_gate_is_seeded_and_counted() {
        let spec = FabricFaultSpec::parse("corrupt:0.5").unwrap();
        let draw = |seed| {
            let mut p = FabricFaultPlan::new(&spec, seed);
            let out: Vec<bool> = (0..64).map(|_| p.corrupt_frame()).collect();
            (out, p.stats.frames_corrupted)
        };
        let (a, hits) = draw(7);
        assert_eq!(draw(7), (a.clone(), hits), "same seed, same gates");
        assert_ne!(draw(8).0, a, "different seed, different gate sequence");
        assert!(hits > 0 && hits < 64, "p=0.5 should mix over 64 frames");
        assert_eq!(hits, a.iter().filter(|&&hit| hit).count() as u64);
        // The corrupt stream is independent of the drop stream.
        let both = FabricFaultSpec::parse("corrupt:0.5,drop:0.5").unwrap();
        let mut p = FabricFaultPlan::new(&both, 7);
        let interleaved: Vec<bool> = (0..64)
            .map(|_| {
                let _ = p.drop_frame();
                p.corrupt_frame()
            })
            .collect();
        assert_eq!(interleaved, a, "drop draws must not perturb corrupt");
    }

    #[test]
    fn fabric_partition_windows_hit_only_their_node() {
        let spec = FabricFaultSpec::parse("partition@10ms:5ms:2").unwrap();
        let mut plan = FabricFaultPlan::new(&spec, 1);
        assert_eq!(plan.partitioned_nodes(), vec![2]);
        assert!(!plan.partitioned(2, Nanos::from_millis(9)));
        assert!(plan.partitioned(2, Nanos::from_millis(12)));
        assert!(
            !plan.partitioned(1, Nanos::from_millis(12)),
            "other node unaffected"
        );
        assert!(
            !plan.partitioned(2, Nanos::from_millis(15)),
            "window is half-open"
        );
        assert_eq!(plan.stats.partition_drops, 1);
    }

    #[test]
    fn fabric_gates_draw_from_independent_streams() {
        let spec = FabricFaultSpec::parse("drop:0.5,reorder:0.5,jitter:0.5:10us").unwrap();
        let mut a = FabricFaultPlan::new(&spec, 9);
        let mut b = FabricFaultPlan::new(&spec, 9);
        let seq_a: Vec<bool> = (0..64).map(|_| a.drop_frame()).collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|_| {
                let _ = b.reorder_hold(Nanos(100));
                let _ = b.jitter();
                b.drop_frame()
            })
            .collect();
        assert_eq!(seq_a, seq_b, "fabric streams must be independent per gate");
    }

    #[test]
    fn fabric_plan_is_deterministic_per_seed() {
        let spec = FabricFaultSpec::parse("drop:0.3,jitter:0.4:20us").unwrap();
        let decisions = |seed| {
            let mut p = FabricFaultPlan::new(&spec, seed);
            let d: Vec<(bool, Nanos)> = (0..128).map(|_| (p.drop_frame(), p.jitter())).collect();
            (d, p.stats)
        };
        assert_eq!(decisions(5), decisions(5));
        assert_ne!(decisions(5), decisions(6));
    }

    #[test]
    fn fabric_jitter_stays_below_extra() {
        let spec = FabricFaultSpec::parse("jitter:1.0:10us").unwrap();
        let mut plan = FabricFaultPlan::new(&spec, 2);
        for _ in 0..256 {
            let j = plan.jitter();
            assert!(j < Nanos::from_micros(10));
        }
        assert_eq!(plan.stats.frames_jittered, 256);
    }

    #[test]
    fn gate_rates_are_plausible() {
        let spec = FaultSpec::parse("drop-mailbox:0.25").unwrap();
        let mut plan = FaultPlan::new(&spec, 3, Nanos::from_secs(1));
        let hits = (0..10_000).filter(|_| plan.drop_mailbox()).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
        assert_eq!(plan.stats.mailbox_dropped, hits as u64);
    }
}

//! The cluster executor: every run, single-tier svcload or a multi-tier
//! scenario, goes through one event loop.
//!
//! A parsed [`Scenario`] runs over the booted nodes and fabric as an
//! arbitrary-depth fan-out tree:
//!
//! ```text
//! client --request--> frontend --d1 legs--> tier-1 --d2 legs--> tier-2 ...
//! client <--response- frontend <--joins---- tier-1 <--joins---- tier-2 ...
//! ```
//!
//! svcload is the depth-0 case: one leg per request, served by the
//! frontend alone. [`crate::cluster::run`] lowers a scenario-less
//! [`ClusterConfig`] to `arrive=exp:<mean_interarrival>` at depth 0 and
//! runs it here like any other scenario, so both draw from the same
//! arrival generator and stream roots.
//!
//! Each server that owns a non-leaf leg is that leg's *coordinator*: it
//! serves its own phase, fans out `d` child legs to distinct peers, and
//! answers upstream when its join resolves — every child for
//! wait-for-all, the first `k` successes for quorum-k. A failed child
//! (shed, deadline-expired, corrupt, or refused) counts against the
//! join; once the quorum is arithmetically impossible the coordinator
//! NACKs upstream immediately. Every leg and every client request ends
//! in a terminal [`RequestOutcome`]; legs are appended to the report's
//! records with their tier index, so the run trace CSV carries the
//! whole tree.
//!
//! **Reliability per leg.** Every leg, the client's own included, runs
//! the same terminal-outcome pipeline: deadline, jittered-backoff
//! retransmits, hedged sends, and — under the adaptive policy —
//! per-destination [`WindowedQuantile`] hedge trackers, retry budgets,
//! and circuit breakers keyed by *(tier, destination)*, so a breaker
//! tripped by tier-2 silence never gates tier-1 sends to the same node.
//! The `retry=<leg>:off|static|adaptive` clauses override the
//! config-wide default per tier. Leaf servers dedupe retransmits
//! through the node response cache (at-most-once execution);
//! coordinators replay their join answer to duplicate requests once the
//! join has resolved.
//!
//! **Crash recovery.** Scheduled `crashsvc@t:node` faults kill the
//! victim's service VM, which drops frames while down (`crash_drops`);
//! the Kitten primary detects and restarts it on the cluster clock, and
//! each incident lands in the report's [`RecoveryRecord`]s.
//! Crash-window time-stealing is deterministic whether or not traffic
//! hits the victim, so healthy-node noise histograms stay bit-identical
//! to a fault-free run.
//!
//! Randomness discipline: nodes ("khclus"), arrivals ("khscna"),
//! service multipliers ("khscns"), HPC neighbors ("khscnh"),
//! closed-loop think times ("khscnt"), retry backoff jitter ("khsrty"),
//! and breaker reopen jitter ("khsbrk") each ride their own stream root
//! split off the run seed, and per-leg draws are keyed by [`leg_seed`] —
//! a pure function of (root, id, leg).
//! Arming reliability, closed-loop clients, or crash faults therefore
//! never perturbs arrival, noise, or fabric fault draws, which the
//! bench gates assert byte-for-byte.

use crate::cluster::{
    ClusterConfig, ClusterReport, NodeReport, RecoveryRecord, ReliabilityStats, RequestRecord,
    ARRIVAL_BATCH,
};
use crate::fabric::Fabric;
use crate::node::{AdmissionPolicy, Node, Role};
use kh_arch::cpu::Phase;
use kh_core::config::StackKind;
use kh_metrics::hist::LogHistogram;
use kh_metrics::quantile::WindowedQuantile;
use kh_scenario::{leg_seed, ArrivalProcess, JoinPolicy, RetryMode, Scenario, ServiceDist};
use kh_sim::{EventQueue, FabricFaultPlan, Nanos, SimRng};
use kh_virtio::LinkProfile;
use kh_workloads::adaptive::{CircuitBreaker, RetryBudget};
use kh_workloads::svcload::{FrameHeader, FrameKind, RequestOutcome, RetryPolicy};

/// High bits of the frame id carry the leg's tree index (0 = the
/// client's own request, n >= 1 = the n-th leg of the breadth-first
/// flattened fan-out tree), so one id namespace covers the whole
/// request tree and replies self-identify. `Scenario::validate`
/// guarantees the tree fits the 16 bits above this shift.
const LEG_SHIFT: u32 = 48;

fn leg_frame_id(id: u64, leg: u32) -> u64 {
    id | ((leg as u64) << LEG_SHIFT)
}

fn split_frame_id(raw: u64) -> (u64, u32) {
    (raw & ((1u64 << LEG_SHIFT) - 1), (raw >> LEG_SHIFT) as u32)
}

/// The header of a frame on leg `leg` of request `id`.
fn leg_header(
    id: u64,
    leg: usize,
    client: u16,
    sent: Nanos,
    kind: FrameKind,
    attempt: u8,
) -> FrameHeader {
    FrameHeader::new(leg_frame_id(id, leg as u32), client, sent, kind, attempt)
}

/// A frame in flight, modelled at transaction level: its header, its
/// wire length (`SvcLoadConfig::wire_bytes`), and whether the fabric's
/// corrupt gate fired on it. Simulated time reads nothing else. On the
/// byte encoding in `kh_workloads::svcload`, a corrupt hit changes one
/// byte past the header (or a checksum byte), and FNV-1a catches any
/// single-byte change, so `corrupt` is exactly the codec's verdict and
/// the header survives it (`tests/properties.rs` checks this).
#[derive(Clone, Copy)]
struct Frame {
    hdr: FrameHeader,
    len: usize,
    corrupt: bool,
}

/// Scale a service phase by a sampled mean-1 multiplier: the request
/// does proportionally more work over the same working set.
fn scale_phase(base: &Phase, m: f64) -> Phase {
    let s = |v: u64| ((v as f64) * m).round() as u64;
    Phase {
        instructions: s(base.instructions).max(1),
        mem_refs: s(base.mem_refs),
        flops: s(base.flops),
        footprint: base.footprint,
        dram_bytes: s(base.dram_bytes),
        pattern: base.pattern,
    }
}

/// The spec's fan-out tree flattened breadth-first, with per-tier
/// degrees clamped to the server count minus one (a coordinator never
/// calls itself). Tier `t` occupies leg indices
/// `start[t] .. start[t] + count[t]`; parent/child arithmetic is pure
/// index math, so no per-request tree allocation is needed.
struct LegTree {
    /// Effective degree of tier `t` at index `t - 1`.
    degrees: Vec<usize>,
    /// Successful children needed per tier-`t` join, at index `t - 1`.
    needed: Vec<u32>,
    /// First leg index of tier `t` (start[0] == 0, the client leg).
    start: Vec<usize>,
    /// Legs per tier.
    count: Vec<usize>,
    /// Total legs per request.
    total: usize,
    /// Non-leaf legs per request: legs `0..coordinators`, the ones
    /// whose destination fans out and joins (0 at depth 0).
    coordinators: usize,
}

impl LegTree {
    fn build(scn: &Scenario, servers: usize) -> LegTree {
        let cap = servers.saturating_sub(1);
        let mut degrees = Vec::new();
        for d in scn.tier_degrees() {
            let eff = d.min(cap);
            if eff == 0 {
                break;
            }
            degrees.push(eff);
        }
        let needed = degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| match scn.tier_join(i + 1) {
                JoinPolicy::All => d as u32,
                JoinPolicy::Quorum(k) => k.min(d as u32),
            })
            .collect();
        let mut start = vec![0usize];
        let mut count = vec![1usize];
        for &d in &degrees {
            start.push(start.last().unwrap() + count.last().unwrap());
            count.push(count.last().unwrap() * d);
        }
        let total = start.last().unwrap() + count.last().unwrap();
        let coordinators = *start.last().unwrap();
        LegTree {
            degrees,
            needed,
            start,
            count,
            total,
            coordinators,
        }
    }

    fn depth(&self) -> usize {
        self.degrees.len()
    }

    /// Which tier a leg index belongs to (0 = the client leg).
    fn tier_of(&self, leg: usize) -> usize {
        let mut t = 0;
        while leg >= self.start[t] + self.count[t] {
            t += 1;
        }
        t
    }

    /// The coordinator leg this leg reports to. Caller guarantees
    /// `leg >= 1`.
    fn parent(&self, leg: usize) -> usize {
        let t = self.tier_of(leg);
        self.start[t - 1] + (leg - self.start[t]) / self.degrees[t - 1]
    }

    /// The `j`-th child of a non-leaf leg.
    fn child(&self, leg: usize, j: usize) -> usize {
        let t = self.tier_of(leg);
        self.start[t + 1] + (leg - self.start[t]) * self.degrees[t] + j
    }
}

/// Aggregate counters a scenario run adds on top of [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Canonical rendering of the executed spec.
    pub spec: String,
    /// Fan-out degree actually used at tier 1 (the spec degree clamped
    /// to the server count minus one — a frontend never calls itself).
    pub fanout: usize,
    /// Effective fan-out depth (tiers of backend legs actually run).
    pub depth: usize,
    pub legs_sent: u64,
    pub legs_ok: u64,
    /// Legs refused by backend admission control.
    pub legs_shed: u64,
    /// Legs that never resolved in time (lost in the fabric, corrupt,
    /// or deadline-expired).
    pub legs_failed: u64,
    /// Legs never dispatched: the backend failed attestation and is
    /// quarantined.
    pub legs_refused: u64,
    /// Leg responses that arrived after their join had already
    /// resolved (quorum already met, or already failed).
    pub late_legs: u64,
    pub joins_ok: u64,
    pub joins_failed: u64,
    /// Backend leg latency as observed by each coordinator (dispatch
    /// to leg-response arrival), across every tier >= 1.
    pub tier1: LogHistogram,
    /// Nodes that actually hosted an HPC neighbor.
    pub hpc_nodes: Vec<u16>,
    /// Neighbor occupancy below the horizon, summed over those nodes.
    pub hpc_quanta: u64,
    pub hpc_busy: Nanos,
}

/// Issuer-side state of one leg, the client's own leg 0 included. Legs
/// live in one flat arena at `id * LegTree::total + leg`; a slot whose
/// parent never served keeps `attempts == 0` and produces no trace row.
#[derive(Clone, Copy)]
struct LegState {
    /// First-send time; every retransmit and reply echoes it.
    sent: Nanos,
    /// When the response arrived; `Nanos::MAX` until one does (a
    /// sentinel rather than an `Option` keeps the slot at 32 B). The
    /// deadline is not stored: retry and hedge timers exist only under
    /// a policy, and recompute it as `sent + policy.deadline`.
    completed: Nanos,
    /// Issuer (the client for leg 0, the parent's server otherwise).
    src: u16,
    dst: u16,
    /// Transmissions so far; 0 = never issued.
    attempts: u32,
    outcome: RequestOutcome,
    hedge_attempt: Option<u8>,
    /// Index of the next backoff step. The schedule itself is a pure
    /// function of the leg's seed, recomputed when a retry fires.
    next_backoff: u8,
    /// Terminal at the issuer.
    resolved: bool,
    nack_seen: bool,
    corrupt_seen: bool,
}

impl LegState {
    const NEW: LegState = LegState {
        sent: Nanos::ZERO,
        completed: Nanos::MAX,
        src: 0,
        dst: 0,
        attempts: 0,
        outcome: RequestOutcome::Failed,
        hedge_attempt: None,
        next_backoff: 0,
        resolved: false,
        nack_seen: false,
        corrupt_seen: false,
    };
}

/// Coordinator-side state of one non-leaf leg, at its destination.
/// Lives in its own arena at `id * LegTree::coordinators + leg`, which
/// is empty at depth 0.
#[derive(Clone, Copy)]
struct CoordState {
    /// The destination admitted this leg and began serving (fan-out
    /// runs at most once per leg).
    started: bool,
    join_done: bool,
    /// Attempt number of the request copy that was admitted; the
    /// upstream answer echoes it so hedge wins are attributed.
    serve_attempt: u8,
    /// The join answer already sent upstream, replayed to duplicate
    /// requests that arrive after resolution.
    answer: Option<FrameKind>,
    ok_children: u32,
    bad_children: u32,
    serve_done: Nanos,
    answer_at: Nanos,
}

impl CoordState {
    const NEW: CoordState = CoordState {
        started: false,
        join_done: false,
        serve_attempt: 0,
        answer: None,
        ok_children: 0,
        bad_children: 0,
        serve_done: Nanos::ZERO,
        answer_at: Nanos::ZERO,
    };
}

/// Resolved reliability policy for one tier's legs.
struct TierCtl {
    /// Deadline/backoff/hedge base. `None` = fire-and-forget.
    base: Option<RetryPolicy>,
    /// Adaptive layer armed: live hedge quantiles, budgets, breakers.
    adaptive: bool,
}

/// Per-(tier, destination) adaptive reliability state — a breaker
/// tripped by tier-2 silence never gates tier-1 sends to the same
/// node.
struct DestState {
    tracker: WindowedQuantile,
    budget: RetryBudget,
    breaker: CircuitBreaker,
}

enum Ev {
    Arrival { client: u16 },
    SessionNext { client: u16, session: u16 },
    Deliver { dst: u16, frame: Frame },
    Retry { id: u64, leg: u32 },
    Hedge { id: u64, leg: u32 },
    Deadline { id: u64, leg: u32 },
    CrashSvc { node: u16 },
    RestartSvc { node: u16 },
}

/// Run `scn` over a freshly booted cluster. Called only by
/// [`crate::cluster::run`].
pub(crate) fn execute(cfg: &ClusterConfig, scn: &Scenario) -> ClusterReport {
    let clients = cfg.clients();
    let servers = cfg.servers();
    let total = clients + servers;
    // Everything in flight must land before noise accounting stops;
    // requests arrive only inside `duration`, so one extra window of
    // slack comfortably covers queued tails.
    let horizon = cfg.svcload.duration + cfg.svcload.duration + Nanos::from_millis(50);
    let tree = LegTree::build(scn, servers);
    let fanout = tree.degrees.first().copied().unwrap_or(0);
    let depth = tree.depth();

    // Node boot: one stream per node index off the "khclus" root. A
    // scenario changes traffic, not machines.
    let mut node_seeds = SimRng::new(cfg.seed ^ 0x6B68_636C_7573); // "khclus"
    let mut nodes: Vec<Node> = (0..total)
        .map(|i| {
            let role = if i < clients {
                Role::Client
            } else {
                Role::Server
            };
            let stack = match role {
                Role::Client => StackKind::HafniumKitten,
                Role::Server => cfg.server_stack,
            };
            Node::new(
                i as u16,
                role,
                stack,
                cfg.platform,
                node_seeds.split(i as u64).next_u64(),
            )
        })
        .collect();

    // Dedicated streams, all split off the run seed: service
    // multipliers ("khscns"), HPC neighbors ("khscnh"), closed-loop
    // think time ("khscnt"), open-loop arrivals ("khscna", one split per
    // client), retry backoff jitter ("khsrty") and breaker reopen jitter
    // ("khsbrk"). None of these roots are shared with noise or fabric
    // fault streams — nor with each other — so arming any one layer
    // perturbs nothing else.
    let mut arrival_seeds = SimRng::new(cfg.seed ^ 0x6B68_7363_6E61); // "khscna"
    let mut arrivals: Vec<ArrivalProcess> = (0..clients)
        .map(|c| {
            let seed = arrival_seeds.split(c as u64).next_u64();
            ArrivalProcess::new(scn.arrival, cfg.svcload.duration, seed)
        })
        .collect();
    let svc_root = SimRng::new(cfg.seed ^ 0x6B68_7363_6E73).next_u64();
    let retry_root = SimRng::new(cfg.seed ^ 0x6B68_7372_7479).next_u64(); // "khsrty"
    let mut hpc_seeds = SimRng::new(cfg.seed ^ 0x6B68_7363_6E68);
    let mut hpc_nodes: Vec<u16> = Vec::new();
    if let Some(colo) = &scn.colocate {
        for &idx in &colo.nodes {
            // Seeds are drawn per listed node (in-range or not) so the
            // schedule on node k never depends on which other indices
            // were listed.
            let seed = hpc_seeds.split(idx as u64).next_u64();
            if (idx as usize) < total {
                nodes[idx as usize].colocate_hpc(colo.kind, seed);
                hpc_nodes.push(idx);
            }
        }
    }

    // Per-tier reliability controls: the config-wide default (adaptive
    // beats static beats off) overridden by any `retry=` clause. Tier 0
    // is the client's own request.
    let default_mode = if cfg.adaptive.is_some() {
        RetryMode::Adaptive
    } else if cfg.retry.is_some() {
        RetryMode::Static
    } else {
        RetryMode::Off
    };
    let apol = cfg.adaptive.unwrap_or_default();
    let static_base = cfg.retry.unwrap_or(apol.retry);
    let tier_ctl: Vec<TierCtl> = (0..=depth as u32)
        .map(|t| match scn.retry_mode(t, default_mode) {
            RetryMode::Off => TierCtl {
                base: None,
                adaptive: false,
            },
            RetryMode::Static => TierCtl {
                base: Some(static_base),
                adaptive: false,
            },
            RetryMode::Adaptive => TierCtl {
                base: Some(apol.retry),
                adaptive: true,
            },
        })
        .collect();
    let any_adaptive = tier_ctl.iter().any(|c| c.adaptive);
    // CoDel admission comes with the config-wide adaptive policy;
    // per-tier `retry=` overrides change sender behavior only.
    let admission = match &cfg.adaptive {
        Some(a) => AdmissionPolicy::CoDel {
            target: a.codel_target,
            interval: a.codel_interval,
        },
        None => cfg.admission,
    };
    let dix = |tier: usize, dst: u16| tier * servers + (dst as usize - clients);
    let mut dest_state: Vec<DestState> = if any_adaptive {
        // One reopen-jitter stream per (tier, server) slot, in `dix`
        // order.
        let mut breaker_seeds = SimRng::new(cfg.seed ^ 0x6B68_7362_726B); // "khsbrk"
        (0..(depth + 1) * servers)
            .map(|i| DestState {
                tracker: WindowedQuantile::new(apol.window),
                budget: RetryBudget::new(apol.budget_percent, apol.budget_burst),
                breaker: CircuitBreaker::new(
                    apol.breaker_threshold,
                    apol.breaker_open_base,
                    apol.breaker_jitter,
                    breaker_seeds.split(i as u64),
                ),
            })
            .collect()
    } else {
        Vec::new()
    };
    // Closed-loop sessions with `retry=client:off` still need a timer
    // to pace the next request off a lost reply; it resolves the
    // request exactly like the end-of-run sweep would.
    let session_deadline = RetryPolicy::default().deadline;

    let mut fabric = Fabric::new(
        LinkProfile::from_platform(&cfg.platform),
        scn.queue_depth.unwrap_or(cfg.queue_depth),
        total,
    );
    if let Some((spec, fault_seed)) = &cfg.faults {
        fabric.faults = FabricFaultPlan::new(spec, *fault_seed);
    }

    // Attestation happens at bring-up, before the first arrival: every
    // node sweeps its peers, and anyone whose evidence fails the
    // registry is quarantined for the whole run. The handshake draws
    // from its own stream roots and mutates no node, so arming it (or
    // a tamper clause) leaves every other stream byte-identical.
    // Quarantined frontends refuse client requests; quarantined
    // backends have their legs refused by the coordinator.
    let attestation = cfg.attest.then(|| {
        crate::attest::handshake(
            &nodes,
            cfg.seed,
            fabric.faults.tampered_nodes(),
            &LinkProfile::from_platform(&cfg.platform),
        )
    });
    let quarantined: Vec<u16> = attestation
        .as_ref()
        .map(|a| a.quarantined.clone())
        .unwrap_or_default();

    let base_phase = cfg.svcload.service_phase();
    let mut q: EventQueue<Ev> = EventQueue::new();
    // The NICs price a frame by its length alone, so one buffer of
    // zeros the size of the largest frame serves every send and receive.
    let lengths = [FrameKind::Request, FrameKind::Response, FrameKind::Nack]
        .map(|k| cfg.svcload.wire_bytes(k));
    let zeros = vec![0u8; lengths.into_iter().max().unwrap_or(0)];
    // Open loop: each client keeps `ARRIVAL_BATCH` future arrivals
    // filed and refills when the last one fires, amortising generator
    // re-entry across K events. Closed loop: one SessionNext per
    // session, paced by its own think-time stream; the first request
    // of each session fires after one think draw, staggering sessions
    // deterministically.
    let mut arrival_buf: Vec<Nanos> = Vec::with_capacity(ARRIVAL_BATCH);
    let mut outstanding: Vec<usize> = vec![0; clients];
    let mut think_rngs: Vec<SimRng> = Vec::new();
    if let Some(cl) = &scn.clients {
        let mut think_seeds = SimRng::new(cfg.seed ^ 0x6B68_7363_6E74); // "khscnt"
        for i in 0..clients * cl.sessions {
            think_rngs.push(think_seeds.split(i as u64));
        }
        for c in 0..clients {
            for s in 0..cl.sessions {
                let m = cl.think.sample(&mut think_rngs[c * cl.sessions + s]);
                let at = Nanos((cl.think_mean.as_nanos() as f64 * m).round() as u64);
                if at < cfg.svcload.duration {
                    q.schedule_at(
                        at,
                        Ev::SessionNext {
                            client: c as u16,
                            session: s as u16,
                        },
                    );
                }
            }
        }
    } else {
        for (c, gen) in arrivals.iter_mut().enumerate() {
            arrival_buf.clear();
            let n = gen.next_arrivals(ARRIVAL_BATCH, &mut arrival_buf);
            for &t in &arrival_buf[..n] {
                q.schedule_at(t, Ev::Arrival { client: c as u16 });
            }
            outstanding[c] = n;
        }
    }
    // Scheduled service-VM crashes become events; each is detected and
    // recovered by the node's own primary, on the cluster clock.
    for e in fabric.faults.svc_crash_events().to_vec() {
        q.schedule_at(e.at, Ev::CrashSvc { node: e.node });
    }

    // During the run `records` holds exactly the tier-0 rows, so a
    // request's id is its row index; leg rows are appended at the end.
    let mut records: Vec<RequestRecord> = Vec::new();
    let mut legs: Vec<LegState> = Vec::new();
    let mut coords: Vec<CoordState> = Vec::new();
    // Closed loop only: the session that issued each request.
    let mut sessions: Vec<u16> = Vec::new();
    let lx = |id: u64, leg: usize| id as usize * tree.total + leg;
    let cx = |id: u64, leg: usize| id as usize * tree.coordinators + leg;
    let mut latency = LogHistogram::for_latency();
    let mut rel = ReliabilityStats::default();
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    let mut stats = ScenarioStats {
        spec: scn.to_string(),
        fanout,
        depth,
        legs_sent: 0,
        legs_ok: 0,
        legs_shed: 0,
        legs_failed: 0,
        legs_refused: 0,
        late_legs: 0,
        joins_ok: 0,
        joins_failed: 0,
        tier1: LogHistogram::for_latency(),
        hpc_nodes,
        hpc_quanta: 0,
        hpc_busy: Nanos::ZERO,
    };
    let mut sent = 0u64;
    let mut completed = 0u64;

    // Route one frame through a node's NIC and the fabric; the corrupt
    // gate's verdict rides along to the receiver.
    macro_rules! push_frame {
        ($src:expr, $dst:expr, $hdr:expr, $at:expr) => {{
            let hdr: FrameHeader = $hdr;
            let len = cfg.svcload.wire_bytes(hdr.kind);
            let enter = nodes[$src as usize].send($at, &zeros[..len], horizon);
            if let Some(d) = fabric.transit($src, $dst, len as u64, enter) {
                let frame = Frame {
                    hdr,
                    len,
                    corrupt: d.corrupt,
                };
                q.schedule_at(d.at, Ev::Deliver { dst: $dst, frame });
            }
        }};
    }

    // Closed loop: pace the owning session's next request off this
    // request's terminal resolution. Draws ride the session's own
    // think stream; no-op for open-loop requests.
    macro_rules! session_continue {
        ($id:expr, $at:expr) => {{
            let id = $id as usize;
            if let Some(&sess) = sessions.get(id) {
                let cl = scn.clients.as_ref().expect("session implies closed loop");
                let client = records[id].client;
                let ix = client as usize * cl.sessions + sess as usize;
                let m = cl.think.sample(&mut think_rngs[ix]);
                let at = $at + Nanos((cl.think_mean.as_nanos() as f64 * m).round() as u64);
                if at < cfg.svcload.duration {
                    q.schedule_at(
                        at,
                        Ev::SessionNext {
                            client,
                            session: sess,
                        },
                    );
                }
            }
        }};
    }

    // First-send of one leg: arm its deadline/backoff/hedge timers per
    // its tier's policy, earn retry budget, and transmit. Backoff
    // schedules ride the "khsrty" root keyed by (id, leg); adaptive
    // hedge delays follow the (tier, destination) live quantile, and
    // only once the tracker has seen enough completions to know the
    // distribution — the cold-start guard.
    macro_rules! issue_leg {
        ($id:expr, $leg:expr, $src:expr, $dst:expr, $at:expr) => {{
            let (id, leg, src, dst): (u64, usize, u16, u16) = ($id, $leg, $src, $dst);
            let at: Nanos = $at;
            let tier = tree.tier_of(leg);
            let ctl = &tier_ctl[tier];
            if leg > 0 {
                stats.legs_sent += 1;
            }
            let mut next_backoff = 0u8;
            if let Some(policy) = &ctl.base {
                let deadline_at = at + policy.deadline;
                q.schedule_at(
                    deadline_at,
                    Ev::Deadline {
                        id,
                        leg: leg as u32,
                    },
                );
                let seed = leg_seed(retry_root, id, leg as u32);
                if let Some(&first) = policy.backoff_schedule(seed).first() {
                    let t = at + first;
                    if t < deadline_at {
                        q.schedule_at(
                            t,
                            Ev::Retry {
                                id,
                                leg: leg as u32,
                            },
                        );
                    }
                    next_backoff = 1;
                }
                let hedge_delay = if ctl.adaptive {
                    let d = &dest_state[dix(tier, dst)];
                    if d.tracker.recorded() >= apol.hedge_min_samples {
                        let (qn, qd) = apol.hedge_quantile;
                        d.tracker
                            .quantile(qn, qd)
                            .map(|v| Nanos(v).max(apol.hedge_floor))
                    } else {
                        None
                    }
                } else {
                    policy.hedge_delay
                };
                if let Some(h) = hedge_delay {
                    let t = at + h;
                    if t < deadline_at {
                        q.schedule_at(
                            t,
                            Ev::Hedge {
                                id,
                                leg: leg as u32,
                            },
                        );
                    }
                }
            } else if leg == 0 && scn.clients.is_some() {
                q.schedule_at(at + session_deadline, Ev::Deadline { id, leg: 0 });
            }
            if ctl.adaptive {
                // First sends are never gated; they earn budget.
                dest_state[dix(tier, dst)].budget.on_send();
            }
            {
                let lst = &mut legs[lx(id, leg)];
                lst.src = src;
                lst.dst = dst;
                lst.sent = at;
                lst.attempts = 1;
                lst.next_backoff = next_backoff;
            }
            let hdr = leg_header(id, leg, src, at, FrameKind::Request, 0);
            push_frame!(src, dst, hdr, at);
        }};
    }

    // A coordinator's join resolved: send the answer upstream (to the
    // client for leg 0), recording it for duplicate-request replay. A
    // crashed coordinator cannot transmit — its parent's own timers
    // own recovery.
    macro_rules! answer_upstream {
        ($id:expr, $leg:expr, $kind:expr, $at:expr) => {{
            let (id, leg): (u64, usize) = ($id, $leg);
            let kind: FrameKind = $kind;
            let (attempt, t) = {
                let c = &mut coords[cx(id, leg)];
                let t = Nanos::max($at, c.serve_done);
                c.answer = Some(kind);
                c.answer_at = t;
                (c.serve_attempt, t)
            };
            let (cnode, to, first_sent) = {
                let lst = &legs[lx(id, leg)];
                (lst.dst, lst.src, lst.sent)
            };
            if !nodes[cnode as usize].is_crashed() {
                let hdr = leg_header(id, leg, to, first_sent, kind, attempt);
                push_frame!(cnode, to, hdr, t);
            }
        }};
    }

    // A child leg reached a terminal outcome: feed its parent's join.
    // `arrived` marks resolutions carried by a frame landing at the
    // coordinator (those count as late once the join is done); timer
    // resolutions pass false.
    macro_rules! resolve_child {
        ($id:expr, $leg:expr, $ok:expr, $arrived:expr, $at:expr) => {{
            let (id, leg, ok, arrived): (u64, usize, bool, bool) = ($id, $leg, $ok, $arrived);
            let parent = tree.parent(leg);
            let ptier = tree.tier_of(parent);
            let deg = tree.degrees[ptier] as u32;
            let need = tree.needed[ptier];
            let mut answer: Option<FrameKind> = None;
            {
                let pc = &mut coords[cx(id, parent)];
                if pc.join_done {
                    if arrived {
                        stats.late_legs += 1;
                    }
                } else if ok {
                    pc.ok_children += 1;
                    if pc.ok_children >= need {
                        pc.join_done = true;
                        stats.joins_ok += 1;
                        answer = Some(FrameKind::Response);
                    }
                } else {
                    pc.bad_children += 1;
                    // Quorum arithmetically impossible: fail fast.
                    if pc.bad_children > deg - need {
                        pc.join_done = true;
                        stats.joins_failed += 1;
                        answer = Some(FrameKind::Nack);
                    }
                }
            }
            if let Some(kind) = answer {
                answer_upstream!(id, parent, kind, $at);
            }
        }};
    }

    // Mint a new client request (open-loop arrival or closed-loop
    // session turn) and issue its leg 0.
    macro_rules! spawn_request {
        ($client:expr, $session:expr, $now:expr) => {{
            let client: u16 = $client;
            let session: Option<u16> = $session;
            let now: Nanos = $now;
            let id = records.len() as u64;
            let frontend = (clients + (client as usize % servers)) as u16;
            sent += 1;
            legs.resize(legs.len() + tree.total, LegState::NEW);
            coords.resize(coords.len() + tree.coordinators, CoordState::NEW);
            if let Some(s) = session {
                sessions.push(s);
            }
            if quarantined.contains(&frontend) {
                // The frontend failed attestation: the client refuses
                // to transmit. Terminal immediately — no frame, no
                // timers, no service work anywhere; a closed-loop
                // session lives on and re-tries after one think time.
                records.push(RequestRecord {
                    id,
                    client,
                    server: frontend,
                    sent: now,
                    completed: None,
                    attempts: 0,
                    outcome: RequestOutcome::Refused,
                    tier: 0,
                    fanout: fanout as u16,
                });
                let l0 = &mut legs[lx(id, 0)];
                l0.resolved = true;
                l0.outcome = RequestOutcome::Refused;
                session_continue!(id, now);
            } else {
                records.push(RequestRecord {
                    id,
                    client,
                    server: frontend,
                    sent: now,
                    completed: None,
                    attempts: 1,
                    // Placeholder until a terminal outcome resolves it.
                    outcome: RequestOutcome::Failed,
                    tier: 0,
                    fanout: fanout as u16,
                });
                issue_leg!(id, 0usize, client, frontend, now);
            }
        }};
    }

    while let Some(ev) = q.pop_next() {
        let now = ev.at;
        match ev.payload {
            Ev::Arrival { client } => {
                // Keep the generator open-loop: when this batch's last
                // arrival fires, the next batch is filed before this
                // request does anything.
                let c = client as usize;
                outstanding[c] -= 1;
                if outstanding[c] == 0 {
                    arrival_buf.clear();
                    let n = arrivals[c].next_arrivals(ARRIVAL_BATCH, &mut arrival_buf);
                    for &t in &arrival_buf[..n] {
                        q.schedule_at(t, Ev::Arrival { client });
                    }
                    outstanding[c] = n;
                }
                spawn_request!(client, None, now);
            }
            Ev::SessionNext { client, session } => {
                spawn_request!(client, Some(session), now);
            }
            Ev::Retry { id, leg } => {
                let leg = leg as usize;
                let tier = tree.tier_of(leg);
                let ctl = &tier_ctl[tier];
                let Some(policy) = &ctl.base else {
                    continue; // only armed legs schedule retries
                };
                let ix = lx(id, leg);
                let l = legs[ix];
                let deadline_at = l.sent + policy.deadline;
                if l.resolved || now >= deadline_at {
                    continue;
                }
                // A crashed coordinator's outstanding sub-requests died
                // with its VM: its timers go silent until the parent's
                // own deadline names the outcome.
                if nodes[l.src as usize].is_crashed() {
                    continue;
                }
                // The backoff timer firing means the outstanding
                // attempt went unanswered — the breaker's failure
                // signal, whether or not a retransmit follows.
                if ctl.adaptive {
                    dest_state[dix(tier, l.dst)].breaker.on_timeout(now);
                }
                if l.attempts >= policy.max_attempts {
                    continue;
                }
                // Chain the next backoff timer off this instant whether
                // or not this retransmit is allowed out: a suppressed
                // attempt must leave the leg a later chance (e.g. a
                // breaker probe after the cooldown).
                let seed = leg_seed(retry_root, id, leg as u32);
                let step = l.next_backoff as usize;
                if let Some(&delay) = policy.backoff_schedule(seed).get(step) {
                    legs[ix].next_backoff = l.next_backoff.saturating_add(1);
                    let at = now + delay;
                    if at < deadline_at {
                        q.schedule_at(
                            at,
                            Ev::Retry {
                                id,
                                leg: leg as u32,
                            },
                        );
                    }
                }
                if ctl.adaptive {
                    let d = &mut dest_state[dix(tier, l.dst)];
                    if !d.breaker.allow_attempt(now) || !d.budget.try_spend() {
                        rel.retries_suppressed += 1;
                        continue;
                    }
                }
                let attempt = l.attempts as u8;
                legs[ix].attempts += 1;
                rel.retransmits += 1;
                let hdr = leg_header(id, leg, l.src, l.sent, FrameKind::Request, attempt);
                push_frame!(l.src, l.dst, hdr, now);
            }
            Ev::Hedge { id, leg } => {
                let leg = leg as usize;
                let tier = tree.tier_of(leg);
                let ctl = &tier_ctl[tier];
                let Some(policy) = &ctl.base else {
                    continue; // only armed legs schedule hedges
                };
                let ix = lx(id, leg);
                let l = legs[ix];
                if l.resolved
                    || now >= l.sent + policy.deadline
                    || l.attempts >= policy.max_attempts
                {
                    continue;
                }
                if nodes[l.src as usize].is_crashed() {
                    continue;
                }
                if ctl.adaptive {
                    let d = &mut dest_state[dix(tier, l.dst)];
                    if !d.breaker.allow_attempt(now) || !d.budget.try_spend() {
                        rel.hedges_suppressed += 1;
                        continue;
                    }
                }
                let attempt = l.attempts as u8;
                legs[ix].attempts += 1;
                legs[ix].hedge_attempt = Some(attempt);
                rel.hedges += 1;
                let hdr = leg_header(id, leg, l.src, l.sent, FrameKind::Request, attempt);
                push_frame!(l.src, l.dst, hdr, now);
            }
            Ev::Deadline { id, leg } => {
                let leg = leg as usize;
                let tier = tree.tier_of(leg);
                let ctl = &tier_ctl[tier];
                let l = &mut legs[lx(id, leg)];
                if l.resolved {
                    continue;
                }
                // A deadline expiring in silence (no NACK, no corrupt
                // reply attributable) is a timeout signal too; a shed
                // or corrupt story proves the destination reachable.
                if ctl.adaptive && !l.nack_seen && !l.corrupt_seen {
                    dest_state[dix(tier, l.dst)].breaker.on_timeout(now);
                }
                let outcome = if l.nack_seen {
                    RequestOutcome::Shed
                } else if l.corrupt_seen {
                    RequestOutcome::Corrupt
                } else if ctl.base.is_some() {
                    RequestOutcome::DeadlineExceeded
                } else {
                    // A closed-loop session timer with retries off: the
                    // request failed fire-and-forget style.
                    RequestOutcome::Failed
                };
                l.resolved = true;
                l.outcome = outcome;
                if leg == 0 {
                    records[id as usize].outcome = outcome;
                    session_continue!(id, now);
                } else {
                    if outcome == RequestOutcome::Shed {
                        stats.legs_shed += 1;
                    } else {
                        stats.legs_failed += 1;
                    }
                    resolve_child!(id, leg, false, false, now);
                }
            }
            Ev::CrashSvc { node } => {
                let n = node as usize;
                if n >= nodes.len() || nodes[n].role != Role::Server || nodes[n].is_crashed() {
                    continue;
                }
                fabric.faults.note_svc_crash();
                nodes[n].crash_svc(now, horizon);
                recoveries.push(RecoveryRecord {
                    node,
                    crashed_at: now,
                    detected_at: now + cfg.detect_latency,
                    recovered_at: Nanos::MAX,
                });
                q.schedule_at(now + cfg.detect_latency, Ev::RestartSvc { node });
            }
            Ev::RestartSvc { node } => {
                let up = nodes[node as usize].restart_svc(now, cfg.restart_cost, horizon);
                if let Some(r) = recoveries
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.recovered_at == Nanos::MAX)
                {
                    r.recovered_at = up;
                }
            }
            Ev::Deliver { dst, frame } => {
                let h = frame.hdr;
                let (id, leg) = split_frame_id(h.id);
                let leg = leg as usize;
                let rx = &zeros[..frame.len];
                if frame.corrupt {
                    // Mangled frame: the RX path still pays the copy (if
                    // the VM is up), then the checksum rejects it. The
                    // header is intact, so a corrupt *reply* is pinned
                    // on its leg and the deadline names `Corrupt`; a
                    // corrupt request (whose leg was issued elsewhere)
                    // is left to the issuer's retry path or deadline.
                    rel.corrupt_rx += 1;
                    if !nodes[dst as usize].is_crashed() {
                        let _ = nodes[dst as usize].receive(now, rx, horizon);
                    }
                    let l = &mut legs[lx(id, leg)];
                    if !l.resolved && l.src == dst {
                        l.corrupt_seen = true;
                    }
                    continue;
                }
                let node = &mut nodes[dst as usize];
                if node.is_crashed() {
                    // The NIC died with the VM: nothing to receive into.
                    // The issuer's retry path (or deadline) owns
                    // recovery.
                    node.stats.crash_drops += 1;
                    rel.crash_drops += 1;
                    continue;
                }
                let done = node.receive(now, rx, horizon);
                if h.kind == FrameKind::Request {
                    debug_assert_eq!(node.role, Role::Server, "requests land at servers");
                    // Request lands: dedupe check, admission check,
                    // queue for the service core, compute, then answer
                    // (response or NACK) or fan out. Every answer echoes
                    // the request's header with its own kind.
                    let ready = done;
                    let answer = |kind| FrameHeader { kind, ..h };
                    let tier = tree.tier_of(leg);
                    let leaf = tier == tree.depth();
                    if leaf {
                        // A duplicate attempt (hedge/retransmit) of a leg
                        // this server already admitted replays the cached
                        // answer: at-most-once execution against the
                        // issuer's at-least-once transmission. It never
                        // takes an admission slot or a second service, and
                        // departs no earlier than this RX and the original
                        // service.
                        if let Some(done) = node.cached_response(h.id) {
                            rel.dups_absorbed += 1;
                            let reply = answer(FrameKind::Response);
                            push_frame!(dst, h.client, reply, ready.max(done));
                            continue;
                        }
                    } else if coords[cx(id, leg)].started {
                        // Coordinator dedupe: the fan-out ran already.
                        // Replay the join answer when it exists; absorb
                        // silently while the join is still pending (the
                        // original flow will answer).
                        rel.dups_absorbed += 1;
                        let c = coords[cx(id, leg)];
                        if let Some(kind) = c.answer {
                            push_frame!(dst, h.client, answer(kind), ready.max(c.answer_at));
                        }
                        continue;
                    }
                    if !nodes[dst as usize].admit_with(ready, &admission) {
                        rel.nacks_sent += 1;
                        push_frame!(dst, h.client, answer(FrameKind::Nack), ready);
                        continue;
                    }
                    // Tier by leg index: 0 = frontend work, else backend
                    // leg work; a stochastic tier draws its multiplier
                    // from its own (id, leg)-keyed stream, a `Det` tier
                    // serves the base phase.
                    let dist = if leg == 0 { scn.service } else { scn.backend };
                    let phase = match dist {
                        ServiceDist::Det => base_phase,
                        _ => {
                            let mut rng = SimRng::new(leg_seed(svc_root, id, leg as u32));
                            scale_phase(&base_phase, dist.sample(&mut rng))
                        }
                    };
                    let done = nodes[dst as usize].serve(ready, &phase, horizon);
                    if leaf {
                        nodes[dst as usize].note_served(h.id, done);
                        push_frame!(dst, h.client, answer(FrameKind::Response), done);
                        continue;
                    }
                    // Fan out: distinct peers, skipping this coordinator,
                    // in a fixed rotation.
                    {
                        let c = &mut coords[cx(id, leg)];
                        c.started = true;
                        c.serve_done = done;
                        c.serve_attempt = h.attempt;
                    }
                    let deg = tree.degrees[tier];
                    let need = tree.needed[tier];
                    let p_local = dst as usize - clients;
                    for j in 0..deg {
                        let child = tree.child(leg, j);
                        let backend = (clients + ((p_local + 1 + j) % servers)) as u16;
                        if quarantined.contains(&backend) {
                            // The backend failed attestation: the
                            // coordinator refuses the leg on the spot —
                            // resolved, no frame.
                            let cl = &mut legs[lx(id, child)];
                            cl.src = dst;
                            cl.dst = backend;
                            cl.sent = done;
                            cl.resolved = true;
                            cl.outcome = RequestOutcome::Refused;
                            stats.legs_refused += 1;
                            coords[cx(id, leg)].bad_children += 1;
                            continue;
                        }
                        issue_leg!(id, child, dst, backend, done);
                    }
                    // Enough refused legs can make the quorum
                    // arithmetically impossible before any reply: fail
                    // fast with an upstream NACK.
                    let c = &mut coords[cx(id, leg)];
                    if !c.join_done && c.bad_children > deg as u32 - need {
                        c.join_done = true;
                        stats.joins_failed += 1;
                        answer_upstream!(id, leg, FrameKind::Nack, done);
                    }
                } else if leg > 0 {
                    // A leg reply (response or NACK) lands back at its
                    // coordinator.
                    debug_assert_eq!(node.role, Role::Server, "leg replies land at servers");
                    let tier = tree.tier_of(leg);
                    let ctl = &tier_ctl[tier];
                    let l = &mut legs[lx(id, leg)];
                    if l.resolved {
                        continue; // duplicate answer after resolution
                    }
                    if h.kind == FrameKind::Response {
                        let lat = done.saturating_sub(l.sent);
                        if ctl.adaptive {
                            // Feed the live distribution and clear the
                            // breaker's streak.
                            let d = &mut dest_state[dix(tier, l.dst)];
                            d.tracker.record(lat.as_nanos().max(1));
                            d.breaker.on_success();
                        }
                        l.resolved = true;
                        l.completed = done;
                        l.outcome = if l.hedge_attempt == Some(h.attempt) {
                            RequestOutcome::OkHedged { attempt: h.attempt }
                        } else {
                            RequestOutcome::Ok { attempt: h.attempt }
                        };
                        stats.tier1.record(lat.as_nanos().max(1) as f64);
                        stats.legs_ok += 1;
                        resolve_child!(id, leg, true, true, done);
                    } else {
                        if ctl.adaptive {
                            // A NACK proves the destination reachable.
                            dest_state[dix(tier, l.dst)].breaker.on_success();
                        }
                        if ctl.base.is_some() {
                            // Retries may still land this leg; the
                            // deadline owns the terminal outcome.
                            l.nack_seen = true;
                        } else {
                            l.resolved = true;
                            l.outcome = RequestOutcome::Shed;
                            stats.legs_shed += 1;
                            resolve_child!(id, leg, false, true, done);
                        }
                    }
                } else {
                    // A reply lands at the originating client.
                    debug_assert_eq!(node.role, Role::Client, "leg-0 replies land at clients");
                    let l0 = &mut legs[lx(id, 0)];
                    if l0.resolved {
                        continue; // duplicate answer after resolution
                    }
                    if h.kind == FrameKind::Response {
                        let lat = done.saturating_sub(h.sent).as_nanos().max(1);
                        let outcome = if l0.hedge_attempt == Some(h.attempt) {
                            RequestOutcome::OkHedged { attempt: h.attempt }
                        } else {
                            RequestOutcome::Ok { attempt: h.attempt }
                        };
                        l0.resolved = true;
                        l0.completed = done;
                        l0.outcome = outcome;
                        if tier_ctl[0].adaptive {
                            // Feed the live distribution and clear the
                            // breaker's streak.
                            let d = &mut dest_state[dix(0, l0.dst)];
                            d.tracker.record(lat);
                            d.breaker.on_success();
                        }
                        latency.record(lat as f64);
                        nodes[dst as usize].latency_hist.record(lat as f64);
                        let rec = &mut records[id as usize];
                        rec.completed = Some(done);
                        rec.outcome = outcome;
                        completed += 1;
                        session_continue!(id, done);
                    } else {
                        l0.nack_seen = true;
                        // A NACK is proof of reachability: the breaker
                        // detects silent destinations, not loaded ones.
                        if tier_ctl[0].adaptive {
                            dest_state[dix(0, l0.dst)].breaker.on_success();
                        }
                    }
                }
            }
        }
    }
    let elapsed = q.now();

    // End-of-run sweep: name every open outcome explicitly — client
    // requests first, then legs. Armed legs always resolved through
    // their deadline event; only fire-and-forget legs (and requests
    // with no deadline timer) reach the sweep open.
    let open_outcome = |l: &LegState| {
        if l.nack_seen {
            RequestOutcome::Shed
        } else if l.corrupt_seen {
            RequestOutcome::Corrupt
        } else {
            RequestOutcome::Failed
        }
    };
    let requests = records.len();
    for (id, rec) in records.iter_mut().enumerate() {
        let id = id as u64;
        let l0 = &mut legs[lx(id, 0)];
        if !l0.resolved {
            l0.resolved = true;
            l0.outcome = open_outcome(l0);
            rec.outcome = l0.outcome;
        }
        rec.attempts = rec.attempts.max(l0.attempts);
        for leg in 1..tree.total {
            let l = &mut legs[lx(id, leg)];
            if l.attempts > 0 && !l.resolved {
                l.resolved = true;
                l.outcome = open_outcome(l);
                if l.outcome == RequestOutcome::Shed {
                    stats.legs_shed += 1;
                } else {
                    stats.legs_failed += 1;
                }
            }
        }
        for leg in 0..tree.coordinators {
            let c = &mut coords[cx(id, leg)];
            if c.started && !c.join_done {
                c.join_done = true;
                stats.joins_failed += 1;
            }
        }
    }
    rel.breaker_opens = dest_state.iter().map(|d| d.breaker.opens).sum();
    for rec in &records {
        match rec.outcome {
            RequestOutcome::Ok { .. } => rel.outcomes.ok += 1,
            RequestOutcome::OkHedged { .. } => rel.outcomes.ok_hedged += 1,
            RequestOutcome::Shed => rel.outcomes.shed += 1,
            RequestOutcome::DeadlineExceeded => rel.outcomes.deadline += 1,
            RequestOutcome::Corrupt => rel.outcomes.corrupt += 1,
            RequestOutcome::Failed => rel.outcomes.failed += 1,
            RequestOutcome::Refused => rel.outcomes.refused += 1,
        }
    }

    // Append the per-leg trace: tier >= 1 rows in (id, leg) order, the
    // issuing coordinator as the row's client. Slots whose parent
    // never served were never materialised and produce no row. The
    // CSV carries the whole tree.
    for id in 0..requests as u64 {
        for leg in 1..tree.total {
            let l = &legs[lx(id, leg)];
            if l.attempts == 0 && !l.resolved {
                continue;
            }
            records.push(RequestRecord {
                id,
                client: l.src,
                server: l.dst,
                sent: l.sent,
                completed: (l.completed != Nanos::MAX).then_some(l.completed),
                attempts: l.attempts,
                outcome: l.outcome,
                tier: tree.tier_of(leg) as u8,
                fanout: fanout as u16,
            });
        }
    }

    // Conservation: every request and every issued leg reached exactly
    // one terminal outcome, and the counters agree with the trace.
    debug_assert_eq!(requests as u64, sent, "one tier-0 row per request");
    debug_assert_eq!(rel.outcomes.total(), sent, "one outcome per request");
    debug_assert_eq!(rel.outcomes.good(), completed, "ok outcomes == completed");
    debug_assert_eq!(
        latency.count(),
        completed,
        "one latency sample per completion"
    );
    debug_assert_eq!(
        stats.legs_ok + stats.legs_shed + stats.legs_failed,
        stats.legs_sent,
        "one outcome per issued leg"
    );
    debug_assert_eq!(
        (records.len() - requests) as u64,
        stats.legs_sent + stats.legs_refused,
        "one trace row per issued or refused leg"
    );

    // Final sweep: every node replays noise out to the fixed horizon, so
    // the noise histograms cover the same window regardless of traffic.
    let per_node = nodes
        .iter_mut()
        .map(|n| {
            n.advance_noise_to(horizon, horizon);
            n.audit_isolation().expect("isolation preserved per node");
            if let Some((quanta, busy)) = n.hpc_occupancy_below(horizon) {
                stats.hpc_quanta += quanta;
                stats.hpc_busy += busy;
            }
            NodeReport {
                index: n.index,
                role: n.role,
                stack: if n.role == Role::Client {
                    StackKind::HafniumKitten
                } else {
                    cfg.server_stack
                },
                stats: n.stats,
                noise_hist: n.noise_hist.clone(),
            }
        })
        .collect();

    ClusterReport {
        server_stack: cfg.server_stack,
        nodes: total,
        clients,
        servers,
        seed: cfg.seed,
        sent,
        completed,
        latency,
        records,
        per_node,
        fabric: fabric.stats.clone(),
        fault_stats: fabric.faults.stats,
        reliability: rel,
        recoveries,
        scenario: cfg.scenario.is_some().then_some(stats),
        attestation,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_scenario::HpcKind;
    use kh_workloads::adaptive::AdaptivePolicy;
    use kh_workloads::svcload::SvcLoadConfig;

    fn cfg_with(stack: StackKind, seed: u64, nodes: usize, spec: &str) -> ClusterConfig {
        let mut c = ClusterConfig::new(nodes, stack, seed);
        c.svcload = SvcLoadConfig::quick();
        c.scenario = Some(Scenario::parse(spec).expect(spec));
        c
    }

    #[test]
    fn single_tier_scenario_completes() {
        let cfg = cfg_with(StackKind::HafniumKitten, 3, 4, "arrive=exp:500us,svc=exp");
        let r = crate::cluster::run(&cfg);
        assert!(r.sent > 50, "sent = {}", r.sent);
        assert_eq!(r.completed, r.sent);
        let s = r.scenario.as_ref().unwrap();
        assert_eq!(s.fanout, 0);
        assert_eq!(s.depth, 0);
        assert_eq!(s.legs_sent, 0);
        assert_eq!(r.latency.count(), r.completed);
        assert!(r.records.iter().all(|rec| rec.tier == 0));
    }

    #[test]
    fn fanout_all_join_tracks_every_leg() {
        let cfg = cfg_with(
            StackKind::HafniumKitten,
            5,
            8,
            "arrive=exp:800us,svc=det,backend=det,fanout=3:all",
        );
        let r = crate::cluster::run(&cfg);
        let s = r.scenario.as_ref().unwrap();
        assert_eq!(s.fanout, 3);
        assert!(r.sent > 20);
        assert_eq!(r.completed, r.sent, "clean fabric: every join completes");
        assert_eq!(s.joins_ok, r.sent);
        assert_eq!(s.legs_sent, r.sent * 3);
        assert_eq!(s.legs_ok, s.legs_sent);
        assert_eq!(s.legs_failed, 0);
        assert_eq!(s.late_legs, 0, "wait-for-all has no late legs");
        assert_eq!(s.tier1.count(), s.legs_ok);
        // The trace carries both tiers.
        let legs = r.records.iter().filter(|rec| rec.tier == 1).count() as u64;
        assert_eq!(legs, s.legs_sent);
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.tier == 1)
            .all(|rec| rec.fanout == 3 && rec.outcome.is_ok()));
    }

    #[test]
    fn quorum_join_answers_early_and_counts_late_legs() {
        let cfg = cfg_with(
            StackKind::HafniumKitten,
            7,
            8,
            "arrive=exp:800us,svc=det,backend=exp,fanout=3:quorum:1",
        );
        let r = crate::cluster::run(&cfg);
        let s = r.scenario.as_ref().unwrap();
        assert_eq!(r.completed, r.sent);
        assert_eq!(s.joins_ok, r.sent);
        assert!(
            s.late_legs > 0,
            "quorum-1 of 3: two legs per join arrive late"
        );
        assert_eq!(s.legs_ok + s.legs_shed + s.legs_failed, s.legs_sent);
    }

    #[test]
    fn quorum_tails_are_tighter_than_wait_for_all() {
        let all = crate::cluster::run(&cfg_with(
            StackKind::HafniumKitten,
            9,
            8,
            "arrive=exp:800us,svc=det,backend=lognormal:1.0,fanout=3:all",
        ));
        let quorum = crate::cluster::run(&cfg_with(
            StackKind::HafniumKitten,
            9,
            8,
            "arrive=exp:800us,svc=det,backend=lognormal:1.0,fanout=3:quorum:1",
        ));
        assert!(
            quorum.latency.p99() <= all.latency.p99(),
            "quorum-1 p99 {} must not exceed wait-for-all p99 {}",
            quorum.latency.p99(),
            all.latency.p99()
        );
    }

    #[test]
    fn scenario_runs_are_byte_reproducible() {
        let cfg = cfg_with(
            StackKind::HafniumLinux,
            11,
            8,
            "arrive=mmpp:400us:4ms:2ms,svc=exp,backend=exp,fanout=2:all,colocate=hpcg:6",
        );
        let a = crate::cluster::run(&cfg);
        let b = crate::cluster::run(&cfg);
        assert_eq!(a.csv(), b.csv());
        assert_eq!(a.render(), b.render());
        let mut other = cfg.clone();
        other.seed = 12;
        assert_ne!(a.csv(), crate::cluster::run(&other).csv());
    }

    #[test]
    fn colocation_perturbs_only_the_listed_nodes() {
        let seed = 13;
        let base = "arrive=exp:600us,svc=exp";
        let clean = crate::cluster::run(&cfg_with(StackKind::HafniumKitten, seed, 6, base));
        let colo = crate::cluster::run(&cfg_with(
            StackKind::HafniumKitten,
            seed,
            6,
            &format!("{base},colocate=hpcg:4"),
        ));
        let s = colo.scenario.as_ref().unwrap();
        assert_eq!(s.hpc_nodes, vec![4]);
        assert!(s.hpc_quanta > 0 && s.hpc_busy > Nanos::ZERO);
        for (c, n) in clean.per_node.iter().zip(colo.per_node.iter()) {
            assert_eq!(
                c.noise_hist, n.noise_hist,
                "node{} noise must be colocation-invariant",
                c.index
            );
        }
        // The colocated server's clients see heavier tails.
        assert!(
            colo.latency.p99() >= clean.latency.p99(),
            "colocated p99 {} vs clean {}",
            colo.latency.p99(),
            clean.latency.p99()
        );
    }

    #[test]
    fn queue_depth_override_applies() {
        let mut cfg = cfg_with(StackKind::HafniumKitten, 15, 4, "arrive=exp:500us,queues=8");
        let r = crate::cluster::run(&cfg);
        assert_eq!(r.completed, r.sent);
        // And the spec round-trips through the stats block.
        assert!(r.scenario.unwrap().spec.contains("queues=8"));
        // Sanity: the plain config default is untouched.
        cfg.scenario = None;
        let plain = crate::cluster::run(&cfg);
        assert!(plain.scenario.is_none());
    }

    #[test]
    fn every_hpc_kind_drives_a_run() {
        for kind in [HpcKind::NasEp, HpcKind::NasSp] {
            let spec = format!("arrive=exp:900us,colocate={}:3", kind.label());
            let r = crate::cluster::run(&cfg_with(StackKind::HafniumKitten, 17, 4, &spec));
            assert!(r.sent > 0);
            assert!(r.scenario.unwrap().hpc_busy > Nanos::ZERO);
        }
    }

    #[test]
    fn quarantined_backend_legs_are_refused_and_quorum_absorbs_them() {
        // 8 nodes: clients 0-3, servers 4-7; fanout 2, quorum 1. A
        // tampered node 7 loses its legs at the frontend, but every
        // join still resolves through the healthy backend.
        let mut cfg = cfg_with(
            StackKind::HafniumKitten,
            37,
            8,
            "arrive=exp:800us,svc=det,backend=det,fanout=2:quorum:1",
        );
        cfg.attest = true;
        cfg.faults = Some((kh_sim::FabricFaultSpec::parse("tamper@7").unwrap(), 1));
        let r = crate::cluster::run(&cfg);
        assert_eq!(r.attestation.as_ref().unwrap().quarantined, vec![7]);
        let s = r.scenario.as_ref().unwrap();
        assert!(s.legs_refused > 0, "some fan-outs must hit node 7");
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.tier == 1 && rec.server == 7)
            .all(|rec| rec.outcome == RequestOutcome::Refused));
        // Node 7 is also client 3's frontend, so its share of requests
        // is refused at tier 0; every join that did start resolves
        // through a healthy backend.
        let refused_t0 = r
            .records
            .iter()
            .filter(|rec| rec.tier == 0 && rec.outcome == RequestOutcome::Refused)
            .count() as u64;
        assert!(refused_t0 > 0);
        assert_eq!(
            s.joins_ok + refused_t0,
            r.sent,
            "quorum-1 survives one quarantine"
        );
        assert_eq!(r.completed + refused_t0, r.sent);
        // Reproducible, quarantine and all.
        assert_eq!(crate::cluster::run(&cfg).csv(), r.csv());
    }

    #[test]
    fn quarantined_frontend_refuses_its_clients() {
        let mut cfg = cfg_with(StackKind::HafniumKitten, 41, 4, "arrive=exp:500us,svc=exp");
        cfg.attest = true;
        // Node 2 is client 0's frontend.
        cfg.faults = Some((kh_sim::FabricFaultSpec::parse("tamper@2").unwrap(), 1));
        let r = crate::cluster::run(&cfg);
        assert_eq!(r.attestation.as_ref().unwrap().quarantined, vec![2]);
        let (to_2, rest): (Vec<&RequestRecord>, Vec<&RequestRecord>) =
            r.records.iter().partition(|rec| rec.server == 2);
        assert!(!to_2.is_empty());
        assert!(to_2
            .iter()
            .all(|rec| rec.outcome == RequestOutcome::Refused && rec.attempts == 0));
        assert!(rest.iter().all(|rec| rec.outcome.is_ok()));
        assert_eq!(r.reliability.outcomes.refused, to_2.len() as u64);
    }

    #[test]
    fn leg_tree_index_arithmetic_round_trips() {
        let scn =
            Scenario::parse("arrive=exp:1ms,fanout=3:quorum:2,tier=2:2:all,tier=3:2:quorum:1")
                .unwrap();
        let tree = LegTree::build(&scn, 8);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.degrees, vec![3, 2, 2]);
        assert_eq!(tree.needed, vec![2, 2, 1]);
        assert_eq!(tree.count, vec![1, 3, 6, 12]);
        assert_eq!(tree.start, vec![0, 1, 4, 10]);
        assert_eq!(tree.total, 22);
        for leg in 1..tree.total {
            let t = tree.tier_of(leg);
            let parent = tree.parent(leg);
            assert_eq!(tree.tier_of(parent), t - 1, "leg {leg}");
            // Child arithmetic inverts parent arithmetic.
            let base = tree.start[t];
            let j = (leg - base) % tree.degrees[t - 1];
            assert_eq!(tree.child(parent, j), leg, "leg {leg}");
        }
        // Degrees clamp to servers - 1: three servers cap every tier
        // at degree 2.
        let clamped = LegTree::build(&scn, 3);
        assert_eq!(clamped.degrees, vec![2, 2, 2]);
        assert_eq!(clamped.needed, vec![2, 2, 1]);
    }

    #[test]
    fn deep_tier_chain_completes_and_traces_every_tier() {
        // Depth 3: fanout 2, then 2, then 1 — 2 + 4 + 4 = 10 backend
        // legs per request on a clean fabric.
        let cfg = cfg_with(
            StackKind::HafniumKitten,
            19,
            12,
            "arrive=exp:2ms,svc=det,backend=det,fanout=2:all,tier=2:2:all,tier=3:1:all",
        );
        let r = crate::cluster::run(&cfg);
        let s = r.scenario.as_ref().unwrap();
        assert_eq!(s.depth, 3);
        assert!(r.sent > 10, "sent = {}", r.sent);
        assert_eq!(r.completed, r.sent, "clean fabric: every join completes");
        assert_eq!(s.legs_sent, r.sent * 10);
        assert_eq!(s.legs_ok, s.legs_sent);
        // One join per coordinator: 1 + 2 + 4 per request.
        assert_eq!(s.joins_ok, r.sent * 7);
        for tier in 1..=3u8 {
            let per_req: u64 = match tier {
                1 => 2,
                2 => 4,
                _ => 4,
            };
            let n = r.records.iter().filter(|rec| rec.tier == tier).count() as u64;
            assert_eq!(n, r.sent * per_req, "tier {tier} rows");
        }
        // Deep-tier rows carry their coordinator, not the frontend.
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.tier >= 2)
            .all(|rec| rec.client as usize >= cfg.clients()));
        assert_eq!(crate::cluster::run(&cfg).csv(), r.csv());
    }

    #[test]
    fn closed_loop_sessions_pace_requests_by_think_time() {
        let cfg = cfg_with(
            StackKind::HafniumKitten,
            23,
            6,
            "clients=4:think:300us,svc=det",
        );
        let r = crate::cluster::run(&cfg);
        assert!(r.sent > 20, "sent = {}", r.sent);
        assert_eq!(
            r.completed, r.sent,
            "clean fabric closes every session turn"
        );
        // Closed loop bounds outstanding work: per client, never more
        // requests than sessions * (duration / think) and always some.
        let per_client_cap =
            cfg.svcload.duration.as_nanos() / Nanos::from_micros(300).as_nanos() * 4 + 4;
        for c in 0..cfg.clients() as u16 {
            let n = r
                .records
                .iter()
                .filter(|rec| rec.tier == 0 && rec.client == c)
                .count() as u64;
            assert!(n > 0, "client {c} sent nothing");
            assert!(n <= per_client_cap, "client {c}: {n} > {per_client_cap}");
        }
        // Think-time draws ride their own stream: byte reproducible.
        assert_eq!(crate::cluster::run(&cfg).csv(), r.csv());
    }

    #[test]
    fn per_leg_retry_modes_override_the_config_default() {
        // Static retries everywhere by config, but tier 1 opts out:
        // its legs must never retransmit (attempts stay 1) while the
        // client leg keeps its policy.
        let mut cfg = cfg_with(
            StackKind::HafniumKitten,
            29,
            8,
            "arrive=exp:1ms,svc=det,backend=det,fanout=2:all,retry=t1:off",
        );
        cfg.retry = Some(RetryPolicy::default());
        cfg.faults = Some((kh_sim::FabricFaultSpec::parse("drop:0.08").unwrap(), 2));
        let r = crate::cluster::run(&cfg);
        assert!(r.reliability.retransmits > 0, "tier 0 must retry drops");
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.tier == 1)
            .all(|rec| rec.attempts <= 1));
        // Flip the override to adaptive: tier-1 legs now hedge/retry.
        let mut adaptive = cfg.clone();
        adaptive.scenario = Some(
            Scenario::parse("arrive=exp:1ms,svc=det,backend=det,fanout=2:all,retry=t1:adaptive")
                .unwrap(),
        );
        let ra = crate::cluster::run(&adaptive);
        assert!(
            ra.records
                .iter()
                .filter(|rec| rec.tier == 1)
                .any(|rec| rec.attempts > 1),
            "adaptive tier-1 legs must retransmit under drops"
        );
    }

    #[test]
    fn static_retries_recover_dropped_legs() {
        let spec = "arrive=exp:1500us,svc=det,backend=det,fanout=2:all";
        let mut off = cfg_with(StackKind::HafniumKitten, 31, 8, spec);
        off.faults = Some((kh_sim::FabricFaultSpec::parse("drop:0.05").unwrap(), 3));
        let mut armed = off.clone();
        armed.retry = Some(RetryPolicy::default());
        let r_off = crate::cluster::run(&off);
        let r_armed = crate::cluster::run(&armed);
        assert!(r_off.goodput() < 1.0, "drops must hurt fire-and-forget");
        assert!(r_armed.reliability.retransmits > 0);
        assert!(
            r_armed.goodput() > r_off.goodput(),
            "retries {:.4} must beat fire-and-forget {:.4}",
            r_armed.goodput(),
            r_off.goodput()
        );
        // Retry draws ride their own streams: the fault pattern and
        // noise histograms are unperturbed by arming the policy.
        for (a, b) in r_off.per_node.iter().zip(r_armed.per_node.iter()) {
            assert_eq!(a.noise_hist, b.noise_hist, "node{} noise", a.index);
        }
    }

    #[test]
    fn crashsvc_mid_scenario_recovers_and_isolates() {
        // Depth-2 scenario with a crash on server 5 mid-run: the
        // victim recovers on the cluster clock, crash drops are
        // charged, and every node's noise histogram is bit-identical
        // to the fault-free run.
        let spec = "arrive=exp:1ms,svc=det,backend=det,fanout=2:quorum:1,tier=2:1:all";
        let mut cfg = cfg_with(StackKind::HafniumKitten, 43, 8, spec);
        cfg.retry = Some(RetryPolicy::default());
        let clean = crate::cluster::run(&cfg);
        let mut crashed = cfg.clone();
        crashed.faults = Some((kh_sim::FabricFaultSpec::parse("crashsvc@4ms:5").unwrap(), 4));
        let r = crate::cluster::run(&crashed);
        assert_eq!(r.recoveries.len(), 1);
        let rec = &r.recoveries[0];
        assert_eq!(rec.node, 5);
        assert_eq!(rec.crashed_at, Nanos::from_millis(4));
        assert!(rec.recovered_at > rec.detected_at);
        assert!(r.reliability.crash_drops > 0, "frames must hit the dead VM");
        assert!(r.per_node[5].stats.restarts >= 1);
        assert!(clean.recoveries.is_empty());
        for (a, b) in clean.per_node.iter().zip(r.per_node.iter()) {
            assert_eq!(
                a.noise_hist, b.noise_hist,
                "node{} noise must survive crashsvc",
                a.index
            );
        }
        // Quorum-1 absorbs the dead backend: goodput stays high.
        assert!(r.completed > 0);
        assert_eq!(crate::cluster::run(&crashed).csv(), r.csv());
    }

    #[test]
    fn adaptive_scenarios_hedge_and_dedupe() {
        // Drops make hedges matter: when the first copy (or its reply)
        // dies in the fabric, the hedged retransmit wins the race.
        let spec = "arrive=exp:900us,svc=exp,backend=lognormal:1.2,fanout=2:all";
        let mut cfg = cfg_with(StackKind::HafniumKitten, 47, 8, spec);
        cfg.adaptive = Some(AdaptivePolicy::default());
        cfg.faults = Some((kh_sim::FabricFaultSpec::parse("drop:0.06").unwrap(), 5));
        let r = crate::cluster::run(&cfg);
        assert!(
            r.reliability.hedges > 0,
            "heavy backend tails must trigger hedges"
        );
        assert!(
            r.records
                .iter()
                .any(|rec| matches!(rec.outcome, RequestOutcome::OkHedged { .. })),
            "some hedge must win its race"
        );
        assert!(
            r.reliability.dups_absorbed > 0,
            "surviving duplicates must dedupe at the server"
        );
        assert_eq!(crate::cluster::run(&cfg).csv(), r.csv());
    }

    #[test]
    fn depth0_request_state_fits_the_svcload_budget() {
        // A depth-0 (svcload) request keeps one 32 B issuer-side leg
        // and no coordinator state.
        let tree = LegTree::build(&Scenario::default(), 4);
        assert_eq!((tree.total, tree.coordinators), (1, 0));
        assert_eq!(std::mem::size_of::<LegState>(), 32);
        // Coordinator state covers exactly the non-leaf legs.
        let deep = LegTree::build(&crate::figures::scenario_for_depth(3, 500), 8);
        assert_eq!(deep.coordinators, deep.start[deep.depth()]);
        assert_eq!(deep.tier_of(deep.coordinators), deep.depth());
    }
}

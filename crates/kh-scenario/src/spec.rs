//! The scenario spec: structures, DSL grammar, parse, render, validate.
//!
//! # Grammar
//!
//! A spec is a comma-separated list of `key=value` clauses; values use
//! `:`-separated subfields. In a `.khs` file the same clauses appear one
//! per line, with `#` starting a comment — the parser accepts both forms
//! (newlines count as clause separators).
//!
//! ```text
//! arrive=exp:<mean>                      open-loop exponential
//! arrive=pareto:<mean>:<alpha>           heavy-tailed gaps, alpha > 1
//! arrive=lognormal:<mean>:<sigma>        log-normal gaps
//! arrive=mmpp:<on_mean>:<on_dur>:<off_dur>   on/off modulated Poisson
//! arrive=diurnal:<mean>:<amp>:<period>   sinusoidal rate curve
//! clients=<n>:think:<mean>[:<dist>]      closed-loop sessions per client
//! svc=det | exp | pareto:<alpha> | lognormal:<sigma>
//! backend=<same forms as svc>            backend service distribution
//! fanout=<n>[:all | :quorum:<k>]         tier 1: frontend -> n backends
//! tier=<t>:<n>[:all | :quorum:<k>]       tier t >= 2: backend -> backend
//! retry=<leg>:off|static|adaptive        per-leg policy; <leg> is
//!                                        `client` or `t1`..`tN`
//! colocate=<kind>:<n1>+<n2>+...          HPC neighbor on listed nodes
//! queues=<depth>                         switch egress queue override
//! ```
//!
//! Times take `ns`/`us`/`ms`/`s` suffixes (bare numbers are ns).
//! `<kind>` is one of `hpcg`, `nas-lu`, `nas-bt`, `nas-cg`, `nas-ep`,
//! `nas-sp`; `<dist>` takes the `svc=` forms (a mean-1 multiplier on the
//! think-time mean). `tier=` clauses must be contiguous from 2 and each
//! multiplies the fan-out tree (every tier t-1 leg issues `n` tier-t
//! legs), so the total leg count is bounded by [`MAX_LEGS`] — the frame
//! id only reserves 16 bits of leg index. `clients=` replaces the
//! open-loop arrival process and conflicts with an explicit `arrive=`.
//! [`Display`](core::fmt::Display) renders the canonical form
//! (times in ns, defaults omitted) and `parse(render(s)) == s` holds for
//! every valid scenario.

use core::fmt;
use kh_sim::time::parse_duration;
use kh_sim::Nanos;
use kh_workloads::hpcg::{HpcgConfig, HpcgModel};
use kh_workloads::nas::NasBenchmark;
use kh_workloads::Workload;

/// Spec-level cap on fan-out degree (the run also caps at the server
/// count); bounds join-state memory for adversarial specs.
pub const MAX_FANOUT: usize = 64;

/// Widest log-normal / Pareto shape parameters the DSL accepts; beyond
/// this the distributions are so heavy that a single draw can dominate a
/// whole run and the simulation degenerates.
pub const MAX_SIGMA: f64 = 5.0;
pub const MAX_ALPHA: f64 = 100.0;

/// Hard cap on the total number of leg indices one request may consume
/// (the client's own leg 0 plus every backend leg across all tiers).
/// Frame ids pack `leg + 1` into the 16 bits above bit 48, so a tree
/// needing more than `2^16 - 1` distinct leg indices would silently
/// corrupt frame identity; [`Scenario::validate`] rejects such specs
/// with [`ScenarioError::LegOverflow`] instead.
pub const MAX_LEGS: usize = (1 << 16) - 1;

/// Cap on closed-loop sessions per client node; bounds per-client state
/// for adversarial specs the same way [`MAX_FANOUT`] bounds join state.
pub const MAX_SESSIONS: usize = 256;

/// How a scenario parse or validation failed. Every variant carries the
/// offending clause text — malformed specs are diagnosable, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A clause key the grammar doesn't know.
    UnknownClause(String),
    /// A known clause with an unparseable or out-of-range value.
    BadValue(String),
    /// The same clause given twice.
    Duplicate(String),
    /// Clauses that parse individually but conflict as a whole
    /// (e.g. `quorum` larger than the fan-out degree).
    Conflict(String),
    /// A fan-out tree whose total leg count does not fit in the 16
    /// leg-index bits frame ids reserve above bit 48 (see [`MAX_LEGS`]).
    LegOverflow(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownClause(c) => write!(f, "unknown scenario clause `{c}`"),
            ScenarioError::BadValue(m) => write!(f, "bad scenario value: {m}"),
            ScenarioError::Duplicate(c) => write!(f, "duplicate scenario clause `{c}`"),
            ScenarioError::Conflict(m) => write!(f, "conflicting scenario clauses: {m}"),
            ScenarioError::LegOverflow(m) => write!(f, "fan-out tree overflows leg ids: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Arrival-gap shape for the open-loop client sources.
///
/// Every variant is parameterised by time constants in [`Nanos`]; the
/// samplers add a 1 ns floor per gap so arrival sequences are strictly
/// increasing regardless of parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Poisson process: exponential gaps with the given mean.
    Exp { mean: Nanos },
    /// Pareto gaps with the given mean and tail index `alpha > 1`
    /// (scale chosen as `mean * (alpha-1) / alpha`).
    Pareto { mean: Nanos, alpha: f64 },
    /// Log-normal gaps with the given mean and log-space sigma.
    LogNormal { mean: Nanos, sigma: f64 },
    /// On/off modulated Poisson: exponential on-windows (mean `on_dur`)
    /// emitting exponential gaps of mean `on_mean`, separated by silent
    /// exponential off-windows (mean `off_dur`).
    Mmpp {
        on_mean: Nanos,
        on_dur: Nanos,
        off_dur: Nanos,
    },
    /// Sinusoidal rate curve: instantaneous rate
    /// `(1 + amp * sin(2*pi*t/period)) / mean`, sampled by thinning.
    Diurnal {
        mean: Nanos,
        amp: f64,
        period: Nanos,
    },
}

impl ArrivalShape {
    /// The long-run mean interarrival gap this shape targets, for
    /// load-matching across shapes (MMPP reports the on-window mean
    /// stretched by the duty cycle).
    pub fn mean_gap(&self) -> Nanos {
        match *self {
            ArrivalShape::Exp { mean }
            | ArrivalShape::Pareto { mean, .. }
            | ArrivalShape::LogNormal { mean, .. }
            | ArrivalShape::Diurnal { mean, .. } => mean,
            ArrivalShape::Mmpp {
                on_mean,
                on_dur,
                off_dur,
            } => {
                let duty = on_dur.as_secs_f64() / (on_dur + off_dur).as_secs_f64().max(1e-12);
                Nanos((on_mean.as_secs_f64() / duty.max(1e-3) * 1e9) as u64)
            }
        }
    }
}

impl fmt::Display for ArrivalShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalShape::Exp { mean } => write!(f, "exp:{}ns", mean.as_nanos()),
            ArrivalShape::Pareto { mean, alpha } => {
                write!(f, "pareto:{}ns:{}", mean.as_nanos(), alpha)
            }
            ArrivalShape::LogNormal { mean, sigma } => {
                write!(f, "lognormal:{}ns:{}", mean.as_nanos(), sigma)
            }
            ArrivalShape::Mmpp {
                on_mean,
                on_dur,
                off_dur,
            } => write!(
                f,
                "mmpp:{}ns:{}ns:{}ns",
                on_mean.as_nanos(),
                on_dur.as_nanos(),
                off_dur.as_nanos()
            ),
            ArrivalShape::Diurnal { mean, amp, period } => {
                write!(
                    f,
                    "diurnal:{}ns:{}:{}ns",
                    mean.as_nanos(),
                    amp,
                    period.as_nanos()
                )
            }
        }
    }
}

/// Per-tier service-time distribution, expressed as a mean-1 multiplier
/// on the tier's base phase (so the configured service cost stays the
/// mean regardless of shape). Draws are clamped to
/// [`sample::MAX_SERVICE_MULT`](crate::sample::MAX_SERVICE_MULT).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Deterministic: every request costs exactly the base phase.
    Det,
    /// Exponential multiplier, mean 1.
    Exp,
    /// Pareto multiplier with tail index `alpha > 1`, mean 1.
    Pareto { alpha: f64 },
    /// Log-normal multiplier with log-space sigma, mean 1.
    LogNormal { sigma: f64 },
}

impl fmt::Display for ServiceDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServiceDist::Det => write!(f, "det"),
            ServiceDist::Exp => write!(f, "exp"),
            ServiceDist::Pareto { alpha } => write!(f, "pareto:{alpha}"),
            ServiceDist::LogNormal { sigma } => write!(f, "lognormal:{sigma}"),
        }
    }
}

/// When a fanned-out request's join completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// Wait for every backend leg.
    All,
    /// Wait for the first `k` successful legs.
    Quorum(u32),
}

/// Per-leg retry/hedge policy selector (`retry=<leg>:<mode>`). The
/// executor maps `Static` to the plain `RetryPolicy` timers, `Adaptive`
/// to the full hedging/budget/breaker layer, and `Off` to
/// fire-and-forget; legs without a clause inherit the cluster-level
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryMode {
    Off,
    Static,
    Adaptive,
}

impl RetryMode {
    pub const ALL: [RetryMode; 3] = [RetryMode::Off, RetryMode::Static, RetryMode::Adaptive];

    pub fn label(self) -> &'static str {
        match self {
            RetryMode::Off => "off",
            RetryMode::Static => "static",
            RetryMode::Adaptive => "adaptive",
        }
    }

    fn parse(s: &str) -> Result<RetryMode, ScenarioError> {
        RetryMode::ALL
            .into_iter()
            .find(|m| m.label() == s)
            .ok_or_else(|| {
                ScenarioError::BadValue(format!(
                    "unknown retry mode `{s}` (want off, static, or adaptive)"
                ))
            })
    }
}

impl fmt::Display for RetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One deep fan-out tier (`tier=<t>:<degree>[:join]`, t >= 2): every
/// tier t-1 leg issues `degree` tier-t legs and joins them under
/// `join` before replying upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    pub degree: usize,
    pub join: JoinPolicy,
}

/// Closed-loop load (`clients=<n>:think:<mean>[:<dist>]`): `n` sessions
/// per client node, each issuing its next request one think-time draw
/// after the previous one completes. Replaces the open-loop arrival
/// process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// Concurrent sessions per client node.
    pub sessions: usize,
    /// Mean think time between a completion and the next request.
    pub think_mean: Nanos,
    /// Mean-1 multiplier shape on the think time.
    pub think: ServiceDist,
}

impl fmt::Display for ClosedLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:think:{}ns",
            self.sessions,
            self.think_mean.as_nanos()
        )?;
        if self.think != ServiceDist::Det {
            write!(f, ":{}", self.think)?;
        }
        Ok(())
    }
}

/// Which HPC workload model plays the noisy neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpcKind {
    Hpcg,
    NasLu,
    NasBt,
    NasCg,
    NasEp,
    NasSp,
}

impl HpcKind {
    pub const ALL: [HpcKind; 6] = [
        HpcKind::Hpcg,
        HpcKind::NasLu,
        HpcKind::NasBt,
        HpcKind::NasCg,
        HpcKind::NasEp,
        HpcKind::NasSp,
    ];

    pub fn label(self) -> &'static str {
        match self {
            HpcKind::Hpcg => "hpcg",
            HpcKind::NasLu => "nas-lu",
            HpcKind::NasBt => "nas-bt",
            HpcKind::NasCg => "nas-cg",
            HpcKind::NasEp => "nas-ep",
            HpcKind::NasSp => "nas-sp",
        }
    }

    fn parse(s: &str) -> Result<HpcKind, ScenarioError> {
        HpcKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| ScenarioError::BadValue(format!("unknown HPC workload kind `{s}`")))
    }

    /// Instantiate the phase-stream model that plays this neighbor. The
    /// colocation engine recreates the model whenever it runs dry, so
    /// the neighbor occupies its node for the whole run.
    pub fn model(self) -> Box<dyn Workload + Send> {
        match self {
            HpcKind::Hpcg => Box::new(HpcgModel::new(HpcgConfig::default())),
            HpcKind::NasLu => NasBenchmark::Lu.model(),
            HpcKind::NasBt => NasBenchmark::Bt.model(),
            HpcKind::NasCg => NasBenchmark::Cg.model(),
            HpcKind::NasEp => NasBenchmark::Ep.model(),
            HpcKind::NasSp => NasBenchmark::Sp.model(),
        }
    }
}

impl fmt::Display for HpcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Mixed-tenancy plan: run `kind` as a noisy neighbor on the listed
/// cluster node indices (strictly increasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Colocation {
    pub kind: HpcKind,
    pub nodes: Vec<u16>,
}

impl fmt::Display for Colocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.kind)?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// A full parsed traffic scenario. See the [module docs](self) for the
/// grammar; `kh-cluster::scenario` executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub arrival: ArrivalShape,
    /// Tier-0 (frontend) service distribution.
    pub service: ServiceDist,
    /// Tier-1 (backend) service distribution; only sampled when
    /// `fanout > 0`.
    pub backend: ServiceDist,
    /// Backends each frontend calls per request; 0 = single-tier.
    pub fanout: usize,
    pub join: JoinPolicy,
    /// Deep fan-out tiers 2.. (index 0 = tier 2); each multiplies the
    /// leg tree. Empty = the classic two-tier frontend->backends shape.
    pub tiers: Vec<TierSpec>,
    /// Closed-loop sessions; `Some` replaces the open-loop arrivals.
    pub clients: Option<ClosedLoop>,
    /// Per-tier retry-mode overrides, sorted by tier (0 = the client's
    /// own leg). Tiers without an entry inherit the cluster default.
    pub retry: Vec<(u32, RetryMode)>,
    pub colocate: Option<Colocation>,
    /// Switch egress queue depth override (frames per port).
    pub queue_depth: Option<usize>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            arrival: ArrivalShape::Exp {
                mean: Nanos::from_micros(500),
            },
            service: ServiceDist::Det,
            backend: ServiceDist::Det,
            fanout: 0,
            join: JoinPolicy::All,
            tiers: Vec::new(),
            clients: None,
            retry: Vec::new(),
            colocate: None,
            queue_depth: None,
        }
    }
}

impl Scenario {
    /// Parse a one-line spec or `.khs` file contents (newlines count as
    /// clause separators, `#` starts a comment).
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let mut scn = Scenario::default();
        // Dedupe keys: plain clause names, except `tier`/`retry` which
        // are keyed per selector (`tier:3`, `retry:t1`) so a spec may
        // name several tiers while `tier=2:...` twice stays a
        // `Duplicate`.
        let mut seen: Vec<String> = Vec::new();
        let mut tiers: Vec<(u32, TierSpec)> = Vec::new();
        let mut retry: Vec<(u32, RetryMode)> = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("");
            for raw in line.split(',') {
                let clause = raw.trim();
                if clause.is_empty() {
                    continue;
                }
                let (key, val) = clause
                    .split_once('=')
                    .ok_or_else(|| ScenarioError::UnknownClause(clause.to_string()))?;
                let key = key.trim();
                let val = val.trim();
                let mut dedupe = key.to_string();
                match key {
                    "arrive" => scn.arrival = parse_arrival(val)?,
                    "clients" => scn.clients = Some(parse_clients(val)?),
                    "svc" => scn.service = parse_service(val)?,
                    "backend" => scn.backend = parse_service(val)?,
                    "fanout" => {
                        let (n, join) = parse_fanout(val)?;
                        scn.fanout = n;
                        scn.join = join;
                    }
                    "tier" => {
                        let (t, spec) = parse_tier(val)?;
                        dedupe = format!("tier:{t}");
                        tiers.push((t, spec));
                    }
                    "retry" => {
                        let (tier, mode) = parse_retry(val)?;
                        dedupe = format!("retry:{tier}");
                        retry.push((tier, mode));
                    }
                    "colocate" => scn.colocate = Some(parse_colocate(val)?),
                    "queues" => {
                        scn.queue_depth = Some(val.parse().map_err(|_| {
                            ScenarioError::BadValue(format!("bad queue depth `{val}`"))
                        })?)
                    }
                    _ => return Err(ScenarioError::UnknownClause(clause.to_string())),
                }
                if seen.contains(&dedupe) {
                    return Err(ScenarioError::Duplicate(key.to_string()));
                }
                seen.push(dedupe);
            }
        }
        if seen.iter().any(|k| k == "arrive") && seen.iter().any(|k| k == "clients") {
            return Err(ScenarioError::Conflict(
                "clients= replaces the arrival process; drop the arrive= clause".into(),
            ));
        }
        tiers.sort_by_key(|(t, _)| *t);
        for (i, (t, _)) in tiers.iter().enumerate() {
            let want = i as u32 + 2;
            if *t != want {
                return Err(ScenarioError::Conflict(format!(
                    "tier clauses must be contiguous from 2: expected tier={want}, got tier={t}"
                )));
            }
        }
        scn.tiers = tiers.into_iter().map(|(_, s)| s).collect();
        retry.sort_by_key(|(t, _)| *t);
        scn.retry = retry;
        scn.validate()?;
        Ok(scn)
    }

    /// Total leg indices one request consumes: 1 for the client's own
    /// request plus one per backend leg across every tier (fan-out
    /// degrees multiply tier over tier). `None` when the tree overflows
    /// `usize`.
    pub fn total_legs(&self) -> Option<usize> {
        let mut total = 1usize;
        if self.fanout > 0 {
            let mut width = self.fanout;
            total = total.checked_add(width)?;
            for t in &self.tiers {
                width = width.checked_mul(t.degree)?;
                total = total.checked_add(width)?;
            }
        }
        Some(total)
    }

    /// Fan-out depth: 0 = single tier (no backends), 1 = the classic
    /// frontend->backends hop, 2+ = deep `tier=` chains.
    pub fn depth(&self) -> usize {
        if self.fanout == 0 {
            0
        } else {
            1 + self.tiers.len()
        }
    }

    /// Per-tier fan-out degrees for tiers `1..=depth()` (tier 1 is the
    /// `fanout=` clause). Empty for single-tier scenarios.
    pub fn tier_degrees(&self) -> Vec<usize> {
        if self.fanout == 0 {
            Vec::new()
        } else {
            core::iter::once(self.fanout)
                .chain(self.tiers.iter().map(|t| t.degree))
                .collect()
        }
    }

    /// Join policy for tier `t` (1-based; tier 1 is the `fanout=`
    /// join).
    pub fn tier_join(&self, t: usize) -> JoinPolicy {
        if t <= 1 {
            self.join
        } else {
            self.tiers
                .get(t - 2)
                .map(|s| s.join)
                .unwrap_or(JoinPolicy::All)
        }
    }

    /// The retry mode legs of `tier` run under (tier 0 = the client's
    /// own request), falling back to `default` when no `retry=` clause
    /// names that tier.
    pub fn retry_mode(&self, tier: u32, default: RetryMode) -> RetryMode {
        self.retry
            .iter()
            .find(|(t, _)| *t == tier)
            .map(|(_, m)| *m)
            .unwrap_or(default)
    }

    /// Check cross-clause consistency and parameter ranges. `parse`
    /// calls this; hand-built scenarios should too.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate_arrival(&self.arrival)?;
        validate_service("svc", &self.service)?;
        validate_service("backend", &self.backend)?;
        if self.fanout > MAX_FANOUT {
            return Err(ScenarioError::BadValue(format!(
                "fanout {} exceeds the spec cap {MAX_FANOUT}",
                self.fanout
            )));
        }
        match self.join {
            JoinPolicy::All => {}
            JoinPolicy::Quorum(k) => {
                if self.fanout == 0 {
                    return Err(ScenarioError::Conflict(
                        "quorum join requires fanout > 0".into(),
                    ));
                }
                if k == 0 || k as usize > self.fanout {
                    return Err(ScenarioError::Conflict(format!(
                        "quorum {k} outside 1..={}",
                        self.fanout
                    )));
                }
            }
        }
        if !self.tiers.is_empty() && self.fanout == 0 {
            return Err(ScenarioError::Conflict(
                "tier= clauses require fanout > 0 (tier 1 is the fanout= clause)".into(),
            ));
        }
        for (i, t) in self.tiers.iter().enumerate() {
            let tier_no = i + 2;
            if t.degree == 0 || t.degree > MAX_FANOUT {
                return Err(ScenarioError::BadValue(format!(
                    "tier {tier_no} degree {} outside 1..={MAX_FANOUT}",
                    t.degree
                )));
            }
            if let JoinPolicy::Quorum(k) = t.join {
                if k == 0 || k as usize > t.degree {
                    return Err(ScenarioError::Conflict(format!(
                        "tier {tier_no} quorum {k} outside 1..={}",
                        t.degree
                    )));
                }
            }
        }
        match self.total_legs() {
            Some(l) if l <= MAX_LEGS => {}
            got => {
                return Err(ScenarioError::LegOverflow(format!(
                    "the fan-out tree needs {} leg ids but frame ids have room for {MAX_LEGS}",
                    got.map(|l| l.to_string())
                        .unwrap_or_else(|| "> usize".into())
                )))
            }
        }
        if let Some(c) = &self.clients {
            if c.sessions == 0 || c.sessions > MAX_SESSIONS {
                return Err(ScenarioError::BadValue(format!(
                    "clients sessions {} outside 1..={MAX_SESSIONS}",
                    c.sessions
                )));
            }
            validate_service("think", &c.think)?;
            if self.arrival != Scenario::default().arrival {
                return Err(ScenarioError::Conflict(
                    "clients= replaces the arrival process; drop the arrive= clause".into(),
                ));
            }
        }
        let depth = self.depth() as u32;
        for w in self.retry.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(ScenarioError::Conflict(format!(
                    "retry clauses must name distinct legs in tier order (saw tier {} then {})",
                    w[0].0, w[1].0
                )));
            }
        }
        for (tier, _) in &self.retry {
            if *tier > depth {
                return Err(ScenarioError::Conflict(format!(
                    "retry=t{tier} names tier {tier} but the scenario depth is {depth}"
                )));
            }
        }
        if let Some(c) = &self.colocate {
            if c.nodes.is_empty() {
                return Err(ScenarioError::BadValue("empty colocation node list".into()));
            }
            if !c.nodes.windows(2).all(|w| w[0] < w[1]) {
                return Err(ScenarioError::BadValue(
                    "colocation nodes must be strictly increasing".into(),
                ));
            }
        }
        if self.queue_depth == Some(0) {
            return Err(ScenarioError::BadValue("queue depth must be >= 1".into()));
        }
        Ok(())
    }
}

impl fmt::Display for Scenario {
    /// Canonical one-line form: `arrive` and `svc` always, everything
    /// else only when it differs from the default — so the output parses
    /// back to exactly this scenario.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.clients {
            Some(c) => write!(f, "clients={c},svc={}", self.service)?,
            None => write!(f, "arrive={},svc={}", self.arrival, self.service)?,
        }
        if self.backend != ServiceDist::Det {
            write!(f, ",backend={}", self.backend)?;
        }
        let join = |f: &mut fmt::Formatter<'_>, j: JoinPolicy| match j {
            JoinPolicy::All => write!(f, ":all"),
            JoinPolicy::Quorum(k) => write!(f, ":quorum:{k}"),
        };
        if self.fanout > 0 {
            write!(f, ",fanout={}", self.fanout)?;
            join(f, self.join)?;
        }
        for (i, t) in self.tiers.iter().enumerate() {
            write!(f, ",tier={}:{}", i + 2, t.degree)?;
            join(f, t.join)?;
        }
        for (tier, mode) in &self.retry {
            if *tier == 0 {
                write!(f, ",retry=client:{mode}")?;
            } else {
                write!(f, ",retry=t{tier}:{mode}")?;
            }
        }
        if let Some(c) = &self.colocate {
            write!(f, ",colocate={c}")?;
        }
        if let Some(q) = self.queue_depth {
            write!(f, ",queues={q}")?;
        }
        Ok(())
    }
}

fn parse_time(s: &str) -> Result<Nanos, ScenarioError> {
    parse_duration(s).ok_or_else(|| {
        ScenarioError::BadValue(format!("bad time `{s}` (want e.g. 500us, 4ms, 1200ns)"))
    })
}

fn parse_f64(s: &str, what: &str) -> Result<f64, ScenarioError> {
    let v: f64 = s
        .parse()
        .map_err(|_| ScenarioError::BadValue(format!("bad {what} `{s}`")))?;
    if !v.is_finite() {
        return Err(ScenarioError::BadValue(format!("non-finite {what} `{s}`")));
    }
    Ok(v)
}

fn parse_arrival(val: &str) -> Result<ArrivalShape, ScenarioError> {
    let mut it = val.split(':');
    let kind = it.next().unwrap_or("");
    let rest: Vec<&str> = it.collect();
    let argc = |n: usize| -> Result<(), ScenarioError> {
        if rest.len() != n {
            Err(ScenarioError::BadValue(format!(
                "`arrive={val}`: `{kind}` wants {n} parameter(s), got {}",
                rest.len()
            )))
        } else {
            Ok(())
        }
    };
    let shape = match kind {
        "exp" => {
            argc(1)?;
            ArrivalShape::Exp {
                mean: parse_time(rest[0])?,
            }
        }
        "pareto" => {
            argc(2)?;
            ArrivalShape::Pareto {
                mean: parse_time(rest[0])?,
                alpha: parse_f64(rest[1], "pareto alpha")?,
            }
        }
        "lognormal" => {
            argc(2)?;
            ArrivalShape::LogNormal {
                mean: parse_time(rest[0])?,
                sigma: parse_f64(rest[1], "lognormal sigma")?,
            }
        }
        "mmpp" => {
            argc(3)?;
            ArrivalShape::Mmpp {
                on_mean: parse_time(rest[0])?,
                on_dur: parse_time(rest[1])?,
                off_dur: parse_time(rest[2])?,
            }
        }
        "diurnal" => {
            argc(3)?;
            ArrivalShape::Diurnal {
                mean: parse_time(rest[0])?,
                amp: parse_f64(rest[1], "diurnal amplitude")?,
                period: parse_time(rest[2])?,
            }
        }
        _ => {
            return Err(ScenarioError::BadValue(format!(
                "unknown arrival shape `{kind}`"
            )))
        }
    };
    Ok(shape)
}

fn validate_arrival(a: &ArrivalShape) -> Result<(), ScenarioError> {
    let pos = |t: Nanos, what: &str| -> Result<(), ScenarioError> {
        if t == Nanos::ZERO {
            Err(ScenarioError::BadValue(format!("{what} must be > 0")))
        } else {
            Ok(())
        }
    };
    match *a {
        ArrivalShape::Exp { mean } => pos(mean, "arrival mean"),
        ArrivalShape::Pareto { mean, alpha } => {
            pos(mean, "arrival mean")?;
            if !(alpha > 1.0 && alpha <= MAX_ALPHA) {
                return Err(ScenarioError::BadValue(format!(
                    "pareto alpha {alpha} outside (1, {MAX_ALPHA}]"
                )));
            }
            Ok(())
        }
        ArrivalShape::LogNormal { mean, sigma } => {
            pos(mean, "arrival mean")?;
            if !(sigma > 0.0 && sigma <= MAX_SIGMA) {
                return Err(ScenarioError::BadValue(format!(
                    "lognormal sigma {sigma} outside (0, {MAX_SIGMA}]"
                )));
            }
            Ok(())
        }
        ArrivalShape::Mmpp {
            on_mean,
            on_dur,
            off_dur,
        } => {
            pos(on_mean, "mmpp on-window mean gap")?;
            pos(on_dur, "mmpp on-window duration")?;
            pos(off_dur, "mmpp off-window duration")
        }
        ArrivalShape::Diurnal { mean, amp, period } => {
            pos(mean, "arrival mean")?;
            if !(0.0..=1.0).contains(&amp) {
                return Err(ScenarioError::BadValue(format!(
                    "diurnal amplitude {amp} outside [0, 1]"
                )));
            }
            pos(period, "diurnal period")
        }
    }
}

fn parse_service(val: &str) -> Result<ServiceDist, ScenarioError> {
    let (kind, rest) = match val.split_once(':') {
        Some((k, r)) => (k, Some(r)),
        None => (val, None),
    };
    match (kind, rest) {
        ("det", None) => Ok(ServiceDist::Det),
        ("exp", None) => Ok(ServiceDist::Exp),
        ("pareto", Some(a)) => Ok(ServiceDist::Pareto {
            alpha: parse_f64(a, "pareto alpha")?,
        }),
        ("lognormal", Some(s)) => Ok(ServiceDist::LogNormal {
            sigma: parse_f64(s, "lognormal sigma")?,
        }),
        _ => Err(ScenarioError::BadValue(format!(
            "unknown service distribution `{val}`"
        ))),
    }
}

fn validate_service(which: &str, d: &ServiceDist) -> Result<(), ScenarioError> {
    match *d {
        ServiceDist::Det | ServiceDist::Exp => Ok(()),
        ServiceDist::Pareto { alpha } => {
            if !(alpha > 1.0 && alpha <= MAX_ALPHA) {
                Err(ScenarioError::BadValue(format!(
                    "{which} pareto alpha {alpha} outside (1, {MAX_ALPHA}]"
                )))
            } else {
                Ok(())
            }
        }
        ServiceDist::LogNormal { sigma } => {
            if !(sigma > 0.0 && sigma <= MAX_SIGMA) {
                Err(ScenarioError::BadValue(format!(
                    "{which} lognormal sigma {sigma} outside (0, {MAX_SIGMA}]"
                )))
            } else {
                Ok(())
            }
        }
    }
}

fn parse_fanout(val: &str) -> Result<(usize, JoinPolicy), ScenarioError> {
    let mut it = val.split(':');
    let n: usize = it
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| ScenarioError::BadValue(format!("bad fanout degree `{val}`")))?;
    let join = match (it.next(), it.next(), it.next()) {
        (None, _, _) | (Some("all"), None, _) => JoinPolicy::All,
        (Some("quorum"), Some(k), None) => JoinPolicy::Quorum(
            k.parse()
                .map_err(|_| ScenarioError::BadValue(format!("bad quorum `{val}`")))?,
        ),
        _ => {
            return Err(ScenarioError::BadValue(format!(
                "bad fanout join `{val}` (want N, N:all, or N:quorum:K)"
            )))
        }
    };
    if n == 0 {
        return Err(ScenarioError::BadValue(
            "fanout degree must be >= 1 (omit the clause for single-tier)".into(),
        ));
    }
    Ok((n, join))
}

fn parse_tier(val: &str) -> Result<(u32, TierSpec), ScenarioError> {
    let mut it = val.split(':');
    let t: u32 = it
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| ScenarioError::BadValue(format!("bad tier index `{val}`")))?;
    if t < 2 {
        return Err(ScenarioError::BadValue(format!(
            "tier index {t} must be >= 2 (tier 1 is the fanout= clause)"
        )));
    }
    let degree: usize = it
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| ScenarioError::BadValue(format!("bad tier degree `{val}`")))?;
    let join = match (it.next(), it.next(), it.next()) {
        (None, _, _) | (Some("all"), None, _) => JoinPolicy::All,
        (Some("quorum"), Some(k), None) => JoinPolicy::Quorum(
            k.parse()
                .map_err(|_| ScenarioError::BadValue(format!("bad tier quorum `{val}`")))?,
        ),
        _ => {
            return Err(ScenarioError::BadValue(format!(
                "bad tier join `{val}` (want T:N, T:N:all, or T:N:quorum:K)"
            )))
        }
    };
    if degree == 0 {
        return Err(ScenarioError::BadValue(format!(
            "tier {t} degree must be >= 1 (omit the clause to stop the chain)"
        )));
    }
    Ok((t, TierSpec { degree, join }))
}

fn parse_retry(val: &str) -> Result<(u32, RetryMode), ScenarioError> {
    let (leg, mode) = val.split_once(':').ok_or_else(|| {
        ScenarioError::BadValue(format!(
            "`retry={val}` wants <leg>:<mode> with <leg> = client or t<N>"
        ))
    })?;
    let tier = if leg == "client" {
        0
    } else if let Some(n) = leg.strip_prefix('t') {
        let n: u32 = n
            .parse()
            .map_err(|_| ScenarioError::BadValue(format!("bad retry leg `{leg}`")))?;
        if n == 0 {
            return Err(ScenarioError::BadValue(
                "retry leg t0 does not exist; the client leg is `client`".into(),
            ));
        }
        n
    } else {
        return Err(ScenarioError::BadValue(format!(
            "bad retry leg `{leg}` (want client or t<N>)"
        )));
    };
    Ok((tier, RetryMode::parse(mode)?))
}

fn parse_clients(val: &str) -> Result<ClosedLoop, ScenarioError> {
    let err =
        || ScenarioError::BadValue(format!("`clients={val}` wants <n>:think:<mean>[:<dist>]"));
    let mut it = val.splitn(4, ':');
    let sessions: usize = it.next().unwrap_or("").parse().map_err(|_| err())?;
    if it.next() != Some("think") {
        return Err(err());
    }
    let think_mean = parse_time(it.next().ok_or_else(err)?)?;
    let think = match it.next() {
        None => ServiceDist::Det,
        Some(s) => parse_service(s)?,
    };
    Ok(ClosedLoop {
        sessions,
        think_mean,
        think,
    })
}

fn parse_colocate(val: &str) -> Result<Colocation, ScenarioError> {
    let (kind, nodes) = val.split_once(':').ok_or_else(|| {
        ScenarioError::BadValue(format!("`colocate={val}` wants <kind>:<n1>+<n2>+..."))
    })?;
    let kind = HpcKind::parse(kind)?;
    let mut list = Vec::new();
    for part in nodes.split('+') {
        let n: u16 = part
            .trim()
            .parse()
            .map_err(|_| ScenarioError::BadValue(format!("bad colocation node `{part}`")))?;
        list.push(n);
    }
    Ok(Colocation { kind, nodes: list })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(scn: &Scenario) {
        let rendered = scn.to_string();
        let back = Scenario::parse(&rendered).expect(&rendered);
        assert_eq!(&back, scn, "render was `{rendered}`");
    }

    #[test]
    fn default_renders_and_roundtrips() {
        let scn = Scenario::default();
        assert_eq!(scn.to_string(), "arrive=exp:500000ns,svc=det");
        roundtrip(&scn);
    }

    #[test]
    fn parse_full_spec() {
        let scn = Scenario::parse(
            "arrive=pareto:500us:1.5,svc=exp,backend=lognormal:0.6,fanout=4:quorum:3,colocate=hpcg:5+6,queues=256",
        )
        .unwrap();
        assert_eq!(
            scn.arrival,
            ArrivalShape::Pareto {
                mean: Nanos::from_micros(500),
                alpha: 1.5
            }
        );
        assert_eq!(scn.service, ServiceDist::Exp);
        assert_eq!(scn.backend, ServiceDist::LogNormal { sigma: 0.6 });
        assert_eq!(scn.fanout, 4);
        assert_eq!(scn.join, JoinPolicy::Quorum(3));
        assert_eq!(
            scn.colocate,
            Some(Colocation {
                kind: HpcKind::Hpcg,
                nodes: vec![5, 6]
            })
        );
        assert_eq!(scn.queue_depth, Some(256));
        roundtrip(&scn);
    }

    #[test]
    fn khs_file_form_parses() {
        let text = "\
# fan-out scenario with a noisy neighbor
arrive=mmpp:250us:4ms:2ms   # bursty source
fanout=3:all
svc=exp
colocate=nas-cg:6
";
        let scn = Scenario::parse(text).unwrap();
        assert_eq!(scn.fanout, 3);
        assert_eq!(scn.join, JoinPolicy::All);
        assert_eq!(
            scn.arrival,
            ArrivalShape::Mmpp {
                on_mean: Nanos::from_micros(250),
                on_dur: Nanos::from_millis(4),
                off_dur: Nanos::from_millis(2),
            }
        );
        assert_eq!(scn.colocate.unwrap().kind, HpcKind::NasCg);
        roundtrip(&Scenario::parse(text).unwrap());
    }

    #[test]
    fn every_arrival_shape_roundtrips() {
        let shapes = [
            ArrivalShape::Exp {
                mean: Nanos::from_micros(500),
            },
            ArrivalShape::Pareto {
                mean: Nanos::from_micros(300),
                alpha: 2.5,
            },
            ArrivalShape::LogNormal {
                mean: Nanos::from_micros(400),
                sigma: 0.75,
            },
            ArrivalShape::Mmpp {
                on_mean: Nanos::from_micros(100),
                on_dur: Nanos::from_millis(3),
                off_dur: Nanos::from_millis(1),
            },
            ArrivalShape::Diurnal {
                mean: Nanos::from_micros(500),
                amp: 0.8,
                period: Nanos::from_millis(40),
            },
        ];
        for arrival in shapes {
            roundtrip(&Scenario {
                arrival,
                ..Scenario::default()
            });
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        type ErrCheck = fn(&ScenarioError) -> bool;
        let cases: &[(&str, ErrCheck)] = &[
            ("frobnicate=3", |e| {
                matches!(e, ScenarioError::UnknownClause(_))
            }),
            ("arrive", |e| matches!(e, ScenarioError::UnknownClause(_))),
            ("arrive=warp:9", |e| matches!(e, ScenarioError::BadValue(_))),
            ("arrive=exp:0ns", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("arrive=exp:500us:7", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("arrive=pareto:500us:0.9", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("arrive=lognormal:500us:bananas", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("arrive=diurnal:500us:1.5:40ms", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("svc=pareto", |e| matches!(e, ScenarioError::BadValue(_))),
            ("fanout=0", |e| matches!(e, ScenarioError::BadValue(_))),
            ("fanout=9000", |e| matches!(e, ScenarioError::BadValue(_))),
            ("fanout=3:sometimes", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("fanout=3:quorum:5", |e| {
                matches!(e, ScenarioError::Conflict(_))
            }),
            ("fanout=3:quorum:0", |e| {
                matches!(e, ScenarioError::Conflict(_))
            }),
            ("svc=exp,svc=det", |e| {
                matches!(e, ScenarioError::Duplicate(_))
            }),
            ("fanout=2:all,tier=2:2:all,tier=2:3:all", |e| {
                matches!(e, ScenarioError::Duplicate(_))
            }),
            ("fanout=2:all,retry=t1:off,retry=t1:adaptive", |e| {
                matches!(e, ScenarioError::Duplicate(_))
            }),
            ("clients=2:think:1ms,clients=3:think:1ms", |e| {
                matches!(e, ScenarioError::Duplicate(_))
            }),
            ("fanout=2:all,tier=1:2:all", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("fanout=2:all,tier=2:0:all", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("fanout=2:all,tier=2:9000", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("fanout=2:all,tier=2:2:quorum:3", |e| {
                matches!(e, ScenarioError::Conflict(_))
            }),
            ("fanout=2:all,tier=2:2:sometimes", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("clients=0:think:1ms", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("clients=2:ponder:1ms", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("clients=2:think:1ms:warp", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("retry=client", |e| matches!(e, ScenarioError::BadValue(_))),
            ("retry=client:sometimes", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("retry=t0:off", |e| matches!(e, ScenarioError::BadValue(_))),
            ("retry=backend:off", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("fanout=64:all,tier=2:64:all,tier=3:15:all", |e| {
                matches!(e, ScenarioError::LegOverflow(_))
            }),
            ("colocate=hpcg", |e| matches!(e, ScenarioError::BadValue(_))),
            ("colocate=quake:1", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("colocate=hpcg:3+3", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("colocate=hpcg:5+2", |e| {
                matches!(e, ScenarioError::BadValue(_))
            }),
            ("queues=0", |e| matches!(e, ScenarioError::BadValue(_))),
            ("queues=lots", |e| matches!(e, ScenarioError::BadValue(_))),
        ];
        for (spec, want) in cases {
            let err = Scenario::parse(spec).expect_err(spec);
            assert!(want(&err), "`{spec}` gave unexpected error {err:?}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn parse_deep_tier_spec() {
        let scn = Scenario::parse(
            "arrive=exp:1ms,svc=det,fanout=4:quorum:3,tier=2:2:all,tier=3:2:quorum:1",
        )
        .unwrap();
        assert_eq!(scn.fanout, 4);
        assert_eq!(
            scn.tiers,
            vec![
                TierSpec {
                    degree: 2,
                    join: JoinPolicy::All
                },
                TierSpec {
                    degree: 2,
                    join: JoinPolicy::Quorum(1)
                },
            ]
        );
        assert_eq!(scn.depth(), 3);
        assert_eq!(scn.tier_degrees(), vec![4, 2, 2]);
        // 1 client leg + 4 + 8 + 16 backend legs.
        assert_eq!(scn.total_legs(), Some(29));
        assert_eq!(scn.tier_join(1), JoinPolicy::Quorum(3));
        assert_eq!(scn.tier_join(3), JoinPolicy::Quorum(1));
        roundtrip(&scn);
        // Clause order doesn't matter; tiers sort by index.
        let shuffled =
            Scenario::parse("tier=3:2:quorum:1,fanout=4:quorum:3,arrive=exp:1ms,tier=2:2:all")
                .unwrap();
        assert_eq!(shuffled, scn);
    }

    #[test]
    fn parse_closed_loop_and_retry_spec() {
        let scn = Scenario::parse(
            "clients=4:think:1ms:exp,svc=exp,fanout=3:all,retry=client:adaptive,retry=t1:off",
        )
        .unwrap();
        assert_eq!(
            scn.clients,
            Some(ClosedLoop {
                sessions: 4,
                think_mean: Nanos::from_millis(1),
                think: ServiceDist::Exp,
            })
        );
        assert_eq!(
            scn.retry,
            vec![(0, RetryMode::Adaptive), (1, RetryMode::Off)]
        );
        assert_eq!(scn.retry_mode(0, RetryMode::Static), RetryMode::Adaptive);
        assert_eq!(scn.retry_mode(1, RetryMode::Static), RetryMode::Off);
        assert_eq!(scn.retry_mode(7, RetryMode::Static), RetryMode::Static);
        roundtrip(&scn);
        // Det think shape renders without the trailing `:det`.
        let det = Scenario::parse("clients=2:think:500us").unwrap();
        assert_eq!(det.clients.unwrap().think, ServiceDist::Det);
        roundtrip(&det);
    }

    /// Satellite regression: the leg-index bits above `LEG_SHIFT` (48)
    /// hold `leg + 1` in 16 bits, so the fan-out tree must stay within
    /// `MAX_LEGS` total leg ids. fanout=64,tier=2:64,tier=3:14 needs
    /// 1 + 64 + 4096 + 57344 = 61505 ids (fits); degree 15 at tier 3
    /// needs 65601 (overflows by 66).
    #[test]
    fn leg_overflow_is_rejected_at_the_boundary() {
        let fits = Scenario::parse("fanout=64:all,tier=2:64:all,tier=3:14:all").unwrap();
        assert_eq!(fits.total_legs(), Some(61_505));
        roundtrip(&fits);
        let err = Scenario::parse("fanout=64:all,tier=2:64:all,tier=3:15:all").expect_err("15");
        assert!(matches!(err, ScenarioError::LegOverflow(_)), "got {err:?}");
        assert!(err.to_string().contains("65601"), "{err}");
        // A hand-built tree that overflows usize itself is still a
        // typed LegOverflow, not a panic.
        let huge = Scenario {
            fanout: 64,
            tiers: vec![
                TierSpec {
                    degree: 64,
                    join: JoinPolicy::All
                };
                11
            ],
            ..Scenario::default()
        };
        assert_eq!(huge.total_legs(), None);
        assert!(matches!(
            huge.validate(),
            Err(ScenarioError::LegOverflow(_))
        ));
    }

    #[test]
    fn new_clause_conflicts_are_typed() {
        // Explicit open-loop arrivals conflict with closed-loop clients.
        let err = Scenario::parse("arrive=exp:1ms,clients=2:think:1ms").expect_err("conflict");
        assert!(matches!(err, ScenarioError::Conflict(_)), "{err:?}");
        // tier= without fanout=.
        let err = Scenario::parse("tier=2:3:all").expect_err("no fanout");
        assert!(matches!(err, ScenarioError::Conflict(_)), "{err:?}");
        // Gap in the tier chain.
        let err = Scenario::parse("fanout=2:all,tier=3:2:all").expect_err("gap");
        assert!(matches!(err, ScenarioError::Conflict(_)), "{err:?}");
        // retry= naming a tier deeper than the scenario.
        let err = Scenario::parse("fanout=2:all,retry=t2:adaptive").expect_err("deep");
        assert!(matches!(err, ScenarioError::Conflict(_)), "{err:?}");
    }

    #[test]
    fn quorum_without_fanout_is_conflict() {
        let scn = Scenario {
            join: JoinPolicy::Quorum(2),
            ..Scenario::default()
        };
        assert!(matches!(scn.validate(), Err(ScenarioError::Conflict(_))));
    }

    #[test]
    fn mean_gap_matches_shape() {
        let exp = ArrivalShape::Exp {
            mean: Nanos::from_micros(500),
        };
        assert_eq!(exp.mean_gap(), Nanos::from_micros(500));
        // 4ms on / 2ms off duty cycle = 2/3, so the long-run gap is the
        // on-window gap stretched by 3/2.
        let mmpp = ArrivalShape::Mmpp {
            on_mean: Nanos::from_micros(100),
            on_dur: Nanos::from_millis(4),
            off_dur: Nanos::from_millis(2),
        };
        assert_eq!(mmpp.mean_gap(), Nanos::from_nanos(150_000));
    }

    #[test]
    fn all_hpc_kinds_parse_and_build() {
        for kind in HpcKind::ALL {
            assert_eq!(HpcKind::parse(kind.label()).unwrap(), kind);
            let mut model = kind.model();
            assert!(model.next_phase(Nanos::ZERO).is_some());
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;
        use proptest::strategy::Strategy;

        fn arb_time() -> impl Strategy<Value = Nanos> {
            (1u64..10_000_000u64).prop_map(Nanos)
        }

        fn arb_alpha() -> impl Strategy<Value = f64> {
            1.01f64..MAX_ALPHA
        }

        fn arb_sigma() -> impl Strategy<Value = f64> {
            0.01f64..MAX_SIGMA
        }

        fn arb_arrival() -> impl Strategy<Value = ArrivalShape> {
            prop_oneof![
                arb_time().prop_map(|mean| ArrivalShape::Exp { mean }),
                (arb_time(), arb_alpha())
                    .prop_map(|(mean, alpha)| ArrivalShape::Pareto { mean, alpha }),
                (arb_time(), arb_sigma())
                    .prop_map(|(mean, sigma)| ArrivalShape::LogNormal { mean, sigma }),
                (arb_time(), arb_time(), arb_time()).prop_map(|(on_mean, on_dur, off_dur)| {
                    ArrivalShape::Mmpp {
                        on_mean,
                        on_dur,
                        off_dur,
                    }
                }),
                (arb_time(), 0.0f64..1.0, arb_time())
                    .prop_map(|(mean, amp, period)| ArrivalShape::Diurnal { mean, amp, period }),
            ]
        }

        fn arb_service() -> impl Strategy<Value = ServiceDist> {
            prop_oneof![
                Just(ServiceDist::Det),
                Just(ServiceDist::Exp),
                arb_alpha().prop_map(|alpha| ServiceDist::Pareto { alpha }),
                arb_sigma().prop_map(|sigma| ServiceDist::LogNormal { sigma }),
            ]
        }

        fn arb_scenario() -> impl Strategy<Value = Scenario> {
            (
                (arb_arrival(), arb_service(), arb_service()),
                // Degree, join selector, raw quorum (folded into 1..=n).
                (0usize..=8, any::<bool>(), 1u32..=8),
                (
                    any::<bool>(),
                    0usize..HpcKind::ALL.len(),
                    proptest::collection::vec(1u16..5, 1..4),
                ),
                (any::<bool>(), 1usize..=512),
                (
                    // Deep tiers: (degree, quorum selector, raw
                    // quorum); only applied when fanout > 0. Small
                    // degrees keep the leg tree far below MAX_LEGS.
                    proptest::collection::vec((1usize..=4, any::<bool>(), 1u32..=4), 0..3),
                    // Closed-loop clients (forces the default arrival
                    // so the canonical form round-trips).
                    (any::<bool>(), 1usize..=8, arb_time(), arb_service()),
                    // Per-leg retry overrides: include flags + mode
                    // index for the client leg, tier 1, and tier 2.
                    proptest::collection::vec(any::<bool>(), 3),
                    proptest::collection::vec(0usize..RetryMode::ALL.len(), 3),
                ),
            )
                .prop_map(
                    |(
                        (arrival, service, backend),
                        (fanout, quorum, kraw),
                        (colo, kind_ix, steps),
                        (queues, depth),
                        (tier_raw, (closed, sessions, think_mean, think), retry_on, retry_mode),
                    )| {
                        let join = if fanout > 0 && quorum {
                            JoinPolicy::Quorum(1 + (kraw - 1) % fanout as u32)
                        } else {
                            JoinPolicy::All
                        };
                        let tiers: Vec<TierSpec> = if fanout > 0 {
                            tier_raw
                                .iter()
                                .map(|&(degree, q, kraw)| TierSpec {
                                    degree,
                                    join: if q {
                                        JoinPolicy::Quorum(1 + (kraw - 1) % degree as u32)
                                    } else {
                                        JoinPolicy::All
                                    },
                                })
                                .collect()
                        } else {
                            Vec::new()
                        };
                        let clients = closed.then_some(ClosedLoop {
                            sessions,
                            think_mean,
                            think,
                        });
                        let arrival = if closed {
                            Scenario::default().arrival
                        } else {
                            arrival
                        };
                        let max_depth = if fanout > 0 { 1 + tiers.len() } else { 0 };
                        let retry: Vec<(u32, RetryMode)> = (0..=max_depth as u32)
                            .filter(|&t| retry_on[t as usize % 3] && (t as usize) < 3)
                            .map(|t| (t, RetryMode::ALL[retry_mode[t as usize]]))
                            .collect();
                        let colocate = colo.then(|| {
                            let mut acc = 0u16;
                            Colocation {
                                kind: HpcKind::ALL[kind_ix],
                                nodes: steps
                                    .iter()
                                    .map(|s| {
                                        acc += s;
                                        acc
                                    })
                                    .collect(),
                            }
                        });
                        Scenario {
                            arrival,
                            service,
                            backend,
                            fanout,
                            join,
                            tiers,
                            clients,
                            retry,
                            colocate,
                            queue_depth: queues.then_some(depth),
                        }
                    },
                )
        }

        proptest! {
            /// Every valid scenario renders to a spec that parses back
            /// to exactly itself (f64 Display is shortest-round-trip, so
            /// even arbitrary float parameters survive).
            #[test]
            fn parse_render_parse_roundtrips(scn in arb_scenario()) {
                prop_assert!(scn.validate().is_ok(), "generator made invalid {scn:?}");
                let rendered = scn.to_string();
                let back = Scenario::parse(&rendered);
                prop_assert_eq!(back.as_ref(), Ok(&scn), "render was `{}`", rendered);
            }

            /// Arbitrary printable garbage never panics the parser —
            /// it's always Ok or a typed error with a message.
            #[test]
            fn arbitrary_input_never_panics(
                bytes in proptest::collection::vec(32u8..127, 0..60),
            ) {
                let text = String::from_utf8(bytes).unwrap();
                if let Err(e) = Scenario::parse(&text) {
                    prop_assert!(!e.to_string().is_empty());
                }
            }

            /// Rendering is stable: render(parse(render(s))) == render(s).
            #[test]
            fn canonical_form_is_a_fixpoint(scn in arb_scenario()) {
                let once = scn.to_string();
                let twice = Scenario::parse(&once).unwrap().to_string();
                prop_assert_eq!(once, twice);
            }
        }
    }
}

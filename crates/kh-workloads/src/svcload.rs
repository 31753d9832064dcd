//! svcload — the cluster tail-latency service workload.
//!
//! Open-loop request generators on client nodes drive server nodes
//! running the secure-service stack. Clients draw exponential
//! inter-arrival gaps from a dedicated deterministic RNG stream (the
//! cluster runs svcload as the depth-0 scenario
//! `arrive=exp:<mean_interarrival>`), so the offered load is
//! *identical* across server stacks: the Kitten-primary vs
//! Linux-primary comparison is purely a statement about the servers'
//! noise profiles, which is the paper's argument restated as
//! p50/p99/p999 latency tails at cluster scale.
//!
//! Frames are modelled at transaction level. The cluster carries each
//! request, response and NACK as its [`FrameHeader`] plus a wire length
//! ([`SvcLoadConfig::wire_bytes`]) and a corrupt flag, because simulated
//! time reads nothing else. This module also keeps the byte encoding of
//! that header ([`request_frame`], [`response_frame`], [`nack_frame`],
//! [`decode_frame`]): request id, originating client, send timestamp,
//! frame kind, attempt number and an FNV-1a checksum over the whole
//! frame. A frame mangled in transit is *detected* and attributed
//! ([`RequestOutcome::Corrupt`]) instead of being parsed as garbage; the
//! cluster's corrupt flag is exactly this codec's verdict, which
//! `tests/properties.rs` checks byte by byte. The reliability layer
//! itself — deadline, bounded retransmits with seeded jittered backoff,
//! optional hedging — is described by [`RetryPolicy`] and resolves every
//! request into an explicit [`RequestOutcome`].

use kh_arch::cpu::{AccessPattern, Phase};
use kh_sim::{Nanos, SimRng};
use serde::{Deserialize, Serialize};

/// Frame header layout (little-endian):
/// bytes 0..8 request id, 8..10 client index, 10..18 send time (ns),
/// 18 frame kind, 19 attempt number, 20..24 FNV-1a-32 checksum
/// computed over the whole frame with the checksum field zeroed.
pub const HEADER_BYTES: usize = 24;

/// Byte range of the checksum field inside the header.
const CHECKSUM_RANGE: std::ops::Range<usize> = 20..24;

/// Wire length of a NACK frame (shed notification) — minimum Ethernet
/// frame sized, much smaller than a response, so shedding is cheap.
pub const NACK_BYTES: usize = 64;

/// Parameters of the open-loop service workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvcLoadConfig {
    /// Open-loop generation window per client; arrivals stop here, but
    /// in-flight requests run to completion.
    pub duration: Nanos,
    /// Mean of the exponential inter-arrival gap, per client.
    pub mean_interarrival: Nanos,
    /// Request frame length (header + deterministic padding).
    pub request_bytes: usize,
    /// Response frame length.
    pub response_bytes: usize,
    /// Per-request server compute: retired non-memory instructions.
    pub service_instructions: u64,
    /// Per-request server compute: memory references.
    pub service_mem_refs: u64,
    /// Server working set touched per request.
    pub service_footprint: u64,
}

impl Default for SvcLoadConfig {
    fn default() -> Self {
        SvcLoadConfig {
            duration: Nanos::from_millis(200),
            mean_interarrival: Nanos::from_micros(500),
            request_bytes: 256,
            response_bytes: 1024,
            service_instructions: 60_000,
            service_mem_refs: 15_000,
            service_footprint: 128 << 10,
        }
    }
}

impl SvcLoadConfig {
    /// Short profile for smoke tests and the `--quick` bench cell.
    pub fn quick() -> Self {
        SvcLoadConfig {
            duration: Nanos::from_millis(50),
            ..Default::default()
        }
    }

    /// The per-request server compute, as a priceable phase. Blocked
    /// access with high reuse: a request handler re-walking its own
    /// session state, not a streaming scan.
    pub fn service_phase(&self) -> Phase {
        Phase {
            instructions: self.service_instructions,
            mem_refs: self.service_mem_refs,
            flops: 0,
            footprint: self.service_footprint,
            dram_bytes: 0,
            pattern: AccessPattern::Blocked { reuse: 0.8 },
        }
    }

    /// Wire length of a `kind` frame: the configured request/response
    /// size, never below the header; a NACK is always [`NACK_BYTES`].
    /// The byte builders and the cluster's header-only frames both size
    /// by this one rule.
    pub fn wire_bytes(&self, kind: FrameKind) -> usize {
        match kind {
            FrameKind::Request => self.request_bytes.max(HEADER_BYTES),
            FrameKind::Response => self.response_bytes.max(HEADER_BYTES),
            FrameKind::Nack => NACK_BYTES,
        }
    }
}

/// What a frame *is* — request, response, or a shed notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request,
    Response,
    /// Explicit admission-control rejection (load shed), so overload
    /// is visible to the client instead of indistinguishable from loss.
    Nack,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::Nack => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::Nack),
            _ => None,
        }
    }
}

/// The decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub id: u64,
    pub client: u16,
    pub sent: Nanos,
    pub kind: FrameKind,
    /// Which transmission attempt this frame belongs to (0 = first
    /// send; responses and NACKs echo the attempt they answer).
    pub attempt: u8,
}

impl FrameHeader {
    /// The header of one `kind` frame on `attempt` of request `id`.
    pub fn new(id: u64, client: u16, sent: Nanos, kind: FrameKind, attempt: u8) -> Self {
        FrameHeader {
            id,
            client,
            sent,
            kind,
            attempt,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header — not one of ours.
    Truncated,
    /// Checksum mismatch. The header fields are still reported when
    /// they parse (fabric corruption flips payload bytes, so the id is
    /// normally intact), letting the receiver attribute the damage to
    /// a specific request instead of just counting a mystery frame.
    Corrupt(Option<FrameHeader>),
}

/// FNV-1a over the whole frame with the checksum field read as zero.
pub fn frame_checksum(frame: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for (i, &b) in frame.iter().enumerate() {
        let b = if CHECKSUM_RANGE.contains(&i) { 0 } else { b };
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encode a frame into `buf`, reusing its allocation. The buffer is
/// truncated/extended to the frame's wire length; contents are fully
/// overwritten, so a recycled buffer produces bytes identical to a
/// fresh one.
fn build_into(cfg: &SvcLoadConfig, hdr: FrameHeader, f: &mut Vec<u8>) {
    f.clear();
    f.resize(cfg.wire_bytes(hdr.kind), 0);
    f[0..8].copy_from_slice(&hdr.id.to_le_bytes());
    f[8..10].copy_from_slice(&hdr.client.to_le_bytes());
    f[10..18].copy_from_slice(&hdr.sent.as_nanos().to_le_bytes());
    f[18] = hdr.kind.to_byte();
    f[19] = hdr.attempt;
    for (j, b) in f.iter_mut().enumerate().skip(HEADER_BYTES) {
        let x = hdr
            .id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(j as u64);
        *b = (x ^ (x >> 7)) as u8;
    }
    let sum = frame_checksum(f);
    f[CHECKSUM_RANGE].copy_from_slice(&sum.to_le_bytes());
}

fn build(cfg: &SvcLoadConfig, hdr: FrameHeader) -> Vec<u8> {
    let mut f = Vec::new();
    build_into(cfg, hdr, &mut f);
    f
}

/// Build the request frame for `(id, client, sent)` on `attempt`.
pub fn request_frame(
    cfg: &SvcLoadConfig,
    id: u64,
    client: u16,
    sent: Nanos,
    attempt: u8,
) -> Vec<u8> {
    build(
        cfg,
        FrameHeader::new(id, client, sent, FrameKind::Request, attempt),
    )
}

/// Build the response frame echoing the request's identity.
pub fn response_frame(
    cfg: &SvcLoadConfig,
    id: u64,
    client: u16,
    sent: Nanos,
    attempt: u8,
) -> Vec<u8> {
    build(
        cfg,
        FrameHeader::new(id, client, sent, FrameKind::Response, attempt),
    )
}

/// Build the NACK frame a shedding server sends back for a request.
pub fn nack_frame(cfg: &SvcLoadConfig, id: u64, client: u16, sent: Nanos, attempt: u8) -> Vec<u8> {
    build(
        cfg,
        FrameHeader::new(id, client, sent, FrameKind::Nack, attempt),
    )
}

/// [`request_frame`], but encoding into a reusable buffer.
pub fn request_frame_into(
    cfg: &SvcLoadConfig,
    id: u64,
    client: u16,
    sent: Nanos,
    attempt: u8,
    buf: &mut Vec<u8>,
) {
    build_into(
        cfg,
        FrameHeader::new(id, client, sent, FrameKind::Request, attempt),
        buf,
    );
}

/// [`response_frame`], but encoding into a reusable buffer.
pub fn response_frame_into(
    cfg: &SvcLoadConfig,
    id: u64,
    client: u16,
    sent: Nanos,
    attempt: u8,
    buf: &mut Vec<u8>,
) {
    build_into(
        cfg,
        FrameHeader::new(id, client, sent, FrameKind::Response, attempt),
        buf,
    );
}

/// Decode and checksum-verify a frame.
pub fn decode_frame(frame: &[u8]) -> Result<FrameHeader, FrameError> {
    if frame.len() < HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    let hdr = FrameKind::from_byte(frame[18]).map(|kind| FrameHeader {
        id: u64::from_le_bytes(frame[0..8].try_into().unwrap()),
        client: u16::from_le_bytes(frame[8..10].try_into().unwrap()),
        sent: Nanos(u64::from_le_bytes(frame[10..18].try_into().unwrap())),
        kind,
        attempt: frame[19],
    });
    let stored = u32::from_le_bytes(frame[CHECKSUM_RANGE].try_into().unwrap());
    if stored != frame_checksum(frame) {
        return Err(FrameError::Corrupt(hdr));
    }
    hdr.ok_or(FrameError::Corrupt(None))
}

/// Client-side reliability policy: per-request deadline, bounded
/// retransmits with exponential backoff + seeded jitter, and optional
/// request hedging. All randomness comes from a per-leg seed (the
/// cluster derives it with `kh_scenario::leg_seed` from a dedicated
/// retry root) on its own `SimRng` stream, so arming the policy never
/// perturbs arrivals, noise, or fabric fault draws — the cluster's
/// determinism gates hold with retries on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total transmissions allowed per request, including the first.
    pub max_attempts: u32,
    /// End-to-end budget from first send; when it expires the request
    /// resolves to a terminal [`RequestOutcome`].
    pub deadline: Nanos,
    /// Backoff before the first retransmit; doubles per attempt.
    pub base_backoff: Nanos,
    /// Cap on a single backoff step (pre-jitter).
    pub max_backoff: Nanos,
    /// Each step is stretched by `1 + jitter_frac * u`, `u ~ U[0,1)`
    /// from the request's own stream, to decorrelate retry storms.
    pub jitter_frac: f64,
    /// When set, a duplicate (hedge) transmission fires this long
    /// after the first send unless a response already arrived.
    /// Benchmarks derive it from a fault-free baseline p99.
    pub hedge_delay: Option<Nanos>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The backoff floor must clear the *loaded* latency tail, not
        // the median: a retransmit timer inside the queueing tail turns
        // duplicates into extra load exactly when the system is slow,
        // and the spurious-retry storm sheds more than the fault it was
        // meant to cover (metastable failure). svcload's full profile
        // tops out under ~5 ms end-to-end, so the first retransmit
        // waits 10 ms.
        RetryPolicy {
            max_attempts: 4,
            deadline: Nanos::from_millis(60),
            base_backoff: Nanos::from_millis(10),
            max_backoff: Nanos::from_millis(20),
            jitter_frac: 0.25,
            hedge_delay: None,
        }
    }
}

impl RetryPolicy {
    /// The retransmit delays for one request: `schedule[k]` is how long
    /// after attempt `k`'s send attempt `k+1` fires (absent a response).
    /// Deterministic per seed; at most `max_attempts - 1` entries;
    /// monotone non-decreasing; cumulative sum strictly below the
    /// deadline (a retransmit that could only land after the deadline
    /// is never scheduled).
    pub fn backoff_schedule(&self, seed: u64) -> Vec<Nanos> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        let mut cum = 0u64;
        let mut prev = 0u64;
        for k in 0..self.max_attempts.saturating_sub(1) {
            let doubled = self
                .base_backoff
                .as_nanos()
                .checked_shl(k)
                .unwrap_or(u64::MAX);
            let capped = doubled.min(self.max_backoff.as_nanos());
            let jittered =
                (capped as f64 * (1.0 + self.jitter_frac.max(0.0) * rng.next_f64())) as u64;
            let delay = jittered.max(prev);
            cum = cum.saturating_add(delay);
            if cum >= self.deadline.as_nanos() {
                break;
            }
            out.push(Nanos(delay));
            prev = delay;
        }
        out
    }
}

/// How a request's story ended. Every generated request resolves to
/// exactly one of these, recorded next to its latency — there is no
/// silent-loss path once the reliability layer is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Response received; `attempt` is the transmission that won.
    Ok { attempt: u8 },
    /// Response received, and the winning transmission was the hedge.
    OkHedged { attempt: u8 },
    /// Server shed the request (NACK) and no attempt succeeded.
    Shed,
    /// Deadline expired with attempts still outstanding.
    DeadlineExceeded,
    /// Every observed reply was checksum-corrupt.
    Corrupt,
    /// Lost with no reliability layer armed — the silent-drop case the
    /// retry path exists to eliminate.
    Failed,
    /// Never transmitted: the target server failed remote attestation
    /// and is quarantined, so the client refused to talk to it at all.
    Refused,
}

impl RequestOutcome {
    /// Stable short label used in CSV exports and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Ok { .. } => "ok",
            RequestOutcome::OkHedged { .. } => "ok-hedged",
            RequestOutcome::Shed => "shed",
            RequestOutcome::DeadlineExceeded => "deadline",
            RequestOutcome::Corrupt => "corrupt",
            RequestOutcome::Failed => "failed",
            RequestOutcome::Refused => "refused",
        }
    }

    /// Did the client get its answer?
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Ok { .. } | RequestOutcome::OkHedged { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_their_header() {
        let cfg = SvcLoadConfig::default();
        let sent = Nanos::from_micros(1234);
        let req = request_frame(&cfg, 42, 3, sent, 0);
        assert_eq!(req.len(), cfg.request_bytes);
        let h = decode_frame(&req).unwrap();
        assert_eq!((h.id, h.client, h.sent), (42, 3, sent));
        assert_eq!((h.kind, h.attempt), (FrameKind::Request, 0));
        let resp = response_frame(&cfg, 42, 3, sent, 2);
        assert_eq!(resp.len(), cfg.response_bytes);
        let h = decode_frame(&resp).unwrap();
        assert_eq!((h.id, h.client, h.sent), (42, 3, sent));
        assert_eq!((h.kind, h.attempt), (FrameKind::Response, 2));
        assert_eq!(
            decode_frame(&resp[..10]),
            Err(FrameError::Truncated),
            "truncated header"
        );
        let nack = nack_frame(&cfg, 42, 3, sent, 1);
        assert_eq!(nack.len(), NACK_BYTES);
        let h = decode_frame(&nack).unwrap();
        assert_eq!((h.id, h.client, h.kind), (42, 3, FrameKind::Nack));
    }

    #[test]
    fn into_variants_reuse_buffers_byte_identically() {
        let cfg = SvcLoadConfig::default();
        let sent = Nanos::from_micros(9);
        // A dirty, oversized recycled buffer must yield the same bytes
        // as a fresh allocation.
        let mut buf = vec![0xAA; 4096];
        request_frame_into(&cfg, 7, 2, sent, 1, &mut buf);
        assert_eq!(buf, request_frame(&cfg, 7, 2, sent, 1));
        response_frame_into(&cfg, 7, 2, sent, 1, &mut buf);
        assert_eq!(buf, response_frame(&cfg, 7, 2, sent, 1));
    }

    #[test]
    fn padding_is_deterministic_per_request() {
        let cfg = SvcLoadConfig::default();
        let a = request_frame(&cfg, 1, 0, Nanos(5), 0);
        let b = request_frame(&cfg, 1, 0, Nanos(5), 0);
        assert_eq!(a, b);
        let c = request_frame(&cfg, 2, 0, Nanos(5), 0);
        assert_ne!(a[HEADER_BYTES..], c[HEADER_BYTES..]);
        // The attempt byte changes the header (and checksum) only.
        let d = request_frame(&cfg, 1, 0, Nanos(5), 1);
        assert_eq!(a[HEADER_BYTES..], d[HEADER_BYTES..]);
        assert_ne!(a, d);
    }

    #[test]
    fn backoff_schedule_is_seeded_bounded_and_monotone() {
        let p = RetryPolicy::default();
        let s = p.backoff_schedule(7);
        assert_eq!(s, p.backoff_schedule(7));
        assert_ne!(s, p.backoff_schedule(8));
        assert!(s.len() <= (p.max_attempts - 1) as usize);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "monotone");
        let total: u64 = s.iter().map(|d| d.as_nanos()).sum();
        assert!(total < p.deadline.as_nanos(), "never past the deadline");
        // A tight deadline truncates the schedule entirely.
        let tight = RetryPolicy {
            deadline: Nanos::from_micros(1),
            ..p
        };
        assert!(tight.backoff_schedule(1).is_empty());
    }

    #[test]
    fn service_phase_mirrors_config() {
        let cfg = SvcLoadConfig::default();
        let p = cfg.service_phase();
        assert_eq!(p.instructions, cfg.service_instructions);
        assert_eq!(p.mem_refs, cfg.service_mem_refs);
        assert_eq!(p.footprint, cfg.service_footprint);
    }
}

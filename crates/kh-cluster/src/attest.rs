//! Cluster-wide remote attestation.
//!
//! Before a cluster serves traffic, every node proves to every other
//! node that it booted the software it claims to have booted. The
//! scheme extends the single-machine verified-boot chain
//! ([`kh_hafnium::boot`] measures EL3 firmware → EL2 Hafnium → each EL1
//! image; [`kh_hafnium::verify`] checks image signatures against a
//! boot-time key registry) across the fabric:
//!
//! - At deployment time the operator records each node's **golden
//!   measurement** (the folded boot-chain digest) and installs one HMAC
//!   key per node into a shared registry — the symmetric stand-in for
//!   the certificate material the paper proposes baking into the
//!   trusted boot sequence, exactly as [`kh_hafnium::verify`] models
//!   it.
//! - At cluster bring-up every node runs a deterministic
//!   challenge/response sweep over its peers: send a nonce, get back
//!   `(measurement, HMAC(key_peer, measurement ‖ nonce ‖ peer_index))`,
//!   and accept only if the signature verifies under the registered key
//!   **and** the presented measurement equals the registry's golden
//!   value.
//! - A peer failing either check is **quarantined**: the node never
//!   sends it a request, and traffic that would have targeted it ends
//!   in the explicit `Refused` terminal outcome — no silent drops.
//!
//! Everything is a pure function of `(nodes, seed, tampered set)`:
//! nonces ride a dedicated stream root split per verifier, key material
//! rides another, and neither is shared with noise, arrivals, or fault
//! gates — arming attestation perturbs no other stream, which is what
//! the tamper-isolation gate asserts byte-for-byte.

use crate::node::Node;
use kh_hafnium::sha256::HmacKey;
use kh_hafnium::verify::TrustedKey;
use kh_sim::{Nanos, SimRng};
use kh_virtio::LinkProfile;

/// Wire size of a challenge frame: 16-byte header + 32-byte nonce.
pub const CHALLENGE_FRAME_BYTES: u64 = 48;
/// Wire size of an evidence frame: 16-byte header + 32-byte measurement
/// + 32-byte nonce echo + 32-byte HMAC signature.
pub const EVIDENCE_FRAME_BYTES: u64 = 112;
/// CPU cost for the prover to assemble and sign evidence (a handful of
/// SHA-256 compressions plus the quote marshalling).
pub const SIGN_COST: Nanos = Nanos::from_micros(4);
/// CPU cost for the verifier to recompute the HMAC and compare against
/// the golden registry entry.
pub const VERIFY_COST: Nanos = Nanos::from_micros(5);

/// One ordered (verifier, peer) attestation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    pub verifier: u16,
    pub peer: u16,
    /// Signature verified under the registered key.
    pub sig_ok: bool,
    /// Presented measurement matched the golden registry value.
    pub measurement_ok: bool,
}

impl PairVerdict {
    /// Both checks passed: the peer may be spoken to.
    pub fn accepted(&self) -> bool {
        self.sig_ok && self.measurement_ok
    }
}

/// What a full-mesh attestation handshake produced.
#[derive(Debug, Clone)]
pub struct AttestationReport {
    /// Nodes in the mesh.
    pub nodes: usize,
    /// Challenge + evidence frames exchanged.
    pub frames: u64,
    /// Total handshake bytes on the fabric.
    pub bytes: u64,
    /// Virtual time the slowest verifier finished its sweep (verifiers
    /// run in parallel; each challenges its peers serially).
    pub completed_at: Nanos,
    /// Every ordered (verifier, peer) check, verifier-major order.
    pub verdicts: Vec<PairVerdict>,
    /// Nodes rejected by at least one verifier, sorted. These serve no
    /// traffic and receive none.
    pub quarantined: Vec<u16>,
}

impl AttestationReport {
    /// Did every node attest cleanly?
    pub fn all_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The per-pair verdicts as CSV — the byte-identity artifact the
    /// determinism tests compare across worker counts and reruns.
    pub fn csv(&self) -> String {
        let mut s = String::from("verifier,peer,sig_ok,measurement_ok,accepted\n");
        for v in &self.verdicts {
            s.push_str(&format!(
                "{},{},{},{},{}\n",
                v.verifier,
                v.peer,
                v.sig_ok,
                v.measurement_ok,
                v.accepted()
            ));
        }
        s
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "attestation: {} nodes, {} frames / {} bytes, done at {}us, quarantined {:?}",
            self.nodes,
            self.frames,
            self.bytes,
            self.completed_at.as_nanos() / 1_000,
            self.quarantined,
        )
    }
}

/// Derive node `i`'s registered HMAC key from the cluster seed. Both
/// sides of the symmetric scheme share it, like the boot-time registry
/// in [`kh_hafnium::verify`]; a dedicated stream root keeps key
/// material out of every other stream.
fn node_key(seed: u64, i: u16) -> [u8; 32] {
    let mut rng = SimRng::new(seed ^ 0x6B68_6174_7374).split(i as u64); // "khatst"
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

/// The message a prover signs: presented measurement, the verifier's
/// nonce, and the prover's own index (domain separation across nodes).
fn evidence_message(measurement: &[u8; 32], nonce: &[u8; 32], peer: u16) -> [u8; 66] {
    let mut m = [0u8; 66];
    m[..32].copy_from_slice(measurement);
    m[32..64].copy_from_slice(nonce);
    m[64..].copy_from_slice(&peer.to_le_bytes());
    m
}

/// Run the full-mesh challenge/response handshake.
///
/// `tampered` nodes present a forged measurement (first byte flipped —
/// the boot image was swapped after the golden value was recorded);
/// their key is *not* compromised, so the signature still verifies and
/// it is the registry comparison that catches them. The sweep draws
/// nonces from its own stream root and consumes nothing from any node,
/// so healthy nodes' noise replay is bit-identical with or without a
/// tamper clause armed.
pub fn handshake(
    nodes: &[Node],
    seed: u64,
    tampered: &[u16],
    link: &LinkProfile,
) -> AttestationReport {
    let n = nodes.len();
    // Deployment-time registry: golden measurement + key per node. Each
    // prover holds its own copy of its key; both sides key their HMAC
    // once per node, not once per pair.
    let golden: Vec<[u8; 32]> = nodes.iter().map(|nd| nd.measurement()).collect();
    let registry: Vec<TrustedKey> = (0..n)
        .map(|i| TrustedKey::new(format!("node{i}"), &node_key(seed, i as u16)))
        .collect();
    let provers: Vec<HmacKey> = (0..n)
        .map(|i| HmacKey::new(&node_key(seed, i as u16)))
        .collect();
    // What each node actually presents at bring-up.
    let presented: Vec<[u8; 32]> = golden
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut m = *g;
            if tampered.contains(&(i as u16)) {
                m[0] ^= 0xFF;
            }
            m
        })
        .collect();

    let mut nonce_roots = SimRng::new(seed ^ 0x6B68_6E6F_6E63); // "khnonc"
    let mut verdicts = Vec::with_capacity(n.saturating_sub(1) * n);
    let mut completed_at = Nanos::ZERO;
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let rtt = link.base_latency
        + link.wire_time(CHALLENGE_FRAME_BYTES)
        + link.base_latency
        + link.wire_time(EVIDENCE_FRAME_BYTES);
    for v in 0..n as u16 {
        let mut nonce_rng = nonce_roots.split(v as u64);
        let mut clock = Nanos::ZERO;
        for p in 0..n as u16 {
            if p == v {
                continue;
            }
            let mut nonce = [0u8; 32];
            for chunk in nonce.chunks_mut(8) {
                chunk.copy_from_slice(&nonce_rng.next_u64().to_le_bytes());
            }
            // Prover signs what it presents with its own (uncompromised)
            // key; verifier recomputes under the registered key and then
            // compares the presented measurement to the golden value.
            let msg = evidence_message(&presented[p as usize], &nonce, p);
            let sig = provers[p as usize].mac(&msg);
            let sig_ok = registry[p as usize].sign(&msg) == sig;
            let measurement_ok = presented[p as usize] == golden[p as usize];
            verdicts.push(PairVerdict {
                verifier: v,
                peer: p,
                sig_ok,
                measurement_ok,
            });
            frames += 2;
            bytes += CHALLENGE_FRAME_BYTES + EVIDENCE_FRAME_BYTES;
            clock += rtt + SIGN_COST + VERIFY_COST;
        }
        completed_at = completed_at.max(clock);
    }

    let mut quarantined: Vec<u16> = verdicts
        .iter()
        .filter(|vd| !vd.accepted())
        .map(|vd| vd.peer)
        .collect();
    quarantined.sort_unstable();
    quarantined.dedup();

    AttestationReport {
        nodes: n,
        frames,
        bytes,
        completed_at,
        verdicts,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Role;
    use kh_arch::platform::Platform;
    use kh_core::config::StackKind;

    fn mesh(stacks: &[StackKind], seed: u64) -> Vec<Node> {
        stacks
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Node::new(
                    i as u16,
                    if i == 0 { Role::Client } else { Role::Server },
                    s,
                    Platform::pine_a64_lts(),
                    seed ^ (i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn clean_mesh_attests_everyone() {
        let nodes = mesh(
            &[
                StackKind::HafniumKitten,
                StackKind::HafniumLinux,
                StackKind::NativeTheseus,
            ],
            7,
        );
        let link = LinkProfile::gigabit();
        let r = handshake(&nodes, 7, &[], &link);
        assert!(r.all_clean());
        assert_eq!(r.verdicts.len(), 6, "full mesh of ordered pairs");
        assert!(r.verdicts.iter().all(|v| v.accepted()));
        assert_eq!(r.frames, 12);
        assert_eq!(r.bytes, 6 * (CHALLENGE_FRAME_BYTES + EVIDENCE_FRAME_BYTES));
        assert!(r.completed_at > Nanos::ZERO);
    }

    #[test]
    fn handshake_is_deterministic() {
        let link = LinkProfile::gigabit();
        let run = || {
            let nodes = mesh(&[StackKind::HafniumKitten; 4], 11);
            handshake(&nodes, 11, &[], &link).csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tampered_node_is_quarantined_by_every_peer() {
        let nodes = mesh(&[StackKind::HafniumKitten; 4], 13);
        let link = LinkProfile::gigabit();
        let r = handshake(&nodes, 13, &[2], &link);
        assert_eq!(r.quarantined, vec![2]);
        // The forged measurement fails the registry check at every
        // verifier; the signature itself still verifies (the key is
        // not compromised, the image is).
        for vd in r.verdicts.iter().filter(|vd| vd.peer == 2) {
            assert!(vd.sig_ok);
            assert!(!vd.measurement_ok);
            assert!(!vd.accepted());
        }
        // Everyone else attests cleanly, including to the tampered
        // verifier (it can still check others).
        assert!(r
            .verdicts
            .iter()
            .filter(|vd| vd.peer != 2)
            .all(|vd| vd.accepted()));
    }

    #[test]
    fn handshake_cost_grows_quadratically_in_frames_linearly_in_time() {
        let link = LinkProfile::gigabit();
        let cost = |n: usize| {
            let nodes = mesh(&vec![StackKind::HafniumKitten; n], 17);
            let r = handshake(&nodes, 17, &[], &link);
            (r.frames, r.completed_at)
        };
        let (f4, t4) = cost(4);
        let (f8, t8) = cost(8);
        assert_eq!(f4, 2 * 4 * 3);
        assert_eq!(f8, 2 * 8 * 7);
        // Verifiers sweep in parallel: time grows with the peer count
        // (n-1), not the pair count.
        assert_eq!(t8.as_nanos() / t4.as_nanos(), 7 / 3);
    }

    #[test]
    fn measurements_differ_across_stacks_but_not_runs() {
        let a = mesh(&[StackKind::HafniumKitten, StackKind::NativeTheseus], 19);
        let b = mesh(&[StackKind::HafniumKitten, StackKind::NativeTheseus], 19);
        assert_eq!(a[0].measurement(), b[0].measurement());
        assert_eq!(a[1].measurement(), b[1].measurement());
        assert_ne!(a[0].measurement(), a[1].measurement());
    }
}

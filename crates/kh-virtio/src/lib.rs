//! Secure paravirtual I/O for the Kitten/Hafnium stack.
//!
//! The paper's stated limitation is the absence of virtual I/O ("we do
//! not yet have the ability to support virtual I/O"); its future-work
//! list asks for "I/O mechanisms that are able to maintain secure system
//! isolation without imposing significant performance overheads". This
//! crate grows the existing primitives into that subsystem:
//!
//! * [`queue::Virtqueue`] — a virtio-1.0-style split virtqueue
//!   (descriptor table + avail/used rings) with event-index doorbell and
//!   interrupt suppression, generalizing `kh_hafnium::ring::SharedRing`
//!   from a byte FIFO to descriptor-based, completion-tracked I/O.
//! * [`queue::QueueRegion`] — queue memory established through Hafnium's
//!   *audited share-grant* path, so stage-2 isolation is preserved and
//!   provable: a VM that is not a party to the grant cannot map or touch
//!   another VM's queue pages.
//! * [`net::VirtioNet`] — frame tx/rx against a backend with a
//!   bandwidth/latency link model derived from the platform profile.
//! * [`blk::VirtioBlk`] — a request queue against a storage backend with
//!   a seek/transfer cost model.
//! * [`cost::IoCostModel`] — the architectural costs (hypercall round
//!   trips, VM context switches, GIC ack/EOI, cacheline copies) every
//!   doorbell and completion interrupt pays, priced from the platform
//!   profile exactly as the existing `ablation_io_path` does.
//! * [`frontend::Frontend`] — the guest side of every completion: reap
//!   net/blk completions, price the pass by the OS's interrupt-entry and
//!   per-completion costs, and re-kick a lost doorbell after the OS's
//!   [`watchdog::KickWatchdog`] timeout. Each OS crate supplies its
//!   numbers through a `virtio::frontend()` constructor.
//!
//! Completion interrupts flow through both of the SPM's routing modes
//! (`IrqRoutingPolicy::AllToPrimary` forwarding via the primary vs the
//! paper's `Selective` extension), so the routing argument is re-measured
//! on a real I/O path by `kh_core::figures::ablation_virtio`.

pub mod blk;
pub mod cost;
pub mod frontend;
pub mod net;
pub mod queue;
pub mod timing;
pub mod watchdog;

pub use blk::{BlkRequest, StorageProfile, VirtioBlk};
pub use cost::IoCostModel;
pub use net::{EchoBackend, LinkProfile, NetBackend, NetStats, VirtioNet};
pub use queue::{QueueError, QueueRegion, QueueStats, Virtqueue};
pub use watchdog::KickWatchdog;

/// FNV-1a checksum used by the I/O workloads to verify payload integrity
/// end to end (driver → queue → device → backend → queue → driver).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_discriminates() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}

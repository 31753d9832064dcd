//! # kh-theseus — the hardware-isolation-free bound
//!
//! A timing model of a Theseus-style safe-language OS: one address space,
//! one privilege level, isolation enforced by the compiler instead of the
//! MMU and the secure monitor. There is no stage-2 translation (no walk
//! to cache, no walk to miss), no trap into a hypervisor, no world
//! switch on the IPC path — component boundaries are function calls that
//! the type system proves safe.
//!
//! The costs that remain are real and are modeled deterministically:
//!
//! - a **safety tax** on service work ([`SAFETY_TAX`]): bounds checks,
//!   fat-pointer arithmetic, and the occasional arc/refcount traffic the
//!   language runtime cannot elide;
//! - **cooperative restart**: a faulted component is torn down by
//!   unwinding its stack and dropping its heap, then relinked — cheaper
//!   than an SPM `restart_vm` (no second-stage teardown, no image
//!   re-verify) but not free ([`runtime::TheseusRuntime`]);
//! - an ordinary scheduler tick ([`profile::TheseusProfile`]), priced
//!   below Kitten's because the handler never leaves EL1.
//!
//! The crate mirrors the shape of `kh-kitten`: a profile implementing
//! `OsTimingModel`, a virtio frontend, and (unique to this stack) a
//! component runtime that stands in for the SPM's fault story.

pub mod profile;
pub mod runtime;
pub mod virtio;

pub use profile::TheseusProfile;
pub use runtime::TheseusRuntime;

/// Fractional CPU-time overhead the safe-language runtime adds to
/// service work: bounds checks, fat pointers, refcount traffic. The
/// Theseus and RedLeaf evaluations both place this in the low single
/// digits; 1% keeps the arm strictly below the stage-2 arms without
/// pretending the tax away.
pub const SAFETY_TAX: f64 = 0.01;

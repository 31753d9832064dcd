//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate every other `kh-*` crate builds on. It
//! provides:
//!
//! * [`time`] — a nanosecond-resolution virtual clock ([`time::Nanos`])
//!   with cycle/frequency conversion helpers,
//! * [`rng`] — deterministic, seedable random number generation
//!   (SplitMix64 and xoshiro256**, implemented locally so simulations are
//!   bit-reproducible regardless of external crate versions),
//! * [`event`] — a cancellable priority event queue with stable FIFO
//!   ordering among simultaneous events,
//! * [`trace`] — a lightweight structured trace recorder used to capture
//!   machine-level happenings (traps, ticks, context switches) for the
//!   noise-profile experiments,
//! * [`fault`] — seeded, deterministic fault-injection plans (crashes,
//!   hangs, dropped/corrupted messages, lost/spurious doorbells and
//!   IRQs, delayed ticks) used to test isolation under adversity.
//!
//! The engine is intentionally single-threaded: reproducibility of the
//! paper's noise measurements requires a total order over machine events.
//! Parallelism in the reproduction lives one level up (the benchmark
//! harness runs independent experiments on separate engines).

pub mod event;
pub mod fault;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use fault::{
    FabricFaultPlan, FabricFaultSpec, FabricFaultStats, FaultEvent, FaultKind, FaultPlan,
    FaultSpec, FaultStats,
};
pub use rng::{DrawAhead, GaussianDraw, SimRng, SplitMix64};
pub use time::{Freq, Nanos};
pub use trace::{TraceCategory, TraceEvent, TraceRecorder};

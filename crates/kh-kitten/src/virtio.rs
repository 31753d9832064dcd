//! The Kitten-side virtio frontend.
//!
//! A lightweight kernel services a completion interrupt the way it does
//! everything else: no softirq deferral, no NAPI budget accounting — the
//! handler runs to completion and hands buffers straight to the single
//! waiting task. The service costs here encode that: one context switch
//! into the handler, a small per-completion reap cost, nothing else.

use crate::profile::KittenProfile;
use kh_sim::Nanos;
use kh_virtio::frontend::Frontend;
use kh_virtio::watchdog::KickWatchdog;

/// The frontend driver living in a Kitten VM.
pub fn frontend() -> Frontend {
    Frontend {
        // A single switch into the run-to-completion handler.
        irq_entry: KittenProfile::default().ctx_switch_cost,
        // Descriptor recycle + buffer handoff.
        per_completion: Nanos(150),
        // An LWK can afford a tight watchdog: its timers are cheap and
        // its device round trips are microseconds.
        watchdog: KickWatchdog::new(Nanos::from_micros(100)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lwk_interrupt_entry_is_one_switch() {
        let drv = frontend();
        assert_eq!(drv.irq_entry, Nanos::from_micros(1));
        assert_eq!(drv.per_completion, Nanos(150));
        assert_eq!(drv.watchdog.timeout, Nanos::from_micros(100));
    }
}

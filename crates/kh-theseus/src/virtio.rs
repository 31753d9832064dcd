//! The Theseus-side virtio frontend.
//!
//! The driver is a component in the single address space: a completion
//! interrupt vectors straight into it with no world switch and no
//! para-virtual interrupt controller in between (there is no SPM to
//! attach through; the vector table is edited at relink time). Entry is
//! a plain exception-vector dispatch plus the safe-language prologue —
//! cheaper than even Kitten's one context switch. Per-completion reap
//! work is identical in kind (descriptor recycle, buffer handoff) but
//! the buffers hand over as typed slices, so the per-completion constant
//! matches Kitten's.

use kh_sim::Nanos;
use kh_virtio::frontend::Frontend;
use kh_virtio::watchdog::KickWatchdog;

/// The frontend driver component.
pub fn frontend() -> Frontend {
    Frontend {
        // Exception vector + safe-language prologue. No EL round trip,
        // no address-space switch.
        irq_entry: Nanos(120),
        // Descriptor recycle + typed handoff.
        per_completion: Nanos(150),
        // As tight as Kitten's: timers are cheap here too.
        watchdog: KickWatchdog::new(Nanos::from_micros(100)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_a_vector_dispatch() {
        let drv = frontend();
        assert_eq!(drv.irq_entry, Nanos(120));
        assert_eq!(drv.per_completion, Nanos(150));
        assert_eq!(drv.watchdog.timeout, Nanos::from_micros(100));
    }

    #[test]
    fn entry_undercuts_the_lwk() {
        // Kitten's entry is one full context switch (1us); a same-space
        // vector dispatch must come in well under that.
        assert!(frontend().irq_entry < Nanos::from_micros(1));
    }
}

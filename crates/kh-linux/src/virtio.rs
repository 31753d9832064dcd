//! The Linux-side virtio frontend.
//!
//! A full-weight kernel splits completion handling across a hardirq that
//! only acks and schedules, and a softirq (NAPI poll / blk-mq complete)
//! that does the real reaping — plus per-completion skb / bio
//! bookkeeping a lightweight kernel never pays. The service costs here
//! encode that two-stage path; contrast `kh_kitten::virtio`.

use crate::profile::LinuxProfile;
use kh_sim::Nanos;
use kh_virtio::frontend::Frontend;
use kh_virtio::watchdog::KickWatchdog;

/// The frontend driver living in a Linux VM.
pub fn frontend() -> Frontend {
    // Only the costs are read: no core needs a kthread mix.
    let profile = LinuxProfile::new(0, 0);
    Frontend {
        // The hardirq entry switch plus the deferred softirq pass that
        // actually reaps.
        irq_entry: profile.ctx_switch_cost + profile.tick_cost,
        // skb alloc / bio endio, cgroup stats.
        per_completion: Nanos(450),
        // virtio-net tx watchdog / blk-mq request timeout. Jiffy-
        // resolution timers make it far coarser than Kitten's: 4 ms,
        // one HZ=250 tick.
        watchdog: KickWatchdog::new(Nanos::from_micros(4000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwk_interrupt_path_is_a_switch_plus_a_softirq() {
        let drv = frontend();
        assert_eq!(drv.irq_entry, Nanos::from_micros(8));
        assert_eq!(drv.per_completion, Nanos(450));
        assert_eq!(drv.watchdog.timeout, Nanos::from_millis(4));
    }

    #[test]
    fn fwk_interrupt_path_is_heavier_than_lwk() {
        let linux = frontend();
        let kitten = kh_kitten::virtio::frontend();
        assert!(linux.irq_entry > kitten.irq_entry);
        assert!(linux.per_completion > kitten.per_completion);
        assert!(
            linux.watchdog.timeout > kitten.watchdog.timeout,
            "jiffy-resolution re-kick vs LWK microsecond watchdog"
        );
    }
}

//! The frontend driver: the guest OS's side of every completion.
//!
//! Reaping a completion is the same work under every OS — pop used
//! descriptors, recycle them, hand the payload on. What differs is what
//! the OS charges for it: the cost of entering its interrupt handler,
//! the bookkeeping per completion, and how long a doorbell may go
//! unanswered before it is re-rung. So one [`Frontend`] carries those
//! three numbers, and each OS crate's `virtio::frontend()` supplies its
//! own (`kh_kitten::virtio`, `kh_linux::virtio`, `kh_theseus::virtio`).

use crate::blk::VirtioBlk;
use crate::net::VirtioNet;
use crate::watchdog::KickWatchdog;
use kh_sim::Nanos;

/// What one completion-interrupt service pass cost and reaped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    pub completions: u64,
    pub cost: Nanos,
    /// Payload bytes handed to the consumer (rx frames / read data).
    pub bytes: u64,
}

/// A virtio frontend driver, priced by the OS it runs in.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// OS cost of taking one completion interrupt.
    pub irq_entry: Nanos,
    /// Per-completion reap cost.
    pub per_completion: Nanos,
    /// Doorbell watchdog: a lost kick is re-rung after its timeout.
    pub watchdog: KickWatchdog,
}

impl Frontend {
    /// The frontend rang a doorbell: arm the re-kick watchdog.
    pub fn note_kick(&mut self, now: Nanos) {
        self.watchdog.note_kick(now);
    }

    /// If a kick has gone unanswered past the timeout, consume the
    /// deadline and tell the caller to ring the doorbell again.
    pub fn should_rekick(&mut self, now: Nanos) -> bool {
        self.watchdog.fire(now)
    }

    /// Service a net completion interrupt: reap rx frames and tx slots.
    pub fn drain_net(&mut self, net: &mut VirtioNet) -> DrainReport {
        let (mut completions, mut bytes) = (0, 0);
        while let Some(frame) = net.recv_frame() {
            completions += 1;
            bytes += frame.len() as u64;
        }
        self.reaped(completions + net.reap_tx(), bytes)
    }

    /// Service a blk completion interrupt: reap finished requests.
    pub fn drain_blk(&mut self, blk: &mut VirtioBlk) -> DrainReport {
        let (mut completions, mut bytes) = (0, 0);
        while let Some(data) = blk.poll_completion() {
            completions += 1;
            bytes += data.len() as u64;
        }
        self.reaped(completions, bytes)
    }

    /// Price a service pass (one interrupt entry plus the reap of each
    /// completion); any completion means the doorbell was heard.
    fn reaped(&mut self, completions: u64, bytes: u64) -> DrainReport {
        if completions > 0 {
            self.watchdog.note_completion();
        }
        DrainReport {
            completions,
            cost: self.irq_entry + self.per_completion.scaled(completions),
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blk::BlkRequest;
    use crate::net::EchoBackend;
    use kh_arch::platform::Platform;

    /// Distinct costs, so a term priced twice or dropped shows.
    fn frontend() -> Frontend {
        Frontend {
            irq_entry: Nanos(1_000),
            per_completion: Nanos(150),
            watchdog: KickWatchdog::new(Nanos::from_micros(100)),
        }
    }

    #[test]
    fn drain_net_reaps_everything_and_prices_it() {
        let platform = Platform::pine_a64_lts();
        let mut net = VirtioNet::new(&platform, 78, 64, 0);
        let mut backend = EchoBackend::default();
        for i in 0..4u8 {
            net.post_rx(256).unwrap();
            net.send_frame(&[i; 100]).unwrap();
        }
        net.device_poll(&mut backend);

        let mut drv = frontend();
        let r = drv.drain_net(&mut net);
        assert_eq!(r.completions, 8, "4 rx frames + 4 tx slots");
        assert_eq!(r.bytes, 400);
        assert_eq!(r.cost, Nanos(1_000 + 8 * 150));
        // Nothing left: a second pass pays the entry alone.
        assert_eq!(
            drv.drain_net(&mut net),
            DrainReport {
                completions: 0,
                cost: Nanos(1_000),
                bytes: 0,
            }
        );
    }

    #[test]
    fn drain_blk_reaps_and_prices() {
        let platform = Platform::pine_a64_lts();
        let mut blk = VirtioBlk::new(&platform, 79, 64, 0);
        for i in 0..3u64 {
            blk.submit(&BlkRequest::Write {
                sector: i,
                data: vec![i as u8; 512],
            })
            .unwrap();
        }
        blk.device_poll();
        let mut drv = frontend();
        let r = drv.drain_blk(&mut blk);
        assert_eq!(r.completions, 3);
        assert_eq!(r.cost, Nanos(1_000 + 3 * 150));
    }

    #[test]
    fn lost_doorbell_is_rekicked_after_timeout() {
        let platform = Platform::pine_a64_lts();
        let mut net = VirtioNet::new(&platform, 78, 64, 0);
        let mut drv = frontend();
        drv.note_kick(Nanos::ZERO);
        // The doorbell was lost: no completion ever arrives, and a pass
        // that reaps nothing (a spurious IRQ) leaves the watchdog armed.
        assert_eq!(drv.drain_net(&mut net).completions, 0);
        assert!(!drv.should_rekick(Nanos::from_micros(99)));
        assert!(drv.should_rekick(Nanos::from_micros(100)));
        assert_eq!(drv.watchdog.rekicks, 1);
    }

    #[test]
    fn served_doorbell_disarms_the_watchdog() {
        let platform = Platform::pine_a64_lts();
        let mut net = VirtioNet::new(&platform, 78, 64, 0);
        let mut backend = EchoBackend::default();
        net.post_rx(256).unwrap();
        net.send_frame(&[7u8; 64]).unwrap();
        let mut drv = frontend();
        drv.note_kick(Nanos::ZERO);
        net.device_poll(&mut backend);
        let r = drv.drain_net(&mut net);
        assert!(r.completions > 0);
        assert!(!drv.should_rekick(Nanos::from_micros(1000)));
        assert_eq!(drv.watchdog.rekicks, 0);
    }
}

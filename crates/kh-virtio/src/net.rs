//! The virtio-net device model.
//!
//! Two virtqueues (tx, rx) against a [`NetBackend`]. The driver posts
//! frames on tx and empty buffers on rx; the device drains tx, hands
//! each frame to the backend, and delivers any frames the backend
//! returns into posted rx buffers. Service time per frame is the copy
//! cost plus the link's serialization and base latency, both derived
//! from the platform profile.

use crate::cost::IoCostModel;
use crate::queue::{QueueError, QueueRegion, Virtqueue};
use crate::timing;
use kh_arch::platform::Platform;
use kh_sim::Nanos;

/// Bandwidth/latency of the simulated link, derived from the platform:
/// server-class parts get a 10 GbE NIC, embedded boards the classic
/// 1 GbE MAC.
#[derive(Debug, Clone, Copy)]
pub struct LinkProfile {
    pub bits_per_sec: u64,
    /// Fixed DMA + MAC + wire latency per frame.
    pub base_latency: Nanos,
}

impl LinkProfile {
    pub fn gigabit() -> Self {
        LinkProfile {
            bits_per_sec: timing::GIGABIT_BITS_PER_SEC,
            base_latency: timing::GIGABIT_BASE_LATENCY,
        }
    }

    pub fn ten_gigabit() -> Self {
        LinkProfile {
            bits_per_sec: timing::TEN_GIGABIT_BITS_PER_SEC,
            base_latency: timing::TEN_GIGABIT_BASE_LATENCY,
        }
    }

    /// Pick a link class for the platform (server parts: ≥ 16 GiB DRAM).
    pub fn from_platform(p: &Platform) -> Self {
        if p.dram_bytes >= timing::SERVER_CLASS_DRAM_BYTES {
            Self::ten_gigabit()
        } else {
            Self::gigabit()
        }
    }

    /// Serialization time of `bytes` on the wire.
    pub fn wire_time(&self, bytes: u64) -> Nanos {
        Nanos(bytes * 8 * 1_000_000_000 / self.bits_per_sec.max(1))
    }
}

/// Device-side time to transmit one `bytes`-long frame: the copy out of
/// the driver's buffer, serialization onto the access link, and the
/// link's fixed DMA + MAC latency. The one TX price: the device charges
/// it per dequeued frame, and a cluster node charges it per sent frame.
pub fn tx_charge(cost: &IoCostModel, link: &LinkProfile, bytes: u64) -> Nanos {
    cost.copy(bytes) + link.wire_time(bytes) + link.base_latency
}

/// Where frames go once the device dequeues them. `frame` may return a
/// frame to deliver back to the driver's rx queue (echo, response, ...).
pub trait NetBackend {
    fn frame(&mut self, frame: &[u8]) -> Option<Vec<u8>>;
}

/// Loops every frame straight back — the netecho workload's peer.
#[derive(Debug, Default)]
pub struct EchoBackend {
    pub frames: u64,
    pub bytes: u64,
}

impl NetBackend for EchoBackend {
    fn frame(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        Some(frame.to_vec())
    }
}

/// Counters for one device instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Frames the backend returned but no rx buffer was posted for.
    pub rx_dropped: u64,
}

/// Result of one device service pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceReport {
    /// Device-side service time for the pass.
    pub time: Nanos,
    /// tx buffers completed.
    pub tx_done: u64,
    /// rx buffers filled.
    pub rx_done: u64,
    /// Completion interrupts that actually fired (not suppressed).
    pub irqs: u64,
    /// Ring entries rejected by descriptor validation (see
    /// [`QueueError::Corrupt`]); the pass continues past them.
    pub corrupt: u64,
}

/// The virtio-net device: tx + rx queues, a link model, and optionally
/// the share grant backing the queue memory.
#[derive(Debug)]
pub struct VirtioNet {
    pub tx: Virtqueue,
    pub rx: Virtqueue,
    /// SPI the device raises for completions.
    pub intid: u32,
    pub link: LinkProfile,
    pub cost: IoCostModel,
    pub region: Option<QueueRegion>,
    pub stats: NetStats,
    /// Event-index batching depth (0/1 = legacy always-notify).
    batch: u64,
}

impl VirtioNet {
    /// An unbound device (unit tests, native workload runs). `batch` is
    /// the event-index batching depth; 0 disables suppression.
    pub fn new(platform: &Platform, intid: u32, queue_size: u16, batch: u64) -> Self {
        let event_idx = batch > 1;
        let mut tx = Virtqueue::new(queue_size, event_idx).expect("queue size");
        let mut rx = Virtqueue::new(queue_size, event_idx).expect("queue size");
        if event_idx {
            tx.suppress_kicks_for(batch);
            tx.suppress_interrupts_for(batch);
            rx.suppress_interrupts_for(batch);
        }
        VirtioNet {
            tx,
            rx,
            intid,
            link: LinkProfile::from_platform(platform),
            cost: IoCostModel::new(platform),
            region: None,
            stats: NetStats::default(),
            batch,
        }
    }

    /// Attach grant-backed queue memory (see [`QueueRegion::establish`]).
    pub fn bind(&mut self, region: QueueRegion) {
        self.region = Some(region);
    }

    // -- driver side --------------------------------------------------

    /// Queue a frame for transmission. Returns whether the doorbell
    /// actually fired (event-index suppression may swallow it).
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<bool, QueueError> {
        self.tx.add_outbuf(frame)?;
        Ok(self.tx.kick())
    }

    /// Post an empty receive buffer.
    pub fn post_rx(&mut self, capacity: u32) -> Result<(), QueueError> {
        self.rx.add_inbuf(capacity)?;
        Ok(())
    }

    /// Reap one received frame, if any. Re-arms interrupt suppression
    /// for the next batch once the queue is drained. Corrupt used
    /// entries are skipped (counted in `rx.stats.corruptions`) so one
    /// bad entry cannot wedge the reap loop.
    pub fn recv_frame(&mut self) -> Option<Vec<u8>> {
        loop {
            match self.rx.try_poll_used() {
                Ok(Some(c)) => return Some(c.data),
                Ok(None) => {
                    if self.batch > 1 {
                        self.rx.suppress_interrupts_for(self.batch);
                    }
                    return None;
                }
                Err(_) => continue,
            }
        }
    }

    /// Reap tx completions (frees tx descriptors), returning how many.
    /// Corrupt entries are skipped, not reaped.
    pub fn reap_tx(&mut self) -> u64 {
        let mut n = 0;
        loop {
            match self.tx.try_poll_used() {
                Ok(Some(_)) => n += 1,
                Ok(None) => break,
                Err(_) => continue,
            }
        }
        if self.batch > 1 {
            self.tx.suppress_interrupts_for(self.batch);
        }
        n
    }

    // -- device side --------------------------------------------------

    /// One device service pass: drain tx, feed the backend, deliver
    /// returned frames to rx, raise (or suppress) completion IRQs.
    pub fn device_poll(&mut self, backend: &mut dyn NetBackend) -> ServiceReport {
        let mut report = ServiceReport::default();
        loop {
            let head = match self.tx.try_pop_avail() {
                Ok(Some(h)) => h,
                Ok(None) => break,
                Err(_) => {
                    // The driver side of the ring is untrusted; skip the
                    // corrupt entry and keep servicing the rest.
                    report.corrupt += 1;
                    continue;
                }
            };
            let Ok(frame) = self.tx.out_bytes(head).map(<[u8]>::to_vec) else {
                report.corrupt += 1;
                continue;
            };
            let bytes = frame.len() as u64;
            report.time += tx_charge(&self.cost, &self.link, bytes);
            self.stats.frames_tx += 1;
            self.stats.bytes_tx += bytes;
            self.tx.push_used(head, 0).expect("tx completion");
            report.tx_done += 1;

            if let Some(reply) = backend.frame(&frame) {
                match self.rx.pop_avail() {
                    Some(rx_head) => {
                        let buf = self.rx.in_buf_mut(rx_head).expect("rx in-buf");
                        let n = reply.len().min(buf.len());
                        buf[..n].copy_from_slice(&reply[..n]);
                        report.time += self.cost.copy(n as u64);
                        self.rx.push_used(rx_head, n as u32).expect("rx completion");
                        self.stats.frames_rx += 1;
                        self.stats.bytes_rx += n as u64;
                        report.rx_done += 1;
                    }
                    None => self.stats.rx_dropped += 1,
                }
            }
        }
        if report.tx_done > 0 && self.tx.interrupt() {
            report.irqs += 1;
        }
        if report.rx_done > 0 && self.rx.interrupt() {
            report.irqs += 1;
        }
        // Re-arm doorbell suppression for the driver's next batch.
        if self.batch > 1 {
            self.tx.suppress_kicks_for(self.batch);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;

    fn dev() -> VirtioNet {
        VirtioNet::new(&Platform::pine_a64_lts(), 78, 64, 0)
    }

    #[test]
    fn echo_round_trip_preserves_bytes() {
        let mut d = dev();
        let mut backend = EchoBackend::default();
        let frame: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
        let sum = checksum(&frame);
        d.post_rx(2048).unwrap();
        assert!(d.send_frame(&frame).unwrap(), "unsuppressed kick fires");
        let report = d.device_poll(&mut backend);
        assert_eq!(report.tx_done, 1);
        assert_eq!(report.rx_done, 1);
        assert!(report.time > Nanos::ZERO);
        let got = d.recv_frame().expect("echoed frame");
        assert_eq!(checksum(&got), sum);
        assert_eq!(d.reap_tx(), 1);
    }

    #[test]
    fn missing_rx_buffer_drops_echo() {
        let mut d = dev();
        let mut backend = EchoBackend::default();
        d.send_frame(b"frame").unwrap();
        let report = d.device_poll(&mut backend);
        assert_eq!(report.tx_done, 1);
        assert_eq!(report.rx_done, 0);
        assert_eq!(d.stats.rx_dropped, 1);
        assert!(d.recv_frame().is_none());
    }

    #[test]
    fn batching_suppresses_most_doorbells() {
        let mut d = VirtioNet::new(&Platform::pine_a64_lts(), 78, 64, 16);
        for i in 0..16u8 {
            d.post_rx(64).unwrap();
            d.send_frame(&[i]).unwrap();
        }
        assert_eq!(d.tx.stats.kicks, 1, "one doorbell per 16-frame batch");
        assert_eq!(d.tx.stats.kicks_suppressed, 15);
    }

    #[test]
    fn wire_time_scales_with_link_speed() {
        let g = LinkProfile::gigabit();
        let tg = LinkProfile::ten_gigabit();
        assert_eq!(g.wire_time(1500), Nanos(12_000));
        assert!(tg.wire_time(1500) < g.wire_time(1500));
        assert!(tg.base_latency < g.base_latency);
    }

    #[test]
    fn platform_selects_link_class() {
        assert_eq!(
            LinkProfile::from_platform(&Platform::pine_a64_lts()).bits_per_sec,
            1_000_000_000
        );
        assert_eq!(
            LinkProfile::from_platform(&Platform::thunderx2()).bits_per_sec,
            10_000_000_000
        );
    }
}

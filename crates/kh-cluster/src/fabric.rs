//! The simulated network fabric.
//!
//! Point-to-point links feed a single store-and-forward switch with one
//! bounded egress queue per destination node. All link timing comes
//! from the *same* [`LinkProfile`] the guest-visible NICs use (see
//! `kh_virtio::timing`), so a frame pays two hops of the one link
//! model: NIC serialization onto its access link (charged by
//! `Node::send` at the sender, from the frame's length), then switch
//! egress serialization onto the destination's access link (charged
//! here).
//!
//! Fault hooks come from [`kh_sim::fault::FabricFaultPlan`]: random
//! frame loss, reordering (an extra one-wire-time hold that lets later
//! traffic overtake), delay jitter, and per-node partition windows.
//! Every random decision draws from the plan's own seeded streams in
//! frame-arrival order, so a run with faults is exactly as reproducible
//! as one without.

use kh_sim::{FabricFaultPlan, Nanos};
use kh_virtio::LinkProfile;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Default egress queue depth (frames) per switch port.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Per-destination-port traffic and drop breakdown. Drops are charged
/// to the frame's *destination* port — the victim whose reply budget
/// they consume — so shed/lost accounting in reports is exact per node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortStats {
    /// Frames delivered toward this port.
    pub forwarded: u64,
    /// Tail-dropped: this port's egress queue was full.
    pub queue_drops: u64,
    /// Eaten by the random-loss fault gate.
    pub loss_drops: u64,
    /// Dropped because an endpoint was inside a partition window.
    pub partition_drops: u64,
    /// Delivered, but marked corrupt by the corrupt gate.
    pub corrupted: u64,
}

/// Counters for one fabric instance. Every way a frame can die (or
/// arrive damaged) in transit is folded in here, totalled and broken
/// down per destination port.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Frames that made it through the switch.
    pub frames_forwarded: u64,
    /// Payload bytes forwarded.
    pub bytes_forwarded: u64,
    /// Frames tail-dropped because an egress queue was full.
    pub queue_drops: u64,
    /// Frames eaten by the random-loss fault gate.
    pub loss_drops: u64,
    /// Frames dropped inside a partition window.
    pub partition_drops: u64,
    /// Frames delivered corrupted.
    pub corrupted: u64,
    /// The same counters broken down by destination port.
    pub per_port: Vec<PortStats>,
}

impl FabricStats {
    /// Every frame lost in transit, whatever the cause.
    pub fn total_drops(&self) -> u64 {
        self.queue_drops + self.loss_drops + self.partition_drops
    }
}

/// One delivered frame: when it lands at the destination NIC, and
/// whether the corrupt gate fired on it. A corrupt frame still arrives
/// and pays its wire time; the receiver rejects it as failing its
/// checksum, with the header intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub at: Nanos,
    pub corrupt: bool,
}

#[derive(Debug, Default)]
struct Port {
    /// When the egress link finishes its current transmission.
    busy_until: Nanos,
    /// Departure times of frames still occupying the egress queue.
    departures: VecDeque<Nanos>,
}

/// The switch: per-destination bounded egress queues over one shared
/// [`LinkProfile`], with a [`FabricFaultPlan`] gating every frame.
#[derive(Debug)]
pub struct Fabric {
    link: LinkProfile,
    queue_depth: usize,
    ports: Vec<Port>,
    /// The armed fault plan (inert by default).
    pub faults: FabricFaultPlan,
    pub stats: FabricStats,
}

impl Fabric {
    /// A fabric with `ports` endpoints on `link`-class access links.
    pub fn new(link: LinkProfile, queue_depth: usize, ports: usize) -> Self {
        Fabric {
            link,
            queue_depth: queue_depth.max(1),
            ports: (0..ports).map(|_| Port::default()).collect(),
            faults: FabricFaultPlan::none(),
            stats: FabricStats {
                per_port: vec![PortStats::default(); ports],
                ..FabricStats::default()
            },
        }
    }

    /// The link model shared with the guest-visible NICs.
    pub fn link(&self) -> &LinkProfile {
        &self.link
    }

    /// A frame of `bytes` from `src` arrives at the switch at `t_in`,
    /// bound for `dst`. Returns the [`Delivery`] at `dst`'s NIC, or
    /// `None` when the frame is dropped (partition, random loss, or a
    /// full egress queue). Gate order per frame is fixed — partition,
    /// loss, corrupt, reorder, jitter — so fault streams are consumed
    /// in a total order given by switch arrival processing.
    pub fn transit(&mut self, src: u16, dst: u16, bytes: u64, t_in: Nanos) -> Option<Delivery> {
        let pp = &mut self.stats.per_port[dst as usize];
        if self.faults.partitioned(src, t_in) || self.faults.partitioned(dst, t_in) {
            self.stats.partition_drops += 1;
            pp.partition_drops += 1;
            return None;
        }
        if self.faults.drop_frame() {
            self.stats.loss_drops += 1;
            pp.loss_drops += 1;
            return None;
        }
        let corrupt = self.faults.corrupt_frame();
        let wire = self.link.wire_time(bytes);
        let hold = self.faults.reorder_hold(wire);
        let jitter = self.faults.jitter();
        let port = &mut self.ports[dst as usize];
        while port.departures.front().is_some_and(|d| *d <= t_in) {
            port.departures.pop_front();
        }
        if port.departures.len() >= self.queue_depth {
            self.stats.queue_drops += 1;
            self.stats.per_port[dst as usize].queue_drops += 1;
            return None;
        }
        let start = t_in.max(port.busy_until);
        let depart = start + wire + hold + jitter;
        port.busy_until = depart;
        port.departures.push_back(depart);
        self.stats.frames_forwarded += 1;
        self.stats.bytes_forwarded += bytes;
        let pp = &mut self.stats.per_port[dst as usize];
        pp.forwarded += 1;
        if corrupt {
            self.stats.corrupted += 1;
            pp.corrupted += 1;
        }
        Some(Delivery {
            at: depart + self.link.base_latency,
            corrupt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_sim::FabricFaultSpec;

    fn fab() -> Fabric {
        Fabric::new(LinkProfile::gigabit(), 4, 4)
    }

    #[test]
    fn transit_pays_wire_time_and_base_latency() {
        let mut f = fab();
        let d = f.transit(0, 1, 1500, Nanos::ZERO).unwrap();
        // 1500 B at 1 Gb/s = 12 us serialization + 20 us base latency.
        assert_eq!(d.at, Nanos(12_000) + LinkProfile::gigabit().base_latency);
        assert!(!d.corrupt);
        assert_eq!(f.stats.frames_forwarded, 1);
        assert_eq!(f.stats.per_port[1].forwarded, 1);
        assert_eq!(f.stats.per_port[0].forwarded, 0);
    }

    #[test]
    fn egress_serializes_per_destination_port() {
        let mut f = fab();
        let a = f.transit(0, 2, 1500, Nanos::ZERO).unwrap().at;
        let b = f.transit(1, 2, 1500, Nanos::ZERO).unwrap().at;
        assert_eq!(b, a + Nanos(12_000), "second frame queues behind the first");
        // A different destination port is independent.
        let c = f.transit(1, 3, 1500, Nanos::ZERO).unwrap().at;
        assert_eq!(c, a);
    }

    #[test]
    fn bounded_egress_queue_tail_drops() {
        let mut f = fab();
        let mut delivered = 0;
        for _ in 0..10 {
            if f.transit(0, 1, 1500, Nanos::ZERO).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 4, "queue depth bounds burst admission");
        assert_eq!(f.stats.queue_drops, 6);
        assert_eq!(f.stats.per_port[1].queue_drops, 6);
        assert_eq!(f.stats.total_drops(), 6);
        // Once queued frames depart, capacity frees up.
        assert!(f.transit(0, 1, 1500, Nanos::from_millis(1)).is_some());
    }

    #[test]
    fn partitioned_node_drops_both_directions() {
        let mut f = fab();
        f.faults = FabricFaultPlan::new(&FabricFaultSpec::parse("partition@0ns:1ms:2").unwrap(), 1);
        assert!(f.transit(2, 1, 100, Nanos::ZERO).is_none(), "from victim");
        assert!(f.transit(1, 2, 100, Nanos::ZERO).is_none(), "to victim");
        assert!(f.transit(0, 1, 100, Nanos::ZERO).is_some(), "healthy pair");
        assert!(
            f.transit(1, 2, 100, Nanos::from_millis(2)).is_some(),
            "window over"
        );
        assert_eq!(f.faults.stats.partition_drops, 2);
        // Folded into FabricStats, charged to the destination port.
        assert_eq!(f.stats.partition_drops, 2);
        assert_eq!(f.stats.per_port[1].partition_drops, 1);
        assert_eq!(f.stats.per_port[2].partition_drops, 1);
    }

    #[test]
    fn loss_and_corruption_fold_into_port_stats() {
        let mut f = fab();
        f.faults =
            FabricFaultPlan::new(&FabricFaultSpec::parse("drop:0.4,corrupt:0.4").unwrap(), 3);
        let mut lost = 0;
        let mut mangled = 0;
        for i in 0..64 {
            match f.transit(0, 1, 800, Nanos::from_micros(40 * i)) {
                None => lost += 1,
                Some(d) if d.corrupt => mangled += 1,
                Some(_) => {}
            }
        }
        assert!(lost > 0 && mangled > 0, "{lost} lost, {mangled} mangled");
        assert_eq!(f.stats.loss_drops, lost);
        assert_eq!(f.stats.per_port[1].loss_drops, lost);
        assert_eq!(f.stats.corrupted, mangled);
        assert_eq!(f.stats.per_port[1].corrupted, mangled);
        assert_eq!(f.stats.loss_drops, f.faults.stats.frames_dropped);
        assert_eq!(f.stats.corrupted, f.faults.stats.frames_corrupted);
        assert_eq!(
            f.stats.frames_forwarded,
            f.stats.per_port.iter().map(|p| p.forwarded).sum::<u64>()
        );
    }

    #[test]
    fn deterministic_per_seed_under_faults() {
        let spec = FabricFaultSpec::parse("drop:0.2,jitter:0.3:30us,reorder:0.1").unwrap();
        let run = |seed| {
            let mut f = fab();
            f.faults = FabricFaultPlan::new(&spec, seed);
            let out: Vec<Option<Delivery>> = (0..64)
                .map(|i| f.transit(0, 1, 800, Nanos::from_micros(40 * i)))
                .collect();
            (out, f.stats.clone(), f.faults.stats)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}

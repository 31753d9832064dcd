//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;

use kitten_hafnium::arch::mmu::{AccessKind, MemAttr, PagePerms, Stage2Table, PAGE_SIZE};
use kitten_hafnium::arch::tlb::{Tlb, TlbKey, TlbStage};
use kitten_hafnium::metrics::stats::Summary;
use kitten_hafnium::sim::event::EventQueue;
use kitten_hafnium::sim::{Nanos, SimRng};

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

proptest! {
    /// Popped timestamps are non-decreasing for any schedule of inserts.
    #[test]
    fn event_queue_pops_monotonically(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(Nanos(*t), i);
        }
        let mut last = Nanos::ZERO;
        let mut popped = 0;
        while let Some(e) = q.pop_next() {
            prop_assert!(e.at >= last);
            last = e.at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, t)| (q.schedule_at(Nanos(*t), i), i)).collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((id, payload), &c) in ids.iter().zip(cancel_mask.iter().chain(std::iter::repeat(&false))) {
            if c {
                q.cancel(*id);
                cancelled.insert(*payload);
            }
        }
        while let Some(e) = q.pop_next() {
            prop_assert!(!cancelled.contains(&e.payload), "cancelled event {} popped", e.payload);
        }
    }
}

// ---------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------

proptest! {
    /// After a fill, an immediate lookup of the same key hits with the
    /// filled value, regardless of prior traffic.
    #[test]
    fn tlb_fill_then_lookup_hits(
        ops in prop::collection::vec((0u64..4096, 0u64..1_000_000), 1..300),
        probe_vpn in 0u64..4096,
    ) {
        let mut tlb = Tlb::new(64, 4);
        let key = |vpn| TlbKey { asid: 1, vmid: 0, vpn, stage: TlbStage::Stage1 };
        for (vpn, ppn) in &ops {
            tlb.fill(key(*vpn), *ppn);
        }
        tlb.fill(key(probe_vpn), 0xABCD);
        prop_assert_eq!(tlb.lookup(key(probe_vpn)), Some(0xABCD));
    }

    /// Occupancy never exceeds capacity, and invalidate_all empties.
    #[test]
    fn tlb_occupancy_bounded(ops in prop::collection::vec((0u64..100_000, 0u64..100), 1..500)) {
        let mut tlb = Tlb::new(32, 4);
        for (vpn, ppn) in &ops {
            tlb.fill(TlbKey { asid: (*ppn % 4) as u16, vmid: (*ppn % 2) as u16, vpn: *vpn, stage: TlbStage::TwoStage }, *ppn);
            prop_assert!(tlb.occupancy() <= 32);
        }
        tlb.invalidate_all();
        prop_assert_eq!(tlb.occupancy(), 0);
    }

    /// invalidate_vmid removes all and only that VMID's entries.
    #[test]
    fn tlb_vmid_shootdown_is_precise(entries in prop::collection::vec((0u64..1000, 0u16..4), 1..100)) {
        let mut tlb = Tlb::new(256, 4);
        for (vpn, vmid) in &entries {
            tlb.fill(TlbKey { asid: 0, vmid: *vmid, vpn: *vpn, stage: TlbStage::TwoStage }, *vpn);
        }
        tlb.invalidate_vmid(2);
        for (vpn, vmid) in &entries {
            let hit = tlb.lookup(TlbKey { asid: 0, vmid: *vmid, vpn: *vpn, stage: TlbStage::TwoStage }).is_some();
            if *vmid == 2 {
                prop_assert!(!hit, "vmid 2 entry survived shootdown");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stage-2 tables
// ---------------------------------------------------------------------

proptest! {
    /// Sequential non-overlapping mappings all translate correctly and
    /// in-range addresses map to the right offset.
    #[test]
    fn stage2_translation_is_offset_correct(
        count in 1usize..20,
        page_counts in prop::collection::vec(1u64..32, 1..20),
        probe in 0u64..31,
    ) {
        let mut t = Stage2Table::new(1);
        let mut ipa = 0u64;
        let mut pa = 0x8000_0000u64;
        let mut ranges = Vec::new();
        for len_pages in page_counts.iter().take(count) {
            let len = len_pages * PAGE_SIZE;
            t.map(ipa, pa, len, PagePerms::RW, MemAttr::Normal).unwrap();
            ranges.push((ipa, pa, len));
            ipa += len + PAGE_SIZE; // leave a hole
            pa += len + PAGE_SIZE;
        }
        for (ipa, pa, len) in &ranges {
            let off = (probe * 97) % len; // arbitrary in-range offset
            let tr = t.translate(ipa + off, AccessKind::Read).unwrap();
            prop_assert_eq!(tr.out_addr, pa + off);
            // The hole after each range must fault.
            prop_assert!(t.translate(ipa + len, AccessKind::Read).is_err());
        }
    }

    /// Overlap rejection is symmetric: any second mapping that intersects
    /// an existing one is rejected, regardless of order.
    #[test]
    fn stage2_overlaps_always_rejected(
        a_start in 0u64..64, a_len in 1u64..32,
        b_start in 0u64..64, b_len in 1u64..32,
    ) {
        let to = |pages: u64| pages * PAGE_SIZE;
        let mut t = Stage2Table::new(1);
        t.map(to(a_start), 0, to(a_len), PagePerms::RW, MemAttr::Normal).unwrap();
        let result = t.map(to(b_start), 0x4000_0000, to(b_len), PagePerms::RW, MemAttr::Normal);
        let intersects = to(b_start) < to(a_start) + to(a_len) && to(a_start) < to(b_start) + to(b_len);
        prop_assert_eq!(result.is_err(), intersects);
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

proptest! {
    /// Merge of any split equals the whole (within float tolerance).
    #[test]
    fn summary_merge_associates(xs in prop::collection::vec(-1e6f64..1e6, 2..200), split in 1usize..199) {
        let split = split.min(xs.len() - 1);
        let (a, b) = xs.split_at(split);
        let merged = Summary::from_samples(a.iter().copied())
            .merge(&Summary::from_samples(b.iter().copied()));
        let whole = Summary::from_samples(xs.iter().copied());
        prop_assert!((merged.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((merged.stdev() - whole.stdev()).abs() <= 1e-6 * (1.0 + whole.stdev()));
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
    }

    /// Mean lies within [min, max] for any sample set.
    #[test]
    fn summary_mean_bounded(xs in prop::collection::vec(-1e9f64..1e9, 1..100)) {
        let s = Summary::from_samples(xs.iter().copied());
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.stdev() >= 0.0);
    }
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

proptest! {
    /// next_below never exceeds the bound for arbitrary seeds/bounds.
    #[test]
    fn rng_bounds_respected(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Split streams never coincide for a window.
    #[test]
    fn rng_split_streams_diverge(seed in any::<u64>()) {
        let mut root = SimRng::new(seed);
        let mut a = root.split(1);
        let mut b = root.split(2);
        let matches = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(matches <= 1);
    }
}

// ---------------------------------------------------------------------
// Numerical solvers (cross-checking the NAS substrates)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pentadiagonal solver solves every diagonally dominant system
    /// it is given.
    #[test]
    fn penta_solver_always_converges(seed in any::<u64>(), len in 3usize..40) {
        use kitten_hafnium::workloads::nas::sp::PentaLine;
        let mut rng = SimRng::new(seed);
        let line = PentaLine::random(len, &mut rng);
        let (x, _) = line.solve();
        prop_assert!(line.residual(&x) < 1e-8);
    }

    /// The 5x5 block-tridiagonal solver likewise.
    #[test]
    fn block_thomas_always_converges(seed in any::<u64>(), len in 2usize..20) {
        use kitten_hafnium::workloads::nas::bt::BlockTriLine;
        let mut rng = SimRng::new(seed);
        let line = BlockTriLine::random(len, &mut rng);
        let (x, _) = line.solve();
        prop_assert!(line.residual(&x) < 1e-7);
    }
}

// ---------------------------------------------------------------------
// Retry backoff schedules (the cluster reliability layer)
// ---------------------------------------------------------------------

proptest! {
    /// A backoff schedule is a pure function of (policy, seed): replaying
    /// the same seed yields the same delays, and nearby seeds diverge
    /// often enough that retry storms decorrelate.
    #[test]
    fn backoff_schedule_is_deterministic_per_seed(
        seed in any::<u64>(),
        base_us in 100u64..5_000,
        jitter in 0.0f64..1.0,
    ) {
        use kitten_hafnium::workloads::svcload::RetryPolicy;
        let policy = RetryPolicy {
            base_backoff: Nanos::from_micros(base_us),
            jitter_frac: jitter,
            ..RetryPolicy::default()
        };
        prop_assert_eq!(policy.backoff_schedule(seed), policy.backoff_schedule(seed));
    }

    /// For any policy shape, the schedule is bounded by the attempt
    /// budget, monotone non-decreasing (doubling with jitter clamped to
    /// never shrink), and its cumulative sum stays below the deadline —
    /// a retransmit that could only land post-deadline is never scheduled.
    #[test]
    fn backoff_schedule_is_bounded_and_monotone(
        seed in any::<u64>(),
        max_attempts in 1u32..12,
        base_us in 1u64..20_000,
        max_us in 1u64..50_000,
        deadline_us in 1u64..100_000,
        jitter in 0.0f64..2.0,
    ) {
        use kitten_hafnium::workloads::svcload::RetryPolicy;
        let policy = RetryPolicy {
            max_attempts,
            deadline: Nanos::from_micros(deadline_us),
            base_backoff: Nanos::from_micros(base_us),
            max_backoff: Nanos::from_micros(max_us),
            jitter_frac: jitter,
            hedge_delay: None,
        };
        let schedule = policy.backoff_schedule(seed);
        prop_assert!(schedule.len() <= max_attempts.saturating_sub(1) as usize);
        let mut cum = 0u64;
        let mut prev = Nanos::ZERO;
        for &delay in &schedule {
            prop_assert!(delay >= prev, "schedule must be monotone non-decreasing");
            prev = delay;
            cum += delay.as_nanos();
        }
        prop_assert!(
            cum < policy.deadline.as_nanos(),
            "cumulative backoff {cum} must stay below the deadline"
        );
    }

    /// Frame integrity: flipping any single byte of a well-formed frame
    /// is always caught by the header checksum (FNV-1a's per-byte
    /// xor-then-multiply step is injective in the byte, so a one-byte
    /// delta can never collide). A flip past the header or inside the
    /// checksum field — where the fabric's corrupt gate lands — decodes
    /// to exactly `Corrupt` with the original header, which is why the
    /// cluster carries corruption as a flag next to the header.
    #[test]
    fn any_single_byte_flip_is_detected(
        id in any::<u64>(),
        client in any::<u16>(),
        sent_us in 0u64..1_000_000,
        attempt in any::<u8>(),
        // Half the sizes fall near the 24-byte header, below it included.
        request_bytes in prop_oneof![0usize..=32, 0usize..=2048],
        response_bytes in prop_oneof![0usize..=32, 0usize..=2048],
        pos_sel in any::<u64>(),
        flip in 1u8..=255,
    ) {
        use kitten_hafnium::workloads::svcload::{
            decode_frame, nack_frame, request_frame, response_frame, FrameError, FrameHeader,
            FrameKind, SvcLoadConfig, HEADER_BYTES,
        };
        let cfg = SvcLoadConfig { request_bytes, response_bytes, ..SvcLoadConfig::default() };
        let sent = Nanos::from_micros(sent_us);
        for kind in [FrameKind::Request, FrameKind::Response, FrameKind::Nack] {
            let build = match kind {
                FrameKind::Request => request_frame,
                FrameKind::Response => response_frame,
                FrameKind::Nack => nack_frame,
            };
            let hdr = FrameHeader { id, client, sent, kind, attempt };
            let clean = build(&cfg, id, client, sent, attempt);
            prop_assert_eq!(clean.len(), cfg.wire_bytes(kind));
            prop_assert_eq!(decode_frame(&clean), Ok(hdr));
            // Any byte at all: detected.
            let mut frame = clean.clone();
            let pos = (pos_sel % frame.len() as u64) as usize;
            frame[pos] ^= flip;
            prop_assert!(decode_frame(&frame).is_err(), "byte {pos} flip slipped through");
            // The checksum field (the header's last four bytes) or the
            // payload: detected, and the header survives.
            let mut frame = clean;
            let checksum_start = HEADER_BYTES - 4;
            let pos = checksum_start + (pos_sel % (frame.len() - checksum_start) as u64) as usize;
            frame[pos] ^= flip;
            prop_assert_eq!(decode_frame(&frame), Err(FrameError::Corrupt(Some(hdr))));
        }
    }

    /// The per-leg seed derivation spreads adjacent request ids into
    /// unrelated streams: the client legs of consecutive ids get
    /// different first delays somewhere in any modest window (no
    /// lockstep retry storms).
    #[test]
    fn leg_seeds_decorrelate_adjacent_requests(root in any::<u64>()) {
        use kitten_hafnium::scenario::leg_seed;
        use kitten_hafnium::workloads::svcload::RetryPolicy;
        let policy = RetryPolicy::default();
        let firsts: Vec<u64> = (0..16u64)
            .map(|id| policy.backoff_schedule(leg_seed(root, id, 0))[0].as_nanos())
            .collect();
        let distinct: std::collections::HashSet<_> = firsts.iter().collect();
        prop_assert!(distinct.len() > 1, "adjacent requests retry in lockstep");
    }
}

// ---------------------------------------------------------------------
// Cluster conservation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated request and every issued leg reaches exactly one
    /// terminal outcome, and the report's counters agree with its trace,
    /// for any stack, fault menu, retry policy, tree depth and loop
    /// kind. The executor debug-asserts the same equalities; this test
    /// checks them in release builds too.
    #[test]
    fn cluster_runs_conserve_requests_and_legs(
        seed in any::<u64>(),
        stack_ix in 0usize..3,
        fault_ix in 0usize..7,
        policy in 0usize..3,
        shape in 0usize..5,
        closed in any::<bool>(),
    ) {
        use kitten_hafnium::cluster::{self, ClusterConfig};
        use kitten_hafnium::core::config::StackKind;
        use kitten_hafnium::scenario::Scenario;
        use kitten_hafnium::sim::fault::FabricFaultSpec;
        use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
        use kitten_hafnium::workloads::svcload::{RetryPolicy, SvcLoadConfig};

        let mut cfg = ClusterConfig::new(8, StackKind::CLUSTER_ARMS[stack_ix], seed);
        cfg.svcload = SvcLoadConfig::quick();
        // Servers are nodes 4-7; node 5 takes the targeted faults.
        let faults = [
            "",
            "drop:0.05",
            "drop:0.03,corrupt:0.03",
            "drop:0.02,jitter:0.2:40us,reorder:0.05",
            "partition@10ms:8ms:5",
            "crashsvc@15ms:5",
            "tamper@5",
        ][fault_ix];
        if !faults.is_empty() {
            cfg.faults = Some((FabricFaultSpec::parse(faults).unwrap(), seed ^ 0xFA));
        }
        cfg.attest = faults.starts_with("tamper");
        match policy {
            0 => {}
            1 => cfg.retry = Some(RetryPolicy::default()),
            _ => cfg.adaptive = Some(AdaptivePolicy::default()),
        }
        // Shape 0 is plain svcload; 1-4 are scenarios of depth 0-3.
        if shape > 0 {
            let mut spec = String::from(if closed {
                "clients=2:think:600us,svc=exp,backend=exp"
            } else {
                "arrive=exp:700us,svc=exp,backend=exp"
            });
            let tiers = [",fanout=2:quorum:1", ",tier=2:2:all", ",tier=3:1:all"];
            for clause in &tiers[..shape - 1] {
                spec.push_str(clause);
            }
            cfg.scenario = Some(Scenario::parse(&spec).unwrap());
        }

        let r = cluster::run(&cfg);
        let tier0 = r.records.iter().filter(|rec| rec.tier == 0).count() as u64;
        let outcomes = &r.reliability.outcomes;
        prop_assert!(r.sent > 0);
        prop_assert_eq!(tier0, r.sent);
        prop_assert_eq!(outcomes.total(), r.sent);
        prop_assert_eq!(outcomes.ok + outcomes.ok_hedged, r.completed);
        prop_assert_eq!(r.latency.count(), r.completed);
        match &r.scenario {
            Some(s) => {
                prop_assert_eq!(s.depth, shape - 1);
                prop_assert_eq!(s.legs_ok + s.legs_shed + s.legs_failed, s.legs_sent);
                let leg_rows = r.records.len() as u64 - tier0;
                prop_assert_eq!(leg_rows, s.legs_sent + s.legs_refused);
            }
            None => {
                prop_assert_eq!(shape, 0);
                prop_assert_eq!(r.records.len() as u64, r.sent);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared ring + virtqueue (the paravirtual I/O substrates)
// ---------------------------------------------------------------------

proptest! {
    /// SharedRing across many wrap-arounds: FIFO order holds against a
    /// model queue and the byte accounting never leaks
    /// (`used() + free() == capacity` after every operation).
    #[test]
    fn shared_ring_wraparound_fifo_and_accounting(
        ops in prop::collection::vec((prop::collection::vec(any::<u8>(), 0..40), 0u8..4), 1..300)
    ) {
        use kitten_hafnium::hafnium::ring::SharedRing;
        // Small capacity so 300 ops wrap the ring many times over.
        let cap = 256usize;
        let mut ring = SharedRing::new(cap);
        let mut model: std::collections::VecDeque<Vec<u8>> = std::collections::VecDeque::new();
        const LEN_PREFIX: usize = 4;
        for (msg, pops) in ops {
            let need = LEN_PREFIX + msg.len();
            let fits = need <= ring.free();
            match ring.push(&msg) {
                Ok(()) => {
                    prop_assert!(fits, "push succeeded without space");
                    model.push_back(msg);
                }
                Err(_) => prop_assert!(!fits, "push failed with {} free for {}", ring.free(), need),
            }
            prop_assert_eq!(ring.used() + ring.free(), cap);
            for _ in 0..pops {
                let got = ring.pop().expect("ring never corrupts");
                prop_assert_eq!(got.as_ref(), model.pop_front().as_ref(), "FIFO order");
                prop_assert_eq!(ring.used() + ring.free(), cap);
            }
        }
        // Drain the tail: everything still in the model comes out in order.
        for expect in model {
            prop_assert_eq!(ring.pop().expect("no corruption"), Some(expect));
        }
        prop_assert_eq!(ring.pop().expect("no corruption"), None);
        prop_assert!(ring.is_empty());
        prop_assert_eq!(ring.used() + ring.free(), cap);
    }

    /// Virtqueue under arbitrary add/complete interleavings: completions
    /// preserve submission order per queue, descriptors never leak
    /// (`used() + free() == capacity` is mirrored by avail/used
    /// accounting), and payloads survive the round trip.
    #[test]
    fn virtqueue_interleaving_preserves_order_and_descriptors(
        ops in prop::collection::vec((prop::collection::vec(any::<u8>(), 1..32), any::<bool>()), 1..200)
    ) {
        use kitten_hafnium::virtio::Virtqueue;
        let size = 16u16;
        let mut q = Virtqueue::new(size, false).unwrap();
        let mut in_flight: std::collections::VecDeque<Vec<u8>> = std::collections::VecDeque::new();
        for (payload, service) in ops {
            if q.add_outbuf(&payload).is_ok() {
                in_flight.push_back(payload);
            } else {
                // Full: every descriptor must be accounted for in-flight
                // (out-buffers use exactly one descriptor each).
                prop_assert!(in_flight.len() == size as usize, "spurious Full");
            }
            if service {
                // Device: serve the oldest available chain.
                if let Some(head) = q.pop_avail() {
                    let seen = q.out_bytes(head).unwrap().to_vec();
                    prop_assert_eq!(&seen, in_flight.front().unwrap(), "device sees FIFO");
                    q.push_used(head, 0).unwrap();
                    q.poll_used().unwrap();
                    in_flight.pop_front();
                }
            }
            prop_assert!(q.avail_pending() <= size as u64);
        }
        // Drain: the device can still serve everything left, in order.
        while let Some(head) = q.pop_avail() {
            let seen = q.out_bytes(head).unwrap().to_vec();
            prop_assert_eq!(&seen, in_flight.front().unwrap());
            q.push_used(head, 0).unwrap();
            q.poll_used().unwrap();
            in_flight.pop_front();
        }
        prop_assert!(in_flight.is_empty());
    }
}

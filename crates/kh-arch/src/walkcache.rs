//! Translation walk cache for two-stage address translation.
//!
//! ARM MMUs keep *walk caches* alongside the TLB: intermediate (non-leaf)
//! table descriptors are cached so a TLB miss does not have to re-read the
//! whole descriptor chain from memory. Under virtualization this matters
//! enormously — each stage-1 descriptor fetch is itself stage-2 translated,
//! so a cold nested walk costs `s1*(s2+1)+s2` = 24 descriptor reads
//! (4-level/4-level), while a walk whose stage-1 table prefix is cached
//! costs only the final leaf read plus one stage-2 walk.
//!
//! The model keeps two structures, both tagged with `(vmid, asid)` exactly
//! like hardware tags walk-cache entries:
//!
//! - a **combined cache**: full VA→PA results at page granularity, keyed
//!   `(vmid, asid, vpn)`. A hit costs 0 descriptor reads (this is the
//!   "combined stage-1+stage-2" TLB/walk-cache arrangement ARMv8
//!   implementations use).
//! - an **s1-prefix cache**: the non-leaf stage-1 descriptor chain, keyed
//!   `(vmid, asid, va >> BLOCK_SHIFT)` — one entry covers the 2 MiB region
//!   a last-level stage-1 table spans. A prefix hit short-circuits the
//!   nested walk to `1 + s2_steps` reads (the stage-1 leaf read, itself
//!   stage-2 translated).
//!
//! Like a real TLB the cache can go stale when tables are mutated without
//! invalidation; callers must use `invalidate_asid`/`invalidate_vmid`/
//! `invalidate_all` (mirroring the TLB maintenance paths in [`crate::tlb`])
//! on unmap, ASID reuse, or stage-2 re-initialization (VM restart).
//!
//! Both structures are flat open-addressed set-associative tables (the
//! shape hardware walk caches actually take): the key packs into twelve
//! bytes, a fibonacci hash picks the set, and a cached lookup touches one
//! way array — a couple of cache lines — instead of a `HashMap` probe plus
//! separate FIFO bookkeeping. Eviction is per-set clock (second chance).
//! Everything is deterministic — the hash is a fixed function of the key
//! and the clock hands depend only on the access sequence, never on hash
//! randomization or allocation state — so simulated runs are bit-identical
//! across processes and thread schedules.

use crate::mmu::{
    combine_translations, full_nested_steps, AccessKind, Stage1Table, Stage2Table, Translation,
    TwoStageFault, BLOCK_SHIFT, PAGE_SHIFT, PAGE_SIZE,
};

/// Combined-cache entries (page-granule leaf results).
pub const DEFAULT_COMBINED_CAPACITY: usize = 8192;
/// S1-prefix entries (each covers 2 MiB of VA).
pub const DEFAULT_S1_PREFIX_CAPACITY: usize = 256;

/// Counters for walk-cache behavior, consumable by the timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkCacheStats {
    /// Combined-cache hits (0 descriptor reads).
    pub hits: u64,
    /// Misses served with a cached stage-1 prefix (1 + s2 reads).
    pub s1_prefix_hits: u64,
    /// Full nested walks (and faulting lookups).
    pub misses: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// Descriptor reads actually performed.
    pub steps_paid: u64,
    /// Descriptor reads short-circuited by the cache.
    pub steps_saved: u64,
}

impl WalkCacheStats {
    pub fn lookups(&self) -> u64 {
        self.hits + self.s1_prefix_hits + self.misses
    }

    /// Fraction of lookups that hit either cache.
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            (self.hits + self.s1_prefix_hits) as f64 / n as f64
        }
    }

    /// Fraction of full nested-walk cost actually paid, in `[0, 1]`.
    /// 1.0 means every walk was cold; the timing model multiplies its
    /// analytic walk-cycle term by this factor.
    pub fn walk_cost_factor(&self) -> f64 {
        let total = self.steps_paid + self.steps_saved;
        if total == 0 {
            1.0
        } else {
            self.steps_paid as f64 / total as f64
        }
    }

    /// Stats accumulated since `earlier` (both from the same cache).
    pub fn since(&self, earlier: &WalkCacheStats) -> WalkCacheStats {
        WalkCacheStats {
            hits: self.hits - earlier.hits,
            s1_prefix_hits: self.s1_prefix_hits - earlier.s1_prefix_hits,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
            steps_paid: self.steps_paid - earlier.steps_paid,
            steps_saved: self.steps_saved - earlier.steps_saved,
        }
    }
}

/// Pack `(vmid, asid)` into the slot tag.
#[inline]
fn tag_of(vmid: u16, asid: u16) -> u32 {
    ((vmid as u32) << 16) | asid as u32
}

/// Slot flag: the entry is live.
const VALID: u8 = 1;
/// Slot flag: second-chance reference bit.
const REFERENCED: u8 = 2;

/// One way of a set: a packed key (`tag` + page/prefix index), the
/// valid/referenced flags, and the cached value stored inline — no
/// `Option` discriminant, so a combined-cache slot is 32 bytes and a
/// whole 8-way set spans four cache lines.
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    idx: u64,
    tag: u32,
    flags: u8,
    val: V,
}

/// A bounded flat set-associative table with deterministic clock
/// (second-chance) eviction.
///
/// Geometry: up to 8 ways; the set count is the largest power of two
/// with `sets * ways <= capacity` (so the table never exceeds the
/// requested bound). The set index comes from the top bits of a
/// fibonacci hash of the packed key, which spreads the arithmetic key
/// sequences page tables produce without any per-process hash state.
///
/// The ways are allocated on the first insert: an SPM that never
/// translates through its cache (a cluster node's) never pays for the
/// 256 KiB combined table.
#[derive(Debug, Clone)]
struct SetTable<V> {
    /// Empty until the first insert, then `sets * ways` slots.
    slots: Vec<Slot<V>>,
    /// Per-set clock hand for second-chance eviction.
    hands: Vec<u8>,
    set_bits: u32,
    ways: usize,
    len: usize,
}

impl<V: Copy + Default> SetTable<V> {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let ways = cap.min(8);
        let max_sets = (cap / ways).max(1);
        let sets = 1usize << (usize::BITS - 1 - max_sets.leading_zeros());
        SetTable {
            slots: Vec::new(),
            hands: Vec::new(),
            set_bits: sets.trailing_zeros(),
            ways,
            len: 0,
        }
    }

    /// Allocate every way, all invalid.
    fn allocate(&mut self) {
        let sets = 1usize << self.set_bits;
        let empty = Slot {
            idx: 0,
            tag: 0,
            flags: 0,
            val: V::default(),
        };
        self.slots = vec![empty; sets * self.ways];
        self.hands = vec![0; sets];
    }

    #[inline]
    fn set_of(&self, tag: u32, idx: u64) -> usize {
        if self.set_bits == 0 {
            return 0;
        }
        let h = (idx ^ ((tag as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.set_bits)) as usize
    }

    /// Probe for `(tag, idx)`, marking the slot referenced on a hit.
    /// The 64-bit index compares first — it is the discriminating field,
    /// so non-matching ways fall through on one predictable test.
    #[inline]
    fn get(&mut self, tag: u32, idx: u64) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let base = self.set_of(tag, idx) * self.ways;
        for i in base..base + self.ways {
            let s = &self.slots[i];
            if s.idx == idx && s.tag == tag && s.flags & VALID != 0 {
                let s = &mut self.slots[i];
                s.flags |= REFERENCED;
                return Some(&s.val);
            }
        }
        None
    }

    fn insert(&mut self, tag: u32, idx: u64, val: V) {
        if self.slots.is_empty() {
            self.allocate();
        }
        let set = self.set_of(tag, idx);
        let base = set * self.ways;
        let mut empty = None;
        for i in base..base + self.ways {
            let slot = &mut self.slots[i];
            if slot.flags & VALID != 0 {
                if slot.tag == tag && slot.idx == idx {
                    // Refresh in place.
                    slot.val = val;
                    slot.flags |= REFERENCED;
                    return;
                }
            } else if empty.is_none() {
                empty = Some(i);
            }
        }
        let target = match empty {
            Some(i) => {
                self.len += 1;
                i
            }
            None => {
                // Second chance: sweep the hand, stripping reference
                // bits, until an unreferenced victim appears (at most
                // two laps, since each pass clears one bit).
                loop {
                    let i = base + self.hands[set] as usize;
                    self.hands[set] = (self.hands[set] + 1) % self.ways as u8;
                    let slot = &mut self.slots[i];
                    if slot.flags & REFERENCED != 0 {
                        slot.flags &= !REFERENCED;
                    } else {
                        break i;
                    }
                }
            }
        };
        self.slots[target] = Slot {
            idx,
            tag,
            flags: VALID | REFERENCED,
            val,
        };
    }

    /// Drop entries whose `(vmid, asid)` matches `pred`; returns how
    /// many were dropped.
    fn drop_matching(&mut self, mut pred: impl FnMut(u16, u16) -> bool) -> u64 {
        let mut dropped = 0u64;
        for slot in &mut self.slots {
            if slot.flags & VALID != 0 && pred((slot.tag >> 16) as u16, slot.tag as u16) {
                slot.flags = 0;
                dropped += 1;
            }
        }
        self.len -= dropped as usize;
        dropped
    }

    fn clear(&mut self) -> u64 {
        let n = self.len as u64;
        for slot in &mut self.slots {
            slot.flags = 0;
        }
        self.len = 0;
        n
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Cached leaf of a combined two-stage translation. Stores the page-base
/// output so one entry serves every offset within the page. Sized to 16
/// bytes so a combined-cache slot packs into 32.
#[derive(Debug, Clone, Copy)]
struct CombinedEntry {
    page_out: u64,
    perms: crate::mmu::PagePerms,
    attr: crate::mmu::MemAttr,
    block: bool,
    /// Full nested-walk cost this entry short-circuits (24, 15, …).
    full_steps: u16,
}

impl Default for CombinedEntry {
    /// Filler for invalid slots; never read while `VALID` is clear.
    fn default() -> Self {
        CombinedEntry {
            page_out: 0,
            perms: crate::mmu::PagePerms {
                read: false,
                write: false,
                exec: false,
            },
            attr: crate::mmu::MemAttr::Normal,
            block: false,
            full_steps: 0,
        }
    }
}

/// Two-level translation walk cache. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct WalkCache {
    combined: SetTable<CombinedEntry>,
    s1_prefix: SetTable<()>,
    stats: WalkCacheStats,
}

impl Default for WalkCache {
    fn default() -> Self {
        Self::new(DEFAULT_COMBINED_CAPACITY, DEFAULT_S1_PREFIX_CAPACITY)
    }
}

impl WalkCache {
    pub fn new(combined_capacity: usize, s1_prefix_capacity: usize) -> Self {
        WalkCache {
            combined: SetTable::new(combined_capacity),
            s1_prefix: SetTable::new(s1_prefix_capacity),
            stats: WalkCacheStats::default(),
        }
    }

    pub fn stats(&self) -> WalkCacheStats {
        self.stats
    }

    /// `(combined entries, s1-prefix entries)` currently resident.
    pub fn len(&self) -> (usize, usize) {
        (self.combined.len(), self.s1_prefix.len())
    }

    pub fn is_empty(&self) -> bool {
        self.combined.len() == 0 && self.s1_prefix.len() == 0
    }

    /// Two-stage translation through the cache. Functionally equivalent to
    /// [`crate::mmu::two_stage_translate`] whenever the cache is coherent
    /// with the tables (i.e. invalidation was performed on every unmap /
    /// remap / re-init); the returned step count is the number of
    /// descriptor reads actually performed after short-circuiting.
    ///
    /// A combined hit whose cached permissions deny the access falls back
    /// to the slow walk so fault *attribution* (stage 1 vs stage 2) is
    /// identical to the uncached path.
    pub fn translate2(
        &mut self,
        s1: &Stage1Table,
        s2: &Stage2Table,
        va: u64,
        kind: AccessKind,
    ) -> Result<(Translation, u32), TwoStageFault> {
        let vpn = va >> PAGE_SHIFT;
        let tag = tag_of(s2.vmid, s1.asid);
        if let Some(&e) = self.combined.get(tag, vpn) {
            if e.perms.allows(kind) {
                self.stats.hits += 1;
                self.stats.steps_saved += e.full_steps as u64;
                let t = Translation {
                    out_addr: e.page_out | (va & (PAGE_SIZE - 1)),
                    perms: e.perms,
                    attr: e.attr,
                    walk_steps: 0,
                    block: e.block,
                };
                return Ok((t, 0));
            }
            // Denying hit: take the slow path for exact fault attribution.
        }

        let prefix_idx = va >> BLOCK_SHIFT;
        let prefix_hit = self.s1_prefix.get(tag, prefix_idx).is_some();

        let t1 = s1.translate(va, kind).map_err(|f| {
            self.stats.misses += 1;
            TwoStageFault::Stage1(f)
        })?;
        let t2 = s2.translate(t1.out_addr, kind).map_err(|f| {
            self.stats.misses += 1;
            TwoStageFault::Stage2(f)
        })?;

        let full = full_nested_steps(&t1, &t2);
        let paid = if prefix_hit {
            self.stats.s1_prefix_hits += 1;
            // Non-leaf s1 chain cached: one s1 leaf read, stage-2
            // translated (its own s2 walk).
            1 + t2.walk_steps
        } else {
            self.stats.misses += 1;
            full
        };
        self.stats.steps_paid += paid as u64;
        self.stats.steps_saved += (full - paid) as u64;

        self.s1_prefix.insert(tag, prefix_idx, ());
        let combined = combine_translations(&t1, &t2, paid);
        self.combined.insert(
            tag,
            vpn,
            CombinedEntry {
                page_out: combined.out_addr & !(PAGE_SIZE - 1),
                perms: combined.perms,
                attr: combined.attr,
                block: combined.block,
                full_steps: full as u16,
            },
        );
        Ok((combined, paid))
    }

    /// Drop all entries for `(vmid, asid)` — the `TLBI ASID` analogue.
    pub fn invalidate_asid(&mut self, vmid: u16, asid: u16) {
        let n = self.combined.drop_matching(|v, a| v == vmid && a == asid)
            + self.s1_prefix.drop_matching(|v, a| v == vmid && a == asid);
        self.stats.invalidations += n;
    }

    /// Drop all entries for `vmid` — the `TLBI VMALLS12E1` analogue, used
    /// on VM teardown / restart (stage-2 re-init).
    pub fn invalidate_vmid(&mut self, vmid: u16) {
        let n = self.combined.drop_matching(|v, _| v == vmid)
            + self.s1_prefix.drop_matching(|v, _| v == vmid);
        self.stats.invalidations += n;
    }

    /// Drop everything — the `TLBI ALLE1` analogue.
    pub fn invalidate_all(&mut self) {
        let n = self.combined.clear() + self.s1_prefix.clear();
        self.stats.invalidations += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::{two_stage_translate, MemAttr, PagePerms};

    const MB: u64 = 1 << 20;
    const VA: u64 = 0x4000_0000;

    fn tables(pages: u64) -> (Stage1Table, Stage2Table) {
        let mut s1 = Stage1Table::new(3);
        let mut s2 = Stage2Table::new(7);
        s1.map_with_granule(
            VA,
            0x0,
            pages * PAGE_SIZE,
            PagePerms::RW,
            MemAttr::Normal,
            false,
        )
        .unwrap();
        s2.map(0x0, 0x8000_0000, 64 * MB, PagePerms::RWX, MemAttr::Normal)
            .unwrap();
        (s1, s2)
    }

    #[test]
    fn cold_miss_then_combined_hit() {
        let (s1, s2) = tables(16);
        let mut wc = WalkCache::default();
        let (t_cold, steps_cold) = wc
            .translate2(&s1, &s2, VA + 0x1234, AccessKind::Read)
            .unwrap();
        // Page-granule s1 (4 steps) over block-granule s2 (3 steps):
        // 4*(3+1)+3 = 19 reads cold.
        assert_eq!(steps_cold, 19);
        assert_eq!(t_cold.out_addr, 0x8000_1234);
        let (t_hot, steps_hot) = wc
            .translate2(&s1, &s2, VA + 0x1238, AccessKind::Read)
            .unwrap();
        assert_eq!(steps_hot, 0);
        assert_eq!(t_hot.out_addr, 0x8000_1238);
        assert_eq!(t_hot.perms, t_cold.perms);
        let st = wc.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert!(st.steps_saved >= 19);
    }

    #[test]
    fn s1_prefix_hit_prices_short_walk() {
        let (s1, s2) = tables(16);
        let mut wc = WalkCache::default();
        wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        // Next page: combined-cache miss, but same 2 MiB s1 prefix.
        let (_, steps) = wc
            .translate2(&s1, &s2, VA + PAGE_SIZE, AccessKind::Read)
            .unwrap();
        // 1 s1 leaf read + 3-step s2 block walk.
        assert_eq!(steps, 4);
        assert_eq!(wc.stats().s1_prefix_hits, 1);
    }

    #[test]
    fn matches_uncached_translation_and_faults() {
        let (s1, s2) = tables(16);
        let mut wc = WalkCache::default();
        for &va in &[VA, VA + 0x4321, VA + 15 * PAGE_SIZE, VA, VA + 0x4321] {
            for &kind in &[AccessKind::Read, AccessKind::Write, AccessKind::Exec] {
                let cached = wc.translate2(&s1, &s2, va, kind);
                let raw = two_stage_translate(&s1, &s2, va, kind);
                match (cached, raw) {
                    (Ok((c, _)), Ok((r, _))) => {
                        assert_eq!(c.out_addr, r.out_addr);
                        assert_eq!(c.perms, r.perms);
                        assert_eq!(c.attr, r.attr);
                        assert_eq!(c.block, r.block);
                    }
                    (Err(ce), Err(re)) => assert_eq!(ce, re),
                    (c, r) => panic!("cached {c:?} disagrees with raw {r:?}"),
                }
            }
        }
        // Unmapped VA faults identically through the cache.
        assert_eq!(
            wc.translate2(&s1, &s2, 0x1000, AccessKind::Read),
            two_stage_translate(&s1, &s2, 0x1000, AccessKind::Read)
        );
    }

    #[test]
    fn invalidate_asid_forces_miss() {
        let (s1, s2) = tables(4);
        let mut other = Stage1Table::new(9);
        other
            .map(VA, 0x0, 4 * PAGE_SIZE, PagePerms::RW, MemAttr::Normal)
            .unwrap();
        let mut wc = WalkCache::default();
        wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        wc.translate2(&other, &s2, VA, AccessKind::Read).unwrap();
        wc.invalidate_asid(7, 3);
        assert!(wc.stats().invalidations > 0);
        let before = wc.stats();
        wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(wc.stats().hits, before.hits, "asid 3 must re-walk");
        let before = wc.stats();
        wc.translate2(&other, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(wc.stats().hits, before.hits + 1, "asid 9 must survive");
    }

    #[test]
    fn invalidate_vmid_drops_only_that_vm() {
        let (s1, s2a) = tables(4);
        let mut s2b = Stage2Table::new(8);
        s2b.map(0x0, 0x9000_0000, 64 * MB, PagePerms::RWX, MemAttr::Normal)
            .unwrap();
        let mut wc = WalkCache::default();
        wc.translate2(&s1, &s2a, VA, AccessKind::Read).unwrap();
        wc.translate2(&s1, &s2b, VA, AccessKind::Read).unwrap();
        wc.invalidate_vmid(7);
        let before = wc.stats();
        wc.translate2(&s1, &s2b, VA, AccessKind::Read).unwrap();
        assert_eq!(wc.stats().hits, before.hits + 1, "vmid 8 must survive");
        let before = wc.stats();
        wc.translate2(&s1, &s2a, VA, AccessKind::Read).unwrap();
        assert_eq!(wc.stats().hits, before.hits, "vmid 7 must re-walk");
    }

    #[test]
    fn stale_entry_detected_by_invalidate_all() {
        let (mut s1, s2) = tables(4);
        let mut wc = WalkCache::default();
        let (t0, _) = wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        // Remap without invalidation: cache is stale by design (TLB
        // semantics) and still returns the old PA.
        s1.unmap(VA);
        s1.map(VA, 0x100000, 4 * PAGE_SIZE, PagePerms::RW, MemAttr::Normal)
            .unwrap();
        let (t_stale, _) = wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(t_stale.out_addr, t0.out_addr);
        wc.invalidate_all();
        assert!(wc.is_empty());
        let (t_fresh, _) = wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(t_fresh.out_addr, 0x8010_0000);
    }

    #[test]
    fn ways_are_allocated_on_first_insert() {
        let (s1, s2) = tables(4);
        let mut wc = WalkCache::default();
        wc.invalidate_vmid(7);
        wc.invalidate_all();
        assert!(wc.combined.slots.is_empty() && wc.s1_prefix.slots.is_empty());
        wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(wc.combined.slots.len(), DEFAULT_COMBINED_CAPACITY);
        assert_eq!(wc.s1_prefix.slots.len(), DEFAULT_S1_PREFIX_CAPACITY);
        assert_eq!(wc.len(), (1, 1));
    }

    #[test]
    fn eviction_is_bounded_and_deterministic() {
        let (s1, s2) = tables(64);
        let run = || {
            let mut wc = WalkCache::new(8, 4);
            for i in 0..64u64 {
                wc.translate2(&s1, &s2, VA + i * PAGE_SIZE, AccessKind::Read)
                    .unwrap();
            }
            let (c, p) = wc.len();
            assert!(c <= 8 && p <= 4);
            // Re-touch all pages; the hit pattern depends only on the
            // access sequence (hash + clock state), never on ambient
            // randomness.
            let mut hits = Vec::new();
            for i in 0..64u64 {
                let before = wc.stats().hits;
                wc.translate2(&s1, &s2, VA + i * PAGE_SIZE, AccessKind::Read)
                    .unwrap();
                hits.push(wc.stats().hits - before);
            }
            hits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn denying_hit_faults_like_uncached() {
        let mut s1 = Stage1Table::new(1);
        let mut s2 = Stage2Table::new(2);
        s1.map(VA, 0x0, PAGE_SIZE, PagePerms::RW, MemAttr::Normal)
            .unwrap();
        s2.map(0x0, 0x8000_0000, PAGE_SIZE, PagePerms::RO, MemAttr::Normal)
            .unwrap();
        let mut wc = WalkCache::default();
        wc.translate2(&s1, &s2, VA, AccessKind::Read).unwrap();
        assert_eq!(
            wc.translate2(&s1, &s2, VA, AccessKind::Write),
            two_stage_translate(&s1, &s2, VA, AccessKind::Write)
        );
    }

    /// The displaced implementation: `HashMap` + `VecDeque` FIFO, exactly
    /// as the cache was structured before the open-addressed table. Kept
    /// here as the reference model for the equivalence proptest below.
    mod legacy {
        use super::super::*;
        use std::collections::{HashMap, VecDeque};

        type Key = (u16, u16, u64);

        #[derive(Debug, Clone)]
        struct BoundedMap<V> {
            map: HashMap<Key, V>,
            order: VecDeque<Key>,
            capacity: usize,
        }

        impl<V> BoundedMap<V> {
            fn new(capacity: usize) -> Self {
                BoundedMap {
                    map: HashMap::with_capacity(capacity.min(1 << 16)),
                    order: VecDeque::new(),
                    capacity: capacity.max(1),
                }
            }

            fn get(&self, k: &Key) -> Option<&V> {
                self.map.get(k)
            }

            fn insert(&mut self, k: Key, v: V) {
                if self.map.insert(k, v).is_some() {
                    return;
                }
                self.order.push_back(k);
                while self.map.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.map.remove(&old);
                    } else {
                        break;
                    }
                }
            }

            fn drop_matching(&mut self, mut pred: impl FnMut(&Key) -> bool) -> u64 {
                let before = self.map.len();
                self.map.retain(|k, _| !pred(k));
                self.order.retain(|k| !pred(k));
                (before - self.map.len()) as u64
            }

            fn clear(&mut self) -> u64 {
                let n = self.map.len() as u64;
                self.map.clear();
                self.order.clear();
                n
            }
        }

        pub struct LegacyWalkCache {
            combined: BoundedMap<CombinedEntry>,
            s1_prefix: BoundedMap<()>,
            stats: WalkCacheStats,
        }

        impl LegacyWalkCache {
            pub fn new(combined_capacity: usize, s1_prefix_capacity: usize) -> Self {
                LegacyWalkCache {
                    combined: BoundedMap::new(combined_capacity),
                    s1_prefix: BoundedMap::new(s1_prefix_capacity),
                    stats: WalkCacheStats::default(),
                }
            }

            pub fn stats(&self) -> WalkCacheStats {
                self.stats
            }

            pub fn translate2(
                &mut self,
                s1: &Stage1Table,
                s2: &Stage2Table,
                va: u64,
                kind: AccessKind,
            ) -> Result<(Translation, u32), TwoStageFault> {
                let key = (s2.vmid, s1.asid, va >> PAGE_SHIFT);
                if let Some(e) = self.combined.get(&key) {
                    if e.perms.allows(kind) {
                        self.stats.hits += 1;
                        self.stats.steps_saved += e.full_steps as u64;
                        let t = Translation {
                            out_addr: e.page_out | (va & (PAGE_SIZE - 1)),
                            perms: e.perms,
                            attr: e.attr,
                            walk_steps: 0,
                            block: e.block,
                        };
                        return Ok((t, 0));
                    }
                }
                let prefix_key = (s2.vmid, s1.asid, va >> BLOCK_SHIFT);
                let prefix_hit = self.s1_prefix.get(&prefix_key).is_some();
                let t1 = s1.translate(va, kind).map_err(|f| {
                    self.stats.misses += 1;
                    TwoStageFault::Stage1(f)
                })?;
                let t2 = s2.translate(t1.out_addr, kind).map_err(|f| {
                    self.stats.misses += 1;
                    TwoStageFault::Stage2(f)
                })?;
                let full = full_nested_steps(&t1, &t2);
                let paid = if prefix_hit {
                    self.stats.s1_prefix_hits += 1;
                    1 + t2.walk_steps
                } else {
                    self.stats.misses += 1;
                    full
                };
                self.stats.steps_paid += paid as u64;
                self.stats.steps_saved += (full - paid) as u64;
                self.s1_prefix.insert(prefix_key, ());
                let combined = combine_translations(&t1, &t2, paid);
                self.combined.insert(
                    key,
                    CombinedEntry {
                        page_out: combined.out_addr & !(PAGE_SIZE - 1),
                        perms: combined.perms,
                        attr: combined.attr,
                        block: combined.block,
                        full_steps: full as u16,
                    },
                );
                Ok((combined, paid))
            }

            pub fn invalidate_asid(&mut self, vmid: u16, asid: u16) {
                let n = self.combined.drop_matching(|k| k.0 == vmid && k.1 == asid)
                    + self.s1_prefix.drop_matching(|k| k.0 == vmid && k.1 == asid);
                self.stats.invalidations += n;
            }

            pub fn invalidate_vmid(&mut self, vmid: u16) {
                let n = self.combined.drop_matching(|k| k.0 == vmid)
                    + self.s1_prefix.drop_matching(|k| k.0 == vmid);
                self.stats.invalidations += n;
            }

            pub fn invalidate_all(&mut self) {
                let n = self.combined.clear() + self.s1_prefix.clear();
                self.stats.invalidations += n;
            }
        }
    }

    proptest::proptest! {
        /// The open-addressed table must be behaviorally identical to the
        /// displaced HashMap+FIFO implementation whenever capacity covers
        /// the working set (both run eviction-free): same translations,
        /// same faults, and bit-identical hit/miss/invalidation stats
        /// under random translate/invalidate interleavings across two
        /// VMIDs and two ASIDs.
        #[test]
        fn matches_legacy_implementation_stats(
            ops in proptest::collection::vec((0u8..8, 0u8..4, 0u64..48, 0u8..3), 1..250)
        ) {
            let (s1a, s2a) = tables(64);
            let mut s1b = Stage1Table::new(9);
            s1b.map(VA, 0x0, 64 * PAGE_SIZE, PagePerms::RW, MemAttr::Normal)
                .unwrap();
            let mut s2b = Stage2Table::new(8);
            s2b.map(0x0, 0x9000_0000, 64 * MB, PagePerms::RWX, MemAttr::Normal)
                .unwrap();
            let s1s = [&s1a, &s1b];
            let s2s = [&s2a, &s2b];
            let mut wc = WalkCache::default();
            let mut model = legacy::LegacyWalkCache::new(
                DEFAULT_COMBINED_CAPACITY,
                DEFAULT_S1_PREFIX_CAPACITY,
            );
            for (op, pick, page, kind) in ops {
                let (vm, asid) = (pick & 1, (pick >> 1) & 1);
                match op {
                    0..=4 => {
                        // Bias toward translations; mix offsets so some
                        // share a page and some share a 2 MiB prefix.
                        let va = VA + page * PAGE_SIZE + (page % 7) * 64;
                        let kind = match kind {
                            0 => AccessKind::Read,
                            1 => AccessKind::Write,
                            _ => AccessKind::Exec,
                        };
                        let got = wc.translate2(s1s[asid as usize], s2s[vm as usize], va, kind);
                        let want =
                            model.translate2(s1s[asid as usize], s2s[vm as usize], va, kind);
                        proptest::prop_assert_eq!(got, want);
                    }
                    5 => {
                        let vmid = s2s[vm as usize].vmid;
                        let a = s1s[asid as usize].asid;
                        wc.invalidate_asid(vmid, a);
                        model.invalidate_asid(vmid, a);
                    }
                    6 => {
                        let vmid = s2s[vm as usize].vmid;
                        wc.invalidate_vmid(vmid);
                        model.invalidate_vmid(vmid);
                    }
                    _ => {
                        wc.invalidate_all();
                        model.invalidate_all();
                    }
                }
                proptest::prop_assert_eq!(wc.stats(), model.stats());
            }
        }
    }
}

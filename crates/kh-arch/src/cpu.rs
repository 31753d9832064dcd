//! The core timing model: pricing workload phases.
//!
//! A workload describes its execution as a sequence of *phases*
//! ([`Phase`]): a batch of instructions with an aggregate memory-access
//! character. The [`CoreTimer`] turns a phase into virtual time, given
//!
//! * the platform (IPC, cache latencies, walk costs),
//! * the translation regime (native stage-1 vs Hafnium two-stage),
//! * accumulated cache/TLB pollution from interruptions
//!   ([`PollutionState`]),
//! * how many cores are concurrently streaming (DRAM bandwidth sharing).
//!
//! This is where the paper's headline effects are produced: two-stage
//! walks tax TLB-miss-heavy phases (RandomAccess), while streaming
//! phases (STREAM) are bandwidth-floored and barely notice.

use crate::cache::MemSystem;
use crate::mmu::PAGE_SIZE;
use crate::platform::Platform;
use kh_sim::Nanos;
use serde::{Deserialize, Serialize};

/// Aggregate memory-access character of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Unit-stride streaming over the footprint (STREAM, EP table scans).
    Stream,
    /// Uniform random references over the footprint (RandomAccess/GUPS).
    Random,
    /// Blocked/stencil access with temporal reuse in `[0,1]`
    /// (HPCG, NAS LU/BT/SP working sets).
    Blocked { reuse: f64 },
    /// Pure compute; memory references hit L1 (selfish-detour loop, EP
    /// core).
    Compute,
}

impl AccessPattern {
    /// (temporal reuse, spatial locality) for the cache model.
    pub fn locality(self) -> (f64, f64) {
        match self {
            AccessPattern::Stream => (0.0, 1.0),
            AccessPattern::Random => (1.0, 0.0),
            AccessPattern::Blocked { reuse } => (reuse.clamp(0.0, 1.0), 0.6),
            AccessPattern::Compute => (1.0, 1.0),
        }
    }

    /// TLB miss ratio for a given footprint and TLB reach (4 KiB pages).
    pub fn tlb_miss_ratio(self, footprint: u64, tlb_entries: usize) -> f64 {
        if footprint == 0 {
            return 0.0;
        }
        let pages = (footprint as f64 / PAGE_SIZE as f64).max(1.0);
        let resident = (tlb_entries as f64 / pages).min(1.0);
        match self {
            AccessPattern::Compute => 0.0,
            // One miss per page per sweep; 512 f64 elements per 4 KiB page.
            AccessPattern::Stream => (1.0 - resident) * (1.0 / 512.0),
            AccessPattern::Random => 1.0 - resident,
            AccessPattern::Blocked { reuse } => {
                // Blocked sweeps visit pages near-sequentially, so only a
                // small fraction of the cold references open new pages.
                (1.0 - resident) * (1.0 - reuse.clamp(0.0, 1.0)) * 0.1
            }
        }
    }
}

/// One schedulable unit of workload execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Retired instructions that are not memory references.
    pub instructions: u64,
    /// Memory references (loads + stores).
    pub mem_refs: u64,
    /// Floating-point operations (for GFlops reporting; a subset of
    /// `instructions`).
    pub flops: u64,
    /// Bytes of distinct data touched (working set).
    pub footprint: u64,
    /// Bytes that must move through DRAM (bandwidth floor); zero for
    /// cache-resident phases.
    pub dram_bytes: u64,
    pub pattern: AccessPattern,
}

impl Phase {
    /// A pure-compute phase of `instructions` instructions.
    pub fn compute(instructions: u64) -> Self {
        Phase {
            instructions,
            mem_refs: 0,
            flops: 0,
            footprint: 0,
            dram_bytes: 0,
            pattern: AccessPattern::Compute,
        }
    }
}

/// Which translation regime the phase executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranslationRegime {
    /// Native: stage-1 only.
    Stage1Only,
    /// Under Hafnium: nested stage-1 + stage-2 walks.
    TwoStage,
}

/// Cache/TLB damage accumulated while the workload was not running.
///
/// Interruptions (ticks, background tasks, VM switches) evict entries the
/// workload had warmed; the cost is paid at resume as extra misses. The
/// state is drained by the next priced phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PollutionState {
    /// TLB entries evicted since the workload last ran.
    pub tlb_evicted: u64,
    /// Cache lines evicted since the workload last ran.
    pub cache_lines_evicted: u64,
}

impl PollutionState {
    pub fn add(&mut self, other: PollutionState) {
        self.tlb_evicted = self.tlb_evicted.saturating_add(other.tlb_evicted);
        self.cache_lines_evicted = self
            .cache_lines_evicted
            .saturating_add(other.cache_lines_evicted);
    }

    pub fn is_clean(&self) -> bool {
        self.tlb_evicted == 0 && self.cache_lines_evicted == 0
    }
}

/// Cost breakdown for a priced phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCost {
    /// Total core cycles, including walk and re-warm overheads.
    pub cycles: u64,
    /// Wall (virtual) time, after applying the DRAM bandwidth floor.
    pub time: Nanos,
    /// Cycles attributable to TLB walks alone (for diagnostics).
    pub walk_cycles: u64,
    /// Cycles attributable to pollution re-warm.
    pub rewarm_cycles: u64,
    /// True when the DRAM bandwidth floor, not the core, set the time.
    pub bandwidth_bound: bool,
}

/// Prices phases for one core of a platform.
#[derive(Debug, Clone, Copy)]
pub struct CoreTimer {
    pub platform: Platform,
    mem: MemSystem,
}

impl CoreTimer {
    pub fn new(platform: Platform) -> Self {
        CoreTimer {
            platform,
            mem: MemSystem::new(platform.cache),
        }
    }

    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Average cycles per TLB walk under a regime.
    pub fn walk_cycles(&self, regime: TranslationRegime) -> u64 {
        match regime {
            TranslationRegime::Stage1Only => self.platform.s1_walk_cycles,
            TranslationRegime::TwoStage => self.platform.s2_walk_cycles,
        }
    }

    /// Price a phase. `pollution` is drained (reset to clean) as part of
    /// pricing; `concurrent_streams` is how many cores are concurrently
    /// in DRAM-streaming phases (≥1).
    pub fn price(
        &self,
        phase: &Phase,
        regime: TranslationRegime,
        pollution: &mut PollutionState,
        concurrent_streams: u32,
    ) -> PhaseCost {
        self.price_with_walk_factor(phase, regime, pollution, concurrent_streams, 1.0)
    }

    /// Like [`CoreTimer::price`], but scales the analytic TLB-walk term by
    /// `walk_factor` — the fraction of full nested-walk cost actually paid
    /// as measured by a walk cache
    /// ([`crate::walkcache::WalkCacheStats::walk_cost_factor`]). A factor
    /// of 1.0 reproduces `price` exactly; 0.0 means every walk was fully
    /// short-circuited. Re-warm walks after pollution are charged at full
    /// cost either way: pollution evicts walk-cache entries too.
    pub fn price_with_walk_factor(
        &self,
        phase: &Phase,
        regime: TranslationRegime,
        pollution: &mut PollutionState,
        concurrent_streams: u32,
        walk_factor: f64,
    ) -> PhaseCost {
        let walk_factor = walk_factor.clamp(0.0, 1.0);
        let p = &self.platform;
        let (reuse, spatial) = phase.pattern.locality();
        let ratios = self.mem.hit_ratios(phase.footprint, reuse, spatial);

        // Core compute cycles.
        let compute_cycles = (phase.instructions as f64 / p.ipc).ceil() as u64;

        // Memory hierarchy cycles. Unit-stride streams are covered by the
        // hardware prefetcher: the core sees near-L1 latency and the DRAM
        // bandwidth floor below provides the real constraint. Irregular
        // patterns pay the full exposed latency.
        let cycles_per_ref = match phase.pattern {
            AccessPattern::Stream => p.cache.l1_latency as f64 + 1.0,
            _ => self.mem.cycles_per_ref(ratios),
        };
        let mem_cycles = (phase.mem_refs as f64 * cycles_per_ref).ceil() as u64;

        // TLB walk cycles.
        let miss_ratio = phase.pattern.tlb_miss_ratio(phase.footprint, p.tlb_entries);
        let walk = self.walk_cycles(regime);
        let walk_cycles =
            (phase.mem_refs as f64 * miss_ratio * walk as f64 * walk_factor).ceil() as u64;

        // Pollution re-warm: evicted TLB entries the workload would have
        // hit get re-walked; evicted cache lines get re-fetched. Only the
        // fraction the phase actually reuses matters — a pure stream
        // re-warms nothing.
        let rewarm_cycles = if pollution.is_clean() {
            0
        } else {
            let tlb_sensitivity = match phase.pattern {
                AccessPattern::Stream => 0.02,
                AccessPattern::Random => {
                    // The workload's resident TLB fraction is what it can lose.
                    1.0 - miss_ratio.min(1.0)
                }
                AccessPattern::Blocked { reuse } => reuse,
                AccessPattern::Compute => 0.0,
            };
            let cache_sensitivity = match phase.pattern {
                AccessPattern::Stream => 0.0,
                AccessPattern::Random => ratios.l2,
                AccessPattern::Blocked { reuse } => reuse * ratios.l2,
                AccessPattern::Compute => 0.05,
            };
            let tlb_cost = (pollution.tlb_evicted.min(p.tlb_entries as u64) as f64
                * tlb_sensitivity
                * walk as f64) as u64;
            let max_lines = p.cache.l2_bytes / p.cache.line_bytes as u64;
            let cache_cost = (self
                .mem
                .rewarm_cycles(pollution.cache_lines_evicted.min(max_lines))
                as f64
                * cache_sensitivity) as u64;
            tlb_cost + cache_cost
        };
        *pollution = PollutionState::default();

        let cycles = compute_cycles + mem_cycles + walk_cycles + rewarm_cycles;
        let core_time = p.core_freq.cycles_to_nanos(cycles);
        let floor = self.mem.stream_floor(phase.dram_bytes, concurrent_streams);
        let bandwidth_bound = floor > core_time;
        PhaseCost {
            cycles,
            time: core_time.max(floor),
            walk_cycles,
            rewarm_cycles,
            bandwidth_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> CoreTimer {
        CoreTimer::new(Platform::pine_a64_lts())
    }

    fn gups_phase() -> Phase {
        Phase {
            instructions: 4_000_000,
            mem_refs: 1_000_000,
            flops: 0,
            footprint: 16 * 1024 * 1024,
            dram_bytes: 0,
            pattern: AccessPattern::Random,
        }
    }

    fn stream_phase() -> Phase {
        Phase {
            instructions: 2_000_000,
            mem_refs: 4_000_000,
            flops: 2_000_000,
            footprint: 64 * 1024 * 1024,
            dram_bytes: 48 * 1024 * 1024,
            pattern: AccessPattern::Stream,
        }
    }

    #[test]
    fn walk_factor_one_reproduces_price() {
        let t = timer();
        let mut a = PollutionState::default();
        let mut b = PollutionState::default();
        let full = t.price(&gups_phase(), TranslationRegime::TwoStage, &mut a, 1);
        let same =
            t.price_with_walk_factor(&gups_phase(), TranslationRegime::TwoStage, &mut b, 1, 1.0);
        assert_eq!(full.cycles, same.cycles);
        assert_eq!(full.time, same.time);
    }

    #[test]
    fn walk_factor_discounts_two_stage_gups() {
        let t = timer();
        let mut a = PollutionState::default();
        let mut b = PollutionState::default();
        let full = t.price(&gups_phase(), TranslationRegime::TwoStage, &mut a, 1);
        let cached =
            t.price_with_walk_factor(&gups_phase(), TranslationRegime::TwoStage, &mut b, 1, 0.2);
        assert!(cached.walk_cycles < full.walk_cycles);
        assert!(cached.time < full.time);
        // Out-of-range factors clamp rather than amplify.
        let mut c = PollutionState::default();
        let clamped =
            t.price_with_walk_factor(&gups_phase(), TranslationRegime::TwoStage, &mut c, 1, 7.0);
        assert_eq!(clamped.cycles, full.cycles);
    }

    #[test]
    fn compute_phase_is_ipc_bound() {
        let t = timer();
        let mut pol = PollutionState::default();
        let c = t.price(
            &Phase::compute(1_100_000),
            TranslationRegime::Stage1Only,
            &mut pol,
            1,
        );
        // 1.1M instructions at IPC 1.1 at 1.1 GHz ≈ 0.909 ms
        let expect_us = 909;
        assert!(
            (c.time.as_micros() as i64 - expect_us).abs() < 10,
            "{:?}",
            c.time
        );
        assert_eq!(c.walk_cycles, 0);
    }

    #[test]
    fn two_stage_taxes_random_more_than_stream() {
        let t = timer();
        let mut pol = PollutionState::default();
        let g1 = t.price(&gups_phase(), TranslationRegime::Stage1Only, &mut pol, 1);
        let g2 = t.price(&gups_phase(), TranslationRegime::TwoStage, &mut pol, 1);
        let s1 = t.price(&stream_phase(), TranslationRegime::Stage1Only, &mut pol, 1);
        let s2 = t.price(&stream_phase(), TranslationRegime::TwoStage, &mut pol, 1);
        let gups_slowdown = g2.time.as_nanos() as f64 / g1.time.as_nanos() as f64;
        let stream_slowdown = s2.time.as_nanos() as f64 / s1.time.as_nanos() as f64;
        assert!(
            gups_slowdown > stream_slowdown,
            "RandomAccess must be hit harder: gups {gups_slowdown:.4} vs stream {stream_slowdown:.4}"
        );
        // Paper band: a few percent for GUPS.
        assert!(
            gups_slowdown > 1.01 && gups_slowdown < 1.25,
            "gups slowdown {gups_slowdown:.4}"
        );
        // STREAM is bandwidth-floored: near-zero impact.
        assert!(
            stream_slowdown < 1.01,
            "stream slowdown {stream_slowdown:.4}"
        );
    }

    #[test]
    fn stream_is_bandwidth_bound() {
        let t = timer();
        let mut pol = PollutionState::default();
        let c = t.price(&stream_phase(), TranslationRegime::Stage1Only, &mut pol, 1);
        assert!(c.bandwidth_bound);
        // 48 MiB at 2.2 GB/s ≈ 22.9 ms
        let expect = t.mem().stream_floor(48 * 1024 * 1024, 1);
        assert_eq!(c.time, expect);
    }

    #[test]
    fn bandwidth_shared_across_streams() {
        let t = timer();
        let mut pol = PollutionState::default();
        let c1 = t.price(&stream_phase(), TranslationRegime::Stage1Only, &mut pol, 1);
        let c4 = t.price(&stream_phase(), TranslationRegime::Stage1Only, &mut pol, 4);
        assert!(
            c4.time > c1.time.scaled(3),
            "4-way sharing ~quadruples time"
        );
    }

    #[test]
    fn pollution_charges_random_phases() {
        let t = timer();
        let mut clean = PollutionState::default();
        let base = t.price(&gups_phase(), TranslationRegime::TwoStage, &mut clean, 1);
        let mut dirty = PollutionState {
            tlb_evicted: 400,
            cache_lines_evicted: 4000,
        };
        let polluted = t.price(&gups_phase(), TranslationRegime::TwoStage, &mut dirty, 1);
        assert!(polluted.cycles > base.cycles);
        assert!(polluted.rewarm_cycles > 0);
        assert!(dirty.is_clean(), "pricing must drain pollution");
    }

    #[test]
    fn pollution_barely_touches_streams() {
        let t = timer();
        let mut dirty = PollutionState {
            tlb_evicted: 512,
            cache_lines_evicted: 8192,
        };
        let mut clean = PollutionState::default();
        let base = t.price(
            &stream_phase(),
            TranslationRegime::Stage1Only,
            &mut clean,
            1,
        );
        let polluted = t.price(
            &stream_phase(),
            TranslationRegime::Stage1Only,
            &mut dirty,
            1,
        );
        let rel = polluted.cycles as f64 / base.cycles as f64;
        assert!(rel < 1.01, "stream pollution sensitivity too high: {rel}");
    }

    #[test]
    fn pollution_accumulates() {
        let mut p = PollutionState::default();
        p.add(PollutionState {
            tlb_evicted: 10,
            cache_lines_evicted: 20,
        });
        p.add(PollutionState {
            tlb_evicted: 5,
            cache_lines_evicted: 5,
        });
        assert_eq!(p.tlb_evicted, 15);
        assert_eq!(p.cache_lines_evicted, 25);
        assert!(!p.is_clean());
    }

    #[test]
    fn tlb_miss_ratio_shapes() {
        let entries = 512;
        // Footprint within reach: no random misses.
        assert_eq!(
            AccessPattern::Random.tlb_miss_ratio(1024 * 1024, entries),
            0.0
        );
        // 16 MiB over 2 MiB reach: 87.5% misses for random.
        let r = AccessPattern::Random.tlb_miss_ratio(16 * 1024 * 1024, entries);
        assert!((r - 0.875).abs() < 1e-9, "r = {r}");
        // Stream misses are ~1/512 of that.
        let s = AccessPattern::Stream.tlb_miss_ratio(16 * 1024 * 1024, entries);
        assert!(s < r / 100.0);
        // Compute never misses.
        assert_eq!(AccessPattern::Compute.tlb_miss_ratio(1 << 30, entries), 0.0);
    }

    #[test]
    fn walk_costs_follow_regime() {
        let t = timer();
        assert_eq!(
            t.walk_cycles(TranslationRegime::Stage1Only),
            t.platform.s1_walk_cycles
        );
        assert_eq!(
            t.walk_cycles(TranslationRegime::TwoStage),
            t.platform.s2_walk_cycles
        );
    }
}

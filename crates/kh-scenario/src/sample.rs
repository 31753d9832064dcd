//! Deterministic samplers for scenario specs.
//!
//! Everything here draws from a [`SimRng`] the caller seeds from a
//! dedicated stream root, and every draw sequence is a pure function of
//! (spec, seed) — never of traffic, worker count, or wall clock. That is
//! what makes the cluster gates (byte-identity across `--jobs`,
//! noise-histogram invariance) hold with scenarios armed.

use crate::spec::{ArrivalShape, ServiceDist};
use kh_sim::{Nanos, SimRng};

/// Cap on a single service-time multiplier draw. Heavy-tailed service
/// specs (`pareto:1.1`) otherwise produce draws that occupy a server for
/// a whole run, which measures the sampler, not the stack.
pub const MAX_SERVICE_MULT: f64 = 50.0;

/// Derive the per-leg seed for request `id`, leg `leg` (leg 0 = the
/// client's request and its frontend tier-0 phase, 1..=N = backend
/// legs) from a stream root — the cluster keys both service sampling
/// and retry backoff jitter with it. Golden-ratio mixing: consecutive
/// ids and legs land in unrelated streams, and the mapping is a pure
/// function so any worker can reproduce any leg's draw.
pub fn leg_seed(root: u64, id: u64, leg: u32) -> u64 {
    root.wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((leg as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

impl ServiceDist {
    /// Draw one mean-1 service-time multiplier. `Det` draws nothing from
    /// the RNG (and always returns exactly 1.0); the stochastic shapes
    /// clamp to [`MAX_SERVICE_MULT`].
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let raw = match *self {
            ServiceDist::Det => return 1.0,
            ServiceDist::Exp => rng.next_exp(1.0),
            ServiceDist::Pareto { alpha } => {
                // Scale x_m = (alpha-1)/alpha gives mean exactly 1.
                let xm = (alpha - 1.0) / alpha;
                let u = 1.0 - rng.next_f64(); // (0, 1]
                xm * u.powf(-1.0 / alpha)
            }
            ServiceDist::LogNormal { sigma } => {
                // mu = -sigma^2/2 gives mean exactly 1.
                (sigma * rng.next_gaussian() - sigma * sigma / 2.0).exp()
            }
        };
        raw.clamp(0.0, MAX_SERVICE_MULT)
    }
}

/// A strictly-increasing arrival sequence drawn from an
/// [`ArrivalShape`], bounded by a horizon. Each client source owns one,
/// seeded from a split of the scenario arrival stream. It is the
/// cluster's only open-loop generator: svcload runs as the depth-0
/// scenario `arrive=exp:<mean_interarrival>`.
#[derive(Debug)]
pub struct ArrivalProcess {
    shape: ArrivalShape,
    horizon: Nanos,
    rng: SimRng,
    cursor: Nanos,
    /// MMPP only: end of the current on/off window.
    window_end: Nanos,
    /// MMPP only: currently inside an emitting window.
    on: bool,
}

/// Advance `t` by a (possibly fractional) gap, flooring at 1 ns so the
/// sequence is strictly increasing for any parameters.
fn bump(t: Nanos, gap: f64) -> Nanos {
    let gap = if gap.is_finite() { gap.max(1.0) } else { 1.0 };
    Nanos(t.as_nanos().saturating_add(gap.min(1e18) as u64))
}

impl ArrivalProcess {
    pub fn new(shape: ArrivalShape, horizon: Nanos, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        // MMPP starts inside an on-window whose length is the stream's
        // first draw; the other shapes ignore the window state.
        let window_end = match shape {
            ArrivalShape::Mmpp { on_dur, .. } => {
                bump(Nanos::ZERO, rng.next_exp(on_dur.as_nanos() as f64))
            }
            _ => Nanos::ZERO,
        };
        ArrivalProcess {
            shape,
            horizon,
            rng,
            cursor: Nanos::ZERO,
            window_end,
            on: true,
        }
    }

    /// Next arrival instant, strictly after the previous one; `None`
    /// once the horizon is reached (and forever after).
    pub fn next_arrival(&mut self) -> Option<Nanos> {
        let next = match self.shape {
            ArrivalShape::Exp { mean } => {
                bump(self.cursor, self.rng.next_exp(mean.as_nanos() as f64))
            }
            ArrivalShape::Pareto { mean, alpha } => {
                let xm = mean.as_nanos() as f64 * (alpha - 1.0) / alpha;
                let u = 1.0 - self.rng.next_f64();
                bump(self.cursor, xm * u.powf(-1.0 / alpha))
            }
            ArrivalShape::LogNormal { mean, sigma } => {
                let mu = (mean.as_nanos() as f64).ln() - sigma * sigma / 2.0;
                bump(self.cursor, (mu + sigma * self.rng.next_gaussian()).exp())
            }
            ArrivalShape::Mmpp {
                on_mean,
                on_dur,
                off_dur,
            } => self.next_mmpp(
                on_mean.as_nanos() as f64,
                on_dur.as_nanos() as f64,
                off_dur.as_nanos() as f64,
            )?,
            ArrivalShape::Diurnal { mean, amp, period } => {
                self.next_diurnal(mean.as_nanos() as f64, amp, period.as_nanos() as f64)?
            }
        };
        self.cursor = next;
        if next >= self.horizon {
            None
        } else {
            Some(next)
        }
    }

    /// Append up to `k` arrival times to `out` in one pass, returning
    /// how many were produced (fewer than `k` only when the horizon
    /// closes). Semantically identical to calling
    /// [`Self::next_arrival`] `k` times — same stream, same draw order;
    /// the batch form lets an event loop file a client's next chunk of
    /// arrivals in one go.
    pub fn next_arrivals(&mut self, k: usize, out: &mut Vec<Nanos>) -> usize {
        let mut n = 0;
        while n < k {
            match self.next_arrival() {
                Some(t) => {
                    out.push(t);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn next_mmpp(&mut self, on_mean: f64, on_dur: f64, off_dur: f64) -> Option<Nanos> {
        loop {
            if self.cursor >= self.horizon {
                return None;
            }
            if !self.on {
                // Silent window: jump to its end, then open an on-window.
                self.cursor = self.window_end;
                self.window_end = bump(self.cursor, self.rng.next_exp(on_dur));
                self.on = true;
                continue;
            }
            let cand = bump(self.cursor, self.rng.next_exp(on_mean));
            if cand < self.window_end {
                return Some(cand);
            }
            // On-window exhausted: schedule the off-window and retry.
            self.cursor = self.window_end;
            self.window_end = bump(self.cursor, self.rng.next_exp(off_dur));
            self.on = false;
        }
    }

    fn next_diurnal(&mut self, mean: f64, amp: f64, period: f64) -> Option<Nanos> {
        // Lewis-Shedler thinning at the peak rate (1 + amp) / mean: draw
        // candidates from the envelope, accept with rate(t) / peak.
        let envelope_gap = mean / (1.0 + amp);
        let mut t = self.cursor;
        loop {
            t = bump(t, self.rng.next_exp(envelope_gap));
            if t >= self.horizon {
                // Park the cursor past the horizon so the process stays
                // exhausted instead of thinning a fresh tail next call.
                self.cursor = t;
                return None;
            }
            let phase = 2.0 * core::f64::consts::PI * (t.as_nanos() as f64) / period;
            let accept = (1.0 + amp * phase.sin()) / (1.0 + amp);
            if self.rng.next_f64() < accept {
                return Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    fn drain(shape: ArrivalShape, horizon: Nanos, seed: u64) -> Vec<Nanos> {
        let mut p = ArrivalProcess::new(shape, horizon, seed);
        let mut out = Vec::new();
        while let Some(t) = p.next_arrival() {
            out.push(t);
        }
        out
    }

    fn all_shapes() -> Vec<ArrivalShape> {
        vec![
            ArrivalShape::Exp {
                mean: Nanos::from_micros(50),
            },
            ArrivalShape::Pareto {
                mean: Nanos::from_micros(50),
                alpha: 1.5,
            },
            ArrivalShape::LogNormal {
                mean: Nanos::from_micros(50),
                sigma: 0.6,
            },
            ArrivalShape::Mmpp {
                on_mean: Nanos::from_micros(25),
                on_dur: Nanos::from_millis(2),
                off_dur: Nanos::from_millis(1),
            },
            ArrivalShape::Diurnal {
                mean: Nanos::from_micros(50),
                amp: 0.8,
                period: Nanos::from_millis(5),
            },
        ]
    }

    #[test]
    fn sequences_are_strictly_increasing_and_bounded() {
        let horizon = Nanos::from_millis(20);
        for shape in all_shapes() {
            let seq = drain(shape, horizon, 7);
            assert!(!seq.is_empty(), "{shape:?} produced nothing");
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "{shape:?} not increasing"
            );
            assert!(*seq.last().unwrap() < horizon);
        }
    }

    #[test]
    fn sequences_are_seed_deterministic() {
        let horizon = Nanos::from_millis(20);
        for shape in all_shapes() {
            assert_eq!(drain(shape, horizon, 42), drain(shape, horizon, 42));
            assert_ne!(drain(shape, horizon, 42), drain(shape, horizon, 43));
        }
    }

    #[test]
    fn batched_arrivals_match_one_at_a_time() {
        let horizon = Nanos::from_millis(20);
        for shape in all_shapes() {
            let serial = drain(shape, horizon, 13);
            let mut batched = ArrivalProcess::new(shape, horizon, 13);
            let mut out = Vec::new();
            while batched.next_arrivals(32, &mut out) == 32 {}
            assert_eq!(out, serial, "{shape:?}");
        }
    }

    #[test]
    fn exhausted_process_stays_exhausted() {
        for shape in all_shapes() {
            let mut p = ArrivalProcess::new(shape, Nanos::from_micros(200), 3);
            while p.next_arrival().is_some() {}
            for _ in 0..64 {
                assert!(p.next_arrival().is_none(), "{shape:?}");
            }
        }
    }

    #[test]
    fn mean_gaps_land_near_target() {
        // Loose statistical sanity: empirical mean gap within 25% of the
        // configured mean over a long horizon, for the unmodulated
        // shapes (MMPP's long-run rate is duty-cycled by design).
        let horizon = Nanos::from_millis(500);
        for shape in [
            ArrivalShape::Exp {
                mean: Nanos::from_micros(50),
            },
            ArrivalShape::Pareto {
                mean: Nanos::from_micros(50),
                alpha: 2.5,
            },
            ArrivalShape::LogNormal {
                mean: Nanos::from_micros(50),
                sigma: 0.6,
            },
            ArrivalShape::Diurnal {
                mean: Nanos::from_micros(50),
                amp: 0.5,
                period: Nanos::from_millis(5),
            },
        ] {
            let seq = drain(shape, horizon, 11);
            let mean = horizon.as_nanos() as f64 / seq.len() as f64;
            assert!(
                (mean - 50_000.0).abs() < 12_500.0,
                "{shape:?}: empirical mean gap {mean:.0}ns"
            );
        }
    }

    #[test]
    fn mmpp_has_silent_windows() {
        let seq = drain(
            ArrivalShape::Mmpp {
                on_mean: Nanos::from_micros(10),
                on_dur: Nanos::from_millis(1),
                off_dur: Nanos::from_millis(2),
            },
            Nanos::from_millis(50),
            5,
        );
        let max_gap = seq
            .windows(2)
            .map(|w| w[1].as_nanos() - w[0].as_nanos())
            .max()
            .unwrap();
        // Off-windows of mean 2ms must show up as gaps far above the
        // 10us on-window gap.
        assert!(max_gap > 500_000, "largest gap only {max_gap}ns");
    }

    #[test]
    fn service_multipliers_mean_one_and_clamped() {
        for dist in [
            ServiceDist::Exp,
            ServiceDist::Pareto { alpha: 2.0 },
            ServiceDist::LogNormal { sigma: 0.6 },
        ] {
            let mut rng = SimRng::new(17);
            let n = 20_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let m = dist.sample(&mut rng);
                assert!((0.0..=MAX_SERVICE_MULT).contains(&m));
                sum += m;
            }
            let mean = sum / n as f64;
            assert!((mean - 1.0).abs() < 0.12, "{dist:?}: mean {mean:.3}");
        }
    }

    #[test]
    fn det_draws_nothing() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        assert_eq!(ServiceDist::Det.sample(&mut a), 1.0);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn leg_seeds_are_distinct() {
        let root = 0xABCD;
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u64 {
            for leg in 0..8u32 {
                assert!(seen.insert(leg_seed(root, id, leg)));
            }
        }
    }

    #[test]
    fn arrival_draws_ride_a_dedicated_stream() {
        // Two processes with different shapes but the same seed agree on
        // nothing, while the same shape+seed agrees on everything — and
        // constructing a process never touches any other RNG.
        let scn = Scenario::default();
        let horizon = Nanos::from_millis(10);
        let a = drain(scn.arrival, horizon, 21);
        let b = drain(scn.arrival, horizon, 21);
        assert_eq!(a, b);
    }
}

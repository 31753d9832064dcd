//! Virtual time: nanosecond instants and clock-frequency conversions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A virtual-time instant or duration, in nanoseconds.
///
/// The simulation uses a single monotonically increasing `Nanos` clock per
/// machine. `Nanos` is deliberately a thin wrapper over `u64`: a machine
/// simulated at nanosecond resolution can run for ~584 years before
/// overflow, far beyond any experiment here.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);
    pub const MAX: Nanos = Nanos(u64::MAX);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }
    /// Build from floating-point seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        Nanos((s * 1e9).round() as u64)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Multiply a duration by an integer count.
    #[inline]
    pub fn scaled(self, n: u64) -> Nanos {
        Nanos(self.0.saturating_mul(n))
    }

    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}
impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}
impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "Nanos subtraction underflow");
        Nanos(self.0 - rhs.0)
    }
}
impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        debug_assert!(self.0 >= rhs.0, "Nanos subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Parse a duration written with a unit suffix (`1200ns`, `50us`,
/// `200ms`, `3s`) or as a bare count of nanoseconds. `None` if the
/// number is missing or malformed, or the value overflows.
pub fn parse_duration(s: &str) -> Option<Nanos> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (s, 1)
    };
    num.parse::<u64>().ok()?.checked_mul(mult).map(Nanos)
}

/// A clock frequency in hertz, used to convert cycle counts to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Freq(pub u64);

impl Freq {
    pub const fn hz(hz: u64) -> Self {
        Freq(hz)
    }
    pub const fn khz(khz: u64) -> Self {
        Freq(khz * 1_000)
    }
    pub const fn mhz(mhz: u64) -> Self {
        Freq(mhz * 1_000_000)
    }
    pub const fn ghz_milli(milli_ghz: u64) -> Self {
        // e.g. 1100 => 1.1 GHz; avoids floating point in const context.
        Freq(milli_ghz * 1_000_000)
    }

    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Duration of `cycles` clock cycles at this frequency.
    ///
    /// Uses 128-bit intermediate math so multi-second phases at GHz clocks
    /// do not overflow.
    #[inline]
    pub fn cycles_to_nanos(self, cycles: u64) -> Nanos {
        debug_assert!(self.0 > 0);
        Nanos(((cycles as u128 * 1_000_000_000u128) / self.0 as u128) as u64)
    }

    /// Number of whole cycles that elapse in `d` at this frequency.
    #[inline]
    pub fn nanos_to_cycles(self, d: Nanos) -> u64 {
        ((d.0 as u128 * self.0 as u128) / 1_000_000_000u128) as u64
    }

    /// The period of one cycle (rounded down; at least 1 ns resolution
    /// requires callers to batch cycles — which the machine model does).
    #[inline]
    pub fn period(self) -> Nanos {
        Nanos(1_000_000_000 / self.0.max(1))
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hz = self.0;
        if hz >= 1_000_000_000 {
            write!(f, "{:.2}GHz", hz as f64 / 1e9)
        } else if hz >= 1_000_000 {
            write!(f, "{:.1}MHz", hz as f64 / 1e6)
        } else if hz >= 1_000 {
            write!(f, "{:.1}kHz", hz as f64 / 1e3)
        } else {
            write!(f, "{hz}Hz")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse_by_suffix() {
        assert_eq!(parse_duration("1200ns"), Some(Nanos(1200)));
        assert_eq!(parse_duration("50us"), Some(Nanos::from_micros(50)));
        assert_eq!(parse_duration("200ms"), Some(Nanos::from_millis(200)));
        assert_eq!(parse_duration("3s"), Some(Nanos::from_secs(3)));
        assert_eq!(parse_duration("750"), Some(Nanos(750)), "bare: nanoseconds");
        assert_eq!(parse_duration("ms"), None, "no number");
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("5m"), None);
        assert_eq!(parse_duration("-5ms"), None);
        assert_eq!(
            parse_duration("18446744073s"),
            Some(Nanos::from_secs(18_446_744_073))
        );
        assert_eq!(
            parse_duration("20000000000s"),
            None,
            "overflows u64 nanoseconds"
        );
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos(2_000_000_000));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_micros(7), Nanos(7_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.scaled(3), Nanos(300));
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos(140));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn freq_round_trip() {
        let f = Freq::ghz_milli(1100); // 1.1 GHz, the Pine A64 clock
        assert_eq!(f.as_hz(), 1_100_000_000);
        // 1.1e9 cycles == 1 second
        assert_eq!(f.cycles_to_nanos(1_100_000_000), Nanos::from_secs(1));
        // converting back loses < 1 cycle
        let d = f.cycles_to_nanos(12345);
        let c = f.nanos_to_cycles(d);
        assert!(c <= 12345 && 12345 - c <= 1, "c = {c}");
    }

    #[test]
    fn freq_no_overflow_on_long_phases() {
        let f = Freq::ghz_milli(1100);
        // An hour worth of cycles must not overflow.
        let cycles = 1_100_000_000u64 * 3600;
        assert_eq!(f.cycles_to_nanos(cycles), Nanos::from_secs(3600));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos(5_000).to_string(), "5.000us");
        assert_eq!(Nanos(5_000_000).to_string(), "5.000ms");
        assert_eq!(Nanos(5_000_000_000).to_string(), "5.000s");
        assert_eq!(Freq::mhz(24).to_string(), "24.0MHz");
    }

    #[test]
    fn min_max() {
        assert_eq!(Nanos(1).min(Nanos(2)), Nanos(1));
        assert_eq!(Nanos(1).max(Nanos(2)), Nanos(2));
    }
}

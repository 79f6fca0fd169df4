//! Simulation clock types.
//!
//! The simulator runs on an integer nanosecond clock. Integer time makes
//! event ordering exact and platform-independent, which is what makes every
//! experiment in this repository bit-reproducible: two events scheduled for
//! the same instant are further ordered by a monotone sequence number, so
//! there is never a floating-point tie to break.
//!
//! [`Time`] is an absolute instant (nanoseconds since simulation start) and
//! [`Dur`] is a span between instants. Both are thin wrappers over `u64`
//! with saturating arithmetic; a simulation that overflows `u64` nanoseconds
//! would have run for ~584 years of virtual time, which we treat as a bug.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::Serialize;

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Time(secs_to_nanos(s))
    }

    /// Raw nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`Dur::ZERO`] if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The greatest representable span; used as an "infinite" sentinel.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Dur(secs_to_nanos(s))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale the span by a non-negative factor, saturating on overflow.
    ///
    /// Non-finite or negative factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> Dur {
        if !factor.is_finite() || factor <= 0.0 {
            return Dur::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur(scaled.round() as u64)
        }
    }

    /// The larger of the two spans.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of the two spans.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// The time a `bytes`-sized packet occupies a link of `rate_bps` bits/s.
    ///
    /// Returns [`Dur::MAX`] for a zero-rate link so that a misconfigured link
    /// visibly stalls rather than silently transmitting instantaneously.
    pub fn transmission(bytes: u32, rate_bps: u64) -> Dur {
        if rate_bps == 0 {
            return Dur::MAX;
        }
        let bits = u64::from(bytes) * 8;
        // Divide in 64 bits, far cheaper than in 128, while bits · 10⁹ fits.
        if let Some(bit_ns) = bits.checked_mul(1_000_000_000) {
            return Dur(bit_ns / rate_bps);
        }
        let nanos = u128::from(bits) * 1_000_000_000 / u128::from(rate_bps);
        Dur(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

fn secs_to_nanos(s: f64) -> u64 {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    if s.is_infinite() {
        return u64::MAX;
    }
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self >= rhs, "negative duration: {self} - {rhs}");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        debug_assert!(self >= rhs, "negative duration: {self} - {rhs}");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1_000));
        assert_eq!(Dur::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Time::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::NAN), Time::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Dur::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t - Time::from_millis(5), Dur::from_millis(10));
        assert_eq!(Dur::from_millis(3) * 4, Dur::from_millis(12));
        assert_eq!(Dur::from_millis(12) / 4, Dur::from_millis(3));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::MAX + Dur::from_secs(1), Time::MAX);
        assert_eq!(Time::ZERO.saturating_since(Time::from_secs(1)), Dur::ZERO);
        assert_eq!(
            Dur::from_secs(1).saturating_sub(Dur::from_secs(2)),
            Dur::ZERO
        );
    }

    #[test]
    fn transmission_time() {
        // 1500 bytes at 12 kbit/s = 1 second.
        assert_eq!(Dur::transmission(1500, 12_000), Dur::from_secs(1));
        // 1500 bytes at 15 Mbit/s = 0.8 ms.
        assert_eq!(Dur::transmission(1500, 15_000_000), Dur::from_micros(800));
        assert_eq!(Dur::transmission(1500, 0), Dur::MAX);
        assert_eq!(Dur::transmission(0, 1_000), Dur::ZERO);
    }

    /// `transmission` in 128 bits throughout.
    fn wide(bytes: u32, rate_bps: u64) -> Dur {
        if rate_bps == 0 {
            return Dur::MAX;
        }
        let nanos = u128::from(bytes) * 8 * 1_000_000_000 / u128::from(rate_bps);
        Dur(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    #[test]
    fn transmission_is_exact_on_both_sides_of_the_64_bit_bound() {
        // The largest packet whose bit-nanoseconds fit in a u64, and the
        // next one, which takes the 128-bit path.
        let fits = (u64::MAX / 8_000_000_000) as u32;
        let bit_ns = |bytes: u32| u64::from(bytes).checked_mul(8_000_000_000);
        assert!(bit_ns(fits).is_some() && bit_ns(fits + 1).is_none());
        for bytes in [fits - 1, fits, fits + 1, fits + 2, u32::MAX] {
            for rate in [1, 2, 3, 7, 1_000, 1 << 40, u64::MAX - 1, u64::MAX] {
                assert_eq!(
                    Dur::transmission(bytes, rate),
                    wide(bytes, rate),
                    "{bytes} B at {rate} bit/s"
                );
            }
        }
        // u32::MAX bytes take 34 359 738 360 s at 1 bit/s, past what a
        // u64 of nanoseconds holds, and half that at 2 bit/s, within it.
        assert_eq!(Dur::transmission(u32::MAX, 1), Dur::MAX);
        assert_eq!(
            Dur::transmission(u32::MAX, 2),
            Dur::from_nanos(17_179_869_180_000_000_000)
        );
        assert_eq!(Dur::transmission(u32::MAX, u64::MAX), Dur::from_nanos(1));
        assert_eq!(Dur::transmission(1, u64::MAX), Dur::ZERO);
        assert_eq!(Dur::transmission(1, 1), Dur::from_secs(8));
        assert_eq!(Dur::transmission(u32::MAX, 0), Dur::MAX);
        assert_eq!(Dur::transmission(0, 0), Dur::MAX);
    }

    #[test]
    fn mul_f64_clamps() {
        assert_eq!(Dur::from_secs(1).mul_f64(2.5), Dur::from_millis(2_500));
        assert_eq!(Dur::from_secs(1).mul_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs(1).mul_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::MAX.mul_f64(2.0), Dur::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(3)), "3.0us");
        assert_eq!(format!("{}", Dur::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
    }
}

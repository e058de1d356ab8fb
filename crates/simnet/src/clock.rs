//! Virtual time for the discrete-event simulator.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use core::time::Duration;

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// simulation epoch.
///
/// `SimTime` is totally ordered and combines with [`core::time::Duration`]
/// for spans, so simulation code reads like wall-clock code:
///
/// ```
/// use core::time::Duration;
/// use ghba_simnet::SimTime;
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + Duration::from_micros(250);
/// assert!(t1 > t0);
/// assert_eq!(t1 - t0, Duration::from_micros(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference: `self − earlier`, or zero if `earlier` is
    /// later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(u64::try_from(rhs.as_nanos()).expect("duration fits u64 nanos"))
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`saturating_since`](SimTime::saturating_since) when that is
    /// expected.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(5) + Duration::from_micros(250);
        assert_eq!(t.as_micros(), 5_250);
        assert_eq!(t - SimTime::from_millis(5), Duration::from_micros(250));
    }

    #[test]
    fn saturating_since_never_panics() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_nanos(40));
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn sub_earlier_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(42).to_string(), "42ns");
        assert_eq!(SimTime::from_micros(42).to_string(), "42.000µs");
        assert_eq!(SimTime::from_millis(42).to_string(), "42.000ms");
        assert_eq!(SimTime::from_secs(42).to_string(), "42.000s");
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}

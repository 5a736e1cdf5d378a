//! The protocol clock.
//!
//! LBRM state machines are *sans-IO*: they never read a wall clock.
//! Every entry point takes the current [`Time`], and machines expose
//! [`next_deadline`](crate::machine::Machine::next_deadline) so the
//! driver (simulator or UDP endpoint) knows when to call back. `Time`
//! is a nanosecond count from an arbitrary origin chosen by the driver;
//! the simulator's virtual time (`lbrm_sim::time::SimTime`) is this same
//! type, counted from the start of the run.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the protocol clock (nanoseconds from the driver's origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin.
    pub const ZERO: Time = Time(0);

    /// The far future: nothing is due later than this.
    pub const MAX: Time = Time(u64::MAX);

    /// Builds an instant from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Builds an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Builds an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Builds an instant from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Time {
        debug_assert!(s >= 0.0 && s.is_finite());
        Time((s * 1e9).round() as u64)
    }

    /// Nanoseconds from the origin.
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds from the origin as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds `d`, stopping at [`Time::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(
            self.0
                .saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64),
        )
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    #[inline]
    fn add(self, d: Duration) -> Time {
        self.saturating_add(d)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    #[inline]
    fn sub(self, other: Time) -> Duration {
        self.since(other)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

/// The earlier of two optional deadlines — `None` means "no deadline".
pub fn earliest(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Time::from_secs(2).nanos(), 2_000_000_000);
        assert_eq!(Time::from_millis(5).nanos(), 5_000_000);
        assert_eq!(Time::from_micros(7).nanos(), 7_000);
        assert_eq!(Time::from_secs_f64(0.25).nanos(), 250_000_000);
        assert!((Time::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
        assert_eq!(Time::ZERO, Time::default());
        assert!(Time::from_millis(1) < Time::from_millis(2));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.nanos(), 1_250_000_000);
        assert_eq!(t - Time::from_secs(1), Duration::from_millis(250));
        assert_eq!(Time::ZERO - t, Duration::ZERO);
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
        assert_eq!(Time::ZERO.saturating_add(Duration::MAX), Time::MAX);
    }

    #[test]
    fn earliest_combines() {
        let a = Some(Time::from_secs(3));
        let b = Some(Time::from_secs(2));
        assert_eq!(earliest(a, b), b);
        assert_eq!(earliest(a, None), a);
        assert_eq!(earliest(None, b), b);
        assert_eq!(earliest(None, None), None);
    }
}

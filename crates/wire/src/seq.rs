//! Wrapping 32-bit sequence numbers.
//!
//! LBRM receivers detect loss from gaps in the data sequence space, and
//! heartbeats repeat the most recent data sequence number. Sequence
//! numbers use *serial number arithmetic* (RFC 1982 with `SERIAL_BITS =
//! 32`): `a < b` iff `b - a` (wrapping) is in `(0, 2^31)`. This keeps
//! comparisons correct across wraparound for any stream whose reordering
//! window is under 2^31 packets — far beyond anything a low-rate LBRM
//! source produces.

use std::fmt;

/// A 32-bit wrapping sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Seq(pub u32);

impl Seq {
    /// The conventional first data sequence number.
    pub const FIRST: Seq = Seq(1);

    /// The zero sequence number, used before any data has been sent.
    pub const ZERO: Seq = Seq(0);

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the sequence number `n` steps ahead (wrapping).
    // Deliberately named like the operator: `seq.add(n)` reads naturally
    // and the wrapping semantics differ from an arithmetic `+`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, n: u32) -> Seq {
        Seq(self.0.wrapping_add(n))
    }

    /// Returns the next sequence number.
    #[inline]
    pub fn next(self) -> Seq {
        self.add(1)
    }

    /// Returns the previous sequence number.
    #[inline]
    pub fn prev(self) -> Seq {
        Seq(self.0.wrapping_sub(1))
    }

    /// Serial-number comparison: `true` iff `self` is strictly before
    /// `other` in sequence space.
    #[inline]
    pub fn before(self, other: Seq) -> bool {
        let diff = other.0.wrapping_sub(self.0);
        diff != 0 && diff < (1 << 31)
    }

    /// `true` iff `self` is before or equal to `other`.
    #[inline]
    pub fn before_eq(self, other: Seq) -> bool {
        self == other || self.before(other)
    }

    /// `true` iff `self` is strictly after `other`.
    #[inline]
    pub fn after(self, other: Seq) -> bool {
        other.before(self)
    }

    /// Distance from `earlier` to `self` (wrapping). Meaningful when
    /// `earlier.before_eq(self)`.
    #[inline]
    pub fn distance_from(self, earlier: Seq) -> u32 {
        self.0.wrapping_sub(earlier.0)
    }

    /// The larger of two sequence numbers under serial comparison.
    #[inline]
    pub fn max(self, other: Seq) -> Seq {
        if self.before(other) {
            other
        } else {
            self
        }
    }

    /// The smaller of two sequence numbers under serial comparison.
    #[inline]
    pub fn min(self, other: Seq) -> Seq {
        if self.before(other) {
            self
        } else {
            other
        }
    }

    /// Iterates the inclusive range `self ..= end` in sequence order.
    /// Yields nothing if `end` is before `self`.
    pub fn iter_to(self, end: Seq) -> impl Iterator<Item = Seq> {
        let count = if self.before_eq(end) {
            end.distance_from(self) as u64 + 1
        } else {
            0
        };
        (0..count).map(move |i| self.add(i as u32))
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for Seq {
    #[inline]
    fn from(v: u32) -> Self {
        Seq(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_basic() {
        assert!(Seq(1).before(Seq(2)));
        assert!(!Seq(2).before(Seq(1)));
        assert!(!Seq(5).before(Seq(5)));
        assert!(Seq(5).before_eq(Seq(5)));
        assert!(Seq(9).after(Seq(3)));
    }

    #[test]
    fn ordering_across_wrap() {
        let near_max = Seq(u32::MAX - 1);
        let wrapped = near_max.add(5); // = 3
        assert_eq!(wrapped, Seq(3));
        assert!(near_max.before(wrapped));
        assert!(wrapped.after(near_max));
        assert_eq!(wrapped.distance_from(near_max), 5);
    }

    #[test]
    fn min_max() {
        assert_eq!(Seq(3).max(Seq(7)), Seq(7));
        assert_eq!(Seq(3).min(Seq(7)), Seq(3));
        let a = Seq(u32::MAX);
        let b = Seq(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn iter_to_counts() {
        let got: Vec<_> = Seq(3).iter_to(Seq(6)).collect();
        assert_eq!(got, vec![Seq(3), Seq(4), Seq(5), Seq(6)]);
        assert_eq!(Seq(6).iter_to(Seq(3)).count(), 0);
        assert_eq!(Seq(9).iter_to(Seq(9)).count(), 1);
    }

    #[test]
    fn iter_to_across_wrap() {
        let got: Vec<_> = Seq(u32::MAX).iter_to(Seq(1)).collect();
        assert_eq!(got, vec![Seq(u32::MAX), Seq(0), Seq(1)]);
    }

    #[test]
    fn prev_next_inverse() {
        assert_eq!(Seq(0).prev(), Seq(u32::MAX));
        assert_eq!(Seq(u32::MAX).next(), Seq(0));
        assert_eq!(Seq(17).next().prev(), Seq(17));
    }
}

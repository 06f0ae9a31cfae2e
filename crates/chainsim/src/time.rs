//! Simulated time measured in block heights.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, expressed as a block height.
///
/// All chains in a [`crate::World`] advance their heights in lock-step, so a
/// single `Time` value describes the global state of the clock. The paper's
/// synchrony bound Δ is a number of blocks, so a timeout such as `3Δ` is
/// a height `3Δ` blocks after the protocol start.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// The protocol start time (height zero).
    pub const ZERO: Time = Time(0);

    /// The far future: later than every deadline a protocol can schedule.
    /// Used as the wake hint of steps that can never again be triggered by
    /// the clock alone.
    pub const MAX: Time = Time(u64::MAX);

    /// Returns the raw block height.
    pub const fn height(self) -> u64 {
        self.0
    }

    /// Returns the time advanced by `blocks`.
    #[must_use]
    pub fn plus(self, blocks: u64) -> Time {
        Time(self.0 + blocks)
    }

    /// Returns whether this time is strictly before `deadline`.
    pub fn is_before(self, deadline: Time) -> bool {
        self < deadline
    }

    /// Returns whether `deadline` has elapsed (this time is ≥ the deadline).
    pub fn has_reached(self, deadline: Time) -> bool {
        self >= deadline
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;

    fn add(self, rhs: u64) -> Time {
        Time(self.0 + rhs)
    }
}

impl Sub<Time> for Time {
    type Output = u64;

    fn sub(self, rhs: Time) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_comparisons() {
        let t = Time(5);
        assert!(t.is_before(Time(6)));
        assert!(!t.is_before(Time(5)));
        assert!(t.has_reached(Time(5)));
        assert!(!t.has_reached(Time(6)));
        assert_eq!(t.plus(3), Time(8));
        assert_eq!(t + 2, Time(7));
        assert_eq!(Time(9) - Time(4), 5);
        assert_eq!(Time(4) - Time(9), 0);
        assert_eq!(t.to_string(), "t=5");
    }
}

//! Asset quantities and signed payoffs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An unsigned quantity of some asset.
///
/// Amounts use saturating-free checked arithmetic internally; the `+`/`-`
/// operators panic on overflow or underflow, which in this simulator always
/// indicates a programming error rather than a recoverable condition. Use
/// [`Amount::checked_add`] / [`Amount::checked_sub`] where a fallible result
/// is preferable.
///
/// # Examples
///
/// ```
/// use chainsim::Amount;
///
/// let a = Amount::new(100);
/// let b = Amount::new(1);
/// assert_eq!(a + b, Amount::new(101));
/// assert_eq!(a.checked_sub(Amount::new(200)), None);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Amount(u128);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);

    /// Creates an amount from a raw integer value.
    pub const fn new(value: u128) -> Self {
        Amount(value)
    }

    /// Returns the raw integer value.
    pub const fn value(self) -> u128 {
        self.0
    }

    /// Returns `true` if the amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the amount by an integer scale factor.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn scaled(self, factor: u128) -> Amount {
        Amount(self.0.checked_mul(factor).expect("amount overflow in scaled"))
    }

    /// Converts to a signed [`Payoff`].
    pub fn as_payoff(self) -> Payoff {
        Payoff(self.0 as i128)
    }
}

impl Add for Amount {
    type Output = Amount;

    fn add(self, rhs: Amount) -> Amount {
        self.checked_add(rhs).expect("amount overflow in add")
    }
}

impl AddAssign for Amount {
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;

    fn sub(self, rhs: Amount) -> Amount {
        self.checked_sub(rhs).expect("amount underflow in sub")
    }
}

impl SubAssign for Amount {
    fn sub_assign(&mut self, rhs: Amount) {
        *self = *self - rhs;
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u128> for Amount {
    fn from(value: u128) -> Self {
        Amount(value)
    }
}

impl From<u64> for Amount {
    fn from(value: u64) -> Self {
        Amount(value as u128)
    }
}

/// A signed net payoff (gain or loss) for a party.
///
/// Payoff accounting sums credits and debits across a protocol run; a
/// compliant party's payoff must never be driven below its acceptable
/// compensation level by a deviating counterparty.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Payoff(pub i128);

impl Payoff {
    /// The zero payoff.
    pub const ZERO: Payoff = Payoff(0);

    /// Creates a payoff from a signed value.
    pub const fn new(value: i128) -> Self {
        Payoff(value)
    }

    /// Returns the raw signed value.
    pub const fn value(self) -> i128 {
        self.0
    }
}

impl Add for Payoff {
    type Output = Payoff;

    fn add(self, rhs: Payoff) -> Payoff {
        Payoff(self.0 + rhs.0)
    }
}

impl AddAssign for Payoff {
    fn add_assign(&mut self, rhs: Payoff) {
        self.0 += rhs.0;
    }
}

impl Sub for Payoff {
    type Output = Payoff;

    fn sub(self, rhs: Payoff) -> Payoff {
        Payoff(self.0 - rhs.0)
    }
}

impl Sum for Payoff {
    fn sum<I: Iterator<Item = Payoff>>(iter: I) -> Payoff {
        iter.fold(Payoff::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Payoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 0 {
            write!(f, "+{}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<Amount> for Payoff {
    fn from(amount: Amount) -> Self {
        amount.as_payoff()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amount_arithmetic() {
        let a = Amount::new(10);
        let b = Amount::new(3);
        assert_eq!(a + b, Amount::new(13));
        assert_eq!(a - b, Amount::new(7));
        assert_eq!(a.checked_sub(Amount::new(11)), None);
        assert_eq!(a.saturating_sub(Amount::new(11)), Amount::ZERO);
        assert_eq!(a.scaled(4), Amount::new(40));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn amount_sub_panics_on_underflow() {
        let _ = Amount::new(1) - Amount::new(2);
    }

    #[test]
    fn amount_sum_and_assign_ops() {
        let total: Amount = [1u128, 2, 3].into_iter().map(Amount::new).sum();
        assert_eq!(total, Amount::new(6));
        let mut a = Amount::new(5);
        a += Amount::new(2);
        a -= Amount::new(3);
        assert_eq!(a, Amount::new(4));
    }

    #[test]
    fn amount_conversions_and_display() {
        assert_eq!(Amount::from(7u64), Amount::new(7));
        assert_eq!(Amount::from(7u128), Amount::new(7));
        assert_eq!(Amount::new(7).to_string(), "7");
        assert!(Amount::ZERO.is_zero());
    }

    #[test]
    fn payoff_display_shows_the_sign() {
        assert_eq!(Payoff::new(-3).to_string(), "-3");
        assert_eq!(Payoff::new(3).to_string(), "+3");
    }

    #[test]
    fn payoff_sum_and_from_amount() {
        let total: Payoff = [Payoff::new(1), Payoff::new(-4), Payoff::new(2)].into_iter().sum();
        assert_eq!(total, Payoff::new(-1));
        assert_eq!(Payoff::from(Amount::new(9)), Payoff::new(9));
        assert_eq!(Payoff::new(5) - Payoff::new(2), Payoff::new(3));
    }
}

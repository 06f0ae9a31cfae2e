//! Property-based tests for `Amount` and `Payoff` arithmetic: checked
//! operations never wrap, saturation semantics hold, and the algebra
//! (commutativity, associativity, inverses, conversions) is consistent.

use chainsim::{Amount, Payoff};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `checked_add` agrees with u128 arithmetic and never wraps.
    #[test]
    fn checked_add_matches_u128(x in 0u128..=u128::MAX, y in 0u128..=u128::MAX) {
        let a = Amount::new(x);
        let b = Amount::new(y);
        match x.checked_add(y) {
            Some(sum) => {
                prop_assert_eq!(a.checked_add(b), Some(Amount::new(sum)));
                prop_assert_eq!(a + b, Amount::new(sum));
            }
            None => prop_assert_eq!(a.checked_add(b), None),
        }
    }

    /// Subtraction is the inverse of addition wherever the sum exists.
    #[test]
    fn sub_inverts_add(x in 0u128..1u128 << 100, y in 0u128..1u128 << 100) {
        let a = Amount::new(x);
        let b = Amount::new(y);
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!((a + b).checked_sub(a), Some(b));
    }

    /// `checked_sub` underflows to `None` exactly when the subtrahend is
    /// larger; `saturating_sub` clamps to zero in exactly those cases.
    #[test]
    fn saturation_semantics(x in 0u128..=u128::MAX, y in 0u128..=u128::MAX) {
        let a = Amount::new(x);
        let b = Amount::new(y);
        if y > x {
            prop_assert_eq!(a.checked_sub(b), None);
            prop_assert_eq!(a.saturating_sub(b), Amount::ZERO);
        } else {
            prop_assert_eq!(a.checked_sub(b), Some(Amount::new(x - y)));
            prop_assert_eq!(a.saturating_sub(b), Amount::new(x - y));
        }
    }

    /// Addition is commutative and associative (on a range with headroom).
    #[test]
    fn add_commutes_and_associates(
        x in 0u128..1u128 << 100,
        y in 0u128..1u128 << 100,
        z in 0u128..1u128 << 100,
    ) {
        let (a, b, c) = (Amount::new(x), Amount::new(y), Amount::new(z));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    /// `scaled` agrees with integer multiplication.
    #[test]
    fn scale_divide_roundtrip(x in 0u128..1u128 << 64, factor in 1u128..1u128 << 32) {
        prop_assert_eq!(Amount::new(x).scaled(factor), Amount::new(x * factor));
    }

    /// Sums of amounts match the u128 sum (within overflow-safe bounds).
    #[test]
    fn sum_matches_scalar_sum(values in 0usize..12, seed in 0u64..1_000) {
        let raw: Vec<u128> = (0..values)
            .map(|i| u128::from(seed.wrapping_mul(i as u64 + 1)) % (1 << 90))
            .collect();
        let expected: u128 = raw.iter().sum();
        let total: Amount = raw.iter().copied().map(Amount::new).sum();
        prop_assert_eq!(total, Amount::new(expected));
    }

    /// `as_payoff` embeds amounts faithfully.
    #[test]
    fn payoff_credit_debit_roundtrip(x in 0u128..1u128 << 100) {
        prop_assert_eq!(Amount::new(x).as_payoff(), Payoff::new(x as i128));
    }
}

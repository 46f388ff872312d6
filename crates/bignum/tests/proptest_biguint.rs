//! Property-based tests: `BigUint` must agree with `u128` reference
//! semantics on small values, and satisfy algebraic laws on large ones.

use proptest::prelude::*;
use wdm_bignum::BigUint;

fn big(v: u128) -> BigUint {
    BigUint::from(v)
}

/// An arbitrary multi-limb BigUint (up to 8 limbs).
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..8).prop_map(BigUint::from_limbs)
}

proptest! {
    // ---- agreement with u128 ----

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(big(a as u128) + big(b as u128), big(a as u128 + b as u128));
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(big(hi) - big(lo), big(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(big(a as u128) * big(b as u128), big(a as u128 * b as u128));
    }

    #[test]
    fn divrem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = big(a).divrem(&big(b));
        prop_assert_eq!(q, big(a / b));
        prop_assert_eq!(r, big(a % b));
    }

    #[test]
    fn shifts_match_u128(a in any::<u64>(), s in 0u64..63) {
        prop_assert_eq!(big(a as u128) << s, big((a as u128) << s));
        prop_assert_eq!(big(a as u128) >> s, big((a as u128) >> s));
    }

    #[test]
    fn cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    // ---- algebraic laws on arbitrary sizes ----

    #[test]
    fn add_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn divrem_reconstructs(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&q * &b + &r, a);
    }

    #[test]
    fn sub_then_add_roundtrips(a in arb_biguint(), b in arb_biguint()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(&(&hi - &lo) + &lo, hi);
    }

    #[test]
    fn shift_roundtrip(a in arb_biguint(), s in 0u64..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn results_are_normalized(a in arb_biguint(), b in arb_biguint()) {
        prop_assert!((&a + &b).is_normalized());
        prop_assert!((&a * &b).is_normalized());
        if !b.is_zero() {
            let (q, r) = a.divrem(&b);
            prop_assert!(q.is_normalized());
            prop_assert!(r.is_normalized());
        }
        if a >= b {
            prop_assert!((&a - &b).is_normalized());
        }
    }

    #[test]
    fn decimal_roundtrip(a in arb_biguint()) {
        let s = a.to_decimal_string();
        let back: BigUint = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pow_splits_exponents(a in 0u64..50, e1 in 0u64..8, e2 in 0u64..8) {
        let base = BigUint::from(a);
        prop_assert_eq!(base.pow(e1 + e2), base.pow(e1) * base.pow(e2));
    }

    #[test]
    fn bit_len_bounds_value(a in arb_biguint()) {
        prop_assume!(!a.is_zero());
        let bl = a.bit_len();
        prop_assert!(a >= (BigUint::one() << (bl - 1)));
        prop_assert!(a < (BigUint::one() << bl));
    }

    // ---- algorithms ----

    #[test]
    fn gcd_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        fn ugcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        }
        prop_assert_eq!(big(a as u128).gcd(&big(b as u128)), big(ugcd(a as u128, b as u128)));
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.is_multiple_of(&g));
            prop_assert!(b.is_multiple_of(&g));
        }
    }

    #[test]
    fn gcd_commutative_and_scales(a in any::<u64>(), b in any::<u64>(), f in 1u64..1000) {
        let (ba, bb) = (big(a as u128), big(b as u128));
        prop_assert_eq!(ba.gcd(&bb), bb.gcd(&ba));
        let fa = ba.mul_u64(f);
        let fb = bb.mul_u64(f);
        prop_assert_eq!(fa.gcd(&fb), ba.gcd(&bb).mul_u64(f));
    }

    #[test]
    fn isqrt_is_floor_sqrt(a in arb_biguint()) {
        let s = a.isqrt();
        prop_assert!(&s * &s <= a);
        let s1 = s + 1u64;
        prop_assert!(&s1 * &s1 > a);
    }

    #[test]
    fn bytes_roundtrip_any(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }
}

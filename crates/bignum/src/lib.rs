//! # wdm-bignum — arbitrary-precision integers
//!
//! A from-scratch arbitrary-precision integer library used as the numeric
//! substrate for the exact multicast-capacity formulas of
//! *Nonblocking WDM Multicast Switching Networks* (Yang, Wang, Qiao).
//!
//! The capacities in the paper grow astronomically — e.g. the MAW-model
//! capacity of an `N×N` `k`-wavelength switch is `[P(Nk,k)]^N`, which for
//! `N = 64, k = 8` has thousands of decimal digits — so fixed-width
//! integers are not an option and exactness matters (the whole point of
//! Lemmas 1–3 is an exact count, verified against brute force).
//!
//! ## Layout
//!
//! * [`BigUint`] — unsigned magnitude, little-endian `u64` limbs. Every
//!   capacity formula is unsigned, so there is no signed type.
//!
//! ## Algorithms
//!
//! * addition/subtraction: limb-wise with carry/borrow propagation;
//! * multiplication: schoolbook below a threshold limb count, Karatsuba
//!   above it;
//! * division: Knuth's Algorithm D with normalization;
//! * exponentiation: binary (square-and-multiply);
//! * radix conversion: chunked (9 decimal digits at a time).
//!
//! All public operations are also available through the standard operator
//! traits (`+`, `-`, `*`, `/`, `%`, `<<`, `>>`, comparisons) for both owned
//! and borrowed operands.
//!
//! ## Invariant
//!
//! A `BigUint` never stores trailing zero limbs; zero is the empty limb
//! vector. Every constructor and operation restores this normal form, and
//! the property-based test suite checks it after each operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;

pub use biguint::{BigUint, ParseBigUintError};

/// Convenience: compute `base^exp` for primitive inputs as a [`BigUint`].
///
/// ```
/// use wdm_bignum::upow;
/// assert_eq!(upow(3, 4).to_string(), "81");
/// ```
pub fn upow(base: u64, exp: u64) -> BigUint {
    BigUint::from(base).pow(exp)
}

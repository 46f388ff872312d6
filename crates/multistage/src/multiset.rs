//! Destination multisets — Eqs. (2)–(5) of the paper.
//!
//! For middle-stage switch `j`, the multiset `M_j` over the output-switch
//! set `O = {0, …, r−1}` records how many multicast connections currently
//! go from `j` to each output switch `p` — equivalently, how many of the
//! `k` wavelengths on the link `j → p` are busy. The paper's analysis of
//! the MAW-dominant construction (Lemma 5) rests on three operations:
//!
//! * **intersection** (Eq. 3): element-wise *minimum* of multiplicities —
//!   an output switch is jointly saturated for a set of middle switches
//!   iff it is saturated in each;
//! * **cardinality** (Eq. 4): the number of elements at full multiplicity
//!   `k` — exactly the output switches *unreachable* through the switch;
//! * **null** (Eq. 5): `M_j = ∅ ⇔ |M_j| = 0` — no output switch blocked.

use core::fmt;
use serde::{Deserialize, Serialize};

/// The multiset `M_j` of Eq. (2): multiplicities `0..=k` per output
/// switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DestinationMultiset {
    k: u32,
    counts: Vec<u32>,
}

impl DestinationMultiset {
    /// Build from explicit multiplicities (each must be ≤ k).
    pub fn from_counts(k: u32, counts: Vec<u32>) -> Self {
        assert!(counts.iter().all(|&c| c <= k), "multiplicity exceeds k");
        DestinationMultiset { k, counts }
    }

    /// Number of output switches `r`.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` iff `r == 0` (no output switches tracked).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The wavelength bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Multiplicity of output switch `p`.
    pub fn multiplicity(&self, p: u32) -> u32 {
        self.counts[p as usize]
    }

    /// `true` iff all `k` wavelengths toward `p` are busy.
    pub fn is_saturated(&self, p: u32) -> bool {
        self.counts[p as usize] == self.k
    }

    /// Eq. (4): the number of saturated elements.
    pub fn cardinality(&self) -> usize {
        self.counts.iter().filter(|&&c| c == self.k).count()
    }

    /// Eq. (5): a multiset is *null* iff it has no saturated element —
    /// i.e. the middle switch can still reach every output switch.
    pub fn is_null(&self) -> bool {
        self.cardinality() == 0
    }

    /// Eq. (3): element-wise minimum.
    ///
    /// Panics if the domains or wavelength bounds differ.
    pub fn intersection(&self, other: &DestinationMultiset) -> DestinationMultiset {
        assert_eq!(self.k, other.k, "wavelength bounds differ");
        assert_eq!(self.counts.len(), other.counts.len(), "domains differ");
        DestinationMultiset {
            k: self.k,
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(&a, &b)| a.min(b))
                .collect(),
        }
    }

    /// Total number of connections through the middle switch
    /// (`Σ_p multiplicity(p)`).
    pub fn total_connections(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Output switches *not* saturated — those a new connection could
    /// still be routed toward.
    pub fn reachable(&self) -> impl Iterator<Item = u32> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < self.k)
            .map(|(p, _)| p as u32)
    }
}

impl fmt::Display for DestinationMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (p, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{p}^{c}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_counts_only_saturated() {
        // Eq. (4): elements below multiplicity k contribute nothing.
        let m = DestinationMultiset::from_counts(2, vec![2, 1, 0, 2]);
        assert_eq!(m.cardinality(), 2);
        assert!(!m.is_null());
        let m = DestinationMultiset::from_counts(2, vec![1, 1, 1]);
        assert_eq!(m.cardinality(), 0);
        assert!(m.is_null());
    }

    #[test]
    fn intersection_is_elementwise_min() {
        let a = DestinationMultiset::from_counts(3, vec![3, 1, 2, 0]);
        let b = DestinationMultiset::from_counts(3, vec![2, 3, 3, 1]);
        let i = a.intersection(&b);
        assert_eq!(i.multiplicity(0), 2);
        assert_eq!(i.multiplicity(1), 1);
        assert_eq!(i.multiplicity(2), 2);
        assert_eq!(i.multiplicity(3), 0);
        // Saturated in the intersection ⇔ saturated in both.
        assert_eq!(i.cardinality(), 0);
        let j = a.intersection(&a);
        assert_eq!(j.cardinality(), 1);
    }

    #[test]
    fn intersection_laws() {
        let a = DestinationMultiset::from_counts(2, vec![2, 0, 1]);
        let b = DestinationMultiset::from_counts(2, vec![1, 2, 2]);
        let c = DestinationMultiset::from_counts(2, vec![2, 2, 0]);
        // Commutative, associative, idempotent.
        assert_eq!(a.intersection(&b), b.intersection(&a));
        assert_eq!(
            a.intersection(&b).intersection(&c),
            a.intersection(&b.intersection(&c))
        );
        assert_eq!(a.intersection(&a), a);
    }

    #[test]
    fn lemma4_emptiness_analogue() {
        // A connection to all of {0,1,2} can pass through middle switches
        // {j1, j2} iff no output switch is saturated in both. k = 1 makes
        // multiplicities boolean, recovering the classic set statement.
        let j1 = DestinationMultiset::from_counts(1, vec![1, 0, 1]);
        let j2 = DestinationMultiset::from_counts(1, vec![0, 1, 0]);
        assert!(j1.intersection(&j2).is_null()); // jointly cover everything
        let j3 = DestinationMultiset::from_counts(1, vec![1, 1, 0]);
        assert!(!j1.intersection(&j3).is_null()); // 0 blocked in both
    }

    #[test]
    fn reachable_iterates_unsaturated() {
        let m = DestinationMultiset::from_counts(2, vec![2, 1, 0]);
        let r: Vec<u32> = m.reachable().collect();
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn display_shows_multiplicities() {
        let m = DestinationMultiset::from_counts(3, vec![0, 2, 0, 3]);
        assert_eq!(m.to_string(), "{1^2, 3^3}");
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn from_counts_validates() {
        DestinationMultiset::from_counts(1, vec![2]);
    }
}

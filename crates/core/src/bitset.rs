//! Packed `u64` occupancy words.
//!
//! The paper's routing arguments (Theorems 1–2) are free-set cardinality
//! arguments: "how many middle switches still have wavelength `w` free
//! towards module `i`?" This module gives every layer the same packed
//! representation for such sets, so a routing probe is a handful of
//! AND/popcount instructions instead of a `Vec<bool>` walk.
//!
//! Three pieces:
//!
//! * free functions over `&[u64]` word slices ([`test_bit`], [`set_bit`],
//!   [`clear_bit`], [`count_ones`], [`ones`]) — for callers that keep
//!   their own word vectors (e.g. per-module free-middle masks);
//! * [`BitRows`], a rectangular table of rows × bits packed row-major —
//!   for per-port wavelength occupancy where every port owns
//!   `ceil(k/64)` words;
//! * [`EndpointMap`], one slot per `(port, λ)` endpoint.

use crate::{Endpoint, NetworkConfig};
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of `u64` words needed to hold `bits` bits.
pub const fn words_for(bits: u32) -> usize {
    bits.div_ceil(64) as usize
}

/// Packed words with the first `bits` bits set and the tail clear.
pub fn filled_words(bits: u32) -> Vec<u64> {
    let mut words = vec![u64::MAX; words_for(bits)];
    let tail = bits % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << tail) - 1;
        }
    }
    words
}

/// `true` iff bit `i` is set in the packed words.
#[inline]
pub fn test_bit(words: &[u64], i: u32) -> bool {
    words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
}

/// Set bit `i`.
#[inline]
pub fn set_bit(words: &mut [u64], i: u32) {
    words[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// Clear bit `i`.
#[inline]
pub fn clear_bit(words: &mut [u64], i: u32) {
    words[(i / 64) as usize] &= !(1u64 << (i % 64));
}

/// Population count across all words.
#[inline]
pub fn count_ones(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Iterate the indices of set bits in ascending order.
pub fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Iterator over set-bit indices of a packed word slice.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u32 * 64 + bit)
    }
}

/// A rectangular bitset: `rows` rows of `bits_per_row` bits, packed
/// row-major so each row is a contiguous `&[u64]` mask.
///
/// ```
/// use wdm_core::bitset::BitRows;
/// let mut t = BitRows::new(4, 70);
/// t.set(2, 65);
/// assert!(t.get(2, 65));
/// assert_eq!(t.row(2).len(), 2); // 70 bits ⇒ 2 words per row
/// assert_eq!(t.count_row(2), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRows {
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// All-zero table of `rows` rows × `bits_per_row` bits.
    pub fn new(rows: u32, bits_per_row: u32) -> Self {
        let words_per_row = words_for(bits_per_row);
        BitRows {
            words_per_row,
            words: vec![0; words_per_row * rows as usize],
        }
    }

    /// Table with every valid bit set (tail bits of each row clear).
    pub fn filled(rows: u32, bits_per_row: u32) -> Self {
        let row = filled_words(bits_per_row);
        BitRows {
            words_per_row: row.len(),
            words: row
                .iter()
                .cycle()
                .take(row.len() * rows as usize)
                .copied()
                .collect(),
        }
    }

    /// Words per row (`ceil(bits_per_row / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed mask of one row.
    #[inline]
    pub fn row(&self, row: u32) -> &[u64] {
        let start = row as usize * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    #[inline]
    fn row_mut(&mut self, row: u32) -> &mut [u64] {
        let start = row as usize * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// Bit `bit` of row `row`.
    #[inline]
    pub fn get(&self, row: u32, bit: u32) -> bool {
        test_bit(self.row(row), bit)
    }

    /// Set bit `bit` of row `row`.
    #[inline]
    pub fn set(&mut self, row: u32, bit: u32) {
        set_bit(self.row_mut(row), bit);
    }

    /// Clear bit `bit` of row `row`.
    #[inline]
    pub fn clear(&mut self, row: u32, bit: u32) {
        clear_bit(self.row_mut(row), bit);
    }

    /// Popcount of one row.
    #[inline]
    pub fn count_row(&self, row: u32) -> u32 {
        count_ones(self.row(row))
    }

    /// Popcount of the whole table.
    pub fn count(&self) -> u32 {
        count_ones(&self.words)
    }

    /// `true` iff every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A dense map from the endpoints of one `N×k` frame to `V`: `N·k` slots
/// indexed by [`Endpoint::flat_index`] (`port·k + λ`), so lookup, insert
/// and remove are one index computation and no allocation. It offers the
/// `BTreeMap<Endpoint, V>` subset the per-request paths use and iterates
/// in `(port, λ)` order — `Endpoint`'s derived `Ord`, so that map's order.
/// Endpoints outside the frame are never stored: lookups return `None`,
/// `insert` hands the value back.
///
/// ```
/// use wdm_core::{bitset::EndpointMap, Endpoint, NetworkConfig};
/// let mut m = EndpointMap::new(NetworkConfig::new(4, 2));
/// m.insert(Endpoint::new(3, 0), "b");
/// m.insert(Endpoint::new(0, 1), "a");
/// assert!(m.values().eq(&["a", "b"]));
/// assert_eq!(m.insert(Endpoint::new(0, 2), "c"), Some("c")); // k = 2: out of frame
/// ```
#[derive(Clone)]
pub struct EndpointMap<V> {
    net: NetworkConfig,
    slots: Vec<Option<(Endpoint, V)>>,
    len: usize,
}

/// Iterator over an [`EndpointMap`]'s entries in `(port, λ)` order.
pub type EndpointEntries<'a, V> = core::iter::Map<
    core::iter::Flatten<core::slice::Iter<'a, Option<(Endpoint, V)>>>,
    fn(&'a (Endpoint, V)) -> (&'a Endpoint, &'a V),
>;

impl<V> EndpointMap<V> {
    /// Empty map over the endpoints of `net`.
    pub fn new(net: NetworkConfig) -> Self {
        let slots = (0..net.endpoints_per_side()).map(|_| None).collect();
        EndpointMap { net, slots, len: 0 }
    }

    fn slot(net: NetworkConfig, ep: &Endpoint) -> Option<usize> {
        net.contains(*ep).then(|| ep.flat_index(net.wavelengths))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `ep`.
    pub fn get(&self, ep: &Endpoint) -> Option<&V> {
        let i = Self::slot(self.net, ep)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// The value stored under `ep`, mutably.
    pub fn get_mut(&mut self, ep: &Endpoint) -> Option<&mut V> {
        let i = Self::slot(self.net, ep)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Store `v` under `ep`, returning the value it replaces.
    pub fn insert(&mut self, ep: Endpoint, v: V) -> Option<V> {
        let Some(i) = Self::slot(self.net, &ep) else {
            return Some(v);
        };
        let old = self.slots[i].replace((ep, v)).map(|(_, old)| old);
        self.len += usize::from(old.is_none());
        old
    }

    /// Take the value stored under `ep` out of the map.
    pub fn remove(&mut self, ep: &Endpoint) -> Option<V> {
        let (_, v) = self.slots[Self::slot(self.net, ep)?].take()?;
        self.len -= 1;
        Some(v)
    }

    /// Entries in `(port, λ)` order.
    pub fn iter(&self) -> EndpointEntries<'_, V> {
        self.slots.iter().flatten().map(|(ep, v)| (ep, v))
    }

    /// Values in `(port, λ)` order of their keys.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<V> core::ops::Index<&Endpoint> for EndpointMap<V> {
    type Output = V;
    fn index(&self, ep: &Endpoint) -> &V {
        self.get(ep).expect("no entry for endpoint")
    }
}

impl<'a, V> IntoIterator for &'a EndpointMap<V> {
    type Item = (&'a Endpoint, &'a V);
    type IntoIter = EndpointEntries<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V: fmt::Debug> fmt::Debug for EndpointMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A [`BitRows`] whose words are [`AtomicU64`], for tables mutated by
/// several admission threads at once.
///
/// Single-bit updates use `fetch_or` / `fetch_and` (they cannot lose
/// concurrent updates to sibling bits of the same word); callers that
/// must *claim* a bit exclusively — exactly one winner among racing
/// threads — use [`AtomicBitRows::try_set`]. Reads are per-word atomic
/// loads: a multi-word row snapshot is not a consistent cut on its own,
/// which is why the concurrent backend validates every probe with a CAS
/// before relying on it.
#[derive(Debug)]
pub struct AtomicBitRows {
    words_per_row: usize,
    words: Vec<AtomicU64>,
}

impl AtomicBitRows {
    /// All-zero table of `rows` rows × `bits_per_row` bits.
    pub fn new(rows: u32, bits_per_row: u32) -> Self {
        let words_per_row = words_for(bits_per_row);
        AtomicBitRows {
            words_per_row,
            words: (0..words_per_row * rows as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Table with every valid bit set (tail bits of each row clear).
    pub fn filled(rows: u32, bits_per_row: u32) -> Self {
        let row = filled_words(bits_per_row);
        AtomicBitRows {
            words_per_row: row.len(),
            words: row
                .iter()
                .cycle()
                .take(row.len() * rows as usize)
                .map(|&w| AtomicU64::new(w))
                .collect(),
        }
    }

    /// Words per row (`ceil(bits_per_row / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The atomic words of one row.
    #[inline]
    pub fn row(&self, row: u32) -> &[AtomicU64] {
        let start = row as usize * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Snapshot of one row as plain words (per-word `Acquire` loads;
    /// not a consistent multi-word cut under concurrent writers).
    pub fn load_row(&self, row: u32) -> Vec<u64> {
        self.row(row)
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect()
    }

    /// Bit `bit` of row `row` (`Acquire` load).
    #[inline]
    pub fn get(&self, row: u32, bit: u32) -> bool {
        let w = &self.row(row)[(bit / 64) as usize];
        w.load(Ordering::Acquire) & (1u64 << (bit % 64)) != 0
    }

    /// Set bit `bit` of row `row` (`AcqRel` RMW). Returns the prior
    /// value of the bit.
    #[inline]
    pub fn set(&self, row: u32, bit: u32) -> bool {
        let w = &self.row(row)[(bit / 64) as usize];
        w.fetch_or(1u64 << (bit % 64), Ordering::AcqRel) & (1u64 << (bit % 64)) != 0
    }

    /// Clear bit `bit` of row `row` (`AcqRel` RMW). Returns the prior
    /// value of the bit.
    #[inline]
    pub fn clear(&self, row: u32, bit: u32) -> bool {
        let w = &self.row(row)[(bit / 64) as usize];
        w.fetch_and(!(1u64 << (bit % 64)), Ordering::AcqRel) & (1u64 << (bit % 64)) != 0
    }

    /// Atomically claim bit `bit` of row `row`: set it iff it was
    /// clear. Returns `true` on success — among racing claimants of the
    /// same bit exactly one sees `true`.
    #[inline]
    pub fn try_set(&self, row: u32, bit: u32) -> bool {
        let w = &self.row(row)[(bit / 64) as usize];
        let mask = 1u64 << (bit % 64);
        w.fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    /// Popcount of one row (per-word loads).
    #[inline]
    pub fn count_row(&self, row: u32) -> u32 {
        self.row(row)
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones())
            .sum()
    }

    /// Popcount of the whole table.
    pub fn count(&self) -> u32 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones())
            .sum()
    }

    /// Copy the whole table into a plain [`BitRows`] (per-word loads;
    /// take a quiescent epoch first for a consistent cut).
    pub fn to_bitrows(&self) -> BitRows {
        BitRows {
            words_per_row: self.words_per_row,
            words: self
                .words
                .iter()
                .map(|w| w.load(Ordering::Acquire))
                .collect(),
        }
    }

    /// Build an atomic table from a plain snapshot.
    pub fn from_bitrows(rows: &BitRows) -> Self {
        AtomicBitRows {
            words_per_row: rows.words_per_row,
            words: rows.words.iter().map(|&w| AtomicU64::new(w)).collect(),
        }
    }
}

/// `true` iff bit `i` is set in a packed slice of atomic words
/// (`Acquire` load).
#[inline]
pub fn test_bit_atomic(words: &[AtomicU64], i: u32) -> bool {
    words[(i / 64) as usize].load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
}

/// Snapshot a slice of atomic words into plain words (per-word
/// `Acquire` loads).
pub fn load_words(words: &[AtomicU64]) -> Vec<u64> {
    words.iter().map(|w| w.load(Ordering::Acquire)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_helpers_roundtrip() {
        let mut w = vec![0u64; words_for(130)];
        assert_eq!(w.len(), 3);
        for i in [0, 63, 64, 127, 129] {
            assert!(!test_bit(&w, i));
            set_bit(&mut w, i);
            assert!(test_bit(&w, i));
        }
        assert_eq!(count_ones(&w), 5);
        assert_eq!(ones(&w).collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
        clear_bit(&mut w, 64);
        assert!(!test_bit(&w, 64));
        assert_eq!(ones(&w).collect::<Vec<_>>(), vec![0, 63, 127, 129]);
    }

    #[test]
    fn ones_on_empty_and_full_words() {
        assert_eq!(ones(&[]).count(), 0);
        assert_eq!(ones(&[0, 0]).count(), 0);
        let full = vec![u64::MAX; 2];
        assert_eq!(ones(&full).count(), 128);
        assert_eq!(ones(&full).next(), Some(0));
        assert_eq!(ones(&full).last(), Some(127));
    }

    #[test]
    fn filled_clears_tail_bits() {
        assert_eq!(filled_words(0), Vec::<u64>::new());
        assert_eq!(filled_words(64), vec![u64::MAX]);
        assert_eq!(filled_words(3), vec![0b111]);
        assert_eq!(filled_words(65), vec![u64::MAX, 1]);
        let t = BitRows::filled(2, 65);
        assert_eq!(t.count_row(0), 65);
        assert_eq!(t.count(), 130);
        assert!(t.get(1, 64));
        assert!(!t.get(1, 65));
    }

    #[test]
    fn atomic_bitrows_mirror_plain_semantics() {
        let t = AtomicBitRows::new(4, 70);
        assert!(!t.set(2, 65));
        assert!(t.get(2, 65));
        assert_eq!(t.count_row(2), 1);
        assert_eq!(t.count(), 1);
        assert!(t.set(2, 65)); // already set
        assert!(t.clear(2, 65));
        assert!(!t.clear(2, 65)); // already clear
        assert_eq!(t.count(), 0);

        let f = AtomicBitRows::filled(2, 65);
        assert_eq!(f.count_row(0), 65);
        assert!(f.get(1, 64));
        assert!(!f.get(1, 65));
        assert_eq!(f.to_bitrows(), BitRows::filled(2, 65));

        let mut plain = BitRows::new(3, 10);
        plain.set(1, 7);
        let back = AtomicBitRows::from_bitrows(&plain);
        assert!(back.get(1, 7));
        assert_eq!(back.to_bitrows(), plain);
        assert_eq!(back.words_per_row(), plain.words_per_row());
    }

    #[test]
    fn atomic_try_set_claims_exclusively() {
        let t = AtomicBitRows::new(1, 64);
        assert!(t.try_set(0, 9));
        assert!(!t.try_set(0, 9));
        assert!(t.get(0, 9));
        assert!(test_bit_atomic(t.row(0), 9));
        assert_eq!(load_words(t.row(0)), vec![1u64 << 9]);
        assert_eq!(t.load_row(0), vec![1u64 << 9]);
        // A claim on a sibling bit of the same word still succeeds.
        assert!(t.try_set(0, 10));
    }

    #[test]
    fn atomic_try_set_race_has_one_winner() {
        use std::sync::Arc;
        let t = Arc::new(AtomicBitRows::new(1, 64));
        let wins: usize = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.try_set(0, 3) as usize)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(wins, 1);
    }

    #[test]
    fn bitrows_rows_are_independent() {
        let mut t = BitRows::new(3, 65);
        t.set(0, 64);
        t.set(1, 0);
        assert!(t.get(0, 64));
        assert!(!t.get(1, 64));
        assert!(t.get(1, 0));
        assert_eq!(t.count_row(0), 1);
        assert_eq!(t.count(), 2);
        t.clear(0, 64);
        assert!(!t.is_zero());
        t.clear(1, 0);
        assert!(t.is_zero());
    }
}

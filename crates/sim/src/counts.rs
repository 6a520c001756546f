//! Measurement outcome histograms.
//!
//! [`Counts`] mirrors the Qiskit result format: a histogram keyed by
//! bitstrings in *little-endian display order* (qubit 0 is the right-most
//! character), which is the convention the paper's figures use.

use std::collections::HashMap;
use std::fmt;
use vaqem_mathkit::stats;

/// A histogram of measured bitstrings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_qubits: usize,
    map: HashMap<String, u64>,
}

impl Counts {
    /// Creates an empty histogram for `num_qubits` measured qubits.
    pub fn new(num_qubits: usize) -> Self {
        Counts {
            num_qubits,
            map: HashMap::new(),
        }
    }

    /// Number of measured qubits per outcome.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Records one observation of basis state `index` (qubit 0 = LSB).
    pub fn record_index(&mut self, index: usize) {
        let key = index_to_bitstring(index, self.num_qubits);
        *self.map.entry(key).or_insert(0) += 1;
    }

    /// Records one observation of an explicit bitstring.
    ///
    /// # Panics
    ///
    /// Panics if the bitstring length disagrees with `num_qubits`.
    pub fn record(&mut self, bitstring: &str) {
        assert_eq!(
            bitstring.len(),
            self.num_qubits,
            "bitstring length mismatch"
        );
        *self.map.entry(bitstring.to_string()).or_insert(0) += 1;
    }

    /// Adds `n` observations of basis state `index`.
    pub fn record_index_n(&mut self, index: usize, n: u64) {
        let key = index_to_bitstring(index, self.num_qubits);
        *self.map.entry(key).or_insert(0) += n;
    }

    /// Builds a histogram from per-basis-state tallies (`hist[i]` = shots
    /// observing index `i`). Shot loops accumulate into a `Vec<u64>` and
    /// convert once here, instead of allocating and hashing a bitstring per
    /// shot.
    pub fn from_index_histogram(num_qubits: usize, hist: &[u64]) -> Self {
        let mut counts = Counts::new(num_qubits);
        counts.map.reserve(hist.iter().filter(|&&n| n > 0).count());
        for (i, &n) in hist.iter().enumerate() {
            if n > 0 {
                counts.map.insert(index_to_bitstring(i, num_qubits), n);
            }
        }
        counts
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// Count for a bitstring (0 when absent).
    pub fn get(&self, bitstring: &str) -> u64 {
        self.map.get(bitstring).copied().unwrap_or(0)
    }

    /// Empirical probability of a bitstring.
    pub fn probability(&self, bitstring: &str) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(bitstring) as f64 / t as f64
        }
    }

    /// Normalized probability distribution.
    pub fn to_probabilities(&self) -> HashMap<String, f64> {
        stats::normalize_counts(&self.map)
    }

    /// Hellinger fidelity against another histogram (the paper's circuit
    /// fidelity metric, Fig. 6).
    pub fn hellinger_fidelity(&self, other: &Counts) -> f64 {
        stats::hellinger_fidelity(&self.to_probabilities(), &other.to_probabilities())
    }

    /// Expectation of a ±1 observable that assigns eigenvalue
    /// `(-1)^(popcount(bits & mask))` — i.e. a Z-type Pauli on the qubits in
    /// `mask` — directly from the counts.
    pub fn z_expectation(&self, mask: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (bits, &n) in &self.map {
            let index = bitstring_to_index(bits);
            let parity = (index & mask).count_ones() % 2;
            let sign = if parity == 0 { 1.0 } else { -1.0 };
            acc += sign * n as f64;
        }
        acc / t as f64
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.num_qubits, other.num_qubits, "width mismatch");
        for (k, &v) in &other.map {
            *self.map.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(bitstring, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The most frequent outcome, if any.
    pub fn most_frequent(&self) -> Option<(&str, u64)> {
        self.map
            .iter()
            .max_by_key(|(k, &v)| (v, std::cmp::Reverse(k.as_str())))
            .map(|(k, &v)| (k.as_str(), v))
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort();
        write!(f, "{{")?;
        for (i, (k, v)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Converts a basis index to display bitstring (qubit 0 right-most).
pub fn index_to_bitstring(index: usize, num_qubits: usize) -> String {
    (0..num_qubits)
        .rev()
        .map(|q| if index & (1 << q) != 0 { '1' } else { '0' })
        .collect()
}

/// Converts a display bitstring back to a basis index.
///
/// # Panics
///
/// Panics on characters other than '0'/'1'.
pub fn bitstring_to_index(bits: &str) -> usize {
    bits.chars().fold(0, |acc, c| match c {
        '0' => acc << 1,
        '1' => (acc << 1) | 1,
        other => panic!("invalid bit character {other:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_round_trip() {
        for idx in 0..16 {
            let s = index_to_bitstring(idx, 4);
            assert_eq!(bitstring_to_index(&s), idx);
        }
        assert_eq!(index_to_bitstring(0b01, 2), "01");
        assert_eq!(index_to_bitstring(0b10, 2), "10");
    }

    #[test]
    fn record_and_total() {
        let mut c = Counts::new(2);
        c.record_index(0);
        c.record_index(3);
        c.record_index(3);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get("11"), 2);
        assert_eq!(c.get("00"), 1);
        assert_eq!(c.get("01"), 0);
        assert!((c.probability("11") - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn z_expectation_of_bell_counts() {
        // Perfect |00>+|11> counts: <Z0 Z1> = +1, <Z0> = 0.
        let mut c = Counts::new(2);
        c.record_index_n(0b00, 500);
        c.record_index_n(0b11, 500);
        assert!((c.z_expectation(0b11) - 1.0).abs() < 1e-12);
        assert!(c.z_expectation(0b01).abs() < 1e-12);
    }

    #[test]
    fn hellinger_of_identical_counts_is_one() {
        let mut c = Counts::new(1);
        c.record_index_n(0, 700);
        c.record_index_n(1, 300);
        assert!((c.hellinger_fidelity(&c.clone()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_index_histogram_matches_per_shot_recording() {
        let hist = [3u64, 0, 5, 1];
        let fast = Counts::from_index_histogram(2, &hist);
        let mut slow = Counts::new(2);
        for (i, &n) in hist.iter().enumerate() {
            for _ in 0..n {
                slow.record_index(i);
            }
        }
        assert_eq!(fast, slow);
        assert_eq!(fast.total(), 9);
        assert_eq!(fast.get("01"), 0, "zero bins are omitted");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(1);
        a.record_index(0);
        let mut b = Counts::new(1);
        b.record_index(0);
        b.record_index(1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.get("0"), 2);
    }

    #[test]
    fn most_frequent() {
        let mut c = Counts::new(2);
        c.record_index_n(1, 10);
        c.record_index_n(2, 30);
        assert_eq!(c.most_frequent(), Some(("10", 30)));
        assert_eq!(Counts::new(2).most_frequent(), None);
    }

    #[test]
    fn display_is_sorted_and_nonempty() {
        let mut c = Counts::new(1);
        c.record_index(1);
        c.record_index(0);
        assert_eq!(c.to_string(), "{0: 1, 1: 1}");
    }
}

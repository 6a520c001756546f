//! Measurement outcome histograms.
//!
//! [`Counts`] is the per-basis-state tally every engine fills: one `u64`
//! per basis index (qubit 0 = least-significant bit). Statistics read the
//! tallies in index order, so a histogram's expectation values and
//! Hellinger fidelity are the same in every process. Bitstrings exist only
//! at the edge ([`Counts::get`], [`Counts::probability`] and `Display`), in
//! the Qiskit result format's *little-endian display order* (qubit 0 is the
//! right-most character), which is the convention the paper's figures use.

use std::fmt;
use vaqem_mathkit::stats;

/// A histogram of measured basis states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    num_qubits: usize,
    /// `tallies[i]` = shots that observed basis state `i`; `2^n` entries.
    tallies: Vec<u64>,
}

impl Counts {
    /// Creates an empty histogram for `num_qubits` measured qubits.
    pub fn new(num_qubits: usize) -> Self {
        Counts::from_index_histogram(num_qubits, vec![0; 1 << num_qubits])
    }

    /// Takes per-basis-state tallies (`hist[i]` = shots observing index
    /// `i`) as a histogram, without copying them.
    ///
    /// # Panics
    ///
    /// Panics unless `hist` has `2^num_qubits` entries.
    pub fn from_index_histogram(num_qubits: usize, hist: Vec<u64>) -> Self {
        assert_eq!(hist.len(), 1 << num_qubits, "histogram length mismatch");
        Counts {
            num_qubits,
            tallies: hist,
        }
    }

    /// Number of measured qubits per outcome.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The per-basis-state tallies, in index order.
    pub fn tallies(&self) -> &[u64] {
        &self.tallies
    }

    /// Records one observation of basis state `index` (qubit 0 = LSB).
    pub fn record_index(&mut self, index: usize) {
        self.tallies[index] += 1;
    }

    /// Adds `n` observations of basis state `index`.
    pub fn record_index_n(&mut self, index: usize, n: u64) {
        self.tallies[index] += n;
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.tallies.iter().sum()
    }

    /// Count for a bitstring.
    ///
    /// # Panics
    ///
    /// Panics if the bitstring length disagrees with `num_qubits` or it
    /// holds characters other than '0'/'1'.
    pub fn get(&self, bitstring: &str) -> u64 {
        assert_eq!(
            bitstring.len(),
            self.num_qubits,
            "bitstring length mismatch"
        );
        self.tallies[bitstring_to_index(bitstring)]
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

    /// Normalized distribution over basis states (all zero when empty).
    pub fn probabilities(&self) -> Vec<f64> {
        let t = self.total().max(1) as f64;
        self.tallies.iter().map(|&n| n as f64 / t).collect()
    }

    /// Hellinger fidelity against another histogram (the paper's circuit
    /// fidelity metric, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn hellinger_fidelity(&self, other: &Counts) -> f64 {
        stats::hellinger_fidelity(&self.probabilities(), &other.probabilities())
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
        for (index, &n) in self.tallies.iter().enumerate() {
            let sign = if (index & mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
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
        for (mine, &theirs) in self.tallies.iter_mut().zip(&other.tallies) {
            *mine += theirs;
        }
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut sep = "";
        for (i, &n) in self.tallies.iter().enumerate().filter(|(_, &n)| n > 0) {
            write!(f, "{sep}{}: {n}", index_to_bitstring(i, self.num_qubits))?;
            sep = ", ";
        }
        write!(f, "}}")
    }
}

/// Converts a basis index to display bitstring (qubit 0 right-most).
fn index_to_bitstring(index: usize, num_qubits: usize) -> String {
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
fn bitstring_to_index(bits: &str) -> usize {
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
    #[should_panic(expected = "bitstring length mismatch")]
    fn get_rejects_a_bitstring_of_the_wrong_length() {
        let mut c = Counts::new(2);
        c.record_index(1);
        let _ = c.get("1");
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
    fn probabilities_sum_to_one() {
        let mut c = Counts::new(2);
        c.record_index_n(0b00, 750);
        c.record_index_n(0b11, 250);
        let p = c.probabilities();
        assert_eq!(p, vec![0.75, 0.0, 0.0, 0.25]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_of_an_empty_histogram_are_zero() {
        assert_eq!(Counts::new(2).probabilities(), vec![0.0; 4]);
    }

    #[test]
    fn hellinger_of_identical_counts_is_one() {
        let mut c = Counts::new(1);
        c.record_index_n(0, 700);
        c.record_index_n(1, 300);
        assert!((c.hellinger_fidelity(&c.clone()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_sums_in_index_order_however_the_shots_arrived() {
        // Two 6-qubit histograms with many populated outcomes, so a sum
        // taken in any other order would round differently.
        let shots_a: Vec<usize> = (0..4000u64)
            .map(|s| (s.wrapping_mul(2_654_435_761) % 61) as usize)
            .collect();
        let shots_b: Vec<usize> = (0..3000u64)
            .map(|s| (s.wrapping_mul(40_503) % 64) as usize)
            .collect();
        let record = |shots: &mut dyn Iterator<Item = usize>| {
            let mut c = Counts::new(6);
            shots.for_each(|i| c.record_index(i));
            c
        };
        let a = record(&mut shots_a.iter().copied());
        let a_reversed = record(&mut shots_a.iter().rev().copied());
        let mut a_merged = record(&mut shots_a[..1234].iter().copied());
        a_merged.merge(&record(&mut shots_a[1234..].iter().copied()));
        let b = record(&mut shots_b.iter().copied());

        let (pa, pb) = (a.probabilities(), b.probabilities());
        let mut bc = 0.0;
        for i in 0..64 {
            if pa[i] > 0.0 && pb[i] > 0.0 {
                bc += (pa[i] * pb[i]).sqrt();
            }
        }
        let expected = bc.min(1.0) * bc.min(1.0);
        for lhs in [&a, &a_reversed, &a_merged] {
            assert_eq!(lhs.hellinger_fidelity(&b).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn from_index_histogram_matches_per_shot_recording() {
        let hist = [3u64, 0, 5, 1];
        let fast = Counts::from_index_histogram(2, hist.to_vec());
        let mut slow = Counts::new(2);
        for (i, &n) in hist.iter().enumerate() {
            for _ in 0..n {
                slow.record_index(i);
            }
        }
        assert_eq!(fast, slow);
        assert_eq!(fast.total(), 9);
        assert_eq!(fast.get("01"), 0);
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
    fn display_is_sorted_and_nonempty() {
        let mut c = Counts::new(1);
        c.record_index(1);
        c.record_index(0);
        assert_eq!(c.to_string(), "{0: 1, 1: 1}");
    }
}

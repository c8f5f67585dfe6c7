//! Bit-level helpers for Monte-Carlo error counting.

/// Counts the number of positions where two bit slices differ.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    a.iter()
        .zip(b)
        .filter(|(x, y)| (**x & 1) != (**y & 1))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_distance_counts_differences() {
        assert_eq!(hamming_distance(&[0, 1, 1, 0], &[0, 1, 0, 1]), 2);
        assert_eq!(hamming_distance(&[], &[]), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn hamming_distance_length_mismatch_panics() {
        let _ = hamming_distance(&[0], &[0, 1]);
    }
}

//! Order statistics used by every reported metric: nearest-rank
//! percentiles, the median, and the tail rule ("the highest percentile
//! with at least [`TAIL_BEYOND`] samples beyond it").

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (any order): the smallest sample
/// such that at least `pct` percent of the samples are at or below it.
/// `pct` is clamped to `(0, 100]`; `None` for an empty slice.
pub fn nearest_rank(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The nearest-rank median (`p50`).
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 50.0)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail rank.
    pub value: f64,
    /// The percentile that rank corresponds to (nearest-rank).
    pub percentile: f64,
    /// Samples strictly beyond the tail rank (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still leaves [`TAIL_BEYOND`]
/// samples beyond it: rank `n - 10` of `n` sorted samples, i.e. the
/// `100 (n - 10) / n`-th percentile.  `None` with fewer than
/// `TAIL_BEYOND + 1` samples, where no such percentile exists.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let sorted = sorted(values);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_textbook_definition() {
        // The classic worked example: 15, 20, 35, 40, 50.
        let v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(nearest_rank(&v, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(15.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn median_is_the_nearest_rank_p50() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even count: the lower middle sample (rank ceil(n/2)).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 25 samples: rank 15, the 60th percentile.
        let v: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile), (15.0, 60.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }
}

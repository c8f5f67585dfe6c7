//! Additive white Gaussian noise channel and LLR computation.

use fec_fixed::Llr;
use rand::Rng;

/// Signal-to-noise ratio expressed as energy-per-information-bit over noise
/// spectral density.
///
/// # Example
///
/// ```
/// use fec_channel::EbN0;
/// let e = EbN0::from_db(3.0);
/// assert!((e.db() - 3.0).abs() < 1e-12);
/// assert!((e.linear() - 10f64.powf(0.3)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct EbN0 {
    db: f64,
}

impl EbN0 {
    /// Creates an `Eb/N0` from a value in decibels.
    pub fn from_db(db: f64) -> Self {
        EbN0 { db }
    }

    /// The ratio in decibels.
    pub fn db(&self) -> f64 {
        self.db
    }

    /// The linear ratio.
    pub fn linear(&self) -> f64 {
        10f64.powf(self.db / 10.0)
    }
}

/// Binary-input AWGN channel with unit symbol energy.
///
/// The noise variance is derived from the target [`EbN0`] and the code rate
/// `r`: `sigma^2 = 1 / (2 * r * Eb/N0)`.  Channel LLRs for BPSK are
/// `2 * y / sigma^2`.
///
/// # Example
///
/// ```
/// use fec_channel::{AwgnChannel, EbN0};
/// use rand::SeedableRng;
///
/// let ch = AwgnChannel::for_code_rate(EbN0::from_db(1.0), 0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let y = ch.transmit(&[1.0, -1.0, 1.0], &mut rng);
/// assert_eq!(y.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwgnChannel {
    sigma2: f64,
}

impl AwgnChannel {
    /// Creates a channel whose noise variance corresponds to the given
    /// `Eb/N0` for a code of rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn for_code_rate(ebn0: EbN0, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "code rate must be in (0, 1]");
        let sigma2 = 1.0 / (2.0 * rate * ebn0.linear());
        AwgnChannel { sigma2 }
    }

    /// The noise variance per real dimension.
    pub fn noise_variance(&self) -> f64 {
        self.sigma2
    }

    /// The noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma2.sqrt()
    }

    /// Adds Gaussian noise to the transmitted symbols.
    pub fn transmit<R: Rng + ?Sized>(&self, symbols: &[f64], rng: &mut R) -> Vec<f64> {
        let sigma = self.sigma();
        symbols
            .iter()
            .map(|&s| s + sigma * sample_standard_normal(rng))
            .collect()
    }

    /// Computes the channel LLR of a single received BPSK sample.
    pub fn llr(&self, received: f64) -> Llr {
        Llr::new(2.0 * received / self.sigma2)
    }

    /// Computes channel LLRs for a block of received samples.
    pub fn llrs(&self, received: &[f64]) -> Vec<Llr> {
        received.iter().map(|&y| self.llr(y)).collect()
    }
}

/// Draws a standard normal variate using the Box–Muller transform.
///
/// Implemented locally so that only the `rand` core crate is required (the
/// distributions live in `rand_distr`, which is not part of the allowed
/// dependency set).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ebn0_conversions() {
        let e = EbN0::from_db(0.0);
        assert!((e.linear() - 1.0).abs() < 1e-12);
        let e = EbN0::from_db(10.0 * 2f64.log10());
        assert!((e.linear() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn noise_variance_from_rate() {
        // Eb/N0 = 1 (0 dB), rate 1/2 => sigma^2 = 1/(2*0.5*1) = 1.
        let ch = AwgnChannel::for_code_rate(EbN0::from_db(0.0), 0.5);
        assert!((ch.noise_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "code rate")]
    fn invalid_rate_panics() {
        let _ = AwgnChannel::for_code_rate(EbN0::from_db(0.0), 0.0);
    }

    #[test]
    fn llr_sign_follows_received_sample() {
        // sigma^2 = 1 / (2 * 1 * 1) = 0.5
        let ch = AwgnChannel::for_code_rate(EbN0::from_db(0.0), 1.0);
        assert_eq!(ch.noise_variance(), 0.5);
        assert!(ch.llr(0.7).value() > 0.0);
        assert!(ch.llr(-0.7).value() < 0.0);
        assert!((ch.llr(1.0).value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn noise_statistics_are_plausible() {
        let ch = AwgnChannel::for_code_rate(EbN0::from_db(0.0), 0.5);
        assert_eq!(ch.noise_variance(), 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 20_000;
        let tx = vec![0.0; n];
        let rx = ch.transmit(&tx, &mut rng);
        let mean: f64 = rx.iter().sum::<f64>() / n as f64;
        let var: f64 = rx.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn high_snr_is_nearly_noiseless() {
        let ch = AwgnChannel::for_code_rate(EbN0::from_db(40.0), 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rx = ch.transmit(&[1.0, -1.0, 1.0, -1.0], &mut rng);
        for (y, x) in rx.iter().zip([1.0, -1.0, 1.0, -1.0]) {
            assert!((y - x).abs() < 0.2);
        }
    }

    #[test]
    fn llrs_vector_matches_scalar() {
        let ch = AwgnChannel::for_code_rate(EbN0::from_db(0.0), 0.25);
        assert_eq!(ch.noise_variance(), 2.0);
        let rx = [0.3, -0.9, 1.4];
        let v = ch.llrs(&rx);
        for (y, l) in rx.iter().zip(v) {
            assert_eq!(ch.llr(*y).value(), l.value());
        }
    }
}

//! Wilson-score confidence intervals for Monte-Carlo error-rate estimates.
//!
//! The adaptive stopping rule of the simulation engine keeps simulating a
//! curve point until the frame-error-rate confidence interval is narrow
//! *relative to the estimate itself*.  The Wilson score interval is the
//! right tool for that job: unlike the naive Wald interval it never
//! collapses to zero width at zero observed errors and never leaves `[0, 1]`,
//! so "how sure are we, proportionally?" has a well-defined answer at every
//! count state the engine can reach.
//!
//! Everything here is a pure function of integer counts and the confidence
//! level — no clocks, no entropy — because the engine's round-sizing
//! determinism contract extends to these helpers (`fec-lint` enforces the
//! absence of wall-clock and entropy sources in this crate).
//!
//! # Example
//!
//! ```
//! use fec_channel::stats::{normal_quantile, wilson_interval};
//!
//! // 12 frame errors in 400 frames at 95% confidence.
//! let z = normal_quantile(0.975); // two-sided 95% => 0.975 quantile
//! let interval = wilson_interval(12, 400, z);
//! assert!(interval.half_width < interval.center && interval.center + interval.half_width < 0.1);
//! // With zero errors the relative half-width is 1 (up to floating-point
//! // rounding) — the interval can never be "narrow relative to the
//! // estimate", so an adaptive target below 1 always keeps sampling.
//! let rhw = wilson_interval(0, 400, z).relative_half_width();
//! assert!((rhw - 1.0).abs() < 1e-12);
//! ```

/// A Wilson score interval: `center ± half_width` (clamped to `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilsonInterval {
    /// The Wilson point estimate `(p̂ + z²/2n) / (1 + z²/n)` — the midpoint
    /// of the interval, shrunk towards 1/2 relative to the raw rate `p̂`.
    pub center: f64,
    /// Half the interval width.
    pub half_width: f64,
}

impl WilsonInterval {
    /// Lower interval bound, clamped to 0.
    #[cfg(test)]
    fn low(&self) -> f64 {
        (self.center - self.half_width).max(0.0)
    }

    /// Upper interval bound, clamped to 1.
    #[cfg(test)]
    fn high(&self) -> f64 {
        (self.center + self.half_width).min(1.0)
    }

    /// Half-width relative to the center: `half_width / center`.
    ///
    /// This is the quantity the adaptive stopping rule targets.  It is `1.0`
    /// exactly when no errors have been observed (the interval then runs
    /// from 0 to `2 * center`), strictly below 1 otherwise, and decreases
    /// roughly as `1/sqrt(n)` at a fixed error rate — which is what makes it
    /// usable for projecting how many more frames a point needs.
    pub fn relative_half_width(&self) -> f64 {
        if self.center <= 0.0 {
            1.0
        } else {
            self.half_width / self.center
        }
    }
}

/// The Wilson score interval for `successes` out of `trials` Bernoulli
/// trials at normal quantile `z` (e.g. `z = normal_quantile(0.975)` for a
/// two-sided 95% interval).
///
/// The endpoints are the exact roots `p` of the score equation
/// `(p̂ - p)² = z² p (1 - p) / n`, in closed form:
///
/// ```text
/// center     = (p̂ + z²/2n) / (1 + z²/n)
/// half_width = z * sqrt(p̂(1-p̂)/n + z²/4n²) / (1 + z²/n)
/// ```
///
/// `trials == 0` returns the vacuous interval (`center = 0.5`,
/// `half_width = 0.5`, relative half-width 1): nothing is known yet.
///
/// # Panics
///
/// Panics if `successes > trials` or `z` is not finite and positive.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> WilsonInterval {
    assert!(
        successes <= trials,
        "wilson_interval: successes ({successes}) > trials ({trials})"
    );
    assert!(
        z.is_finite() && z > 0.0,
        "wilson_interval: z must be finite and positive, got {z}"
    );
    if trials == 0 {
        return WilsonInterval {
            center: 0.5,
            half_width: 0.5,
        };
    }
    let n = trials as f64;
    let p_hat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p_hat + z2 / (2.0 * n)) / denom;
    let half_width = z * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    WilsonInterval { center, half_width }
}

/// The quantile function (inverse CDF) of the standard normal distribution,
/// via Acklam's rational approximation (relative error below `1.15e-9`
/// everywhere in the open unit interval — far tighter than any Monte-Carlo
/// confidence statement this repo makes).
///
/// For a two-sided confidence level `c`, the matching score is
/// `z = normal_quantile(0.5 + c / 2.0)`.
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile: p must lie in (0, 1), got {p}"
    );

    // Acklam's coefficients (central rational approximation plus two
    // tail approximations in sqrt(-2 ln p)).
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239e0,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838e0,
        -2.549_732_539_343_734e0,
        4.374_664_141_464_968e0,
        2.938_163_982_698_783e0,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996e0,
        3.754_408_661_907_416e0,
    ];
    const P_LOW: f64 = 0.02425;

    let tail = |q: f64| -> f64 {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - P_LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normal_quantile_matches_tabulated_values() {
        // (p, z) pairs from standard normal tables.
        let table = [
            (0.5, 0.0),
            (0.75, 0.674_489_750_196_082),
            (0.9, 1.281_551_565_544_60),
            (0.95, 1.644_853_626_951_47),
            (0.975, 1.959_963_984_540_05),
            (0.995, 2.575_829_303_548_90),
            (0.9995, 3.290_526_731_491_93),
        ];
        for (p, z) in table {
            let got = normal_quantile(p);
            assert!((got - z).abs() < 1e-8, "p = {p}: got {got}, want {z}");
            // Symmetry: the quantile function is odd around p = 1/2.
            let neg = normal_quantile(1.0 - p);
            assert!((neg + z).abs() < 1e-8, "p = {p}: got {neg}, want {}", -z);
        }
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn normal_quantile_rejects_p_one() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn normal_quantile_rejects_p_zero() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn zero_successes_pins_relative_half_width_at_one() {
        let z = normal_quantile(0.975);
        for trials in [1u64, 10, 1_000, 1_000_000] {
            let w = wilson_interval(0, trials, z);
            assert!((w.relative_half_width() - 1.0).abs() < 1e-12, "{trials}");
            assert!(w.low().abs() < 1e-12);
        }
        // Vacuous interval before any trial.
        let empty = wilson_interval(0, 0, z);
        assert_eq!(empty.relative_half_width(), 1.0);
        assert_eq!(empty.low(), 0.0);
        assert_eq!(empty.high(), 1.0);
    }

    #[test]
    fn all_successes_interval_reaches_one() {
        let z = normal_quantile(0.975);
        let w = wilson_interval(40, 40, z);
        assert_eq!(w.high(), 1.0);
        assert!(w.low() > 0.8, "low = {}", w.low());
        assert!(w.relative_half_width() < 0.1);
    }

    #[test]
    fn relative_half_width_shrinks_with_more_trials_at_fixed_rate() {
        let z = normal_quantile(0.975);
        let w100 = wilson_interval(10, 100, z).relative_half_width();
        let w400 = wilson_interval(40, 400, z).relative_half_width();
        let w1600 = wilson_interval(160, 1600, z).relative_half_width();
        assert!(w100 > w400 && w400 > w1600, "{w100} {w400} {w1600}");
        // Roughly 1/sqrt(n): quadrupling n about halves the width.
        assert!((w100 / w400 - 2.0).abs() < 0.25, "{}", w100 / w400);
        assert!((w400 / w1600 - 2.0).abs() < 0.25, "{}", w400 / w1600);
    }

    #[test]
    #[should_panic(expected = "successes (3) > trials (2)")]
    fn wilson_rejects_impossible_counts() {
        let _ = wilson_interval(3, 2, 1.96);
    }

    /// Brute-force root of the score equation
    /// `(p_hat - p)^2 = z^2 p (1 - p) / n` by bisection over `[lo, hi]`,
    /// where the score function changes sign.
    fn bisect_score_root(p_hat: f64, n: f64, z: f64, mut lo: f64, mut hi: f64) -> f64 {
        let f = |p: f64| (p_hat - p) * (p_hat - p) - z * z * p * (1.0 - p) / n;
        let mut f_lo = f(lo);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let f_mid = f(mid);
            if (f_mid > 0.0) == (f_lo > 0.0) {
                lo = mid;
                f_lo = f_mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed-form Wilson endpoints are exactly the roots of the
        /// score equation; recover both by brute-force bisection and compare.
        #[test]
        fn wilson_endpoints_match_brute_force_score_roots(
            trials in 2u64..500,
            z in 0.7f64..3.5,
            seed in 0u64..u64::MAX,
        ) {
            // Strictly interior success count so both bisection brackets
            // have a clean sign change (the boundary cases are unit-tested).
            let successes = 1 + seed % (trials - 1);
            let w = wilson_interval(successes, trials, z);
            let p_hat = successes as f64 / trials as f64;
            let n = trials as f64;
            let low = bisect_score_root(p_hat, n, z, 0.0, p_hat);
            let high = bisect_score_root(p_hat, n, z, p_hat, 1.0);
            prop_assert!((w.low() - low).abs() < 1e-9,
                "low: closed {} vs brute {}", w.low(), low);
            prop_assert!((w.high() - high).abs() < 1e-9,
                "high: closed {} vs brute {}", w.high(), high);
            prop_assert!(w.low() <= w.center && w.center <= w.high());
            prop_assert!(w.relative_half_width() > 0.0);
            prop_assert!(w.relative_half_width() <= 1.0 + 1e-12);
        }
    }
}

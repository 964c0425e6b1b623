//! The two predictive distributions the (ε, p)-quality check queries:
//! Student-t (continuous metrics) and Beta-Binomial (classification).
//! Each is a small value type with the CDF the check needs.

use serde::{Deserialize, Serialize};

use crate::special::{beta_inc, ln_beta, ln_gamma};
use crate::StatsError;

/// Student-t distribution with `nu` degrees of freedom, location `loc` and
/// scale `scale` — the posterior-predictive distribution of the
/// Normal-Inverse-Gamma model used for continuous (ε, p)-quality assessment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudentT {
    nu: f64,
    loc: f64,
    scale: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `nu <= 0` or
    /// `scale <= 0`.
    pub fn new(nu: f64, loc: f64, scale: f64) -> Result<Self, StatsError> {
        if !nu.is_finite() || nu <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "nu",
                value: nu,
                expected: "finite and > 0",
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "finite and > 0",
            });
        }
        Ok(StudentT { nu, loc, scale })
    }

    /// Cumulative distribution function at `x`, via the regularised
    /// incomplete beta function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.loc) / self.scale;
        let t2 = z * z;
        let p = 0.5 * beta_inc(self.nu / 2.0, 0.5, self.nu / (self.nu + t2));
        if z >= 0.0 {
            1.0 - p
        } else {
            p
        }
    }
}

/// Beta-Binomial distribution: the posterior predictive for the number of
/// successes in `n` future Bernoulli trials under a Beta posterior.
///
/// Used to answer "what is the probability that at most `k` of the `n`
/// unsensed cells are misclassified?" in the U-Air-style categorical tasks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaBinomial {
    n: u32,
    alpha: f64,
    beta: f64,
}

impl BetaBinomial {
    /// Creates a Beta-Binomial distribution over `0..=n` successes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either shape is
    /// non-positive.
    pub fn new(n: u32, alpha: f64, beta: f64) -> Result<Self, StatsError> {
        for (name, v) in [("alpha", alpha), ("beta", beta)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(StatsError::InvalidParameter {
                    name,
                    value: v,
                    expected: "finite and > 0",
                });
            }
        }
        Ok(BetaBinomial { n, alpha, beta })
    }

    /// Probability mass at exactly `k` successes.
    pub fn pmf(&self, k: u32) -> f64 {
        if k > self.n {
            return 0.0;
        }
        let n = self.n as f64;
        let k = k as f64;
        let ln_choose = ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
        (ln_choose + ln_beta(k + self.alpha, n - k + self.beta) - ln_beta(self.alpha, self.beta))
            .exp()
    }

    /// `P(X <= k)`.
    pub fn cdf(&self, k: u32) -> f64 {
        (0..=k.min(self.n))
            .map(|i| self.pmf(i))
            .sum::<f64>()
            .min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_t_symmetric_at_loc() {
        let t = StudentT::new(5.0, 3.0, 2.0).unwrap();
        assert!((t.cdf(3.0) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn student_t_approaches_normal_for_large_nu() {
        // Standard normal CDF values Φ(x).
        let t = StudentT::new(1e6, 0.0, 1.0).unwrap();
        for (x, phi) in [
            (-2.0, 0.022_750_131_948_179_2),
            (-0.5, 0.308_537_538_725_986_9),
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (2.5, 0.993_790_334_674_223_7),
        ] {
            assert!((t.cdf(x) - phi).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn student_t_known_value() {
        // For nu=1 (Cauchy), CDF(1) = 3/4.
        let t = StudentT::new(1.0, 0.0, 1.0).unwrap();
        assert!((t.cdf(1.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn beta_binomial_pmf_sums_to_one() {
        let bb = BetaBinomial::new(10, 2.0, 3.0).unwrap();
        let total: f64 = (0..=10).map(|k| bb.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!((bb.cdf(10) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn beta_binomial_uniform_prior_is_uniform() {
        // With α=β=1 the Beta-Binomial is uniform over 0..=n.
        let bb = BetaBinomial::new(4, 1.0, 1.0).unwrap();
        for k in 0..=4 {
            assert!((bb.pmf(k) - 0.2).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn beta_binomial_out_of_range_pmf_zero() {
        let bb = BetaBinomial::new(3, 1.0, 1.0).unwrap();
        assert_eq!(bb.pmf(4), 0.0);
    }

    #[test]
    fn beta_binomial_concentrates_with_strong_posterior() {
        // Strong evidence of low error rate: P(many errors) tiny.
        let bb = BetaBinomial::new(36, 1.0, 100.0).unwrap();
        assert!(bb.cdf(9) > 0.999);
    }
}

//! # drcell-stats — conjugate posteriors for the (ε, p)-quality check
//!
//! The two Bayesian conjugate models the Sparse-MCS quality assessment
//! queries on leave-one-out errors ([leave-one-out Bayesian (ε, p)-quality],
//! per Wang et al. CCS-TA / SPACE-TA and the DR-Cell paper §3 Definition 6),
//! with the distributions and special functions they reach.
//!
//! Everything is implemented from scratch on `f64`:
//!
//! * [`bayes`] — [`bayes::NormalInverseGamma`] (continuous metrics) and
//!   [`bayes::BetaBernoulli`] (classification) with the predictive queries
//!   the check asks.
//! * [`dist`] — the Student-t and Beta-Binomial predictive CDFs.
//! * [`special`] — `ln_gamma`, `ln_beta` and the regularised incomplete beta.
//!
//! ```
//! use drcell_stats::bayes::NormalInverseGamma;
//!
//! let mut m = NormalInverseGamma::weak_prior(0.5, 0.5);
//! m.observe_all(&[0.2, 0.3, 0.25]);
//! assert!(m.prob_mean_below(0.5, 10).unwrap() > 0.5);
//! ```

#![deny(missing_docs)]

pub mod bayes;
pub mod dist;
pub mod special;

mod error;

pub use error::StatsError;

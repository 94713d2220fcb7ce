//! Parametric continuous distributions.
//!
//! The workload substrate models each benchmark's sprinting speedup with a
//! parametric distribution: narrow bands for Linear Regression and
//! Correlation, heavy-tailed bimodal mixtures for the graph workloads
//! (paper Figure 10). Each distribution exposes an analytic pdf and cdf —
//! required by the game's closed-form integrals — plus exact sampling for
//! the simulator.

use rand::Rng;

use crate::StatsError;

/// Error function `erf(x)`, accurate to about `1.2e-7` absolute error.
///
/// Implements the Abramowitz & Stegun 7.1.26 rational approximation, which
/// is more than sufficient for density calibration (the game's outputs are
/// insensitive to pdf errors far below simulation noise).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
#[must_use]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function.
#[must_use]
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// A one-dimensional continuous distribution with analytic pdf/cdf and
/// exact sampling.
///
/// The trait is object-safe so heterogeneous benchmark profiles can store
/// `Box<dyn ContinuousDistribution>`.
pub trait ContinuousDistribution: std::fmt::Debug + Send + Sync {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Draw one sample.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// Consume exactly the draws [`ContinuousDistribution::sample`] would,
    /// without (necessarily) computing the sample: a generator advanced
    /// by either is in the same state. Callers that discard most samples
    /// (the arrival walk of a phase stream) skip them with this.
    fn skip_sample(&self, rng: &mut dyn rand::RngCore) {
        let _ = self.sample(rng);
    }

    /// Support of the distribution as `(lo, hi)`.
    ///
    /// Values outside the support have zero density. Distributions with
    /// unbounded support report a finite effective range covering at least
    /// `1 - 1e-9` of the mass, which is what grid discretization consumes.
    fn support(&self) -> (f64, f64);

    /// Mean of the distribution.
    fn mean(&self) -> f64;
}

/// Uniform distribution on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `hi <= lo` or either
    /// bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> crate::Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a finite value strictly greater than lo",
            });
        }
        Ok(Uniform { lo, hi })
    }

    /// Lower bound of the support.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rand::Rng::gen(&mut *rng);
        self.lo + u * (self.hi - self.lo)
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Normal distribution truncated to `[lo, hi]`.
///
/// Used for the narrow speedup bands of Linear Regression and Correlation:
/// "performance gains from sprinting vary in a band between 3× and 5×"
/// (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mu: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
    /// Normalizing mass `Phi((hi-mu)/sigma) - Phi((lo-mu)/sigma)`.
    z: f64,
    /// Smallest Box–Muller `u1` whose radius keeps the cosine candidate
    /// inside the band at every angle, so `sample` accepts the pair on
    /// its first candidate and `skip_sample` need not evaluate it.
    /// Infinite when no radius is safe (`mu` outside the band or within
    /// the margin of a bound); see [`skip_floor`].
    skip_floor: f64,
}

/// The `u1` floor of [`TruncatedNormal::skip_sample`]'s fast path: above
/// it, the Box–Muller radius `sqrt(-2 ln u1)` is at most the distance
/// from `mu` to the nearer bound, less a margin, in units of `sigma`.
///
/// The margin absorbs rounding. The affine map `mu + sigma * z` rounds
/// by a few ulps of the band's magnitude, covered by its first term. The
/// radius moves by at most about 2·10⁻⁸ (the 2⁻⁵³ grid of `u1` near 1,
/// plus an ulp or two each from `exp`, `ln` and `sqrt`), covered by its
/// second. Both are orders of magnitude wider than needed, yet cost the
/// fast path a negligible share of pairs.
fn skip_floor(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    let margin = 1e-9 * (mu.abs() + lo.abs() + hi.abs()) + 1e-6 * sigma;
    let radius = ((mu - lo).min(hi - mu) - margin) / sigma;
    if radius > 0.0 {
        (-0.5 * radius * radius).exp()
    } else {
        f64::INFINITY
    }
}

impl TruncatedNormal {
    /// Create a normal distribution with location `mu` and scale `sigma`
    /// truncated to `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma <= 0`, bounds are
    /// inverted, or the truncation interval carries negligible mass
    /// (less than `1e-12`), which would make rejection sampling diverge.
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> crate::Result<Self> {
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "a positive finite number",
            });
        }
        if hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a value strictly greater than lo",
            });
        }
        let z = std_normal_cdf((hi - mu) / sigma) - std_normal_cdf((lo - mu) / sigma);
        if z < 1e-12 {
            return Err(StatsError::InvalidParameter {
                name: "lo",
                value: lo,
                expected: "a truncation interval with non-negligible mass",
            });
        }
        Ok(TruncatedNormal {
            mu,
            sigma,
            lo,
            hi,
            z,
            skip_floor: skip_floor(mu, sigma, lo, hi),
        })
    }

    /// Location parameter of the parent normal.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the parent normal.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The sample of the Box–Muller pair `(u1, u2)`, if it lands in the
    /// band: the cosine candidate first, then the sine candidate, which
    /// is only computed when the cosine one is rejected.
    fn accept(&self, u1: f64, u2: f64) -> Option<f64> {
        let r = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let inside = |z: f64| {
            let x = self.mu + self.sigma * z;
            (x >= self.lo && x <= self.hi).then_some(x)
        };
        inside(r * theta.cos()).or_else(|| inside(r * theta.sin()))
    }
}

impl ContinuousDistribution for TruncatedNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        std_normal_pdf((x - self.mu) / self.sigma) / (self.sigma * self.z)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (std_normal_cdf((x - self.mu) / self.sigma)
                - std_normal_cdf((self.lo - self.mu) / self.sigma))
                / self.z
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Rejection sampling from the parent normal. The constructor
        // guarantees the acceptance region has mass >= 1e-12; in practice
        // the workload profiles keep it above 0.5, so this loop is short.
        loop {
            let u1: f64 = rand::Rng::gen(&mut *rng);
            let u2: f64 = rand::Rng::gen(&mut *rng);
            if let Some(x) = self.accept(u1, u2) {
                return x;
            }
        }
    }

    fn skip_sample(&self, rng: &mut dyn rand::RngCore) {
        // Same pairs, same acceptance; a pair above the floor is accepted
        // without evaluating its `ln`, `sqrt` and `cos`.
        loop {
            let u1: f64 = rand::Rng::gen(&mut *rng);
            let u2: f64 = rand::Rng::gen(&mut *rng);
            if u1 >= self.skip_floor || self.accept(u1, u2).is_some() {
                return;
            }
        }
    }

    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        // E[X] = mu + sigma * (phi(a) - phi(b)) / Z for truncation [a, b]
        // in standardized coordinates.
        let a = (self.lo - self.mu) / self.sigma;
        let b = (self.hi - self.mu) / self.sigma;
        self.mu + self.sigma * (std_normal_pdf(a) - std_normal_pdf(b)) / self.z
    }
}

/// Log-normal distribution: `ln X ~ Normal(mu, sigma)`.
///
/// Models heavy-tailed speedups like PageRank's, whose "performance gains
/// can often exceed 10×" (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal with log-location `mu` and log-scale `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> crate::Result<Self> {
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "a positive finite number",
            });
        }
        Ok(LogNormal { mu, sigma })
    }
}

impl ContinuousDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        std_normal_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u1: f64 = rand::Rng::gen(&mut *rng);
        let u2: f64 = rand::Rng::gen(&mut *rng);
        let z = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt()
            * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }

    fn skip_sample(&self, rng: &mut dyn rand::RngCore) {
        rng.next_u64();
        rng.next_u64();
    }

    fn support(&self) -> (f64, f64) {
        // Effective support covering ~1 - 1e-9 of mass: mu ± 6 sigma in
        // log space.
        (
            (self.mu - 6.0 * self.sigma).exp(),
            (self.mu + 6.0 * self.sigma).exp(),
        )
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Finite mixture of distributions with given weights.
///
/// PageRank-style bimodal utility profiles are mixtures of a low-gain and a
/// high-gain mode (paper Figure 10, right panel).
#[derive(Debug)]
pub struct Mixture {
    components: Vec<Box<dyn ContinuousDistribution>>,
    weights: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Mixture {
    /// Create a mixture from components and matching weights.
    ///
    /// Weights must be non-negative and are normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when no components are given,
    /// [`StatsError::DimensionMismatch`] when lengths differ, and
    /// [`StatsError::NotNormalized`] when all weights are zero.
    pub fn new(
        components: Vec<Box<dyn ContinuousDistribution>>,
        weights: Vec<f64>,
    ) -> crate::Result<Self> {
        if components.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if components.len() != weights.len() {
            return Err(StatsError::DimensionMismatch {
                expected: components.len(),
                found: weights.len(),
            });
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                value: f64::NAN,
                expected: "non-negative finite weights",
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::NotNormalized { mass: total });
        }
        let weights: Vec<f64> = weights.into_iter().map(|w| w / total).collect();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        Ok(Mixture {
            components,
            weights,
            cumulative,
        })
    }

    /// Number of mixture components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true after `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Normalized component weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Draw which component the next sample comes from.
    fn pick(&self, rng: &mut dyn rand::RngCore) -> &dyn ContinuousDistribution {
        let u: f64 = rand::Rng::gen(&mut *rng);
        // The first component whose cumulative weight reaches `u`: the
        // cumulative weights ascend, so that is the count of those below
        // `u` (counted without a data-dependent branch; the last
        // component absorbs rounding in the top weight).
        let idx = self.cumulative.iter().filter(|&&c| c < u).count();
        self.components[idx.min(self.components.len() - 1)].as_ref()
    }
}

impl ContinuousDistribution for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.pdf(x))
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.cdf(x))
            .sum()
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.pick(rng).sample(rng)
    }

    fn skip_sample(&self, rng: &mut dyn rand::RngCore) {
        self.pick(rng).skip_sample(rng);
    }

    fn support(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.components {
            let (l, h) = c.support();
            lo = lo.min(l);
            hi = hi.max(h);
        }
        (lo, hi)
    }

    fn mean(&self) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.mean())
            .sum()
    }
}

/// Draw `n` samples from a distribution into a vector.
pub fn sample_n<D, R>(dist: &D, n: usize, rng: &mut R) -> Vec<f64>
where
    D: ContinuousDistribution + ?Sized,
    R: Rng,
{
    (0..n).map(|_| dist.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {a} ≈ {b} (tol {tol})");
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.0), 0.0, 1e-8);
        assert_close(erf(1.0), 0.842_700_79, 2e-7);
        assert_close(erf(-1.0), -0.842_700_79, 2e-7);
        assert_close(erf(2.0), 0.995_322_27, 2e-7);
    }

    #[test]
    fn std_normal_cdf_symmetry() {
        for x in [0.1, 0.5, 1.3, 2.7] {
            assert_close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 1e-9);
        }
    }

    #[test]
    fn uniform_rejects_bad_bounds() {
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn uniform_pdf_cdf_consistency() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        assert_close(u.pdf(4.0), 0.25, 1e-12);
        assert_close(u.cdf(2.0), 0.0, 1e-12);
        assert_close(u.cdf(4.0), 0.5, 1e-12);
        assert_close(u.cdf(6.0), 1.0, 1e-12);
        assert_eq!(u.pdf(1.0), 0.0);
        assert_close(u.mean(), 4.0, 1e-12);
    }

    #[test]
    fn uniform_samples_stay_in_support() {
        let u = Uniform::new(-1.0, 3.0).unwrap();
        let mut rng = seeded_rng(1);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((-1.0..=3.0).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_validates() {
        assert!(TruncatedNormal::new(0.0, -1.0, 0.0, 1.0).is_err());
        assert!(TruncatedNormal::new(0.0, 1.0, 2.0, 1.0).is_err());
        // Interval 40 sigma away from the mean carries ~zero mass.
        assert!(TruncatedNormal::new(0.0, 1.0, 40.0, 41.0).is_err());
    }

    #[test]
    fn truncated_normal_mean_matches_sampling() {
        let d = TruncatedNormal::new(4.0, 0.5, 3.0, 5.0).unwrap();
        let mut rng = seeded_rng(2);
        let samples = sample_n(&d, 20_000, &mut rng);
        let emp_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_close(emp_mean, d.mean(), 0.02);
        assert!(samples.iter().all(|&x| (3.0..=5.0).contains(&x)));
    }

    #[test]
    fn truncated_normal_cdf_bounds() {
        let d = TruncatedNormal::new(0.0, 1.0, -1.0, 1.0).unwrap();
        assert_eq!(d.cdf(-2.0), 0.0);
        assert_eq!(d.cdf(2.0), 1.0);
        assert_close(d.cdf(0.0), 0.5, 1e-7);
    }

    #[test]
    fn pairs_above_the_skip_floor_are_accepted() {
        // `skip_sample` stops at any pair whose `u1` clears the floor, so
        // `sample` must accept every such pair, and the floor promises it
        // does so on the cosine candidate: probe the floor and the ulps
        // above it at angles that include both extremes of the cosine
        // (u2 = 0 and 1/2).
        for (mu, sigma, lo, hi) in [
            (4.0, 0.45, 3.0, 5.0),
            (12.0, 1.5, 8.0, 16.0),
            (2.4, 0.5, 1.2, 3.8),
            (1e6, 3.0, 1e6 - 5.0, 1e6 + 2.0),
        ] {
            let d = TruncatedNormal::new(mu, sigma, lo, hi).unwrap();
            assert!(d.skip_floor < 1.0, "a safe radius exists for {d:?}");
            let mut u1 = d.skip_floor;
            for _ in 0..16 {
                for k in 0..=1024 {
                    let u2 = f64::from(k) / 1024.0;
                    let r = (-2.0 * u1.ln()).sqrt();
                    let x = mu + sigma * (r * (2.0 * std::f64::consts::PI * u2).cos());
                    assert!((lo..=hi).contains(&x), "{d:?}: cosine of ({u1}, {u2})");
                    assert_eq!(d.accept(u1, u2), Some(x), "{d:?}: ({u1}, {u2})");
                }
                u1 = f64::from_bits(u1.to_bits() + 1);
            }
        }
    }

    #[test]
    fn no_skip_floor_without_a_safe_radius() {
        for (mu, sigma, lo, hi) in [
            (0.0, 1.0, 0.5, 2.5),
            (2.0, 0.5, 2.0, 4.0),
            (1e6, 1e-4, 1e6 - 1e-3, 1e6 + 1e-3),
        ] {
            let d = TruncatedNormal::new(mu, sigma, lo, hi).unwrap();
            assert_eq!(d.skip_floor, f64::INFINITY, "{d:?}");
        }
    }

    #[test]
    fn lognormal_mean_is_analytic() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        assert_close(d.mean(), (1.0f64 + 0.125).exp(), 1e-12);
        let mut rng = seeded_rng(3);
        let samples = sample_n(&d, 50_000, &mut rng);
        let emp = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_close(emp, d.mean(), 0.06);
    }

    #[test]
    fn lognormal_pdf_zero_below_support() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
    }

    #[test]
    fn mixture_validates_inputs() {
        let c = || -> Box<dyn ContinuousDistribution> { Box::new(Uniform::new(0.0, 1.0).unwrap()) };
        assert!(matches!(
            Mixture::new(vec![], vec![]),
            Err(StatsError::EmptyInput)
        ));
        assert!(matches!(
            Mixture::new(vec![c()], vec![0.5, 0.5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Mixture::new(vec![c()], vec![0.0]),
            Err(StatsError::NotNormalized { .. })
        ));
        assert!(Mixture::new(vec![c()], vec![-1.0]).is_err());
    }

    #[test]
    fn mixture_normalizes_weights() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 1.0).unwrap()),
                Box::new(Uniform::new(10.0, 11.0).unwrap()),
            ],
            vec![2.0, 6.0],
        )
        .unwrap();
        assert_close(m.weights()[0], 0.25, 1e-12);
        assert_close(m.weights()[1], 0.75, 1e-12);
        assert_close(m.mean(), 0.25 * 0.5 + 0.75 * 10.5, 1e-12);
    }

    #[test]
    fn mixture_cdf_is_weighted_sum() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 2.0).unwrap()),
                Box::new(Uniform::new(4.0, 6.0).unwrap()),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_close(m.cdf(2.0), 0.5, 1e-12);
        assert_close(m.cdf(6.0), 1.0, 1e-12);
        assert_close(m.cdf(1.0), 0.25, 1e-12);
    }

    #[test]
    fn mixture_sampling_respects_weights() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(0.0, 1.0).unwrap()),
                Box::new(Uniform::new(10.0, 11.0).unwrap()),
            ],
            vec![0.2, 0.8],
        )
        .unwrap();
        let mut rng = seeded_rng(4);
        let samples = sample_n(&m, 10_000, &mut rng);
        let high = samples.iter().filter(|&&x| x > 5.0).count() as f64 / 10_000.0;
        assert_close(high, 0.8, 0.02);
    }

    #[test]
    fn mixture_support_spans_components() {
        let m = Mixture::new(
            vec![
                Box::new(Uniform::new(1.0, 2.0).unwrap()),
                Box::new(Uniform::new(5.0, 9.0).unwrap()),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_eq!(m.support(), (1.0, 9.0));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}

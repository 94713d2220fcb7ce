//! Discretized probability densities on a uniform grid.
//!
//! [`DiscreteDensity`] is the concrete representation of the paper's
//! utility density `f(u)`: the coordinator profiles an application, bins
//! per-epoch sprinting utilities, and hands the resulting density to the
//! game. The Bellman solver (paper Equations 1–8) integrates against it,
//! and Equation 9 (`p_s = ∫_{u_T} f(u) du`) is [`DiscreteDensity::tail_mass`].
//!
//! The density is piecewise-constant over bins, which makes every integral
//! exact for the representation (no quadrature error beyond discretization).

use rand::Rng;

use crate::dist::ContinuousDistribution;
use crate::histogram::Histogram;
use crate::StatsError;

/// A probability density discretized as piecewise-constant values over a
/// uniform grid on `[lo, hi]`, normalized to integrate to 1.
///
/// Serializes as `{ lo, hi, pdf }`; deserialization re-validates and
/// re-normalizes, so profiles shipped between agents and the coordinator
/// (the paper's §4.4 offline exchange) cannot smuggle invalid densities.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(try_from = "DensitySpec", into = "DensitySpec")]
pub struct DiscreteDensity {
    lo: f64,
    hi: f64,
    /// Density value over each bin; `sum(pdf) * dx == 1`.
    pdf: Vec<f64>,
    /// Prefix masses: `cum_mass[i]` is the mass of bins `[0, i)`,
    /// accumulated left-to-right in the same order as a naive cdf scan so
    /// [`DiscreteDensity::cdf`] stays bitwise identical to the O(n) loop.
    /// Length `pdf.len() + 1`. Derived from `pdf` in the constructor and
    /// rebuilt on deserialization (the wire format stays `{lo, hi, pdf}`).
    cum_mass: Vec<f64>,
    /// Suffix x-weighted masses: `tail_xmass[i] = ∫` over bins
    /// `[i, len)` of `x f(x) dx`. Length `pdf.len() + 1`; derived.
    tail_xmass: Vec<f64>,
}

/// Wire format for [`DiscreteDensity`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct DensitySpec {
    lo: f64,
    hi: f64,
    pdf: Vec<f64>,
}

impl TryFrom<DensitySpec> for DiscreteDensity {
    type Error = StatsError;

    fn try_from(spec: DensitySpec) -> Result<Self, StatsError> {
        DiscreteDensity::new(spec.lo, spec.hi, spec.pdf)
    }
}

impl From<DiscreteDensity> for DensitySpec {
    fn from(d: DiscreteDensity) -> Self {
        DensitySpec {
            lo: d.lo,
            hi: d.hi,
            pdf: d.pdf,
        }
    }
}

impl DiscreteDensity {
    /// Create a density from raw bin values over `[lo, hi]`.
    ///
    /// Values are normalized to integrate to 1.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty value slice,
    /// [`StatsError::InvalidParameter`] for an invalid range or negative /
    /// non-finite values, and [`StatsError::NotNormalized`] when all values
    /// are zero.
    pub fn new(lo: f64, hi: f64, values: Vec<f64>) -> crate::Result<Self> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a finite value strictly greater than lo",
            });
        }
        if values.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "values",
                value: f64::NAN,
                expected: "non-negative finite density values",
            });
        }
        let dx = (hi - lo) / values.len() as f64;
        let mass: f64 = values.iter().sum::<f64>() * dx;
        if mass <= 0.0 {
            return Err(StatsError::NotNormalized { mass });
        }
        let pdf: Vec<f64> = values.into_iter().map(|v| v / mass).collect();
        Ok(DiscreteDensity::with_tables(lo, hi, pdf))
    }

    /// Assemble a density from an already-normalized pdf, precomputing the
    /// prefix/suffix tables that make `cdf`, `tail_mass`, `quantile`, and
    /// `partial_expectation` O(1)/O(log n). Every constructor funnels
    /// through here.
    fn with_tables(lo: f64, hi: f64, pdf: Vec<f64>) -> Self {
        let dx = (hi - lo) / pdf.len() as f64;
        let mut cum_mass = Vec::with_capacity(pdf.len() + 1);
        let mut acc = 0.0;
        cum_mass.push(acc);
        for &p in &pdf {
            // Exactly the naive cdf loop's accumulation order, so the
            // table lookups round identically to the former O(n) scan.
            acc += p * dx;
            cum_mass.push(acc);
        }
        let mut tail_xmass = vec![0.0; pdf.len() + 1];
        for i in (0..pdf.len()).rev() {
            let l = lo + i as f64 * dx;
            let r = l + dx;
            tail_xmass[i] = pdf[i] * 0.5 * (r * r - l * l) + tail_xmass[i + 1];
        }
        DiscreteDensity {
            lo,
            hi,
            pdf,
            cum_mass,
            tail_xmass,
        }
    }

    /// Estimate a density from samples with `bins` uniform bins.
    ///
    /// # Errors
    ///
    /// Propagates histogram construction errors (empty or non-finite
    /// samples, zero bins).
    pub fn from_samples(samples: &[f64], bins: usize) -> crate::Result<Self> {
        let hist = Histogram::from_samples(samples, bins)?;
        DiscreteDensity::new(hist.lo(), hist.hi(), hist.densities())
    }

    /// Discretize a function proportional to a density over `[lo, hi]`.
    ///
    /// The function is evaluated at bin centers and normalized.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`DiscreteDensity::new`]; in particular
    /// [`StatsError::NotNormalized`] when `f` is zero everywhere on the grid.
    pub fn from_fn<F: Fn(f64) -> f64>(lo: f64, hi: f64, bins: usize, f: F) -> crate::Result<Self> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
                expected: "at least one bin",
            });
        }
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                expected: "a finite value strictly greater than lo",
            });
        }
        let dx = (hi - lo) / bins as f64;
        let values: Vec<f64> = (0..bins)
            .map(|i| f(lo + (i as f64 + 0.5) * dx).max(0.0))
            .collect();
        DiscreteDensity::new(lo, hi, values)
    }

    /// Discretize a parametric distribution over its support.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`DiscreteDensity::from_fn`].
    pub fn from_distribution(
        dist: &dyn ContinuousDistribution,
        bins: usize,
    ) -> crate::Result<Self> {
        let (lo, hi) = dist.support();
        DiscreteDensity::from_fn(lo, hi, bins, |x| dist.pdf(x))
    }

    /// Lower edge of the grid.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the grid. This is the paper's `u_max` when the density
    /// describes sprinting utility.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pdf.len()
    }

    /// Whether the grid has no bins (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pdf.is_empty()
    }

    /// Bin width.
    #[must_use]
    pub fn dx(&self) -> f64 {
        (self.hi - self.lo) / self.pdf.len() as f64
    }

    /// Density values over the bins.
    #[must_use]
    pub fn pdf(&self) -> &[f64] {
        &self.pdf
    }

    /// Density value at point `x` (0 outside the grid).
    #[must_use]
    pub fn pdf_at(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let idx = (((x - self.lo) / self.dx()) as usize).min(self.pdf.len() - 1);
        self.pdf[idx]
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn center(&self, i: usize) -> f64 {
        assert!(i < self.pdf.len(), "bin index {i} out of range");
        self.lo + (i as f64 + 0.5) * self.dx()
    }

    /// Iterate over `(bin center, probability mass)` pairs.
    ///
    /// Masses sum to 1; this is the quadrature rule used by the Bellman
    /// solver when integrating value functions over utility.
    pub fn masses(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let dx = self.dx();
        self.pdf
            .iter()
            .enumerate()
            .map(move |(i, &p)| (self.lo + (i as f64 + 0.5) * dx, p * dx))
    }

    /// Total mass (1 up to floating-point rounding).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.pdf.iter().sum::<f64>() * self.dx()
    }

    /// Mean `E[X]`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.masses().map(|(x, m)| x * m).sum()
    }

    /// Variance `Var[X]`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.masses().map(|(x, m)| (x - mu).powi(2) * m).sum()
    }

    /// Cumulative probability `P(X <= x)`, exact for the piecewise-constant
    /// representation. O(1) via the precomputed prefix table.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let dx = self.dx();
        let pos = (x - self.lo) / dx;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        self.cum_mass[full] + self.pdf[full] * frac * dx
    }

    /// Upper-tail mass `P(X > u) = ∫_u^{hi} f(x) dx` — the paper's
    /// Equation 9 sprint probability when `u` is the threshold `u_T`.
    #[must_use]
    pub fn tail_mass(&self, u: f64) -> f64 {
        (1.0 - self.cdf(u)).clamp(0.0, 1.0)
    }

    /// Partial expectation `∫_u^{hi} x f(x) dx`, exact for the
    /// representation.
    ///
    /// This is the expected utility collected by an agent who sprints
    /// exactly when utility exceeds `u` (not conditioned on sprinting).
    #[must_use]
    pub fn partial_expectation(&self, u: f64) -> f64 {
        if u >= self.hi {
            return 0.0;
        }
        let u = u.max(self.lo);
        let dx = self.dx();
        let pos = (u - self.lo) / dx;
        let first = (pos.floor() as usize).min(self.pdf.len() - 1);
        // Partial bin: integrate x*p over [u, right edge]. Full bins above
        // come from the precomputed suffix table — O(1) instead of O(n).
        let right = self.lo + (first as f64 + 1.0) * dx;
        self.pdf[first] * 0.5 * (right * right - u * u) + self.tail_xmass[first + 1]
    }

    /// Conditional mean `E[X | X > u]`.
    ///
    /// Returns `None` when the tail above `u` carries no mass.
    #[must_use]
    pub fn mean_above(&self, u: f64) -> Option<f64> {
        let tail = self.tail_mass(u);
        if tail <= 1e-15 {
            None
        } else {
            Some(self.partial_expectation(u) / tail)
        }
    }

    /// Quantile (inverse cdf) for probability `q`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> crate::Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter {
                name: "q",
                value: q,
                expected: "a probability in [0, 1]",
            });
        }
        let dx = self.dx();
        // First bin whose running prefix reaches q — binary search over
        // the monotone prefix table (O(log n) instead of a linear scan).
        // `cum_mass[i + 1]` rounds identically to the old scan's
        // `acc + mass`, so the selected bin and interpolation match the
        // naive loop bit for bit.
        let i = self.cum_mass[1..].partition_point(|&c| c < q);
        if i >= self.pdf.len() {
            return Ok(self.hi);
        }
        let mass = self.pdf[i] * dx;
        let frac = if mass <= 0.0 {
            0.0
        } else {
            (q - self.cum_mass[i]) / mass
        };
        Ok(self.lo + (i as f64 + frac) * dx)
    }

    /// Sample via inverse-cdf over the discretized density.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let q: f64 = rng.gen();
        self.quantile(q).expect("q in [0,1] by construction")
    }

    /// Fill `out` with inverse-cdf samples — the batched form of
    /// [`DiscreteDensity::sample`] for hot paths that draw many variates
    /// at once into a reusable buffer (no per-call allocation).
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for v in out {
            let q: f64 = rng.gen();
            *v = self.quantile(q).expect("q in [0,1] by construction");
        }
    }

    /// Apply an affine transform `x -> a*x + b` to the random variable.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `a` is zero or
    /// non-finite (the transform must be invertible).
    pub fn affine(&self, a: f64, b: f64) -> crate::Result<Self> {
        if a == 0.0 || !a.is_finite() || !b.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "a",
                value: a,
                expected: "a non-zero finite scale",
            });
        }
        let (lo, hi) = if a > 0.0 {
            (a * self.lo + b, a * self.hi + b)
        } else {
            (a * self.hi + b, a * self.lo + b)
        };
        let mut pdf: Vec<f64> = self.pdf.iter().map(|&p| p / a.abs()).collect();
        if a < 0.0 {
            pdf.reverse();
        }
        DiscreteDensity::new(lo, hi, pdf)
    }

    /// Population mixture of several densities with non-negative weights.
    ///
    /// Used for heterogeneous racks: the aggregate utility density across
    /// application types is the weighted mixture of per-type densities.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `parts` is empty,
    /// [`StatsError::NotNormalized`] when weights sum to zero, and
    /// [`StatsError::InvalidParameter`] for negative weights or `bins == 0`.
    pub fn mixture(parts: &[(&DiscreteDensity, f64)], bins: usize) -> crate::Result<Self> {
        if parts.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if parts.iter().any(|&(_, w)| w < 0.0 || !w.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                value: f64::NAN,
                expected: "non-negative finite weights",
            });
        }
        let total: f64 = parts.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Err(StatsError::NotNormalized { mass: total });
        }
        let lo = parts
            .iter()
            .map(|(d, _)| d.lo)
            .fold(f64::INFINITY, f64::min);
        let hi = parts
            .iter()
            .map(|(d, _)| d.hi)
            .fold(f64::NEG_INFINITY, f64::max);
        DiscreteDensity::from_fn(lo, hi, bins, |x| {
            parts
                .iter()
                .map(|&(d, w)| w / total * d.pdf_at(x))
                .sum::<f64>()
        })
    }

    /// Re-discretize onto a new grid with `bins` bins over `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotNormalized`] when the new grid misses all of
    /// this density's mass, or construction errors for invalid parameters.
    pub fn regrid(&self, lo: f64, hi: f64, bins: usize) -> crate::Result<Self> {
        DiscreteDensity::from_fn(lo, hi, bins, |x| self.pdf_at(x))
    }
}

/// O(1) sampler over a [`DiscreteDensity`], built with Walker's alias
/// method (Vose's stable construction).
///
/// [`DiscreteDensity::sample`] costs an O(log bins) binary search per
/// draw; an alias table answers the same bin-selection question with two
/// array reads, which is what the simulator's per-agent phase-resample
/// kernel needs. A selected bin is then interpolated uniformly, so the
/// sampled law is *exactly* the discretized density — the same law the
/// inverse-cdf path draws from, reached through a different mapping of
/// uniforms to values.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    lo: f64,
    dx: f64,
    /// Acceptance threshold per bin, pre-scaled to `[0, 1)` within the
    /// bin's slice of the uniform.
    prob: Vec<f64>,
    /// Donor bin used when the acceptance test fails.
    alias: Vec<u32>,
}

impl AliasSampler {
    /// Build the alias table for `density` — O(bins) once, O(1) per draw.
    #[must_use]
    pub fn new(density: &DiscreteDensity) -> Self {
        let n = density.len();
        let dx = density.dx();
        // Bin masses scaled so a perfectly uniform density gives 1.0 per
        // bin; construction normalizes, so the total is ~n.
        let scaled: Vec<f64> = density.pdf().iter().map(|&p| p * dx * n as f64).collect();
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        let mut work = scaled;
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = work[s as usize];
            alias[s as usize] = l;
            work[l as usize] = (work[l as usize] + work[s as usize]) - 1.0;
            if work[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are 1.0 up to rounding: accept them outright.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasSampler {
            lo: density.lo(),
            dx,
            prob,
            alias,
        }
    }

    /// Draw one value from two uniforms in `[0, 1)`: `u_bin` selects the
    /// bin through the alias table, `u_pos` places the value uniformly
    /// inside it.
    ///
    /// The acceptance test `frac < prob[j]` is close to a coin flip, so
    /// both candidates are loaded and one is picked with a select rather
    /// than a branch the predictor would miss about half the time.
    #[inline]
    #[must_use]
    pub fn sample(&self, u_bin: f64, u_pos: f64) -> f64 {
        let scaled = u_bin * self.prob.len() as f64;
        let j = (scaled as usize).min(self.prob.len() - 1);
        let frac = scaled - j as f64;
        let bin = std::hint::select_unpredictable(frac < self.prob[j], j, self.alias[j] as usize);
        self.lo + (bin as f64 + u_pos) * self.dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{TruncatedNormal, Uniform};
    use crate::rng::seeded_rng;

    fn uniform_density() -> DiscreteDensity {
        DiscreteDensity::new(0.0, 10.0, vec![1.0; 100]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(DiscreteDensity::new(0.0, 1.0, vec![]).is_err());
        assert!(DiscreteDensity::new(1.0, 0.0, vec![1.0]).is_err());
        assert!(DiscreteDensity::new(0.0, 1.0, vec![-1.0, 2.0]).is_err());
        assert!(matches!(
            DiscreteDensity::new(0.0, 1.0, vec![0.0, 0.0]),
            Err(StatsError::NotNormalized { .. })
        ));
    }

    #[test]
    fn normalizes_to_unit_mass() {
        let d = DiscreteDensity::new(0.0, 2.0, vec![3.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_moments() {
        let d = uniform_density();
        assert!((d.mean() - 5.0).abs() < 1e-9);
        assert!((d.variance() - 100.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn cdf_and_tail_are_complementary() {
        let d = uniform_density();
        for u in [0.0, 1.3, 5.0, 7.77, 10.0] {
            assert!((d.cdf(u) + d.tail_mass(u) - 1.0).abs() < 1e-12);
        }
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.tail_mass(11.0), 0.0);
    }

    #[test]
    fn tail_mass_matches_analytic_uniform() {
        let d = uniform_density();
        assert!((d.tail_mass(7.5) - 0.25).abs() < 1e-9);
        assert!((d.tail_mass(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_expectation_uniform_analytic() {
        // For U(0,10): ∫_u^10 x/10 dx = (100 - u^2)/20.
        let d = uniform_density();
        for u in [0.0, 2.0, 5.0, 9.5] {
            let expected = (100.0 - u * u) / 20.0;
            assert!(
                (d.partial_expectation(u) - expected).abs() < 1e-9,
                "u = {u}"
            );
        }
        assert_eq!(d.partial_expectation(10.0), 0.0);
    }

    #[test]
    fn mean_above_is_conditional_mean() {
        let d = uniform_density();
        // E[X | X > 6] for U(0,10) is 8.
        assert!((d.mean_above(6.0).unwrap() - 8.0).abs() < 1e-9);
        assert!(d.mean_above(10.0).is_none());
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = uniform_density();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let x = d.quantile(q).unwrap();
            assert!((d.cdf(x) - q).abs() < 1e-9, "q = {q}");
        }
        assert!(d.quantile(-0.1).is_err());
    }

    #[test]
    fn from_samples_recovers_shape() {
        let mut rng = seeded_rng(11);
        let dist = TruncatedNormal::new(4.0, 0.5, 3.0, 5.0).unwrap();
        let samples = crate::dist::sample_n(&dist, 50_000, &mut rng);
        let d = DiscreteDensity::from_samples(&samples, 64).unwrap();
        assert!((d.mean() - dist.mean()).abs() < 0.03);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_distribution_matches_cdf() {
        let u = Uniform::new(2.0, 4.0).unwrap();
        let d = DiscreteDensity::from_distribution(&u, 128).unwrap();
        assert!((d.cdf(3.0) - 0.5).abs() < 0.01);
        assert!((d.mean() - 3.0).abs() < 0.01);
    }

    #[test]
    fn from_fn_rejects_zero_function() {
        assert!(matches!(
            DiscreteDensity::from_fn(0.0, 1.0, 8, |_| 0.0),
            Err(StatsError::NotNormalized { .. })
        ));
    }

    #[test]
    fn affine_transform_scales_mean() {
        let d = uniform_density();
        let t = d.affine(2.0, 1.0).unwrap();
        assert!((t.mean() - 11.0).abs() < 1e-9);
        assert!((t.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(t.lo(), 1.0);
        assert_eq!(t.hi(), 21.0);
        assert!(d.affine(0.0, 1.0).is_err());
    }

    #[test]
    fn affine_negative_scale_reverses() {
        let d = DiscreteDensity::new(0.0, 1.0, vec![1.0, 3.0]).unwrap();
        let t = d.affine(-1.0, 0.0).unwrap();
        assert_eq!(t.lo(), -1.0);
        assert_eq!(t.hi(), 0.0);
        // Mass near -1 should correspond to mass near 1 of the original.
        assert!(t.pdf_at(-0.9) > t.pdf_at(-0.1));
    }

    #[test]
    fn mixture_combines_mass() {
        let a = DiscreteDensity::new(0.0, 1.0, vec![1.0; 10]).unwrap();
        let b = DiscreteDensity::new(9.0, 10.0, vec![1.0; 10]).unwrap();
        let m = DiscreteDensity::mixture(&[(&a, 1.0), (&b, 3.0)], 200).unwrap();
        assert!((m.total_mass() - 1.0).abs() < 1e-9);
        // 3/4 of mass in the upper component.
        assert!((m.tail_mass(5.0) - 0.75).abs() < 0.02);
    }

    #[test]
    fn mixture_validates() {
        let a = DiscreteDensity::new(0.0, 1.0, vec![1.0; 4]).unwrap();
        assert!(DiscreteDensity::mixture(&[], 10).is_err());
        assert!(DiscreteDensity::mixture(&[(&a, -1.0)], 10).is_err());
        assert!(DiscreteDensity::mixture(&[(&a, 0.0)], 10).is_err());
    }

    #[test]
    fn sampling_matches_density() {
        let d = DiscreteDensity::new(0.0, 1.0, vec![1.0, 3.0]).unwrap();
        let mut rng = seeded_rng(21);
        let n = 20_000;
        let high = (0..n).filter(|_| d.sample(&mut rng) > 0.5).count() as f64 / n as f64;
        assert!((high - 0.75).abs() < 0.02);
    }

    #[test]
    fn masses_sum_to_one() {
        let d = DiscreteDensity::new(0.0, 3.0, vec![0.5, 2.0, 1.0]).unwrap();
        let total: f64 = d.masses().map(|(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let centers: Vec<f64> = d.masses().map(|(x, _)| x).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn serde_round_trip_preserves_density() {
        let d = DiscreteDensity::new(1.0, 5.0, vec![0.5, 2.0, 1.0, 0.25]).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: DiscreteDensity = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn serde_rejects_invalid_payloads() {
        // Negative density values must not deserialize.
        let bad = r#"{"lo": 0.0, "hi": 1.0, "pdf": [-1.0, 2.0]}"#;
        assert!(serde_json::from_str::<DiscreteDensity>(bad).is_err());
        // Inverted range must not deserialize.
        let bad = r#"{"lo": 2.0, "hi": 1.0, "pdf": [1.0]}"#;
        assert!(serde_json::from_str::<DiscreteDensity>(bad).is_err());
    }

    #[test]
    fn serde_renormalizes_unnormalized_input() {
        // A well-formed but unnormalized pdf is accepted and normalized,
        // matching `DiscreteDensity::new`.
        let raw = r#"{"lo": 0.0, "hi": 2.0, "pdf": [3.0, 3.0]}"#;
        let d: DiscreteDensity = serde_json::from_str(raw).unwrap();
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    /// The pre-table O(n) cdf scan, kept as the reference implementation.
    fn naive_cdf(d: &DiscreteDensity, x: f64) -> f64 {
        if x <= d.lo() {
            return 0.0;
        }
        if x >= d.hi() {
            return 1.0;
        }
        let dx = d.dx();
        let pos = (x - d.lo()) / dx;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        let mut acc = 0.0;
        for &p in &d.pdf()[..full] {
            acc += p * dx;
        }
        acc + d.pdf()[full] * frac * dx
    }

    /// The pre-table O(n) partial-expectation scan.
    fn naive_partial_expectation(d: &DiscreteDensity, u: f64) -> f64 {
        if u >= d.hi() {
            return 0.0;
        }
        let u = u.max(d.lo());
        let dx = d.dx();
        let pos = (u - d.lo()) / dx;
        let first = (pos.floor() as usize).min(d.len() - 1);
        let right = d.lo() + (first as f64 + 1.0) * dx;
        let mut acc = d.pdf()[first] * 0.5 * (right * right - u * u);
        for (i, &p) in d.pdf().iter().enumerate().skip(first + 1) {
            let l = d.lo() + i as f64 * dx;
            let r = l + dx;
            acc += p * 0.5 * (r * r - l * l);
        }
        acc
    }

    /// The pre-table O(n) quantile scan.
    fn naive_quantile(d: &DiscreteDensity, q: f64) -> f64 {
        let dx = d.dx();
        let mut acc = 0.0;
        for (i, &p) in d.pdf().iter().enumerate() {
            let mass = p * dx;
            if acc + mass >= q {
                let frac = if mass <= 0.0 { 0.0 } else { (q - acc) / mass };
                return d.lo() + (i as f64 + frac) * dx;
            }
            acc += mass;
        }
        d.hi()
    }

    #[test]
    fn prefix_tables_match_naive_scans_on_random_densities() {
        // Property test: across 40 randomized densities (random support,
        // bin count, spiky values including exact-zero bins), the table
        // kernels agree with the naive O(n) scans — bitwise for cdf and
        // quantile (identical accumulation order), and to tight relative
        // tolerance for the suffix-summed partial expectation.
        let mut rng = seeded_rng(0x5EED_D155);
        for case in 0..40 {
            let lo = rng.gen::<f64>() * 10.0 - 5.0;
            let hi = lo + 0.1 + rng.gen::<f64>() * 20.0;
            let bins = 1 + (rng.gen::<f64>() * 300.0) as usize;
            let values: Vec<f64> = (0..bins)
                .map(|_| {
                    if rng.gen::<f64>() < 0.2 {
                        0.0
                    } else {
                        rng.gen::<f64>() * 3.0
                    }
                })
                .collect();
            let Ok(d) = DiscreteDensity::new(lo, hi, values) else {
                continue; // all-zero draw: invalid by construction
            };
            for _ in 0..50 {
                let x = lo - 1.0 + rng.gen::<f64>() * (hi - lo + 2.0);
                let fast = d.cdf(x);
                let slow = naive_cdf(&d, x);
                assert_eq!(fast.to_bits(), slow.to_bits(), "cdf case {case} x={x}");

                let fast = d.partial_expectation(x);
                let slow = naive_partial_expectation(&d, x);
                let tol = 1e-12 * slow.abs().max(1.0);
                assert!(
                    (fast - slow).abs() <= tol,
                    "partial_expectation case {case} x={x}: {fast} vs {slow}"
                );

                let q = rng.gen::<f64>();
                let fast = d.quantile(q).unwrap();
                let slow = naive_quantile(&d, q);
                assert_eq!(fast.to_bits(), slow.to_bits(), "quantile case {case} q={q}");
            }
            // Boundary probabilities too.
            for q in [0.0, 1.0] {
                assert_eq!(
                    d.quantile(q).unwrap().to_bits(),
                    naive_quantile(&d, q).to_bits()
                );
            }
        }
    }

    #[test]
    fn sample_many_matches_sequential_sampling() {
        let d = DiscreteDensity::new(0.0, 1.0, vec![1.0, 3.0, 0.5, 2.0]).unwrap();
        let mut a = seeded_rng(77);
        let mut b = seeded_rng(77);
        let mut batch = [0.0f64; 64];
        d.sample_many(&mut a, &mut batch);
        for (i, &x) in batch.iter().enumerate() {
            assert_eq!(x.to_bits(), d.sample(&mut b).to_bits(), "draw {i}");
        }
    }

    #[test]
    fn regrid_preserves_moments() {
        let d = uniform_density();
        let r = d.regrid(-5.0, 15.0, 400).unwrap();
        assert!((r.mean() - 5.0).abs() < 0.05);
        assert!((r.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alias_sampler_reproduces_bin_masses() {
        let d = DiscreteDensity::new(0.0, 4.0, vec![1.0, 3.0, 0.5, 2.0]).unwrap();
        let a = AliasSampler::new(&d);
        // Sweep a fine deterministic grid of bin-selection uniforms; the
        // empirical bin frequencies must converge on the bin masses.
        let trials = 200_000usize;
        let mut counts = [0usize; 4];
        for t in 0..trials {
            let u_bin = (t as f64 + 0.5) / trials as f64;
            let x = a.sample(u_bin, 0.5);
            counts[((x / 1.0).floor() as usize).min(3)] += 1;
        }
        let total: f64 = 1.0 + 3.0 + 0.5 + 2.0;
        for (i, &c) in counts.iter().enumerate() {
            let expect = [1.0, 3.0, 0.5, 2.0][i] / total;
            let got = c as f64 / trials as f64;
            assert!((got - expect).abs() < 2e-3, "bin {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn alias_sampler_interpolates_within_bin() {
        let d = DiscreteDensity::new(2.0, 3.0, vec![1.0]).unwrap();
        let a = AliasSampler::new(&d);
        assert!((a.sample(0.0, 0.0) - 2.0).abs() < 1e-12);
        assert!((a.sample(0.999_999, 0.5) - 2.5).abs() < 1e-6);
        let x = a.sample(0.3, 0.75);
        assert!((x - 2.75).abs() < 1e-12, "single bin: position is u_pos");
    }

    #[test]
    fn alias_sampler_matches_quantile_law() {
        // The alias sample and the interpolated inverse cdf are different
        // mappings of uniforms onto the same discretized law: compare
        // their empirical means over dense deterministic grids.
        let d = DiscreteDensity::new(-1.0, 5.0, vec![0.2, 1.4, 2.0, 0.7, 0.1, 0.9]).unwrap();
        let a = AliasSampler::new(&d);
        let trials = 100_000usize;
        let mean_alias: f64 = (0..trials)
            .map(|t| a.sample((t as f64 + 0.5) / trials as f64, 0.5))
            .sum::<f64>()
            / trials as f64;
        let mean_q: f64 = (0..trials)
            .map(|t| d.quantile((t as f64 + 0.5) / trials as f64).unwrap())
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean_alias - mean_q).abs() < 5e-3,
            "{mean_alias} vs {mean_q}"
        );
    }

    #[test]
    fn alias_select_matches_the_branching_formula() {
        // The reference: the acceptance test written as a branch.
        fn branching(a: &AliasSampler, u_bin: f64, u_pos: f64) -> f64 {
            let scaled = u_bin * a.prob.len() as f64;
            let j = (scaled as usize).min(a.prob.len() - 1);
            let frac = scaled - j as f64;
            let bin = if frac < a.prob[j] {
                j
            } else {
                a.alias[j] as usize
            };
            a.lo + (bin as f64 + u_pos) * a.dx
        }
        let same = |a: &AliasSampler, u_bin: f64, u_pos: f64| {
            assert_eq!(
                a.sample(u_bin, u_pos).to_bits(),
                branching(a, u_bin, u_pos).to_bits(),
                "u_bin {u_bin}, u_pos {u_pos}"
            );
        };
        let bumpy = DiscreteDensity::from_fn(0.0, 8.0, 1000, |x| 1.2 + (3.0 * x).sin()).unwrap();
        let a = AliasSampler::new(&bumpy);
        let mut rng = seeded_rng(0xA11A5);
        for _ in 0..1_000_000 {
            same(&a, rng.gen::<f64>(), rng.gen::<f64>());
        }
        // Exactly at the acceptance boundary `frac == prob[j]`, where the
        // branch takes the alias. Four bins and dyadic masses keep
        // `u_bin * 4` and `j + prob[j]` exact.
        let dyadic =
            AliasSampler::new(&DiscreteDensity::new(0.0, 4.0, vec![1.0, 3.0, 1.0, 3.0]).unwrap());
        for j in 0..4 {
            let scaled = j as f64 + dyadic.prob[j];
            assert_eq!(
                scaled - j as f64,
                dyadic.prob[j],
                "bin {j} boundary is exact"
            );
            if scaled < 4.0 {
                same(&dyadic, scaled / 4.0, 0.25);
            }
        }
        assert!(
            dyadic.prob.iter().any(|&p| p < 1.0),
            "some bin has an alias"
        );
        // The top of the unit interval, where `j` is clamped to the last bin.
        for s in [&a, &dyadic] {
            for u_pos in [0.0, 0.5, 1.0f64.next_down()] {
                same(s, 1.0f64.next_down(), u_pos);
            }
        }
    }
}

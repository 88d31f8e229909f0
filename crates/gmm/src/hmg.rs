//! Harmonic-Mean-of-Gaussian (HMG) kernels and mixtures.
//!
//! The switching current of the paper's multi-input inverter composes
//! per-axis Gaussian-like bells through a harmonic combination
//! `1/(1/g₁ + 1/g₂ + 1/g₃)` — *not* through the product that would yield a
//! multivariate Gaussian. The co-design insight of Section II is to learn
//! the 3-D map directly in this hardware-native family, so that likelihood
//! evaluation becomes a single analog read.
//!
//! This module defines the mathematical kernel ([`HmgKernel`]), mixtures of
//! it ([`HmgmModel`]) and a responsibility-reweighting fitter seeded from a
//! diagonal GMM ([`fit_hmgm`]).

use crate::fit::{fit_diag_gmm, FitConfig};
use crate::prune::{PruneConfig, PruneIndex, PruneScratch, PRUNE_TILE};
use crate::{check_dims, GmmError, Result};
use navicim_backend::{check_batch_shape, LikelihoodBackend, PointBatch};
use navicim_math::rng::Rng64;
use navicim_math::simd::{exp_fast, F64x4, LANES};

/// One Harmonic-Mean-of-Gaussian kernel.
///
/// Each axis `i` carries an unnormalized Gaussian
/// `gᵢ(x) = exp(−(xᵢ−μᵢ)²/(2σᵢ²))`; the kernel value is the harmonic mean
/// `d / Σᵢ 1/gᵢ(x)` scaled by `amplitude`, so the peak value equals
/// `amplitude` at `x = μ`.
///
/// ```
/// use navicim_gmm::hmg::HmgKernel;
/// let k = HmgKernel::new(vec![0.0, 0.0], vec![1.0, 1.0], 2.0).unwrap();
/// assert!((k.eval(&[0.0, 0.0]) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HmgKernel {
    means: Vec<f64>,
    sigmas: Vec<f64>,
    amplitude: f64,
}

impl HmgKernel {
    /// Creates a kernel from per-axis means and sigmas and a peak
    /// amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] for empty/mismatched
    /// parameters, non-positive sigmas or a non-positive amplitude.
    pub fn new(means: Vec<f64>, sigmas: Vec<f64>, amplitude: f64) -> Result<Self> {
        if means.is_empty() || means.len() != sigmas.len() {
            return Err(GmmError::InvalidArgument(
                "means and sigmas must have the same non-zero length".into(),
            ));
        }
        if sigmas.iter().any(|&s| !(s > 0.0) || !s.is_finite()) {
            return Err(GmmError::InvalidArgument("sigmas must be positive".into()));
        }
        if !(amplitude > 0.0) || !amplitude.is_finite() {
            return Err(GmmError::InvalidArgument(
                "amplitude must be positive".into(),
            ));
        }
        Ok(Self {
            means,
            sigmas,
            amplitude,
        })
    }

    /// Kernel dimensionality.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Per-axis means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-axis sigmas.
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Peak amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Per-axis Gaussian factor `gᵢ(xᵢ)` (in `(0, 1]`).
    ///
    /// Uses [`exp_fast`] — the same exponential the 4-wide lane path
    /// applies — so scalar and vectorized evaluation stay bit-identical
    /// (the whole digital HMG path carries `exp_fast`'s documented
    /// ulp-bounded tolerance relative to a `f64::exp` reference).
    pub fn axis_factor(&self, axis: usize, x: f64) -> f64 {
        let z = (x - self.means[axis]) / self.sigmas[axis];
        exp_fast(-0.5 * z * z)
    }

    /// Evaluates the kernel at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel dimension.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let d = self.dim() as f64;
        let mut inv_sum = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let g = self.axis_factor(i, xi).max(1e-300);
            inv_sum += 1.0 / g;
        }
        self.amplitude * d / inv_sum
    }

    /// Evaluates the corresponding *product* (true multivariate Gaussian)
    /// kernel at `x`, used for tail-shape comparisons (paper Fig. 2(c,d)).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel dimension.
    pub fn eval_product(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let mut prod = self.amplitude;
        for (i, &xi) in x.iter().enumerate() {
            prod *= self.axis_factor(i, xi);
        }
        prod
    }
}

/// A mixture of HMG kernels: the co-designed map model of Section II.
#[derive(Debug, Clone)]
pub struct HmgmModel {
    weights: Vec<f64>,
    kernels: Vec<HmgKernel>,
    /// Spatial culling index for the batch paths; `None` (the default)
    /// keeps every evaluation path untouched. See [`crate::prune`].
    prune: Option<PruneIndex>,
    /// Reused lane/pruning scratch for the batch path, so a warmed model
    /// evaluates frames without touching the heap.
    scratch: HmgScratch,
}

/// Reused per-evaluation buffers of the HMGM batch kernel: transposed
/// axis lanes plus the pruning tile scratch. Held by the model so the
/// batch path is allocation-free once warmed.
#[derive(Debug, Clone, Default)]
struct HmgScratch {
    xs4: Vec<F64x4>,
    prune: PruneScratch,
}

/// Equality is over the model parameters (and the pruning index derived
/// from them): `scratch` is evaluation state and cannot distinguish
/// models.
impl PartialEq for HmgmModel {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights && self.kernels == other.kernels && self.prune == other.prune
    }
}

impl HmgmModel {
    /// Assembles a mixture from weights and kernels.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] for mismatched lengths,
    /// negative weights or inconsistent kernel dimensions.
    pub fn new(weights: Vec<f64>, kernels: Vec<HmgKernel>) -> Result<Self> {
        if weights.is_empty() || weights.len() != kernels.len() {
            return Err(GmmError::InvalidArgument(
                "weights and kernels must have the same non-zero length".into(),
            ));
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(GmmError::InvalidArgument(
                "weights must be non-negative".into(),
            ));
        }
        let dim = kernels[0].dim();
        if kernels.iter().any(|k| k.dim() != dim) {
            return Err(GmmError::InconsistentDimensions);
        }
        Ok(Self {
            weights,
            kernels,
            prune: None,
            scratch: HmgScratch::default(),
        })
    }

    /// Enables (or, with a disabled config, clears) spatial component
    /// pruning for the batch paths. With pruning active, batch results
    /// carry the documented additive [`crate::prune::PRUNE_EPSILON`]
    /// tolerance; disabled (the default) they are bit-identical to a
    /// model that never saw this call.
    pub fn set_prune(&mut self, config: PruneConfig) {
        self.prune = PruneIndex::for_hmgm(self, config);
    }

    /// The active pruning index, if any.
    pub fn prune_index(&self) -> Option<&PruneIndex> {
        self.prune.as_ref()
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.kernels.len()
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.kernels[0].dim()
    }

    /// Mixture weights (unnormalized: analog currents add directly).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mixture kernels.
    pub fn kernels(&self) -> &[HmgKernel] {
        &self.kernels
    }

    /// Unnormalized mixture likelihood `Σₖ wₖ hₖ(x)`.
    ///
    /// Unlike a GMM density this does not integrate to one — it models the
    /// total column current of the inverter array, which is proportional to
    /// the map likelihood. Particle-filter weights are normalized
    /// downstream, so only relative values matter.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model dimension.
    pub fn likelihood(&self, x: &[f64]) -> f64 {
        // Fused multiply-add accumulation, mirrored exactly by the
        // 4-wide lane path so batch and scalar evaluation agree bitwise.
        let mut total = 0.0;
        for (w, k) in self.weights.iter().zip(&self.kernels) {
            total = w.mul_add(k.eval(x), total);
        }
        total
    }

    /// Natural log of [`Self::likelihood`], floored to stay finite.
    pub fn log_likelihood(&self, x: &[f64]) -> f64 {
        self.likelihood(x).max(1e-300).ln()
    }

    /// Log-likelihood of four points at once through explicit f64 lanes.
    ///
    /// `flat` holds exactly four consecutive row-major points (`4 × dim`
    /// doubles). Each lane applies the operation sequence of the scalar
    /// [`Self::log_likelihood`] verbatim — same `exp_fast` axis factors,
    /// same `1e-300` floors, same fused multiply-add mixture
    /// accumulation — so every lane result is bit-identical to scoring
    /// that point alone. This is what lets the batched
    /// [`LikelihoodBackend`] impl group points freely without observable
    /// effect.
    fn log_likelihood4(&self, flat: &[f64], xs4: &mut Vec<F64x4>) -> [f64; LANES] {
        let dim = self.dim();
        debug_assert_eq!(flat.len(), LANES * dim);
        // Transpose once: axis i of each of the four points, reused by
        // every kernel.
        xs4.clear();
        for i in 0..dim {
            xs4.push(F64x4::new([
                flat[i],
                flat[dim + i],
                flat[2 * dim + i],
                flat[3 * dim + i],
            ]));
        }
        let mut total = F64x4::splat(0.0);
        for (w, k) in self.weights.iter().zip(&self.kernels) {
            let peak = F64x4::splat(k.amplitude * dim as f64);
            let mut inv_sum = F64x4::splat(0.0);
            for i in 0..dim {
                let z = (xs4[i] - F64x4::splat(k.means[i])) / F64x4::splat(k.sigmas[i]);
                let g = (F64x4::splat(-0.5) * z * z).exp().max(F64x4::splat(1e-300));
                inv_sum = inv_sum + F64x4::splat(1.0) / g;
            }
            total = F64x4::splat(*w).mul_add(peak / inv_sum, total);
        }
        let mut out = [0.0; LANES];
        for (lane, o) in out.iter_mut().enumerate() {
            *o = total.lane(lane).max(1e-300).ln();
        }
        out
    }

    /// [`Self::log_likelihood`] restricted to the candidate kernels of a
    /// pruned tile (ascending ids): the identical per-kernel math and
    /// fused accumulation over fewer terms. The dropped terms are bounded
    /// below the survivors by the prune margin, so the result differs
    /// from the full evaluation by at most
    /// [`crate::prune::PRUNE_EPSILON`] nats.
    pub fn log_likelihood_subset(&self, x: &[f64], cands: &[u32]) -> f64 {
        let mut total = 0.0;
        for &j in cands {
            let j = j as usize;
            total = self.weights[j].mul_add(self.kernels[j].eval(x), total);
        }
        total.max(1e-300).ln()
    }

    /// [`Self::log_likelihood4`] restricted to candidate kernels — the
    /// lane path of [`Self::log_likelihood_subset`], bit-identical to it
    /// per point.
    fn log_likelihood4_subset(
        &self,
        flat: &[f64],
        cands: &[u32],
        xs4: &mut Vec<F64x4>,
    ) -> [f64; LANES] {
        let dim = self.dim();
        debug_assert_eq!(flat.len(), LANES * dim);
        xs4.clear();
        for i in 0..dim {
            xs4.push(F64x4::new([
                flat[i],
                flat[dim + i],
                flat[2 * dim + i],
                flat[3 * dim + i],
            ]));
        }
        let mut total = F64x4::splat(0.0);
        for &j in cands {
            let j = j as usize;
            let (w, k) = (&self.weights[j], &self.kernels[j]);
            let peak = F64x4::splat(k.amplitude * dim as f64);
            let mut inv_sum = F64x4::splat(0.0);
            for i in 0..dim {
                let z = (xs4[i] - F64x4::splat(k.means[i])) / F64x4::splat(k.sigmas[i]);
                let g = (F64x4::splat(-0.5) * z * z).exp().max(F64x4::splat(1e-300));
                inv_sum = inv_sum + F64x4::splat(1.0) / g;
            }
            total = F64x4::splat(*w).mul_add(peak / inv_sum, total);
        }
        let mut out = [0.0; LANES];
        for (lane, o) in out.iter_mut().enumerate() {
            *o = total.lane(lane).max(1e-300).ln();
        }
        out
    }
}

impl HmgmModel {
    /// Evaluates the whole batch in tiles. With a prune index, each tile
    /// is [`PRUNE_TILE`] points anchored at batch index 0 that share one
    /// candidate query, so the pruning decision — and therefore the
    /// output bits — depend only on the batch; a tile holding a
    /// non-finite coordinate gets every kernel, bit-identical to the
    /// unpruned path. Without one, the batch is a single tile over every
    /// kernel. Lane math is per-point identical to
    /// [`Self::log_likelihood`], so the grouping yields the same bits.
    fn eval_batch(
        &self,
        index: Option<&PruneIndex>,
        batch: &PointBatch,
        out: &mut [f64],
        s: &mut HmgScratch,
    ) {
        let n = out.len();
        let tile = if index.is_some() {
            PRUNE_TILE
        } else {
            n.max(1)
        };
        for tile_lo in (0..n).step_by(tile) {
            let tile_hi = (tile_lo + tile).min(n);
            let cands = match index {
                Some(index) => index.candidates_for_points(
                    batch.flat_range(tile_lo, tile_hi),
                    &[],
                    &mut s.prune,
                ),
                None => None,
            };
            let mut offset = tile_lo;
            while offset + LANES <= tile_hi {
                let flat = batch.flat_range(offset, offset + LANES);
                let four = match cands {
                    Some(cands) => self.log_likelihood4_subset(flat, cands, &mut s.xs4),
                    None => self.log_likelihood4(flat, &mut s.xs4),
                };
                out[offset..offset + LANES].copy_from_slice(&four);
                offset += LANES;
            }
            for i in offset..tile_hi {
                out[i] = match cands {
                    Some(cands) => self.log_likelihood_subset(batch.point(i), cands),
                    None => self.log_likelihood(batch.point(i)),
                };
            }
        }
    }
}

impl LikelihoodBackend for HmgmModel {
    fn dim(&self) -> usize {
        HmgmModel::dim(self)
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        check_batch_shape(HmgmModel::dim(self), batch, out);
        // One sequential pass through the struct-held scratch —
        // allocation-free once the buffers have grown to the model
        // dimension.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.eval_batch(self.prune.as_ref(), batch, out, &mut scratch);
        self.scratch = scratch;
    }
}

/// Configuration of the HMGM fitter.
#[derive(Debug, Clone, PartialEq)]
pub struct HmgmFitConfig {
    /// Configuration of the GMM warm start.
    pub gmm: FitConfig,
    /// Responsibility-reweighting refinement rounds on the HMG family.
    pub refine_iters: usize,
    /// Sigma floor, matching the narrowest kernel the hardware can
    /// realize.
    pub sigma_floor: f64,
    /// Optional sigma ceiling imposed by the device's conduction window
    /// (`None` = unconstrained).
    pub sigma_ceiling: Option<f64>,
    /// Optional per-axis floors overriding `sigma_floor` (voltage scales
    /// differ per axis on real arrays).
    pub sigma_floor_axes: Option<Vec<f64>>,
    /// Optional per-axis ceilings overriding `sigma_ceiling`.
    pub sigma_ceiling_axes: Option<Vec<f64>>,
}

impl Default for HmgmFitConfig {
    fn default() -> Self {
        Self {
            gmm: FitConfig::default(),
            refine_iters: 10,
            sigma_floor: 1e-3,
            sigma_ceiling: None,
            sigma_floor_axes: None,
            sigma_ceiling_axes: None,
        }
    }
}

/// Fits an HMG mixture to data: diagonal-GMM warm start followed by
/// responsibility reweighting in the HMG family.
///
/// The refinement computes responsibilities with the HMG kernels themselves
/// (`r_nk ∝ w_k h_k(x_n)`) and re-estimates means/sigmas/weights from them —
/// the approximate EM used because HMG kernels lack a closed-form
/// normalizer. Hardware constraints enter through the sigma floor/ceiling.
///
/// # Errors
///
/// Propagates warm-start errors.
pub fn fit_hmgm<R: Rng64 + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    config: &HmgmFitConfig,
    rng: &mut R,
) -> Result<HmgmModel> {
    let dim = check_dims(points)?;
    let gmm = fit_diag_gmm(points, k, &config.gmm, rng)?;
    let sds = gmm
        .diag_std_devs()
        .expect("fit_diag_gmm returns diagonal models");

    let clamp_sigma = |s: f64, axis: usize| {
        let floor = config
            .sigma_floor_axes
            .as_ref()
            .and_then(|f| f.get(axis).copied())
            .unwrap_or(config.sigma_floor);
        let ceiling = config
            .sigma_ceiling_axes
            .as_ref()
            .and_then(|c| c.get(axis).copied())
            .or(config.sigma_ceiling);
        let s = s.max(floor);
        match ceiling {
            Some(c) => s.min(c.max(floor)),
            None => s,
        }
    };

    let mut weights = gmm.weights().to_vec();
    let mut means = gmm.means().to_vec();
    let mut sigmas: Vec<Vec<f64>> = sds
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(axis, &s)| clamp_sigma(s, axis))
                .collect()
        })
        .collect();

    let n = points.len();
    for _round in 0..config.refine_iters {
        let kernels: Vec<HmgKernel> = (0..k)
            .map(|j| {
                HmgKernel::new(means[j].clone(), sigmas[j].clone(), 1.0)
                    .expect("parameters kept valid by clamping")
            })
            .collect();
        // Responsibilities under the HMG kernels.
        let mut resp = vec![vec![0.0f64; k]; n];
        for (i, p) in points.iter().enumerate() {
            let mut total = 0.0;
            for j in 0..k {
                let v = weights[j] * kernels[j].eval(p);
                resp[i][j] = v;
                total += v;
            }
            if total > 0.0 {
                for j in 0..k {
                    resp[i][j] /= total;
                }
            } else {
                // Point far from every kernel: uniform responsibility.
                for j in 0..k {
                    resp[i][j] = 1.0 / k as f64;
                }
            }
        }
        // Reweighted parameter updates.
        for j in 0..k {
            let nk: f64 = (0..n).map(|i| resp[i][j]).sum();
            if nk < 1e-9 {
                continue; // keep the previous parameters for starved kernels
            }
            weights[j] = nk / n as f64;
            for d in 0..dim {
                // lint: reduction-order point-index order, matching the scalar EM update
                let mu: f64 = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| resp[i][j] * p[d])
                    .sum::<f64>()
                    / nk;
                means[j][d] = mu;
                // lint: reduction-order point-index order, matching the scalar EM update
                let var: f64 = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| resp[i][j] * (p[d] - mu) * (p[d] - mu))
                    .sum::<f64>()
                    / nk;
                sigmas[j][d] = clamp_sigma(var.sqrt(), d);
            }
        }
    }

    let kernels: Vec<HmgKernel> = (0..k)
        .map(|j| {
            HmgKernel::new(means[j].clone(), sigmas[j].clone(), 1.0)
                .expect("parameters kept valid by clamping")
        })
        .collect();
    HmgmModel::new(weights, kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn kernel2d() -> HmgKernel {
        HmgKernel::new(vec![0.0, 0.0], vec![1.0, 1.0], 1.0).unwrap()
    }

    #[test]
    fn kernel_validation() {
        assert!(HmgKernel::new(vec![], vec![], 1.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![0.0], 1.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![1.0], 0.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn peak_at_mean_equals_amplitude() {
        let k = HmgKernel::new(vec![1.0, -2.0, 0.5], vec![0.3, 0.4, 0.5], 3.5).unwrap();
        assert!(approx_eq(k.eval(&[1.0, -2.0, 0.5]), 3.5, 1e-12));
    }

    #[test]
    fn kernel_decays_from_mean() {
        let k = kernel2d();
        let peak = k.eval(&[0.0, 0.0]);
        assert!(k.eval(&[0.5, 0.0]) < peak);
        assert!(k.eval(&[1.0, 1.0]) < k.eval(&[0.5, 0.5]));
    }

    #[test]
    fn hmg_equals_gaussian_in_1d() {
        // With a single axis, harmonic mean of one factor is the factor.
        let k = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let g = f64::exp(-0.5 * x * x);
            assert!(approx_eq(k.eval(&[x]), g, 1e-12));
        }
    }

    #[test]
    fn hmg_tails_heavier_than_product() {
        // h = 2 g₁g₂/(g₁+g₂) and p = g₁g₂, so h/p = 2/(g₁+g₂) ≥ 1: the HMG
        // tail always sits above the product-Gaussian tail, and the excess
        // is largest on the diagonal where both factors are small.
        let k = kernel2d();
        let axis = [3.0, 0.0];
        let diag = [3.0 / 2f64.sqrt(), 3.0 / 2f64.sqrt()];
        assert!(k.eval(&axis) > k.eval_product(&axis));
        assert!(k.eval(&diag) > k.eval_product(&diag));
        let ratio_axis = k.eval(&axis) / k.eval_product(&axis);
        let ratio_diag = k.eval(&diag) / k.eval_product(&diag);
        assert!(ratio_diag > ratio_axis);
    }

    #[test]
    fn rectilinear_contours() {
        // The harmonic mean acts like a min: {h > L} ≈ {|x| < r} ∩ {|y| < r},
        // a rectangle. Its iso-contours therefore bulge toward the corners —
        // the diagonal crossing sits up to √2 farther out than the axis
        // crossing, unlike a Gaussian's circular contour (equal radii).
        // This is the paper's Fig. 2(c,d) "rectilinear tails" observation.
        let k = kernel2d();
        let level = k.eval(&[3.0, 0.0]); // contour through (3, 0)
                                         // Find the diagonal crossing of the same level.
        let mut r = 0.0;
        while k.eval(&[r / 2f64.sqrt(), r / 2f64.sqrt()]) > level {
            r += 0.01;
        }
        assert!(
            r > 3.0 * 1.2 && r < 3.0 * 2f64.sqrt(),
            "diagonal crossing {r} should push out toward the square corner"
        );
        // The product (true Gaussian) contour crosses the diagonal at the
        // same radius as the axis — circular.
        let plevel = k.eval_product(&[3.0, 0.0]);
        let mut rp = 0.0;
        while k.eval_product(&[rp / 2f64.sqrt(), rp / 2f64.sqrt()]) > plevel {
            rp += 0.01;
        }
        assert!((rp - 3.0).abs() < 0.05, "gaussian contour radius {rp}");
    }

    #[test]
    fn mixture_likelihood_sums_components() {
        let k1 = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![5.0], vec![1.0], 1.0).unwrap();
        let m = HmgmModel::new(vec![2.0, 1.0], vec![k1.clone(), k2.clone()]).unwrap();
        let x = [1.0];
        assert!(approx_eq(
            m.likelihood(&x),
            2.0 * k1.eval(&x) + k2.eval(&x),
            1e-12
        ));
    }

    #[test]
    fn mixture_validation() {
        let k1 = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![0.0, 1.0], vec![1.0, 1.0], 1.0).unwrap();
        assert!(HmgmModel::new(vec![1.0], vec![]).is_err());
        assert!(HmgmModel::new(vec![-1.0], vec![k1.clone()]).is_err());
        assert!(HmgmModel::new(vec![1.0, 1.0], vec![k1, k2]).is_err());
    }

    #[test]
    fn fit_recovers_blob_locations() {
        let mut rng = Pcg32::seed_from_u64(1);
        let mut pts = Vec::new();
        for _ in 0..300 {
            pts.push(vec![
                rng.sample_normal(-1.0, 0.2),
                rng.sample_normal(0.0, 0.2),
            ]);
            pts.push(vec![
                rng.sample_normal(2.0, 0.3),
                rng.sample_normal(3.0, 0.3),
            ]);
        }
        let mut rng2 = Pcg32::seed_from_u64(2);
        let model = fit_hmgm(&pts, 2, &HmgmFitConfig::default(), &mut rng2).unwrap();
        let mut means: Vec<&[f64]> = model.kernels().iter().map(|k| k.means()).collect();
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((means[0][0] + 1.0).abs() < 0.2, "{means:?}");
        assert!((means[1][0] - 2.0).abs() < 0.2, "{means:?}");
        // Likelihood is highest at blob centers.
        assert!(model.likelihood(&[-1.0, 0.0]) > model.likelihood(&[0.5, 1.5]));
        assert!(model.likelihood(&[2.0, 3.0]) > model.likelihood(&[0.5, 1.5]));
    }

    #[test]
    fn sigma_ceiling_respected() {
        let mut rng = Pcg32::seed_from_u64(3);
        let pts: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.sample_normal(0.0, 2.0)])
            .collect();
        let config = HmgmFitConfig {
            sigma_ceiling: Some(0.5),
            ..HmgmFitConfig::default()
        };
        let mut rng2 = Pcg32::seed_from_u64(4);
        let model = fit_hmgm(&pts, 2, &config, &mut rng2).unwrap();
        for k in model.kernels() {
            for &s in k.sigmas() {
                assert!(s <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn log_likelihood_finite_everywhere() {
        let k = kernel2d();
        let m = HmgmModel::new(vec![1.0], vec![k]).unwrap();
        assert!(m.log_likelihood(&[100.0, -100.0]).is_finite());
    }

    #[test]
    fn batch_path_matches_scalar_and_split_calls() {
        let k1 = HmgKernel::new(vec![0.0, 0.0], vec![1.0, 1.0], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![2.0, -1.0], vec![0.5, 0.8], 2.0).unwrap();
        let mut m = HmgmModel::new(vec![2.0, 1.0], vec![k1, k2]).unwrap();
        let mut rng = Pcg32::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..11)
            .map(|_| vec![rng.sample_normal(0.5, 1.5), rng.sample_normal(-0.5, 1.5)])
            .collect();
        let batch = PointBatch::from_rows(2, &rows);
        let mut whole = vec![0.0; 11];
        m.log_likelihood_into(&batch, &mut whole);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.log_likelihood(row), whole[i], "point {i}");
        }
        // Split calls (a lane group, then a ragged tail) ≡ one call.
        let mut split = vec![0.0; 11];
        m.log_likelihood_into(&PointBatch::from_rows(2, &rows[..5]), &mut split[..5]);
        m.log_likelihood_into(&PointBatch::from_rows(2, &rows[5..]), &mut split[5..]);
        assert_eq!(split, whole);
    }
}

//! The end-to-end analog likelihood engine.
//!
//! [`HmgmCimEngine`] programs a fitted HMG mixture onto a [`CimArray`] and
//! serves log-likelihood queries through the DAC → array → log-ADC chain,
//! while counting the operations the energy model needs.
//!
//! The engine is split into two layers so many sessions can share one
//! fabricated substrate:
//!
//! - [`CimCompute`] is the immutable compiled fabric (array, DACs, ADC,
//!   space map, noise model, code LUT) held behind an `Arc`. It is `Sync`
//!   and evaluates batches purely — every mutable bit of an evaluation
//!   (noise index, counters) is passed in.
//! - [`HmgmCimEngine`] is one *session* over that fabric: it owns the
//!   counter-based [`NoiseStream`] cursor and the [`EngineStats`], and
//!   evaluates every batch from its own cursor.
//!   [`HmgmCimEngine::fork_session`] spawns additional sessions that share
//!   the `Arc`'d fabric, so a fleet of agents runs on one substrate with
//!   each session bit-identical to a solo engine.

use std::sync::Arc;

use crate::adc::LogAdc;
use crate::array::{calibrate_overlap, device_sigma_range, CimArray, CimColumn};
use crate::dac::Dac;
use crate::mapping::SpaceMap;
use crate::{AnalogError, Result};
use navicim_backend::{check_batch_shape, par, LikelihoodBackend, PointBatch};
use navicim_device::inverter::{GaussianLikeCell, MultiInputInverter};
use navicim_device::noise::{NoiseModel, NoiseStream};
use navicim_device::params::TechParams;
use navicim_device::variation::ProcessVariation;
use navicim_gmm::hmg::HmgmModel;
use navicim_gmm::prune::{PruneConfig, PruneIndex, PruneScratch, PRUNE_TILE};
use navicim_math::rng::Pcg32;
use navicim_math::simd::{F64x4, LANES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Device slack (nats) in the CIM column-gating margin, which totals
/// `ln K +` this value (see
/// [`PruneIndex::for_hmg_parts_with_margin`]).
///
/// The index bounds the *mathematical* replica-weighted HMG mixture, but
/// the array evaluates its device realization — process variation,
/// DAC/ADC quantization and inverter-bell shape mismatch all perturb
/// per-column contributions. The log-ADC resolves ~0.08-nat steps, so a
/// column is visible only when its relative contribution reaches ~4%;
/// with this slack the summed dropped columns stay below `e⁻¹² ≈ 6·10⁻⁶`
/// relative, leaving ~3 decades of head-room for device-induced swing
/// while still gating on device-constrained sigma floors (the minimum
/// programmable kernel width is a fixed fraction of the map span, so
/// margins in the digital `ln(K/ε)` regime would rarely gate anything).
/// One residual: gated far columns stop conducting their leakage-level
/// currents, so deep-tail evaluations — where the total current is
/// itself near the leakage floor — may shift by an ADC step;
/// likelihoods there are floor-dominated noise either way. Gating
/// defaults off.
pub const CIM_PRUNE_SLACK_NATS: f64 = 12.0;

/// Configuration of a CIM likelihood engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimEngineConfig {
    /// Technology node parameters.
    pub tech: TechParams,
    /// Input DAC resolution in bits (the paper operates at 4 bits).
    pub dac_bits: u32,
    /// Log-ADC resolution in bits.
    pub adc_bits: u32,
    /// Maximum replica count available per component for weight encoding.
    pub max_replicas: u32,
    /// Process-variation severity (0 = ideal, 1 = nominal process).
    pub variation_severity: f64,
    /// Evaluation bandwidth for the noise model, in hertz.
    pub noise_bandwidth: f64,
    /// Seed for variation sampling and per-evaluation noise.
    pub seed: u64,
}

impl Default for CimEngineConfig {
    fn default() -> Self {
        Self {
            tech: TechParams::cmos_45nm(),
            dac_bits: 4,
            adc_bits: 8,
            max_replicas: 5,
            variation_severity: 1.0,
            noise_bandwidth: 1e8,
            seed: 0x5eed_c1a0,
        }
    }
}

/// Operation counters exposed to the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Likelihood evaluations served.
    pub evaluations: u64,
    /// Input DAC conversions performed (one per axis per evaluation).
    pub dac_conversions: u64,
    /// ADC conversions performed (one per evaluation).
    pub adc_conversions: u64,
    /// Sum of total array currents over all evaluations, in amperes
    /// (divide by `evaluations` for the average conduction current).
    pub current_sum: f64,
    /// Analog column activations actually driven. Column gating skips
    /// the DAC→array drive of pruned columns, so this falls below
    /// [`Self::column_slots`] exactly by the skipped activations.
    pub column_activations: u64,
    /// Column activation slots offered (evaluations × array columns);
    /// equals [`Self::column_activations`] whenever gating is off.
    pub column_slots: u64,
}

impl EngineStats {
    /// Average total array current per evaluation, in amperes.
    pub fn avg_current(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.current_sum / self.evaluations as f64
        }
    }

    /// Fraction of offered column slots actually driven — the factor the
    /// energy model scales per-evaluation DAC drive energy by. `1.0`
    /// when no slots were offered (ungated or idle engines).
    pub fn active_column_fraction(&self) -> f64 {
        if self.column_slots == 0 {
            1.0
        } else {
            self.column_activations as f64 / self.column_slots as f64
        }
    }
}

/// Domain separator between the build-time variation RNG and the
/// evaluation noise stream, both derived from [`CimEngineConfig::seed`].
const NOISE_STREAM_SALT: u64 = 0xa0a1_0c1a_77ab_1e5e;

/// Precomputed per-DAC-code reciprocal cell currents.
///
/// The DAC quantizes every axis to `2^dac_bits` output voltages, so the
/// device model's EKV exponentials only ever see a finite set of inputs.
/// This table caches `1/I_cell(dac.output(code))` for every
/// `(column, axis, code)` triple after process variation is applied —
/// the *exact* reciprocal the direct path divides by, so replaying the
/// direct path's summation order over table entries reproduces its
/// total current bit for bit while skipping all per-evaluation device
/// math. Built once per engine; disabled (falling back to the direct
/// path) when the code space is too large to cache.
#[derive(Debug, Clone)]
struct CodeLut {
    /// `1/I_cell` laid out as `(column × axis) × code` strips:
    /// index `(col·dim + axis)·levels + code`.
    recips: Vec<f64>,
    /// Per-column replica counts as f64 — the exact factor
    /// `CimColumn::current` multiplies by.
    replicas: Vec<f64>,
    levels: usize,
    dim: usize,
}

impl CodeLut {
    /// Cap on cached entries (8 MiB of f64): a 4-bit DAC over 100
    /// components × 3 axes needs just 4.8 k entries, but a 16-bit DAC
    /// would need ~20 M — past the cap the direct path wins on locality.
    const MAX_ENTRIES: usize = 1 << 20;

    fn build(array: &CimArray, dacs: &[Dac]) -> Option<Self> {
        let dim = array.num_inputs();
        let levels = dacs.first()?.levels() as usize;
        if dacs.len() != dim || dacs.iter().any(|d| d.levels() as usize != levels) {
            return None;
        }
        let entries = array.num_columns().checked_mul(dim)?.checked_mul(levels)?;
        if entries > Self::MAX_ENTRIES {
            return None;
        }
        let mut recips = Vec::with_capacity(entries);
        for col in array.columns() {
            for (axis, cell) in col.inverter().cells().iter().enumerate() {
                for code in 0..levels {
                    recips.push(1.0 / cell.current(dacs[axis].output(code as u64)));
                }
            }
        }
        let replicas = array
            .columns()
            .iter()
            .map(|c| c.replicas() as f64)
            .collect();
        Some(Self {
            recips,
            replicas,
            levels,
            dim,
        })
    }

    /// Total array current for one point's DAC codes (`codes[axis]`).
    ///
    /// Reproduces `CimArray::total_current` exactly: per-column
    /// reciprocal sum in axis order, `replicas · (1/Σ)` per column,
    /// column-order total — all from 0.0, mul *then* add.
    fn total_current(&self, codes: &[usize]) -> f64 {
        let mut i_total = 0.0;
        for (j, &repl) in self.replicas.iter().enumerate() {
            let col = j * self.dim * self.levels;
            let mut inv_sum = 0.0;
            for (axis, &code) in codes.iter().enumerate() {
                inv_sum += self.recips[col + axis * self.levels + code];
            }
            i_total += repl * (1.0 / inv_sum);
        }
        i_total
    }

    /// Total current over a gated column subset (`cols` ascending), one
    /// point. Per-column math and iteration order match
    /// [`Self::total_current`] exactly, so the full-set subset
    /// reproduces it bit for bit.
    fn total_current_cols(&self, codes: &[usize], cols: &[u32]) -> f64 {
        let mut i_total = 0.0;
        for &j in cols {
            let col = j as usize * self.dim * self.levels;
            let mut inv_sum = 0.0;
            for (axis, &code) in codes.iter().enumerate() {
                inv_sum += self.recips[col + axis * self.levels + code];
            }
            i_total += self.replicas[j as usize] * (1.0 / inv_sum);
        }
        i_total
    }

    /// Gated-subset counterpart of [`Self::total_current4`]: four points,
    /// columns restricted to `cols`, each lane bit-identical to the
    /// scalar [`Self::total_current_cols`].
    fn total_current4_cols(&self, codes: &[usize], cols: &[u32]) -> [f64; LANES] {
        debug_assert_eq!(codes.len(), LANES * self.dim);
        let mut i_total = F64x4::splat(0.0);
        for &j in cols {
            let col = j as usize * self.dim * self.levels;
            let mut inv_sum = F64x4::splat(0.0);
            for axis in 0..self.dim {
                let strip = col + axis * self.levels;
                let g = F64x4::new([
                    self.recips[strip + codes[axis]],
                    self.recips[strip + codes[self.dim + axis]],
                    self.recips[strip + codes[2 * self.dim + axis]],
                    self.recips[strip + codes[3 * self.dim + axis]],
                ]);
                inv_sum = inv_sum + g;
            }
            i_total =
                i_total + F64x4::splat(self.replicas[j as usize]) * (F64x4::splat(1.0) / inv_sum);
        }
        i_total.to_array()
    }

    /// Total array currents for four points at once (`codes[p·dim + axis]`)
    /// through explicit f64 lanes.
    ///
    /// Each lane applies the scalar [`Self::total_current`] operation
    /// sequence verbatim (same gathers, same addition order, same
    /// mul-then-add), so every lane result is bit-identical to evaluating
    /// that point alone — and therefore to the direct device-model path.
    fn total_current4(&self, codes: &[usize]) -> [f64; LANES] {
        debug_assert_eq!(codes.len(), LANES * self.dim);
        let mut i_total = F64x4::splat(0.0);
        for (j, &repl) in self.replicas.iter().enumerate() {
            let col = j * self.dim * self.levels;
            let mut inv_sum = F64x4::splat(0.0);
            for axis in 0..self.dim {
                let strip = col + axis * self.levels;
                let g = F64x4::new([
                    self.recips[strip + codes[axis]],
                    self.recips[strip + codes[self.dim + axis]],
                    self.recips[strip + codes[2 * self.dim + axis]],
                    self.recips[strip + codes[3 * self.dim + axis]],
                ]);
                inv_sum = inv_sum + g;
            }
            i_total = i_total + F64x4::splat(repl) * (F64x4::splat(1.0) / inv_sum);
        }
        i_total.to_array()
    }
}

/// Reusable DAC scratch buffers for [`CimCompute`] evaluation
/// (sequential single-chunk path only; threaded chunks carry their own).
#[derive(Debug, Clone, Default)]
struct EvalScratch {
    voltages: Vec<f64>,
    codes: Vec<usize>,
    prune: PruneScratch,
}

/// Column-gating state compiled alongside the fabric: the spatial index
/// over the *programmed* columns plus the query conditioning that maps
/// tile AABBs onto what the DACs actually evaluate.
#[derive(Debug, Clone)]
struct CimPrune {
    /// Culling index over the column centers, weighted by replica counts
    /// (the factors the array multiplies by), at a `ln K +`
    /// [`CIM_PRUNE_SLACK_NATS`] total margin.
    index: PruneIndex,
    /// Per-axis world ranges of the space map — the window the DAC input
    /// clamp folds every query into before conversion.
    ranges: Vec<(f64, f64)>,
    /// Per-axis pad of one DAC step in world units, absorbing input
    /// quantization after the clamp.
    pad: Vec<f64>,
}

/// The immutable compiled CIM fabric: fabricated array, converters, the
/// world→voltage map and the per-code current table.
///
/// Every field is fixed at build time (process variation is drawn once in
/// [`HmgmCimEngine::build`]), so a `CimCompute` is freely shared across
/// threads behind an `Arc` — sessions own only their noise cursor and
/// counters. Evaluation is pure: the calling session passes its noise
/// stream and receives pre-noise currents for its own bookkeeping.
#[derive(Debug, Clone)]
pub struct CimCompute {
    array: CimArray,
    dacs: Vec<Dac>,
    adc: LogAdc,
    map: SpaceMap,
    noise: NoiseModel,
    tech: TechParams,
    /// Per-DAC-code reciprocal current table; `None` forces the direct
    /// device-model path (see [`HmgmCimEngine::with_direct_eval`]). Both
    /// paths produce bit-identical outputs.
    lut: Option<CodeLut>,
    /// Column gating (see [`HmgmCimEngine::build_with_pruning`]); `None`
    /// drives every column. Gating applies only on the LUT path — the
    /// direct device-model path always evaluates the full array, serving
    /// as the physical reference the gate approximates.
    prune: Option<CimPrune>,
    /// Seed every session's evaluation [`NoiseStream`] starts from
    /// (`config.seed ^ NOISE_STREAM_SALT`).
    noise_seed: u64,
}

impl CimCompute {
    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.map.dim()
    }

    /// The compiled array (for inspection and energy accounting).
    pub fn array(&self) -> &CimArray {
        &self.array
    }

    /// The output ADC.
    pub fn adc(&self) -> &LogAdc {
        &self.adc
    }

    /// The seed sessions forked from this fabric start their noise
    /// streams on.
    pub fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Evaluates `batch` against the fabric: point `k` draws its noise
    /// from `stream.at(stream.cursor() + k)`, pre-noise currents land in
    /// `currents` (for the session's index-order stats fold) and the
    /// return value is the number of column activations driven. Nothing
    /// in `self` mutates; `scratch` is buffer reuse only.
    ///
    /// Column gating, when compiled in ([`HmgmCimEngine::build_with_pruning`])
    /// and on the LUT path, works in fixed tiles of [`PRUNE_TILE`]
    /// consecutive points anchored at batch index 0: the tile's
    /// clamped+padded AABB is intersected with the culling index and only
    /// surviving columns are driven. Anchoring at absolute batch indices
    /// makes the gating decisions — and therefore the output bits —
    /// invariant under the chunk policy. A tile containing any non-finite
    /// coordinate falls back to the full column set, bit-identical to the
    /// ungated path.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or output/current length mismatch.
    fn eval(
        &self,
        batch: &PointBatch,
        stream: NoiseStream,
        out: &mut [f64],
        currents: &mut [f64],
        policy: par::ChunkPolicy,
        scratch: &mut EvalScratch,
    ) -> u64 {
        check_batch_shape(self.map.dim(), batch, out);
        assert_eq!(
            out.len(),
            currents.len(),
            "currents scratch must match batch length"
        );
        let n = batch.len();
        if n == 0 {
            return 0;
        }
        let dim = self.dacs.len();
        scratch.voltages.resize(dim, 0.0);
        scratch.codes.resize(LANES * dim, 0);
        let array = &self.array;
        let dacs = &self.dacs;
        let adc = &self.adc;
        let axes = self.map.axes();
        let noise = &self.noise;
        let lut = self.lut.as_ref();
        let i_floor = self.tech.i_leak * 0.01;
        let gm_denom = self.tech.slope_n * self.tech.u_t;
        let base = stream.cursor();
        // Noise + ADC stage, shared by every evaluation path; pure in
        // (index, pre-noise current).
        let finish = |idx: usize, i_total: f64| -> (f64, f64) {
            // Subthreshold-style transconductance estimate for the
            // noise scale; the counter-based z keeps the draw tied
            // to the absolute evaluation index of the session.
            let gm = i_total / gm_denom;
            let z = stream.at(base + idx as u64);
            let i_noisy = (i_total + noise.sample_with_z(gm, i_total, z)).max(i_floor);
            (adc.convert(i_noisy), i_total)
        };
        // Direct device-model evaluation of one point.
        let eval_direct = |idx: usize, voltages: &mut [f64]| {
            for ((v, &x), (axis, dac)) in voltages
                .iter_mut()
                .zip(batch.point(idx))
                .zip(axes.iter().zip(dacs))
            {
                *v = dac.convert(axis.to_voltage(x));
            }
            finish(idx, array.total_current(voltages))
        };
        // DAC codes of point `idx` into `codes[p*dim..]`.
        let codes_for = |idx: usize, p: usize, codes: &mut [usize]| {
            for ((c, &x), (axis, dac)) in codes[p * dim..(p + 1) * dim]
                .iter_mut()
                .zip(batch.point(idx))
                .zip(axes.iter().zip(dacs))
            {
                *c = dac.code_for(axis.to_voltage(x)) as usize;
            }
        };
        let k_cols = self.array.num_columns() as u64;
        if let (Some(gate), Some(lut)) = (self.prune.as_ref(), lut) {
            // Column-gated LUT path. Pieces are chunk ∩ tile, each
            // evaluated over the full tile's survivor set so chunk
            // geometry never leaks into the gating decision. Activations
            // are tallied through an atomic because tiles may land in
            // concurrently-running chunks; the sum is an exact u64 count,
            // so the tally is deterministic regardless of interleaving.
            let acts = AtomicU64::new(0);
            let run_range_gated = |start: usize,
                                   out_chunk: &mut [f64],
                                   cur_chunk: &mut [f64],
                                   codes: &mut [usize],
                                   pscratch: &mut PruneScratch| {
                let end = start + out_chunk.len();
                let mut pos = start;
                while pos < end {
                    let tile_lo = (pos / PRUNE_TILE) * PRUNE_TILE;
                    let tile_hi = (tile_lo + PRUNE_TILE).min(n);
                    let piece_end = end.min(tile_hi);
                    let cands = gate.index.candidates_for_points_clamped(
                        batch.flat_range(tile_lo, tile_hi),
                        &gate.pad,
                        &gate.ranges,
                        pscratch,
                    );
                    let piece = (piece_end - pos) as u64;
                    let mut i = pos;
                    match cands {
                        Some(cols) => {
                            acts.fetch_add(piece * cols.len() as u64, Ordering::Relaxed);
                            while i + LANES <= piece_end {
                                for p in 0..LANES {
                                    codes_for(i + p, p, codes);
                                }
                                let totals = lut.total_current4_cols(codes, cols);
                                for (p, &i_total) in totals.iter().enumerate() {
                                    let (o, cur) = finish(i + p, i_total);
                                    out_chunk[i + p - start] = o;
                                    cur_chunk[i + p - start] = cur;
                                }
                                i += LANES;
                            }
                            for idx in i..piece_end {
                                codes_for(idx, 0, codes);
                                let (o, cur) =
                                    finish(idx, lut.total_current_cols(&codes[..dim], cols));
                                out_chunk[idx - start] = o;
                                cur_chunk[idx - start] = cur;
                            }
                        }
                        None => {
                            // Non-finite tile: full-array evaluation,
                            // bit-identical to the ungated path.
                            acts.fetch_add(piece * k_cols, Ordering::Relaxed);
                            while i + LANES <= piece_end {
                                for p in 0..LANES {
                                    codes_for(i + p, p, codes);
                                }
                                let totals = lut.total_current4(codes);
                                for (p, &i_total) in totals.iter().enumerate() {
                                    let (o, cur) = finish(i + p, i_total);
                                    out_chunk[i + p - start] = o;
                                    cur_chunk[i + p - start] = cur;
                                }
                                i += LANES;
                            }
                            for idx in i..piece_end {
                                codes_for(idx, 0, codes);
                                let (o, cur) = finish(idx, lut.total_current(&codes[..dim]));
                                out_chunk[idx - start] = o;
                                cur_chunk[idx - start] = cur;
                            }
                        }
                    }
                    pos = piece_end;
                }
            };
            if policy.is_single_chunk(n) {
                run_range_gated(0, out, currents, &mut scratch.codes, &mut scratch.prune);
            } else {
                par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                    let mut codes = vec![0usize; LANES * dim];
                    let mut pscratch = PruneScratch::default();
                    run_range_gated(start, out_chunk, cur_chunk, &mut codes, &mut pscratch);
                });
            }
            return acts.into_inner();
        }
        // One chunk of evaluations. The 4-wide LUT body is the
        // vectorization seam: grouping is per-chunk-internal and the
        // lane math is per-point identical to the scalar/direct path,
        // so chunk boundaries, thread counts and the LUT toggle are
        // all unobservable in the output bits. Noise stays tied to
        // absolute evaluation indices either way.
        let run_range = |start: usize,
                         out_chunk: &mut [f64],
                         cur_chunk: &mut [f64],
                         voltages: &mut [f64],
                         codes: &mut [usize]| {
            match lut {
                Some(lut) => {
                    let mut k = 0;
                    while k + LANES <= out_chunk.len() {
                        for p in 0..LANES {
                            codes_for(start + k + p, p, codes);
                        }
                        let totals = lut.total_current4(codes);
                        for (p, &i_total) in totals.iter().enumerate() {
                            let (o, cur) = finish(start + k + p, i_total);
                            out_chunk[k + p] = o;
                            cur_chunk[k + p] = cur;
                        }
                        k += LANES;
                    }
                    // Scalar remainder tail through the same table.
                    for i in k..out_chunk.len() {
                        codes_for(start + i, 0, codes);
                        let (o, cur) = finish(start + i, lut.total_current(&codes[..dim]));
                        out_chunk[i] = o;
                        cur_chunk[i] = cur;
                    }
                }
                None => {
                    for (i, (o, cur)) in out_chunk.iter_mut().zip(cur_chunk.iter_mut()).enumerate()
                    {
                        (*o, *cur) = eval_direct(start + i, voltages);
                    }
                }
            }
        };
        if policy.is_single_chunk(n) {
            // Sequential path: reuse the caller's scratch — zero
            // allocation per batch.
            run_range(0, out, currents, &mut scratch.voltages, &mut scratch.codes);
        } else {
            par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                // Per-chunk scratch (chunks may run concurrently).
                let mut voltages = vec![0.0; dim];
                let mut codes = vec![0usize; LANES * dim];
                run_range(start, out_chunk, cur_chunk, &mut voltages, &mut codes);
            });
        }
        // Ungated (or direct-path): every evaluation drives every column.
        n as u64 * k_cols
    }
}

/// An HMG mixture compiled onto an inverter array.
///
/// One value of this type is one evaluation *session*: the compiled
/// fabric lives in a shared [`CimCompute`] behind an `Arc` (see
/// [`Self::fork_session`]), while the session owns its noise cursor,
/// operation counters and scratch.
#[derive(Debug, Clone)]
pub struct HmgmCimEngine {
    compute: Arc<CimCompute>,
    /// Counter-based evaluation noise: evaluation `i` (over the session's
    /// lifetime) is perturbed by `noise_stream.at(i)` regardless of how
    /// queries are batched, chunked or threaded.
    noise_stream: NoiseStream,
    stats: EngineStats,
    /// Reused per-evaluation array-current scratch (stats are merged from
    /// it in index order after each batch).
    currents: Vec<f64>,
    /// Reused DAC scratch for the sequential single-chunk path.
    scratch: EvalScratch,
}

impl HmgmCimEngine {
    /// Compiles `model` onto an inverter array using the world→voltage
    /// `map`, applying programming calibration and process variation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] on dimension mismatch and
    /// [`AnalogError::Unrealizable`] when a kernel sigma falls outside the
    /// device's programmable range (constrain the fit with
    /// [`recommended_sigma_bounds`] to avoid this).
    pub fn build(model: &HmgmModel, map: SpaceMap, config: CimEngineConfig) -> Result<Self> {
        if model.dim() != map.dim() {
            return Err(AnalogError::InvalidArgument(format!(
                "model dim {} does not match map dim {}",
                model.dim(),
                map.dim()
            )));
        }
        let tech = config.tech;
        let mut rng = Pcg32::seed_from_u64(config.seed);

        // Program one column per mixture component.
        // lint: reduction-order max-fold is order-insensitive up to NaN, excluded by model validation
        let w_max = model
            .weights()
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-300);
        let mut columns = Vec::with_capacity(model.num_components());
        for (w, kernel) in model.weights().iter().zip(model.kernels()) {
            let mut cells = Vec::with_capacity(kernel.dim());
            for axis in 0..kernel.dim() {
                let center_v = map.axes()[axis].to_voltage(kernel.means()[axis]);
                let sigma_v = map.axes()[axis].sigma_to_voltage(kernel.sigmas()[axis]);
                let overlap = calibrate_overlap(&tech, sigma_v)?;
                cells.push(GaussianLikeCell::with_center_width(
                    &tech, center_v, overlap,
                )?);
            }
            let inverter = MultiInputInverter::new(cells)?;
            let replicas = ((w / w_max * config.max_replicas as f64).round() as u32)
                .clamp(1, config.max_replicas.max(1));
            columns.push(CimColumn::new(inverter, replicas)?);
        }
        let mut array = CimArray::new(columns)?;

        // Fabrication: draw the process-variation corner once.
        if config.variation_severity > 0.0 {
            let pv = ProcessVariation::from_tech(&tech).with_severity(config.variation_severity);
            array.apply_variation(&pv, &mut rng);
        }

        // ADC range: from the deepest plausible tail to the summed peak.
        let i_max = array.max_current() * 1.1;
        let i_min = (i_max * 1e-9).max(tech.i_leak * 0.1);
        let adc = LogAdc::new(config.adc_bits, i_min, i_max)?;
        let dacs = map
            .axes()
            .iter()
            .map(|a| {
                let (lo, hi) = a.voltage_range();
                Dac::new(config.dac_bits, lo, hi)
            })
            .collect::<Result<Vec<_>>>()?;

        // Cache per-code cell currents (post-variation) for the fast
        // evaluation path; exact, so no behavior change.
        let lut = CodeLut::build(&array, &dacs);

        // The evaluation-noise seed comes from the config seed directly
        // (not from `rng`), so the noise sequence does not depend on how
        // many draws fabrication-time variation consumed.
        let noise_seed = config.seed ^ NOISE_STREAM_SALT;
        Ok(Self {
            compute: Arc::new(CimCompute {
                array,
                dacs,
                adc,
                map,
                noise: NoiseModel::room_temperature(config.noise_bandwidth),
                tech,
                lut,
                prune: None,
                noise_seed,
            }),
            noise_stream: NoiseStream::new(noise_seed),
            stats: EngineStats::default(),
            currents: Vec::new(),
            scratch: EvalScratch::default(),
        })
    }

    /// As [`Self::build`], compiling a column-gating index alongside the
    /// fabric when `prune` is enabled.
    ///
    /// The index is built over the *programmed* columns — kernel
    /// geometry from the model, weights replaced by the replica counts
    /// the array actually multiplies by — at a `ln K +`
    /// [`CIM_PRUNE_SLACK_NATS`] total margin tuned to log-ADC visibility
    /// rather than the digital gate. At evaluation time (LUT path only),
    /// tiles of
    /// [`PRUNE_TILE`] points are intersected with the index after
    /// clamping their AABB to each axis's world range (mirroring the DAC
    /// input clamp) and padding by one DAC step (absorbing input
    /// quantization); gated columns are simply not driven, and the
    /// skipped activations are reported through [`EngineStats`] for
    /// energy pricing. With `prune` disabled this is exactly
    /// [`Self::build`].
    pub fn build_with_pruning(
        model: &HmgmModel,
        map: SpaceMap,
        config: CimEngineConfig,
        prune: PruneConfig,
    ) -> Result<Self> {
        let mut engine = Self::build(model, map, config)?;
        if prune.enabled {
            let compute = Arc::make_mut(&mut engine.compute);
            let replica_weights: Vec<f64> = compute
                .array
                .columns()
                .iter()
                .map(|c| c.replicas() as f64)
                .collect();
            if let Some(index) = PruneIndex::for_hmg_parts_with_margin(
                &replica_weights,
                model.kernels(),
                prune,
                (model.num_components() as f64).ln() + CIM_PRUNE_SLACK_NATS,
            ) {
                let ranges = compute.map.axes().iter().map(|a| a.world_range()).collect();
                let pad = compute
                    .map
                    .axes()
                    .iter()
                    .zip(&compute.dacs)
                    .map(|(a, d)| a.sigma_to_world(d.lsb()))
                    .collect();
                compute.prune = Some(CimPrune { index, ranges, pad });
            }
        }
        Ok(engine)
    }

    /// Disables the per-code current table, forcing every evaluation
    /// through the direct DAC → device-model → Kirchhoff-sum path.
    ///
    /// The table caches the *exact* per-code reciprocal currents, so both
    /// paths are bit-identical — this hook exists for parity tests and as
    /// the pre-optimization baseline of the kernel benchmarks.
    ///
    /// Copy-on-write: if the fabric is shared with forked sessions, they
    /// keep the table.
    pub fn with_direct_eval(mut self) -> Self {
        Arc::make_mut(&mut self.compute).lut = None;
        self
    }

    /// A fresh evaluation session over the same compiled fabric.
    ///
    /// Shares the fabricated array / converters / LUT via `Arc` and
    /// resets the session state (noise cursor to the stream's origin,
    /// counters to zero) — bit-identical to building a new engine from
    /// the same model, map and config, without re-fabrication. This is
    /// how a serving layer runs many agents on one substrate.
    pub fn fork_session(&self) -> Self {
        Self {
            compute: Arc::clone(&self.compute),
            noise_stream: NoiseStream::new(self.compute.noise_seed),
            stats: EngineStats::default(),
            currents: Vec::new(),
            scratch: EvalScratch::default(),
        }
    }

    /// The shared compiled fabric this session evaluates on.
    pub fn compute(&self) -> &Arc<CimCompute> {
        &self.compute
    }

    /// Per-axis `(floors, ceilings)` in *world* units for a given map —
    /// each axis has its own voltage scale, so thin kernels remain
    /// realizable on short axes even when long axes cannot support them.
    pub fn recommended_sigma_bounds_per_axis(
        tech: &TechParams,
        map: &SpaceMap,
    ) -> (Vec<f64>, Vec<f64>) {
        let (s_lo_v, s_hi_v) = device_sigma_range(tech);
        let floors = map
            .axes()
            .iter()
            .map(|a| a.sigma_to_world(s_lo_v) * 1.05)
            .collect();
        let ceilings = map
            .axes()
            .iter()
            .map(|a| a.sigma_to_world(s_hi_v) * 0.95)
            .collect();
        (floors, ceilings)
    }

    /// Suggested `(sigma_floor, sigma_ceiling)` in *world* units for a
    /// given map, so HMGM fitting stays within the device's range.
    pub fn recommended_sigma_bounds(tech: &TechParams, map: &SpaceMap) -> (f64, f64) {
        let (s_lo_v, s_hi_v) = device_sigma_range(tech);
        // The most restrictive axis decides (largest floor, smallest ceiling).
        let mut floor = f64::MIN;
        let mut ceil = f64::MAX;
        for axis in map.axes() {
            floor = floor.max(axis.sigma_to_world(s_lo_v));
            ceil = ceil.min(axis.sigma_to_world(s_hi_v));
        }
        // Keep a safety margin against variation-induced width changes.
        (floor * 1.05, ceil * 0.95)
    }

    /// Serves one log-likelihood query: DAC conversion of the mapped
    /// voltages, array read with sampled noise, log-ADC conversion.
    ///
    /// The returned value is `ln(I_total)` as reconstructed by the ADC —
    /// proportional (up to an additive constant) to the map log-likelihood,
    /// which is all a particle filter needs.
    ///
    /// Scalar adapter over [`Self::log_likelihood_into`]: a single-point
    /// batch consumes exactly the same noise-RNG stream, so mixing scalar
    /// and batch queries is bit-reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the engine dimension.
    pub fn log_likelihood(&mut self, point: &[f64]) -> f64 {
        let mut batch = PointBatch::new(self.compute.dim());
        batch.push(point);
        let mut out = [0.0];
        self.log_likelihood_into(&batch, &mut out);
        out[0]
    }

    /// Serves a whole batch of log-likelihood queries.
    ///
    /// Delegates to [`Self::log_likelihood_into_chunked`] with the auto
    /// [`par::ChunkPolicy`], which spreads the batch across worker
    /// threads when the `parallel` feature is enabled and the batch is
    /// large enough to amortize them.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out.len() != batch.len()`.
    pub fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.log_likelihood_into_chunked(batch, out, par::ChunkPolicy::auto());
    }

    /// Serves a batch under an explicit chunking policy.
    ///
    /// The result — outputs *and* [`EngineStats`] — is bit-identical for
    /// every `(chunk_len, workers)` pair, to each other and to one-by-one
    /// scalar queries:
    ///
    /// - evaluation `i` of the batch claims absolute index `base + i` of
    ///   the engine's counter-based [`NoiseStream`], so its noise value
    ///   does not depend on which chunk or thread serves it (and matches
    ///   the value the pre-batch sequential draw at the same evaluation
    ///   count would deliver from this stream);
    /// - each evaluation writes its pre-noise array current into a
    ///   per-evaluation scratch slot, and the stats are folded from that
    ///   scratch *in index order* after all chunks complete, so even the
    ///   floating-point `current_sum` association is chunking-invariant.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out.len() != batch.len()`.
    pub fn log_likelihood_into_chunked(
        &mut self,
        batch: &PointBatch,
        out: &mut [f64],
        policy: par::ChunkPolicy,
    ) {
        let n = batch.len();
        self.currents.resize(n, 0.0);
        let column_activations = self.compute.eval(
            batch,
            self.noise_stream,
            out,
            &mut self.currents,
            policy,
            &mut self.scratch,
        );
        // lint: allow(noise-stream-seq) post-batch cursor commit: the batch already drew .at(cursor + k); advance only publishes the watermark
        self.noise_stream.advance(n as u64);
        // Index-order merge: the same left-to-right association scalar
        // calls would produce, independent of how chunks were assigned.
        for &i_total in &self.currents {
            self.stats.current_sum += i_total;
        }
        self.stats.evaluations += n as u64;
        self.stats.dac_conversions += (n * self.compute.dacs.len()) as u64;
        self.stats.adc_conversions += n as u64;
        self.stats.column_slots += n as u64 * self.compute.array.num_columns() as u64;
        self.stats.column_activations += column_activations;
    }

    /// Sum of per-point log-likelihoods for a scan (batch-evaluated; an
    /// empty scan sums to zero).
    pub fn scan_log_likelihood(&mut self, points: &[Vec<f64>]) -> f64 {
        let batch = PointBatch::from_rows(self.compute.dim(), points);
        self.log_likelihood_batch(&batch).iter().sum()
    }

    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.compute.dim()
    }

    /// The compiled array (for inspection and energy accounting).
    pub fn array(&self) -> &CimArray {
        &self.compute.array
    }

    /// The output ADC.
    pub fn adc(&self) -> &LogAdc {
        &self.compute.adc
    }

    /// Operation counters accumulated since construction or the last
    /// [`Self::reset_stats`].
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clears the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }
}

impl LikelihoodBackend for HmgmCimEngine {
    fn dim(&self) -> usize {
        HmgmCimEngine::dim(self)
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        HmgmCimEngine::log_likelihood_into(self, batch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_gmm::hmg::{fit_hmgm, HmgKernel, HmgmFitConfig};
    use navicim_math::rng::SampleExt;

    fn test_map() -> SpaceMap {
        let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
        SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).unwrap()
    }

    fn test_model(map: &SpaceMap) -> HmgmModel {
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, map);
        let sigma = (floor * 2.0).min(ceil);
        let k1 = HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![sigma; 3], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![0.6, 0.3, -0.4], vec![sigma; 3], 1.0).unwrap();
        HmgmModel::new(vec![1.0, 0.5], vec![k1, k2]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let map = test_map();
        let model = test_model(&map);
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        // Likelihood at a kernel centre beats a far-away point.
        let near = engine.log_likelihood(&[-0.5, 0.0, 0.2]);
        let far = engine.log_likelihood(&[1.0, -1.0, 1.0]);
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn engine_tracks_model_ordering() {
        // CIM log-likelihood ordering should agree with the mathematical
        // HMGM model on clearly separated queries.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig {
            variation_severity: 0.0,
            dac_bits: 8,
            adc_bits: 12,
            ..CimEngineConfig::default()
        };
        let mut engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let queries: Vec<Vec<f64>> = vec![
            vec![-0.5, 0.0, 0.2],
            vec![-0.3, 0.1, 0.1],
            vec![0.6, 0.3, -0.4],
            vec![0.9, 0.9, 0.9],
        ];
        let cim: Vec<f64> = queries.iter().map(|q| engine.log_likelihood(q)).collect();
        let math: Vec<f64> = queries.iter().map(|q| model.log_likelihood(q)).collect();
        let r = navicim_math::stats::spearman(&cim, &math).unwrap();
        assert!(r > 0.99, "rank correlation {r}");
    }

    #[test]
    fn stats_count_operations() {
        let map = test_map();
        let model = test_model(&map);
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let _ = engine.log_likelihood(&[0.0, 0.0, 0.0]);
        let _ = engine.scan_log_likelihood(&[vec![0.1, 0.0, 0.0], vec![0.2, 0.0, 0.0]]);
        let s = engine.stats();
        assert_eq!(s.evaluations, 3);
        assert_eq!(s.adc_conversions, 3);
        assert_eq!(s.dac_conversions, 9);
        engine.reset_stats();
        assert_eq!(engine.stats().evaluations, 0);
    }

    #[test]
    fn replica_counts_encode_weights() {
        let map = test_map();
        let model = test_model(&map); // weights 1.0 and 0.5
        let engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let reps: Vec<u32> = engine
            .array()
            .columns()
            .iter()
            .map(|c| c.replicas())
            .collect();
        assert_eq!(reps, vec![5, 3]); // 5·(1.0/1.0)=5, round(5·0.5)=3 (ties-away)
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let map = test_map();
        let bad = HmgmModel::new(
            vec![1.0],
            vec![HmgKernel::new(vec![0.0], vec![0.1], 1.0).unwrap()],
        )
        .unwrap();
        assert!(HmgmCimEngine::build(&bad, map, CimEngineConfig::default()).is_err());
    }

    #[test]
    fn unrealizable_sigma_rejected() {
        let map = test_map();
        let too_narrow = HmgmModel::new(
            vec![1.0],
            vec![HmgKernel::new(vec![0.0, 0.0, 0.0], vec![1e-6; 3], 1.0).unwrap()],
        )
        .unwrap();
        assert!(matches!(
            HmgmCimEngine::build(&too_narrow, map, CimEngineConfig::default()),
            Err(AnalogError::Unrealizable(_))
        ));
    }

    #[test]
    fn batch_matches_sequential_scalar_bit_for_bit() {
        // The batch path must consume the identical noise-RNG stream and
        // arithmetic as one-by-one scalar queries.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut scalar_engine = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut batch_engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let mut rng = Pcg32::seed_from_u64(99);
        let mut batch = PointBatch::new(3);
        for _ in 0..64 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let scalar: Vec<f64> = batch
            .iter()
            .map(|p| scalar_engine.log_likelihood(p))
            .collect();
        let batched = batch_engine.log_likelihood_batch(&batch);
        assert_eq!(scalar, batched);
        assert_eq!(scalar_engine.stats(), batch_engine.stats());
        assert_eq!(batch_engine.stats().evaluations, 64);
        assert_eq!(batch_engine.stats().dac_conversions, 64 * 3);
    }

    #[test]
    fn chunked_evaluation_is_bit_identical() {
        // Any (chunk_len, workers) policy — and any split of the batch
        // into consecutive sub-batches — produces the same outputs and
        // the same EngineStats as the auto policy.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut rng = Pcg32::seed_from_u64(5);
        let mut batch = PointBatch::new(3);
        for _ in 0..97 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let mut reference = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut expected = vec![0.0; batch.len()];
        reference.log_likelihood_into(&batch, &mut expected);
        for chunk_len in [1usize, 7, 64, batch.len()] {
            for workers in [1usize, 2, 4] {
                let mut engine = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
                let mut out = vec![0.0; batch.len()];
                engine.log_likelihood_into_chunked(
                    &batch,
                    &mut out,
                    par::ChunkPolicy::exact(chunk_len, workers),
                );
                assert_eq!(out, expected, "chunk {chunk_len}, workers {workers}");
                assert_eq!(engine.stats(), reference.stats());
            }
        }
        // Splitting into two consecutive batch calls consumes consecutive
        // stream ranges, so the concatenation matches one big call.
        let mut split_engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let mut first = PointBatch::new(3);
        let mut second = PointBatch::new(3);
        for (i, p) in batch.iter().enumerate() {
            if i < 40 {
                first.push(p);
            } else {
                second.push(p);
            }
        }
        let mut out = split_engine.log_likelihood_batch(&first);
        out.extend(split_engine.log_likelihood_batch(&second));
        assert_eq!(out, expected);
        assert_eq!(split_engine.stats(), reference.stats());
    }

    #[test]
    fn lut_and_direct_paths_are_bit_identical() {
        // The per-code current table must be a pure cache: outputs and
        // stats agree bitwise with the direct device-model path for every
        // batch size around the lane width.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        for n in [1usize, 3, 4, 5, 7, 64] {
            let mut fast = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
            assert!(
                fast.compute.lut.is_some(),
                "default config should build the LUT"
            );
            let mut direct = HmgmCimEngine::build(&model, map.clone(), config)
                .unwrap()
                .with_direct_eval();
            let mut rng = Pcg32::seed_from_u64(31 + n as u64);
            let mut batch = PointBatch::new(3);
            for _ in 0..n {
                batch.push(&[
                    rng.sample_uniform(-1.0, 1.0),
                    rng.sample_uniform(-1.0, 1.0),
                    rng.sample_uniform(-1.0, 1.0),
                ]);
            }
            assert_eq!(
                fast.log_likelihood_batch(&batch),
                direct.log_likelihood_batch(&batch),
                "n = {n}"
            );
            assert_eq!(fast.stats(), direct.stats(), "n = {n}");
        }
    }

    /// Many well-separated kernels on the test map, so a tight particle
    /// cloud's tile AABB excludes most columns by a wide margin.
    fn spread_model(map: &SpaceMap, k: usize) -> HmgmModel {
        let tech = TechParams::cmos_45nm();
        let (floor, _ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, map);
        let sigma = floor;
        let mut rng = Pcg32::seed_from_u64(41);
        let mut kernels = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..k {
            let mean = vec![
                rng.sample_uniform(-0.95, 0.95),
                rng.sample_uniform(-0.95, 0.95),
                rng.sample_uniform(-0.95, 0.95),
            ];
            kernels.push(HmgKernel::new(mean, vec![sigma; 3], 1.0).unwrap());
            weights.push(rng.sample_uniform(0.2, 1.0));
        }
        HmgmModel::new(weights, kernels).unwrap()
    }

    fn clustered_batch(center: &[f64], n: usize, spread: f64, seed: u64) -> PointBatch {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut batch = PointBatch::new(center.len());
        let mut p = vec![0.0; center.len()];
        for _ in 0..n {
            for (v, &c) in p.iter_mut().zip(center) {
                *v = rng.sample_normal(c, spread);
            }
            batch.push(&p);
        }
        batch
    }

    #[test]
    fn prune_off_build_is_the_plain_build() {
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut off =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::default()).unwrap();
        assert!(off.compute.prune.is_none());
        let batch = clustered_batch(&[-0.5, 0.0, 0.2], 40, 0.1, 50);
        assert_eq!(
            plain.log_likelihood_batch(&batch),
            off.log_likelihood_batch(&batch)
        );
        assert_eq!(plain.stats(), off.stats());
        assert_eq!(plain.stats().column_activations, 40 * 2);
        assert_eq!(plain.stats().column_slots, 40 * 2);
    }

    #[test]
    fn gated_with_all_columns_surviving_is_bit_identical() {
        // Two near kernels and a huge margin: nothing ever prunes, so the
        // gated engine must reproduce the ungated one bit for bit —
        // outputs, noise consumption and stats.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut gated =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        assert!(gated.compute.prune.is_some());
        let mut rng = Pcg32::seed_from_u64(51);
        let mut batch = PointBatch::new(3);
        for _ in 0..300 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        assert_eq!(
            plain.log_likelihood_batch(&batch),
            gated.log_likelihood_batch(&batch)
        );
        assert_eq!(plain.stats(), gated.stats());
        assert_eq!(gated.stats().column_activations, 300 * 2);
    }

    #[test]
    fn gating_drops_columns_and_stays_accurate() {
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut gated =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        // Tight cloud around one kernel center: far columns gate out.
        let center = model.kernels()[0].means().to_vec();
        let batch = clustered_batch(&center, 200, 0.01, 52);
        let full = plain.log_likelihood_batch(&batch);
        let pruned = gated.log_likelihood_batch(&batch);
        let slots = gated.stats().column_slots;
        let acts = gated.stats().column_activations;
        assert_eq!(slots, 200 * 24);
        assert!(acts < slots, "expected gating: {acts} of {slots} slots");
        assert!(acts >= 200, "survivor set is never empty");
        // Near a peak the gated current differs from the full current by
        // far less than one log-ADC step, so outputs agree to within a
        // single code boundary flip.
        let step = gated.adc().log_lsb();
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            assert!(
                (p - f).abs() <= step * 1.5 + 1e-12,
                "point {i}: gated {p} vs full {f} (step {step})"
            );
        }
        // Ungated counters are untouched by gating.
        assert_eq!(plain.stats().evaluations, gated.stats().evaluations);
        assert_eq!(plain.stats().dac_conversions, gated.stats().dac_conversions);
    }

    #[test]
    fn gated_outputs_are_chunking_invariant() {
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let prune = PruneConfig::enabled();
        let center = model.kernels()[0].means().to_vec();
        let mut batch = clustered_batch(&center, 300, 0.01, 53);
        // A few far outliers so tiles mix survivor sets.
        let mut rng = Pcg32::seed_from_u64(54);
        for _ in 0..17 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let mut reference =
            HmgmCimEngine::build_with_pruning(&model, map.clone(), config, prune).unwrap();
        let mut expected = vec![0.0; batch.len()];
        reference.log_likelihood_into(&batch, &mut expected);
        for chunk_len in [1usize, 7, 64, batch.len()] {
            for workers in [1usize, 2, 4] {
                let mut engine =
                    HmgmCimEngine::build_with_pruning(&model, map.clone(), config, prune).unwrap();
                let mut out = vec![0.0; batch.len()];
                engine.log_likelihood_into_chunked(
                    &batch,
                    &mut out,
                    par::ChunkPolicy::exact(chunk_len, workers),
                );
                assert_eq!(out, expected, "chunk {chunk_len}, workers {workers}");
                assert_eq!(engine.stats(), reference.stats());
            }
        }
    }

    #[test]
    fn split_session_calls_match_one_call() {
        // Noise-cursor continuity under gating: one session serving a
        // batch in two `log_likelihood_into` calls reproduces the single
        // call bit for bit, outputs and stats. The split sits on a
        // PRUNE_TILE boundary so both histories see the same gating
        // tiles; noise draws address the session's absolute indices.
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let root =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        let c0 = model.kernels()[0].means().to_vec();
        let c1 = model.kernels()[1].means().to_vec();
        let a = clustered_batch(&c0, PRUNE_TILE, 0.01, 55);
        let b = clustered_batch(&c1, 277, 0.01, 56);
        let mut whole = a.clone();
        whole.extend_from_batch(&b);
        let mut one = root.fork_session();
        let want = one.log_likelihood_batch(&whole);
        let mut split = root.fork_session();
        let mut got = split.log_likelihood_batch(&a);
        got.extend(split.log_likelihood_batch(&b));
        assert_eq!(got, want);
        assert_eq!(split.stats(), one.stats());
        assert!(split.stats().column_activations < split.stats().column_slots);
    }

    #[test]
    fn fitted_model_compiles_end_to_end() {
        // Fit an HMGM on synthetic data with device-derived sigma bounds,
        // then compile and query — the full Section II flow.
        let mut rng = Pcg32::seed_from_u64(11);
        let mut pts = Vec::new();
        for _ in 0..300 {
            pts.push(vec![
                rng.sample_normal(0.0, 0.3),
                rng.sample_normal(0.5, 0.25),
                rng.sample_normal(-0.5, 0.3),
            ]);
            pts.push(vec![
                rng.sample_normal(2.0, 0.3),
                rng.sample_normal(-1.0, 0.25),
                rng.sample_normal(0.5, 0.3),
            ]);
        }
        let map = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.15).unwrap();
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &map);
        let config = HmgmFitConfig {
            sigma_floor: floor,
            sigma_ceiling: Some(ceil),
            ..HmgmFitConfig::default()
        };
        let mut rng2 = Pcg32::seed_from_u64(12);
        let model = fit_hmgm(&pts, 4, &config, &mut rng2).unwrap();
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let on_data = engine.log_likelihood(&[0.0, 0.5, -0.5]);
        let off_data = engine.log_likelihood(&[1.0, 2.0, 2.0]);
        assert!(on_data > off_data);
    }
}

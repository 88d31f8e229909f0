//! Pipeline A — CIM particle-filter drone localization (paper Section II).
//!
//! A [`CimLocalizer`] fits a map backend to a scene's point cloud, then
//! tracks the camera through its depth frames with a particle filter whose
//! measurement model projects subsampled depth pixels into the world and
//! scores them against the map. The map backend is selected *by name*
//! from a [`BackendRegistry`] (the defaults are the paper's backends):
//!
//! - [`crate::registry::DIGITAL_GMM`] — the conventional approach: a
//!   diagonal GMM evaluated on a digital datapath,
//! - [`crate::registry::DIGITAL_HMGM`] — the co-designed kernel family
//!   evaluated in floating point (the map-family ablation),
//! - [`crate::registry::CIM_HMGM`] — the co-design: an HMG mixture
//!   compiled onto the floating-gate inverter array and evaluated in
//!   analog, including DAC/ADC quantization, device variation and noise.
//!
//! Custom backends register through
//! [`CimLocalizer::build_with_registry`] without touching this crate.
//! Fig. 2(e–h) is the comparison of localization convergence between the
//! digital and analog backends; Fig. 2(i) is their energy comparison.

use crate::pipeline::{GateConfig, LocalizationPipeline, PipelineRun};
use crate::registry::{BackendRegistry, BackendStats, MapBackend, DIGITAL_GMM};
use crate::Result;
use navicim_analog::engine::CimEngineConfig;
use navicim_backend::PointBatch;
use navicim_filter::filter::FilterConfig;
use navicim_filter::motion::OdometryMotion;
use navicim_gmm::fit::FitConfig;
use navicim_gmm::prune::PruneConfig;
use navicim_math::geom::{Pose, Quat, Vec3};
use navicim_math::rng::{Rng64, SampleExt};
use navicim_scene::camera::{DepthCamera, DepthImage};
use navicim_scene::dataset::LocalizationDataset;

/// Localizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizerConfig {
    /// Number of particles.
    pub num_particles: usize,
    /// Depth-pixel subsampling stride for the measurement model.
    pub pixel_stride: usize,
    /// Number of mixture components in the map model.
    pub components: usize,
    /// Measurement sharpness: per-point mean log-likelihood is multiplied
    /// by this before weighting (tempering against weight collapse).
    pub sharpness: f64,
    /// Initial particle-cloud position σ around the prior pose, in metres.
    pub init_spread: f64,
    /// Initial yaw σ, in radians.
    pub init_yaw_spread: f64,
    /// Motion-model noise.
    pub motion: OdometryMotion,
    /// Particle-filter settings.
    pub filter: FilterConfig,
    /// Likelihood-backend name, resolved against the [`BackendRegistry`]
    /// at build time (defaults: `"digital-gmm"`, `"digital-hmgm"`,
    /// `"cim-hmgm"`).
    pub backend: String,
    /// Analog-engine settings, passed to the backend factory through the
    /// [`MapFitContext`] (digital backends ignore them).
    pub cim: CimEngineConfig,
    /// Mixture-fit settings (GMM warm start for both backends).
    pub fit: FitConfig,
    /// Spatial component-pruning knob, compiled into every backend's
    /// fitted map (see `navicim_gmm::prune`). Off by default; off-mode
    /// evaluation is bit-identical to previous releases.
    pub prune: PruneConfig,
    /// Backend-arbitration section: which backend slots the streaming
    /// pipeline instantiates and which [`crate::pipeline::GatePolicy`]
    /// picks between them per frame. The default is single-backend mode
    /// (serve [`Self::backend`] on every frame), which preserves the
    /// monolithic behavior exactly.
    pub gate: GateConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        Self {
            num_particles: 500,
            pixel_stride: 13,
            components: 16,
            sharpness: 4.0,
            init_spread: 0.25,
            init_yaw_spread: 0.1,
            motion: OdometryMotion::indoor(),
            filter: FilterConfig::default(),
            backend: DIGITAL_GMM.to_string(),
            cim: CimEngineConfig::default(),
            fit: FitConfig::default(),
            prune: PruneConfig::default(),
            gate: GateConfig::default(),
            seed: 0xd20e,
        }
    }
}

/// Per-frame summary of one localization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// Estimated pose after the update.
    pub estimate: Pose,
    /// Translation error against ground truth, in metres.
    pub error: f64,
    /// Particle-cloud positional spread (1σ radius), in metres.
    pub spread: f64,
    /// Effective sample size after the update.
    pub ess: f64,
}

/// Outcome of a full localization run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationRun {
    /// Backend name.
    pub backend: String,
    /// Per-frame estimates (starting at frame 1).
    pub estimates: Vec<Pose>,
    /// Per-frame ground truth (aligned with `estimates`).
    pub truths: Vec<Pose>,
    /// Per-frame translation errors.
    pub errors: Vec<f64>,
    /// Per-frame particle spreads.
    pub spreads: Vec<f64>,
    /// Map point evaluations served during the run.
    pub point_evaluations: u64,
    /// Trait-level backend operation counters (converter fields stay zero
    /// on digital backends; see [`BackendStats::is_analog`]).
    pub stats: BackendStats,
}

impl LocalizationRun {
    /// Mean translation error over the final quarter of the run
    /// (steady-state accuracy).
    pub fn steady_state_error(&self) -> f64 {
        let n = self.errors.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.errors[n - (n / 4).max(1)..];
        navicim_math::stats::mean(tail)
    }
}

/// The Section II pipeline — now a thin wrapper over a single-backend
/// [`LocalizationPipeline`], so the monolithic build/step/run API keeps
/// working bit-for-bit while the streaming pipeline carries the actual
/// logic (and, when [`LocalizerConfig::gate`] names several backends,
/// the per-frame digital↔analog arbitration).
pub struct CimLocalizer {
    pipeline: LocalizationPipeline,
}

impl std::fmt::Debug for CimLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CimLocalizer")
            .field("pipeline", &self.pipeline)
            .finish_non_exhaustive()
    }
}

/// Reusable buffers of the scan measurement model, owned by the pipeline
/// so the per-frame weight step allocates nothing in steady state.
#[derive(Debug)]
pub(crate) struct ScanScratch {
    /// Reused projection buffer.
    points: Vec<Vec3>,
    /// Reused frame-wide query batch.
    pub(crate) batch: PointBatch,
    /// Reused per-particle point counts.
    pub(crate) counts: Vec<usize>,
    /// Reused per-point log-likelihood buffer.
    pub(crate) lls: Vec<f64>,
    /// Reused per-particle log-likelihood buffer (the reduce output, see
    /// `LocalizationPipeline::finish_frame`).
    pub(crate) particle_lls: Vec<f64>,
}

impl Default for ScanScratch {
    fn default() -> Self {
        Self {
            points: Vec::new(),
            batch: PointBatch::new(3),
            counts: Vec::new(),
            lls: Vec::new(),
            particle_lls: Vec::new(),
        }
    }
}

/// Penalty for a hypothesis whose scan projects to no valid points:
/// heavily penalized but finite.
pub(crate) const BLIND_LL: f64 = -1e3;

/// Phase A of the weight step: projects every particle's scan and stages
/// the frame-wide query batch plus per-particle point counts into
/// `scratch` (see `LocalizationPipeline::begin_frame`).
pub(crate) fn stage_scan_batch(
    camera: &DepthCamera,
    obs: &DepthImage,
    stride: usize,
    states: &[Pose],
    scratch: &mut ScanScratch,
) {
    scratch.batch.clear();
    scratch.counts.clear();
    for state in states {
        camera.project_to_world_into(obs, *state, stride, &mut scratch.points);
        scratch.counts.push(scratch.points.len());
        for p in &scratch.points {
            scratch.batch.push_xyz(p.x, p.y, p.z);
        }
    }
}

/// Phase B of the weight step: reduces per-point log-likelihoods
/// (aligned with the staged batch) to per-particle weights; particles
/// whose scan projected to no valid points score [`BLIND_LL`].
pub(crate) fn reduce_scan_lls(sharpness: f64, counts: &[usize], lls: &[f64], out: &mut [f64]) {
    let mut offset = 0;
    for (o, &count) in out.iter_mut().zip(counts) {
        if count == 0 {
            *o = BLIND_LL;
            continue;
        }
        let sum: f64 = lls[offset..offset + count].iter().sum();
        *o = sharpness * sum / count as f64;
        offset += count;
    }
}

impl CimLocalizer {
    /// Fits the map model on the dataset's point cloud, builds the named
    /// backend from the default [`BackendRegistry`] and initializes the
    /// particle cloud around the first frame's pose.
    ///
    /// # Errors
    ///
    /// Propagates fitting/compilation errors; rejects empty datasets and
    /// unknown backend names.
    pub fn build(dataset: &LocalizationDataset, config: LocalizerConfig) -> Result<Self> {
        Self::build_with_registry(dataset, config, &BackendRegistry::with_defaults())
    }

    /// [`Self::build`] against a caller-supplied registry — the hook for
    /// custom backends: register a factory, name it in
    /// [`LocalizerConfig::backend`], and the localizer serves it with no
    /// change to this crate.
    ///
    /// # Errors
    ///
    /// Propagates fitting/compilation errors; rejects empty datasets and
    /// unknown backend names.
    pub fn build_with_registry(
        dataset: &LocalizationDataset,
        config: LocalizerConfig,
        registry: &BackendRegistry,
    ) -> Result<Self> {
        Ok(Self {
            pipeline: LocalizationPipeline::build_with_registry(dataset, config, registry)?,
        })
    }

    /// The underlying streaming pipeline (gate state, per-slot backends).
    pub fn pipeline(&self) -> &LocalizationPipeline {
        &self.pipeline
    }

    /// Mutable access to the underlying pipeline.
    pub fn pipeline_mut(&mut self) -> &mut LocalizationPipeline {
        &mut self.pipeline
    }

    /// The map backend in slot 0 (for stats and energy accounting). In
    /// single-backend mode — the default — this is *the* backend.
    pub fn map(&self) -> &dyn MapBackend {
        self.pipeline.backend(0)
    }

    /// Current pose estimate (weighted mean of the cloud).
    pub fn estimate(&self) -> Pose {
        self.pipeline.estimate()
    }

    /// One predict/update step given odometry `control` and the new depth
    /// frame; returns the per-frame summary against `truth`.
    ///
    /// # Errors
    ///
    /// Propagates filter degeneracy.
    pub fn step(&mut self, control: &Pose, depth: &DepthImage, truth: Pose) -> Result<StepSummary> {
        Ok(self.pipeline.step(control, depth, truth)?.summary)
    }

    /// Runs the filter over the whole dataset using ground-truth frame
    /// deltas as odometry (the motion model adds its own noise). The
    /// wrapper always runs open loop; for VO-driven closed-loop control
    /// (`ControlSource::VisualOdometry` with uncertainty-scaled motion
    /// noise) use [`LocalizationPipeline`] directly — see
    /// `LocalizationPipeline::with_control`.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run(&mut self, dataset: &LocalizationDataset) -> Result<LocalizationRun> {
        Ok(LocalizationRun::from(self.pipeline.run(dataset)?))
    }
}

impl From<PipelineRun> for LocalizationRun {
    /// Flattens a pipeline run into the monolithic run record: per-frame
    /// series extracted from the [`crate::pipeline::FrameReport`]s,
    /// per-slot stats merged into one total, slot names joined with `+`
    /// for gated runs.
    fn from(run: PipelineRun) -> Self {
        let stats = run.merged_stats();
        LocalizationRun {
            backend: run.backends.join("+"),
            estimates: run.frames.iter().map(|f| f.summary.estimate).collect(),
            truths: run.frames.iter().map(|f| f.truth).collect(),
            errors: run.frames.iter().map(|f| f.summary.error).collect(),
            spreads: run.frames.iter().map(|f| f.summary.spread).collect(),
            point_evaluations: stats.evaluations,
            stats,
        }
    }
}

pub(crate) fn perturb_pose<R: Rng64 + ?Sized>(
    prior: Pose,
    spread: f64,
    yaw_spread: f64,
    rng: &mut R,
) -> Pose {
    let dt = Vec3::new(
        rng.sample_normal(0.0, spread),
        rng.sample_normal(0.0, spread),
        rng.sample_normal(0.0, spread),
    );
    let dyaw = Quat::from_axis_angle(Vec3::Z, rng.sample_normal(0.0, yaw_spread));
    Pose::new(
        dyaw.mul_quat(prior.rotation).normalized(),
        prior.translation + dt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ClosureBackend, MapFitContext, CIM_HMGM};
    use navicim_scene::dataset::LocalizationConfig;

    fn small_dataset() -> LocalizationDataset {
        let config = LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 600,
            frames: 10,
            ..LocalizationConfig::default()
        };
        LocalizationDataset::generate(&config, 7).unwrap()
    }

    fn small_config(backend: &str) -> LocalizerConfig {
        // The constrained HMGM map needs a few more kernels than an
        // unconstrained GMM to cover the same scene discriminatively.
        LocalizerConfig {
            num_particles: 250,
            pixel_stride: 7,
            components: 10,
            backend: backend.to_string(),
            seed: 3,
            ..LocalizerConfig::default()
        }
    }

    #[test]
    fn digital_backend_tracks() {
        let ds = small_dataset();
        let mut loc = CimLocalizer::build(&ds, small_config(DIGITAL_GMM)).unwrap();
        let run = loc.run(&ds).unwrap();
        assert_eq!(run.backend, DIGITAL_GMM);
        assert_eq!(run.errors.len(), 9);
        // Tracks within a fraction of the orbit radius throughout.
        let steady = run.steady_state_error();
        assert!(steady < 0.35, "steady-state error {steady}");
        assert!(run.point_evaluations > 0);
        assert!(!run.stats.is_analog());
        assert_eq!(run.stats.evaluations, run.point_evaluations);
    }

    #[test]
    fn cim_backend_tracks_comparably() {
        // The headline claim of Fig. 2(e-h): the co-designed CIM backend
        // matches the conventional digital GMM accuracy.
        let ds = small_dataset();
        let mut digital = CimLocalizer::build(&ds, small_config(DIGITAL_GMM)).unwrap();
        let digital_run = digital.run(&ds).unwrap();
        let mut cim = CimLocalizer::build(&ds, small_config(CIM_HMGM)).unwrap();
        let cim_run = cim.run(&ds).unwrap();
        assert_eq!(cim_run.backend, CIM_HMGM);
        let d = digital_run.steady_state_error();
        let c = cim_run.steady_state_error();
        assert!(c < 0.3, "cim steady-state error {c}");
        assert!(c < d * 3.0 + 0.15, "cim {c} vs digital {d}");
        // Trait-level stats carry the hardware counters.
        let stats = cim_run.stats;
        assert!(stats.is_analog());
        assert!(stats.evaluations > 0);
        assert!(stats.avg_current() > 0.0);
    }

    #[test]
    fn unknown_backend_name_rejected() {
        let ds = small_dataset();
        let err = CimLocalizer::build(&ds, small_config("warp-drive-map")).unwrap_err();
        assert!(err.to_string().contains("warp-drive-map"), "{err}");
    }

    #[test]
    fn custom_registered_backend_drives_the_filter() {
        // A backend registered from outside core serves the full
        // pipeline: no enum to extend, no core edits. The backend itself
        // is deliberately trivial — distance to the map centroid — since
        // this tests the plumbing, not map quality (a realistic custom
        // backend is demonstrated in examples/drone_localization.rs).
        let ds = small_dataset();
        let mut registry = BackendRegistry::with_defaults();
        registry.register("centroid-map", |ctx: &MapFitContext<'_>| {
            let n = ctx.points.len().max(1) as f64;
            let mut centroid = [0.0f64; 3];
            for p in ctx.points {
                for (c, &x) in centroid.iter_mut().zip(p) {
                    *c += x / n;
                }
            }
            Ok(Box::new(ClosureBackend::new(
                "centroid-map",
                3,
                1,
                move |q: &[f64]| {
                    -centroid
                        .iter()
                        .zip(q)
                        .map(|(c, x)| (c - x).powi(2))
                        .sum::<f64>()
                },
            )))
        });
        let mut loc =
            CimLocalizer::build_with_registry(&ds, small_config("centroid-map"), &registry)
                .unwrap();
        let run = loc.run(&ds).unwrap();
        assert_eq!(run.backend, "centroid-map");
        assert!(run.point_evaluations > 0);
        assert!(run.errors.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn uncertainty_shrinks_from_initial_spread() {
        let ds = small_dataset();
        let config = small_config(DIGITAL_GMM);
        let init_spread = config.init_spread;
        let mut loc = CimLocalizer::build(&ds, config).unwrap();
        let run = loc.run(&ds).unwrap();
        // The measurement updates collapse the cloud well below the
        // configured initial 1-sigma radius and keep it there.
        let last = run.spreads.last().copied().unwrap();
        assert!(last < init_spread / 2.0, "spread {init_spread} -> {last}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = small_dataset();
        let empty = LocalizationDataset {
            scene: ds.scene.clone(),
            map_points: ds.map_points.clone(),
            frames: vec![],
            camera: ds.camera,
        };
        assert!(CimLocalizer::build(&empty, small_config(DIGITAL_GMM)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        let run1 = CimLocalizer::build(&ds, small_config(DIGITAL_GMM))
            .unwrap()
            .run(&ds)
            .unwrap();
        let run2 = CimLocalizer::build(&ds, small_config(DIGITAL_GMM))
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run1.errors, run2.errors);
    }
}

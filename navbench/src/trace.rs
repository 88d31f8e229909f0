//! The traced frame step: the split public API of
//! `LocalizationPipeline` (`begin_frame` → backend `log_likelihood_into` →
//! `finish_frame`) with a span around each layer call, plus the replays
//! that time layers the split API does not expose (scan projection, VO
//! MC-Dropout). Replays are queued and run after the traced frames, so
//! they never sit between two frames' spans. The program is unchanged;
//! all spans live here.

use crate::workloads::Setup;
use navicim_backend::PointBatch;
use navicim_core::pipeline::{FrameReport, LocalizationPipeline, ANALOG_SLOT};
use navicim_core::vo::BayesianVo;
use navicim_math::geom::{Pose, Vec3};
use navicim_nn::mc::McPrediction;
use navicim_scene::camera::{DepthCamera, DepthImage};
use std::time::Instant;

/// Spans of every traced frame, in nanoseconds.
#[derive(Debug, Default)]
pub struct Spans {
    /// Whole traced frame: begin + copy + backend + finish.
    pub frame_ns: Vec<u64>,
    pub begin_ns: Vec<u64>,
    pub finish_ns: Vec<u64>,
    /// Backend span and staged points of digital-slot frames.
    pub digital: Vec<(u64, u64)>,
    /// Backend span and staged points of analog-slot frames.
    pub analog: Vec<(u64, u64)>,
    /// Projection replay of every particle's scan.
    pub project_ns: Vec<u64>,
    /// VO MC-Dropout replay and its passes.
    pub vo: Vec<(u64, usize)>,
}

/// Replays the pipeline's VO stage on a twin engine: same trained net,
/// calibration and seed, fed the same frame features at the depth each
/// frame reported, so its prediction must match the report bit for bit.
pub struct VoReplay {
    vo: BayesianVo,
    grid: (usize, usize),
    max_range: f64,
    prev: Vec<f64>,
    curr: Vec<f64>,
    features: Vec<f64>,
    pred: McPrediction,
}

impl VoReplay {
    /// The twin of a freshly forked session's VO stage, or `None` when
    /// the workload runs no VO.
    fn new(setup: &Setup) -> Result<Option<Self>, String> {
        let Some(recipe) = &setup.vo else {
            return Ok(None);
        };
        // The forked stage's previous grid is the first capture's first
        // frame, whichever capture the episode flies.
        let first = setup.capture(0)?;
        let camera = &first.camera;
        let mut prev = Vec::new();
        first.frames[0]
            .depth
            .grid_means_into(recipe.grid.0, recipe.grid.1, &mut prev);
        for g in &mut prev {
            *g /= camera.max_range;
        }
        Ok(Some(Self {
            vo: recipe.build()?,
            grid: recipe.grid,
            max_range: camera.max_range,
            prev,
            curr: Vec::new(),
            features: Vec::new(),
            pred: McPrediction::default(),
        }))
    }

    /// Times one MC prediction on `depth` at `passes`; returns the span
    /// and whether the replayed variance equals the reported one.
    fn replay(&mut self, depth: &DepthImage, passes: usize, reported_variance: f64) -> (u64, bool) {
        depth.grid_means_into(self.grid.0, self.grid.1, &mut self.curr);
        for g in &mut self.curr {
            *g /= self.max_range;
        }
        self.features.clear();
        self.features.extend_from_slice(&self.prev);
        self.features.extend_from_slice(&self.curr);
        self.features
            .extend(self.curr.iter().zip(&self.prev).map(|(c, p)| c - p));
        let t = Instant::now();
        self.vo
            .predict_n_into(&self.features, passes, &mut self.pred);
        let ns = t.elapsed().as_nanos() as u64;
        std::mem::swap(&mut self.prev, &mut self.curr);
        let variance = self
            .pred
            .total_logit_variance()
            .unwrap_or_else(|| self.pred.total_variance());
        (ns, variance.to_bits() == reported_variance.to_bits())
    }
}

/// How a closed loop steps one frame of a session. Sessions are forked
/// afresh for every episode, so steppers that mirror session state are
/// told when an episode begins and ends.
pub trait Stepper {
    /// One frame: its report and its latency from hand-over to report.
    fn step(
        &mut self,
        p: &mut LocalizationPipeline,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> (Result<FrameReport, String>, u64);

    fn begin_episode(&mut self, _setup: &Setup) -> Result<(), String> {
        Ok(())
    }

    fn end_episode(&mut self, _p: &LocalizationPipeline) {}
}

/// The untraced step: the monolithic `LocalizationPipeline::step`.
pub struct Untraced;

impl Stepper for Untraced {
    fn step(
        &mut self,
        p: &mut LocalizationPipeline,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> (Result<FrameReport, String>, u64) {
        let t = Instant::now();
        let report = p.step(control, depth, truth).map_err(|e| e.to_string());
        (report, t.elapsed().as_nanos() as u64)
    }
}

/// What a traced frame leaves for its replays.
struct Queued {
    depth: DepthImage,
    estimate: Pose,
    /// Points the pipeline staged.
    staged: u64,
    /// Reported MC passes and predictive variance, with VO.
    vo: Option<(usize, f64)>,
}

/// Bench-owned buffers and spans of the traced step.
pub struct Tracer {
    camera: DepthCamera,
    particles: usize,
    stride: usize,
    batch: PointBatch,
    lls: Vec<f64>,
    points: Vec<Vec3>,
    vo: Option<VoReplay>,
    queued: Vec<Queued>,
    pub spans: Spans,
    /// `(column activations, column slots)` of the analog slot, summed
    /// over every finished session.
    pub columns: (u64, u64),
    /// Replays that disagreed with the pipeline (projected point count or
    /// VO variance).
    pub replay_mismatches: u64,
}

impl Tracer {
    pub fn new(setup: &Setup) -> Self {
        Self {
            camera: setup.camera(),
            particles: setup.particles(),
            stride: setup.stride(),
            batch: PointBatch::new(3),
            lls: Vec::new(),
            points: Vec::new(),
            vo: None,
            queued: Vec::new(),
            spans: Spans::default(),
            columns: (0, 0),
            replay_mismatches: 0,
        }
    }

    /// One traced frame. The staged batch is copied into a bench-owned
    /// buffer to release the pipeline borrow before the backend call; the
    /// copy is part of the frame span, so it counts as trace overhead.
    fn traced(
        &mut self,
        p: &mut LocalizationPipeline,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> Result<FrameReport, String> {
        let t0 = Instant::now();
        let pending = p.begin_frame(control, depth).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        self.batch.clear();
        self.batch.extend_from_batch(p.staged_batch());
        self.lls.resize(self.batch.len(), 0.0);
        let slot = pending.slot();
        let t2 = Instant::now();
        p.backend_mut(slot)
            .log_likelihood_into(&self.batch, &mut self.lls);
        let t3 = Instant::now();
        let report = p
            .finish_frame(pending, &self.lls, truth)
            .map_err(|e| e.to_string())?;
        let t4 = Instant::now();

        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let points = self.batch.len() as u64;
        self.spans.frame_ns.push(ns(t0, t4));
        self.spans.begin_ns.push(ns(t0, t1));
        self.spans.finish_ns.push(ns(t3, t4));
        let kernel = (ns(t2, t3), points);
        if slot == ANALOG_SLOT {
            self.spans.analog.push(kernel);
        } else {
            self.spans.digital.push(kernel);
        }

        self.queued.push(Queued {
            depth: depth.clone(),
            estimate: report.summary.estimate,
            staged: points,
            vo: report.vo.as_ref().map(|vo| (vo.iterations, vo.variance)),
        });
        Ok(report)
    }

    /// Runs the replays of every queued frame, in frame order: the scan
    /// projection of every particle on the frame's depth (its cost does
    /// not depend on the pose, only on the valid pixels) and the VO twin's
    /// MC prediction. Solo runs call it at the end of each episode, fleet
    /// replays after each round.
    pub fn replay_queued(&mut self) {
        for q in std::mem::take(&mut self.queued) {
            let t = Instant::now();
            let mut projected = 0;
            for _ in 0..self.particles {
                self.camera.project_to_world_into(
                    &q.depth,
                    q.estimate,
                    self.stride,
                    &mut self.points,
                );
                projected += self.points.len();
                std::hint::black_box(&self.points);
            }
            self.spans.project_ns.push(t.elapsed().as_nanos() as u64);
            if projected as u64 != q.staged {
                self.replay_mismatches += 1;
            }

            if let (Some(replay), Some((passes, variance))) = (self.vo.as_mut(), q.vo) {
                let (ns, same) = replay.replay(&q.depth, passes, variance);
                self.spans.vo.push((ns, passes));
                if !same {
                    self.replay_mismatches += 1;
                }
            }
        }
    }
}

impl Stepper for Tracer {
    fn step(
        &mut self,
        p: &mut LocalizationPipeline,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> (Result<FrameReport, String>, u64) {
        let report = self.traced(p, control, depth, truth);
        let ns = match report {
            Ok(_) => self.spans.frame_ns.last().copied().unwrap_or(0),
            Err(_) => 0,
        };
        (report, ns)
    }

    fn begin_episode(&mut self, setup: &Setup) -> Result<(), String> {
        self.vo = VoReplay::new(setup)?;
        Ok(())
    }

    fn end_episode(&mut self, p: &LocalizationPipeline) {
        self.replay_queued();
        let stats = p.backend(ANALOG_SLOT).stats();
        self.columns.0 += stats.column_activations;
        self.columns.1 += stats.column_slots;
    }
}

//! The three workloads: their fixed shapes, their set-up (dataset, map
//! fit / CIM compile, VO training, session forks) and their input streams.
//!
//! Everything a run consumes is derived from the `--seed` argument through
//! [`Seeds`]; the programs under test only ever see the generated inputs.

use navicim_analog::engine::CimEngineConfig;
use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::{
    FaultDetectorConfig, GateConfig, HysteresisConfig, LocalizationPipeline, NoiseInflation,
    SafeModeConfig, VoStage, DIGITAL_SLOT,
};
use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim_core::vo::{
    train_vo_network, AdaptiveMcPolicy, BayesianVo, VoPipelineConfig, VoTrainConfig,
};
use navicim_math::geom::Pose;
use navicim_math::rng::Pcg32;
use navicim_nn::mlp::Mlp;
use navicim_scenario::fault::{FaultEvent, FaultKind, ScenarioScript};
use navicim_scenario::stream::{ScenarioFrame, ScenarioStream};
use navicim_scene::camera::{DepthCamera, DepthImage};
use navicim_scene::dataset::{make_samples, LocalizationConfig, LocalizationDataset};
use navicim_scene::SceneError;
use navicim_serve::{Fleet, FleetConfig};
use std::time::Instant;

/// Agents of the `fleet` workload.
pub const FLEET_AGENTS: usize = 64;
/// Fleet worker threads (the 2-core host's `nproc`).
pub const FLEET_WORKERS: usize = 2;
/// Every `FAULT_EVERY_AGENT`-th fleet agent flies a fault script.
const FAULT_EVERY_AGENT: usize = 8;
/// Frames between two faults of one faulted agent.
const FAULT_PERIOD: usize = 40;
/// First fault frame: the detector's innovation trackers are warm.
const FAULT_AT: usize = 10;
/// Fixed MC-Dropout depth of the `vo-mc` workload (the paper's constant).
const VO_MC_PASSES: usize = 30;
/// VO feature grid of the `vo-mc` workload (3 × 8 × 6 = 144 features).
const VO_GRID: (usize, usize) = (8, 6);
/// Frames an input chunk holds; chunks are generated between timed spans.
pub const CHUNK: usize = 32;
/// Rounds a fleet input chunk holds (64 depth images each).
pub const FLEET_CHUNK: usize = 8;

/// The workload named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo pipeline, large cloud, no VO.
    Track,
    /// Solo pipeline, small cloud, fixed 30-pass MC-Dropout VO.
    VoMc,
    /// 64-session coalesced fleet, every 8th agent faulted.
    Fleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "track" => Some(Self::Track),
            "vo-mc" => Some(Self::VoMc),
            "fleet" => Some(Self::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Track => "track",
            Self::VoMc => "vo-mc",
            Self::Fleet => "fleet",
        }
    }

    fn dataset_config(self) -> LocalizationConfig {
        let (image_width, image_height, map_points) = match self {
            Self::Track => (32, 24, 1200),
            Self::VoMc => (48, 36, 2000),
            Self::Fleet => (24, 18, 600),
        };
        LocalizationConfig {
            image_width,
            image_height,
            map_points,
            frames: 48,
            ..LocalizationConfig::default()
        }
    }

    /// The localizer configuration: every workload sits on the tracking
    /// prior, 6-bit DAC/ADC corner and hysteresis band of the robustness
    /// ablation, and differs in cloud size, map components and stride.
    pub fn localizer_config(self) -> LocalizerConfig {
        let corner = LocalizerConfig {
            init_spread: 0.1,
            init_yaw_spread: 0.05,
            cim: CimEngineConfig {
                dac_bits: 6,
                adc_bits: 6,
                variation_severity: 0.3,
                noise_bandwidth: 1e7,
                ..CimEngineConfig::default()
            },
            gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(HysteresisConfig {
                analog_enter: 0.10,
                digital_enter: 0.14,
                dwell: 2,
                start: DIGITAL_SLOT,
            }),
            seed: 5,
            ..LocalizerConfig::default()
        };
        match self {
            Self::Track => LocalizerConfig {
                num_particles: 256,
                components: 12,
                pixel_stride: 7,
                ..corner
            },
            Self::VoMc => LocalizerConfig {
                num_particles: 32,
                components: 16,
                pixel_stride: 13,
                ..corner
            },
            Self::Fleet => LocalizerConfig {
                num_particles: 64,
                components: 8,
                pixel_stride: 7,
                ..corner
            },
        }
    }
}

/// The seeds a run derives from its `--seed` argument.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Sensor noise of the dataset captures.
    pub dataset: u64,
    /// Agent `i` of episode `e` forks with `session_base + 64 e + i`.
    pub session_base: u64,
    /// Per-frame fault draws of the scripts.
    pub fault: u64,
}

impl Seeds {
    pub fn from_arg(seed: u64) -> Self {
        Self {
            dataset: splitmix(seed ^ 0xD474),
            session_base: splitmix(seed ^ 0x5E55) >> 16,
            fault: splitmix(seed ^ 0xFA17),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CUSUM tuning and dwell of the robustness ablation.
fn safe_mode_config() -> SafeModeConfig {
    SafeModeConfig {
        detector: FaultDetectorConfig {
            drift: 4.0,
            threshold: 60.0,
            warmup: 3,
        },
        hold_frames: 3,
        recovery_innovation: -1.0,
    }
}

/// Wall seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub build_s: f64,
    pub vo_train_s: f64,
    pub fork_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.dataset_s + self.build_s + self.vo_train_s + self.fork_s
    }
}

/// What the VO replay needs to build a twin of the pipeline's VO engine.
pub struct VoRecipe {
    pub net: Mlp,
    pub calib: Vec<Vec<f64>>,
    pub grid: (usize, usize),
}

impl VoRecipe {
    fn config() -> VoPipelineConfig {
        VoPipelineConfig {
            mc_iterations: VO_MC_PASSES,
            ..VoPipelineConfig::default()
        }
    }

    /// A fresh engine, bit-identical to the one the prototype carries.
    pub fn build(&self) -> Result<BayesianVo, String> {
        BayesianVo::build(&self.net, &self.calib, Self::config()).map_err(|e| e.to_string())
    }
}

/// A built workload: the noise-free scene and orbit every capture is
/// rendered from, and the pristine prototype pipeline every session is
/// forked from.
pub struct Setup {
    pub workload: Workload,
    pub seeds: Seeds,
    clean: LocalizationDataset,
    pub proto: LocalizationPipeline,
    pub vo: Option<VoRecipe>,
    pub times: SetupTimes,
}

impl Setup {
    /// Builds the workload, timing each phase.
    pub fn build(workload: Workload, seeds: Seeds) -> Result<Self, String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let clean = LocalizationDataset::generate(&workload.dataset_config(), navicim_bench::SEED)
            .map_err(|e| format!("dataset: {e}"))?;
        // The first episode's capture builds the map, the VO stage and the
        // take-off prior.
        let dataset =
            &capture(workload, &clean, seeds.dataset, 0).map_err(|e| format!("dataset: {e}"))?;
        times.dataset_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (vo, stage) = if workload == Workload::VoMc {
            let (gw, gh) = VO_GRID;
            let samples = make_samples(&dataset.frames, &dataset.camera, gw, gh);
            let net = train_vo_network(
                &samples,
                3 * gw * gh,
                &VoTrainConfig {
                    hidden1: 64,
                    hidden2: 32,
                    epochs: 300,
                    ..VoTrainConfig::default()
                },
            )
            .map_err(|e| format!("vo training: {e}"))?;
            let recipe = VoRecipe {
                net,
                calib: samples.iter().take(8).map(|s| s.features.clone()).collect(),
                grid: VO_GRID,
            };
            let stage = VoStage::new(
                recipe.build()?,
                AdaptiveMcPolicy::fixed(VO_MC_PASSES).map_err(|e| e.to_string())?,
                &dataset.camera,
                &dataset.frames[0].depth,
                gw,
                gh,
            )
            .map_err(|e| format!("vo stage: {e}"))?;
            (Some(recipe), Some(stage))
        } else {
            (None, None)
        };
        times.vo_train_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut proto = LocalizationPipeline::build(dataset, workload.localizer_config())
            .and_then(|p| p.with_safe_mode(safe_mode_config()))
            .and_then(|p| p.with_noise_inflation(NoiseInflation::new(0.0, 1.0, 6.0)?))
            .map_err(|e| format!("pipeline build: {e}"))?;
        if let Some(stage) = stage {
            proto = proto.with_vo(stage);
        }
        times.build_s = t.elapsed().as_secs_f64();

        let mut setup = Self {
            workload,
            seeds,
            clean,
            proto,
            vo,
            times,
        };
        // Every episode forks its sessions afresh; time the first episode's.
        let t = Instant::now();
        if workload == Workload::Fleet {
            drop(setup.new_fleet(0)?);
        } else {
            drop(setup.fork(0, 0)?);
        }
        setup.times.fork_s = t.elapsed().as_secs_f64();
        Ok(setup)
    }

    /// Frames (solo) or rounds (fleet) of one episode. An episode is one
    /// flight from the take-off prior: every session is forked afresh and
    /// flies the looped orbit this long, so a run is a whole number of
    /// episodes and its pose error does not depend on how many frames fit
    /// in the run. The fleet's episode is one full fault cycle.
    pub fn episode_len(&self) -> usize {
        match self.workload {
            Workload::Track => 120,
            Workload::VoMc => 960,
            Workload::Fleet => 4 * FAULT_PERIOD,
        }
    }

    /// Episodes every untraced run flies at least, and the only ones its
    /// modeled energy and pose error are taken over, so those two metrics
    /// cover the same flights however fast the program runs. About as many
    /// as fit in a 25 s run on a 2-core host; later episodes add timing
    /// samples only.
    pub fn scored_episodes(&self) -> usize {
        match self.workload {
            Workload::Track => 40,
            Workload::VoMc => 20,
            Workload::Fleet => 3,
        }
    }

    /// The capture episode `episode` flies, made afresh between timed
    /// spans.
    pub fn capture(&self, episode: usize) -> Result<LocalizationDataset, String> {
        capture(self.workload, &self.clean, self.seeds.dataset, episode)
            .map_err(|e| format!("dataset: {e}"))
    }

    /// The depth camera of every capture.
    pub fn camera(&self) -> DepthCamera {
        self.clean.camera
    }

    /// Seed of agent `agent`'s session in episode `episode`.
    fn session_seed(&self, episode: usize, agent: usize) -> u64 {
        self.seeds
            .session_base
            .wrapping_add((episode * FLEET_AGENTS + agent) as u64)
    }

    /// A fresh fork of agent `agent`'s session of episode `episode`.
    pub fn fork(&self, episode: usize, agent: usize) -> Result<LocalizationPipeline, String> {
        self.proto
            .fork_session(self.session_seed(episode, agent))
            .map_err(|e| format!("session fork: {e}"))
    }

    /// The fleet of episode `episode`: 2 workers, every other knob at its
    /// default (coalesced rounds).
    pub fn new_fleet(&self, episode: usize) -> Result<Fleet, String> {
        let config = FleetConfig {
            workers: FLEET_WORKERS,
            ..FleetConfig::default()
        };
        Fleet::new(
            &self.proto,
            FLEET_AGENTS,
            self.session_seed(episode, 0),
            config,
        )
        .map_err(|e| format!("fleet: {e}"))
    }

    /// Agent `agent`'s input script for episode `episode`. Solo workloads
    /// and the clean fleet agents fly the looped orbit; every 8th fleet
    /// agent meets blackout, kidnap, stuck value and low texture, one
    /// fault every 40 frames, phase-shifted per agent so faults land on
    /// different rounds.
    pub fn script(&self, episode: usize, agent: usize) -> ScenarioScript {
        let frames = self.episode_len();
        let seed = splitmix(self.seeds.fault ^ (episode * FLEET_AGENTS + agent) as u64);
        let mut script = ScenarioScript::clean(self.workload.name(), frames).with_seed(seed);
        if self.workload == Workload::Fleet && agent.is_multiple_of(FAULT_EVERY_AGENT) {
            let phase = 3 * (agent / FAULT_EVERY_AGENT);
            let faults = [
                (3, FaultKind::Dropout { fraction: 1.0 }),
                (1, FaultKind::Teleport { skip: 2 }),
                (3, FaultKind::StuckValue { depth_m: 2.5 }),
                (2, FaultKind::LowTexture),
            ];
            for (k, (duration, kind)) in faults.into_iter().enumerate() {
                script = script.with_event(FaultEvent {
                    at_frame: FAULT_AT + phase + k * FAULT_PERIOD,
                    duration,
                    kind,
                });
            }
        }
        script
    }

    /// Every agent's script of a fleet episode.
    pub fn scripts(&self, episode: usize) -> Vec<ScenarioScript> {
        (0..FLEET_AGENTS).map(|i| self.script(episode, i)).collect()
    }

    pub fn particles(&self) -> usize {
        self.workload.localizer_config().num_particles
    }

    pub fn stride(&self) -> usize {
        self.workload.localizer_config().pixel_stride
    }
}

/// Episode `episode`'s capture of the workload's fixed tabletop scene and
/// orbit, with sensor noise drawn from `seed` and the episode. The scene
/// stays fixed because it is the workload: across scenes the mean pose
/// error of one configuration differs by a quarter to a third
/// (interquartile range over median), which would drown every change a run
/// is meant to show. Every episode flies its own capture, so no single
/// noise draw sets a run's pose error either.
fn capture(
    workload: Workload,
    clean: &LocalizationDataset,
    seed: u64,
    episode: usize,
) -> Result<LocalizationDataset, SceneError> {
    let mut rng = Pcg32::seed_from_u64(splitmix(seed ^ episode as u64));
    let noise = workload.dataset_config().noise;
    let mut dataset = clean.clone();
    for frame in &mut dataset.frames {
        frame.depth = dataset.camera.render(&dataset.scene, frame.pose)?;
        noise.apply(&mut frame.depth, &mut rng);
    }
    Ok(dataset)
}

/// One fleet round's per-agent inputs.
#[derive(Default)]
pub struct Round {
    pub controls: Vec<Pose>,
    pub depths: Vec<DepthImage>,
    pub truths: Vec<Pose>,
}

/// Per-agent input streams of a fleet, drawn a chunk of rounds at a time.
pub struct FleetInputs<'a> {
    streams: Vec<ScenarioStream<'a>>,
}

impl<'a> FleetInputs<'a> {
    pub fn new(
        dataset: &'a LocalizationDataset,
        scripts: &'a [ScenarioScript],
    ) -> Result<Self, String> {
        let streams = scripts
            .iter()
            .map(|s| ScenarioStream::new(dataset, s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Self { streams })
    }

    /// Refills `chunk` with up to `rounds` rounds; returns how many.
    pub fn fill(&mut self, chunk: &mut Vec<Round>, rounds: usize) -> usize {
        chunk.resize_with(rounds, Round::default);
        for (r, round) in chunk.iter_mut().enumerate() {
            round.controls.clear();
            round.depths.clear();
            round.truths.clear();
            for stream in &mut self.streams {
                let Some(ScenarioFrame {
                    control,
                    depth,
                    truth,
                    ..
                }) = stream.next()
                else {
                    chunk.truncate(r);
                    return r;
                };
                round.controls.push(control);
                round.depths.push(depth);
                round.truths.push(truth);
            }
        }
        rounds
    }
}

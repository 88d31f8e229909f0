//! The fleet: many localization sessions over shared map backends.
//!
//! # Round structure
//!
//! [`Fleet::step_round`] advances every session one frame in a
//! bulk-synchronous round. Each session runs its own
//! [`LocalizationPipeline::step`] — the one frame path, with one backend
//! call over its own staged batch. Workers claim sessions one at a time
//! from a shared `Mutex`-guarded iterator; the caller's thread is one of
//! the workers and [`std::thread::scope`] spawns the others, so a
//! one-worker fleet runs the same loop with no spawn and no allocation.
//! The fleet is the one level of parallelism: every likelihood kernel is
//! one sequential pass on the thread stepping its session.
//!
//! # Determinism contract
//!
//! Per-session outputs are **bit-identical** to running that session
//! alone, for any worker count. Sessions fork with per-session
//! RNG/filter/VO/noise state ([`LocalizationPipeline::fork_session`]) and
//! share only read-only fitted maps, so which worker steps a session —
//! and when — is unobservable in its results.

use navicim_core::pipeline::{FrameReport, LocalizationPipeline};
use navicim_core::CoreError;
use navicim_math::geom::Pose;
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::LocalizationDataset;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A serving-layer failure.
#[derive(Debug)]
pub enum ServeError {
    /// A session's pipeline step failed.
    Core(CoreError),
    /// The fleet cannot be built or stepped as asked (no agents,
    /// mismatched per-agent inputs).
    Unsupported(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "session step failed: {e}"),
            Self::Unsupported(msg) => write!(f, "unsupported fleet configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Unsupported(_) => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

/// Serving-layer result.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Fleet serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Threads stepping sessions, the caller's included (clamped to
    /// `1..=agents`).
    pub workers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

/// One round's inputs: either a single `(control, depth, truth)` triple
/// broadcast to every session, or one triple per agent (fault-injection
/// sweeps, heterogeneous fleets). Internal — the round loop is written
/// against `get(idx)` and never knows which shape it serves.
enum RoundInputs<'a> {
    Shared {
        control: &'a Pose,
        depth: &'a DepthImage,
        truth: Pose,
    },
    PerAgent {
        controls: &'a [Pose],
        depths: &'a [DepthImage],
        truths: &'a [Pose],
    },
}

impl RoundInputs<'_> {
    fn get(&self, idx: usize) -> (&Pose, &DepthImage, Pose) {
        match self {
            Self::Shared {
                control,
                depth,
                truth,
            } => (control, depth, *truth),
            Self::PerAgent {
                controls,
                depths,
                truths,
            } => (&controls[idx], &depths[idx], truths[idx]),
        }
    }
}

/// Hundreds-to-thousands of concurrent localization sessions over one
/// shared set of fitted map backends, each forked off one pristine
/// prototype pipeline (sharing the read-only fitted maps / CIM fabric).
pub struct Fleet {
    sessions: Vec<LocalizationPipeline>,
    config: FleetConfig,
    /// Per-agent latency of the last round, nanoseconds from round start
    /// to that agent's frame completion.
    last_latencies_ns: Vec<u64>,
    /// Reused per-round result staging, indexed by session.
    results: Vec<Option<navicim_core::Result<FrameReport>>>,
    /// Reused session-order report buffer the round entry points hand
    /// out.
    reports: Vec<FrameReport>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("agents", &self.sessions.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Forks `agents` sessions off `prototype` (which must be pristine —
    /// see [`LocalizationPipeline::fork_session`]) with seeds
    /// `seed_base + i`.
    ///
    /// # Errors
    ///
    /// Propagates fork failures; rejects `agents == 0`.
    pub fn new(
        prototype: &LocalizationPipeline,
        agents: usize,
        seed_base: u64,
        config: FleetConfig,
    ) -> Result<Self> {
        if agents == 0 {
            return Err(ServeError::Unsupported(
                "fleet requires at least one agent".into(),
            ));
        }
        let mut sessions = Vec::with_capacity(agents);
        for i in 0..agents {
            sessions.push(prototype.fork_session(seed_base.wrapping_add(i as u64))?);
        }
        Ok(Self {
            sessions,
            config: FleetConfig {
                workers: config.workers.clamp(1, agents),
            },
            last_latencies_ns: vec![0; agents],
            results: (0..agents).map(|_| None).collect(),
            reports: Vec::with_capacity(agents),
        })
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.sessions.len()
    }

    /// The serving configuration, with `workers` as clamped by
    /// [`Fleet::new`].
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The session serving agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn session(&self, i: usize) -> &LocalizationPipeline {
        &self.sessions[i]
    }

    /// Per-agent latency of the last round, in nanoseconds from round
    /// start to that agent's frame completion.
    pub fn last_latencies_ns(&self) -> &[u64] {
        &self.last_latencies_ns
    }

    /// Advances every session one frame on a shared `(control, depth,
    /// truth)` broadcast, returning the frame reports in session order.
    /// The returned slice borrows a fleet-owned buffer reused across
    /// rounds (clone what must outlive the next round).
    ///
    /// # Errors
    ///
    /// Propagates the first session failure, by session index. Every
    /// other session still completed its frame, exactly as its solo run
    /// would have.
    pub fn step_round(
        &mut self,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> Result<&[FrameReport]> {
        self.step_sessions(&RoundInputs::Shared {
            control,
            depth,
            truth,
        })
    }

    /// Advances every session one frame on **per-agent** `(control,
    /// depth, truth)` triples — agent `i` consumes `controls[i]`,
    /// `depths[i]`, `truths[i]`. This is the fault-injection entry
    /// point: a scenario sweep feeds faulted inputs to a subset of
    /// agents while the rest fly clean, and the determinism contract
    /// (bit-identity to solo runs for any worker count) holds per agent
    /// exactly as for [`Fleet::step_round`].
    ///
    /// # Errors
    ///
    /// Rejects input slices whose length differs from the agent count;
    /// otherwise as [`Fleet::step_round`].
    pub fn step_round_each(
        &mut self,
        controls: &[Pose],
        depths: &[DepthImage],
        truths: &[Pose],
    ) -> Result<&[FrameReport]> {
        let n = self.sessions.len();
        if controls.len() != n || depths.len() != n || truths.len() != n {
            return Err(ServeError::Unsupported(format!(
                "per-agent round needs {n} controls/depths/truths, got {}/{}/{}",
                controls.len(),
                depths.len(),
                truths.len()
            )));
        }
        self.step_sessions(&RoundInputs::PerAgent {
            controls,
            depths,
            truths,
        })
    }

    /// The fleet loop: every worker claims `(idx, session, result,
    /// latency)` items from one shared iterator until it runs dry. The
    /// caller works the loop too, so one worker spawns nothing and
    /// allocates nothing.
    fn step_sessions(&mut self, inputs: &RoundInputs<'_>) -> Result<&[FrameReport]> {
        let t0 = Instant::now();
        let workers = self.config.workers;
        let queue = Mutex::new(
            self.sessions
                .iter_mut()
                .zip(self.results.iter_mut())
                .zip(self.last_latencies_ns.iter_mut())
                .enumerate(),
        );
        let work = || {
            loop {
                // Only `next` runs under the lock and it leaves the
                // iterator valid, so a poisoned lock hides no torn state.
                // A panicking session step holds no lock; the scope
                // re-raises its panic once every worker is done.
                let item = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((idx, ((session, result), latency_ns))) = item else {
                    break;
                };
                let (control, depth, truth) = inputs.get(idx);
                *result = Some(session.step(control, depth, truth));
                *latency_ns = t0.elapsed().as_nanos() as u64;
            }
        };
        if workers > 1 {
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(work);
                }
                work();
            });
        } else {
            work();
        }
        self.reports.clear();
        for result in &mut self.results {
            match result.take().expect("every round steps every session") {
                // lint: allow(hot-path-alloc) push into a buffer cleared each round; capacity (agents) is reserved at construction
                Ok(report) => self.reports.push(report),
                Err(e) => return Err(ServeError::from(e)),
            }
        }
        Ok(&self.reports)
    }

    /// Streams the whole dataset, broadcasting each frame to every
    /// session. Returns per-session frame reports,
    /// `reports[session][frame]`.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(&mut self, dataset: &LocalizationDataset) -> Result<Vec<Vec<FrameReport>>> {
        let controls = dataset.control_deltas();
        let mut per_session: Vec<Vec<FrameReport>> =
            (0..self.sessions.len()).map(|_| Vec::new()).collect();
        for (t, control) in controls.iter().enumerate() {
            let truth = dataset.frames[t + 1].pose;
            let reports = self.step_round(control, &dataset.frames[t + 1].depth, truth)?;
            for (s, report) in reports.iter().enumerate() {
                per_session[s].push(report.clone());
            }
        }
        Ok(per_session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_core::localization::LocalizerConfig;
    use navicim_scene::dataset::LocalizationConfig;

    #[test]
    fn workers_clamp_to_one_and_to_the_agent_count() {
        let ds = LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 16,
                image_height: 12,
                map_points: 300,
                frames: 3,
                ..LocalizationConfig::default()
            },
            11,
        )
        .expect("dataset generates");
        let config = LocalizerConfig {
            num_particles: 20,
            pixel_stride: 7,
            components: 4,
            seed: 5,
            ..LocalizerConfig::default()
        };
        let prototype = LocalizationPipeline::build(&ds, config).expect("prototype builds");
        assert_eq!(FleetConfig::default().workers, 1);
        for (asked, resolved) in [(0, 1), (1, 1), (3, 3), (4, 3), (usize::MAX, 3)] {
            let fleet =
                Fleet::new(&prototype, 3, 0, FleetConfig { workers: asked }).expect("fleet builds");
            assert_eq!(fleet.config().workers, resolved, "asked for {asked}");
        }
        assert!(Fleet::new(&prototype, 0, 0, FleetConfig::default()).is_err());
    }
}

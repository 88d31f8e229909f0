//! The closed loops: an untraced run for the end-to-end metrics and
//! a traced run (with its untraced reference) for the per-layer metrics.
//!
//! Inputs are drawn a chunk at a time between timed spans, so input
//! generation never counts as frame time; the host probe is timed there
//! too, once per chunk. Every run ends with output checks; a failed check
//! makes the run incorrect.

use crate::host::HostProbe;
use crate::stats::{median, ms, peak_rss_mb, percentile, same_bits, Totals};
use crate::trace::{Stepper, Tracer, Untraced};
use crate::workloads::{
    FleetInputs, Round, Seeds, Setup, SetupTimes, Workload, CHUNK, FLEET_AGENTS, FLEET_CHUNK,
    FLEET_WORKERS,
};
use navicim_core::pipeline::FrameReport;
use navicim_scenario::stream::{ScenarioFrame, ScenarioStream};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fleet rounds every agent replays solo after an untraced run, to check
/// that the fleet serves each agent bit-identically to its solo pipeline.
const CHECK_ROUNDS: usize = 48;
/// Mean pose error above which the filter counts as lost.
const POSE_ERR_LIMIT_M: f64 = 0.5;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark invocation measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Header lines: the host times behind the metrics.
    pub notes: Vec<String>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Wall seconds of the timed loop.
    pub timed_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// When a closed loop stops: at the end of the first episode by which it
/// has both run `seconds` of timed work and flown `episodes` episodes.
struct Stop {
    seconds: f64,
    episodes: usize,
}

impl Stop {
    fn episodes(episodes: usize) -> Self {
        Self {
            seconds: 0.0,
            episodes,
        }
    }

    fn reached(&self, lp: &Loop) -> bool {
        lp.timed_s >= self.seconds && lp.episodes >= self.episodes
    }
}

/// A closed loop's record.
struct Loop {
    lat_ns: Vec<u64>,
    timed_s: f64,
    /// Timed once per input chunk, between the timed spans.
    probe: HostProbe,
    /// Every agent-frame report.
    totals: Totals,
    /// The reports of the first `scored_episodes` episodes.
    scored: Totals,
    scored_episodes: usize,
    /// The first `keep` agent-frame reports (fleet: round after round).
    reports: Vec<FrameReport>,
    episodes: usize,
    attempted: u64,
    failed: u64,
    /// Peak resident memory through set-up and the first episode. Later
    /// episodes repeat the flight on fresh forks, and every re-created
    /// fleet leaves glibc's per-thread arenas a little larger (33 to 55 MB
    /// over 4 fleet episodes), so a later peak would depend on how many
    /// episodes fit in the run.
    rss_mb: f64,
}

impl Loop {
    fn new(setup: &Setup) -> Self {
        let threads = if setup.workload == Workload::Fleet {
            FLEET_WORKERS
        } else {
            1
        };
        Self {
            lat_ns: Vec::new(),
            timed_s: 0.0,
            probe: HostProbe::new(threads),
            totals: Totals::new(),
            scored: Totals::new(),
            scored_episodes: setup.scored_episodes(),
            reports: Vec::new(),
            episodes: 0,
            attempted: 0,
            failed: 0,
            rss_mb: 0.0,
        }
    }

    fn add(&mut self, r: &FrameReport) {
        self.totals.add(r);
        if self.episodes < self.scored_episodes {
            self.scored.add(r);
        }
    }

    /// Closes a chunk of timed frames begun at `t`, then times the host
    /// probe.
    fn end_chunk(&mut self, t: Instant) {
        self.timed_s += t.elapsed().as_secs_f64();
        self.probe.sample(self.lat_ns.len());
    }

    fn end_episode(&mut self) {
        if self.episodes == 0 {
            self.rss_mb = peak_rss_mb();
        }
        self.episodes += 1;
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let seeds = Seeds::from_arg(seed);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // Release the previous build first, so peak memory holds one set-up.
        drop(setup.take());
        let s = Setup::build(workload, seeds)?;
        times.push(s.times);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up rep");
    let setup_med = SetupTimes {
        dataset_s: median(&times.iter().map(|t| t.dataset_s).collect::<Vec<_>>()),
        build_s: median(&times.iter().map(|t| t.build_s).collect::<Vec<_>>()),
        vo_train_s: median(&times.iter().map(|t| t.vo_train_s).collect::<Vec<_>>()),
        fork_s: median(&times.iter().map(|t| t.fork_s).collect::<Vec<_>>()),
    };
    let setup_s = median(&times.iter().map(SetupTimes::total).collect::<Vec<_>>());
    match (workload, trace) {
        (Workload::Fleet, false) => fleet_untraced(&setup, seconds, setup_s),
        (Workload::Fleet, true) => fleet_traced(&setup, setup_med),
        (_, false) => solo_untraced(&setup, seconds, setup_s),
        (_, true) => solo_traced(&setup, seconds, setup_med),
    }
}

/// The end-to-end metrics, frame times in units of the host probe around
/// them (`ref`), and a header note with the times in milliseconds.
fn end_to_end(setup_s: f64, lp: &Loop) -> (Vec<Metric>, Vec<String>) {
    let lat = ms(&lp.lat_ns);
    let (p50, p95) = (percentile(&lat, 50.0), percentile(&lat, 95.0));
    let per_s = lp.totals.frames as f64 / lp.timed_s;
    let ref_ms = lp.probe.median_ms();
    let lat_ref = lp.probe.in_ref_units(&lp.lat_ns);
    let metrics = vec![
        m("setup_s", setup_s, "s"),
        m("frame_p50_ref", percentile(&lat_ref, 50.0), "ref"),
        m("frame_p95_ref", percentile(&lat_ref, 95.0), "ref"),
        m(
            "frames_per_ref",
            lp.totals.frames as f64 / lat_ref.iter().sum::<f64>(),
            "1/ref",
        ),
        m("energy_nj_per_frame", lp.scored.energy_nj(), "nJ"),
        m("pose_err_m_mean", lp.scored.error_mean(), "m"),
        m("peak_rss_mb", lp.rss_mb, "MB"),
    ];
    let notes = vec![format!(
        "times: frame_ms_p50 {p50} ms, frame_ms_p95 {p95} ms, frames_per_s {per_s} 1/s, \
         host probe {ref_ms} ms (median of {})",
        lp.probe.ns.len()
    )];
    (metrics, notes)
}

/// The checks every run makes on the reports of its loop.
fn report_checks(totals: &Totals, checks: &mut Vec<(String, bool)>) {
    checks.push(("reports are finite".into(), totals.finite));
    checks.push((
        format!("mean pose error below {POSE_ERR_LIMIT_M} m"),
        totals.error_mean() < POSE_ERR_LIMIT_M,
    ));
    checks.push((
        "modeled energy is positive".into(),
        totals.energy_nj() > 0.0,
    ));
}

fn all_same(a: &[FrameReport], b: &[FrameReport]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
}

// ---------------------------------------------------------------- solo

/// Flies the next episode of `lp` on a fresh solo fork, each frame handed
/// over only after the previous one returned. Input chunks are drawn
/// between timed spans. Returns `false` when a frame failed, which ends
/// the run.
fn solo_episode<S: Stepper>(
    setup: &Setup,
    lp: &mut Loop,
    keep: usize,
    stepper: &mut S,
) -> Result<bool, String> {
    let episode = lp.episodes;
    let mut session = setup.fork(episode, 0)?;
    stepper.begin_episode(setup)?;
    let script = setup.script(episode, 0);
    let dataset = setup.capture(episode)?;
    let mut stream = ScenarioStream::new(&dataset, &script).map_err(|e| e.to_string())?;
    let mut chunk: Vec<ScenarioFrame> = Vec::with_capacity(CHUNK);
    loop {
        chunk.clear();
        chunk.extend(stream.by_ref().take(CHUNK));
        if chunk.is_empty() {
            break;
        }
        let t = Instant::now();
        for f in &chunk {
            let (report, ns) = stepper.step(&mut session, &f.control, &f.depth, f.truth);
            lp.attempted += 1;
            lp.lat_ns.push(ns);
            match report {
                Ok(r) => {
                    lp.add(&r);
                    if lp.reports.len() < keep {
                        lp.reports.push(r);
                    }
                }
                Err(e) => {
                    eprintln!("episode {episode} frame {} failed: {e}", f.frame);
                    lp.failed += 1;
                    lp.end_chunk(t);
                    return Ok(false);
                }
            }
        }
        lp.end_chunk(t);
    }
    stepper.end_episode(&session);
    lp.end_episode();
    Ok(true)
}

/// Flies solo episodes until `stop` or a failed frame.
fn drive_solo<S: Stepper>(
    setup: &Setup,
    stop: Stop,
    keep: usize,
    stepper: &mut S,
) -> Result<Loop, String> {
    let mut lp = Loop::new(setup);
    while !stop.reached(&lp) && solo_episode(setup, &mut lp, keep, stepper)? {}
    Ok(lp)
}

fn solo_untraced(setup: &Setup, seconds: f64, setup_s: f64) -> Result<Outcome, String> {
    let episode = setup.episode_len();
    let stop = Stop {
        seconds,
        episodes: setup.scored_episodes(),
    };
    let lp = drive_solo(setup, stop, episode, &mut Untraced)?;

    let mut checks = Vec::new();
    report_checks(&lp.totals, &mut checks);
    let replay = drive_solo(setup, Stop::episodes(1), episode, &mut Untraced)?;
    checks.push((
        "the first episode repeats bit for bit on fresh forks".into(),
        replay.failed == 0 && all_same(&lp.reports, &replay.reports),
    ));
    let (metrics, notes) = end_to_end(setup_s, &lp);
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        checks,
        metrics,
        notes,
        samples: lp.lat_ns.len(),
        timed_s: lp.timed_s,
    })
}

fn solo_traced(setup: &Setup, seconds: f64, setup_med: SetupTimes) -> Result<Outcome, String> {
    // Untraced and traced episodes alternate on identical forks, so a
    // host that slows down for a while slows both alike.
    let mut plain = Loop::new(setup);
    let mut traced = Loop::new(setup);
    let mut tracer = Tracer::new(setup);
    while plain.timed_s < seconds / 2.0
        && solo_episode(setup, &mut plain, usize::MAX, &mut Untraced)?
        && solo_episode(setup, &mut traced, usize::MAX, &mut tracer)?
    {}

    let mut checks = Vec::new();
    report_checks(&traced.totals, &mut checks);
    checks.push((
        "traced reports are bit-identical to untraced".into(),
        plain.failed == 0 && traced.failed == 0 && all_same(&plain.reports, &traced.reports),
    ));
    checks.push((
        "projection and VO replays match the pipeline".into(),
        tracer.replay_mismatches == 0,
    ));
    let plain_p50 = median(&ms(&plain.lat_ns));
    let host = (plain_p50, plain.probe.median_ms());
    let metrics = layer_metrics(
        &tracer,
        &traced.totals,
        setup_med,
        plain_p50,
        (0.0, 0.0),
        host,
    );
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        checks,
        metrics,
        notes: Vec::new(),
        samples: tracer.spans.frame_ns.len(),
        timed_s: plain.timed_s,
    })
}

fn layer_metrics(
    tracer: &Tracer,
    totals: &Totals,
    setup: SetupTimes,
    untraced_p50_ms: f64,
    (solo_sum_ms, serve_overhead): (f64, f64),
    (host_frame_ms, host_ref_ms): (f64, f64),
) -> Vec<Metric> {
    let sp = &tracer.spans;
    let kernel_ms =
        |v: &[(u64, u64)]| median(&v.iter().map(|&(ns, _)| ns as f64 / 1e6).collect::<Vec<_>>());
    let ns_per_point = |v: &[(u64, u64)]| {
        median(
            &v.iter()
                .filter(|&&(_, pts)| pts > 0)
                .map(|&(ns, pts)| ns as f64 / pts as f64)
                .collect::<Vec<_>>(),
        )
    };
    let frames = sp.frame_ns.len().max(1) as f64;
    let points: u64 = sp.digital.iter().chain(&sp.analog).map(|&(_, p)| p).sum();
    let passes: usize = sp.vo.iter().map(|&(_, n)| n).sum();
    let traced_p50 = median(&ms(&sp.frame_ns));
    let columns = tracer.columns;
    vec![
        m("core.begin_frame_ms", median(&ms(&sp.begin_ns)), "ms"),
        m("scene.project_ms", median(&ms(&sp.project_ns)), "ms"),
        m("backend.digital_ms", kernel_ms(&sp.digital), "ms"),
        m("backend.analog_ms", kernel_ms(&sp.analog), "ms"),
        m(
            "backend.digital_ns_per_point",
            ns_per_point(&sp.digital),
            "ns",
        ),
        m(
            "backend.analog_ns_per_point",
            ns_per_point(&sp.analog),
            "ns",
        ),
        m("core.points_per_frame", points as f64 / frames, "count"),
        m("core.finish_frame_ms", median(&ms(&sp.finish_ns)), "ms"),
        m(
            "vo.mc_ms",
            median(
                &sp.vo
                    .iter()
                    .map(|&(ns, _)| ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        m("vo.mc_passes_per_frame", passes as f64 / frames, "count"),
        m("core.analog_frame_frac", totals.analog_frac(), "frac"),
        m(
            "analog.active_column_frac",
            if columns.1 == 0 {
                0.0
            } else {
                columns.0 as f64 / columns.1 as f64
            },
            "frac",
        ),
        m("energy.map_nj_per_frame", totals.map_nj(), "nJ"),
        m("energy.vo_nj_per_frame", totals.vo_nj(), "nJ"),
        m("core.safe_mode_frame_frac", totals.safe_frac(), "frac"),
        m("filter.ess_frac_mean", totals.ess_frac_mean(), "frac"),
        m("filter.nees_p50", median(&totals.nees), "1"),
        m("serve.solo_sum_ms", solo_sum_ms, "ms"),
        m("serve.overhead_frac", serve_overhead, "frac"),
        m("setup.dataset_s", setup.dataset_s, "s"),
        m("setup.build_s", setup.build_s, "s"),
        m("setup.vo_train_s", setup.vo_train_s, "s"),
        m("setup.fork_s", setup.fork_s, "s"),
        m(
            "trace.overhead_frac",
            traced_p50 / untraced_p50_ms - 1.0,
            "frac",
        ),
        m("host.frame_ms_p50", host_frame_ms, "ms"),
        m("host.ref_ms", host_ref_ms, "ms"),
    ]
}

// --------------------------------------------------------------- fleet

/// Drives a fresh fleet per episode in BSP rounds until `stop`; the round
/// time is every agent's latency. A failed round fails all its
/// agent-frames and ends the run.
fn drive_fleet(setup: &Setup, stop: Stop, keep: usize) -> Result<Loop, String> {
    let mut lp = Loop::new(setup);
    let mut chunk: Vec<Round> = Vec::new();
    while !stop.reached(&lp) {
        let mut fleet = setup.new_fleet(lp.episodes)?;
        let scripts = setup.scripts(lp.episodes);
        let dataset = setup.capture(lp.episodes)?;
        let mut inputs = FleetInputs::new(&dataset, &scripts)?;
        loop {
            let n = inputs.fill(&mut chunk, FLEET_CHUNK);
            if n == 0 {
                break;
            }
            let t = Instant::now();
            for round in &chunk[..n] {
                let t0 = Instant::now();
                let result = fleet.step_round_each(&round.controls, &round.depths, &round.truths);
                lp.lat_ns.push(t0.elapsed().as_nanos() as u64);
                lp.attempted += FLEET_AGENTS as u64;
                match result {
                    Ok(reports) => {
                        for r in reports {
                            lp.add(r);
                        }
                        if lp.reports.len() < keep {
                            lp.reports.extend_from_slice(reports);
                        }
                    }
                    Err(e) => {
                        eprintln!("episode {} round failed: {e}", lp.episodes);
                        lp.failed += FLEET_AGENTS as u64;
                        lp.end_chunk(t);
                        return Ok(lp);
                    }
                }
            }
            lp.end_chunk(t);
        }
        lp.end_episode();
    }
    Ok(lp)
}

/// What the solo replays of a fleet's agents found.
struct Replay {
    /// Every replayed report equals the fleet's, bit for bit.
    same: bool,
    /// Per round: the sum of every agent's untraced solo step time.
    solo_sum_ns: Vec<u64>,
    /// Every untraced solo step time.
    solo_ns: Vec<u64>,
}

/// Solo replays of every fleet agent over the rounds whose `reports` the
/// fleet kept: each agent forked with its fleet seed and fed its fleet
/// inputs, stepped untraced and, given a tracer, traced too.
fn replay_agents(
    setup: &Setup,
    reports: &[FrameReport],
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let mut replay = Replay {
        same: true,
        solo_sum_ns: Vec::with_capacity(reports.len() / FLEET_AGENTS),
        solo_ns: Vec::with_capacity(reports.len()),
    };
    let mut chunk: Vec<Round> = Vec::new();
    let per_episode = setup.episode_len() * FLEET_AGENTS;
    for (episode, fleet_reports) in reports.chunks(per_episode).enumerate() {
        let rounds = fleet_reports.len() / FLEET_AGENTS;
        let forks = || {
            (0..FLEET_AGENTS)
                .map(|i| setup.fork(episode, i))
                .collect::<Result<Vec<_>, _>>()
        };
        let mut plain = forks()?;
        let mut traced = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.begin_episode(setup)?;
                forks()?
            }
            None => Vec::new(),
        };
        let scripts = setup.scripts(episode);
        let dataset = setup.capture(episode)?;
        let mut inputs = FleetInputs::new(&dataset, &scripts)?;
        let mut r = 0;
        while r < rounds {
            let n = inputs.fill(&mut chunk, FLEET_CHUNK.min(rounds - r));
            if n == 0 {
                return Err("fleet inputs ended before the replay".into());
            }
            for round in &chunk[..n] {
                let mut sum = 0;
                for i in 0..FLEET_AGENTS {
                    let (control, depth, truth) =
                        (&round.controls[i], &round.depths[i], round.truths[i]);
                    let expected = &fleet_reports[r * FLEET_AGENTS + i];
                    let (report, ns) = Untraced.step(&mut plain[i], control, depth, truth);
                    sum += ns;
                    replay.solo_ns.push(ns);
                    replay.same &= report.is_ok_and(|rep| same_bits(&rep, expected));
                    if let Some(tracer) = tracer.as_deref_mut() {
                        let (report, _) = tracer.step(&mut traced[i], control, depth, truth);
                        replay.same &= report.is_ok_and(|rep| same_bits(&rep, expected));
                    }
                }
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.replay_queued();
                }
                replay.solo_sum_ns.push(sum);
                r += 1;
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            for session in &traced {
                tracer.end_episode(session);
            }
        }
    }
    Ok(replay)
}

fn fleet_untraced(setup: &Setup, seconds: f64, setup_s: f64) -> Result<Outcome, String> {
    let stop = Stop {
        seconds,
        episodes: setup.scored_episodes(),
    };
    let lp = drive_fleet(setup, stop, CHECK_ROUNDS * FLEET_AGENTS)?;
    let mut checks = Vec::new();
    report_checks(&lp.totals, &mut checks);
    let replay = replay_agents(setup, &lp.reports, None)?;
    checks.push((
        format!(
            "every agent's first {} rounds match its solo replay bit for bit",
            lp.reports.len() / FLEET_AGENTS
        ),
        replay.same,
    ));
    let (metrics, notes) = end_to_end(setup_s, &lp);
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        checks,
        metrics,
        notes,
        samples: lp.lat_ns.len(),
        timed_s: lp.timed_s,
    })
}

fn fleet_traced(setup: &Setup, setup_med: SetupTimes) -> Result<Outcome, String> {
    // One episode of the fleet, then a solo and a traced replay of every
    // agent over it: 3 × 10k agent-frames, about 25 s on a 2-core host.
    let lp = drive_fleet(setup, Stop::episodes(1), usize::MAX)?;
    let mut tracer = Tracer::new(setup);
    let replay = replay_agents(setup, &lp.reports, Some(&mut tracer))?;
    let mut checks = Vec::new();
    report_checks(&lp.totals, &mut checks);
    checks.push((
        "every agent matches its solo and traced replays bit for bit".into(),
        replay.same,
    ));
    checks.push((
        "projection replay matches the pipeline".into(),
        tracer.replay_mismatches == 0,
    ));
    let round_ns: u64 = lp.lat_ns.iter().sum();
    let solo_ns: u64 = replay.solo_sum_ns.iter().sum();
    let overhead = 1.0 - solo_ns as f64 / (FLEET_WORKERS as f64 * round_ns as f64);
    let metrics = layer_metrics(
        &tracer,
        &lp.totals,
        setup_med,
        median(&ms(&replay.solo_ns)),
        (median(&ms(&replay.solo_sum_ns)), overhead),
        (median(&ms(&lp.lat_ns)), lp.probe.median_ms()),
    );
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        checks,
        metrics,
        notes: Vec::new(),
        samples: lp.lat_ns.len(),
        timed_s: lp.timed_s,
    })
}

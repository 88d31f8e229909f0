//! Cross-crate integration tests: the two paper pipelines exercised
//! through the public umbrella API, plus exactness and determinism
//! guarantees that span crate boundaries.

use navicim::analog::engine::CimEngineConfig;
use navicim::backend::PointBatch;
use navicim::core::localization::{CimLocalizer, LocalizerConfig};
use navicim::core::pipeline::{
    GateConfig, GateKind, HysteresisConfig, LocalizationPipeline, ANALOG_SLOT, DIGITAL_SLOT,
};
use navicim::core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim::core::uncertainty::calibration_summary;
use navicim::core::vo::{
    train_vo_network, BayesianVo, CimQuantBackend, VoPipelineConfig, VoTrainConfig,
};
use navicim::math::rng::Pcg32;
use navicim::nn::quant::{ExactBackend, QuantizedMlp};
use navicim::scene::dataset::{
    LocalizationConfig, LocalizationDataset, VoConfig, VoDataset, VoTrajectory,
};
use navicim::scene::noise::DepthNoise;
use navicim::sram::cim_macro::{MacroConfig, SramCimMacro};

fn loc_dataset(seed: u64) -> LocalizationDataset {
    // Enough map points/frames that the constrained HMGM fit is stable
    // across seeds (600-point clouds give high seed-to-seed variance).
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 32,
            image_height: 24,
            map_points: 1200,
            frames: 12,
            ..LocalizationConfig::default()
        },
        seed,
    )
    .expect("dataset generates")
}

fn vo_dataset(seed: u64) -> VoDataset {
    VoDataset::generate(
        &VoConfig {
            image_width: 24,
            image_height: 18,
            grid_width: 4,
            grid_height: 3,
            frames: 24,
            trajectory: VoTrajectory::Waypoints(4),
            noise: DepthNoise::none(),
            ..VoConfig::default()
        },
        seed,
    )
    .expect("dataset generates")
}

fn small_train() -> VoTrainConfig {
    VoTrainConfig {
        hidden1: 24,
        hidden2: 12,
        epochs: 50,
        ..VoTrainConfig::default()
    }
}

#[test]
fn localization_pipeline_both_backends_converge() {
    let dataset = loc_dataset(101);
    let config = |backend: &str| LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 9,
        backend: backend.into(),
        seed: 5,
        ..LocalizerConfig::default()
    };
    let digital = CimLocalizer::build(&dataset, config(DIGITAL_GMM))
        .expect("digital builds")
        .run(&dataset)
        .expect("digital runs");
    let cim = CimLocalizer::build(&dataset, config(CIM_HMGM))
        .expect("cim builds")
        .run(&dataset)
        .expect("cim runs");
    assert!(
        digital.steady_state_error() < 0.25,
        "digital {:?}",
        digital.errors
    );
    assert!(cim.steady_state_error() < 0.35, "cim {:?}", cim.errors);
    // Both backends evaluated the same measurement workload.
    assert_eq!(digital.point_evaluations, cim.point_evaluations);
}

#[test]
fn per_particle_oracle_matches_step_end_to_end() {
    // `step` weighs a whole frame in one backend call. An oracle that
    // weighs each particle's slice of the staged batch through its own
    // `log_likelihood_into` call must reproduce `step`'s reports bit for
    // bit on both backends, through the public split-frame API.
    const PARTICLES: usize = 300;
    let dataset = loc_dataset(108);
    let config = |backend: &str| LocalizerConfig {
        num_particles: PARTICLES,
        components: 12,
        pixel_stride: 9,
        backend: backend.into(),
        seed: 5,
        ..LocalizerConfig::default()
    };
    let controls = dataset.control_deltas();
    for backend in [DIGITAL_GMM, CIM_HMGM] {
        let mut stepped = LocalizationPipeline::build(&dataset, config(backend)).expect("builds");
        let mut oracle = LocalizationPipeline::build(&dataset, config(backend)).expect("builds");
        let mut reports = Vec::new();
        for (t, control) in controls.iter().enumerate() {
            let frame = &dataset.frames[t + 1];
            let want = stepped
                .step(control, &frame.depth, frame.pose)
                .expect("step");
            let pending = oracle.begin_frame(control, &frame.depth).expect("begin");
            // Projection validity depends on the depth image only, so
            // every particle stages the same number of points.
            let staged = oracle.staged_batch();
            let per_particle = staged.len() / PARTICLES;
            assert!(per_particle > 0, "{backend} frame {t}: empty scans");
            assert_eq!(per_particle * PARTICLES, staged.len());
            let clouds: Vec<PointBatch> = staged
                .as_flat()
                .chunks(3 * per_particle)
                .map(|flat| {
                    let mut cloud = PointBatch::new(3);
                    for p in flat.chunks(3) {
                        cloud.push(p);
                    }
                    cloud
                })
                .collect();
            let mut lls = vec![0.0; staged.len()];
            let map = oracle.backend_mut(pending.slot());
            for (cloud, out) in clouds.iter().zip(lls.chunks_mut(per_particle)) {
                map.log_likelihood_into(cloud, out);
            }
            let got = oracle
                .finish_frame(pending, &lls, frame.pose)
                .expect("finish");
            assert_eq!(got, want, "{backend} frame {t}");
            reports.push(got);
        }
        assert_eq!(
            oracle.backend(0).stats(),
            stepped.backend(0).stats(),
            "{backend}"
        );
        assert!(oracle.backend(0).stats().evaluations > 0, "{backend}");
        // And the pipeline still converges through the one frame path.
        let tail = &reports[reports.len() - (reports.len() / 4).max(1)..];
        let steady = tail.iter().map(|r| r.summary.error).sum::<f64>() / tail.len() as f64;
        assert!(steady < 0.4, "{backend}: steady-state error {steady}");
    }
}

#[test]
fn gated_pipeline_arbitrates_backends_and_saves_energy() {
    // The uncertainty-gated streaming API end to end: a hysteresis gate
    // over [digital, analog] slots must actually use both substrates,
    // spend less map energy than the always-digital baseline, and keep
    // tracking.
    let dataset = loc_dataset(109);
    let config = |policy: GateKind| LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 9,
        // Low-precision converters: the analog energy advantage comes
        // from the Walden-scaled ADC term.
        cim: CimEngineConfig {
            dac_bits: 6,
            adc_bits: 6,
            ..CimEngineConfig::default()
        },
        gate: GateConfig {
            backends: vec![DIGITAL_GMM.into(), CIM_HMGM.into()],
            policy,
        },
        seed: 5,
        ..LocalizerConfig::default()
    };
    let hysteresis = GateKind::Hysteresis(HysteresisConfig {
        analog_enter: 0.07,
        digital_enter: 0.12,
        dwell: 2,
        start: DIGITAL_SLOT,
    });
    let gated = LocalizationPipeline::build(&dataset, config(hysteresis))
        .expect("gated pipeline builds")
        .run(&dataset)
        .expect("gated run completes");
    let digital = LocalizationPipeline::build(&dataset, config(GateKind::Always(DIGITAL_SLOT)))
        .expect("digital pipeline builds")
        .run(&dataset)
        .expect("digital run completes");

    // Both substrates served frames; the stream starts digital (wide
    // initial cloud) and hands converged frames to the analog array.
    assert_eq!(gated.frames[0].slot, DIGITAL_SLOT);
    assert!(gated.frames_on(ANALOG_SLOT) > 0, "{:?}", gated.frames);
    assert!(gated.frames_on(DIGITAL_SLOT) > 0);
    assert!(gated.analog_fraction() > 0.0 && gated.analog_fraction() < 1.0);
    // The mixed-substrate run is cheaper than always-digital and still
    // tracks.
    assert!(
        gated.total_energy_pj() < digital.total_energy_pj(),
        "gated {} pJ vs digital {} pJ",
        gated.total_energy_pj(),
        digital.total_energy_pj()
    );
    assert!(gated.steady_state_error() < 0.4, "{:?}", gated.frames);
    assert!(gated
        .frames
        .iter()
        .all(|f| f.summary.error.is_finite() && f.map_energy_pj > 0.0));
    // Without a VO stage the joint energy *is* the map energy and the bus
    // carries no VO variance.
    assert_eq!(gated.total_energy_pj(), gated.total_map_energy_pj());
    assert_eq!(gated.total_vo_energy_pj(), 0.0);
    assert!(gated
        .frames
        .iter()
        .all(|f| f.vo.is_none() && f.signals.vo_variance.is_none()));
    // Per-slot stats separate the substrates.
    assert!(!gated.stats[DIGITAL_SLOT].is_analog());
    assert!(gated.stats[ANALOG_SLOT].is_analog());

    // The monolithic wrapper serves gated configs too, flattening the
    // pipeline run into the legacy record.
    let legacy = CimLocalizer::build(&dataset, config(GateKind::Always(ANALOG_SLOT)))
        .expect("wrapper builds")
        .run(&dataset)
        .expect("wrapper runs");
    assert_eq!(legacy.backend, format!("{DIGITAL_GMM}+{CIM_HMGM}"));
    assert!(legacy.stats.is_analog());
}

#[test]
fn adaptive_mc_vo_stage_cuts_joint_energy_at_identical_pose_error() {
    // The two-axis co-design end to end: a hysteresis-gated map plus a
    // VO stage whose MC depth adapts to predictive variance must price a
    // *joint* energy strictly below the fixed-30-style run, while the
    // map-side stream (and hence pose error) stays bit-identical — the
    // VO stage is an observer, not an actor, on the filter.
    use navicim::core::pipeline::VoStage;
    use navicim::core::vo::{AdaptiveMcConfig, AdaptiveMcPolicy};
    use navicim::scene::dataset::make_samples;

    let dataset = loc_dataset(110);
    let (grid_w, grid_h) = (4, 3);
    let samples = make_samples(&dataset.frames, &dataset.camera, grid_w, grid_h);
    let net = train_vo_network(&samples, 3 * grid_w * grid_h, &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = samples.iter().take(6).map(|s| s.features.clone()).collect();
    let config = || LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 9,
        gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM),
        seed: 5,
        ..LocalizerConfig::default()
    };
    let run_with = |policy: AdaptiveMcPolicy| {
        let vo = BayesianVo::build(
            &net,
            &calib,
            VoPipelineConfig {
                mc_iterations: 16,
                ..VoPipelineConfig::default()
            },
        )
        .expect("vo builds");
        let stage = VoStage::new(
            vo,
            policy,
            &dataset.camera,
            &dataset.frames[0].depth,
            grid_w,
            grid_h,
        )
        .expect("stage builds");
        LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .with_vo(stage)
            .run(&dataset)
            .expect("run completes")
    };
    let fixed = run_with(AdaptiveMcPolicy::fixed(16).expect("fixed policy"));
    // Thresholds straddling the observed variance scale, probed from the
    // fixed run's logged variances.
    let mut vars: Vec<f64> = fixed
        .frames
        .iter()
        .map(|f| f.vo.expect("stage attached").variance)
        .collect();
    vars.sort_by(|a, b| a.partial_cmp(b).expect("finite variances"));
    // Thresholds inside the observed distribution (p75 / p90, like the
    // abl_gating bin) so both hysteresis directions can fire: most
    // frames are "confident enough" to run shallow, the uncertain tail
    // climbs back toward the ceiling.
    let low = vars[(vars.len() * 3) / 4];
    let p90 = vars[(vars.len() * 9) / 10];
    let high = if p90 > low { p90 } else { low * 1.5 + 1e-12 };
    let adaptive = run_with(
        AdaptiveMcPolicy::new(AdaptiveMcConfig {
            min_iterations: 4,
            max_iterations: 16,
            var_low: low,
            var_high: high,
            dwell: 2,
        })
        .expect("adaptive policy"),
    );
    assert_eq!(fixed.vo_policy.as_deref(), Some("fixed-mc16"));
    assert_eq!(adaptive.vo_policy.as_deref(), Some("adaptive-mc[4..16]"));
    // Map side identical: same slots, same errors, same map energy.
    assert_eq!(fixed.stats, adaptive.stats);
    assert_eq!(fixed.steady_state_error(), adaptive.steady_state_error());
    assert_eq!(fixed.total_map_energy_pj(), adaptive.total_map_energy_pj());
    // VO side adapted: lower mean depth, strictly lower VO and joint
    // energy.
    assert!(
        adaptive.mean_mc_iterations() < fixed.mean_mc_iterations(),
        "adaptive {} vs fixed {}",
        adaptive.mean_mc_iterations(),
        fixed.mean_mc_iterations()
    );
    assert!(adaptive.total_vo_energy_pj() < fixed.total_vo_energy_pj());
    assert!(adaptive.total_energy_pj() < fixed.total_energy_pj());
    // Depths bounded and logged per frame.
    assert!(adaptive
        .frames
        .iter()
        .all(|f| (4..=16).contains(&f.vo.expect("vo record").iterations)));
}

#[test]
fn closed_loop_navigates_on_its_own_vo_estimates() {
    // The full sensor-fusion story end to end: a pipeline whose motion
    // model is driven by the MC-Dropout VO predictive mean (no
    // ground-truth odometry at all), with the prediction's variance
    // scaling the motion noise through the bounded inflation law, must
    // keep tracking the flight at an error comparable to the
    // ground-truth-driven run.
    use navicim::core::pipeline::{ControlSource, NoiseInflation, PipelineRun, VoStage};
    use navicim::core::vo::AdaptiveMcPolicy;
    use navicim::scene::dataset::make_samples;

    // A denser flight than `loc_dataset`: 40 frames per orbit keeps the
    // per-frame deltas (~0.28 m) small enough to sit in the VO
    // regressor's operating regime (the 12-frame datasets take ~0.9 m
    // steps no small depth-grid regressor can resolve).
    let dataset = LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 48,
            image_height: 36,
            map_points: 1500,
            frames: 40,
            ..LocalizationConfig::default()
        },
        111,
    )
    .expect("dataset generates");
    let (grid_w, grid_h) = (4, 3);
    let samples = make_samples(&dataset.frames, &dataset.camera, grid_w, grid_h);
    let net = train_vo_network(
        &samples,
        3 * grid_w * grid_h,
        &VoTrainConfig {
            hidden1: 48,
            hidden2: 24,
            epochs: 300,
            ..VoTrainConfig::default()
        },
    )
    .expect("trains");
    let calib: Vec<Vec<f64>> = samples.iter().take(6).map(|s| s.features.clone()).collect();
    // Tracking regime: a decent start prior and a dense-enough scan that
    // the comparison measures drift containment, as in `abl_gating`.
    let config = || LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 7,
        init_spread: 0.1,
        init_yaw_spread: 0.05,
        gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM),
        seed: 5,
        ..LocalizerConfig::default()
    };
    let inflation = NoiseInflation::default();
    let run_with = |control: ControlSource| -> PipelineRun {
        let vo = BayesianVo::build(
            &net,
            &calib,
            VoPipelineConfig {
                mc_iterations: 12,
                ..VoPipelineConfig::default()
            },
        )
        .expect("vo builds");
        let stage = VoStage::new(
            vo,
            AdaptiveMcPolicy::fixed(12).expect("policy"),
            &dataset.camera,
            &dataset.frames[0].depth,
            grid_w,
            grid_h,
        )
        .expect("stage builds");
        LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .with_vo(stage)
            .with_control(control)
            .with_noise_inflation(inflation)
            .expect("valid inflation")
            .run(&dataset)
            .expect("run completes")
    };
    let open = run_with(ControlSource::GroundTruth);
    let closed = run_with(ControlSource::VisualOdometry);

    // The VO controls are genuinely close to the ground-truth deltas
    // (the regressor trained on this trajectory family), and the closed
    // loop holds the track without ground truth.
    let ctrl_err = closed.mean_control_error().expect("vo stage attached");
    assert!(ctrl_err < 0.05, "mean vo control error {ctrl_err} m");
    assert!(
        closed.steady_state_error() < 0.3,
        "closed-loop steady error {} (open {})",
        closed.steady_state_error(),
        open.steady_state_error()
    );
    assert!(closed
        .frames
        .iter()
        .all(|f| f.summary.error.is_finite() && f.summary.error < 1.0));
    // Control columns: the open run records ground truth at unit scale,
    // the closed run visual odometry at the (here pinned) inflation.
    assert!(open
        .frames
        .iter()
        .all(|f| f.control_source == ControlSource::GroundTruth && f.noise_scale == 1.0));
    for f in &closed.frames {
        assert_eq!(f.control_source, ControlSource::VisualOdometry);
        let vo = f.vo.expect("stage attached");
        assert_eq!(f.noise_scale, inflation.scale(Some(vo.variance)));
        assert!((1.0..=4.0).contains(&f.noise_scale));
    }
    // The frame log exposes the closed-loop columns for gate training.
    let text = closed.to_csv().to_string();
    let header = text.lines().next().expect("header");
    assert!(header.contains("control_source") && header.contains("noise_scale"));
    assert!(text.contains("visual-odometry"));
    // VO energy is paid identically in both modes: closing the loop
    // reuses the inference the observer already ran, it does not add a
    // second compute axis.
    assert_eq!(open.total_vo_energy_pj(), closed.total_vo_energy_pj());
}

#[test]
fn vo_pipeline_produces_calibrated_uncertainty() {
    let dataset = vo_dataset(102);
    let net =
        train_vo_network(&dataset.samples, dataset.feature_dim(), &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .take(8)
        .map(|s| s.features.clone())
        .collect();
    let mut vo = BayesianVo::build(
        &net,
        &calib,
        VoPipelineConfig {
            mc_iterations: 12,
            ..VoPipelineConfig::default()
        },
    )
    .expect("builds");
    let run = vo.run_trajectory(&dataset).expect("runs");
    assert_eq!(run.estimates.len(), dataset.frames.len());
    assert!(run
        .per_step_variance
        .iter()
        .all(|&v| v.is_finite() && v >= 0.0));
    assert!(run.trajectory.ate_rmse.is_finite());
    // The calibration summary computes on real pipeline output.
    let summary = calibration_summary(&run.per_step_variance, &run.per_step_error, 4)
        .expect("summary computes");
    assert!(summary.pearson.is_finite());
}

#[test]
fn macro_without_adc_matches_exact_backend_bit_for_bit() {
    // The SRAM macro with the ADC disabled and reuse enabled must produce
    // exactly the same integer accumulators as the reference backend —
    // reuse is a mathematical identity, not an approximation.
    let dataset = vo_dataset(103);
    let net =
        train_vo_network(&dataset.samples, dataset.feature_dim(), &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .take(6)
        .map(|s| s.features.clone())
        .collect();
    let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib).expect("quantizes");
    let mut exact = ExactBackend::new();
    let mut cim = CimQuantBackend::new(SramCimMacro::new(MacroConfig {
        adc_bits: 0,
        reuse: true,
        ..MacroConfig::default()
    }));
    let mut rng = Pcg32::seed_from_u64(9);
    for sample in dataset.samples.iter().take(6) {
        // Same masks on both paths.
        let masks = qnet.sample_masks(&mut rng);
        let a = qnet.forward_with_masks(&mut exact, &sample.features, &masks);
        let b = qnet.forward_with_masks(&mut cim, &sample.features, &masks);
        assert_eq!(a, b, "macro and exact backend diverged");
    }
    // And the macro did measurably less work.
    let stats = cim.cim().stats();
    assert!(stats.macs_executed < stats.macs_full_equivalent);
}

#[test]
fn pipelines_are_deterministic_given_seeds() {
    let dataset = vo_dataset(104);
    let net =
        train_vo_network(&dataset.samples, dataset.feature_dim(), &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .take(6)
        .map(|s| s.features.clone())
        .collect();
    let run = |seed: u64| {
        let mut vo = BayesianVo::build(
            &net,
            &calib,
            VoPipelineConfig {
                mc_iterations: 8,
                seed,
                ..VoPipelineConfig::default()
            },
        )
        .expect("builds");
        vo.run_trajectory(&dataset).expect("runs").per_step_variance
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn silicon_rng_end_to_end() {
    let dataset = vo_dataset(105);
    let net =
        train_vo_network(&dataset.samples, dataset.feature_dim(), &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .take(6)
        .map(|s| s.features.clone())
        .collect();
    let mut vo = BayesianVo::build(
        &net,
        &calib,
        VoPipelineConfig {
            mc_iterations: 8,
            silicon_rng: true,
            ..VoPipelineConfig::default()
        },
    )
    .expect("builds");
    let run = vo.run_trajectory(&dataset).expect("runs");
    let bits = run.silicon_bits.expect("silicon rng used");
    // Every mask bit came from the modeled SRAM RNG (8 iterations x
    // (24 + 12) dropout units x samples, plus calibration bits).
    assert!(bits > 8 * 36 * dataset.samples.len() as u64 / 2);
}

#[test]
fn energy_models_price_measured_runs() {
    use navicim::energy::analog::AnalogCimProfile;
    use navicim::energy::sram::SramCimProfile;

    // Localization energy from a real CIM run.
    let dataset = loc_dataset(106);
    let mut loc = CimLocalizer::build(
        &dataset,
        LocalizerConfig {
            num_particles: 100,
            components: 8,
            pixel_stride: 9,
            backend: CIM_HMGM.into(),
            ..LocalizerConfig::default()
        },
    )
    .expect("builds");
    let run = loc.run(&dataset).expect("runs");
    let stats = run.stats;
    assert!(stats.is_analog());
    let report = AnalogCimProfile::paper_45nm()
        .likelihood_eval_report(stats.avg_current(), 3, 4, 4)
        .expect("prices");
    // Per-evaluation energy in the paper's few-hundred-fJ regime.
    assert!(report.total_fj() > 20.0 && report.total_fj() < 5000.0);

    // VO energy from a real macro run.
    let vo_data = vo_dataset(107);
    let net =
        train_vo_network(&vo_data.samples, vo_data.feature_dim(), &small_train()).expect("trains");
    let calib: Vec<Vec<f64>> = vo_data
        .samples
        .iter()
        .take(6)
        .map(|s| s.features.clone())
        .collect();
    let mut vo = BayesianVo::build(&net, &calib, VoPipelineConfig::default()).expect("builds");
    let _ = vo.predict(&vo_data.samples[0].features);
    let mstats = vo.macro_stats();
    let tops = SramCimProfile::paper_16nm()
        .effective_tops_per_watt(
            mstats.macs_full_equivalent,
            mstats.macs_executed,
            mstats.adc_conversions,
            8,
            3000,
            4,
        )
        .expect("prices");
    assert!(tops > 0.5 && tops < 30.0, "tops {tops}");
}

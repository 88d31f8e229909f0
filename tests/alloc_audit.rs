//! Runtime allocation sanitizer: the zero-alloc steady-state contract,
//! hard-asserted through the counting global allocator.
//!
//! Built only with `--features alloc-audit` (`required-features` in the
//! root manifest), which swaps the binary's global allocator for
//! [`navicim::math::alloc_audit`]'s counting wrapper. Each case warms a
//! kernel/pipeline until its scratch buffers have grown to the working
//! set, then re-runs the exact same workload and asserts **zero** heap
//! acquisitions (allocs + reallocs).
//!
//! The allocator counters are process-global, so this target runs
//! without the libtest harness (`harness = false`): [`main`] runs every
//! case in turn on the main thread, with no other thread alive to be
//! charged to an audited window. The fleet case runs at `workers: 1`,
//! where the caller works the loop alone and spawns nothing.
//!
//! Run: `cargo test --features alloc-audit --test alloc_audit`

use navicim::analog::engine::{CimEngineConfig, HmgmCimEngine};
use navicim::analog::mapping::SpaceMap;
use navicim::backend::{LikelihoodBackend, PointBatch};
use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{GateConfig, LocalizationPipeline};
use navicim::core::registry::DIGITAL_GMM;
use navicim::device::params::TechParams;
use navicim::gmm::gaussian::{Covariance, Gmm};
use navicim::gmm::hmg::{HmgKernel, HmgmModel};
use navicim::math::alloc_audit;
use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};
use navicim::serve::{Fleet, FleetConfig};

fn main() {
    let cases: [(&str, fn()); 5] = [
        ("gmm_batch_kernel", gmm_batch_kernel_is_zero_alloc_when_warm),
        (
            "hmgm_batch_kernel",
            hmgm_batch_kernel_is_zero_alloc_when_warm,
        ),
        (
            "cim_engine_batch_path",
            cim_engine_batch_path_is_zero_alloc_when_warm,
        ),
        ("pipeline_step", pipeline_step_is_zero_alloc_after_warm_pass),
        (
            "fleet_step_round",
            fleet_step_round_is_zero_alloc_after_warm_pass,
        ),
    ];
    for (name, case) in cases {
        // A failing case panics right after its name: the process exits
        // non-zero and later cases do not run.
        println!("alloc audit {name} ...");
        case();
    }
    println!("alloc audit: {} cases ok", cases.len());
}

/// Runs `f` under the allocation counter and asserts it acquired zero
/// heap memory (no allocs, no growing reallocs). Frees are permitted —
/// the contract is "no acquisition in steady state", and a `Drop` of
/// pre-existing capacity is not an acquisition.
fn assert_zero_alloc<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let (value, delta) = alloc_audit::audited(f);
    assert_eq!(
        delta.acquisitions(),
        0,
        "{label}: steady-state pass acquired heap memory \
         (allocs {}, reallocs {})",
        delta.allocs,
        delta.reallocs,
    );
    value
}

fn query_batch(dim: usize, n: usize) -> PointBatch {
    let mut batch = PointBatch::new(dim);
    for i in 0..n {
        let t = i as f64 / n as f64;
        let point: Vec<f64> = (0..dim)
            .map(|d| (t - 0.5) * (1.0 + d as f64 * 0.1))
            .collect();
        batch.push(&point);
    }
    batch
}

fn gmm_batch_kernel_is_zero_alloc_when_warm() {
    let mut gmm = Gmm::new(
        vec![0.6, 0.4],
        vec![vec![-0.5, 0.0, 0.2], vec![0.6, 0.3, -0.4]],
        Covariance::Diagonal(vec![vec![0.3, 0.3, 0.3], vec![0.4, 0.4, 0.4]]),
    )
    .expect("gmm builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    // Warm pass sizes the struct-held scratch to the component count.
    gmm.log_likelihood_into(&batch, &mut out);
    let warm = out.clone();
    assert_zero_alloc("Gmm::log_likelihood_into", || {
        gmm.log_likelihood_into(&batch, &mut out);
    });
    assert_eq!(out, warm, "steady-state pass changed the output bits");
}

fn hmgm_batch_kernel_is_zero_alloc_when_warm() {
    let k1 = HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![0.4; 3], 1.0).expect("kernel");
    let k2 = HmgKernel::new(vec![0.6, 0.3, -0.4], vec![0.5; 3], 1.0).expect("kernel");
    let mut model = HmgmModel::new(vec![1.0, 0.5], vec![k1, k2]).expect("model builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    model.log_likelihood_into(&batch, &mut out);
    let warm = out.clone();
    assert_zero_alloc("HmgmModel::log_likelihood_into", || {
        model.log_likelihood_into(&batch, &mut out);
    });
    assert_eq!(out, warm, "steady-state pass changed the output bits");
}

fn cim_engine_batch_path_is_zero_alloc_when_warm() {
    let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
    let map = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).expect("map fits");
    let tech = TechParams::cmos_45nm();
    let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &map);
    let sigma = (floor * 2.0).min(ceil);
    let k1 = HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![sigma; 3], 1.0).expect("kernel");
    let k2 = HmgKernel::new(vec![0.6, 0.3, -0.4], vec![sigma; 3], 1.0).expect("kernel");
    let model = HmgmModel::new(vec![1.0, 0.5], vec![k1, k2]).expect("model builds");
    let mut engine =
        HmgmCimEngine::build(&model, map, CimEngineConfig::default()).expect("engine builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    // Two warm passes: the first sizes the scratch, and the engine's
    // noise stream advances per evaluation, so outputs differ between
    // passes by design — only the allocation count must reach zero.
    engine.log_likelihood_into(&batch, &mut out);
    engine.log_likelihood_into(&batch, &mut out);
    assert_zero_alloc("HmgmCimEngine::log_likelihood_into", || {
        engine.log_likelihood_into(&batch, &mut out);
    });
}

fn audit_dataset() -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 500,
            frames: 6,
            ..LocalizationConfig::default()
        },
        11,
    )
    .expect("dataset generates")
}

fn audit_config() -> LocalizerConfig {
    LocalizerConfig {
        num_particles: 100,
        pixel_stride: 7,
        components: 8,
        gate: GateConfig::single(),
        backend: DIGITAL_GMM.into(),
        seed: 5,
        ..LocalizerConfig::default()
    }
}

/// Drives `step` across the dataset twice and asserts the second pass —
/// identical observations, so identical per-frame working sets — is
/// allocation-free.
fn pipeline_step_is_zero_alloc_after_warm_pass() {
    let ds = audit_dataset();
    let mut pipeline = LocalizationPipeline::build(&ds, audit_config()).expect("pipeline builds");
    let controls = ds.control_deltas();
    for (t, control) in controls.iter().enumerate() {
        pipeline
            .step(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("warm-up step");
    }
    for (t, control) in controls.iter().enumerate() {
        assert_zero_alloc(&format!("LocalizationPipeline::step frame {t}"), || {
            pipeline
                .step(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("steady-state step");
        });
    }
}

/// Same contract for the fleet loop at `workers: 1` (the caller works
/// the loop alone, no spawn): after one pass over the dataset, further
/// rounds must not acquire heap memory.
fn fleet_step_round_is_zero_alloc_after_warm_pass() {
    let ds = audit_dataset();
    let prototype = LocalizationPipeline::build(&ds, audit_config()).expect("prototype builds");
    let mut fleet =
        Fleet::new(&prototype, 3, 900, FleetConfig { workers: 1 }).expect("fleet builds");
    let controls = ds.control_deltas();
    for (t, control) in controls.iter().enumerate() {
        fleet
            .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("warm-up round");
    }
    for (t, control) in controls.iter().enumerate() {
        assert_zero_alloc(&format!("Fleet::step_round round {t}"), || {
            fleet
                .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("steady-state round");
        });
    }
}

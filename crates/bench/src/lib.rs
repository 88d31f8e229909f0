//! Shared workloads for the experiment and benchmark binaries.
//!
//! Every table/figure regeneration binary (`src/bin/fig*.rs`,
//! `src/bin/tab*.rs`, `src/bin/abl*.rs`) builds its workload through this
//! module so results stay comparable across experiments. All generators
//! are deterministic in their seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use navicim_core::vo::{train_vo_network, VoTrainConfig};
use navicim_nn::mlp::Mlp;
use navicim_scene::dataset::{
    LocalizationConfig, LocalizationDataset, VoConfig, VoDataset, VoTrajectory,
};
use navicim_scene::noise::DepthNoise;

/// Standard seed for all experiment workloads.
pub const SEED: u64 = 0xDA7E_2024;

/// The standard Section II localization workload: a tabletop scene with a
/// 2k-point map cloud and a 30-frame orbit of 48×36 depth images.
pub fn standard_localization_dataset() -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 48,
            image_height: 36,
            map_points: 2000,
            frames: 30,
            ..LocalizationConfig::default()
        },
        SEED,
    )
    .expect("standard localization dataset generates")
}

/// A smaller localization workload for parameter sweeps.
pub fn small_localization_dataset(seed: u64) -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 32,
            image_height: 24,
            map_points: 1200,
            frames: 16,
            ..LocalizationConfig::default()
        },
        seed,
    )
    .expect("small localization dataset generates")
}

/// The standard Section III VO workload: a waypoint flight of 100 frames
/// with an 8×6 feature grid (96-dimensional features).
pub fn standard_vo_dataset() -> VoDataset {
    VoDataset::generate(
        &VoConfig {
            image_width: 32,
            image_height: 24,
            grid_width: 8,
            grid_height: 6,
            frames: 100,
            trajectory: VoTrajectory::Waypoints(7),
            ..VoConfig::default()
        },
        SEED,
    )
    .expect("standard vo dataset generates")
}

/// A small VO workload for quick benches.
pub fn small_vo_dataset(seed: u64) -> VoDataset {
    VoDataset::generate(
        &VoConfig {
            image_width: 24,
            image_height: 18,
            grid_width: 4,
            grid_height: 3,
            frames: 30,
            trajectory: VoTrajectory::Waypoints(4),
            noise: DepthNoise::none(),
            ..VoConfig::default()
        },
        seed,
    )
    .expect("small vo dataset generates")
}

/// Trains the standard VO regressor on a dataset (64/32 hidden units,
/// p = 0.5 dropout).
pub fn trained_vo_network(dataset: &VoDataset) -> Mlp {
    train_vo_network(
        &dataset.samples,
        dataset.feature_dim(),
        &VoTrainConfig::default(),
    )
    .expect("vo network trains")
}

/// Trains a reduced VO regressor for quick benches.
pub fn small_vo_network(dataset: &VoDataset) -> Mlp {
    train_vo_network(
        &dataset.samples,
        dataset.feature_dim(),
        &VoTrainConfig {
            hidden1: 24,
            hidden2: 12,
            epochs: 60,
            ..VoTrainConfig::default()
        },
    )
    .expect("small vo network trains")
}

/// Calibration inputs for quantization: the first `n` sample features.
pub fn calibration_inputs(dataset: &VoDataset, n: usize) -> Vec<Vec<f64>> {
    dataset
        .samples
        .iter()
        .take(n.max(1))
        .map(|s| s.features.clone())
        .collect()
}

/// The widest SIMD feature tier this binary was compiled for — the
/// `target-cpu` provenance stamp for benchmark snapshots. The repo's
/// `.cargo/config.toml` builds with `target-cpu=native` (instruction
/// selection only; results stay bit-identical across hosts), so two
/// snapshots with equal `cores` can still come from different silicon:
/// this label plus the core count makes committed baselines and owed
/// multi-core re-runs distinguishable.
pub fn target_cpu_label() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "x86-64+avx512"
    } else if cfg!(target_feature = "avx2") {
        "x86-64+avx2"
    } else if cfg!(target_feature = "sse4.2") {
        "x86-64+sse4.2"
    } else if cfg!(target_feature = "sse2") {
        "x86-64+sse2"
    } else if cfg!(target_feature = "neon") {
        "aarch64+neon"
    } else {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_label_is_a_fixed_token() {
        // The label lands in committed JSON snapshots: non-empty, no
        // whitespace or quotes to escape.
        let label = target_cpu_label();
        assert!(!label.is_empty());
        assert!(label.chars().all(|c| c.is_ascii_graphic() && c != '"'));
    }

    #[test]
    fn workloads_generate() {
        let loc = small_localization_dataset(1);
        assert!(loc.frames.len() >= 2);
        let vo = small_vo_dataset(1);
        assert!(vo.samples.len() >= 2);
        assert!(!calibration_inputs(&vo, 4).is_empty());
    }
}

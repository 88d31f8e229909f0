//! Small numeric and host helpers: percentiles, report accumulation,
//! bitwise report comparison and peak resident memory.

use navicim_core::pipeline::{FrameReport, ANALOG_SLOT};

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nanosecond spans as milliseconds.
pub fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Running totals over frame reports.
#[derive(Debug, Default)]
pub struct Totals {
    pub frames: u64,
    pub error_m: f64,
    pub map_pj: f64,
    pub vo_pj: f64,
    pub analog_frames: u64,
    pub safe_frames: u64,
    pub ess_frac: f64,
    pub nees: Vec<f64>,
    /// Every report value the checks need was finite.
    pub finite: bool,
}

impl Totals {
    pub fn new() -> Self {
        Self {
            finite: true,
            ..Self::default()
        }
    }

    pub fn add(&mut self, r: &FrameReport) {
        self.frames += 1;
        self.error_m += r.summary.error;
        self.map_pj += r.map_energy_pj;
        self.vo_pj += r.vo.map_or(0.0, |v| v.energy_pj);
        self.analog_frames += u64::from(r.slot == ANALOG_SLOT);
        self.safe_frames += u64::from(r.safe_mode);
        self.ess_frac += r.signals.ess_fraction;
        self.nees.push(r.nees);
        self.finite &= r.summary.error.is_finite() && r.total_energy_pj().is_finite();
    }

    fn per_frame(&self, sum: f64) -> f64 {
        sum / self.frames.max(1) as f64
    }

    pub fn error_mean(&self) -> f64 {
        self.per_frame(self.error_m)
    }

    pub fn energy_nj(&self) -> f64 {
        self.per_frame(self.map_pj + self.vo_pj) / 1e3
    }

    pub fn map_nj(&self) -> f64 {
        self.per_frame(self.map_pj) / 1e3
    }

    pub fn vo_nj(&self) -> f64 {
        self.per_frame(self.vo_pj) / 1e3
    }

    pub fn analog_frac(&self) -> f64 {
        self.per_frame(self.analog_frames as f64)
    }

    pub fn safe_frac(&self) -> f64 {
        self.per_frame(self.safe_frames as f64)
    }

    pub fn ess_frac_mean(&self) -> f64 {
        self.per_frame(self.ess_frac)
    }
}

/// Bitwise report equality: `Debug` prints every float in its shortest
/// round-trip form, so equal strings mean equal bits (and NaN compares
/// equal to itself, unlike `PartialEq`).
pub fn same_bits(a: &FrameReport, b: &FrameReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! The host-speed probe: a fixed reference kernel timed after every input
//! chunk of a run, between the timed spans, so frame times can be stated
//! in units of it.
//!
//! The host's cores are shared with other tenants, and how fast they run
//! the program's vector and `exp`-heavy kernels drifts by a fifth or more
//! over seconds to minutes. A reference kernel of the same kind, timed on
//! the same cores throughout the run, slows down with them: the ratio of
//! frame time to reference time stays put while either one alone moves.
//! The reference is the benchmark's own code and never changes with the
//! program, so a faster or slower program moves the ratio exactly as it
//! moves the frame time.

use crate::stats::{median, ms};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Points of one probe buffer: 128 KB of `f64`, resident in L2 once warm.
const POINTS: usize = 16 * 1024;
/// Mixture means of the reference likelihood (unit variance).
const MEANS: [f64; 4] = [-1.5, -0.5, 0.5, 1.5];
/// Sweeps of the vector `mul_add` pass over the buffer's first `SWEEP`
/// points (16 KB, resident in L1).
const SWEEPS: usize = 600;
const SWEEP: usize = 2048;
/// A chunk's latencies are divided by the median of the probes of the
/// `2 * SPAN + 1` chunks centred on it: the host's speed around them.
const SPAN: usize = 4;

/// A reference kernel timed on `threads` threads at once: one for the
/// single-threaded solo pipelines, one per worker for the fleet, whose
/// round waits for its slowest worker.
pub struct HostProbe {
    buffers: Vec<Vec<f64>>,
    /// Wall time of every probe, in nanoseconds.
    pub ns: Vec<u64>,
    /// Per probe, how many latency samples the run had timed before it.
    ends: Vec<usize>,
}

impl HostProbe {
    pub fn new(threads: usize) -> Self {
        let buffer: Vec<f64> = (0..POINTS)
            .map(|i| ((i * 7919) % POINTS) as f64 / POINTS as f64 * 4.0 - 2.0)
            .collect();
        Self {
            buffers: vec![buffer; threads.max(1)],
            ns: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Times one probe after the chunk that brought the run to `samples`
    /// latency samples. Every thread first reads its buffer back into its
    /// cache (untimed, so whatever the program left in the caches does not
    /// matter), then all run the kernel together; the probe takes as long
    /// as its slowest thread.
    pub fn sample(&mut self, samples: usize) {
        let ns = match self.buffers.as_mut_slice() {
            [only] => timed_pass(only),
            buffers => {
                let start = Barrier::new(buffers.len());
                std::thread::scope(|s| {
                    let handles: Vec<_> = buffers
                        .iter_mut()
                        .map(|b| {
                            let start = &start;
                            s.spawn(move || {
                                warm(b);
                                start.wait();
                                timed_pass(b)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("probe thread panicked"))
                        .max()
                        .unwrap_or(0)
                })
            }
        };
        self.ns.push(ns);
        self.ends.push(samples);
    }

    /// Median probe time in milliseconds (0 before the first probe).
    pub fn median_ms(&self) -> f64 {
        median(&ms(&self.ns))
    }

    /// Every latency of `lat_ns` in units of the host probe around it (see
    /// [`SPAN`]). Latencies after the last probe have no unit and are left
    /// out; every chunk of a run ends with a probe.
    pub fn in_ref_units(&self, lat_ns: &[u64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(lat_ns.len());
        let mut start = 0;
        for (i, &end) in self.ends.iter().enumerate() {
            let around = &self.ns[i.saturating_sub(SPAN)..(i + SPAN + 1).min(self.ns.len())];
            let unit = median(&around.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
            out.extend(lat_ns[start..end].iter().map(|&ns| ns as f64 / unit));
            start = end;
        }
        out
    }
}

fn warm(buffer: &[f64]) {
    black_box(buffer.iter().sum::<f64>());
}

fn timed_pass(buffer: &mut [f64]) -> u64 {
    warm(buffer);
    let t = Instant::now();
    black_box(kernel(black_box(buffer)));
    t.elapsed().as_nanos() as u64
}

/// A mixture log-likelihood over the buffer (scalar `exp`/`ln`), then
/// vector `mul_add` sweeps over its head; the sweeps map back onto the
/// same values, so every pass does identical work.
fn kernel(buffer: &mut [f64]) -> f64 {
    let mut total = 0.0;
    for &x in buffer.iter() {
        let mut sum = 0.0;
        for mu in MEANS {
            let d = x - mu;
            sum += (-0.5 * d * d).exp();
        }
        total += sum.ln();
    }
    let head = &mut buffer[..SWEEP];
    for _ in 0..SWEEPS {
        for v in head.iter_mut() {
            *v = v.mul_add(-1.0, 0.0);
        }
        black_box(&mut *head);
    }
    total
}

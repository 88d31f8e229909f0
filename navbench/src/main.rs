//! navbench — the repository benchmark.
//!
//! Runs one workload (`track`, `vo-mc` or `fleet`) as a closed loop against
//! the public API of `navicim-core`, `navicim-serve` and `navicim-scenario`,
//! checks the outputs and prints every metric by name and unit. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run. A failed
//! output check exits with code 1.
//!
//! ```sh
//! cargo run --release --manifest-path navbench/Cargo.toml -- \
//!     --workload track --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `navbench/README.md` for the workloads and what each metric
//! predicts.

mod host;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Outcome;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value} (track, vo-mc, fleet)")
                    })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_outcome(args: &Args, o: &Outcome) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# navbench workload={} seed={} seconds={} trace={} timed_s={:.3}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.timed_s
    );
    println!(
        "# host cores={cores} target_cpu={} arch={} os={}",
        navicim_bench::target_cpu_label(),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    let unit = if args.workload == Workload::Fleet {
        "rounds"
    } else {
        "frames"
    };
    println!(
        "# samples={} {unit} (p95 has {} beyond it) attempted={} failed={} failed_frac={}",
        o.samples,
        o.samples - (o.samples * 95).div_ceil(100),
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for note in &o.notes {
        println!("# {note}");
    }
    for (name, ok) in &o.checks {
        println!("# check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for metric in &o.metrics {
        println!("{:<32} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("navbench: {e}");
            std::process::exit(2);
        }
    };
    match run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(mut outcome) => {
            let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
            outcome
                .checks
                .push(("every metric is finite".into(), finite));
            print_outcome(&args, &outcome);
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("navbench: set-up failed: {e}");
            std::process::exit(1);
        }
    }
}

//! The repository benchmark. One run measures one workload from one seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study_cold --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `study_cold` and `decrypt_stream` (see their modules). `--trace 0` prints the end-to-end metrics; `--trace 1`
//! measures the same inputs untraced and then traced, and prints the
//! per-layer metrics. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The lines before it
//! stamp the machine and name each workload's own metrics.

mod drm;
mod inputs;
mod metrics;
mod replay;
mod spans;
mod stats;
mod stream;
mod study;
mod sys;

use std::process::ExitCode;

use metrics::{Layers, Phase, END_TO_END, PER_LAYER};

/// How many times each run sets up; `setup_s` is the median. On
/// `decrypt_stream` every set-up provisions a device with its own
/// seeded RSA-2048 key, whose generation time varies severalfold with
/// the key, so the median needs this many.
pub const SETUPS: usize = 9;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints: operation counts, the contract metrics, and the
/// workload's own metric names.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    named: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn end_to_end(
        phase: &Phase,
        setups: &[f64],
        named: Vec<(&'static str, f64, &'static str)>,
    ) -> Self {
        let values = phase.end_to_end(stats::median(setups), sys::peak_rss_mb());
        let metrics: Vec<_> =
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect();
        let mut named = named;
        named.extend(metrics.iter().filter(|(n, _, _)| matches!(*n, "setup_s" | "peak_rss_mb")));
        Outcome { attempted: phase.attempted, failed: phase.failed, metrics, named }
    }

    fn per_layer(
        phases: &[&Phase],
        layers: Layers,
        named: Vec<(&'static str, f64, &'static str)>,
    ) -> Self {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        Outcome {
            attempted: phases.iter().map(|p| p.attempted).sum(),
            failed: phases.iter().map(|p| p.failed).sum(),
            metrics,
            named,
        }
    }

    fn setup_failed(reason: &str) -> Self {
        eprintln!("set-up failed: {reason}");
        Outcome { attempted: 1, failed: 1, metrics: Vec::new(), named: Vec::new() }
    }

    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && !self.metrics.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// Every digit as measured; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: wideleak-perfbench --workload study_cold|decrypt_stream \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = RunConfig { seed: 0, seconds: 0.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                Ok(())
            }
            "--seed" => parse(&flag, &value).map(|v| cfg.seed = v),
            "--seconds" => parse::<u64>(&flag, &value).map(|v| cfg.seconds = v as f64),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    Ok(())
                }
                _ => Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => Err(format!("unknown flag {flag}")),
        };
        if let Err(problem) = parsed {
            return usage(&problem);
        }
    }
    if cfg.seconds <= 0.0 {
        return usage("--seconds must be a positive whole number");
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let run: fn(&RunConfig) -> Outcome = match workload.as_str() {
        "study_cold" => study::run,
        "decrypt_stream" => stream::run,
        other => return usage(&format!("unknown workload {other}")),
    };

    println!("stamp {}", sys::stamp(&workload, cfg.seed, cfg.seconds as u64, cfg.trace));
    let outcome = run(&cfg);
    for (name, value, unit) in &outcome.named {
        println!("metric {workload} {name} {} {unit}", number(*value));
    }
    if cfg.trace {
        for (name, value, unit) in
            outcome.metrics.iter().filter(|(n, _, _)| n.starts_with("overhead."))
        {
            println!("overhead {workload} {name} {} {unit}", number(*value));
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

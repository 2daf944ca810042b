//! The repository benchmark: drives one named workload through the public
//! APIs of `sim`, `dns`, `faults`, `exec`, `matcher`, `core`, `daemon` and
//! `sketch`, checks every output, and prints one JSON result line.
//!
//! Usage: `botmeter-perfbench --workload NAME --seed N --seconds S
//! --trace 0|1 [--smoke] [--out DIR]`
//!
//! * `--trace 0` measures the end-to-end metrics with no recorder attached.
//! * `--trace 1` measures the per-layer metrics: it repeats the timed phase
//!   untraced and traced (an `Obs::collecting()` recorder plus spans the
//!   benchmark records around each public call), reports the difference as
//!   tracing overhead, runs the single-thread baseline, and writes the spans
//!   and their self times to `DIR/<workload>-seed<N>-trace.json`.
//! * `--smoke` shrinks every input so a run finishes in seconds; the
//!   benchmark's own tests use it.
//!
//! See `perfbench/README.md` for the workloads, their generator parameters
//! and the layer → metric → workload map.

mod border;
mod check;
mod durable;
mod harness;
mod inputs;
mod layers;
mod scenario;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Every heap allocation flows through the counting allocator, so the
/// traced run can charge each timed phase its allocator traffic
/// (`alloc.count_per_lookup`). Installed in every run, so traced and
/// untraced runs execute the same binary.
#[global_allocator]
static ALLOC: botmeter_obs::CountingAlloc = botmeter_obs::CountingAlloc;

/// The command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run returns: the operation tally behind `correct`,
/// `attempted` and `failed`, and the metrics of the requested mode.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

const WORKLOADS: [&str; 3] = ["scenario_stream", "border_chart", "border_durable"];

fn main() {
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("perfbench: {message}");
        eprintln!(
            "usage: botmeter-perfbench --workload {} --seed N --seconds S --trace 0|1 \
             [--smoke] [--out DIR]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let result = match args.workload.as_str() {
        "scenario_stream" => scenario::run(&args),
        "border_chart" => border::run(&args),
        "border_durable" => durable::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            assert!(
                m.value.is_finite(),
                "metric {} is not finite ({})",
                m.name,
                m.value
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

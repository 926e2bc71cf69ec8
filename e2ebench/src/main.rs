//! `awb-e2ebench` — the repository benchmark. One command runs one
//! workload on the shipped defaults, checks every answer, and prints
//! every metric with its unit; the last stdout line is the result object.
//!
//! ```text
//! awb-e2ebench --workload <serve_hot|serve_mobile|plan_frontier>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the run
//! with spans around the benchmark's calls into each layer and reports the
//! per-layer metrics. See `README.md` for the workloads and the metrics.

#![forbid(unsafe_code)]

mod check;
mod client;
mod frontier;
mod hot;
mod inputs;
mod mobile;
mod report;
mod stats;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Hard wall-clock cap on one run: past it the process exits non-zero
/// instead of hanging.
const WALL_CAP: Duration = Duration::from_secs(160);

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input and op order derives from.
    pub seed: u64,
    /// Target length of the timed phase on the reference host; each
    /// workload turns it into a fixed op count.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=60, got {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "awb-e2ebench: {e}\nusage: awb-e2ebench --workload <serve_hot|serve_mobile|plan_frontier> \
                 --seed <n> --seconds <1..=60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Left detached on purpose: it either ends the process at the cap or
    // ends with it.
    std::thread::spawn(|| {
        std::thread::sleep(WALL_CAP);
        eprintln!("awb-e2ebench: wall-clock cap of {WALL_CAP:?} reached; aborting the run");
        std::process::exit(3);
    });
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "serve_hot" => hot::run(&args),
        "serve_mobile" => mobile::run(&args),
        "plan_frontier" => frontier::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("awb-e2ebench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "awb-e2ebench: {} of {} ops failed or answered wrongly",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

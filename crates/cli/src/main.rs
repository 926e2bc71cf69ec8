//! `awb` — command-line interface to the available-bandwidth toolkit.
//!
//! ```text
//! awb topology  [--nodes 30] [--width 400] [--height 600] [--seed 7] [--json]
//! awb available [--hops 4] [--hop-length 70] [--background 0]
//!               [--solver full|colgen] [--pricing heuristic|exact]
//!               [--stab-alpha A] [--pricing-threads N] [--json]
//! awb admission [--flows 8] [--metric average-e2eD] [--demand 2]
//!               [--seed 7] [--pairs-seed 5] [--json]
//! awb simulate  [--hops 3] [--hop-length 70] [--slots 50000] [--demand sat]
//!               [--contention ordered|p0.5|dcf] [--seed 1] [--seeds K]
//!               [--sim-threads N] [--json]
//! awb mobility  [--nodes 30] [--epochs 6] [--mobile 0.1] [--speed M/S]
//!               [--pattern sink|hot|unidir|bidir] [--flows 6] [--demand 2]
//!               [--seed 7] [--json]
//! awb scenario2 [--json]
//! awb serve     [--addr 127.0.0.1:4810] [--workers N] [--queue N] [--stdio]
//!               [--max-frame BYTES] [--drain-ms 5000]
//!               [--enum-engine auto|generic|compiled[:N]] [--solver full|colgen]
//!               [--pricing heuristic|exact] [--stab-alpha A] [--pricing-threads N]
//! awb query     [--addr host:port] [--request '<json>'] [--solver full|colgen]
//!               [--pricing heuristic|exact] [--stab-alpha A] [--pricing-threads N]
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "usage: awb <command> [--flag value]...

commands:
  topology    generate the paper's random topology and print nodes/links
  available   available bandwidth of an n-hop chain (Eq. 6), with bottlenecks
  admission   sequential flow admission on the random topology (Fig. 3)
  simulate    run the CSMA/CA simulator on a chain
  mobility    epoch-driven re-admission over a random-waypoint trace
              (incremental recompilation via Session::apply_delta;
              --pattern picks the demand matrix, --mobile the moving
              fraction, --speed pins the waypoint leg speed)
  scenario2   the paper's clique-invalidity counterexample (16.2 Mbps)
  serve       run the admission-control daemon (JSON lines over TCP,
              served by an epoll reactor — SIGTERM drains and exits 0;
              --stdio for single-shot stdin/stdout mode;
              --max-frame BYTES frame cap;
              --enum-engine auto|generic|compiled[:N] picks the enumerator;
              --solver full|colgen picks the LP strategy;
              --pricing heuristic|exact, --stab-alpha A, and
              --pricing-threads N tune colgen column pricing)
  query       send one request to a server (--addr) or answer it in-process

common flags: --json for machine-readable output, --help for this text";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has("help") || args.command().is_none() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.command().expect("checked above") {
        "topology" => commands::topology(&args),
        "available" => commands::available(&args),
        "admission" => commands::admission(&args),
        "simulate" => commands::simulate(&args),
        "mobility" => commands::mobility(&args),
        "scenario2" => commands::scenario2(&args),
        "serve" => commands::serve(&args),
        "query" => commands::query(&args),
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

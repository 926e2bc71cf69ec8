//! Where a bench row was measured: core count, toolchain and source commit,
//! so rows of two commits measured on one host can sit side by side in a
//! `BENCH_*.json` report.

use serde::Serialize;
use std::process::Command;

/// The host a row was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git describe --always --dirty` of the source tree the bench was
    /// built from.
    pub commit: String,
}

/// The standard output of a command, trimmed; `"unknown"` when it fails.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Describes this process's host and the tree this crate was built from.
pub fn host() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_output("rustc", &["-V"]),
        commit: command_output(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "describe",
                "--always",
                "--dirty",
                "--abbrev=12",
            ],
        ),
    }
}

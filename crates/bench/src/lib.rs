//! Experiment drivers for regenerating every table and figure of the paper
//! (see DESIGN.md's experiment index), shared between the `fig*`/`scenario*`
//! binaries and the Criterion benches.
//!
//! Each driver returns machine-readable row types (serde-serializable) so
//! EXPERIMENTS.md can be regenerated from the same data the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod host;
pub mod rows;
pub mod svg;
pub mod table;
pub mod topo;

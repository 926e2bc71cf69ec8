//! The paper's core model: **available path bandwidth with background
//! traffic** in multirate, multihop wireless networks, assuming a globally
//! optimal link schedule (Chen, Zhai & Fang, ICDCS 2009).
//!
//! * [`available_bandwidth`] — the §2.5 linear program (Eq. 6): the maximum
//!   throughput a new path can carry while every background flow keeps its
//!   demand, over time shares of rate-coupled independent sets.
//! * [`Schedule`] — the optimal link scheduling extracted from the LP, i.e.
//!   the `{(E_i, R_i*, λ_i)}` witness of Eq. 2.
//! * [`feasibility`] — Eq. 2/Eq. 4 feasibility tests and minimum-airtime
//!   computation for a set of flows.
//! * [`colgen`] — a delayed column-generation solve path for the same LP:
//!   prices independent sets in on demand via a branch-and-bound oracle
//!   instead of enumerating them all (select with
//!   [`SolverKind::ColumnGeneration`]). Full enumeration,
//!   [`available_bandwidth_with_sets`] and column generation all build and
//!   read one Eq. 6 master LP; they differ only in the column pools.
//! * [`Session`] / [`CompiledInstance`] — the compile-once / query-many
//!   split: per-universe compiled state (enumerated set pools, or pricing
//!   oracles with their deterministic seed columns) cached across many
//!   Eq. 6 queries, bit-for-bit identical to the one-shot functions. Instances are assemblies of
//!   content-hashed per-component [`CompiledUnit`]s, and
//!   `CompiledInstance::apply_delta` migrates them across topology changes
//!   ([`awb_net::TopologyDelta`]) by recompiling only the touched
//!   components.
//! * [`bounds`] — the Eq. 7 fixed-rate clique bounds, the corrected Eq. 9
//!   upper bound (the clique constraint itself being *invalid* under link
//!   adaptation is demonstrated in this workspace's Scenario II tests), and
//!   §3.3 lower bounds from restricted independent-set pools.
//!
//! # Example
//!
//! A single link whose channel is half-occupied by background traffic on an
//! interfering link:
//!
//! ```
//! use awb_core::{available_bandwidth, AvailableBandwidthOptions, Flow};
//! use awb_net::{DeclarativeModel, LinkRateModel, Path, Topology};
//! use awb_phy::Rate;
//!
//! let mut t = Topology::new();
//! let n: Vec<_> = (0..4).map(|i| t.add_node(i as f64, 0.0)).collect();
//! let l1 = t.add_link(n[0], n[1])?;
//! let l2 = t.add_link(n[2], n[3])?;
//! let r54 = Rate::from_mbps(54.0);
//! let model = DeclarativeModel::builder(t)
//!     .alone_rates(l1, &[r54])
//!     .alone_rates(l2, &[r54])
//!     .conflict_all(l1, l2)
//!     .build();
//! let bg_path = Path::new(model.topology(), vec![l1])?;
//! let new_path = Path::new(model.topology(), vec![l2])?;
//! let background = vec![Flow::new(bg_path, 27.0)?]; // half of 54 Mbps
//! let result = available_bandwidth(
//!     &model, &background, &new_path, &AvailableBandwidthOptions::default())?;
//! assert!((result.bandwidth_mbps() - 27.0).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod available;
pub mod bounds;
pub mod colgen;
pub mod decomposition;
mod error;
pub mod feasibility;
mod flow;
mod schedule;
mod session;
mod units;

pub use available::{
    available_bandwidth, available_bandwidth_with_sets, link_universe, path_capacity,
    AvailableBandwidth, AvailableBandwidthOptions, PricingMode, SolverKind,
};
pub use colgen::{available_bandwidth_colgen, ColgenOutcome, ColgenStats};
pub use error::CoreError;
pub use flow::Flow;
pub use schedule::Schedule;
pub use session::{CompiledInstance, Session, SessionStats};
pub use units::{CompiledUnit, DeltaReuse, UnitCache, DEFAULT_RETENTION_EPOCHS};

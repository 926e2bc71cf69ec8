//! A slotted CSMA/CA wireless MAC simulator.
//!
//! The paper's distributed estimators consume **channel idleness ratios**
//! measured by carrier sensing (§4). The `awb-estimate` crate derives those
//! ratios analytically from a schedule; this crate measures them
//! *behaviourally*: a contention MAC in the spirit of IEEE 802.11 DCF runs
//! over any [`awb_net::LinkRateModel`], forwarding multihop traffic and
//! recording per-node busy time, per-link throughput and collisions.
//!
//! # Model
//!
//! Time is divided into equal slots. In each slot:
//!
//! 1. Every backlogged link contends. Contenders are visited in random
//!    order; a contender transmits iff its transmitter does not hear any
//!    link already granted this slot (physical carrier sensing).
//! 2. Each transmitting link uses a rate given by its [`RatePolicy`]; the
//!    transmission succeeds iff the couple set of all concurrent
//!    transmissions is admissible for it (SINR capture), else the slot is a
//!    **collision** for that link and delivers nothing.
//! 3. Each node that participates in or hears any granted link is busy this
//!    slot; per-node idleness is the fraction of non-busy slots.
//!
//! Flows inject demand at their first hop; delivered traffic cascades to the
//! next hop's queue, so end-to-end throughput is measured at the last hop.
//!
//! # Example
//!
//! Scenario I behaviourally: two independent background links at load λ and
//! an idle observer. Their transmissions overlap only by chance, so the
//! observer's measured idle time underestimates what an optimal scheduler
//! could align:
//!
//! ```
//! use awb_sim::{SimConfig, Simulator};
//! use awb_workloads::ScenarioOne;
//!
//! let s1 = ScenarioOne::new();
//! let lambda = 0.4;
//! let mut sim = Simulator::new(s1.model(), SimConfig { slots: 20_000, ..SimConfig::default() });
//! let t = s1.model();
//! for flow in s1.background(lambda) {
//!     sim.add_flow(flow.path().clone(), Some(flow.demand_mbps()));
//! }
//! let report = sim.run(t);
//! let l3_tx = t.topology().link(s1.links()[2]).unwrap().tx();
//! let measured_idle = report.node_idle_ratio[l3_tx.index()];
//! // Optimal overlap would leave 1 − λ = 0.6 idle; random phases leave less.
//! assert!(measured_idle < 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod engine;
mod kernel;
mod report;

pub use engine::{Contention, RatePolicy, SimConfig, Simulator};
pub use report::SimReport;

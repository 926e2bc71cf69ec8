//! The slotted CSMA/CA engine.

use crate::report::SimReport;
use awb_net::{LinkId, LinkRateModel, Path};
use awb_phy::Rate;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How a transmitting link picks its rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RatePolicy {
    /// The maximum rate the link supports alone — aggressive, collides when
    /// concurrent interference is high (802.11-style fixed selection by
    /// receiver sensitivity).
    #[default]
    AloneMax,
    /// The lowest rate of the link's table — robust, slow.
    Lowest,
}

/// How backlogged links contend for the channel each slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Contention {
    /// Idealized CSMA: contenders are visited in random order and a link
    /// transmits iff its transmitter hears no already-granted link —
    /// collision-free among mutual hearers, like a perfect backoff.
    #[default]
    OrderedCsma,
    /// p-persistent slotted CSMA: every backlogged link whose transmitter
    /// sensed the channel idle in the *previous* slot transmits with the
    /// given probability. Mutual hearers can fire together and collide —
    /// the classic contention-loss regime.
    PPersistent(f64),
    /// 802.11 DCF-style binary exponential backoff: each backlogged link
    /// draws a backoff uniform in `[0, cw)`, decrements it in slots whose
    /// previous slot its transmitter sensed idle, and transmits at zero.
    /// Successes reset `cw` to `cw_min`; collisions double it up to
    /// `cw_max`.
    Dcf {
        /// Minimum contention window (802.11a uses 16).
        cw_min: u32,
        /// Maximum contention window (802.11a uses 1024).
        cw_max: u32,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of slots to simulate.
    pub slots: u64,
    /// Slot duration in seconds (default 1 ms; with Mbps rates, a 54 Mbps
    /// link moves 0.054 Mbit per slot).
    pub slot_seconds: f64,
    /// Rate-selection policy.
    pub rate_policy: RatePolicy,
    /// Contention resolution model.
    pub contention: Contention,
    /// RNG seed for contention order and arrival phases.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slots: 50_000,
            slot_seconds: 1e-3,
            rate_policy: RatePolicy::AloneMax,
            contention: Contention::OrderedCsma,
            seed: 1,
        }
    }
}

pub(crate) struct SimFlow {
    pub(crate) hops: Vec<LinkId>,
    /// Probability of a full-slot packet arriving each slot; `None` =
    /// saturated source.
    pub(crate) arrival_probability: Option<f64>,
    /// Mbit queued at each hop.
    pub(crate) queues: Vec<f64>,
    /// Mbit delivered end-to-end.
    pub(crate) delivered_mbit: f64,
}

/// A configured simulation: add flows, then [`run`](Simulator::run).
///
/// See the [crate-level documentation](crate) for the slot model.
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: SimConfig,
    /// Per-link chosen transmission rate (Mbps), `None` for dead links.
    pub(crate) link_rate: Vec<Option<Rate>>,
    pub(crate) flows: Vec<FlowSpec>,
}

#[derive(Debug, Clone)]
pub(crate) struct FlowSpec {
    path: Path,
    demand_mbps: Option<f64>,
}

impl Simulator {
    /// Creates a simulator over `model`'s links.
    pub fn new<M: LinkRateModel>(model: &M, config: SimConfig) -> Simulator {
        assert!(config.slots > 0, "simulate at least one slot");
        assert!(
            config.slot_seconds > 0.0 && config.slot_seconds.is_finite(),
            "slot duration must be positive"
        );
        let link_rate = model
            .topology()
            .links()
            .map(|l| {
                let rates = model.alone_rates(l.id());
                match config.rate_policy {
                    RatePolicy::AloneMax => rates.first().copied(),
                    RatePolicy::Lowest => rates.last().copied(),
                }
            })
            .collect();
        Simulator {
            config,
            link_rate,
            flows: Vec::new(),
        }
    }

    /// Adds a flow along `path` with the given demand in Mbps (`None` =
    /// saturated source). Returns the flow's index in the report.
    pub fn add_flow(&mut self, path: Path, demand_mbps: Option<f64>) -> usize {
        assert!(
            demand_mbps.is_none_or(|d| d.is_finite() && d >= 0.0),
            "demand must be finite and non-negative"
        );
        self.flows.push(FlowSpec { path, demand_mbps });
        self.flows.len() - 1
    }

    /// Runs the simulation and returns the measurements.
    ///
    /// Executes the compiled slot kernels (§5j): hearing, interference and
    /// conflict relations precompiled into word-packed `u64` masks, per-slot
    /// checks reduced to AND/OR/popcount over a reused scratch arena — no
    /// per-slot allocation. The report is bit-for-bit the one
    /// [`run_reference`](Simulator::run_reference) produces.
    ///
    /// `model` must be the same model the simulator was built over.
    pub fn run<M: LinkRateModel>(&self, model: &M) -> SimReport {
        crate::kernel::run_compiled(self, model)
    }

    /// Builds the per-flow runtime state shared by both slot loops.
    pub(crate) fn sim_flows(&self) -> Vec<SimFlow> {
        self.flows
            .iter()
            .map(|f| {
                // A rate-limited source emits full-slot packets as a
                // Bernoulli process with mean rate = demand: random phases
                // across flows, so independent flows overlap only by
                // chance (the Scenario I phenomenon).
                let first_rate = self.link_rate[f.path.links()[0].index()];
                let arrival_probability = f.demand_mbps.map(|d| match first_rate {
                    Some(r) => (d / r.as_mbps()).min(1.0),
                    None => 0.0,
                });
                SimFlow {
                    hops: f.path.links().to_vec(),
                    arrival_probability,
                    queues: vec![0.0; f.path.len()],
                    delivered_mbit: 0.0,
                }
            })
            .collect()
    }

    /// Which flow+hop feeds each link (multiple flows may share a link;
    /// they are drained in arrival order).
    pub(crate) fn feeders(flows: &[SimFlow], num_links: usize) -> Vec<Vec<(usize, usize)>> {
        let mut feeders: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_links];
        for (fi, f) in flows.iter().enumerate() {
            for (hi, &l) in f.hops.iter().enumerate() {
                feeders[l.index()].push((fi, hi));
            }
        }
        feeders
    }

    /// Validated DCF window bounds; `(1, 1)` for the other contention
    /// modes (whose backoff state is never consulted).
    pub(crate) fn cw_bounds(&self) -> (u32, u32) {
        match self.config.contention {
            Contention::Dcf { cw_min, cw_max } => {
                assert!(
                    cw_min >= 1 && cw_max >= cw_min,
                    "need 1 <= cw_min <= cw_max"
                );
                (cw_min, cw_max)
            }
            _ => (1, 1),
        }
    }

    /// The reference slot loop: per-slot scans that ask the model's
    /// `node_hears`/`victim_max_rate` for every contender. It simulates the
    /// same slot process as [`run`](Simulator::run) and consumes the RNG in
    /// the same order, so the reports are identical; it exists as the
    /// oracle the kernel property tests and the kernel ablation compare
    /// against, at several times the per-slot cost.
    pub fn run_reference<M: LinkRateModel>(&self, model: &M) -> SimReport {
        let t = model.topology();
        let num_links = t.num_links();
        let num_nodes = t.num_nodes();
        let mut rng = SmallRng::seed_from_u64(self.config.seed);

        let mut flows = self.sim_flows();
        let feeders = Simulator::feeders(&flows, num_links);

        // Precompute hearing: for each link, the nodes that hear it.
        let hearers: Vec<Vec<usize>> = t
            .links()
            .map(|l| {
                t.nodes()
                    .filter(|n| model.node_hears(n.id(), l.id()))
                    .map(|n| n.id().index())
                    .collect()
            })
            .collect();

        let mut node_busy_slots = vec![0u64; num_nodes];
        let mut link_delivered_mbit = vec![0.0f64; num_links];
        let mut link_tx_slots = vec![0u64; num_links];
        let mut link_collision_slots = vec![0u64; num_links];

        let mut busy_last_slot = vec![false; num_nodes];
        // DCF state: current contention window and pending backoff counter.
        let (cw_min, cw_max) = self.cw_bounds();
        let mut cw = vec![cw_min; num_links];
        let mut backoff: Vec<Option<u32>> = vec![None; num_links];
        for _ in 0..self.config.slots {
            // Arrivals.
            for f in &mut flows {
                let Some(r) = self.link_rate[f.hops[0].index()] else {
                    continue;
                };
                let need = r.as_mbps() * self.config.slot_seconds;
                match f.arrival_probability {
                    Some(p) => {
                        if rng.gen_bool(p) {
                            f.queues[0] += need;
                        }
                    }
                    None => {
                        // Saturated: first hop always has a slot's worth.
                        if f.queues[0] < need {
                            f.queues[0] = need;
                        }
                    }
                }
            }

            // Backlogged links: a link contends only when its feeders have a
            // full slot's payload queued (smaller residues wait — a slot is
            // indivisible channel time).
            let backlogged: Vec<bool> = (0..num_links)
                .map(|li| {
                    let Some(rate) = self.link_rate[li] else {
                        return false;
                    };
                    let need = rate.as_mbps() * self.config.slot_seconds;
                    let queued: f64 = feeders[li]
                        .iter()
                        .map(|&(fi, hi)| flows[fi].queues[hi])
                        .sum();
                    queued + 1e-12 >= need
                })
                .collect();

            // Contention resolution.
            let mut granted: Vec<LinkId> = Vec::new();
            match self.config.contention {
                Contention::OrderedCsma => {
                    // Contenders are visited in a uniformly random order;
                    // only backlogged links enter the draw, so the shuffle
                    // cost tracks the offered load, not the topology size.
                    let mut contenders: Vec<usize> =
                        (0..num_links).filter(|&li| backlogged[li]).collect();
                    contenders.shuffle(&mut rng);
                    for &li in &contenders {
                        let link = LinkId::from_index(li);
                        let Ok(tx) = t.link(link).map(|l| l.tx()) else {
                            continue;
                        };
                        let blocked = granted.iter().any(|&g| model.node_hears(tx, g));
                        if !blocked {
                            granted.push(link);
                        }
                    }
                }
                Contention::PPersistent(p) => {
                    for (li, &queued) in backlogged.iter().enumerate() {
                        if !queued {
                            continue;
                        }
                        let link = LinkId::from_index(li);
                        let Ok(tx) = t.link(link).map(|l| l.tx()) else {
                            continue;
                        };
                        if !busy_last_slot[tx.index()] && rng.gen_bool(p.clamp(0.0, 1.0)) {
                            granted.push(link);
                        }
                    }
                }
                Contention::Dcf { .. } => {
                    for (li, &queued) in backlogged.iter().enumerate() {
                        if !queued {
                            backoff[li] = None; // nothing to send: drop state
                            continue;
                        }
                        let link = LinkId::from_index(li);
                        let Ok(tx) = t.link(link).map(|l| l.tx()) else {
                            continue;
                        };
                        let counter = backoff[li].get_or_insert_with(|| rng.gen_range(0..cw[li]));
                        if busy_last_slot[tx.index()] {
                            continue; // counter frozen while the medium is busy
                        }
                        if *counter == 0 {
                            granted.push(link);
                        } else {
                            *counter -= 1;
                        }
                    }
                }
            }

            // Outcomes: SINR capture against the full granted set.
            // Dead links are never backlogged, so every granted link has a
            // live rate; `filter_map` keeps that invariant panic-free.
            let assignment: Vec<(LinkId, Rate)> = granted
                .iter()
                .filter_map(|&l| self.link_rate[l.index()].map(|rate| (l, rate)))
                .collect();
            for &(link, rate) in &assignment {
                let li = link.index();
                link_tx_slots[li] += 1;
                // Per-link capture test: does *this* link survive the
                // concurrent set? (Victims and aggressors are judged
                // independently.)
                let ok = is_capture_ok(model, link, rate, &assignment);
                if matches!(self.config.contention, Contention::Dcf { .. }) {
                    // Post-transmission DCF bookkeeping.
                    if ok {
                        cw[li] = cw_min;
                    } else {
                        cw[li] = (cw[li] * 2).min(cw_max);
                    }
                    backoff[li] = None; // re-draw next slot if still backlogged
                }
                if ok {
                    let cap_mbit = rate.as_mbps() * self.config.slot_seconds;
                    let mut remaining = cap_mbit;
                    for &(fi, hi) in &feeders[li] {
                        if remaining <= 0.0 {
                            break;
                        }
                        let q = flows[fi].queues[hi];
                        let moved = q.min(remaining);
                        if moved > 0.0 {
                            flows[fi].queues[hi] -= moved;
                            remaining -= moved;
                            link_delivered_mbit[li] += moved;
                            if hi + 1 < flows[fi].hops.len() {
                                flows[fi].queues[hi + 1] += moved;
                            } else {
                                flows[fi].delivered_mbit += moved;
                            }
                        }
                    }
                } else {
                    link_collision_slots[li] += 1;
                }
            }

            // Busy accounting (also feeds next slot's carrier-sense state).
            let mut busy = vec![false; num_nodes];
            for &g in &granted {
                for &n in &hearers[g.index()] {
                    busy[n] = true;
                }
            }
            for (n, &b) in busy.iter().enumerate() {
                if b {
                    node_busy_slots[n] += 1;
                }
            }
            busy_last_slot = busy;
        }

        let total = self.config.slots as f64;
        let duration = total * self.config.slot_seconds;
        SimReport {
            node_idle_ratio: node_busy_slots
                .iter()
                .map(|&b| 1.0 - b as f64 / total)
                .collect(),
            link_throughput_mbps: link_delivered_mbit.iter().map(|&m| m / duration).collect(),
            flow_throughput_mbps: flows.iter().map(|f| f.delivered_mbit / duration).collect(),
            link_tx_slots,
            link_collision_slots,
            slots: self.config.slots,
            slot_seconds: self.config.slot_seconds,
        }
    }
}

/// Whether `link` at `rate` survives the concurrent set `assignment`
/// (capture test for one victim; the aggressors' own fates are judged
/// separately via [`LinkRateModel::victim_max_rate`]).
pub(crate) fn is_capture_ok<M: LinkRateModel>(
    model: &M,
    link: LinkId,
    rate: Rate,
    assignment: &[(LinkId, Rate)],
) -> bool {
    model
        .victim_max_rate(link, assignment)
        .is_some_and(|max| rate <= max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_phy::Phy;
    use awb_workloads::{chain_model, ScenarioOne};

    #[test]
    fn saturated_single_link_approaches_line_rate() {
        let (m, p) = chain_model(1, 50.0, Phy::paper_default());
        let mut sim = Simulator::new(
            &m,
            SimConfig {
                slots: 5_000,
                ..SimConfig::default()
            },
        );
        let f = sim.add_flow(p, None);
        let report = sim.run(&m);
        assert!((report.flow_throughput_mbps[f] - 54.0).abs() < 1.0);
        assert_eq!(report.collision_ratio(awb_net::LinkId::from_index(0)), 0.0);
    }

    #[test]
    fn rate_limited_flow_delivers_its_demand() {
        let (m, p) = chain_model(1, 50.0, Phy::paper_default());
        let mut sim = Simulator::new(
            &m,
            SimConfig {
                slots: 20_000,
                ..SimConfig::default()
            },
        );
        let f = sim.add_flow(p, Some(10.0));
        let report = sim.run(&m);
        assert!((report.flow_throughput_mbps[f] - 10.0).abs() < 0.5);
        // The link is busy roughly 10/54 of the time.
        let tx_share = report.link_tx_slots[0] as f64 / report.slots as f64;
        assert!((tx_share - 10.0 / 54.0).abs() < 0.05, "tx share {tx_share}");
    }

    #[test]
    fn two_hop_relay_halves_saturated_throughput() {
        let (m, p) = chain_model(2, 50.0, Phy::paper_default());
        let mut sim = Simulator::new(
            &m,
            SimConfig {
                slots: 20_000,
                ..SimConfig::default()
            },
        );
        let f = sim.add_flow(p, None);
        let report = sim.run(&m);
        // The two hops share the channel; ideal is 27. The contention MAC
        // should land in the right ballpark.
        let got = report.flow_throughput_mbps[f];
        assert!(got > 18.0 && got <= 27.5, "throughput {got}");
    }

    #[test]
    fn independent_background_overlaps_only_by_chance() {
        let s1 = ScenarioOne::new();
        let m = s1.model();
        let lambda = 0.4;
        let mut sim = Simulator::new(
            m,
            SimConfig {
                slots: 50_000,
                ..SimConfig::default()
            },
        );
        for flow in s1.background(lambda) {
            sim.add_flow(flow.path().clone(), Some(flow.demand_mbps()));
        }
        let report = sim.run(m);
        let t = m.topology();
        let l3_tx = t.link(s1.links()[2]).unwrap().tx();
        let idle = report.node_idle_ratio[l3_tx.index()];
        // Independent λ-loads overlap with probability ≈ λ², so the
        // observer's idle ≈ (1-λ)² = 0.36, well below the optimal 0.6.
        assert!(idle < 0.55, "idle {idle}");
        assert!(idle > 0.2, "idle {idle}");
        // Background links deliver their demand regardless.
        for (i, f) in report.flow_throughput_mbps.iter().enumerate() {
            assert!((f - lambda * 54.0).abs() < 1.5, "flow {i}: {f}");
        }
    }

    #[test]
    fn conflicting_links_share_the_channel() {
        // Two saturated links that hear each other: throughputs sum to ~54.
        let s1 = ScenarioOne::new();
        let m = s1.model();
        let t = m.topology();
        let [_, _, l3] = s1.links();
        let p3 = awb_net::Path::new(t, vec![l3]).unwrap();
        let p1 = awb_net::Path::new(t, vec![s1.links()[0]]).unwrap();
        let mut sim = Simulator::new(
            m,
            SimConfig {
                slots: 30_000,
                ..SimConfig::default()
            },
        );
        let a = sim.add_flow(p3, None);
        let b = sim.add_flow(p1, None);
        let report = sim.run(m);
        let total = report.flow_throughput_mbps[a] + report.flow_throughput_mbps[b];
        assert!(
            (total - 54.0).abs() < 3.0,
            "sum {total} should be near line rate"
        );
    }

    #[test]
    fn p_persistent_contention_loses_to_collisions() {
        // Two saturated, mutually-hearing links: ordered CSMA is
        // collision-free; p-persistent at p = 0.5 collides whenever both
        // fire, so total goodput drops.
        let s1 = ScenarioOne::new();
        let m = s1.model();
        let t = m.topology();
        let p1 = awb_net::Path::new(t, vec![s1.links()[0]]).unwrap();
        let p3 = awb_net::Path::new(t, vec![s1.links()[2]]).unwrap();
        let run = |contention| {
            let mut sim = Simulator::new(
                m,
                SimConfig {
                    slots: 20_000,
                    contention,
                    ..SimConfig::default()
                },
            );
            let a = sim.add_flow(p1.clone(), None);
            let b = sim.add_flow(p3.clone(), None);
            let r = sim.run(m);
            (
                r.flow_throughput_mbps[a] + r.flow_throughput_mbps[b],
                r.link_collision_slots.iter().sum::<u64>(),
            )
        };
        let (ideal, ideal_coll) = run(Contention::OrderedCsma);
        let (lossy, lossy_coll) = run(Contention::PPersistent(0.5));
        assert_eq!(ideal_coll, 0);
        assert!(lossy_coll > 0, "p-persistent should collide");
        assert!(
            lossy < ideal - 2.0,
            "p-persistent {lossy} should lose goodput vs {ideal}"
        );
    }

    #[test]
    fn dcf_backoff_outperforms_p_persistent_under_contention() {
        // Four saturated mutually-hearing links: DCF's exponential backoff
        // should waste fewer slots on collisions than p = 0.5 persistence.
        let mut t = awb_net::Topology::new();
        let mut links = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..4 {
            let a = t.add_node(f64::from(i) * 10.0, 0.0);
            let b = t.add_node(f64::from(i) * 10.0 + 5.0, 0.0);
            nodes.push(a);
            nodes.push(b);
            links.push(t.add_link(a, b).unwrap());
        }
        let mut builder = awb_net::DeclarativeModel::builder(t);
        for &l in &links {
            builder = builder.alone_rates(l, &[Rate::from_mbps(54.0)]);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                builder = builder.conflict_all(links[i], links[j]);
            }
        }
        // Everyone hears everyone (a single collision domain).
        for &n in &nodes {
            for &l in &links {
                builder = builder.hears(n, l);
            }
        }
        let m = builder.build();
        let paths: Vec<awb_net::Path> = links
            .iter()
            .map(|&l| awb_net::Path::new(m.topology(), vec![l]).unwrap())
            .collect();
        let run = |contention| {
            let mut sim = Simulator::new(
                &m,
                SimConfig {
                    slots: 20_000,
                    contention,
                    ..SimConfig::default()
                },
            );
            for p in &paths {
                sim.add_flow(p.clone(), None);
            }
            let r = sim.run(&m);
            let goodput: f64 = r.flow_throughput_mbps.iter().sum();
            let collisions: u64 = r.link_collision_slots.iter().sum();
            (goodput, collisions)
        };
        let (g_dcf, c_dcf) = run(Contention::Dcf {
            cw_min: 16,
            cw_max: 1024,
        });
        let (g_pp, c_pp) = run(Contention::PPersistent(0.5));
        assert!(
            g_dcf > g_pp,
            "DCF goodput {g_dcf} should beat p-persistent {g_pp}"
        );
        assert!(
            c_dcf < c_pp,
            "DCF collisions {c_dcf} should undercut p-persistent {c_pp}"
        );
        // With one packet per slot the per-packet overhead (DIFS slot +
        // residual backoff) is proportionally large; DCF still must clear a
        // sane floor of the 54 Mbps channel.
        assert!(g_dcf > 0.15 * 54.0, "DCF goodput {g_dcf} too low");
    }

    #[test]
    fn p_persistent_single_link_scales_with_p() {
        let (m, p) = chain_model(1, 50.0, Phy::paper_default());
        let run = |prob| {
            let mut sim = Simulator::new(
                &m,
                SimConfig {
                    slots: 20_000,
                    contention: Contention::PPersistent(prob),
                    ..SimConfig::default()
                },
            );
            let f = sim.add_flow(p.clone(), None);
            sim.run(&m).flow_throughput_mbps[f]
        };
        // A lone link with attempt probability p transmits ~p of slots
        // once its own busy slots gate it: steady state share p(1-share)...
        // just assert monotonicity and sane ranges.
        let lo = run(0.2);
        let hi = run(0.9);
        assert!(lo < hi);
        assert!(hi <= 54.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let (m, _) = chain_model(1, 50.0, Phy::paper_default());
        let _ = Simulator::new(
            &m,
            SimConfig {
                slots: 0,
                ..SimConfig::default()
            },
        );
    }
}

//! Compiled slot kernels, the engine behind [`Simulator::run`].
//!
//! The reference loop ([`Simulator::run_reference`]) re-asks the model the
//! same questions every slot: "does this transmitter hear that granted
//! link?" (a distance + path-loss computation per pair) and "which rate does
//! this victim still decode?" (an allocation plus a power sum per granted
//! link). This module splits the run into a **compile** step — hearing,
//! interference and conflict relations flattened once into word-packed
//! `u64` masks and power tables — and a **step** kernel whose per-slot work
//! is a handful of AND/OR/popcount operations over a reused
//! [`SlotScratch`] arena, with no per-slot allocation.
//!
//! # The bit-identity contract
//!
//! The compiled kernels reproduce the reference loop **slot for slot,
//! bit for bit** (property-tested in `tests/proptest_kernels.rs`). Two
//! disciplines make that possible:
//!
//! * **RNG consumption order** is part of the engine contract. Every
//!   `gen_bool`/`gen_range`/`shuffle` call of the reference loop — including
//!   conditional draws like DCF's backoff draw before the busy check, and
//!   the per-slot shuffle of the backlogged contender list (collected in
//!   ascending link order) — happens at the same point of the compiled
//!   loop.
//! * **Float operation order** is replayed exactly: backlog sums walk the
//!   feeder list in insertion order, and the additive capture kernel sums
//!   interference powers in grant order, the same order
//!   [`SinrModel::victim_max_rate`](awb_net::SinrModel) walks its
//!   concurrent set. Thresholds are precompiled with their `1 - 1e-12`
//!   tolerance factors already applied (same multiplication, same bits).

use crate::engine::{is_capture_ok, Simulator};
use crate::report::SimReport;
use crate::Contention;
use awb_net::{AdditiveCapture, LinkId, LinkRateModel};
use awb_phy::Rate;
use awb_sets::bitset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the compiled engine answers the per-victim capture question.
enum CaptureKernel {
    /// Pairwise conflict masks — exact when the model declares
    /// `pairwise_admissibility_exact()`. `deny[offsets[li] + k]` (a
    /// link-mask row) holds every link whose chosen rate conflicts with
    /// link `li` transmitting at its `k`-th alone rate (rates descending,
    /// `k` up to the chosen rate's index); the victim survives iff some row
    /// is disjoint from the granted set.
    Pairwise { deny: Vec<u64>, offsets: Vec<usize> },
    /// Additive interference tables (the SINR model): power sum in grant
    /// order, then a walk down the tolerance-scaled decode ladder. `power`
    /// is the model's table **transposed** (victim-major,
    /// `power[victim * n + aggressor]`) so one victim's sum reads a
    /// contiguous row.
    Additive {
        tables: AdditiveCapture,
        power: Vec<f64>,
    },
    /// Fallback for models that are neither: call the model per victim,
    /// over a reused assignment buffer.
    Generic,
}

/// The compiled form of one simulation: every model query the slot loop
/// needs, flattened into dense arrays and masks.
struct CompiledSim {
    num_links: usize,
    num_nodes: usize,
    /// Words per link mask.
    link_words: usize,
    /// Words per node mask.
    node_words: usize,
    /// Transmitter node index per link.
    tx: Vec<usize>,
    /// Flat link-mask rows: bit `g` of row `li` set iff the transmitter of
    /// `li` hears link `g` (the carrier-sense relation).
    hears: Vec<u64>,
    /// Flat node-mask rows: bit `n` of row `g` set iff node `n` hears link
    /// `g` (the busy-accounting relation).
    hearer_nodes: Vec<u64>,
    /// Full-slot payload per link in Mbit (`rate · slot_seconds`; 0 for
    /// dead links).
    need: Vec<f64>,
    /// Whether the link has a live rate.
    live: Vec<bool>,
    /// Backlog of a link with an always-zero queue (no feeders): constant
    /// over the run, `0.0 + 1e-12 >= need`.
    zero_queue_backlog: Vec<bool>,
    capture: CaptureKernel,
}

/// The reused per-slot arena: every buffer the step kernel writes, allocated
/// once per run.
struct SlotScratch {
    backlogged: Vec<bool>,
    /// This slot's backlogged contenders, collected in ascending link
    /// order, then shuffled (OrderedCsma only).
    contenders: Vec<usize>,
    /// Granted links in grant order (the RNG/float-order contract).
    granted: Vec<usize>,
    /// Granted links as a link mask.
    granted_mask: Vec<u64>,
    /// Assignment buffer for the generic capture fallback.
    assignment: Vec<(LinkId, Rate)>,
    /// Nodes busy this slot, as a node mask.
    busy: Vec<u64>,
    /// Last slot's busy mask (carrier-sense state).
    busy_last: Vec<u64>,
}

fn compile<M: LinkRateModel>(sim: &Simulator, model: &M) -> CompiledSim {
    let t = model.topology();
    let num_links = t.num_links();
    let num_nodes = t.num_nodes();
    let link_words = bitset::words_for(num_links);
    let node_words = bitset::words_for(num_nodes);

    let tx: Vec<usize> = t.links().map(|l| l.tx().index()).collect();

    // Busy-accounting relation first: O(nodes × links) model calls, the
    // same precompute the reference loop performs.
    let mut hearer_nodes = vec![0u64; num_links * node_words];
    for l in t.links() {
        let row = &mut hearer_nodes[l.id().index() * node_words..][..node_words];
        for n in t.nodes() {
            if model.node_hears(n.id(), l.id()) {
                bitset::set_bit(row, n.id().index());
            }
        }
    }
    // Carrier sense derives from it: tx of `li` hears link `g` iff that
    // node is among `g`'s hearers — O(links²) bit tests, no model calls.
    let mut hears = vec![0u64; num_links * link_words];
    for li in 0..num_links {
        let row = &mut hears[li * link_words..][..link_words];
        for g in 0..num_links {
            if bitset::test_bit(&hearer_nodes[g * node_words..][..node_words], tx[li]) {
                bitset::set_bit(row, g);
            }
        }
    }

    let need: Vec<f64> = sim
        .link_rate
        .iter()
        .map(|r| r.map_or(0.0, |r| r.as_mbps() * sim.config.slot_seconds))
        .collect();
    let live: Vec<bool> = sim.link_rate.iter().map(Option::is_some).collect();
    let zero_queue_backlog: Vec<bool> = need
        .iter()
        .zip(&live)
        .map(|(&need, &live)| live && 1e-12 >= need)
        .collect();

    let capture = if let Some(tables) = model.additive_capture() {
        let n = tables.num_links;
        let mut power = vec![0.0f64; n * n];
        for t in 0..n {
            for r in 0..n {
                power[r * n + t] = tables.power[t * n + r];
            }
        }
        CaptureKernel::Additive { tables, power }
    } else if model.pairwise_admissibility_exact() {
        let mut deny = Vec::new();
        let mut offsets = vec![0usize];
        for li in 0..num_links {
            let link = LinkId::from_index(li);
            if let Some(chosen) = sim.link_rate[li] {
                let rates = model.alone_rates(link);
                // Rows for every rate down to (and including) the chosen
                // one: the victim survives iff some rate at least as fast
                // as its own clears every granted other.
                for &r in rates.iter() {
                    let row_start = deny.len();
                    deny.resize(row_start + link_words, 0u64);
                    let row = &mut deny[row_start..];
                    for g in 0..num_links {
                        let Some(other_rate) = sim.link_rate[g] else {
                            continue; // dead links are never granted
                        };
                        if g != li
                            && model.conflicts((link, r), (LinkId::from_index(g), other_rate))
                        {
                            bitset::set_bit(row, g);
                        }
                    }
                    if r == chosen {
                        break;
                    }
                }
            }
            offsets.push(deny.len() / link_words);
        }
        CaptureKernel::Pairwise { deny, offsets }
    } else {
        CaptureKernel::Generic
    };

    CompiledSim {
        num_links,
        num_nodes,
        link_words,
        node_words,
        tx,
        hears,
        hearer_nodes,
        need,
        live,
        zero_queue_backlog,
        capture,
    }
}

impl CompiledSim {
    fn hears_row(&self, li: usize) -> &[u64] {
        &self.hears[li * self.link_words..][..self.link_words]
    }

    fn hearer_row(&self, li: usize) -> &[u64] {
        &self.hearer_nodes[li * self.node_words..][..self.node_words]
    }

    /// The capture test for granted link `li` at its chosen `rate` against
    /// the granted set — bit-identical to
    /// [`LinkRateModel::victim_max_rate`] + `rate <= max`.
    // awb-audit: hot
    fn capture_ok<M: LinkRateModel>(
        &self,
        model: &M,
        sim: &Simulator,
        scratch: &mut SlotScratch,
        li: usize,
        rate: Rate,
    ) -> bool {
        match &self.capture {
            CaptureKernel::Pairwise { deny, offsets } => (offsets[li]..offsets[li + 1]).any(|k| {
                bitset::disjoint(
                    &deny[k * self.link_words..][..self.link_words],
                    &scratch.granted_mask,
                )
            }),
            CaptureKernel::Additive { tables, power } => {
                // Interference summed in grant order — the order the
                // model's own victim walk uses (the transposed table holds
                // the exact same f64s, so the sum is bit-identical).
                let row = &power[li * tables.num_links..][..tables.num_links];
                let mut interference = 0.0;
                for &g in &scratch.granted {
                    if g != li {
                        interference += row[g];
                    }
                }
                let pr = tables.signal[li];
                let sinr = pr / (interference + tables.noise);
                tables
                    .steps
                    .iter()
                    .find(|s| pr >= s.min_signal && sinr >= s.min_sinr)
                    .is_some_and(|s| rate <= s.rate)
            }
            CaptureKernel::Generic => {
                if scratch.assignment.len() != scratch.granted.len() {
                    scratch.assignment.clear();
                    scratch.assignment.extend(
                        scratch
                            .granted
                            .iter()
                            .filter_map(|&g| sim.link_rate[g].map(|r| (LinkId::from_index(g), r))),
                    );
                }
                is_capture_ok(model, LinkId::from_index(li), rate, &scratch.assignment)
            }
        }
    }
}

/// One feeder of a link: its queue slot and where a drained packet goes.
struct FeederSlot {
    queue: u32,
    /// Next hop's queue slot, or `u32::MAX` for end-to-end delivery.
    next: u32,
    flow: u32,
}

/// Everything [`step_slot`] reads but never writes: the compiled relations
/// plus the run-constant link/flow arrays built once by [`run_compiled`].
struct SlotPlan<'a> {
    compiled: &'a CompiledSim,
    /// Links whose backlog can change (live, with at least one feeder): the
    /// only rows of `backlogged` that need recomputing each slot.
    fed_links: &'a [usize],
    /// Links that can ever be backlogged: fed links plus the (degenerate)
    /// zero-payload ones. Contention only needs to look at these — the rest
    /// of the topology never contends.
    candidates: &'a [usize],
    /// Unfed candidates (zero payload, no feeders): backlogged every slot.
    always_on: &'a [usize],
    /// Flow `fi`'s hop `hi` lives at queue-arena slot `offsets[fi] + hi`.
    offsets: &'a [usize],
    first_link: &'a [usize],
    arrival_p: &'a [Option<f64>],
    feeder_slots: &'a [FeederSlot],
    feeder_ranges: &'a [(u32, u32)],
    cw_min: u32,
    cw_max: u32,
    is_dcf: bool,
}

/// Everything [`step_slot`] writes: queues, delivery/busy accumulators and
/// the DCF backoff state, allocated once by [`run_compiled`].
struct SlotState {
    queues: Vec<f64>,
    delivered_mbit: Vec<f64>,
    node_busy_slots: Vec<u64>,
    link_delivered_mbit: Vec<f64>,
    link_tx_slots: Vec<u64>,
    link_collision_slots: Vec<u64>,
    cw: Vec<u32>,
    backoff: Vec<Option<u32>>,
}

fn slots_of(range: &(u32, u32)) -> (usize, usize) {
    (range.0 as usize, range.1 as usize)
}

/// Advances the simulation by one slot: arrivals, backlog, contention
/// resolution, capture outcomes and busy accounting. This is the generic
/// engine's slot iteration verbatim — same RNG draw order, same float
/// operation order — over the compiled masks and the reused arenas.
// awb-audit: hot
fn step_slot<M: LinkRateModel>(
    sim: &Simulator,
    model: &M,
    plan: &SlotPlan<'_>,
    state: &mut SlotState,
    scratch: &mut SlotScratch,
    rng: &mut SmallRng,
) {
    let compiled = plan.compiled;

    // Arrivals — the same RNG draws as the reference loop (dead first
    // hops draw nothing).
    for fi in 0..plan.first_link.len() {
        let first = plan.first_link[fi];
        if !compiled.live[first] {
            continue;
        }
        let need = compiled.need[first];
        let q0 = plan.offsets[fi];
        match plan.arrival_p[fi] {
            Some(p) => {
                if rng.gen_bool(p) {
                    state.queues[q0] += need;
                }
            }
            None => {
                // Saturated: first hop always has a slot's worth.
                if state.queues[q0] < need {
                    state.queues[q0] = need;
                }
            }
        }
    }

    // Backlog. DCF needs the per-link backlogged flags (a link that
    // drains its queue must drop its frozen backoff counter), so it
    // keeps the flag array. The memoryless modes only ever consume the
    // *list* of backlogged links in ascending order, so the backlog
    // pass builds that list directly, merging the always-backlogged
    // zero-payload candidates in link order as it goes.
    if plan.is_dcf {
        for &li in plan.fed_links {
            let (s, e) = slots_of(&plan.feeder_ranges[li]);
            let queued: f64 = plan.feeder_slots[s..e]
                .iter()
                .map(|sl| state.queues[sl.queue as usize])
                .sum();
            scratch.backlogged[li] = queued + 1e-12 >= compiled.need[li];
        }
    } else {
        scratch.contenders.clear();
        let mut ai = 0;
        for &li in plan.fed_links {
            while ai < plan.always_on.len() && plan.always_on[ai] < li {
                scratch.contenders.push(plan.always_on[ai]);
                ai += 1;
            }
            let (s, e) = slots_of(&plan.feeder_ranges[li]);
            let queued: f64 = plan.feeder_slots[s..e]
                .iter()
                .map(|sl| state.queues[sl.queue as usize])
                .sum();
            if queued + 1e-12 >= compiled.need[li] {
                scratch.contenders.push(li);
            }
        }
        scratch.contenders.extend_from_slice(&plan.always_on[ai..]);
    }

    // Contention resolution.
    scratch.granted.clear();
    bitset::clear_all(&mut scratch.granted_mask);
    match sim.config.contention {
        Contention::OrderedCsma => {
            scratch.contenders.shuffle(rng);
            for idx in 0..scratch.contenders.len() {
                let li = scratch.contenders[idx];
                let blocked = !bitset::disjoint(compiled.hears_row(li), &scratch.granted_mask);
                if !blocked {
                    scratch.granted.push(li);
                    bitset::set_bit(&mut scratch.granted_mask, li);
                }
            }
        }
        Contention::PPersistent(p) => {
            for idx in 0..scratch.contenders.len() {
                let li = scratch.contenders[idx];
                if !bitset::test_bit(&scratch.busy_last, compiled.tx[li])
                    && rng.gen_bool(p.clamp(0.0, 1.0))
                {
                    scratch.granted.push(li);
                    bitset::set_bit(&mut scratch.granted_mask, li);
                }
            }
        }
        Contention::Dcf { .. } => {
            for &li in plan.candidates {
                if !scratch.backlogged[li] {
                    state.backoff[li] = None; // nothing to send: drop state
                    continue;
                }
                // The draw happens before the busy check, exactly like
                // the reference loop's `get_or_insert_with`.
                let counter =
                    state.backoff[li].get_or_insert_with(|| rng.gen_range(0..state.cw[li]));
                if bitset::test_bit(&scratch.busy_last, compiled.tx[li]) {
                    continue; // counter frozen while the medium is busy
                }
                if *counter == 0 {
                    scratch.granted.push(li);
                    bitset::set_bit(&mut scratch.granted_mask, li);
                } else {
                    *counter -= 1;
                }
            }
        }
    }

    // Outcomes: per-victim capture against the full granted set.
    scratch.assignment.clear();
    for idx in 0..scratch.granted.len() {
        let li = scratch.granted[idx];
        let Some(rate) = sim.link_rate[li] else {
            continue; // unreachable: dead links are never backlogged
        };
        state.link_tx_slots[li] += 1;
        let ok = compiled.capture_ok(model, sim, scratch, li, rate);
        if plan.is_dcf {
            // Post-transmission DCF bookkeeping.
            if ok {
                state.cw[li] = plan.cw_min;
            } else {
                state.cw[li] = (state.cw[li] * 2).min(plan.cw_max);
            }
            state.backoff[li] = None; // re-draw next slot if still backlogged
        }
        if ok {
            let mut remaining = compiled.need[li];
            let (s, e) = slots_of(&plan.feeder_ranges[li]);
            for sl in &plan.feeder_slots[s..e] {
                if remaining <= 0.0 {
                    break;
                }
                let q = state.queues[sl.queue as usize];
                let moved = q.min(remaining);
                if moved > 0.0 {
                    state.queues[sl.queue as usize] -= moved;
                    remaining -= moved;
                    state.link_delivered_mbit[li] += moved;
                    if sl.next != u32::MAX {
                        state.queues[sl.next as usize] += moved;
                    } else {
                        state.delivered_mbit[sl.flow as usize] += moved;
                    }
                }
            }
        } else {
            state.link_collision_slots[li] += 1;
        }
    }

    // Busy accounting (also feeds next slot's carrier-sense state).
    bitset::clear_all(&mut scratch.busy);
    for &g in &scratch.granted {
        bitset::or_into(&mut scratch.busy, compiled.hearer_row(g));
    }
    for n in bitset::iter_bits(&scratch.busy) {
        state.node_busy_slots[n] += 1;
    }
    std::mem::swap(&mut scratch.busy, &mut scratch.busy_last);
}

/// Runs `sim` over `model` with the compiled kernels; the body of
/// [`Simulator::run`].
pub(crate) fn run_compiled<M: LinkRateModel>(sim: &Simulator, model: &M) -> SimReport {
    let compiled = compile(sim, model);
    let num_links = compiled.num_links;
    let num_nodes = compiled.num_nodes;
    let mut rng = SmallRng::seed_from_u64(sim.config.seed);

    let flows = sim.sim_flows();
    let feeders = Simulator::feeders(&flows, num_links);
    // Links whose backlog can change (live, with at least one feeder): the
    // only rows of `backlogged` that need recomputing each slot.
    let fed_links: Vec<usize> = (0..num_links)
        .filter(|&li| compiled.live[li] && !feeders[li].is_empty())
        .collect();
    // Links that can ever be backlogged: fed links plus the (degenerate)
    // zero-payload ones. Contention only needs to look at these — the rest
    // of the topology never contends.
    let candidates: Vec<usize> = (0..num_links)
        .filter(|&li| {
            compiled.live[li] && (!feeders[li].is_empty() || compiled.zero_queue_backlog[li])
        })
        .collect();
    // Unfed candidates (zero payload, no feeders): backlogged every slot.
    let always_on: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&li| feeders[li].is_empty())
        .collect();

    // All per-hop queues flattened into one arena (flow `fi`'s hop `hi`
    // lives at `offsets[fi] + hi`), and each link's feeder list compiled to
    // arena slots — the backlog sum and the drain cascade then walk
    // contiguous memory in exactly the reference loop's visit order.
    let num_flows = flows.len();
    let mut offsets = Vec::with_capacity(num_flows);
    let mut total_hops = 0usize;
    for f in &flows {
        offsets.push(total_hops);
        total_hops += f.hops.len();
    }
    let queues = vec![0.0f64; total_hops];
    let delivered_mbit = vec![0.0f64; num_flows];
    let first_link: Vec<usize> = flows.iter().map(|f| f.hops[0].index()).collect();
    let arrival_p: Vec<Option<f64>> = flows.iter().map(|f| f.arrival_probability).collect();
    let mut feeder_slots: Vec<FeederSlot> = Vec::new();
    let mut feeder_ranges: Vec<(u32, u32)> = Vec::with_capacity(num_links);
    for link_feeders in &feeders {
        let start = feeder_slots.len() as u32;
        for &(fi, hi) in link_feeders {
            let queue = (offsets[fi] + hi) as u32;
            let next = if hi + 1 < flows[fi].hops.len() {
                queue + 1
            } else {
                u32::MAX
            };
            feeder_slots.push(FeederSlot {
                queue,
                next,
                flow: fi as u32,
            });
        }
        feeder_ranges.push((start, feeder_slots.len() as u32));
    }

    let (cw_min, cw_max) = sim.cw_bounds();
    let is_dcf = matches!(sim.config.contention, Contention::Dcf { .. });

    let plan = SlotPlan {
        compiled: &compiled,
        fed_links: &fed_links,
        candidates: &candidates,
        always_on: &always_on,
        offsets: &offsets,
        first_link: &first_link,
        arrival_p: &arrival_p,
        feeder_slots: &feeder_slots,
        feeder_ranges: &feeder_ranges,
        cw_min,
        cw_max,
        is_dcf,
    };
    let mut state = SlotState {
        queues,
        delivered_mbit,
        node_busy_slots: vec![0u64; num_nodes],
        link_delivered_mbit: vec![0.0f64; num_links],
        link_tx_slots: vec![0u64; num_links],
        link_collision_slots: vec![0u64; num_links],
        cw: vec![cw_min; num_links],
        backoff: vec![None; num_links],
    };
    let mut scratch = SlotScratch {
        backlogged: compiled.zero_queue_backlog.clone(),
        contenders: Vec::with_capacity(candidates.len()),
        granted: Vec::with_capacity(num_links),
        granted_mask: vec![0u64; compiled.link_words],
        assignment: Vec::with_capacity(num_links),
        busy: vec![0u64; compiled.node_words],
        busy_last: vec![0u64; compiled.node_words],
    };

    for _ in 0..sim.config.slots {
        step_slot(sim, model, &plan, &mut state, &mut scratch, &mut rng);
    }

    let total = sim.config.slots as f64;
    let duration = total * sim.config.slot_seconds;
    SimReport {
        node_idle_ratio: state
            .node_busy_slots
            .iter()
            .map(|&b| 1.0 - b as f64 / total)
            .collect(),
        link_throughput_mbps: state
            .link_delivered_mbit
            .iter()
            .map(|&m| m / duration)
            .collect(),
        flow_throughput_mbps: state.delivered_mbit.iter().map(|&m| m / duration).collect(),
        link_tx_slots: state.link_tx_slots,
        link_collision_slots: state.link_collision_slots,
        slots: sim.config.slots,
        slot_seconds: sim.config.slot_seconds,
    }
}

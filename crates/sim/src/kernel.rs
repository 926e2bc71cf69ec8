//! Compiled slot kernels, the engine behind [`Simulator::run`].
//!
//! The reference loop ([`Simulator::run_reference`]) re-asks the model the
//! same questions every slot: "does this transmitter hear that granted
//! link?" (a distance + path-loss computation per pair) and "which rate does
//! this victim still decode?" (a fresh assignment plus a power sum per
//! granted link). This module splits the run into a **compile** step —
//! hearing and conflict relations flattened once into word-packed `u64`
//! masks, additive interference read straight from the model's node-pair
//! power table ([`awb_net::AdditiveCapture`], borrowed, not copied) — and a
//! **step** kernel whose per-slot work is a handful of AND/OR/popcount
//! operations over a reused [`SlotScratch`] arena, with no per-slot
//! allocation.
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
//!   interference powers (`power[tx_slot(g) · R + rx_slot(victim)]`) in
//!   grant order, the same table and order
//!   [`SinrModel::victim_max_rate`](awb_net::SinrModel) walks its
//!   concurrent set with. Thresholds are precompiled with their `1 - 1e-12`
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
enum CaptureKernel<'m> {
    /// Pairwise conflict masks — exact when the model declares
    /// `pairwise_admissibility_exact()`. `deny[offsets[li] + k]` (a
    /// link-mask row) holds every link whose chosen rate conflicts with
    /// link `li` transmitting at its `k`-th alone rate (rates descending,
    /// `k` up to the chosen rate's index); the victim survives iff some row
    /// is disjoint from the granted set.
    Pairwise { deny: Vec<u64>, offsets: Vec<usize> },
    /// Additive interference tables (the SINR model), borrowed from the
    /// model: the victim's node-pair column summed in grant order
    /// (`power[tx_slot(g) · R + rx_slot(victim)]`), then one comparison
    /// `sinr >= min_sinr[li]`. The victim decodes its chosen rate iff the
    /// first ladder step it passes is at or above that rate, i.e. (rates
    /// descending) iff it passes any step at or above it. Its signal is
    /// constant, so which of those steps' `min_signal` it meets is known at
    /// compile time, and passing one of them means meeting the least
    /// `min_sinr` among them (`None`: no step qualifies, never decoded).
    Additive {
        tables: &'m AdditiveCapture,
        min_sinr: Vec<Option<f64>>,
    },
    /// Fallback for models that are neither: call the model per victim,
    /// over a reused assignment buffer.
    Generic,
}

/// The compiled form of one simulation: every model query the slot loop
/// needs, flattened into dense arrays and masks.
struct CompiledSim<'m> {
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
    capture: CaptureKernel<'m>,
}

/// The reused per-slot arena: every buffer the step kernel writes, allocated
/// once per run.
struct SlotScratch {
    /// Backlogged links, as a link mask.
    backlogged: Vec<u64>,
    /// Links whose feeder queues changed since their backlog was last
    /// tested (arrivals and deliveries mark them), as a link mask.
    dirty: Vec<u64>,
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

fn compile<'m, M: LinkRateModel>(sim: &Simulator, model: &'m M) -> CompiledSim<'m> {
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
        let min_sinr = (0..num_links)
            .map(|li| {
                let chosen = sim.link_rate[li]?;
                let pr = tables.signal[li];
                tables
                    .steps
                    .iter()
                    .filter(|s| s.rate >= chosen && pr >= s.min_signal)
                    .map(|s| s.min_sinr)
                    .reduce(f64::min)
            })
            .collect();
        CaptureKernel::Additive { tables, min_sinr }
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

impl CompiledSim<'_> {
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
            CaptureKernel::Additive { tables, min_sinr } => min_sinr[li].is_some_and(|min_sinr| {
                // Interference summed in grant order — the order the
                // model's own victim walk uses, over the model's own table,
                // so the sum and the SINR are bit-identical.
                let interference = tables.interference(li, scratch.granted.iter().copied());
                tables.signal[li] / (interference + tables.noise) >= min_sinr
            }),
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
    /// The link the `next` queue feeds (unused for end-to-end delivery).
    next_link: u32,
    flow: u32,
}

/// Everything [`step_slot`] reads but never writes: the compiled relations
/// plus the run-constant link/flow arrays built once by [`run_compiled`].
struct SlotPlan<'a> {
    compiled: &'a CompiledSim<'a>,
    /// Links whose backlog can change (live, with at least one feeder), as
    /// a link mask: the only bits of `backlogged` ever re-tested.
    fed_mask: &'a [u64],
    /// Links that can ever be backlogged: fed links plus the (degenerate)
    /// zero-payload ones. Contention only needs to look at these — the rest
    /// of the topology never contends.
    candidates: &'a [usize],
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

/// Bits of each node's bit-sliced busy-slot counter (see
/// [`SlotState::count_busy`]); the counters are flushed every
/// `2^BUSY_PLANES - 1` slots, before any of them can wrap.
const BUSY_PLANES: usize = 16;
const BUSY_FLUSH_SLOTS: u32 = (1 << BUSY_PLANES) - 1;

/// Everything [`step_slot`] writes: queues, delivery/busy accumulators and
/// the DCF backoff state, allocated once by [`run_compiled`].
struct SlotState {
    queues: Vec<f64>,
    delivered_mbit: Vec<f64>,
    node_busy_slots: Vec<u64>,
    /// Busy slots counted since the last flush, bit-sliced: plane `k` of
    /// node word `w` (`busy_planes[w * BUSY_PLANES + k]`) holds bit `k` of
    /// the count of every node in that word.
    busy_planes: Vec<u64>,
    /// Slots added to `busy_planes` since the last flush.
    busy_pending: u32,
    link_delivered_mbit: Vec<f64>,
    link_tx_slots: Vec<u64>,
    link_collision_slots: Vec<u64>,
    cw: Vec<u32>,
    backoff: Vec<Option<u32>>,
}

impl SlotState {
    /// Counts one busy slot for every node in `busy`: a ripple-carry add of
    /// the mask into the bit-sliced counters, a few word operations per node
    /// word instead of one increment per busy node.
    fn count_busy(&mut self, busy: &[u64]) {
        for (w, &word) in busy.iter().enumerate() {
            let mut carry = word;
            for plane in &mut self.busy_planes[w * BUSY_PLANES..][..BUSY_PLANES] {
                if carry == 0 {
                    break;
                }
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
        self.busy_pending += 1;
        if self.busy_pending == BUSY_FLUSH_SLOTS {
            self.flush_busy();
        }
    }

    /// Moves the bit-sliced counts into `node_busy_slots`.
    fn flush_busy(&mut self) {
        for (n, slots) in self.node_busy_slots.iter_mut().enumerate() {
            let planes = &self.busy_planes[(n / 64) * BUSY_PLANES..][..BUSY_PLANES];
            let bit = n % 64;
            *slots += planes
                .iter()
                .enumerate()
                .map(|(k, plane)| ((plane >> bit) & 1) << k)
                .sum::<u64>();
        }
        self.busy_planes.fill(0);
        self.busy_pending = 0;
    }
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
                    bitset::set_bit(&mut scratch.dirty, first);
                }
            }
            None => {
                // Saturated: first hop always has a slot's worth.
                if state.queues[q0] < need {
                    state.queues[q0] = need;
                    bitset::set_bit(&mut scratch.dirty, first);
                }
            }
        }
    }

    // Backlog. The reference loop re-sums every fed link's feeder queues
    // each slot; a link's flag can only change when one of those queues
    // did, so only the dirty fed links are re-summed (same feeder order,
    // same sum) and every other flag carries over.
    for w in 0..scratch.dirty.len() {
        let mut bits = scratch.dirty[w] & plan.fed_mask[w];
        scratch.dirty[w] = 0;
        while bits != 0 {
            let li = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (s, e) = slots_of(&plan.feeder_ranges[li]);
            let queued: f64 = plan.feeder_slots[s..e]
                .iter()
                .map(|sl| state.queues[sl.queue as usize])
                .sum();
            if queued + 1e-12 >= compiled.need[li] {
                bitset::set_bit(&mut scratch.backlogged, li);
            } else {
                bitset::clear_bit(&mut scratch.backlogged, li);
            }
        }
    }
    // The memoryless modes contend over the backlogged links in ascending
    // order (the always-backlogged zero-payload candidates included).
    if !plan.is_dcf {
        scratch.contenders.clear();
        scratch
            .contenders
            .extend(bitset::iter_bits(&scratch.backlogged));
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
                if !bitset::test_bit(&scratch.backlogged, li) {
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
            // Draining this link's feeders (and filling the next hops')
            // may flip their backlog.
            bitset::set_bit(&mut scratch.dirty, li);
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
                        bitset::set_bit(&mut scratch.dirty, sl.next_link as usize);
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
    state.count_busy(&scratch.busy);
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
    // only bits of `backlogged` ever re-tested.
    let mut fed_mask = vec![0u64; compiled.link_words];
    for li in (0..num_links).filter(|&li| compiled.live[li] && !feeders[li].is_empty()) {
        bitset::set_bit(&mut fed_mask, li);
    }
    // Links that can ever be backlogged: fed links plus the (degenerate)
    // zero-payload ones. Contention only needs to look at these — the rest
    // of the topology never contends.
    let candidates: Vec<usize> = (0..num_links)
        .filter(|&li| {
            compiled.live[li] && (!feeders[li].is_empty() || compiled.zero_queue_backlog[li])
        })
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
            let (next, next_link) = match flows[fi].hops.get(hi + 1) {
                Some(link) => (queue + 1, link.index() as u32),
                None => (u32::MAX, u32::MAX),
            };
            feeder_slots.push(FeederSlot {
                queue,
                next,
                next_link,
                flow: fi as u32,
            });
        }
        feeder_ranges.push((start, feeder_slots.len() as u32));
    }

    let (cw_min, cw_max) = sim.cw_bounds();
    let is_dcf = matches!(sim.config.contention, Contention::Dcf { .. });

    let plan = SlotPlan {
        compiled: &compiled,
        fed_mask: &fed_mask,
        candidates: &candidates,
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
        busy_planes: vec![0u64; compiled.node_words * BUSY_PLANES],
        busy_pending: 0,
        link_delivered_mbit: vec![0.0f64; num_links],
        link_tx_slots: vec![0u64; num_links],
        link_collision_slots: vec![0u64; num_links],
        cw: vec![cw_min; num_links],
        backoff: vec![None; num_links],
    };
    // Every link starts at its zero-queue flag, and every fed link is
    // tested in the first slot.
    let mut backlogged = vec![0u64; compiled.link_words];
    for li in (0..num_links).filter(|&li| compiled.zero_queue_backlog[li]) {
        bitset::set_bit(&mut backlogged, li);
    }
    let mut scratch = SlotScratch {
        dirty: fed_mask.clone(),
        backlogged,
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
    state.flush_busy();

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

//! `estimators_bench` — the estimator campaign at scale, written to
//! `BENCH_estimators.json` at the repo root.
//!
//! Three questions, one artifact:
//!
//! 1. **Kernel ablation** — on the paper's 30-node instance with saturated
//!    flows, the compiled slot kernels ([`Simulator::run`]) must produce a
//!    **bit-identical** report to the reference loop
//!    ([`Simulator::run_reference`]) and run at least 5× faster per slot.
//!    Both facts are asserted, then recorded.
//! 2. **Error surface** — a deterministic scenario matrix
//!    (density × contention × seed, up to 300 nodes) runs the paper's §5.2
//!    experiment in each cell: flows arrive one by one, each routed on the
//!    channel idleness *measured by simulating the already-admitted flows*,
//!    its true available bandwidth computed via Eq. 6 (column-generation
//!    [`Session`]), and the five §4 estimators evaluated on the same
//!    measured idleness. Per-cell mean errors and campaign-wide error
//!    quantiles land in the report.
//! 3. **Deterministic parallelism** — the whole cell list is re-run under
//!    `awb_sim::campaign::fan_out` with several worker counts; the merged
//!    results must serialize to the **same bytes** as the sequential run
//!    (asserted, then recorded together with the parallel speedup).
//!
//! A final *scale* section pushes the compiled engine to 300/1000/3000
//! nodes at constant node density; rows whose projected memory (the
//! model's node-pair power table plus the simulator's hearing masks)
//! exceeds the budget are skipped with the projection recorded, not
//! silently dropped. Each row that runs records the process's measured
//! peak RSS beside the projection, the cost of a one-slot run (compile
//! plus one slot) apart from the marginal cost per slot, and the host it
//! ran on (nproc, `rustc -V`, commit).
//!
//! `--smoke` runs a reduced ablation + a two-cell matrix with the same
//! assertions, then the 1000-node scale row for a few slots under a
//! peak-RSS gate, and writes nothing — the CI hook keeping the compiled
//! kernels honest. `--scale` runs only the scale rows and merges them into
//! the existing `BENCH_estimators.json`, replacing earlier rows of the
//! same commit, so rows of two commits measured on one host sit side by
//! side.

#![forbid(unsafe_code)]

use awb_bench::host::{host, Host};
use awb_bench::rows::{EstimatorError, Fig4Row};
use awb_core::{AvailableBandwidthOptions, Flow, Schedule, Session, SolverKind};
use awb_estimate::{Estimator, Hop, IdleMap};
use awb_net::{NodeId, Path, SinrModel, TopologyDelta};
use awb_phy::Phy;
use awb_routing::{shortest_path, RoutingMetric};
use awb_sim::{campaign, Contention, RatePolicy, SimConfig, SimReport, Simulator};
use awb_workloads::mobility::{WaypointConfig, WaypointMobility};
use awb_workloads::{
    shortest_hop_distance, ContentionSpec, DensityPoint, RandomTopology, RateMix, ScenarioCell,
    ScenarioMatrix, TrafficSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

/// Slots per campaign-cell simulation.
const CELL_SLOTS: u64 = 6_000;
const CELL_SLOTS_SMOKE: u64 = 1_200;
/// Slots for the 30-node kernel ablation.
const ABLATION_SLOTS: u64 = 40_000;
const ABLATION_SLOTS_SMOKE: u64 = 40_000;
/// Timing iterations (minimum taken).
const ITERS: usize = 3;
/// The ablation gate: compiled must be at least this many times faster.
const SPEEDUP_FLOOR: f64 = 5.0;
/// Scale rows are skipped when their projected footprint exceeds this.
const SCALE_MEMORY_BUDGET_BYTES: u64 = 1_500_000_000;
/// Scale rows: node count and slots.
const SCALE_ROWS: [(usize, u64); 3] = [(300, 2_000), (1_000, 1_000), (3_000, 500)];
/// The smoke run's 1000-node scale row: a few slots under a peak-RSS gate.
const SMOKE_SCALE_SLOTS: u64 = 20;
const SMOKE_PEAK_RSS_BYTES: u64 = 512 << 20;
/// Worker counts exercised by the parallel section.
const THREAD_COUNTS: [usize; 3] = [2, 4, 0];

#[derive(Serialize)]
struct AblationResult {
    num_nodes: usize,
    num_links: usize,
    flows: usize,
    slots: u64,
    /// Whole-run wall time, min over iterations.
    generic_ns: u64,
    compiled_ns: u64,
    per_slot_generic_ns: f64,
    per_slot_compiled_ns: f64,
    /// generic_ns / compiled_ns; gated at [`SPEEDUP_FLOOR`].
    speedup: f64,
    /// Whether the two engines' reports are `==` (gated: must be true).
    bit_identical: bool,
}

#[derive(Clone, Serialize)]
struct CellResult {
    index: usize,
    num_nodes: usize,
    num_links: usize,
    contention: String,
    rate_mix: String,
    seed: u64,
    flows_routed: usize,
    flows_admitted: usize,
    wall_ns: u64,
    rows: Vec<Fig4Row>,
    errors: Vec<EstimatorError>,
}

/// Campaign-wide |error| quantiles for one estimator, across every flow row
/// of every cell.
#[derive(Serialize)]
struct ErrorQuantiles {
    estimator: String,
    samples: usize,
    mean_abs_mbps: f64,
    p50_abs_mbps: f64,
    p90_abs_mbps: f64,
    max_abs_mbps: f64,
}

#[derive(Serialize)]
struct ParallelRow {
    threads_requested: usize,
    threads_used: usize,
    wall_ns: u64,
    /// wall of the sequential run / this wall.
    speedup_vs_sequential: f64,
    /// Whether this run's serialized cells byte-match the sequential run's
    /// (gated: must be true).
    bit_identical: bool,
    /// FNV-1a of the serialized cells, for eyeballing across runs.
    results_hash: String,
}

#[derive(Serialize)]
struct ScaleRow {
    num_nodes: usize,
    field_w: f64,
    field_h: f64,
    /// Links projected from the density before building anything.
    projected_links: u64,
    /// Projected bytes of what grows with the field (see
    /// [`scale_projection`]).
    projected_bytes: u64,
    skipped: bool,
    skip_reason: Option<String>,
    num_links: Option<usize>,
    flows: Option<usize>,
    slots: Option<u64>,
    build_ns: Option<u64>,
    /// Wall time of a one-slot run: the simulator's compile plus one slot.
    one_slot_ns: Option<u64>,
    sim_ns: Option<u64>,
    /// `sim_ns / slots`, compile included.
    per_slot_ns: Option<f64>,
    /// `(sim_ns - one_slot_ns) / (slots - 1)`: the cost of one more slot.
    marginal_per_slot_ns: Option<f64>,
    /// The process's peak RSS (`VmHWM`) after the row ran; rows run in
    /// ascending size, so it is this row's peak unless an earlier section
    /// peaked higher.
    peak_rss_bytes: Option<u64>,
    host: Host,
}

/// One epoch of the mobility error surface: estimator errors against the
/// Eq. 6 truth on a waypoint-trace snapshot, truth computed through a warm
/// [`Session`] migrated by [`Session::apply_delta`].
#[derive(Serialize)]
struct MobilityRow {
    epoch: usize,
    num_links: usize,
    flows: usize,
    /// Conflict components the epoch's delta reused / recompiled in the
    /// session's cached instances.
    units_reused: usize,
    units_compiled: usize,
    errors: Vec<EstimatorError>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    command: &'static str,
    cell_slots: u64,
    ablation: AblationResult,
    cells: Vec<CellResult>,
    error_quantiles: Vec<ErrorQuantiles>,
    parallel: Vec<ParallelRow>,
    scale: Vec<ScaleRow>,
    mobility: Vec<MobilityRow>,
}

/// Draws up to `count` distinct connected pairs with BFS hop distance in
/// `[min_hops, max_hops]`, returning however many a bounded number of draws
/// finds (unlike `awb_workloads::connected_pairs`, which panics — a sparse
/// high-density draw must degrade to fewer flows, not kill the campaign).
fn draw_pairs(
    model: &SinrModel,
    count: usize,
    min_hops: usize,
    max_hops: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let t = model.topology();
    let nodes: Vec<NodeId> = t.nodes().map(|n| n.id()).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<(NodeId, NodeId)> = Vec::with_capacity(count);
    for _ in 0..10_000 {
        if out.len() == count {
            break;
        }
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        if src == dst || out.contains(&(src, dst)) {
            continue;
        }
        if shortest_hop_distance(t, src, dst).is_some_and(|d| d >= min_hops && d <= max_hops) {
            out.push((src, dst));
        }
    }
    out
}

fn to_contention(spec: ContentionSpec) -> Contention {
    match spec {
        ContentionSpec::OrderedCsma => Contention::OrderedCsma,
        ContentionSpec::PPersistent(p) => Contention::PPersistent(p),
        ContentionSpec::Dcf { cw_min, cw_max } => Contention::Dcf { cw_min, cw_max },
    }
}

fn to_rate_policy(mix: RateMix) -> RatePolicy {
    match mix {
        RateMix::AloneMax => RatePolicy::AloneMax,
        RateMix::Lowest => RatePolicy::Lowest,
    }
}

/// Ground-truth solver options: column generation (full enumeration would
/// blow up on the larger cells' link universes).
fn truth_options() -> AvailableBandwidthOptions {
    AvailableBandwidthOptions {
        solver: SolverKind::ColumnGeneration,
        ..AvailableBandwidthOptions::default()
    }
}

/// Simulates `admitted` under the cell's MAC and returns the measured
/// per-node idleness.
fn measured_idle(model: &SinrModel, admitted: &[Flow], cell: &ScenarioCell, slots: u64) -> IdleMap {
    let mut sim = Simulator::new(
        model,
        SimConfig {
            slots,
            contention: to_contention(cell.contention),
            rate_policy: to_rate_policy(cell.rate_mix),
            seed: cell.seed,
            ..SimConfig::default()
        },
    );
    for f in admitted {
        sim.add_flow(f.path().clone(), Some(f.demand_mbps()));
    }
    IdleMap::from_ratios(sim.run(model).node_idle_ratio)
}

/// One campaign cell: the §5.2 arrival loop with simulated idleness.
fn run_cell(cell: &ScenarioCell, slots: u64) -> CellResult {
    let start = Instant::now();
    let topo = RandomTopology::generate_with_phy(
        cell.density.topology_config(cell.seed),
        Phy::paper_default(),
    );
    let model = topo.into_model();
    let pairs = draw_pairs(
        &model,
        cell.traffic.num_flows,
        cell.traffic.min_hops,
        cell.traffic.max_hops,
        // Decorrelate pair choice from node placement.
        cell.seed.wrapping_mul(0x9e37_79b9).wrapping_add(5),
    );
    let mut session = Session::new(&model, truth_options());
    let mut admitted: Vec<Flow> = Vec::new();
    let mut rows: Vec<Fig4Row> = Vec::new();
    for (index, &(src, dst)) in pairs.iter().enumerate() {
        // The distributed view: idleness as the MAC actually measures it
        // with the current background running.
        let idle = measured_idle(&model, &admitted, cell, slots);
        let Some(path) = shortest_path(&model, &idle, RoutingMetric::AverageE2eDelay, src, dst)
        else {
            continue;
        };
        let Ok(truth) = session.query(&admitted, &path) else {
            continue;
        };
        let truth = truth.bandwidth_mbps();
        let Some(hops) = Hop::for_path(&model, &idle, &path) else {
            continue;
        };
        let est = |e: Estimator| e.estimate(&model, &hops);
        rows.push(Fig4Row {
            flow: index + 1,
            truth_mbps: truth,
            clique_mbps: est(Estimator::CliqueConstraint),
            bottleneck_mbps: est(Estimator::BottleneckNode),
            min_both_mbps: est(Estimator::MinOfBoth),
            conservative_mbps: est(Estimator::ConservativeClique),
            expected_time_mbps: est(Estimator::ExpectedCliqueTime),
        });
        if let Some(demand) = cell.traffic.demand_mbps {
            if truth + 1e-9 >= demand {
                admitted.push(Flow::new(path, demand).expect("demand is valid"));
            }
        }
    }
    let errors = summarize_errors(&rows);
    CellResult {
        index: cell.index,
        num_nodes: cell.density.num_nodes,
        num_links: model.topology().num_links(),
        contention: cell.contention.label(),
        rate_mix: format!("{:?}", cell.rate_mix),
        seed: cell.seed,
        flows_routed: rows.len(),
        flows_admitted: admitted.len(),
        wall_ns: start.elapsed().as_nanos() as u64,
        rows,
        errors,
    }
}

fn estimate_of(row: &Fig4Row, e: Estimator) -> f64 {
    match e {
        Estimator::CliqueConstraint => row.clique_mbps,
        Estimator::BottleneckNode => row.bottleneck_mbps,
        Estimator::MinOfBoth => row.min_both_mbps,
        Estimator::ConservativeClique => row.conservative_mbps,
        Estimator::ExpectedCliqueTime => row.expected_time_mbps,
    }
}

fn summarize_errors(rows: &[Fig4Row]) -> Vec<EstimatorError> {
    let n = rows.len().max(1) as f64;
    Estimator::ALL
        .iter()
        .map(|&e| EstimatorError {
            estimator: e.label().to_string(),
            mean_abs_error_mbps: rows
                .iter()
                .map(|r| (estimate_of(r, e) - r.truth_mbps).abs())
                .sum::<f64>()
                / n,
            mean_signed_error_mbps: rows
                .iter()
                .map(|r| estimate_of(r, e) - r.truth_mbps)
                .sum::<f64>()
                / n,
        })
        .collect()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn error_quantiles(cells: &[CellResult]) -> Vec<ErrorQuantiles> {
    Estimator::ALL
        .iter()
        .map(|&e| {
            let mut abs: Vec<f64> = cells
                .iter()
                .flat_map(|c| c.rows.iter())
                .map(|r| (estimate_of(r, e) - r.truth_mbps).abs())
                .collect();
            abs.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
            let n = abs.len();
            ErrorQuantiles {
                estimator: e.label().to_string(),
                samples: n,
                mean_abs_mbps: abs.iter().sum::<f64>() / n.max(1) as f64,
                p50_abs_mbps: quantile(&abs, 0.5),
                p90_abs_mbps: quantile(&abs, 0.9),
                max_abs_mbps: quantile(&abs, 1.0),
            }
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The 30-node saturated instance of the kernel ablation: the paper
/// topology with every §5.2 flow pushed to saturation, so per-slot
/// contention and capture — not idle queues — dominate both engines.
fn ablation_instance() -> (SinrModel, Vec<Path>) {
    let (model, pairs) = awb_bench::experiments::paper_random_instance();
    let idle = IdleMap::from_schedule(&model, &Schedule::empty());
    let paths = pairs
        .iter()
        .filter_map(|&(src, dst)| {
            shortest_path(&model, &idle, RoutingMetric::AverageE2eDelay, src, dst)
        })
        .collect();
    (model, paths)
}

fn run_ablation(slots: u64) -> AblationResult {
    let (model, paths) = ablation_instance();
    let mut sim = Simulator::new(
        &model,
        SimConfig {
            slots,
            ..SimConfig::default()
        },
    );
    for p in &paths {
        sim.add_flow(p.clone(), None);
    }
    let time = |run: &dyn Fn() -> SimReport| {
        (0..ITERS)
            .map(|_| {
                let t = Instant::now();
                let _ = run();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("at least one iteration")
    };
    let reference = || sim.run_reference(&model);
    let compiled = || sim.run(&model);
    let bit_identical = reference() == compiled();
    let generic_ns = time(&reference);
    let compiled_ns = time(&compiled);
    AblationResult {
        num_nodes: model.topology().num_nodes(),
        num_links: model.topology().num_links(),
        flows: paths.len(),
        slots,
        generic_ns,
        compiled_ns,
        per_slot_generic_ns: generic_ns as f64 / slots as f64,
        per_slot_compiled_ns: compiled_ns as f64 / slots as f64,
        speedup: generic_ns as f64 / compiled_ns as f64,
        bit_identical,
    }
}

fn campaign_matrix(smoke: bool) -> ScenarioMatrix {
    if smoke {
        ScenarioMatrix {
            densities: vec![DensityPoint::paper_base()],
            rate_mixes: vec![RateMix::AloneMax],
            contentions: vec![
                ContentionSpec::OrderedCsma,
                ContentionSpec::Dcf {
                    cw_min: 16,
                    cw_max: 1024,
                },
            ],
            traffics: vec![TrafficSpec::paper_default()],
            seeds: vec![7],
        }
    } else {
        ScenarioMatrix {
            densities: vec![
                DensityPoint::paper_base(),
                DensityPoint::paper_density(120),
                DensityPoint::paper_density(300),
            ],
            rate_mixes: vec![RateMix::AloneMax],
            contentions: vec![
                ContentionSpec::OrderedCsma,
                ContentionSpec::PPersistent(0.5),
                ContentionSpec::Dcf {
                    cw_min: 16,
                    cw_max: 1024,
                },
            ],
            traffics: vec![TrafficSpec::paper_default()],
            seeds: vec![7, 11],
        }
    }
}

/// Runs the cell list under `threads` workers; returns (results, wall).
fn run_campaign(cells: &[ScenarioCell], threads: usize, slots: u64) -> (Vec<CellResult>, u64) {
    let t = Instant::now();
    let results = campaign::fan_out(cells.len(), threads, |i| run_cell(&cells[i], slots));
    (results, t.elapsed().as_nanos() as u64)
}

/// Serializes campaign results with the (run-dependent) wall times zeroed,
/// so equality means the *data* is bit-identical.
fn canonical_json(results: &[CellResult]) -> String {
    let scrubbed: Vec<CellResult> = results
        .iter()
        .map(|c| CellResult {
            wall_ns: 0,
            ..c.clone()
        })
        .collect();
    serde_json::to_string(&scrubbed).expect("cells serialize")
}

fn parallel_section(
    cells: &[ScenarioCell],
    sequential: &[CellResult],
    sequential_ns: u64,
    slots: u64,
) -> Vec<ParallelRow> {
    let canonical = canonical_json(sequential);
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let (results, wall_ns) = run_campaign(cells, threads, slots);
            let json = canonical_json(&results);
            let bit_identical = json == canonical;
            assert!(
                bit_identical,
                "parallel campaign diverged at {threads} threads"
            );
            ParallelRow {
                threads_requested: threads,
                threads_used: campaign::resolve_threads(threads).min(cells.len().max(1)),
                wall_ns,
                speedup_vs_sequential: sequential_ns as f64 / wall_ns as f64,
                bit_identical,
                results_hash: format!("{:016x}", fnv1a(json.as_bytes())),
            }
        })
        .collect()
}

/// Projects the footprint of an `n`-node row at paper density before
/// building it. Expected directed links L ≈ n·(n−1)·(πr²/area); what grows
/// with the field is the model's node-pair power table (at most n² f64s,
/// one per transmitting × receiving node), the simulator's carrier-sense
/// mask (`hears`, L² bits) and its busy-accounting mask (`hearer_nodes`,
/// L·n bits).
fn scale_projection(density: &DensityPoint, phy: &Phy) -> (u64, u64) {
    let r = phy.max_range();
    let area = density.width * density.height;
    let n = density.num_nodes as f64;
    let p_in_range = (std::f64::consts::PI * r * r / area).min(1.0);
    let links = (n * (n - 1.0) * p_in_range).ceil() as u64;
    let nodes = density.num_nodes as u64;
    (
        links,
        nodes * nodes * 8 + links * links / 8 + links * nodes / 8,
    )
}

/// The process's peak resident set size so far (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn run_scale_row(num_nodes: usize, slots: u64) -> ScaleRow {
    let density = DensityPoint::paper_density(num_nodes);
    let phy = Phy::paper_default();
    let (projected_links, projected_bytes) = scale_projection(&density, &phy);
    let mut row = ScaleRow {
        num_nodes,
        field_w: density.width,
        field_h: density.height,
        projected_links,
        projected_bytes,
        skipped: false,
        skip_reason: None,
        num_links: None,
        flows: None,
        slots: None,
        build_ns: None,
        one_slot_ns: None,
        sim_ns: None,
        per_slot_ns: None,
        marginal_per_slot_ns: None,
        peak_rss_bytes: None,
        host: host(),
    };
    if projected_bytes > SCALE_MEMORY_BUDGET_BYTES {
        row.skipped = true;
        row.skip_reason = Some(format!(
            "projected {projected_links}-link footprint ({projected_bytes} B) \
             exceeds the {SCALE_MEMORY_BUDGET_BYTES} B budget"
        ));
        return row;
    }
    let build = Instant::now();
    let topo = RandomTopology::generate_with_phy(density.topology_config(7), phy);
    let model = topo.into_model();
    row.build_ns = Some(build.elapsed().as_nanos() as u64);
    row.num_links = Some(model.topology().num_links());
    // Saturated flows routed on a fully-idle map: pure MAC pressure.
    let idle = IdleMap::from_schedule(&model, &Schedule::empty());
    let pairs = draw_pairs(&model, 8, 2, 4, 5);
    let paths: Vec<Path> = pairs
        .iter()
        .filter_map(|&(src, dst)| {
            shortest_path(&model, &idle, RoutingMetric::AverageE2eDelay, src, dst)
        })
        .collect();
    row.flows = Some(paths.len());
    let timed_run = |slots: u64| {
        let mut sim = Simulator::new(
            &model,
            SimConfig {
                slots,
                ..SimConfig::default()
            },
        );
        for p in &paths {
            sim.add_flow(p.clone(), None);
        }
        let t = Instant::now();
        let _ = sim.run(&model);
        t.elapsed().as_nanos() as u64
    };
    let one_slot_ns = timed_run(1);
    let sim_ns = timed_run(slots);
    row.slots = Some(slots);
    row.one_slot_ns = Some(one_slot_ns);
    row.sim_ns = Some(sim_ns);
    row.per_slot_ns = Some(sim_ns as f64 / slots as f64);
    if slots > 1 {
        row.marginal_per_slot_ns =
            Some(sim_ns.saturating_sub(one_slot_ns) as f64 / (slots - 1) as f64);
    }
    row.peak_rss_bytes = peak_rss_bytes();
    row
}

fn print_scale_row(row: &ScaleRow) {
    let n = row.num_nodes;
    match (&row.skip_reason, row.per_slot_ns) {
        (Some(reason), _) => println!("  n={n}: skipped — {reason}"),
        (None, Some(ns)) => println!(
            "  n={n}: {} links, {:.1} µs/slot ({:.1} µs marginal, one-slot run {:.1} ms), \
             peak RSS {:.1} MiB (projected {:.1} MiB)",
            row.num_links.unwrap_or(0),
            ns / 1e3,
            row.marginal_per_slot_ns.unwrap_or(f64::NAN) / 1e3,
            row.one_slot_ns.unwrap_or(0) as f64 / 1e6,
            row.peak_rss_bytes.unwrap_or(0) as f64 / f64::from(1 << 20),
            row.projected_bytes as f64 / f64::from(1 << 20),
        ),
        _ => {}
    }
}

fn scale_section() -> Vec<ScaleRow> {
    println!("== scale rows ==");
    SCALE_ROWS
        .iter()
        .map(|&(n, slots)| {
            let row = run_scale_row(n, slots);
            print_scale_row(&row);
            row
        })
        .collect()
}

/// Replaces the `scale` rows of the existing report that were measured at
/// this commit with `rows`, keeping the other commits' rows (rows that
/// record no host are dropped).
fn merge_scale_rows(rows: &[ScaleRow]) {
    let path = "BENCH_estimators.json";
    let text = std::fs::read_to_string(path).expect("read BENCH_estimators.json");
    let Value::Object(mut report) = serde_json::from_str(&text).expect("report parses") else {
        panic!("BENCH_estimators.json is not a JSON object");
    };
    let commit = rows.first().map(|r| r.host.commit.clone());
    let mut scale: Vec<Value> = report
        .get("scale")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter(|r| {
            let measured_at = r
                .get("host")
                .and_then(|h| h.get("commit"))
                .and_then(Value::as_str);
            measured_at.is_some() && measured_at != commit.as_deref()
        })
        .cloned()
        .collect();
    scale.extend(
        rows.iter()
            .map(|r| serde_json::to_value(r).expect("row serializes")),
    );
    report.insert("scale".to_string(), Value::Array(scale));
    let json = serde_json::to_string_pretty(&Value::Object(report)).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_estimators.json");
    println!("merged {} scale rows into {path}", rows.len());
}

/// The mobility error surface (the "remaining axis" of the campaign): a
/// short 30-node random-waypoint trace; per epoch the five §4 estimators
/// are evaluated against the Eq. 6 truth on freshly routed flows, with the
/// truth session migrated across epochs by [`Session::apply_delta`] instead
/// of recompiled.
fn mobility_section(epochs: usize) -> Vec<MobilityRow> {
    let config = WaypointConfig {
        num_nodes: 30,
        mobile_fraction: 0.1,
        seed: 7,
        ..WaypointConfig::default()
    };
    let mut trace = WaypointMobility::new(config);
    let mut models = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        if epoch > 0 {
            trace.advance();
        }
        models.push(trace.snapshot());
    }
    let deltas: Vec<TopologyDelta> = models
        .windows(2)
        .map(|w| TopologyDelta::between(&w[0], &w[1]))
        .collect();
    let options = AvailableBandwidthOptions {
        solver: SolverKind::ColumnGeneration,
        decompose: true,
        ..AvailableBandwidthOptions::default()
    };
    let mut session = Session::new(&models[0], options);
    let mut rows = Vec::with_capacity(epochs);
    for (epoch, model) in models.iter().enumerate() {
        let reuse = if epoch > 0 {
            session.apply_delta(model, &deltas[epoch - 1])
        } else {
            Default::default()
        };
        let idle = IdleMap::from_schedule(model, &Schedule::empty());
        let pairs = draw_pairs(model, 4, 2, 4, 7 ^ epoch as u64);
        let mut flow_rows: Vec<Fig4Row> = Vec::new();
        for (index, &(src, dst)) in pairs.iter().enumerate() {
            let Some(path) = shortest_path(model, &idle, RoutingMetric::AverageE2eDelay, src, dst)
            else {
                continue;
            };
            let Ok(truth) = session.query(&[], &path) else {
                continue;
            };
            let Some(hops) = Hop::for_path(model, &idle, &path) else {
                continue;
            };
            let est = |e: Estimator| e.estimate(model, &hops);
            flow_rows.push(Fig4Row {
                flow: index + 1,
                truth_mbps: truth.bandwidth_mbps(),
                clique_mbps: est(Estimator::CliqueConstraint),
                bottleneck_mbps: est(Estimator::BottleneckNode),
                min_both_mbps: est(Estimator::MinOfBoth),
                conservative_mbps: est(Estimator::ConservativeClique),
                expected_time_mbps: est(Estimator::ExpectedCliqueTime),
            });
        }
        rows.push(MobilityRow {
            epoch,
            num_links: model.topology().num_links(),
            flows: flow_rows.len(),
            units_reused: reuse.units_reused,
            units_compiled: reuse.units_compiled,
            errors: summarize_errors(&flow_rows),
        });
    }
    rows
}

fn main() {
    if std::env::args().any(|a| a == "--scale") {
        merge_scale_rows(&scale_section());
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ablation_slots, cell_slots) = if smoke {
        (ABLATION_SLOTS_SMOKE, CELL_SLOTS_SMOKE)
    } else {
        (ABLATION_SLOTS, CELL_SLOTS)
    };

    println!("== kernel ablation (30-node saturated instance) ==");
    let ablation = run_ablation(ablation_slots);
    println!(
        "  links {} flows {} slots {}: generic {:.1} µs/slot, compiled {:.1} µs/slot, \
         speedup {:.1}x, bit-identical {}",
        ablation.num_links,
        ablation.flows,
        ablation.slots,
        ablation.per_slot_generic_ns / 1e3,
        ablation.per_slot_compiled_ns / 1e3,
        ablation.speedup,
        ablation.bit_identical,
    );
    assert!(
        ablation.bit_identical,
        "engines diverged on the 30-node instance"
    );
    assert!(
        ablation.speedup >= SPEEDUP_FLOOR,
        "compiled kernels only {:.1}x faster (floor {SPEEDUP_FLOOR}x)",
        ablation.speedup
    );

    println!("== estimator campaign ==");
    let matrix = campaign_matrix(smoke);
    let cells = matrix.cells();
    println!("  {} cells", cells.len());
    let (sequential, sequential_ns) = run_campaign(&cells, 1, cell_slots);
    for c in &sequential {
        println!(
            "  cell {:>2}: n={} {} seed {}: {} routed / {} admitted ({:.1} s)",
            c.index,
            c.num_nodes,
            c.contention,
            c.seed,
            c.flows_routed,
            c.flows_admitted,
            c.wall_ns as f64 / 1e9,
        );
    }

    println!("== parallel determinism ==");
    let parallel = parallel_section(&cells, &sequential, sequential_ns, cell_slots);
    for p in &parallel {
        println!(
            "  threads {} (used {}): {:.2}x vs sequential, identical {}",
            p.threads_requested, p.threads_used, p.speedup_vs_sequential, p.bit_identical
        );
    }

    println!("== mobility error surface ==");
    let mobility = mobility_section(if smoke { 2 } else { 6 });
    for m in &mobility {
        let worst = m
            .errors
            .iter()
            .map(|e| e.mean_abs_error_mbps)
            .fold(0.0, f64::max);
        println!(
            "  epoch {}: {} links, {} flows, reuse {}/{} units, worst mean |err| {:.3} Mbps",
            m.epoch,
            m.num_links,
            m.flows,
            m.units_reused,
            m.units_reused + m.units_compiled,
            worst
        );
        assert!(
            m.errors
                .iter()
                .all(|e| e.mean_abs_error_mbps.is_finite() && e.mean_signed_error_mbps.is_finite()),
            "epoch {}: estimator errors must stay finite under mobility",
            m.epoch
        );
    }

    if smoke {
        println!("== scale row (1000 nodes, {SMOKE_SCALE_SLOTS} slots) ==");
        let row = run_scale_row(1_000, SMOKE_SCALE_SLOTS);
        print_scale_row(&row);
        assert!(!row.skipped, "the 1000-node scale row must run");
        let peak = row
            .peak_rss_bytes
            .expect("VmHWM is readable from /proc/self/status");
        assert!(
            peak < SMOKE_PEAK_RSS_BYTES,
            "1000-node scale row peaked at {peak} B RSS (gate {SMOKE_PEAK_RSS_BYTES} B)"
        );
        println!(
            "smoke ok: bit-identity, {SPEEDUP_FLOOR}x kernel floor and the \
             1000-node peak-RSS gate hold"
        );
        return;
    }

    let scale = scale_section();

    let quantiles = error_quantiles(&sequential);
    for q in &quantiles {
        println!(
            "  {:<28} mean |err| {:.3} p50 {:.3} p90 {:.3} max {:.3} ({} samples)",
            q.estimator, q.mean_abs_mbps, q.p50_abs_mbps, q.p90_abs_mbps, q.max_abs_mbps, q.samples
        );
    }

    let report = Report {
        bench: "estimators",
        command: "cargo run --release -p awb-bench --bin estimators_bench",
        cell_slots,
        ablation,
        cells: sequential,
        error_quantiles: quantiles,
        parallel,
        scale,
        mobility,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_estimators.json", json + "\n").expect("write BENCH_estimators.json");
    println!("wrote BENCH_estimators.json");
}

//! `colgen_bench` — column generation vs. full enumeration on the §2.5 LP,
//! written to `BENCH_colgen.json` at the repo root.
//!
//! For each topology size both solvers answer the same available-bandwidth
//! query (single-link new path, light background demand on every other
//! link) on a seeded rate-coupled random declarative model. The report
//! records end-to-end wall time (minimum over iterations), simplex pivot
//! counts, the restricted master's final column count against the maximal
//! rated-set pool the full solver enumerates, and the optima themselves —
//! which must agree to 1e-6 before any timing is trusted.
//!
//! A 24-link *frontier* entry runs full enumeration in a child process
//! under a hard timeout: at that size the enumerate-everything LP blows
//! well past it (tens of seconds), while column generation answers in
//! well under a second — the measured justification for the solver knob.
//! The same 24-link instance doubles as the *pricing ablation*: the solve
//! runs once with heuristic-first pricing and once exact-only, and the
//! report gates on the heuristic cutting exact branch-and-bound
//! invocations by at least 3x while certifying the identical optimum.
//!
//! A *frontier sweep* then scales to 32–128 links on clustered topologies
//! (conflict clusters of 24 links, solved with `decompose: true`): each row
//! records the colgen wall time, pricing-loop counters, and the
//! heuristic-vs-exact pricing wall-clock split, with the full-enumeration
//! baseline run under the same timed kill (it dies inside any 24-link
//! cluster, so every sweep size times out).
//!
//! Every row records the host it ran on (nproc, `rustc -V`, commit) and,
//! for each column-generation solve, the exact search's work: its calls,
//! the positions it branched at (`exact_nodes`, the same on every host)
//! and its wall time per call. Writing the report keeps the rows other
//! commits recorded in `BENCH_colgen.json` and replaces this commit's, so
//! a before and an after run on one host sit side by side.
//!
//! `--smoke` runs the 12-link size with a loose speedup floor and writes
//! nothing — the CI hook keeping the two solve paths equivalent.
//! `--frontier-smoke` solves the 64-link clustered instance once under a
//! wall-clock budget — the CI hook keeping the frontier reachable — and
//! then the 40-link single-component draw `plan_frontier` calls `single40`,
//! asserting its optimum's bits and a ceiling on the exact search's
//! branching positions: both are deterministic, so that gate holds on any
//! host, and a weaker exact-search bound fails it.
//! `--ablate-probe` is a dev mode printing per-(pricing, `stab_alpha`)
//! round/column/exact-call counts on the 24-link instance.

#![forbid(unsafe_code)]

use awb_bench::host::{host, Host};
use awb_bench::topo::{clustered_rate_coupled, random_rate_coupled};
use awb_core::{
    available_bandwidth, available_bandwidth_colgen, AvailableBandwidth, AvailableBandwidthOptions,
    ColgenOutcome, ColgenStats, Flow, PricingMode, SolverKind,
};
use awb_net::{DeclarativeModel, LinkId, Path};
use awb_sets::maximal_independent_sets;
use serde::Serialize;
use serde_json::Value;
use std::time::{Duration, Instant};

const SEED: u64 = 7;
/// Sizes where both solvers run to completion.
const SIZES: [usize; 3] = [12, 16, 20];
/// The size at which full enumeration is given a timeout it cannot make.
const FRONTIER_LINKS: usize = 24;
const FRONTIER_TIMEOUT: Duration = Duration::from_secs(10);
/// Clustered sizes for the frontier sweep (conflict clusters of
/// [`SWEEP_CLUSTER`] links, `decompose: true`).
const SWEEP: [usize; 4] = [32, 64, 96, 128];
const SWEEP_CLUSTER: usize = 24;
/// Budget each sweep solve must fit in (also the full-enum kill timeout).
const SWEEP_BUDGET: Duration = Duration::from_secs(10);
/// The single-component frontier: one 64-link conflict web solved by ONE
/// pricing oracle (`decompose: false`) — the contrast row to the clustered
/// 64-link sweep entry, which the component split answers in well under
/// [`SWEEP_BUDGET`].
const SINGLE_FRONTIER_LINKS: usize = 64;
/// Generous ceiling for the single-oracle solve (72 s with the per-node
/// residual bound, 17 s with the clique cover, on a 2-vCPU host): the row
/// exists to *quantify* the single-component wall, not to win it.
const SINGLE_FRONTIER_BUDGET: Duration = Duration::from_secs(600);
/// `plan_frontier`'s `single40` draw, which `--frontier-smoke` also solves:
/// its link count and the optimum e2ebench records for it.
const SMOKE_SINGLE_LINKS: usize = 40;
const SMOKE_SINGLE_OPTIMUM: f64 = 52.00000000000002;
/// Ceiling on the `single40` solve's exact-search branching positions
/// (`ColgenStats::exact_nodes`). The clique-cover bound branches at
/// 292,423 positions; the per-node residual bound it replaced
/// branched at 1,809,789.
const SMOKE_SINGLE_NODE_CEILING: u64 = 400_000;

/// Wall-clock nanoseconds per exact branch-and-bound call of one solve.
fn ns_per_exact_call(stats: &ColgenStats) -> f64 {
    stats.exact_ns as f64 / stats.exact_calls.max(1) as f64
}

#[derive(Serialize)]
struct SizeResult {
    host: Host,
    links: usize,
    /// Maximal rated-set pool size — the full-enumeration LP's column count.
    maximal_sets: usize,
    /// Columns in the final restricted master.
    colgen_columns: usize,
    /// colgen_columns / maximal_sets.
    column_fraction: f64,
    bandwidth_mbps: f64,
    /// |full optimum − colgen optimum|; gated at 1e-6.
    optimum_delta: f64,
    full_ns: u64,
    colgen_ns: u64,
    full_pivots: usize,
    colgen_pivots: usize,
    /// full_ns / colgen_ns.
    speedup: f64,
    exact_calls: usize,
    /// Positions the exact search branched at, over all its calls.
    exact_nodes: u64,
    ns_per_exact_call: f64,
}

#[derive(Serialize)]
struct FrontierResult {
    host: Host,
    links: usize,
    timeout_s: u64,
    /// Whether full enumeration was killed at the timeout (expected true).
    full_timed_out: bool,
    /// Wall time of the full solve if it finished within the timeout.
    full_ns: Option<u64>,
    maximal_sets: usize,
    colgen_columns: usize,
    colgen_pivots: usize,
    colgen_ns: u64,
    bandwidth_mbps: f64,
    exact_calls: usize,
    /// Positions the exact search branched at, over all its calls.
    exact_nodes: u64,
    ns_per_exact_call: f64,
}

#[derive(Serialize)]
struct AblationResult {
    host: Host,
    links: usize,
    /// Exact branch-and-bound invocations with heuristic-first pricing.
    heuristic_mode_exact_calls: usize,
    /// Exact invocations with exact-only pricing (every pricing call).
    exact_mode_exact_calls: usize,
    /// exact_mode_exact_calls / heuristic_mode_exact_calls; gated at 3x.
    exact_call_reduction: f64,
    /// Columns the heuristic priced in without touching the exact oracle.
    heuristic_columns: usize,
    /// Whether the two modes' optima are bit-identical f64s (they must be:
    /// both converge to the same support and the canonical final re-solve
    /// makes the answer a pure function of it).
    optimum_bits_equal: bool,
    heuristic_mode_ns: u64,
    exact_mode_ns: u64,
    /// Exact-search branching positions with heuristic-first pricing.
    heuristic_mode_exact_nodes: u64,
    /// Exact-search branching positions with exact-only pricing.
    exact_mode_exact_nodes: u64,
    heuristic_mode_ns_per_exact_call: f64,
    exact_mode_ns_per_exact_call: f64,
}

/// The 64-link single-component row: the same rate-coupled draw as the
/// [`SIZES`]/[`FRONTIER_LINKS`] instances, four clusters' worth of links in
/// one conflict web, priced by one oracle.
#[derive(Serialize)]
struct SingleFrontierResult {
    host: Host,
    links: usize,
    budget_s: u64,
    colgen_ns: u64,
    pricing_rounds: usize,
    columns_generated: usize,
    colgen_columns: usize,
    /// High-water mark of the stage-B master's column pool.
    pool_peak: usize,
    lp_pivots: usize,
    pricing_heuristic_ns: u64,
    pricing_exact_ns: u64,
    heuristic_columns: usize,
    bandwidth_mbps: f64,
    exact_calls: usize,
    /// Positions the exact search branched at, over all its calls.
    exact_nodes: u64,
    ns_per_exact_call: f64,
}

#[derive(Serialize)]
struct SweepResult {
    host: Host,
    links: usize,
    clusters: usize,
    colgen_ns: u64,
    pricing_rounds: usize,
    columns_generated: usize,
    /// Columns in the final restricted master (all components).
    colgen_columns: usize,
    /// High-water mark of the stage-B masters' column pools.
    pool_peak: usize,
    lp_pivots: usize,
    /// Wall clock spent inside heuristic pricing across the solve.
    pricing_heuristic_ns: u64,
    /// Wall clock spent inside exact branch-and-bound pricing.
    pricing_exact_ns: u64,
    heuristic_columns: usize,
    /// Whether full enumeration was killed at the timeout (expected true:
    /// it dies inside any 24-link cluster).
    full_timed_out: bool,
    full_ns: Option<u64>,
    bandwidth_mbps: f64,
    exact_calls: usize,
    /// Positions the exact search branched at, over all its calls.
    exact_nodes: u64,
    ns_per_exact_call: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    command: &'static str,
    seed: u64,
    results: Vec<SizeResult>,
    frontier: Vec<FrontierResult>,
    ablation: Vec<AblationResult>,
    sweep: Vec<SweepResult>,
    single_frontier: Vec<SingleFrontierResult>,
}

/// The benchmark query on an `n`-link topology: the new path is the first
/// link; every other link carries a light background flow, so stage A has
/// real work without ever being infeasible.
fn query(n: usize) -> (DeclarativeModel, Path, Vec<Flow>, Vec<LinkId>) {
    let (model, links) = random_rate_coupled(n, SEED);
    let new_path = Path::new(model.topology(), vec![links[0]]).expect("single link path");
    let background: Vec<Flow> = links[1..]
        .iter()
        .map(|&l| {
            let p = Path::new(model.topology(), vec![l]).expect("single link path");
            Flow::new(p, 20.0 / n as f64).expect("demand is valid")
        })
        .collect();
    (model, new_path, background, links)
}

fn options(solver: SolverKind) -> AvailableBandwidthOptions {
    AvailableBandwidthOptions {
        solver,
        ..AvailableBandwidthOptions::default()
    }
}

/// The sweep query on an `n`-link clustered topology, solved with
/// `decompose: true` so every 24-link conflict cluster becomes its own
/// component.
fn clustered_query(n: usize) -> (DeclarativeModel, Path, Vec<Flow>) {
    let (model, links) = clustered_rate_coupled(n, SWEEP_CLUSTER, SEED);
    let new_path = Path::new(model.topology(), vec![links[0]]).expect("single link path");
    let background: Vec<Flow> = links[1..]
        .iter()
        .map(|&l| {
            let p = Path::new(model.topology(), vec![l]).expect("single link path");
            Flow::new(p, 20.0 / n as f64).expect("demand is valid")
        })
        .collect();
    (model, new_path, background)
}

fn colgen_options(pricing: PricingMode, decompose: bool) -> AvailableBandwidthOptions {
    AvailableBandwidthOptions {
        solver: SolverKind::ColumnGeneration,
        pricing,
        decompose,
        ..AvailableBandwidthOptions::default()
    }
}

fn solve_colgen(
    model: &DeclarativeModel,
    background: &[Flow],
    new_path: &Path,
    options: &AvailableBandwidthOptions,
) -> ColgenOutcome {
    available_bandwidth_colgen(model, background, new_path, options).expect("query is feasible")
}

fn solve(
    model: &DeclarativeModel,
    background: &[Flow],
    new_path: &Path,
    solver: SolverKind,
) -> AvailableBandwidth {
    available_bandwidth(model, background, new_path, &options(solver)).expect("query is feasible")
}

/// Wall time per solve: warm up once, then take the minimum over enough
/// iterations to fill ~60 ms (at least 3 — the big sizes are seconds each).
fn time_ns(mut f: impl FnMut()) -> u64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_nanos().max(1);
    let iters = (60_000_000 / once).clamp(3, 1_000) as usize;
    let mut best = u128::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    u64::try_from(best).unwrap_or(u64::MAX)
}

fn run_size(links: usize) -> SizeResult {
    let (model, new_path, background, universe) = query(links);
    let full = solve(&model, &background, &new_path, SolverKind::FullEnumeration);
    let ColgenOutcome {
        result: colgen,
        stats,
    } = solve_colgen(
        &model,
        &background,
        &new_path,
        &options(SolverKind::ColumnGeneration),
    );
    let delta = (full.bandwidth_mbps() - colgen.bandwidth_mbps()).abs();
    assert!(
        delta < 1e-6,
        "{links} links: solvers disagree by {delta} ({} vs {})",
        full.bandwidth_mbps(),
        colgen.bandwidth_mbps()
    );
    let maximal = maximal_independent_sets(&model, &universe).len();
    let full_ns = time_ns(|| {
        solve(&model, &background, &new_path, SolverKind::FullEnumeration);
    });
    let colgen_ns = time_ns(|| {
        solve(&model, &background, &new_path, SolverKind::ColumnGeneration);
    });
    SizeResult {
        host: host(),
        links,
        maximal_sets: maximal,
        colgen_columns: colgen.num_sets(),
        column_fraction: colgen.num_sets() as f64 / maximal as f64,
        bandwidth_mbps: full.bandwidth_mbps(),
        optimum_delta: delta,
        full_ns,
        colgen_ns,
        full_pivots: full.lp_pivots(),
        colgen_pivots: colgen.lp_pivots(),
        speedup: full_ns as f64 / colgen_ns as f64,
        exact_calls: stats.exact_calls,
        exact_nodes: stats.exact_nodes,
        ns_per_exact_call: ns_per_exact_call(&stats),
    }
}

/// Runs one full-enumeration solve in a child process (re-invoking this
/// binary with the given child-mode args) and kills it at the timeout. A
/// thread cannot be cancelled; a process can.
fn full_with_timeout(timeout: Duration, child_args: &[String]) -> (bool, Option<u64>) {
    let exe = std::env::current_exe().expect("own path");
    let started = Instant::now();
    let mut child = std::process::Command::new(exe)
        .args(child_args)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn full-enumeration child");
    loop {
        match child.try_wait().expect("poll child") {
            Some(status) => {
                assert!(status.success(), "full-enumeration child failed");
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                return (false, Some(ns));
            }
            None if started.elapsed() >= timeout => {
                child.kill().expect("kill timed-out child");
                let _ = child.wait();
                return (true, None);
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn run_frontier() -> FrontierResult {
    let (model, new_path, background, universe) = query(FRONTIER_LINKS);
    let maximal = maximal_independent_sets(&model, &universe).len();
    let started = Instant::now();
    let ColgenOutcome {
        result: colgen,
        stats,
    } = solve_colgen(
        &model,
        &background,
        &new_path,
        &options(SolverKind::ColumnGeneration),
    );
    let colgen_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (full_timed_out, full_ns) =
        full_with_timeout(FRONTIER_TIMEOUT, &["--full-once".to_string()]);
    FrontierResult {
        host: host(),
        links: FRONTIER_LINKS,
        timeout_s: FRONTIER_TIMEOUT.as_secs(),
        full_timed_out,
        full_ns,
        maximal_sets: maximal,
        colgen_columns: colgen.num_sets(),
        colgen_pivots: colgen.lp_pivots(),
        colgen_ns,
        bandwidth_mbps: colgen.bandwidth_mbps(),
        exact_calls: stats.exact_calls,
        exact_nodes: stats.exact_nodes,
        ns_per_exact_call: ns_per_exact_call(&stats),
    }
}

/// Heuristic-first vs exact-only pricing on the 24-link frontier instance.
fn run_ablation() -> AblationResult {
    let (model, new_path, background, _) = query(FRONTIER_LINKS);
    let started = Instant::now();
    let heur = solve_colgen(
        &model,
        &background,
        &new_path,
        &colgen_options(PricingMode::HeuristicFirst, false),
    );
    let heuristic_mode_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let started = Instant::now();
    let exact = solve_colgen(
        &model,
        &background,
        &new_path,
        &colgen_options(PricingMode::ExactOnly, false),
    );
    let exact_mode_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    AblationResult {
        host: host(),
        links: FRONTIER_LINKS,
        heuristic_mode_exact_calls: heur.stats.exact_calls,
        exact_mode_exact_calls: exact.stats.exact_calls,
        exact_call_reduction: exact.stats.exact_calls as f64 / heur.stats.exact_calls.max(1) as f64,
        heuristic_columns: heur.stats.heuristic_columns,
        optimum_bits_equal: heur.result.bandwidth_mbps().to_bits()
            == exact.result.bandwidth_mbps().to_bits(),
        heuristic_mode_ns,
        exact_mode_ns,
        heuristic_mode_exact_nodes: heur.stats.exact_nodes,
        exact_mode_exact_nodes: exact.stats.exact_nodes,
        heuristic_mode_ns_per_exact_call: ns_per_exact_call(&heur.stats),
        exact_mode_ns_per_exact_call: ns_per_exact_call(&exact.stats),
    }
}

/// One giant oracle, no clusters: how far a single component can be pushed
/// before the clustered decomposition becomes the only viable path. No
/// full-enumeration child runs here — enumerating a 64-link conflict web
/// would exhaust memory long before any timeout fires.
fn run_single_frontier() -> SingleFrontierResult {
    let (model, new_path, background, _) = query(SINGLE_FRONTIER_LINKS);
    let opts = colgen_options(PricingMode::HeuristicFirst, false);
    let started = Instant::now();
    let out = solve_colgen(&model, &background, &new_path, &opts);
    let elapsed = started.elapsed();
    assert!(
        elapsed <= SINGLE_FRONTIER_BUDGET,
        "{SINGLE_FRONTIER_LINKS}-link single-component solve took {elapsed:?} \
         (budget {SINGLE_FRONTIER_BUDGET:?})"
    );
    SingleFrontierResult {
        host: host(),
        links: SINGLE_FRONTIER_LINKS,
        budget_s: SINGLE_FRONTIER_BUDGET.as_secs(),
        colgen_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        pricing_rounds: out.stats.pricing_rounds,
        columns_generated: out.stats.columns_generated,
        colgen_columns: out.result.num_sets(),
        pool_peak: out.stats.pool_peak,
        lp_pivots: out.result.lp_pivots(),
        pricing_heuristic_ns: out.stats.heuristic_ns,
        pricing_exact_ns: out.stats.exact_ns,
        heuristic_columns: out.stats.heuristic_columns,
        bandwidth_mbps: out.result.bandwidth_mbps(),
        exact_calls: out.stats.exact_calls,
        exact_nodes: out.stats.exact_nodes,
        ns_per_exact_call: ns_per_exact_call(&out.stats),
    }
}

fn run_sweep_size(links: usize) -> SweepResult {
    let (model, new_path, background) = clustered_query(links);
    let opts = colgen_options(PricingMode::HeuristicFirst, true);
    let started = Instant::now();
    let out = solve_colgen(&model, &background, &new_path, &opts);
    let colgen_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (full_timed_out, full_ns) = full_with_timeout(
        SWEEP_BUDGET,
        &["--full-clustered".to_string(), links.to_string()],
    );
    SweepResult {
        host: host(),
        links,
        clusters: links.div_ceil(SWEEP_CLUSTER),
        colgen_ns,
        pricing_rounds: out.stats.pricing_rounds,
        columns_generated: out.stats.columns_generated,
        colgen_columns: out.result.num_sets(),
        pool_peak: out.stats.pool_peak,
        lp_pivots: out.result.lp_pivots(),
        pricing_heuristic_ns: out.stats.heuristic_ns,
        pricing_exact_ns: out.stats.exact_ns,
        heuristic_columns: out.stats.heuristic_columns,
        full_timed_out,
        full_ns,
        bandwidth_mbps: out.result.bandwidth_mbps(),
        exact_calls: out.stats.exact_calls,
        exact_nodes: out.stats.exact_nodes,
        ns_per_exact_call: ns_per_exact_call(&out.stats),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full-once") {
        // Child mode for the frontier timeout: one full-enumeration solve.
        let (model, new_path, background, _) = query(FRONTIER_LINKS);
        let out = solve(&model, &background, &new_path, SolverKind::FullEnumeration);
        println!("{}", out.bandwidth_mbps());
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--full-clustered") {
        // Child mode for the sweep timeout: one full-enumeration solve of
        // the clustered instance, with the same decomposition colgen gets.
        let links: usize = args
            .get(pos + 1)
            .expect("--full-clustered takes a size")
            .parse()
            .expect("--full-clustered size parses");
        let (model, new_path, background) = clustered_query(links);
        let opts = AvailableBandwidthOptions {
            solver: SolverKind::FullEnumeration,
            decompose: true,
            ..AvailableBandwidthOptions::default()
        };
        let out =
            available_bandwidth(&model, &background, &new_path, &opts).expect("query is feasible");
        println!("{}", out.bandwidth_mbps());
        return;
    }
    if args.iter().any(|a| a == "--frontier-smoke") {
        // CI hook: the 64-link clustered frontier must stay solvable well
        // inside the sweep budget.
        let (model, new_path, background) = clustered_query(64);
        let opts = colgen_options(PricingMode::HeuristicFirst, true);
        let started = Instant::now();
        let out = solve_colgen(&model, &background, &new_path, &opts);
        let elapsed = started.elapsed();
        assert!(
            elapsed <= SWEEP_BUDGET,
            "64-link frontier solve took {elapsed:?} (budget {SWEEP_BUDGET:?})"
        );
        println!(
            "colgen_bench frontier smoke ok: 64 links in {:.2}s \
             ({} rounds, {} columns, {} exact calls, {:.3} Mbps)",
            elapsed.as_secs_f64(),
            out.stats.pricing_rounds,
            out.result.num_sets(),
            out.stats.exact_calls,
            out.result.bandwidth_mbps(),
        );
        // `plan_frontier`'s single40 draw: its optimum's bits, and the exact
        // search's work counted in positions, not seconds.
        let (model, new_path, background, _) = query(SMOKE_SINGLE_LINKS);
        let started = Instant::now();
        let out = solve_colgen(
            &model,
            &background,
            &new_path,
            &options(SolverKind::ColumnGeneration),
        );
        let elapsed = started.elapsed();
        assert_eq!(
            out.result.bandwidth_mbps().to_bits(),
            SMOKE_SINGLE_OPTIMUM.to_bits(),
            "{SMOKE_SINGLE_LINKS}-link optimum {:?} is not the recorded {SMOKE_SINGLE_OPTIMUM:?}",
            out.result.bandwidth_mbps(),
        );
        assert!(
            out.stats.exact_nodes <= SMOKE_SINGLE_NODE_CEILING,
            "{SMOKE_SINGLE_LINKS}-link solve: the exact search branched at {} positions \
             (ceiling {SMOKE_SINGLE_NODE_CEILING})",
            out.stats.exact_nodes,
        );
        println!(
            "colgen_bench frontier smoke ok: {SMOKE_SINGLE_LINKS} links, one component, in \
             {:.2}s ({} exact calls, {} positions branched at, ceiling {}, {:?} Mbps)",
            elapsed.as_secs_f64(),
            out.stats.exact_calls,
            out.stats.exact_nodes,
            SMOKE_SINGLE_NODE_CEILING,
            out.result.bandwidth_mbps(),
        );
        return;
    }
    if args.iter().any(|a| a == "--ablate-probe") {
        // Hidden dev mode: exact-call counts per (pricing, stab_alpha).
        let (model, new_path, background, _) = query(FRONTIER_LINKS);
        for (label, pricing, alpha) in [
            ("exact  a=1.0", PricingMode::ExactOnly, 1.0),
            ("exact  a=0.5", PricingMode::ExactOnly, 0.5),
            ("heur   a=1.0", PricingMode::HeuristicFirst, 1.0),
            ("heur   a=0.7", PricingMode::HeuristicFirst, 0.7),
            ("heur   a=0.5", PricingMode::HeuristicFirst, 0.5),
            ("heur   a=0.3", PricingMode::HeuristicFirst, 0.3),
        ] {
            let mut opts = colgen_options(pricing, false);
            opts.stab_alpha = alpha;
            let started = Instant::now();
            let out = solve_colgen(&model, &background, &new_path, &opts);
            println!(
                "{label}: {} rounds, {} columns ({} heuristic), {} exact calls, \
                 {} pivots, {:.1}ms, f={:.17e}",
                out.stats.pricing_rounds,
                out.stats.columns_generated,
                out.stats.heuristic_columns,
                out.stats.exact_calls,
                out.result.lp_pivots(),
                started.elapsed().as_secs_f64() * 1e3,
                out.result.bandwidth_mbps(),
            );
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        let result = run_size(12);
        assert!(
            result.speedup >= 2.0,
            "column generation is not ahead of full enumeration: {:.2}x",
            result.speedup
        );
        println!(
            "colgen_bench smoke ok: 12 links, optimum delta {:.1e}, {}/{} columns, \
             colgen {:.1}x full enumeration",
            result.optimum_delta, result.colgen_columns, result.maximal_sets, result.speedup
        );
        return;
    }

    let results: Vec<SizeResult> = SIZES.iter().map(|&n| run_size(n)).collect();
    // The ISSUE's acceptance bar, checked on the 16-link topology.
    let r16 = results.iter().find(|r| r.links == 16).expect("16 in SIZES");
    assert!(
        r16.column_fraction <= 0.10,
        "colgen generated {:.1}% of the maximal pool at 16 links",
        100.0 * r16.column_fraction
    );
    assert!(
        r16.speedup >= 10.0,
        "colgen speedup at 16 links is only {:.1}x",
        r16.speedup
    );
    let frontier = run_frontier();
    assert!(
        frontier.full_timed_out,
        "full enumeration unexpectedly finished {} links within {}s",
        frontier.links, frontier.timeout_s
    );
    let ablation = run_ablation();
    assert!(
        ablation.exact_call_reduction >= 3.0,
        "heuristic-first pricing only cut exact calls by {:.2}x ({} vs {})",
        ablation.exact_call_reduction,
        ablation.exact_mode_exact_calls,
        ablation.heuristic_mode_exact_calls
    );
    assert!(
        ablation.optimum_bits_equal,
        "heuristic-first and exact-only pricing disagree on the optimum"
    );
    let sweep: Vec<SweepResult> = SWEEP.iter().map(|&n| run_sweep_size(n)).collect();
    let single_frontier = run_single_frontier();
    for s in &sweep {
        assert!(
            s.full_timed_out,
            "full enumeration unexpectedly finished {} clustered links within {}s",
            s.links,
            SWEEP_BUDGET.as_secs()
        );
        assert!(
            Duration::from_nanos(s.colgen_ns) <= SWEEP_BUDGET,
            "{} links: colgen took {:.2}s (budget {}s)",
            s.links,
            s.colgen_ns as f64 / 1e9,
            SWEEP_BUDGET.as_secs()
        );
    }

    for r in &results {
        println!(
            "{:>2} links: {:>5} maximal sets vs {:>3} columns ({:>4.1}%); \
             full {:>11} ns / {:>4} pivots, colgen {:>10} ns / {:>4} pivots ({:.1}x)",
            r.links,
            r.maximal_sets,
            r.colgen_columns,
            100.0 * r.column_fraction,
            r.full_ns,
            r.full_pivots,
            r.colgen_ns,
            r.colgen_pivots,
            r.speedup,
        );
    }
    println!(
        "{:>2} links: full enumeration killed at {}s; colgen solved in {:.2}s \
         ({} columns of {} maximal sets)",
        frontier.links,
        frontier.timeout_s,
        frontier.colgen_ns as f64 / 1e9,
        frontier.colgen_columns,
        frontier.maximal_sets,
    );
    println!(
        "ablation at {} links: exact calls {} -> {} ({:.1}x cut), \
         {} heuristic columns, optima bit-identical: {}",
        ablation.links,
        ablation.exact_mode_exact_calls,
        ablation.heuristic_mode_exact_calls,
        ablation.exact_call_reduction,
        ablation.heuristic_columns,
        ablation.optimum_bits_equal,
    );
    for s in &sweep {
        println!(
            "{:>3} links / {} clusters: colgen {:>6.2}s ({} rounds, {} columns, {} pivots; \
             pricing {:.0}ms heuristic + {:.0}ms exact, {} exact calls, {} nodes); \
             full enum killed: {}",
            s.links,
            s.clusters,
            s.colgen_ns as f64 / 1e9,
            s.pricing_rounds,
            s.colgen_columns,
            s.lp_pivots,
            s.pricing_heuristic_ns as f64 / 1e6,
            s.pricing_exact_ns as f64 / 1e6,
            s.exact_calls,
            s.exact_nodes,
            s.full_timed_out,
        );
    }
    println!(
        "{:>3} links / 1 component: colgen {:>6.2}s ({} rounds, {} columns, peak pool {}, \
         {} exact calls, {} nodes, {:.1} ms per call) — the single-oracle wall the clustered \
         sweep avoids",
        single_frontier.links,
        single_frontier.colgen_ns as f64 / 1e9,
        single_frontier.pricing_rounds,
        single_frontier.colgen_columns,
        single_frontier.pool_peak,
        single_frontier.exact_calls,
        single_frontier.exact_nodes,
        single_frontier.ns_per_exact_call / 1e6,
    );
    let report = Report {
        bench: "colgen-vs-full-enumeration",
        command: "cargo run --release -p awb-bench --bin colgen_bench",
        seed: SEED,
        results,
        frontier: vec![frontier],
        ablation: vec![ablation],
        sweep,
        single_frontier: vec![single_frontier],
    };
    merge_report(&report);
}

/// Writes `report` to `BENCH_colgen.json`, keeping the rows the existing
/// file holds from other commits: each section (every list in the report)
/// holds those rows first, then this run's. Rows that record no host are
/// dropped.
fn merge_report(report: &Report) {
    let path = "BENCH_colgen.json";
    let Value::Object(mut merged) = serde_json::to_value(report).expect("report serializes") else {
        panic!("the report serializes to an object");
    };
    let commit = host().commit;
    let previous: Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or(Value::Null);
    for (section, value) in merged.iter_mut() {
        let Value::Array(rows) = value else {
            continue;
        };
        let mut kept: Vec<Value> = previous
            .get(section)
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .filter(|row| {
                let measured_at = row
                    .get("host")
                    .and_then(|h| h.get("commit"))
                    .and_then(Value::as_str);
                measured_at.is_some() && measured_at != Some(commit.as_str())
            })
            .cloned()
            .collect();
        kept.append(rows);
        *rows = kept;
    }
    let json = serde_json::to_string_pretty(&Value::Object(merged)).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_colgen.json");
    println!("wrote {path} (rows of other commits kept)");
}

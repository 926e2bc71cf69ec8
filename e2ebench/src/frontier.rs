//! `plan_frontier`: an offline planner calling the library directly, with
//! no server.
//!
//! Each op is a cold `CompiledInstance::compile` followed by
//! `query_colgen` under column generation with the shipped pricing
//! defaults (heuristic first, one pricing thread), on seeded rate-coupled
//! draws from `awb_bench::topo`: two single-component draws sized so one
//! solve takes about 1–2 s, and one clustered 128-link draw solved with
//! `decompose` on. Heuristic and exact pricing (`sets`) and the
//! warm-started simplex master (`lp`) do all the work; there is no
//! enumeration and no serving stack.

use crate::check::check_plan;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::Args;
use awb_bench::topo::{clustered_rate_coupled, random_rate_coupled};
use awb_core::{AvailableBandwidthOptions, ColgenStats, CompiledInstance, Flow, SolverKind};
use awb_net::{DeclarativeModel, LinkId, Path};
use std::collections::BTreeMap;
use std::time::Instant;

/// Draw seed of every instance in the catalogue. The run seed orders the
/// ops; it does not redraw the instances, so every run solves the same
/// problems and their optima can be recorded.
const DRAW_SEED: u64 = 7;
/// Conflict-cluster size of the clustered draw.
const CLUSTER: usize = 24;

/// One catalogue entry: name, links, clustered?, and the optimum recorded
/// for draw seed [`DRAW_SEED`].
const CATALOGUE: [(&str, usize, bool, f64); 3] = [
    ("single40", 40, false, 52.00000000000002),
    ("single44", 44, false, 52.52272727272731),
    ("clustered128", 128, true, 53.687500000000014),
];
/// Seconds one pass over the catalogue takes on the reference host (2
/// cores): `--seconds` becomes a whole number of passes.
const PASS_SECONDS: f64 = 2.9;
/// Model constructions before each op; `setup_s` is the median of all of
/// them. Spread through the run, they meet the host's speed drift, which
/// can move a sub-millisecond construction by half, the way the ops do.
const SETUP_REPEATS_PER_OP: usize = 11;

struct Instance {
    name: &'static str,
    model: DeclarativeModel,
    links: Vec<LinkId>,
    path: Path,
    background: Vec<Flow>,
    options: AvailableBandwidthOptions,
    recorded: f64,
}

/// The catalogue's models and queries: the new path is the first link and
/// every other link carries a light background flow, as in `colgen_bench`.
fn build() -> Vec<Instance> {
    CATALOGUE
        .iter()
        .map(|&(name, n, clustered, recorded)| {
            let (model, links) = if clustered {
                clustered_rate_coupled(n, CLUSTER, DRAW_SEED)
            } else {
                random_rate_coupled(n, DRAW_SEED)
            };
            let single = |l: LinkId| Path::new(model.topology(), vec![l]).expect("one-link path");
            let path = single(links[0]);
            let background = links[1..]
                .iter()
                .map(|&l| Flow::new(single(l), 20.0 / n as f64).expect("demand is valid"))
                .collect();
            Instance {
                name,
                model,
                path,
                background,
                links,
                options: AvailableBandwidthOptions {
                    solver: SolverKind::ColumnGeneration,
                    decompose: clustered,
                    ..AvailableBandwidthOptions::default()
                },
                recorded,
            }
        })
        .collect()
}

/// One finished op: its timings, its pricing counters and whether its
/// plan passed the check.
struct Solved {
    instance: usize,
    optimum: f64,
    stats: ColgenStats,
    correct: bool,
    op_ns: f64,
    compile_ns: f64,
    query_ns: f64,
}

/// Runs `ops` in order. Each op's plan is checked right after the op, and
/// the check is not timed: the timed phase is the sum of the ops' times.
fn pass(
    instances: &[Instance],
    ops: &[usize],
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Solved>, String> {
    let mut solved = Vec::with_capacity(ops.len());
    for &i in ops {
        let inst = &instances[i];
        let t0 = Instant::now();
        let compiled = CompiledInstance::compile(&inst.model, &inst.links, &inst.options)
            .map_err(|e| format!("{}: compile: {e}", inst.name))?;
        let t1 = Instant::now();
        let outcome = compiled
            .query_colgen(&inst.model, &inst.background, &inst.path)
            .map_err(|e| format!("{}: solve: {e}", inst.name))?;
        let t2 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let op = t.record(None, "op.plan", t.at(t0), t.at(t2));
            t.record(Some(op), "CompiledInstance::compile", t.at(t0), t.at(t1));
            t.record(
                Some(op),
                "CompiledInstance::query_colgen",
                t.at(t1),
                t.at(t2),
            );
        }
        let result = &outcome.result;
        let verdict = check_plan(
            &inst.model,
            &inst.background,
            &inst.path,
            result.bandwidth_mbps(),
            result.schedule().entries(),
            inst.recorded,
        );
        if let Err(e) = &verdict {
            eprintln!("plan_frontier: {}: {e}", inst.name);
        }
        solved.push(Solved {
            instance: i,
            optimum: result.bandwidth_mbps(),
            stats: outcome.stats,
            correct: verdict.is_ok(),
            op_ns: t2.duration_since(t0).as_nanos() as f64,
            compile_ns: t1.duration_since(t0).as_nanos() as f64,
            query_ns: t2.duration_since(t1).as_nanos() as f64,
        });
    }
    Ok(solved)
}

/// Ops per second of the timed phase: the ops' summed wall times.
fn rate(solved: &[Solved]) -> f64 {
    solved.len() as f64 * 1e9 / solved.iter().map(|s| s.op_ns).sum::<f64>()
}

/// Builds the catalogue [`SETUP_REPEATS_PER_OP`] times, recording each
/// build's seconds, and returns the last build.
fn build_repeatedly(setups: &mut Vec<f64>) -> Vec<Instance> {
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPEATS_PER_OP {
        let t = Instant::now();
        instances = std::hint::black_box(build());
        setups.push(t.elapsed().as_secs_f64());
    }
    instances
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let passes = ((args.seconds as f64 / PASS_SECONDS).round() as u64).max(1);
    let ops: Vec<usize> = (0..passes)
        .flat_map(|p| {
            let mut order: Vec<usize> = (0..CATALOGUE.len()).collect();
            SplitMix::new(args.seed, p).shuffle(&mut order);
            order
        })
        .collect();
    let mut setups = Vec::new();
    let mut instances = Vec::new();
    let mut plain = Vec::with_capacity(ops.len());
    for &op in &ops {
        instances = build_repeatedly(&mut setups);
        plain.extend(pass(&instances, &[op], None)?);
    }
    let setup_s = median(&setups);
    let wrong = plain.iter().filter(|s| !s.correct).count();
    let mut out = Outcome {
        correct: wrong == 0,
        attempted: ops.len(),
        failed: wrong,
        ..Outcome::default()
    };
    out.note(format!(
        "{passes} passes over {} instances: {} ops",
        instances.len(),
        ops.len()
    ));
    for (i, inst) in instances.iter().enumerate() {
        let runs: Vec<&Solved> = plain.iter().filter(|s| s.instance == i).collect();
        let f = runs[0].optimum;
        out.note(format!(
            "{}: {} links, optimum {f:?} Mbps, median {:.3} s",
            inst.name,
            inst.links.len(),
            median(&runs.iter().map(|s| s.op_ns).collect::<Vec<_>>()) / 1e9
        ));
    }
    let ops_per_s = rate(&plain);
    if !args.trace {
        let latencies: Vec<f64> = plain.iter().map(|s| s.op_ns).collect();
        out.end_to_end(setup_s, ops_per_s, &latencies, peak_rss_mb());
        return Ok(out);
    }

    let mut tracer = Tracer::new();
    let traced = pass(&instances, &ops, Some(&mut tracer))?;
    let wrong = traced.iter().filter(|s| !s.correct).count();
    out.failed += wrong;
    out.correct &= wrong == 0;
    let total = |f: &dyn Fn(&Solved) -> f64| traced.iter().map(f).sum::<f64>();
    let rounds = total(&|s| s.stats.pricing_rounds as f64);
    let generated = total(&|s| s.stats.columns_generated as f64);
    let exact_calls = total(&|s| s.stats.exact_calls as f64);
    let exact_ms = total(&|s| s.stats.exact_ns as f64) / 1e6;
    let heuristic_ms = total(&|s| s.stats.heuristic_ns as f64) / 1e6;
    let pivots = total(&|s| s.stats.pivots as f64);
    let query_ms = total(&|s| s.query_ns) / 1e6;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("trace.overhead_ratio", rate(&traced) / ops_per_s);
    m.insert("core.colgen_rounds", rounds);
    m.insert("core.colgen_columns", generated);
    m.insert("core.compiles", ops.len() as f64);
    m.insert(
        "core.compile_ms_p50",
        median(&tracer.durations_ns("CompiledInstance::compile")) / 1e6,
    );
    m.insert("core.compile_ms_total", total(&|s| s.compile_ns) / 1e6);
    m.insert(
        "core.query_ms_p50",
        median(&tracer.durations_ns("CompiledInstance::query_colgen")) / 1e6,
    );
    m.insert("sets.price_exact_calls", exact_calls);
    m.insert("sets.price_exact_ms", exact_ms);
    m.insert(
        "sets.price_exact_ms_per_call",
        exact_ms / exact_calls.max(1.0),
    );
    m.insert("sets.price_heuristic_ms", heuristic_ms);
    m.insert(
        "sets.price_heuristic_column_share",
        total(&|s| s.stats.heuristic_columns as f64) / generated.max(1.0),
    );
    m.insert("lp.queries", ops.len() as f64);
    m.insert("lp.pivots", pivots);
    m.insert("lp.pivots_per_query", pivots / ops.len() as f64);
    m.insert("lp.master_ms", query_ms - exact_ms - heuristic_ms);
    tracer.report(&mut out, "plan_frontier", args.seed)?;
    out.per_layer(&m);
    Ok(out)
}

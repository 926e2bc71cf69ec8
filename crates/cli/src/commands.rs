//! Implementations of the CLI subcommands.

use crate::args::Args;
use awb_core::{available_bandwidth, AvailableBandwidthOptions, Flow};
use awb_net::Path;
use awb_phy::Phy;
use awb_routing::{admit_sequentially, AdmissionConfig, RoutingMetric};
use awb_sim::{Contention, SimConfig, Simulator};
use awb_workloads::{chain_model, connected_pairs, RandomTopology, RandomTopologyConfig};
use serde::Serialize;
use std::error::Error;

type CmdResult = Result<(), Box<dyn Error>>;

fn emit<T: Serialize>(args: &Args, value: &T, text: impl FnOnce()) -> CmdResult {
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(value)?);
    } else {
        text();
    }
    Ok(())
}

#[derive(Serialize)]
struct TopologyOut {
    nodes: Vec<(f64, f64)>,
    links: Vec<(usize, usize)>,
}

pub fn topology(args: &Args) -> CmdResult {
    let config = RandomTopologyConfig {
        num_nodes: args.get_or("nodes", 30usize)?,
        width: args.get_or("width", 400.0f64)?,
        height: args.get_or("height", 600.0f64)?,
        seed: args.get_or("seed", RandomTopologyConfig::default().seed)?,
    };
    let rt = RandomTopology::generate(config);
    let t = rt.model().topology();
    let out = TopologyOut {
        nodes: t
            .nodes()
            .map(|n| (n.position().x, n.position().y))
            .collect(),
        links: t
            .links()
            .map(|l| (l.tx().index(), l.rx().index()))
            .collect(),
    };
    emit(args, &out, || {
        println!(
            "{} nodes in {} m x {} m (seed {}), {} directed links",
            config.num_nodes,
            config.width,
            config.height,
            config.seed,
            out.links.len()
        );
        for (i, (x, y)) in out.nodes.iter().enumerate() {
            println!("  n{i}: ({x:.1}, {y:.1})");
        }
    })
}

#[derive(Serialize)]
struct AvailableOut {
    hops: usize,
    hop_length_m: f64,
    background_mbps: f64,
    available_mbps: f64,
    airtime_shadow_price: f64,
    bottlenecks: Vec<(usize, f64)>,
    schedule: String,
}

pub fn available(args: &Args) -> CmdResult {
    let hops = args.get_or("hops", 4usize)?;
    let hop_length = args.get_or("hop-length", 70.0f64)?;
    let background_mbps = args.get_or("background", 0.0f64)?;
    let (model, path) = chain_model(hops, hop_length, Phy::paper_default());
    // Background, if requested, loads the first hop.
    let background = if background_mbps > 0.0 {
        let first = Path::new(model.topology(), vec![path.links()[0]])?;
        vec![Flow::new(first, background_mbps)?]
    } else {
        Vec::new()
    };
    let (pricing, stab_alpha, pricing_threads, column_pool_cap) = pricing_args(args)?;
    let options = AvailableBandwidthOptions {
        solver: parse_solver_kind(args.get("solver").unwrap_or("full"))?,
        pricing,
        stab_alpha,
        pricing_threads,
        column_pool_cap,
        ..AvailableBandwidthOptions::default()
    };
    let out = available_bandwidth(&model, &background, &path, &options)?;
    let view = AvailableOut {
        hops,
        hop_length_m: hop_length,
        background_mbps,
        available_mbps: out.bandwidth_mbps(),
        airtime_shadow_price: out.airtime_shadow_price(),
        bottlenecks: out
            .bottleneck_links()
            .into_iter()
            .map(|(l, s)| (l.index(), s))
            .collect(),
        schedule: out.schedule().to_string(),
    };
    emit(args, &view, || {
        println!(
            "{hops}-hop chain at {hop_length} m/hop, {background_mbps} Mbps background on hop 0"
        );
        println!("available bandwidth: {:.3} Mbps", view.available_mbps);
        println!(
            "airtime shadow price: {:.3} Mbps per unit time",
            view.airtime_shadow_price
        );
        if !view.bottlenecks.is_empty() {
            println!("bottleneck links (scarcity):");
            for (l, s) in &view.bottlenecks {
                println!("  L{l}: {s:.3}");
            }
        }
        println!("schedule:\n{}", view.schedule);
    })
}

#[derive(Serialize)]
struct AdmissionRow {
    flow: usize,
    hops: usize,
    available_mbps: f64,
    admitted: bool,
}

pub fn admission(args: &Args) -> CmdResult {
    let metric = match args.get("metric").unwrap_or("average-e2eD") {
        "hop-count" | "hop count" => RoutingMetric::HopCount,
        "e2eTD" => RoutingMetric::E2eTransmissionDelay,
        "average-e2eD" => RoutingMetric::AverageE2eDelay,
        other => return Err(format!("unknown metric {other:?}").into()),
    };
    let rt = RandomTopology::generate(RandomTopologyConfig {
        seed: args.get_or("seed", RandomTopologyConfig::default().seed)?,
        ..RandomTopologyConfig::default()
    });
    let pairs = connected_pairs(
        rt.model(),
        args.get_or("flows", 8usize)?,
        2..=4,
        args.get_or("pairs-seed", 5u64)?,
    );
    let outcomes = admit_sequentially(
        rt.model(),
        &pairs,
        metric,
        &AdmissionConfig {
            demand_mbps: args.get_or("demand", 2.0f64)?,
            stop_on_first_failure: false,
            ..AdmissionConfig::default()
        },
    )?;
    let rows: Vec<AdmissionRow> = outcomes
        .iter()
        .map(|o| AdmissionRow {
            flow: o.index + 1,
            hops: o.path.as_ref().map_or(0, Path::len),
            available_mbps: o.available_mbps,
            admitted: o.admitted,
        })
        .collect();
    emit(args, &rows, || {
        println!("admission under {metric}:");
        for r in &rows {
            println!(
                "  flow {}: {} hops, {:.3} Mbps available — {}",
                r.flow,
                r.hops,
                r.available_mbps,
                if r.admitted { "admitted" } else { "REJECTED" }
            );
        }
        let n = rows.iter().filter(|r| r.admitted).count();
        println!("{n}/{} admitted", rows.len());
    })
}

#[derive(Serialize)]
struct SimulateOut {
    hops: usize,
    slots: u64,
    seeds: usize,
    /// Mean end-to-end throughput across seeds (the single seed's value
    /// when `--seeds 1`).
    throughput_mbps: f64,
    per_seed_mbps: Vec<f64>,
    /// Collision slots and idle ratios of the first seed's run.
    collision_slots: u64,
    node_idle_ratios: Vec<f64>,
}

pub fn simulate(args: &Args) -> CmdResult {
    let hops = args.get_or("hops", 3usize)?;
    let hop_length = args.get_or("hop-length", 70.0f64)?;
    let slots = args.get_or("slots", 50_000u64)?;
    let base_seed = args.get_or("seed", SimConfig::default().seed)?;
    let num_seeds = args.get_or("seeds", 1usize)?.max(1);
    let sim_threads = args.get_or("sim-threads", 1usize)?;
    let contention = match args.get("contention").unwrap_or("ordered") {
        "ordered" => Contention::OrderedCsma,
        "dcf" => Contention::Dcf {
            cw_min: 16,
            cw_max: 1024,
        },
        other => match other.strip_prefix('p').and_then(|p| p.parse::<f64>().ok()) {
            Some(p) if (0.0..=1.0).contains(&p) => Contention::PPersistent(p),
            _ => return Err(format!("unknown contention {other:?}").into()),
        },
    };
    let demand = match args.get("demand") {
        None | Some("sat") => None,
        Some(v) => Some(v.parse::<f64>().map_err(|_| format!("bad demand {v:?}"))?),
    };
    let (model, path) = chain_model(hops, hop_length, Phy::paper_default());
    // One job per seed, fanned out deterministically: results are merged in
    // seed order, so the report is identical for any --sim-threads.
    let reports = awb_sim::campaign::fan_out(num_seeds, sim_threads, |i| {
        let mut sim = Simulator::new(
            &model,
            SimConfig {
                slots,
                contention,
                seed: base_seed + i as u64,
                ..SimConfig::default()
            },
        );
        let f = sim.add_flow(path.clone(), demand);
        let report = sim.run(&model);
        (report.flow_throughput_mbps[f], report)
    });
    let per_seed_mbps: Vec<f64> = reports.iter().map(|(t, _)| *t).collect();
    let first = &reports[0].1;
    let out = SimulateOut {
        hops,
        slots,
        seeds: num_seeds,
        throughput_mbps: per_seed_mbps.iter().sum::<f64>() / per_seed_mbps.len() as f64,
        per_seed_mbps,
        collision_slots: first.link_collision_slots.iter().sum(),
        node_idle_ratios: first.node_idle_ratio.clone(),
    };
    emit(args, &out, || {
        println!(
            "{hops}-hop chain, {slots} slots, contention {:?}, {} seed(s)",
            contention, out.seeds
        );
        println!("end-to-end throughput: {:.3} Mbps", out.throughput_mbps);
        if out.seeds > 1 {
            println!(
                "per-seed: {}",
                out.per_seed_mbps
                    .iter()
                    .map(|t| format!("{t:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        println!("collision slots: {}", out.collision_slots);
        println!(
            "node idle ratios: {}",
            out.node_idle_ratios
                .iter()
                .map(|r| format!("{r:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    })
}

#[derive(Serialize)]
struct Scenario2Out {
    optimal_mbps: f64,
    all54_bound_mbps: f64,
    l1_36_bound_mbps: f64,
    schedule: String,
}

/// Parses `--enum-engine`: `auto`, `generic`, or `compiled[:threads]`
/// (`compiled` alone means one worker per core).
fn parse_engine_kind(s: &str) -> Result<awb_sets::EngineKind, Box<dyn Error>> {
    use awb_sets::EngineKind;
    match s {
        "auto" => Ok(EngineKind::Auto),
        "generic" => Ok(EngineKind::Generic),
        "compiled" => Ok(EngineKind::Compiled(0)),
        other => {
            if let Some(threads) = other.strip_prefix("compiled:") {
                let threads: usize = threads
                    .parse()
                    .map_err(|_| format!("cannot parse --enum-engine value {other:?}"))?;
                Ok(EngineKind::Compiled(threads))
            } else {
                Err(format!(
                    "unknown --enum-engine {other:?} (expected auto, generic, or compiled[:N])"
                )
                .into())
            }
        }
    }
}

/// Parses `--solver`: `full` (enumerate every independent set, the
/// default) or `colgen` (column generation — price sets in on demand).
/// Both certify the same optimum (equal to about 1e-12).
fn parse_solver_kind(s: &str) -> Result<awb_core::SolverKind, Box<dyn Error>> {
    use awb_core::SolverKind;
    match s {
        "full" | "enumerate" => Ok(SolverKind::FullEnumeration),
        "colgen" | "column-generation" => Ok(SolverKind::ColumnGeneration),
        other => Err(format!("unknown --solver {other:?} (expected full or colgen)").into()),
    }
}

/// Parses `--pricing`: `heuristic` (greedy-plus-local-search first, exact
/// branch-and-bound only as the fallback and final certificate — the
/// default) or `exact` (exact oracle on every pricing round). Both certify
/// the same optimum; the choice is a pure performance knob.
fn parse_pricing_mode(s: &str) -> Result<awb_core::PricingMode, Box<dyn Error>> {
    use awb_core::PricingMode;
    match s {
        "heuristic" | "heuristic-first" => Ok(PricingMode::HeuristicFirst),
        "exact" | "exact-only" => Ok(PricingMode::ExactOnly),
        other => Err(format!("unknown --pricing {other:?} (expected heuristic or exact)").into()),
    }
}

/// Reads the colgen pricing knobs shared by `available`, `serve`, and
/// `query`: `--pricing heuristic|exact`, `--stab-alpha A` (dual smoothing,
/// 1.0 disables), `--pricing-threads N` (0 = all cores), `--pool-cap N`
/// (per-component stage-B column cap, 0 = unbounded).
fn pricing_args(args: &Args) -> Result<(awb_core::PricingMode, f64, usize, usize), Box<dyn Error>> {
    let defaults = AvailableBandwidthOptions::default();
    Ok((
        parse_pricing_mode(args.get("pricing").unwrap_or("heuristic"))?,
        args.get_or("stab-alpha", defaults.stab_alpha)?,
        args.get_or("pricing-threads", defaults.pricing_threads)?,
        args.get_or("pool-cap", defaults.column_pool_cap)?,
    ))
}

/// `awb serve` — run the admission-control daemon ([`awb_service`]).
///
/// With `--stdio`, serves newline-delimited JSON requests from stdin to
/// stdout and exits at EOF (single-shot mode). Otherwise binds a TCP
/// listener (default `127.0.0.1:4810`; `--addr host:0` picks a free port)
/// and serves it with the nonblocking reactor (epoll event loop plus a
/// worker pool): it installs a SIGTERM/SIGINT handler, drains in-flight
/// and queued requests within `--drain-ms`, and exits 0. `--max-frame
/// BYTES` caps request frames in both modes.
/// `--enum-engine auto|generic|compiled[:N]` selects the set-enumeration
/// engine (a pure performance knob: results are identical) and `--solver
/// full|colgen` the LP strategy (both reach the same optimum to about
/// 1e-12; `num_sets` counts the enumerated pool under `full` and the
/// priced-in columns under `colgen`).
pub fn serve(args: &Args) -> CmdResult {
    use awb_service::{Engine, EngineConfig, ReactorConfig, ReactorServerConfig};
    let (pricing, stab_alpha, pricing_threads, column_pool_cap) = pricing_args(args)?;
    let engine_config = EngineConfig {
        enumeration_engine: parse_engine_kind(args.get("enum-engine").unwrap_or("auto"))?,
        solver: parse_solver_kind(args.get("solver").unwrap_or("full"))?,
        pricing,
        stab_alpha,
        pricing_threads,
        column_pool_cap,
        ..EngineConfig::default()
    };
    let defaults = ReactorConfig::default();
    let max_frame_len = args.get_or("max-frame", defaults.max_frame_len)?.max(1);
    if args.has("stdio") {
        let engine = Engine::new(engine_config);
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout();
        let served = awb_service::serve_stdio(&engine, stdin.lock(), &mut stdout, max_frame_len)?;
        eprintln!(
            "awb-service stdio: served {served} request(s); {}",
            engine.metrics.summary()
        );
        return Ok(());
    }
    let config = ReactorServerConfig {
        reactor: ReactorConfig {
            addr: args.get("addr").unwrap_or("127.0.0.1:4810").to_string(),
            workers: args.get_or("workers", defaults.workers)?.max(1),
            queue_capacity: args.get_or("queue", defaults.queue_capacity)?.max(1),
            max_frame_len,
            drain_deadline: std::time::Duration::from_millis(args.get_or("drain-ms", 5000u64)?),
            install_signal_handler: true,
            ..defaults
        },
        engine: engine_config,
    };
    let server = awb_service::serve_reactor(config)?;
    eprintln!("awb-service listening on {}", server.local_addr());
    // Returns once a SIGTERM/SIGINT-triggered drain completes.
    let engine = std::sync::Arc::clone(server.engine());
    server.join()?;
    eprintln!("awb-service drained: {}", engine.metrics.summary());
    Ok(())
}

/// `awb query` — send one protocol request line and print the response.
///
/// The request comes from `--request '<json>'` or, failing that, one line
/// of stdin. With `--addr` the request goes to a running server; without
/// it the answer is computed in-process (handy for scripting without a
/// daemon).
pub fn query(args: &Args) -> CmdResult {
    let request = match args.get("request") {
        Some(r) => r.to_string(),
        None => {
            let mut line = String::new();
            std::io::stdin().read_line(&mut line)?;
            line.trim().to_string()
        }
    };
    if request.is_empty() {
        return Err("no request given (use --request or pipe a JSON line)".into());
    }
    let response = match args.get("addr") {
        Some(addr) => awb_service::server::query_once(addr, &request)?,
        None => {
            use awb_service::{Engine, EngineConfig};
            let (pricing, stab_alpha, pricing_threads, column_pool_cap) = pricing_args(args)?;
            let engine = Engine::new(EngineConfig {
                solver: parse_solver_kind(args.get("solver").unwrap_or("full"))?,
                pricing,
                stab_alpha,
                pricing_threads,
                column_pool_cap,
                ..EngineConfig::default()
            });
            awb_service::server::handle_line(&engine, &request)
        }
    };
    println!("{response}");
    Ok(())
}

pub fn scenario2(args: &Args) -> CmdResult {
    use awb_workloads::ScenarioTwo;
    let s = ScenarioTwo::new();
    let out = available_bandwidth(
        s.model(),
        &[],
        &s.path(),
        &AvailableBandwidthOptions::default(),
    )?;
    let view = Scenario2Out {
        optimal_mbps: out.bandwidth_mbps(),
        all54_bound_mbps: ScenarioTwo::ALL_54_CLIQUE_BOUND_MBPS,
        l1_36_bound_mbps: ScenarioTwo::L1_36_CLIQUE_BOUND_MBPS,
        schedule: out.schedule().to_string(),
    };
    emit(args, &view, || {
        println!(
            "optimal end-to-end throughput: {:.3} Mbps (fixed-rate clique bounds: {:.3}, {:.3})",
            view.optimal_mbps, view.all54_bound_mbps, view.l1_36_bound_mbps
        );
        println!("schedule:\n{}", view.schedule);
    })
}

#[derive(Serialize)]
struct MobilityEpochOut {
    epoch: usize,
    links: usize,
    attempted: usize,
    admitted: usize,
    dirty_links: usize,
    units_reused: usize,
    unit_cache_hits: usize,
    units_compiled: usize,
}

#[derive(Serialize)]
struct MobilityOut {
    nodes: usize,
    mobile_nodes: usize,
    pattern: String,
    epochs: Vec<MobilityEpochOut>,
    compiles: usize,
    warm_queries: usize,
    delta_applications: usize,
}

/// `awb mobility` — epoch-driven re-admission over a random-waypoint trace:
/// one compiled-query session is migrated across epochs by
/// `Session::apply_delta`, recompiling only the conflict components each
/// epoch's movers touched.
pub fn mobility(args: &Args) -> CmdResult {
    use awb_core::SolverKind;
    use awb_net::TopologyDelta;
    use awb_routing::{EpochRunner, RoutePolicy};
    use awb_workloads::mobility::{demand_pairs, DemandPattern, WaypointConfig, WaypointMobility};

    let pattern_name = args.get("pattern").unwrap_or("sink");
    let pattern = match pattern_name {
        "sink" => DemandPattern::SinkTree,
        "hot" => DemandPattern::HotDest,
        "unidir" => DemandPattern::Unidir,
        "bidir" => DemandPattern::Bidir,
        other => {
            return Err(format!(
                "unknown --pattern {other:?} (expected sink, hot, unidir, or bidir)"
            )
            .into())
        }
    };
    let default = WaypointConfig::default();
    let speed = args.get_or("speed", 0.0f64)?;
    let config = WaypointConfig {
        width: args.get_or("width", default.width)?,
        height: args.get_or("height", default.height)?,
        num_nodes: args.get_or("nodes", default.num_nodes)?,
        mobile_fraction: args.get_or("mobile", default.mobile_fraction)?,
        speed_min: if speed > 0.0 {
            speed
        } else {
            default.speed_min
        },
        speed_max: if speed > 0.0 {
            speed
        } else {
            default.speed_max
        },
        epoch_seconds: args.get_or("epoch-seconds", default.epoch_seconds)?,
        seed: args.get_or("seed", default.seed)?,
    };
    let epochs = args.get_or("epochs", 6usize)?;
    let flows = args.get_or("flows", 6usize)?;
    let mut trace = WaypointMobility::new(config);
    let mobile_nodes = trace.mobile_nodes().len();
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
    let admission = AdmissionConfig {
        demand_mbps: args.get_or("demand", 2.0f64)?,
        stop_on_first_failure: false,
        available_options: AvailableBandwidthOptions {
            solver: SolverKind::ColumnGeneration,
            decompose: true,
            ..AvailableBandwidthOptions::default()
        },
    };
    let policy = RoutePolicy::Additive(RoutingMetric::AverageE2eDelay);
    let mut runner = EpochRunner::new(&models[0], policy, admission);
    let mut rows = Vec::with_capacity(epochs);
    for (epoch, model) in models.iter().enumerate() {
        let pairs = demand_pairs(model.topology(), pattern, flows, config.seed ^ epoch as u64);
        let delta = (epoch > 0).then(|| &deltas[epoch - 1]);
        let outcome = runner.run_epoch(model, delta, &pairs)?;
        rows.push(MobilityEpochOut {
            epoch,
            links: model.topology().num_links(),
            attempted: outcome.attempted,
            admitted: outcome.admitted,
            dirty_links: outcome.reuse.dirty_links,
            units_reused: outcome.reuse.units_reused,
            unit_cache_hits: outcome.reuse.unit_cache_hits,
            units_compiled: outcome.reuse.units_compiled,
        });
    }
    let stats = runner.stats();
    let out = MobilityOut {
        nodes: config.num_nodes,
        mobile_nodes,
        pattern: pattern_name.to_string(),
        epochs: rows,
        compiles: stats.compiles,
        warm_queries: stats.warm_queries,
        delta_applications: stats.delta_applications,
    };
    emit(args, &out, || {
        println!(
            "{} nodes ({} mobile), {} demand, {} epochs:",
            out.nodes,
            out.mobile_nodes,
            out.pattern,
            out.epochs.len()
        );
        for e in &out.epochs {
            println!(
                "  epoch {}: {:>3} links, admitted {}/{}, delta dirtied {} links \
                 (reused {} + {} cached, compiled {} units)",
                e.epoch,
                e.links,
                e.admitted,
                e.attempted,
                e.dirty_links,
                e.units_reused,
                e.unit_cache_hits,
                e.units_compiled,
            );
        }
        println!(
            "session: {} compiles, {} warm queries, {} delta applications",
            out.compiles, out.warm_queries, out.delta_applications
        );
    })
}

//! `serve_mobile`: a sensor-field controller under mobility.
//!
//! Each field is the paper's §5.2 field (30 nodes, 400 m × 600 m) with 10%
//! of the nodes on random waypoints at 1–5 m/s and 10 s epochs
//! ([`WaypointMobility`]). One closed-loop client walks the epochs: each
//! epoch after the first sends one `update` (the moved nodes and newly
//! in-range links, translated from `TopologyDelta::between`), then
//! re-admits the field's eight 2 Mbps flows, each routed client-side by
//! e2eTD on that epoch's snapshot (2–5 hops) and carrying as background
//! the flows admitted earlier in the same epoch. Full enumeration, LPs
//! over full pools and the update path's instance migration do nearly all
//! the work; the working set outgrows the 128-instance cache.

use crate::check::{check_answer, check_topology_hash, number, parse_reply};
use crate::client::{drive, Lane};
use crate::inputs::{
    engine_options, hash_hex, register_request, route, sequential_admission, update_delta, Question,
};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::Args;
use awb_core::{link_universe, CompiledInstance};
use awb_net::{LinkRateModel, NodeId, SinrModel};
use awb_service::spec::{BuiltModel, DeltaSpec};
use awb_service::{serve_reactor, ReactorServer, ReactorServerConfig, TopologySpec};
use awb_workloads::{WaypointConfig, WaypointMobility};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::time::Instant;

/// Fields per pass: the waypoint traces of seeds `0..FIELDS`, walked in an
/// order drawn from the run seed. One field's walk costs anywhere from 1x
/// to 6x another's, and so does the same field's walk from another start
/// or with other flows; drawing walks from the run seed would let the draw
/// set the run's cost. Every run therefore walks the same fields, so that
/// no single cheap or costly draw sets the mix.
const FIELDS: u64 = 4;
/// Epochs walked per field.
const EPOCHS: usize = 40;
/// Seconds one pass takes on the reference host (2 cores). A run makes
/// `--seconds / PASS_SECONDS` identical passes, each on a fresh server, so
/// it takes about `--seconds` there and does the same work on any host;
/// `setup_s` is the median of the passes' set-ups.
const PASS_SECONDS: f64 = 2.5;
const PAIRS: usize = 8;
const HOPS: RangeInclusive<usize> = 2..=5;

/// One epoch of a field's walk. The client keeps only the spec: models
/// are rebuilt where needed, so the client's memory stays small beside
/// the server's in `peak_rss_mb`.
struct Epoch {
    spec: TopologySpec,
    /// The `update` that leads into this epoch (none for the first).
    delta: Option<Value>,
    questions: Vec<Question>,
}

enum Kind {
    Update,
    Admit(usize),
}

struct Op {
    field: usize,
    epoch: usize,
    kind: Kind,
    line: Vec<u8>,
}

struct Inputs {
    fields: Vec<Vec<Epoch>>,
    ops: Vec<Op>,
}

/// Eight pairs whose e2eTD route on the first snapshot has 2–5 hops.
fn pairs(model: &SinrModel, seed: u64) -> Result<Vec<(NodeId, NodeId)>, String> {
    let n = model.topology().num_nodes();
    let mut rng = SplitMix::new(seed, 7);
    let mut out = Vec::with_capacity(PAIRS);
    for _ in 0..100_000 {
        if out.len() == PAIRS {
            return Ok(out);
        }
        let pair = (
            NodeId::from_index(rng.below(n)),
            NodeId::from_index(rng.below(n)),
        );
        if pair.0 != pair.1
            && !out.contains(&pair)
            && route(model, pair.0, pair.1).is_some_and(|p| HOPS.contains(&p.len()))
        {
            out.push(pair);
        }
    }
    Err(format!("a field has fewer than {PAIRS} routable pairs"))
}

fn inputs(args: &Args) -> Result<Inputs, String> {
    let mut order: Vec<u64> = (0..FIELDS).collect();
    SplitMix::new(args.seed, 1_000).shuffle(&mut order);
    let mut fields = Vec::new();
    let mut ops = Vec::new();
    for f in order {
        let mut mobility = WaypointMobility::new(WaypointConfig {
            seed: f,
            ..WaypointConfig::default()
        });
        let first = mobility.snapshot();
        let pairs = pairs(&first, f)?;
        let mut walk: Vec<Epoch> = Vec::with_capacity(EPOCHS);
        let mut previous: Option<SinrModel> = None;
        for e in 0..EPOCHS {
            let model = if e == 0 {
                first.clone()
            } else {
                mobility.advance();
                mobility.snapshot()
            };
            let delta = match &previous {
                Some(prev) => Some(update_delta(prev, &model)?),
                None => None,
            };
            let questions = sequential_admission(&model, &pairs, HOPS)
                .map_err(|e| format!("reference solve: {e}"))?;
            let spec = TopologySpec::sinr_for(model.topology());
            let field = fields.len();
            if let (Some(delta), Some(prev)) = (&delta, walk.last()) {
                let mut m = Map::new();
                m.insert("query".into(), Value::String("update".into()));
                m.insert(
                    "topology".into(),
                    Value::String(hash_hex(prev.spec.content_hash())),
                );
                m.insert("delta".into(), delta.clone());
                ops.push(Op {
                    field,
                    epoch: e,
                    kind: Kind::Update,
                    line: (Value::Object(m).to_string() + "\n").into_bytes(),
                });
            }
            let hash = Value::String(hash_hex(spec.content_hash()));
            for (i, q) in questions.iter().enumerate() {
                ops.push(Op {
                    field,
                    epoch: e,
                    kind: Kind::Admit(i),
                    line: (q.request(ops.len(), true, &hash) + "\n").into_bytes(),
                });
            }
            walk.push(Epoch {
                spec,
                delta,
                questions,
            });
            previous = Some(model);
        }
        fields.push(walk);
    }
    Ok(Inputs { fields, ops })
}

/// Starts the server and registers every field's first snapshot.
fn setup(inp: &Inputs) -> Result<(ReactorServer, Lane), String> {
    let server =
        serve_reactor(ReactorServerConfig::default()).map_err(|e| format!("server: {e}"))?;
    let mut lane = Lane::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for field in &inp.fields {
        let reply = lane
            .request(&register_request(&field[0].spec.to_value()))
            .map_err(|e| format!("register: {e}"))?;
        check_topology_hash(&parse_reply(&reply)?, field[0].spec.content_hash())?;
    }
    Ok((server, lane))
}

struct Timed {
    replies: Vec<Option<String>>,
    latencies_ns: Vec<f64>,
    unanswered: usize,
    secs: f64,
    op_spans: Vec<u32>,
}

fn timed(inp: &Inputs, lane: &mut Lane, mut tracer: Option<&mut Tracer>) -> Result<Timed, String> {
    let mut replies = vec![None; inp.ops.len()];
    let mut latencies_ns = Vec::with_capacity(inp.ops.len());
    let mut op_spans = vec![0u32; inp.ops.len()];
    let line = |op: usize| -> &[u8] { &inp.ops[op].line };
    let pass = drive(
        vec![(lane, (0..inp.ops.len()).collect())],
        &line,
        &mut |op, reply, started, finished| {
            latencies_ns.push(finished.duration_since(started).as_nanos() as f64);
            replies[op] = Some(String::from_utf8_lossy(reply).into_owned());
            if let Some(t) = tracer.as_deref_mut() {
                let name = match inp.ops[op].kind {
                    Kind::Update => "op.update",
                    Kind::Admit(_) => "op.admit",
                };
                op_spans[op] = t.record(None, name, t.at(started), t.at(finished));
            }
        },
    )
    .map_err(|e| format!("client: {e}"))?;
    Ok(Timed {
        replies,
        latencies_ns,
        unanswered: pass.unanswered,
        secs: pass.elapsed.as_secs_f64(),
        op_spans,
    })
}

/// Checks every reply; returns the wrong ones' count and, per reply, the
/// parsed value (for counters).
fn check(inp: &Inputs, timed: &Timed) -> (usize, Vec<Option<Value>>) {
    let mut wrong = 0;
    let mut parsed = Vec::with_capacity(inp.ops.len());
    for (op, reply) in inp.ops.iter().zip(&timed.replies) {
        let Some(reply) = reply else {
            parsed.push(None);
            continue;
        };
        let epoch = &inp.fields[op.field][op.epoch];
        let verdict = parse_reply(reply).and_then(|v| {
            match op.kind {
                Kind::Update => check_topology_hash(&v, epoch.spec.content_hash()),
                Kind::Admit(i) => check_answer(&v, &epoch.questions[i], true),
            }
            .map(|()| v)
        });
        match verdict {
            Ok(v) => parsed.push(Some(v)),
            Err(e) => {
                if wrong == 0 {
                    eprintln!("serve_mobile: field {} epoch {}: {e}", op.field, op.epoch);
                }
                wrong += 1;
                parsed.push(None);
            }
        }
    }
    (wrong, parsed)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inp = inputs(args)?;
    let updates = inp
        .ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Update))
        .count();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note(format!(
        "{FIELDS} fields x {} epochs: {} ops ({updates} updates) per pass, 1 connection",
        inp.fields[0].len(),
        inp.ops.len()
    ));
    let mut setups = Vec::new();
    let mut timed_secs = 0.0;
    let mut latencies_ns = Vec::new();
    let mut peak_rss = None;
    let passes = if args.trace {
        1
    } else {
        ((args.seconds as f64 / PASS_SECONDS).round() as usize).max(1)
    };
    for _ in 0..passes {
        let t = Instant::now();
        let (server, mut lane) = setup(&inp)?;
        setups.push(t.elapsed().as_secs_f64());
        let plain = timed(&inp, &mut lane, None)?;
        let end = lane.stats()?;
        drop(lane);
        server.shutdown();
        let (wrong, parsed) = check(&inp, &plain);
        out.attempted += inp.ops.len();
        out.failed += wrong + plain.unanswered;
        out.correct &= wrong == 0;
        let patched: f64 = parsed
            .iter()
            .flatten()
            .map(|v| number(v, &["result", "instances_patched"]))
            .sum();
        out.note(format!(
            "pass: {:.3} s; instance cache {}/{} hits; {updates} updates patched {patched} instances",
            plain.secs,
            number(&end, &["sets_cache_hits"]),
            number(&end, &["sets_cache_hits"]) + number(&end, &["sets_cache_misses"]),
        ));
        timed_secs += plain.secs;
        // One server's lifetime, as a deployment runs it: later passes
        // start more servers in this process.
        peak_rss.get_or_insert_with(peak_rss_mb);
        latencies_ns.extend(plain.latencies_ns);
    }
    let ops_per_s = latencies_ns.len() as f64 / timed_secs;
    if !args.trace {
        let rss = peak_rss.unwrap_or_else(peak_rss_mb);
        out.end_to_end(median(&setups), ops_per_s, &latencies_ns, rss);
        return Ok(out);
    }

    // Traced pass: the same op sequence on a fresh server.
    let (server, mut lane) = setup(&inp)?;
    let mut tracer = Tracer::new();
    let before = lane.stats()?;
    let traced = timed(&inp, &mut lane, Some(&mut tracer))?;
    let after = lane.stats()?;
    drop(lane);
    server.shutdown();
    let (wrong, parsed) = check(&inp, &traced);
    out.attempted += inp.ops.len();
    out.failed += wrong + traced.unanswered;
    out.correct &= wrong == 0;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "trace.overhead_ratio",
        (traced.latencies_ns.len() as f64 / traced.secs) / ops_per_s,
    );
    let delta = |path: &[&str]| number(&after, path) - number(&before, path);
    let (hits, misses) = (delta(&["sets_cache_hits"]), delta(&["sets_cache_misses"]));
    m.insert("service.instance_lookups", hits + misses);
    m.insert(
        "service.instance_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    m.insert(
        "service.compile_stage_mean_us",
        number(&after, &["enumeration_latency", "mean_us"]),
    );
    m.insert(
        "service.lp_stage_mean_us",
        number(&after, &["lp_latency", "mean_us"]),
    );
    m.insert("core.compiles", misses);
    let sum = |key: &[&str]| -> f64 {
        inp.ops
            .iter()
            .zip(&parsed)
            .filter(|(o, _)| matches!(o.kind, Kind::Update))
            .filter_map(|(_, v)| v.as_ref())
            .map(|v| number(v, key))
            .sum()
    };
    let patched = sum(&["result", "instances_patched"]);
    let reused = sum(&["result", "reuse", "units_reused"]);
    let units = reused
        + sum(&["result", "reuse", "unit_cache_hits"])
        + sum(&["result", "reuse", "units_compiled"]);
    m.insert("service.updates", updates as f64);
    m.insert("service.instances_patched", patched);
    m.insert(
        "service.instances_patched_per_update",
        patched / (updates as f64).max(1.0),
    );
    m.insert("service.instance_hits_per_patch", hits / patched.max(1.0));
    m.insert("core.delta_units", units);
    m.insert("core.delta_units_reused_ratio", reused / units.max(1.0));
    m.insert(
        "core.delta_full_recompiles",
        sum(&["result", "reuse", "full_recompiles"]),
    );

    // Layer replays on the same inputs, as children of the op that caused
    // them, outside the timed window.
    let options = engine_options();
    let mut columns = Vec::new();
    let mut pivots = Vec::new();
    let mut built: Option<((usize, usize), BuiltModel)> = None;
    for (at, (op, reply)) in inp.ops.iter().zip(&parsed).enumerate() {
        let parent = Some(traced.op_spans[at]);
        let field = &inp.fields[op.field];
        let epoch = &field[op.epoch];
        if built.as_ref().map(|(key, _)| *key) != Some((op.field, op.epoch)) {
            // The server builds each epoch's model once: inside the update
            // that leads into it, or on registration for the first epoch.
            let cause = if matches!(op.kind, Kind::Update) {
                parent
            } else {
                None
            };
            let model = tracer
                .time(cause, "TopologySpec::build", || epoch.spec.build())
                .map_err(|e| format!("replayed build: {e}"))?;
            built = Some(((op.field, op.epoch), model));
        }
        let model: &(dyn LinkRateModel + Send + Sync) =
            &*built.as_ref().expect("built above").1.model;
        match op.kind {
            Kind::Update => {
                let delta = epoch.delta.as_ref().expect("later epochs carry a delta");
                let wire = DeltaSpec::from_value(delta).map_err(|e| format!("delta: {e}"))?;
                let prev = &field[op.epoch - 1].spec;
                tracer
                    .time(parent, "TopologySpec::apply_delta", || {
                        prev.apply_delta(&wire)
                    })
                    .map_err(|e| format!("replayed apply_delta: {e}"))?;
            }
            Kind::Admit(i) => {
                let q = &epoch.questions[i];
                let background = q.background_flows();
                let universe = link_universe(&background, &q.flow.path);
                let missed = reply
                    .as_ref()
                    .and_then(|v| v.get("cache"))
                    .and_then(Value::as_str)
                    == Some("miss");
                let compile = || CompiledInstance::compile(&model, &universe, &options);
                let instance = if missed {
                    tracer.time(parent, "CompiledInstance::compile", compile)
                } else {
                    compile()
                }
                .map_err(|e| format!("replayed compile: {e}"))?;
                if missed {
                    columns.push(instance.num_columns() as f64);
                }
                let answer = tracer
                    .time(parent, "CompiledInstance::query", || {
                        instance.query(&model, &background, &q.flow.path)
                    })
                    .map_err(|e| format!("replayed query: {e}"))?;
                pivots.push(answer.lp_pivots() as f64);
            }
        }
    }
    let ms = |name: &str| {
        let d = tracer.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e6
        }
    };
    m.insert("service.update_rtt_ms_p50", ms("op.update"));
    m.insert("service.admit_rtt_ms_p50", ms("op.admit"));
    m.insert(
        "service.spec_apply_delta_us_p50",
        ms("TopologySpec::apply_delta") * 1e3,
    );
    m.insert("net.model_build_ms_p50", ms("TopologySpec::build"));
    let compiles = tracer.durations_ns("CompiledInstance::compile");
    m.insert("core.compile_ms_p50", ms("CompiledInstance::compile"));
    m.insert("core.compile_ms_total", compiles.iter().sum::<f64>() / 1e6);
    m.insert("core.query_ms_p50", ms("CompiledInstance::query"));
    if !columns.is_empty() {
        m.insert(
            "sets.pool_columns_mean",
            columns.iter().sum::<f64>() / columns.len() as f64,
        );
    }
    m.insert("lp.queries", pivots.len() as f64);
    m.insert(
        "lp.pivots_per_query",
        pivots.iter().sum::<f64>() / pivots.len().max(1) as f64,
    );
    tracer.report(&mut out, "serve_mobile", args.seed)?;
    out.per_layer(&m);
    Ok(out)
}

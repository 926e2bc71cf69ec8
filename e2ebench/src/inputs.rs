//! Client-side inputs: §5.2 fields, e2eTD routes, request lines, the
//! reference answers they must produce, and the snapshot-to-`update`
//! delta translation.

use awb_core::{available_bandwidth, AvailableBandwidthOptions, CoreError, Flow};
use awb_estimate::IdleMap;
use awb_net::{LinkRateModel, NodeId, Path, SinrModel, TopologyDelta};
use awb_routing::{shortest_path, RoutingMetric};
use awb_service::EngineConfig;
use awb_sets::EnumerationOptions;
use serde_json::{Map, Value};

/// The paper's per-flow demand (§5.2), in Mbps.
pub const DEMAND_MBPS: f64 = 2.0;

/// The solve options the engine uses for a request that sets none of its
/// own: the reference answers are computed under exactly these.
pub fn engine_options() -> AvailableBandwidthOptions {
    let c = EngineConfig::default();
    AvailableBandwidthOptions {
        enumeration: EnumerationOptions {
            engine: c.enumeration_engine,
            ..EnumerationOptions::default()
        },
        solver: c.solver,
        decompose: c.decompose,
        pricing: c.pricing,
        stab_alpha: c.stab_alpha,
        pricing_threads: c.pricing_threads,
        column_pool_cap: c.column_pool_cap,
        ..AvailableBandwidthOptions::default()
    }
}

/// The e2eTD route (paper §5.2) from `src` to `dst`; the metric ignores
/// channel idleness, so no background schedule is needed.
pub fn route(model: &SinrModel, src: NodeId, dst: NodeId) -> Option<Path> {
    let idle = IdleMap::from_ratios(vec![1.0; model.topology().num_nodes()]);
    shortest_path(model, &idle, RoutingMetric::E2eTransmissionDelay, src, dst)
}

/// A routed flow: its path, and the link indices the wire carries.
#[derive(Debug, Clone)]
pub struct WireFlow {
    /// Link indices, in path order.
    pub links: Vec<usize>,
    /// The path itself, for the client-side reference solve.
    pub path: Path,
}

impl WireFlow {
    /// Wraps a routed path.
    pub fn new(path: Path) -> WireFlow {
        WireFlow {
            links: path.links().iter().map(|l| l.index()).collect(),
            path,
        }
    }

    fn to_value(&self) -> Value {
        Value::Array(
            self.links
                .iter()
                .map(|&l| Value::Number(l as f64))
                .collect(),
        )
    }
}

/// One Eq. 6 question: a new path against admitted background flows, all
/// at [`DEMAND_MBPS`], with its reference answer.
#[derive(Debug, Clone)]
pub struct Question {
    /// Already-admitted flows.
    pub background: Vec<WireFlow>,
    /// The arriving flow.
    pub flow: WireFlow,
    /// `awb_core::available_bandwidth` on the client's own model.
    pub expected_mbps: f64,
}

impl Question {
    /// Solves the reference answer on the client's model.
    ///
    /// # Errors
    ///
    /// A solver failure (never expected for admitted-only backgrounds).
    pub fn solve<M: LinkRateModel>(
        model: &M,
        background: Vec<WireFlow>,
        flow: WireFlow,
    ) -> Result<Question, CoreError> {
        let flows = background
            .iter()
            .map(|f| Flow::new(f.path.clone(), DEMAND_MBPS))
            .collect::<Result<Vec<_>, _>>()?;
        let out = available_bandwidth(model, &flows, &flow.path, &engine_options())?;
        Ok(Question {
            background,
            flow,
            expected_mbps: out.bandwidth_mbps(),
        })
    }

    /// Whether the service must admit the flow (the engine's tolerance).
    pub fn admitted(&self) -> bool {
        self.expected_mbps + 1e-9 >= DEMAND_MBPS
    }

    /// Background flows as core [`Flow`]s.
    pub fn background_flows(&self) -> Vec<Flow> {
        self.background
            .iter()
            .map(|f| Flow::new(f.path.clone(), DEMAND_MBPS).expect("demand is valid"))
            .collect()
    }

    /// The request line (`admit` when `admit`, else `available_bandwidth`)
    /// naming the topology by `topology` (a hash string or an inline spec).
    pub fn request(&self, id: usize, admit: bool, topology: &Value) -> String {
        let mut m = Map::new();
        m.insert("id".into(), Value::Number(id as f64));
        let query = if admit {
            "admit"
        } else {
            "available_bandwidth"
        };
        m.insert("query".into(), Value::String(query.into()));
        m.insert("topology".into(), topology.clone());
        m.insert("path".into(), self.flow.to_value());
        if admit {
            m.insert("demand_mbps".into(), Value::Number(DEMAND_MBPS));
        }
        if !self.background.is_empty() {
            let bg = self
                .background
                .iter()
                .map(|f| {
                    let mut b = Map::new();
                    b.insert("path".into(), f.to_value());
                    b.insert("demand_mbps".into(), Value::Number(DEMAND_MBPS));
                    Value::Object(b)
                })
                .collect();
            m.insert("background".into(), Value::Array(bg));
        }
        Value::Object(m).to_string()
    }
}

/// The paper's sequential admission on one snapshot: each pair is routed
/// by e2eTD and asked against the flows admitted before it. Pairs without
/// a route, or whose route has a hop count outside `hops`, are skipped.
///
/// # Errors
///
/// A reference-solver failure.
pub fn sequential_admission(
    model: &SinrModel,
    pairs: &[(NodeId, NodeId)],
    hops: std::ops::RangeInclusive<usize>,
) -> Result<Vec<Question>, CoreError> {
    let mut admitted: Vec<WireFlow> = Vec::new();
    let mut out = Vec::with_capacity(pairs.len());
    for &(src, dst) in pairs {
        let Some(path) = route(model, src, dst).filter(|p| hops.contains(&p.len())) else {
            continue;
        };
        let q = Question::solve(model, admitted.clone(), WireFlow::new(path))?;
        if q.admitted() {
            admitted.push(q.flow.clone());
        }
        out.push(q);
    }
    Ok(out)
}

/// The `delta` object of an `update` that turns `old` into `new`: moved
/// nodes with their new coordinates and newly in-range links in id order.
/// Rates are left out (under SINR they follow from geometry).
///
/// # Errors
///
/// A change the wire delta cannot carry (joined, left or removed ids);
/// waypoint traces never produce one.
pub fn update_delta(old: &SinrModel, new: &SinrModel) -> Result<Value, String> {
    let d = TopologyDelta::between(old, new);
    if !(d.joined_nodes.is_empty() && d.left_nodes.is_empty() && d.removed_links.is_empty()) {
        return Err(format!("delta not expressible as an update: {d:?}"));
    }
    let t = new.topology();
    let moved: Vec<Value> = d
        .moved_nodes
        .iter()
        .map(|&n| {
            let p = t.node(n).expect("moved node exists").position();
            Value::Array(vec![
                Value::Number(n.index() as f64),
                Value::Number(p.x),
                Value::Number(p.y),
            ])
        })
        .collect();
    let added: Vec<Value> = d
        .added_links
        .iter()
        .map(|&l| {
            let link = t.link(l).expect("added link exists");
            Value::Array(vec![
                Value::Number(link.tx().index() as f64),
                Value::Number(link.rx().index() as f64),
            ])
        })
        .collect();
    let mut m = Map::new();
    m.insert("moved_nodes".into(), Value::Array(moved));
    m.insert("added_links".into(), Value::Array(added));
    Ok(Value::Object(m))
}

/// The `register_topology` request for an inline spec.
pub fn register_request(spec: &Value) -> String {
    let mut m = Map::new();
    m.insert("query".into(), Value::String("register_topology".into()));
    m.insert("topology".into(), spec.clone());
    Value::Object(m).to_string()
}

/// A topology hash as the wire writes it.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_service::spec::DeltaSpec;
    use awb_service::TopologySpec;
    use awb_workloads::{WaypointConfig, WaypointMobility};

    #[test]
    fn update_delta_reproduces_the_snapshot_hash() {
        let mut mobility = WaypointMobility::new(WaypointConfig {
            seed: 3,
            ..WaypointConfig::default()
        });
        let mut old = mobility.snapshot();
        let mut spec = TopologySpec::sinr_for(old.topology());
        let mut grew = false;
        for _ in 0..12 {
            mobility.advance();
            let new = mobility.snapshot();
            let delta = update_delta(&old, &new).unwrap();
            // Through the wire form, exactly as the server receives it.
            let wire: Value = serde_json::from_str(&delta.to_string()).unwrap();
            let (patched, _) = spec
                .apply_delta(&DeltaSpec::from_value(&wire).unwrap())
                .unwrap();
            let want = TopologySpec::sinr_for(new.topology());
            assert_eq!(patched.content_hash(), want.content_hash());
            grew |= new.topology().num_links() > old.topology().num_links();
            spec = patched;
            old = new;
        }
        assert!(grew, "the trace should bring new links into range");
    }
}

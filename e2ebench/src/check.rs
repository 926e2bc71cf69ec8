//! Answer checks. They compare answer fields only — never `elapsed_us`,
//! `cache` or counters — against references computed outside the timed
//! window, so they cannot flake.

use crate::inputs::{hash_hex, Question};
use awb_core::Flow;
use awb_net::{LinkId, LinkRateModel, Path};
use awb_sets::RatedSet;
use serde_json::Value;

/// Parses one reply line.
///
/// # Errors
///
/// The line is not JSON.
pub fn parse_reply(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))
}

/// The number at `path` inside `value` (0 when absent): for counters.
pub fn number(value: &Value, path: &[&str]) -> f64 {
    path.iter()
        .fold(value, |v, key| &v[*key])
        .as_f64()
        .unwrap_or(0.0)
}

fn ok_result(reply: &Value) -> Result<&Value, String> {
    match reply.get("status").and_then(Value::as_str) {
        Some("ok") => reply
            .get("result")
            .ok_or_else(|| format!("ok reply without a result: {reply}")),
        _ => Err(format!("not ok: {reply}")),
    }
}

fn same_bits(reply: &Value, field: &str, want: f64) -> Result<(), String> {
    let got = reply.get(field).and_then(Value::as_f64);
    match got {
        Some(got) if got.to_bits() == want.to_bits() => Ok(()),
        _ => Err(format!("`{field}` is {got:?}, the reference is {want:?}")),
    }
}

/// Checks an `admit` (`admit = true`) or `available_bandwidth` reply
/// against the question's reference answer, bit for bit.
///
/// # Errors
///
/// What differs.
pub fn check_answer(reply: &Value, q: &Question, admit: bool) -> Result<(), String> {
    let result = ok_result(reply)?;
    if admit {
        same_bits(result, "available_mbps", q.expected_mbps)?;
        let admitted = result.get("admitted").and_then(Value::as_bool);
        if admitted != Some(q.admitted()) {
            return Err(format!(
                "`admitted` is {admitted:?}, the reference says {}",
                q.admitted()
            ));
        }
        Ok(())
    } else {
        same_bits(result, "bandwidth_mbps", q.expected_mbps)
    }
}

/// Checks a `register_topology` or `update` reply names the content hash
/// of the client's own spec.
///
/// # Errors
///
/// What differs.
pub fn check_topology_hash(reply: &Value, want: u64) -> Result<(), String> {
    let got = ok_result(reply)?
        .get("topology_hash")
        .and_then(Value::as_str);
    if got == Some(hash_hex(want).as_str()) {
        Ok(())
    } else {
        Err(format!(
            "topology_hash {got:?}, the client's spec hashes to {}",
            hash_hex(want)
        ))
    }
}

/// Checks a column-generation plan against the model alone: every set is
/// admissible at its rates, shares are non-negative and sum to at most 1,
/// every background and path link gets its demand (plus `f` on the path)
/// within 1e-6, and `f` is within 1e-9 (relative) of the recorded optimum.
///
/// # Errors
///
/// The first violated condition.
pub fn check_plan<M: LinkRateModel>(
    model: &M,
    background: &[Flow],
    path: &Path,
    f: f64,
    schedule: &[(RatedSet, f64)],
    recorded: f64,
) -> Result<(), String> {
    // A NaN on either side leaves `close` false.
    let close = (f - recorded).abs() <= 1e-9 * recorded.abs();
    if !close {
        return Err(format!("optimum {f:?}, recorded {recorded:?}"));
    }
    let mut total = 0.0;
    for (set, share) in schedule {
        if !(share.is_finite() && *share >= 0.0) {
            return Err(format!("share {share} of {set:?}"));
        }
        if !set.is_empty() && !model.admissible(set.couples()) {
            return Err(format!("inadmissible set {set:?}"));
        }
        total += share;
    }
    if total > 1.0 + 1e-9 {
        return Err(format!("shares sum to {total}"));
    }
    let mut demand: Vec<(LinkId, f64)> = Vec::new();
    let mut add = |link: LinkId, mbps: f64| match demand.iter_mut().find(|(l, _)| *l == link) {
        Some(row) => row.1 += mbps,
        None => demand.push((link, mbps)),
    };
    for flow in background {
        for &l in flow.path().links() {
            add(l, flow.demand_mbps());
        }
    }
    for &l in path.links() {
        add(l, f);
    }
    for (link, want) in demand {
        let got: f64 = schedule
            .iter()
            .filter_map(|(set, share)| set.rate_of(link).map(|r| r.as_mbps() * share))
            .sum();
        if got < want - 1e-6 {
            return Err(format!("link {link} gets {got} Mbps of {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WireFlow;
    use awb_bench::topo::random_rate_coupled;
    use awb_core::{AvailableBandwidthOptions, CompiledInstance, SolverKind};
    use awb_net::{DeclarativeModel, Path};
    use awb_net::{NodeId, Topology};
    use awb_service::server::handle_line;
    use awb_service::{Engine, EngineConfig};
    use awb_workloads::{RandomTopology, RandomTopologyConfig};

    #[test]
    fn a_flipped_low_bit_in_available_mbps_is_rejected() {
        let model = RandomTopology::generate(RandomTopologyConfig::default()).into_model();
        let spec = awb_service::TopologySpec::sinr_for(model.topology());
        let pairs = awb_workloads::connected_pairs(&model, 2, 2..=4, 1);
        let path = crate::inputs::route(&model, pairs[0].0, pairs[0].1).unwrap();
        let q = Question::solve(&model, Vec::new(), WireFlow::new(path)).unwrap();
        let engine = Engine::new(EngineConfig::default());
        let line = q.request(1, true, &spec.to_value());
        let mut reply: Value = serde_json::from_str(&handle_line(&engine, &line)).unwrap();
        check_answer(&reply, &q, true).unwrap();
        if let Value::Object(m) = &mut reply {
            let Some(Value::Object(result)) = m.get_mut("result") else {
                panic!()
            };
            let bits = result["available_mbps"].as_f64().unwrap().to_bits();
            result.insert(
                "available_mbps".into(),
                Value::Number(f64::from_bits(bits ^ 1)),
            );
        }
        assert!(check_answer(&reply, &q, true).is_err());
    }

    #[test]
    fn a_share_scaled_by_one_percent_is_rejected() {
        let (model, links) = random_rate_coupled(12, 7);
        let path = Path::new(model.topology(), vec![links[0]]).unwrap();
        let background: Vec<Flow> = links[1..]
            .iter()
            .map(|&l| Flow::new(Path::new(model.topology(), vec![l]).unwrap(), 1.5).unwrap())
            .collect();
        let options = AvailableBandwidthOptions {
            solver: SolverKind::ColumnGeneration,
            ..AvailableBandwidthOptions::default()
        };
        let instance = CompiledInstance::compile(&model, &links, &options).unwrap();
        let out = instance
            .query_colgen(&model, &background, &path)
            .unwrap()
            .result;
        let f = out.bandwidth_mbps();
        let mut entries = out.schedule().entries().to_vec();
        check_plan(&model, &background, &path, f, &entries, f).unwrap();
        let largest = (0..entries.len())
            .max_by(|&a, &b| entries[a].1.total_cmp(&entries[b].1))
            .unwrap();
        entries[largest].1 *= 1.01;
        assert!(check_plan(&model, &background, &path, f, &entries, f).is_err());
        // And a wrong optimum is caught even with an honest schedule.
        let honest = out.schedule().entries();
        assert!(check_plan(&model, &background, &path, f, honest, f * (1.0 + 1e-8)).is_err());
    }

    #[test]
    fn an_inadmissible_set_is_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(1.0, 0.0);
        let c: NodeId = t.add_node(2.0, 0.0);
        let l0 = t.add_link(a, b).unwrap();
        let l1 = t.add_link(b, c).unwrap();
        let r = awb_phy::Rate::from_mbps(54.0);
        let model = DeclarativeModel::builder(t)
            .alone_rates(l0, &[r])
            .alone_rates(l1, &[r])
            .conflict_all(l0, l1)
            .build();
        let path = Path::new(model.topology(), vec![l0]).unwrap();
        let both = RatedSet::new(vec![(l0, r), (l1, r)]);
        assert!(check_plan(&model, &[], &path, 27.0, &[(both, 0.5)], 27.0).is_err());
    }
}

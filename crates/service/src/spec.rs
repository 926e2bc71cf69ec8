//! Topology specifications: the JSON description of a network a client
//! sends, its canonical content hash, and model construction.

use awb_net::{
    DeclarativeModel, LinkId, LinkRateModel, NodeId, Path, SinrModel, Topology, TopologyDelta,
};
use awb_phy::{Phy, Rate};
use serde_json::{Map, Value};
use std::sync::Arc;

/// A model built from a [`TopologySpec`], ready to serve queries.
pub struct BuiltModel {
    /// The interference model (shared, thread-safe).
    pub model: Arc<dyn LinkRateModel + Send + Sync>,
    /// Content hash of the canonical spec — the topology part of every
    /// cache key.
    pub content_hash: u64,
}

/// A client-supplied network description.
///
/// ```json
/// {
///   "model": "declarative" | "sinr",
///   "nodes": [[x, y], ...],
///   "links": [[tx, rx], ...],
///   "alone_rates": [[mbps, ...], ...],        // declarative, per link
///   "conflicts": [[i, j], ...],               // declarative, all-rate
///   "rate_conflicts": [[i, ri, j, rj], ...],  // declarative, rate-specific
///   "hears": [[node, link], ...]              // declarative, carrier sense
/// }
/// ```
///
/// `sinr` ignores the declarative fields and derives rates and interference
/// from node geometry with the paper's radio model
/// ([`Phy::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    model: ModelKind,
    nodes: Vec<(f64, f64)>,
    links: Vec<(usize, usize)>,
    alone_rates: Vec<Vec<f64>>,
    conflicts: Vec<(usize, usize)>,
    rate_conflicts: Vec<(usize, f64, usize, f64)>,
    hears: Vec<(usize, usize)>,
    /// Precomputed at construction — every request needs it (it keys all
    /// caches), and canonicalizing on each lookup would dominate the warm
    /// path.
    content_hash: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    Declarative,
    Sinr,
}

/// A malformed or inconsistent topology spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

fn parse_pairs<A, B>(value: &Value, field: &str, what: &str) -> Result<Vec<(A, B)>, SpecError>
where
    A: TryFromValue,
    B: TryFromValue,
{
    match value.get(field) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                let pair = item
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| err(format!("`{field}` entries must be {what} pairs")))?;
                Ok((
                    A::try_from_value(&pair[0])
                        .ok_or_else(|| err(format!("bad first element in `{field}`")))?,
                    B::try_from_value(&pair[1])
                        .ok_or_else(|| err(format!("bad second element in `{field}`")))?,
                ))
            })
            .collect(),
        Some(_) => Err(err(format!("`{field}` must be an array"))),
    }
}

/// Narrow JSON extraction used by the spec parser.
trait TryFromValue: Sized {
    fn try_from_value(v: &Value) -> Option<Self>;
}

impl TryFromValue for f64 {
    fn try_from_value(v: &Value) -> Option<f64> {
        v.as_f64().filter(|n| n.is_finite())
    }
}

impl TryFromValue for usize {
    fn try_from_value(v: &Value) -> Option<usize> {
        v.as_u64().map(|n| n as usize)
    }
}

impl TopologySpec {
    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on missing/malformed fields or indices out of range.
    pub fn from_value(value: &Value) -> Result<TopologySpec, SpecError> {
        let model = match value.get("model").and_then(Value::as_str) {
            None | Some("declarative") => ModelKind::Declarative,
            Some("sinr") => ModelKind::Sinr,
            Some(other) => return Err(err(format!("unknown model `{other}`"))),
        };
        let nodes: Vec<(f64, f64)> = parse_pairs(value, "nodes", "[x, y]")?;
        if nodes.len() < 2 {
            return Err(err("`nodes` must list at least two [x, y] positions"));
        }
        let links: Vec<(usize, usize)> = parse_pairs(value, "links", "[tx, rx]")?;
        if links.is_empty() {
            return Err(err("`links` must list at least one [tx, rx] pair"));
        }
        for &(tx, rx) in &links {
            if tx >= nodes.len() || rx >= nodes.len() {
                return Err(err(format!("link [{tx}, {rx}] references a missing node")));
            }
            if tx == rx {
                return Err(err(format!("link [{tx}, {rx}] is a self-loop")));
            }
        }
        let alone_rates = match value.get("alone_rates") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Array(items)) => {
                if items.len() != links.len() {
                    return Err(err(format!(
                        "`alone_rates` has {} entries for {} links",
                        items.len(),
                        links.len()
                    )));
                }
                items
                    .iter()
                    .map(|item| {
                        item.as_array()
                            .ok_or_else(|| err("`alone_rates` entries must be arrays"))?
                            .iter()
                            .map(|r| {
                                r.as_f64()
                                    .filter(|m| m.is_finite() && *m > 0.0)
                                    .ok_or_else(|| err("rates must be positive Mbps numbers"))
                            })
                            .collect()
                    })
                    .collect::<Result<_, _>>()?
            }
            Some(_) => return Err(err("`alone_rates` must be an array")),
        };
        let conflicts: Vec<(usize, usize)> = parse_pairs(value, "conflicts", "[i, j]")?;
        for &(i, j) in &conflicts {
            if i >= links.len() || j >= links.len() {
                return Err(err(format!(
                    "conflict [{i}, {j}] references a missing link"
                )));
            }
        }
        let rate_conflicts = match value.get("rate_conflicts") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(|item| {
                    let q = item
                        .as_array()
                        .filter(|a| a.len() == 4)
                        .ok_or_else(|| err("`rate_conflicts` entries must be [i, ri, j, rj]"))?;
                    let i = q[0]
                        .as_u64()
                        .ok_or_else(|| err("bad link index in `rate_conflicts`"))?
                        as usize;
                    let j = q[2]
                        .as_u64()
                        .ok_or_else(|| err("bad link index in `rate_conflicts`"))?
                        as usize;
                    let ri = q[1]
                        .as_f64()
                        .filter(|m| m.is_finite() && *m > 0.0)
                        .ok_or_else(|| err("bad rate in `rate_conflicts`"))?;
                    let rj = q[3]
                        .as_f64()
                        .filter(|m| m.is_finite() && *m > 0.0)
                        .ok_or_else(|| err("bad rate in `rate_conflicts`"))?;
                    if i >= links.len() || j >= links.len() {
                        return Err(err("`rate_conflicts` references a missing link"));
                    }
                    Ok((i, ri, j, rj))
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(err("`rate_conflicts` must be an array")),
        };
        let hears: Vec<(usize, usize)> = parse_pairs(value, "hears", "[node, link]")?;
        for &(n, l) in &hears {
            if n >= nodes.len() || l >= links.len() {
                return Err(err(format!("hears [{n}, {l}] references a missing entity")));
            }
        }
        let mut spec = TopologySpec {
            model,
            nodes,
            links,
            alone_rates,
            conflicts,
            rate_conflicts,
            hears,
            content_hash: 0,
        };
        spec.content_hash = fnv1a(spec.canonical_json().as_bytes());
        Ok(spec)
    }

    /// A spec describing `topology` under the paper's SINR radio model —
    /// the round-trip inverse of [`TopologySpec::build`] for geometric
    /// models. Node and link ids are preserved (insertion order).
    pub fn sinr_for(topology: &Topology) -> TopologySpec {
        let mut spec = TopologySpec {
            model: ModelKind::Sinr,
            nodes: topology
                .nodes()
                .map(|n| (n.position().x, n.position().y))
                .collect(),
            links: topology
                .links()
                .map(|l| (l.tx().index(), l.rx().index()))
                .collect(),
            alone_rates: Vec::new(),
            conflicts: Vec::new(),
            rate_conflicts: Vec::new(),
            hears: Vec::new(),
            content_hash: 0,
        };
        spec.content_hash = fnv1a(spec.canonical_json().as_bytes());
        spec
    }

    /// The spec as JSON (sorted keys; empty declarative fields omitted).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "model".into(),
            Value::String(
                match self.model {
                    ModelKind::Declarative => "declarative",
                    ModelKind::Sinr => "sinr",
                }
                .into(),
            ),
        );
        m.insert(
            "nodes".into(),
            Value::Array(
                self.nodes
                    .iter()
                    .map(|&(x, y)| Value::Array(vec![Value::Number(x), Value::Number(y)]))
                    .collect(),
            ),
        );
        m.insert(
            "links".into(),
            Value::Array(
                self.links
                    .iter()
                    .map(|&(tx, rx)| {
                        Value::Array(vec![Value::Number(tx as f64), Value::Number(rx as f64)])
                    })
                    .collect(),
            ),
        );
        if !self.alone_rates.is_empty() {
            m.insert(
                "alone_rates".into(),
                Value::Array(
                    self.alone_rates
                        .iter()
                        .map(|rs| Value::Array(rs.iter().map(|&r| Value::Number(r)).collect()))
                        .collect(),
                ),
            );
        }
        if !self.conflicts.is_empty() {
            m.insert(
                "conflicts".into(),
                Value::Array(
                    self.conflicts
                        .iter()
                        .map(|&(i, j)| {
                            Value::Array(vec![Value::Number(i as f64), Value::Number(j as f64)])
                        })
                        .collect(),
                ),
            );
        }
        if !self.rate_conflicts.is_empty() {
            m.insert(
                "rate_conflicts".into(),
                Value::Array(
                    self.rate_conflicts
                        .iter()
                        .map(|&(i, ri, j, rj)| {
                            Value::Array(vec![
                                Value::Number(i as f64),
                                Value::Number(ri),
                                Value::Number(j as f64),
                                Value::Number(rj),
                            ])
                        })
                        .collect(),
                ),
            );
        }
        if !self.hears.is_empty() {
            m.insert(
                "hears".into(),
                Value::Array(
                    self.hears
                        .iter()
                        .map(|&(n, l)| {
                            Value::Array(vec![Value::Number(n as f64), Value::Number(l as f64)])
                        })
                        .collect(),
                ),
            );
        }
        Value::Object(m)
    }

    /// Canonical rendering: compact JSON with sorted object keys. Two specs
    /// describing the same network byte-for-byte canonicalize identically,
    /// regardless of the key order or whitespace the client sent.
    pub fn canonical_json(&self) -> String {
        self.to_value().to_string()
    }

    /// FNV-1a hash of [`TopologySpec::canonical_json`], precomputed at
    /// construction — the topology part of every cache key.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Number of links in the spec.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Builds the interference model.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when link construction fails (duplicate links).
    pub fn build(&self) -> Result<BuiltModel, SpecError> {
        let mut t = Topology::new();
        for &(x, y) in &self.nodes {
            t.add_node(x, y);
        }
        let mut links = Vec::with_capacity(self.links.len());
        let node_ids: Vec<_> = t.nodes().map(|n| n.id()).collect();
        for &(tx, rx) in &self.links {
            links.push(
                t.add_link(node_ids[tx], node_ids[rx])
                    .map_err(|e| err(format!("link [{tx}, {rx}]: {e}")))?,
            );
        }
        let model: Arc<dyn LinkRateModel + Send + Sync> = match self.model {
            ModelKind::Sinr => Arc::new(SinrModel::new(t, Phy::paper_default())),
            ModelKind::Declarative => {
                let all_nodes = node_ids.clone();
                let mut b = DeclarativeModel::builder(t);
                for (li, rates) in self.alone_rates.iter().enumerate() {
                    let rates: Vec<Rate> = rates.iter().map(|&m| Rate::from_mbps(m)).collect();
                    b = b.alone_rates(links[li], &rates);
                }
                for &(i, j) in &self.conflicts {
                    b = b.conflict_all(links[i], links[j]);
                }
                for &(i, ri, j, rj) in &self.rate_conflicts {
                    b = b.conflict_at(links[i], Rate::from_mbps(ri), links[j], Rate::from_mbps(rj));
                }
                for &(n, l) in &self.hears {
                    b = b.hears(all_nodes[n], links[l]);
                }
                Arc::new(b.build())
            }
        };
        Ok(BuiltModel {
            model,
            content_hash: self.content_hash(),
        })
    }

    /// Patches the spec with `delta`, preserving every existing node and
    /// link index (the stable-id scheme incremental recompilation relies
    /// on): moves rewrite positions in place, joins and link additions
    /// append, rate changes rewrite one link's rate list. Returns the
    /// patched spec plus the equivalent core [`TopologyDelta`], which is
    /// what `CompiledInstance::apply_delta` consumes.
    ///
    /// Link *removal* is deliberately unsupported — removing an entry
    /// would renumber every later link and invalidate all compiled state.
    /// Express a dead link as a rate change to an empty list (declarative)
    /// or by moving its endpoints out of range (SINR), exactly as the
    /// mobility generator does.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on out-of-range indices, rate edits against a SINR
    /// spec (rates there derive from geometry), or duplicate added links.
    pub fn apply_delta(
        &self,
        delta: &DeltaSpec,
    ) -> Result<(TopologySpec, TopologyDelta), SpecError> {
        let mut spec = self.clone();
        let mut core = TopologyDelta::default();
        for &(node, x, y) in &delta.moved_nodes {
            let slot = spec
                .nodes
                .get_mut(node)
                .ok_or_else(|| err(format!("moved node {node} out of range")))?;
            if *slot != (x, y) {
                *slot = (x, y);
                core.moved_nodes.push(NodeId::from_index(node));
            }
        }
        for &(x, y) in &delta.joined_nodes {
            core.joined_nodes.push(NodeId::from_index(spec.nodes.len()));
            spec.nodes.push((x, y));
        }
        for (link, rates) in &delta.rate_changed_links {
            if spec.model != ModelKind::Declarative {
                return Err(err("rate_changed_links only applies to declarative specs \
                     (SINR rates derive from geometry; move the nodes instead)"));
            }
            if *link >= spec.links.len() {
                return Err(err(format!("rate-changed link {link} out of range")));
            }
            if spec.alone_rates.is_empty() {
                spec.alone_rates = vec![Vec::new(); spec.links.len()];
            }
            if spec.alone_rates[*link] != *rates {
                spec.alone_rates[*link] = rates.clone();
                core.rate_changed_links.push(LinkId::from_index(*link));
            }
        }
        for &(tx, rx) in &delta.added_links {
            if tx >= spec.nodes.len() || rx >= spec.nodes.len() {
                return Err(err(format!(
                    "added link [{tx}, {rx}] references a missing node"
                )));
            }
            if tx == rx {
                return Err(err(format!("added link [{tx}, {rx}] is a self-loop")));
            }
            if spec.links.contains(&(tx, rx)) {
                return Err(err(format!("added link [{tx}, {rx}] already exists")));
            }
            core.added_links.push(LinkId::from_index(spec.links.len()));
            spec.links.push((tx, rx));
            if !spec.alone_rates.is_empty() {
                // New declarative links start dead until a rate change
                // brings them alive — index-stable, like the mobility
                // generator's ever-seen link table.
                spec.alone_rates.push(Vec::new());
            }
        }
        core.normalize();
        spec.content_hash = fnv1a(spec.canonical_json().as_bytes());
        Ok((spec, core))
    }

    /// Validates a link-index path against the built model's topology.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when an index is out of range or the links do not chain.
    pub fn parse_path(topology: &Topology, links: &[usize]) -> Result<Path, SpecError> {
        let num = topology.num_links();
        let ids = links
            .iter()
            .map(|&l| {
                if l < num {
                    Ok(awb_net::LinkId::from_index(l))
                } else {
                    Err(err(format!("path link {l} out of range (have {num})")))
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Path::new(topology, ids).map_err(|e| err(format!("invalid path: {e}")))
    }
}

/// A client-supplied topology delta — the `delta` field of an `update`
/// request.
///
/// ```json
/// {
///   "moved_nodes": [[node, x, y], ...],
///   "joined_nodes": [[x, y], ...],
///   "rate_changed_links": [[link, [mbps, ...]], ...],
///   "added_links": [[tx, rx], ...]
/// }
/// ```
///
/// All fields optional; an absent field means "no change of that kind".
/// See [`TopologySpec::apply_delta`] for the semantics (index-preserving,
/// no link removal).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaSpec {
    /// Nodes repositioned to new coordinates.
    pub moved_nodes: Vec<(usize, f64, f64)>,
    /// Nodes appended to the topology.
    pub joined_nodes: Vec<(f64, f64)>,
    /// Links whose alone-rate list is replaced (declarative only; an empty
    /// list kills the link without renumbering anything).
    pub rate_changed_links: Vec<(usize, Vec<f64>)>,
    /// Links appended to the topology.
    pub added_links: Vec<(usize, usize)>,
}

impl DeltaSpec {
    /// Parses a delta from its JSON form.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed entries (range checks against the target
    /// spec happen later, in [`TopologySpec::apply_delta`]).
    pub fn from_value(value: &Value) -> Result<DeltaSpec, SpecError> {
        let obj = value
            .as_object()
            .ok_or_else(|| err("`delta` must be a JSON object"))?;
        let mut delta = DeltaSpec::default();
        if let Some(v) = obj.get("moved_nodes").filter(|v| !v.is_null()) {
            let items = v
                .as_array()
                .ok_or_else(|| err("`moved_nodes` must be an array"))?;
            for item in items {
                let t = item
                    .as_array()
                    .filter(|a| a.len() == 3)
                    .ok_or_else(|| err("`moved_nodes` entries must be [node, x, y]"))?;
                let node = t[0]
                    .as_u64()
                    .ok_or_else(|| err("bad node index in `moved_nodes`"))?
                    as usize;
                let x = t[1].as_f64().filter(|x| x.is_finite());
                let y = t[2].as_f64().filter(|y| y.is_finite());
                match (x, y) {
                    (Some(x), Some(y)) => delta.moved_nodes.push((node, x, y)),
                    _ => return Err(err("bad coordinates in `moved_nodes`")),
                }
            }
        }
        delta.joined_nodes = parse_pairs(value, "joined_nodes", "[x, y]")?;
        if let Some(v) = obj.get("rate_changed_links").filter(|v| !v.is_null()) {
            let items = v
                .as_array()
                .ok_or_else(|| err("`rate_changed_links` must be an array"))?;
            for item in items {
                let t = item.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    err("`rate_changed_links` entries must be [link, [mbps, ...]]")
                })?;
                let link = t[0]
                    .as_u64()
                    .ok_or_else(|| err("bad link index in `rate_changed_links`"))?
                    as usize;
                let rates = t[1]
                    .as_array()
                    .ok_or_else(|| err("`rate_changed_links` rates must be an array"))?
                    .iter()
                    .map(|r| {
                        r.as_f64()
                            .filter(|m| m.is_finite() && *m > 0.0)
                            .ok_or_else(|| err("rates must be positive Mbps numbers"))
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                delta.rate_changed_links.push((link, rates));
            }
        }
        delta.added_links = parse_pairs(value, "added_links", "[tx, rx]")?;
        Ok(delta)
    }

    /// Whether the delta describes no change at all.
    pub fn is_empty(&self) -> bool {
        self.moved_nodes.is_empty()
            && self.joined_nodes.is_empty()
            && self.rate_changed_links.is_empty()
            && self.added_links.is_empty()
    }

    /// A content hash over every field *including* coordinates and rates —
    /// unlike [`TopologyDelta::content_hash`], which only covers ids. This
    /// is the delta half of the update chain key: two updates of the same
    /// base topology coalesce iff they request byte-identical changes.
    pub fn chain_hash(&self) -> u64 {
        let mut h = FnvHasher::default();
        h.write_u64(self.moved_nodes.len() as u64);
        for &(n, x, y) in &self.moved_nodes {
            h.write_u64(n as u64).write_f64(x).write_f64(y);
        }
        h.write_u64(self.joined_nodes.len() as u64);
        for &(x, y) in &self.joined_nodes {
            h.write_f64(x).write_f64(y);
        }
        h.write_u64(self.rate_changed_links.len() as u64);
        for (l, rates) in &self.rate_changed_links {
            h.write_u64(*l as u64).write_u64(rates.len() as u64);
            for &r in rates {
                h.write_f64(r);
            }
        }
        h.write_u64(self.added_links.len() as u64);
        for &(tx, rx) in &self.added_links {
            h.write_u64(tx as u64).write_u64(rx as u64);
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental FNV-1a over heterogeneous words — used to derive cache keys
/// from (hash, universe, options) tuples without string formatting.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FnvHasher {
    /// Feeds one 64-bit word.
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an `f64` by bit pattern (distinguishes `0.0` from `-0.0`,
    /// which is fine for keying: they render differently anyway).
    pub fn write_f64(&mut self, x: f64) -> &mut Self {
        self.write_u64(x.to_bits())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec() -> Value {
        serde_json::from_str(
            r#"{
                "model": "declarative",
                "nodes": [[0,0],[50,0],[100,0]],
                "links": [[0,1],[1,2]],
                "alone_rates": [[54],[54]],
                "conflicts": [[0,1]]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn hash_is_invariant_to_key_order_and_whitespace() {
        let a = TopologySpec::from_value(&chain_spec()).unwrap();
        let reordered: Value = serde_json::from_str(
            r#"{"conflicts":[[0,1]],"alone_rates":[[54],[54]],
                "links":[[0,1],[1,2]],"nodes":[[0,0],[50,0],[100,0]],
                "model":"declarative"}"#,
        )
        .unwrap();
        let b = TopologySpec::from_value(&reordered).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn different_specs_hash_differently() {
        let a = TopologySpec::from_value(&chain_spec()).unwrap();
        let mut other = chain_spec();
        if let Value::Object(m) = &mut other {
            m.insert("conflicts".into(), Value::Array(vec![]));
        }
        let b = TopologySpec::from_value(&other).unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn builds_a_declarative_relay() {
        let spec = TopologySpec::from_value(&chain_spec()).unwrap();
        let built = spec.build().unwrap();
        let t = built.model.topology();
        assert_eq!((t.num_nodes(), t.num_links()), (3, 2));
        let path = TopologySpec::parse_path(t, &[0, 1]).unwrap();
        assert_eq!(path.len(), 2);
        assert!(TopologySpec::parse_path(t, &[7]).is_err());
        assert!(TopologySpec::parse_path(t, &[1, 0]).is_err());
    }

    #[test]
    fn linkless_nodes_add_nothing_to_the_sinr_power_table() {
        // The service caps no spec size; 1,000 nodes with one link still
        // build a one-entry node-pair table, not N² (or L²) entries.
        let nodes: Vec<String> = (0..1_000).map(|i| format!("[{i},0]")).collect();
        let spec: Value = serde_json::from_str(&format!(
            r#"{{"model": "sinr", "nodes": [{}], "links": [[0, 40]]}}"#,
            nodes.join(",")
        ))
        .unwrap();
        let built = TopologySpec::from_value(&spec).unwrap().build().unwrap();
        let table = built.model.additive_capture().expect("SINR is additive");
        assert_eq!(table.power.len(), 1);
        assert_eq!(built.model.topology().num_nodes(), 1_000);
    }

    #[test]
    fn sinr_round_trip_preserves_ids() {
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(40.0, 0.0);
        t.add_link(a, b).unwrap();
        t.add_link(b, a).unwrap();
        let spec = TopologySpec::sinr_for(&t);
        let rebuilt = spec.build().unwrap();
        let rt = rebuilt.model.topology();
        assert_eq!(rt.num_nodes(), 2);
        assert_eq!(rt.num_links(), 2);
        assert_eq!(
            rt.node(a).unwrap().position(),
            t.node(a).unwrap().position()
        );
        // Same spec → same hash, across independent constructions.
        assert_eq!(
            spec.content_hash(),
            TopologySpec::sinr_for(&t).content_hash()
        );
    }

    #[test]
    fn apply_delta_patches_in_place_and_matches_direct_construction() {
        let spec = TopologySpec::from_value(&chain_spec()).unwrap();
        let delta = DeltaSpec::from_value(
            &serde_json::from_str::<Value>(
                r#"{"moved_nodes": [[2, 120, 5]],
                    "rate_changed_links": [[1, [36]]],
                    "joined_nodes": [[60, 60]],
                    "added_links": [[1, 3]]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let (patched, core) = spec.apply_delta(&delta).unwrap();
        // The patched spec hashes identically to the same network sent
        // inline from scratch — the topology it produces is
        // indistinguishable from a fresh registration.
        let direct: Value = serde_json::from_str(
            r#"{
                "model": "declarative",
                "nodes": [[0,0],[50,0],[120,5],[60,60]],
                "links": [[0,1],[1,2],[1,3]],
                "alone_rates": [[54],[36],[]],
                "conflicts": [[0,1]]
            }"#,
        )
        .unwrap();
        let direct = TopologySpec::from_value(&direct).unwrap();
        assert_eq!(patched, direct);
        assert_eq!(patched.content_hash(), direct.content_hash());
        assert_ne!(patched.content_hash(), spec.content_hash());
        // The core delta names exactly what changed, under stable ids.
        assert_eq!(core.moved_nodes, vec![NodeId::from_index(2)]);
        assert_eq!(core.joined_nodes, vec![NodeId::from_index(3)]);
        assert_eq!(core.rate_changed_links, vec![LinkId::from_index(1)]);
        assert_eq!(core.added_links, vec![LinkId::from_index(2)]);
        // A no-op move (same position) registers no change.
        let noop = DeltaSpec {
            moved_nodes: vec![(0, 0.0, 0.0)],
            ..DeltaSpec::default()
        };
        let (same, core) = spec.apply_delta(&noop).unwrap();
        assert_eq!(same.content_hash(), spec.content_hash());
        assert!(core.is_empty());
    }

    #[test]
    fn apply_delta_rejects_invalid_patches() {
        let spec = TopologySpec::from_value(&chain_spec()).unwrap();
        let bad = [
            DeltaSpec {
                moved_nodes: vec![(9, 0.0, 0.0)],
                ..DeltaSpec::default()
            },
            DeltaSpec {
                rate_changed_links: vec![(7, vec![54.0])],
                ..DeltaSpec::default()
            },
            DeltaSpec {
                added_links: vec![(0, 0)],
                ..DeltaSpec::default()
            },
            DeltaSpec {
                added_links: vec![(0, 1)],
                ..DeltaSpec::default()
            },
        ];
        for delta in &bad {
            assert!(spec.apply_delta(delta).is_err(), "accepted: {delta:?}");
        }
        // Rate edits against SINR specs are meaningless: rates are geometry.
        let mut t = Topology::new();
        let a = t.add_node(0.0, 0.0);
        let b = t.add_node(40.0, 0.0);
        t.add_link(a, b).unwrap();
        let sinr = TopologySpec::sinr_for(&t);
        let rate_edit = DeltaSpec {
            rate_changed_links: vec![(0, vec![54.0])],
            ..DeltaSpec::default()
        };
        assert!(sinr.apply_delta(&rate_edit).is_err());
    }

    #[test]
    fn delta_chain_hash_sees_coordinates() {
        let a = DeltaSpec {
            moved_nodes: vec![(2, 10.0, 0.0)],
            ..DeltaSpec::default()
        };
        let b = DeltaSpec {
            moved_nodes: vec![(2, 20.0, 0.0)],
            ..DeltaSpec::default()
        };
        // TopologyDelta::content_hash collapses these (same ids moved);
        // the chain hash must not, or two different updates would coalesce.
        assert_ne!(a.chain_hash(), b.chain_hash());
        assert_eq!(a.chain_hash(), a.clone().chain_hash());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            r#"{"nodes": [[0,0]], "links": [[0,1]]}"#,
            r#"{"nodes": [[0,0],[1,1]], "links": []}"#,
            r#"{"nodes": [[0,0],[1,1]], "links": [[0,5]]}"#,
            r#"{"nodes": [[0,0],[1,1]], "links": [[0,0]]}"#,
            r#"{"model": "quantum", "nodes": [[0,0],[1,1]], "links": [[0,1]]}"#,
            r#"{"nodes": [[0,0],[1,1]], "links": [[0,1]], "alone_rates": [[54],[54]]}"#,
            r#"{"nodes": [[0,0],[1,1]], "links": [[0,1]], "conflicts": [[0,9]]}"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(TopologySpec::from_value(&v).is_err(), "accepted: {bad}");
        }
    }
}
